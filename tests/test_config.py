import numpy as np
import pytest

from potts_sl import (AffinityConfig, AffinityGraph, DataError, LossConfig, NeighborhoodKind,
                      ProbField, ScribbleField, SolverConfig, parse_config_text,
                      random_walker_solve)
from potts_sl.config import RunConfig
from potts_sl.trainer import STEP_SIZE, TrainConfig
from potts_sl.data_terms import XentKind
from potts_sl.potts import PottsKind


class TestParsing:
    def test_empty_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg.loss_cfg.eta == 0.3 and cfg.loss_cfg.lam == 6.0
        assert cfg.loss_cfg.potts is PottsKind.CD and cfg.loss_cfg.xent is XentKind.CCE
        assert cfg.affinity.kind is NeighborhoodKind.NN4
        assert cfg.affinity.color_bandwidth == 9.0
        assert cfg.solver_cfg.steps == 200 and cfg.solver_cfg.learning_rate == 0.075
        assert cfg.rounds == 10
        assert cfg == RunConfig()
        assert parse_config_text("neighborhood = nn4") == cfg

    def test_full_config(self):
        text = """
        # run settings
        eta = 1.5
        lambda = 2.0
        potts = q      # quadratic
        xent = quad
        neighborhood = dense:3:1.5
        color_bandwidth = 3
        steps = 50
        lr = 0.01
        rounds = 4
        seed = 11
        """
        cfg = parse_config_text(text)
        assert cfg.loss_cfg.eta == 1.5 and cfg.loss_cfg.lam == 2.0
        assert cfg.loss_cfg.potts is PottsKind.Q and cfg.loss_cfg.xent is XentKind.QUAD
        assert cfg.affinity.kind is NeighborhoodKind.DENSE_TRUNCATED
        assert cfg.affinity.radius == 3 and cfg.affinity.spatial_bandwidth == 1.5
        assert cfg.affinity.color_bandwidth == 3.0
        assert cfg.solver_cfg.steps == 50 and cfg.solver_cfg.learning_rate == 0.01
        assert cfg.rounds == 4
        # seed is accepted and validated, but changes nothing
        assert cfg == parse_config_text(text.replace("seed = 11", ""))

    def test_sparse_neighborhood(self):
        cfg = parse_config_text("neighborhood = sparse:2")
        assert cfg.affinity.kind is NeighborhoodKind.SPARSE_WINDOW
        assert cfg.affinity.radius == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError, match="unknown config keys"):
            parse_config_text("momentum = 0.9")

    def test_duplicate_key_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            parse_config_text("eta = 1\neta = 2")

    def test_missing_equals_rejected(self):
        with pytest.raises(DataError, match="key = value"):
            parse_config_text("eta 0.3")

    @pytest.mark.parametrize("line", [
        "eta = -1",
        "lambda = nan",
        "potts = tv",
        "xent = mse",
        "neighborhood = dense:3",
        "neighborhood = knn:4",
        "color_bandwidth = 0",
        "steps = 0",
        "lr = 0",
        "rounds = 0",
        "seed = 1.5",
    ])
    def test_bad_values_rejected(self, line):
        with pytest.raises(DataError):
            parse_config_text(line)

    def test_bad_value_message_names_the_field(self):
        with pytest.raises(DataError, match=r"^steps must be an integer >= 1, got 0$"):
            parse_config_text("steps = 0")
        with pytest.raises(DataError, match=r"^learning_rate must be a finite number > 0"):
            parse_config_text("lr = 0")
        with pytest.raises(DataError, match=r"^lam must be a finite number >= 0, got nan$"):
            parse_config_text("lambda = nan")


def _random_walker(**weights):
    """random_walker_solve on a valid 1x2 instance with the given eta/lam."""
    graph = AffinityGraph(2, [0], [1], [1.0], grid=(1, 2))
    return random_walker_solve(ProbField.uniform(1, 2, 2), ScribbleField.empty(1, 2), graph,
                               **{"eta": 1.0, "lam": 1.0, **weights})


NAN, INF = float("nan"), float("inf")
# AffinityGraph's npixels and grid have their own table in test_affinity.py.
COUNT_BAD = [NAN, INF, None, "1", True, 2.5, 0, -1]
REAL_BAD = [NAN, INF, None, "1", True, -1, 10**400]  # 10**400 overflows a float
SETTINGS = [
    (LossConfig, "eta", REAL_BAD),
    (LossConfig, "lam", REAL_BAD),
    (SolverConfig, "steps", COUNT_BAD),
    (SolverConfig, "learning_rate", REAL_BAD + [0]),
    (TrainConfig, "rounds", COUNT_BAD),
    (TrainConfig, "inner_epochs", COUNT_BAD),
    (TrainConfig, "pretrain_epochs", COUNT_BAD),
    (AffinityConfig, "radius", COUNT_BAD),
    (RunConfig, "rounds", COUNT_BAD),
    (_random_walker, "eta", REAL_BAD),
    (_random_walker, "lam", REAL_BAD),
]


@pytest.mark.parametrize("make, name, value", [
    pytest.param(make, name, value, id=f"{make.__name__}-{name}-{value!r:.10}")
    for make, name, values in SETTINGS for value in values
])
def test_every_setting_refuses_a_bad_value(make, name, value):
    with pytest.raises(DataError, match=rf"^{name} must be "):
        make(**{name: value})


@pytest.mark.parametrize("make, name, value", [
    (SolverConfig, "steps", np.int64(7)), (AffinityConfig, "radius", np.uint8(2)),
    (TrainConfig, "rounds", np.int32(3)), (RunConfig, "rounds", np.int16(4)),
])
def test_numpy_integer_counts_are_stored_as_int(make, name, value):
    stored = getattr(make(**{name: value}), name)
    assert type(stored) is int and stored == value


def test_step_size_is_a_constant_not_a_setting():
    assert STEP_SIZE == 1.0
    with pytest.raises(TypeError):
        TrainConfig(step_size=1.0)
