import pytest

from potts_sl import DataError, NeighborhoodKind, parse_config_text
from potts_sl.config import RunConfig
from potts_sl.data_terms import XentKind
from potts_sl.potts import PottsKind


class TestParsing:
    def test_empty_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg.loss.eta == 0.3 and cfg.loss.lam == 6.0
        assert cfg.loss.potts is PottsKind.CD and cfg.loss.xent is XentKind.CCE
        assert cfg.affinity.kind is NeighborhoodKind.NN4
        assert cfg.affinity.color_bandwidth == 9.0
        assert cfg.solver.steps == 200 and cfg.solver.learning_rate == 0.075
        assert cfg.rounds == 10
        assert cfg == RunConfig()

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
        assert cfg.loss.eta == 1.5 and cfg.loss.lam == 2.0
        assert cfg.loss.potts is PottsKind.Q and cfg.loss.xent is XentKind.QUAD
        assert cfg.affinity.kind is NeighborhoodKind.DENSE_TRUNCATED
        assert cfg.affinity.radius == 3 and cfg.affinity.spatial_bandwidth == 1.5
        assert cfg.affinity.color_bandwidth == 3.0
        assert cfg.solver.steps == 50 and cfg.solver.learning_rate == 0.01
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
