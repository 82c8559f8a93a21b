"""Line-oriented run configuration files.

Format: one `key = value` per line, `#` starts a comment, blank lines are
ignored, unknown keys are rejected. Keys:

    eta              data/entropy weight, float >= 0
    lambda           pairwise weight, float >= 0
    potts            bl | q | nq | cce | cd | lq
    xent             ce | rce | cce | quad
    neighborhood     nn4 | sparse:R | dense:R:GAMMA
    color_bandwidth  float > 0 whose 2 * value**2 is a positive finite float
    steps            accepted solver descent steps, int >= 1
    lr               solver first trial step, float > 0; each Armijo step
                     starts from the last accepted size and only halves it
    rounds           alternation rounds, int >= 1
    seed             integer; accepted for compatibility with older configs
                     and otherwise ignored: solve and train are deterministic

The parser only parses: it turns each value's text into a number or a kind.
The dataclasses it fills check the ranges, so a bad value's DataError names
their field (lr is learning_rate, lambda is lam), as it does in the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .affinity import AffinityConfig, NeighborhoodKind
from .data_terms import XentKind
from .errors import DataError
from .losses import LossConfig
from .potts import PottsKind
from .solver import SolverConfig
from .trainer import TrainConfig


@dataclass
class RunConfig(TrainConfig):
    """What read_config returns: a TrainConfig, which pretrain and alternate
    take as it is, plus the neighborhood each job's graph is built from."""

    affinity: AffinityConfig = field(default_factory=AffinityConfig)


def _parse_float(key, raw):
    try:
        return float(raw)
    except ValueError:
        raise DataError(f"config key {key}: {raw!r} is not a number") from None


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise DataError(f"config key {key}: {raw!r} is not an integer") from None


def _parse_neighborhood(raw: str) -> dict:
    """AffinityConfig fields of a neighborhood value."""
    parts = raw.strip().lower().split(":")
    if parts[0] == "nn4" and len(parts) == 1:
        return {"kind": NeighborhoodKind.NN4}
    if parts[0] == "sparse" and len(parts) == 2:
        return {"kind": NeighborhoodKind.SPARSE_WINDOW,
                "radius": _parse_int("neighborhood", parts[1])}
    if parts[0] == "dense" and len(parts) == 3:
        return {"kind": NeighborhoodKind.DENSE_TRUNCATED,
                "radius": _parse_int("neighborhood", parts[1]),
                "spatial_bandwidth": _parse_float("neighborhood", parts[2])}
    raise DataError(
        f"config key neighborhood: {raw!r} is not nn4 | sparse:R | dense:R:GAMMA"
    )


def parse_config_text(text: str, source="<config>") -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise DataError(f"{source}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key in values:
            raise DataError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = raw

    known = {
        "eta", "lambda", "potts", "xent", "neighborhood",
        "color_bandwidth", "steps", "lr", "rounds", "seed",
    }
    unknown = sorted(set(values) - known)
    if unknown:
        raise DataError(f"{source}: unknown config keys: {', '.join(unknown)}")

    def given(key, name, parse):
        """{name: parse(key, raw)} if the file sets key, else {} (the default holds)."""
        return {name: parse(key, values[key])} if key in values else {}

    loss = LossConfig(
        **given("eta", "eta", _parse_float),
        **given("lambda", "lam", _parse_float),
        **given("potts", "potts", lambda _, raw: PottsKind.parse(raw)),
        **given("xent", "xent", lambda _, raw: XentKind.parse(raw)),
    )
    affinity = AffinityConfig(
        **(_parse_neighborhood(values["neighborhood"]) if "neighborhood" in values else {}),
        **given("color_bandwidth", "color_bandwidth", _parse_float),
    )
    solver = SolverConfig(
        **given("steps", "steps", _parse_int),
        **given("lr", "learning_rate", _parse_float),
    )
    given("seed", "seed", _parse_int)  # validated, then ignored
    return RunConfig(loss_cfg=loss, solver_cfg=solver, affinity=affinity,
                     **given("rounds", "rounds", _parse_int))


def read_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, source=str(path))
