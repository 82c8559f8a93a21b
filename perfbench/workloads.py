"""Seeded workloads of the potts-sl benchmark and the checks on their outputs.

Each workload writes its input files from a seed, names the `potts-sl`
command line of one job, and checks a job's output files. The checks read
the files with their own parsers and recompute what they verify, so they do
not share code with the program under test.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

# Gate 10 of the acceptance suite allows this much rise between rounds.
LOSS_TRACE_TOL = 1e-6
# Fields are stored as float32, so rows sum to 1 only within float32 rounding.
ROW_SUM_TOL = 1e-5
# Relative residual of the oracle system evaluated at the float32 field.
RESIDUAL_TOL = 1e-4
# Config defaults of the program that the checks recompute with.
DEFAULT_ETA = 0.3
DEFAULT_LAMBDA = 6.0
DEFAULT_BANDWIDTH = 9.0


# ---------------------------------------------------------------------------
# file readers, independent of potts_sl.fileio


def read_pfld(path: Path) -> np.ndarray:
    """(H, W, K) float32 field of a PFLD file."""
    data = path.read_bytes()
    if data[:4] != b"PFLD":
        raise ValueError(f"{path.name}: bad magic")
    h, w, k = struct.unpack("<III", data[4:16])
    values = np.frombuffer(data, dtype="<f4", offset=16)
    if values.size != h * w * k:
        raise ValueError(f"{path.name}: {values.size} values for {h}x{w}x{k}")
    return values.reshape(h, w, k)


def read_pgm(path: Path) -> np.ndarray:
    """(H, W) uint8 array of a binary PGM with a comment-free header."""
    data = path.read_bytes()
    tokens = data.split(maxsplit=4)
    if len(tokens) < 4 or tokens[0] != b"P5" or tokens[3] != b"255":
        raise ValueError(f"{path.name}: not a P5 maxval-255 file")
    w, h = int(tokens[1]), int(tokens[2])
    return np.frombuffer(data[len(data) - w * h :], dtype=np.uint8).reshape(h, w)


def read_table(path: Path) -> list[tuple[str, str]]:
    """Tab-separated `key value` lines."""
    rows = []
    for line in path.read_text().splitlines():
        key, _, value = line.partition("\t")
        rows.append((key, value))
    return rows


def forward_offsets(neighborhood: str) -> list[tuple[int, int]]:
    """Grid offsets of an `nn4` or `sparse:R` neighborhood, each pair once."""
    if neighborhood == "nn4":
        return [(0, 1), (1, 0)]
    radius = int(neighborhood.split(":")[1])
    return [(dy, dx) for dy in range(radius + 1) for dx in range(-radius, radius + 1)
            if dy > 0 or dx > 0]


def edge_count(height: int, width: int, neighborhood: str) -> int:
    return sum(max(0, height - dy) * max(0, width - abs(dx))
               for dy, dx in forward_offsets(neighborhood))


# ---------------------------------------------------------------------------
# shared checks


def _simplex_problems(y: np.ndarray, name: str) -> list[str]:
    problems = []
    if not np.all(np.isfinite(y)):
        return [f"{name}: non-finite entries"]
    if y.min() < -ROW_SUM_TOL:
        problems.append(f"{name}: entry {y.min():.3g} below 0")
    gap = float(np.max(np.abs(y.sum(axis=2, dtype=np.float64) - 1.0)))
    if gap > ROW_SUM_TOL:
        problems.append(f"{name}: a row sums to 1 only within {gap:.3g}")
    return problems


def _pinning_problems(y: np.ndarray, scribbles: np.ndarray, name: str) -> list[str]:
    labeled = scribbles > 0
    target = np.eye(y.shape[2], dtype=np.float32)[scribbles[labeled] - 1]
    bad = np.count_nonzero(np.any(y[labeled] != target, axis=1))
    return [f"{name}: {bad} scribbled rows are not their exact one-hot"] if bad else []


def _decode_problems(y: np.ndarray, decode: np.ndarray) -> list[str]:
    """The decode must pick a largest entry of each row.

    float32 rounding is monotone, so the program's float64 argmax is still a
    largest entry after the field is stored; ties after rounding may go
    either way.
    """
    k = y.shape[2]
    if decode.shape != y.shape[:2] or decode.min() < 1 or decode.max() > k:
        return ["y_decode.pgm: shape or labels out of range"]
    picked = np.take_along_axis(y, decode[..., None].astype(np.int64) - 1, axis=2)[..., 0]
    bad = np.count_nonzero(picked != y.max(axis=2))
    return [f"y_decode.pgm: {bad} pixels are not the argmax of y.pfld"] if bad else []


def _trace_problems(rows, steps: int) -> tuple[list[str], float]:
    values = [float(v) for k, v in rows if k != "divergence_events"]
    problems = []
    if len(values) != steps + 1:
        problems.append(f"solve_report.txt: {len(values)} trace entries, expected {steps + 1}")
    if not all(math.isfinite(v) for v in values):
        problems.append("solve_report.txt: non-finite trace entry")
    if not rows or rows[-1][0] != "divergence_events":
        problems.append("solve_report.txt: no divergence_events line")
    return problems, (values[-1] if values else math.nan)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Inputs:
    """Paths of a workload's input files plus the arrays the checks need."""

    files: dict
    scribbles: np.ndarray
    image: np.ndarray
    sigma: np.ndarray | None = None


@dataclass
class JobOutcome:
    problems: list
    objective: float
    miou: float | None = None


class GridWorkload:
    """`solve` or `oracle-rw` on a Voronoi image with smooth predictions."""

    def __init__(self, name, command, size, neighborhood, why, classes=5, regions=8,
                 scribbled=0.01, steps=0):
        self.name, self.command, self.why, self.steps = name, command, why, steps
        self.size, self.neighborhood = size, neighborhood
        self.classes, self.regions, self.scribbled = classes, regions, scribbled

    @property
    def edges(self) -> int:
        return edge_count(self.size, self.size, self.neighborhood)

    def generate(self, seed: int, folder: Path) -> Inputs:
        from potts_sl import synthetic, write_image, write_labels, write_probfield

        n, k = self.size, self.classes
        rng = np.random.default_rng(seed)
        image = synthetic.voronoi_image(rng, n, n, self.regions)
        sigma = synthetic.smooth_prob_field(rng, n, n, k)
        per_class = max(1, round(self.scribbled * n * n / k))
        scribbles = synthetic.sparse_scribbles(rng, n, n, k, per_class)
        files = {name: folder / name for name in ("image.ppm", "scribbles.pgm", "sigma.pfld", "run.cfg")}
        write_image(image, files["image.ppm"])
        write_labels(scribbles.data, files["scribbles.pgm"])
        write_probfield(sigma, files["sigma.pfld"])
        config = f"neighborhood = {self.neighborhood}\n"
        if self.steps:
            config += f"steps = {self.steps}\n"
        files["run.cfg"].write_text(config)
        return Inputs(files, scribbles.data.copy(), image.data.copy(),
                      read_pfld(files["sigma.pfld"]).astype(np.float64))

    def argv(self, inputs: Inputs, out: Path) -> list[str]:
        f = inputs.files
        return [self.command, "--image", str(f["image.ppm"]), "--scribbles", str(f["scribbles.pgm"]),
                "--sigma", str(f["sigma.pfld"]), "--config", str(f["run.cfg"]), "--out", str(out)]

    def check(self, inputs: Inputs, out: Path) -> JobOutcome:
        y = read_pfld(out / "y.pfld")
        if y.shape != inputs.sigma.shape:
            return JobOutcome([f"y.pfld: shape {y.shape}, expected {inputs.sigma.shape}"], math.nan)
        problems = _simplex_problems(y, "y.pfld")
        problems += _pinning_problems(y, inputs.scribbles, "y.pfld")
        problems += _decode_problems(y, read_pgm(out / "y_decode.pgm"))
        trace_problems, objective = _trace_problems(read_table(out / "solve_report.txt"), self.steps)
        problems += trace_problems
        if self.command == "oracle-rw":
            problems += self._residual_problems(inputs, y)
        return JobOutcome(problems, objective)

    def _residual_problems(self, inputs: Inputs, y: np.ndarray) -> list[str]:
        """Residual of (2 eta I + lambda L)_UU y_U = 2 eta sigma_U + lambda W_US ybar_S."""
        h, w, k = y.shape
        img = inputs.image.astype(np.float64)
        idx = np.arange(h * w).reshape(h, w)
        rows, cols, vals = [], [], []
        for dy, dx in forward_offsets(self.neighborhood):
            a = img[: h - dy, : w - dx]
            b = img[dy:, dx:]
            rows.append(idx[: h - dy, : w - dx].ravel())
            cols.append(idx[dy:, dx:].ravel())
            vals.append(np.exp(-np.sum((a - b) ** 2, axis=2) / (2 * DEFAULT_BANDWIDTH**2)).ravel())
        r, c, v = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
        weights = sparse.coo_matrix((np.r_[v, v], (np.r_[r, c], np.r_[c, r])), shape=(h * w, h * w)).tocsr()
        laplacian = sparse.diags(np.asarray(weights.sum(axis=1)).ravel()) - weights
        system = (2 * DEFAULT_ETA) * sparse.identity(h * w) + DEFAULT_LAMBDA * laplacian
        yf = y.reshape(-1, k).astype(np.float64)
        unlabeled = inputs.scribbles.ravel() == 0
        residual = (system @ yf)[unlabeled] - 2 * DEFAULT_ETA * inputs.sigma.reshape(-1, k)[unlabeled]
        rhs = 2 * DEFAULT_ETA * inputs.sigma.reshape(-1, k)[unlabeled] - (system[unlabeled][:, ~unlabeled] @ yf[~unlabeled])
        rel = np.linalg.norm(residual, axis=0) / np.linalg.norm(rhs, axis=0)
        worst = float(rel.max())
        return [f"oracle system residual {worst:.3g} above {RESIDUAL_TOL:g}"] if worst > RESIDUAL_TOL else []


class TrainWorkload:
    """`train --gt` on the two-region instance that a linear model cannot split."""

    command = "train"
    classes = 2
    neighborhood = "nn4"

    def __init__(self, name, size, why, rounds=10):
        self.name, self.size, self.why, self.rounds = name, size, why, rounds

    @property
    def edges(self) -> int:
        return edge_count(self.size, self.size, self.neighborhood)

    def generate(self, seed: int, folder: Path) -> Inputs:
        from potts_sl import synthetic, write_image, write_labels

        image, scribbles, gt = synthetic.two_region_instance(seed, self.size, self.size)
        files = {name: folder / name for name in ("image.ppm", "scribbles.pgm", "gt.pgm", "run.cfg")}
        write_image(image, files["image.ppm"])
        write_labels(scribbles.data, files["scribbles.pgm"])
        write_labels(gt, files["gt.pgm"])
        files["run.cfg"].write_text(f"rounds = {self.rounds}\n")
        return Inputs(files, scribbles.data.copy(), image.data.copy())

    def argv(self, inputs: Inputs, out: Path) -> list[str]:
        f = inputs.files
        return ["train", "--image", str(f["image.ppm"]), "--scribbles", str(f["scribbles.pgm"]),
                "--config", str(f["run.cfg"]), "--out", str(out), "--gt", str(f["gt.pgm"])]

    def check(self, inputs: Inputs, out: Path) -> JobOutcome:
        trace = [float(v) for _, v in read_table(out / "loss_trace.txt")]
        problems = []
        if len(trace) != self.rounds or not all(math.isfinite(v) for v in trace):
            problems.append(f"loss_trace.txt: {len(trace)} rounds, expected {self.rounds} finite values")
        rise = max(np.diff(trace), default=0.0)
        if rise > LOSS_TRACE_TOL:
            problems.append(f"loss_trace.txt: joint loss rises by {rise:.3g}")
        miou = {k: float(v) for k, v in read_table(out / "miou.txt")}
        if not miou["final_y_miou"] >= miou["pretrain_sigma_miou"]:
            problems.append(f"miou.txt: final_y_miou {miou['final_y_miou']} below "
                            f"pretrain_sigma_miou {miou['pretrain_sigma_miou']}")
        y = read_pfld(out / "y.pfld")
        problems += _simplex_problems(y, "y.pfld")
        problems += _pinning_problems(y, inputs.scribbles, "y.pfld")
        problems += _simplex_problems(read_pfld(out / "sigma.pfld"), "sigma.pfld")
        return JobOutcome(problems, trace[-1] if trace else math.nan, miou["final_y_miou"])


def make_workloads(tiny: bool = False) -> dict:
    """The benchmark's workloads by name; `tiny` shrinks them for the smoke test."""
    workloads = [
        GridWorkload(
            "solve-sparse2", "solve", 16 if tiny else 96, "sparse:2",
            "pairwise path (potts value+grad, solver gather and np.add.at scatter) is over 95% "
            "of a job; each (E, K) float64 temporary is about twice the L2",
            # 50 steps (not the default 200) so that a 40 s run holds about a
            # dozen jobs and its median is steadier; the per-step work is the same.
            steps=50,
        ),
        TrainWorkload(
            "train-nn4", 16 if tiny else 48,
            "small cache-resident graph where per-call overhead, line search and softmax "
            "dominate; shows trainer and solver-descent changes",
            # 3 rounds (not the default 10) so that a 40 s run holds about 15
            # jobs and its median is steadier; each round is still a full
            # 200-step solve plus 25 inner epochs.
            rounds=2 if tiny else 3,
        ),
        GridWorkload(
            "oracle-nn4", "oracle-rw", 32 if tiny else 256, "nn4",
            "Laplacian assembly and K Jacobi-PCG solves on the thread pool; no potts or "
            "solver-step work, so pairwise changes should not move it",
        ),
    ]
    return {w.name: w for w in workloads}
