"""Command-line surface.

Subcommands: solve (pseudo-label solver), oracle-rw (exact quadratic oracle),
train (pretrain + alternation), gradcheck (finite-difference suites),
corrupt-bench (label-corruption experiment), metrics (mIoU of two label maps).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .affinity import build_graph
from .config import read_config
from .data_terms import XentKind, xent_grad, xent_value
from .errors import DataError, NumericalError
from .fileio import (
    DEFAULT_PALETTE,
    read_ground_truth,
    read_image,
    read_label_map,
    read_probfield,
    read_scribbles,
    visualize,
    write_image,
    write_labels,
    write_probfield,
)
from .metrics import miou
from .oracles import finite_diff_check, random_walker_solve
from .potts import PottsKind, potts_grad, potts_value
from .simplex import argmax_decode
from .solver import pseudo_label_objective, solve_pseudo_labels
from .trainer import PixelModel, alternate, corruption_experiment, predict, pretrain

GRADCHECK_TOL = 1e-4


class _CliParser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _seed(text: str) -> int:
    """argparse type of --seed: numpy seeds must be non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _check_paths(args):
    """Refuse missing input files and an unwritable output directory (if any)."""
    for name in ("image", "scribbles", "sigma", "config", "pred", "gt"):
        path = getattr(args, name, None)
        if path is not None and not os.path.isfile(path):
            raise DataError(f"--{name}: no such file: {path}")
    out = getattr(args, "out", None)
    if out is None:
        return
    os.makedirs(out, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise DataError(f"output directory not writable: {out}")


def _prepare(args, with_sigma: bool):
    """Checked paths, config, inputs and affinity graph of one file job.

    Returns (cfg, image, scribbles, sigma or None, graph). Refuses K above
    the palette size before any solve. Shape mismatches are left to the
    library: the solvers and pretrain reject them before they start.
    """
    _check_paths(args)
    cfg = read_config(args.config)
    image = read_image(args.image)
    sigma = read_probfield(args.sigma) if with_sigma else None
    scribbles = read_scribbles(args.scribbles, classes=sigma.classes if with_sigma else None)
    classes = sigma.classes if with_sigma else scribbles.max_class()
    if classes > len(DEFAULT_PALETTE):
        raise DataError(f"K={classes} exceeds the {len(DEFAULT_PALETTE)} palette colors")
    return cfg, image, scribbles, sigma, build_graph(image, cfg.affinity)


def _write_field_artifacts(out_dir, stem, field):
    write_probfield(field, os.path.join(out_dir, f"{stem}.pfld"))
    write_labels(argmax_decode(field), os.path.join(out_dir, f"{stem}_decode.pgm"))
    write_image(visualize(field), os.path.join(out_dir, f"{stem}_vis.ppm"))


def _write_solution(out, y, trace, divergence_events):
    """Pseudo-label artifacts plus solve_report.txt (one line per trace value)."""
    _write_field_artifacts(out, "y", y)
    with open(os.path.join(out, "solve_report.txt"), "w") as fh:
        for step, value in enumerate(trace):
            fh.write(f"{step}\t{value!r}\n")
        fh.write(f"divergence_events\t{divergence_events}\n")


def _cmd_solve(args) -> int:
    cfg, _, scribbles, sigma, graph = _prepare(args, with_sigma=True)
    y, report = solve_pseudo_labels(sigma, None, scribbles, graph, cfg.loss_cfg, cfg.solver_cfg)
    _write_solution(args.out, y, report.trace, report.divergence_events)
    print(f"final objective {report.trace[-1]:.6f} "
          f"({report.divergence_events} divergence events)")
    return 0


def _cmd_oracle_rw(args) -> int:
    cfg, _, scribbles, sigma, graph = _prepare(args, with_sigma=True)
    y = random_walker_solve(sigma, scribbles, graph, cfg.loss_cfg.eta, cfg.loss_cfg.lam)
    quad_cfg = replace(cfg.loss_cfg, potts=PottsKind.Q, xent=XentKind.QUAD)
    objective = pseudo_label_objective(sigma, y, scribbles, graph, quad_cfg)
    if not np.isfinite(objective):
        raise NumericalError(f"quadratic objective of the solution is {objective!r}")
    _write_solution(args.out, y, [objective], 0)
    print(f"exact quadratic solution, objective {objective:.6f}")
    return 0


def _cmd_train(args) -> int:
    cfg, image, scribbles, _, graph = _prepare(args, with_sigma=False)
    classes = scribbles.max_class()
    # the graph is the image's, so shapes are refused before classes
    scribbled, _, _ = scribbles.partition(scribbles.height, scribbles.width, classes, graph)
    if not scribbled.size:
        raise DataError("training needs at least one scribble")
    if classes < 2:
        raise DataError("training needs scribbles from at least two classes")
    if args.gt is not None:
        gt = read_ground_truth(args.gt, classes)
        if gt.shape != (image.height, image.width):
            raise DataError("prediction and ground truth differ in size")

    model = pretrain(PixelModel.zeros(classes), image, scribbles, cfg)
    pre_sigma, _ = predict(model, image)
    model, y, trace = alternate(model, image, scribbles, graph, cfg)
    sigma, _ = predict(model, image)

    _write_field_artifacts(args.out, "sigma", sigma)
    _write_field_artifacts(args.out, "y", y)
    with open(os.path.join(args.out, "loss_trace.txt"), "w") as fh:
        for rnd, value in enumerate(trace, start=1):
            fh.write(f"{rnd}\t{value!r}\n")
    if args.gt is not None:
        lines = [
            ("pretrain_sigma_miou", miou(argmax_decode(pre_sigma), gt, classes)),
            ("final_sigma_miou", miou(argmax_decode(sigma), gt, classes)),
            ("final_y_miou", miou(argmax_decode(y), gt, classes)),
        ]
        with open(os.path.join(args.out, "miou.txt"), "w") as fh:
            for name, value in lines:
                fh.write(f"{name}\t{value:.6f}\n")
        for name, value in lines:
            print(f"{name} {value:.4f}")
    print(f"joint loss {trace[0]:.6f} -> {trace[-1]:.6f} over {len(trace)} rounds")
    return 0


def _interior_pair(rng, classes):
    p = 0.85 * rng.dirichlet(np.ones(classes)) + 0.15 / classes
    q = 0.85 * rng.dirichlet(np.ones(classes)) + 0.15 / classes
    return p, q


def gradcheck_suite(kinds=None, pairs: int = 100, classes: int = 4, seed: int = 0):
    """Max finite-difference error per kind name; drives the gradcheck command."""
    all_kinds = [("potts", k) for k in PottsKind] + [("xent", k) for k in XentKind]
    if kinds:
        wanted = {name.strip().lower() for name in kinds}
        all_kinds = [(g, k) for g, k in all_kinds if k.value in wanted]
        if len(all_kinds) < len(wanted):
            known = sorted({k.value for _, k in all_kinds})
            raise DataError(f"unknown gradcheck kind; matched only {known}")
    rng = np.random.default_rng(seed)
    results = {}
    for group, kind in all_kinds:
        value_fn = potts_value if group == "potts" else xent_value
        grad_fn = potts_grad if group == "potts" else xent_grad
        worst = 0.0
        for _ in range(pairs):
            p, q = _interior_pair(rng, classes)
            point = np.concatenate([p, q])
            f = lambda z: value_fn(kind, z[:classes], z[classes:])
            ga, gb = grad_fn(kind, p, q)
            worst = max(worst, finite_diff_check(f, np.concatenate([ga, gb]), point))
        results[f"{group}:{kind.value}"] = worst
    return results


def _cmd_gradcheck(args) -> int:
    results = gradcheck_suite(kinds=args.kind or None, seed=args.seed)
    ok = True
    for name, err in results.items():
        passed = err < GRADCHECK_TOL
        ok = ok and passed
        print(f"{name:12s} max_rel_err={err:.3e} {'PASS' if passed else 'FAIL'}")
    return 0 if ok else 3


def _cmd_corrupt_bench(args) -> int:
    _check_paths(args)
    rows = corruption_experiment(seed=args.seed)
    path = os.path.join(args.out, "corruption.csv")
    with open(path, "w") as fh:
        fh.write("eta,kind,accuracy\n")
        for eta, kind, acc in rows:
            fh.write(f"{eta:g},{kind},{acc:.6f}\n")
            print(f"eta={eta:.1f} {kind:4s} accuracy={acc:.4f}")
    print(f"wrote {path}")
    return 0


def _cmd_metrics(args) -> int:
    _check_paths(args)
    pred = read_label_map(args.pred).astype(np.int64)
    gt = read_ground_truth(args.gt, args.classes)
    if pred.min() < 1 or pred.max() > args.classes:
        raise DataError(f"prediction labels must lie in 1..{args.classes}")
    print(f"{miou(pred, gt, args.classes):.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="potts-sl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    jobs = {}
    for name, func, with_sigma, help_text in (
        ("solve", _cmd_solve, True, "solve pseudo-labels at fixed predictions"),
        ("oracle-rw", _cmd_oracle_rw, True, "exact quadratic (random-walker) solve"),
        ("train", _cmd_train, False, "pretrain on scribbles, then alternate"),
    ):
        jobs[name] = sub.add_parser(name, help=help_text)
        for arg in ("image", "scribbles", "sigma", "config", "out"):
            if with_sigma or arg != "sigma":
                jobs[name].add_argument(f"--{arg}", required=True)
        jobs[name].set_defaults(func=func)
    jobs["train"].add_argument("--gt", default=None)

    grad = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    grad.add_argument("--kind", action="append", default=[],
                      help="restrict to a kind (repeatable): bl q nq cce cd lq ce rce quad")
    grad.add_argument("--seed", type=_seed, default=0)
    grad.set_defaults(func=_cmd_gradcheck)

    bench = sub.add_parser("corrupt-bench", help="label-corruption robustness table")
    bench.add_argument("--seed", type=_seed, required=True)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=_cmd_corrupt_bench)

    metrics_p = sub.add_parser("metrics", help="mIoU between two PGM label maps")
    metrics_p.add_argument("--pred", required=True)
    metrics_p.add_argument("--gt", required=True)
    metrics_p.add_argument("--classes", type=int, required=True)
    metrics_p.set_defaults(func=_cmd_metrics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
