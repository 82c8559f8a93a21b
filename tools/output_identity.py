"""Compare the files two source trees of potts-sl write, byte for byte.

    python tools/output_identity.py PARENT_TREE CHANGE_TREE [--work DIR]

Each tree writes the same set of files in its own interpreter, with
PYTHONPATH=<tree>/src, once under OPENBLAS_NUM_THREADS=1 and once under =2:

- one job of each benchmark workload (<tree>/perfbench/workloads.py) at
  seeds 0 and 3: its input files, its output files and its stdout;
- `solve` on a 32x32 instance (K = 5, 60 steps) for every (potts, xent)
  pair on nn4, sparse:2 and dense:3:1.5, and on a 24x24 nn4 instance at
  K = 8 and K = 21;
- `train --gt` on a 20x20 two-region instance (2 rounds, 60 steps) for every
  pair on nn4 and sparse:2, and with CD/CCE on nn4 and sparse:2 on 20x20
  Voronoi instances at K = 4 and K = 21 (three scribbles per class and the
  argmax of a smooth field as ground truth), so the alternation is also
  compared beyond two classes;
- `solve` and `oracle-rw` on a 20x20 instance at K = 4, and `train --gt` on
  the two-region instance, with a config that sets all ten keys to moderate
  values other than their defaults;
- `corrupt-bench --seed 0` and `gradcheck`;
- pair_api.txt: the repr of `potts_value` and of both `potts_grad` vectors
  for every Potts kind, and of `xent_value` and both `xent_grad` vectors
  for every coupling, on seeded pairs at K = 2, 4, 8 and 21, one-hot and
  divergent pairs included, since gradcheck prints too few digits to show
  a last-bit change;
- library_values.txt: the repr of `potts_sum` for every Potts kind on two
  seeded 12x12 fields (K = 4, one of them one-hot on its scribbles) over the
  nn4 grid, the sparse:2 grid and the same edges without a layout, of
  `scribble_nll`, and of `sl_loss`, `ws_loss` and `pseudo_label_objective`
  for every (potts, xent) pair on those graphs; `sl_loss` and
  `pseudo_label_objective` also with no pixel and with every pixel
  scribbled, so an empty and a full set of coupled pixels are compared too,
  as are `scribble_nll` and `ws_loss` with no pixel and every pixel
  scribbled, the trace of a 10-step `solve_pseudo_labels` for every pair
  with no pixel and every pixel scribbled, the repr of the values of
  `random_walker_solve` (eta 0.3, lambda 6) on each graph with no, some and
  every pixel scribbled, and of `sl_loss`, `ws_loss` and
  `pseudo_label_objective` for every Potts kind on each graph at lambda
  1e300 and 1e308, where the pairwise gradient that these value functions
  assemble and drop overflows.
  The CLI reaches those value functions only through oracle-rw's Q/QUAD
  objective, so these are the files that show a last-bit change there.

Every job runs with relative paths from the set's folder, so stdout does not
name the folder, and its exit code goes to exit_codes.txt. The change's set
is compared with the parent's at the same thread count. The script prints
each file that differs and the largest relative change of any value in a
solve_report.txt or loss_trace.txt, and exits 1 on any difference, 2 if a
tree cannot write its set, 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

THREADS = ("1", "2")
TRACE_FILES = ("solve_report.txt", "loss_trace.txt")
POTTS = ("bl", "q", "nq", "cce", "cd", "lq")
XENT = ("ce", "rce", "cce", "quad")


def write_set(tree: Path, root: Path) -> None:
    """Write the file set of the potts_sl on sys.path into root."""
    import numpy as np

    import potts_sl
    from potts_sl import (AffinityConfig, AffinityGraph, DivergentPointError, LossConfig,
                          NeighborhoodKind, PottsKind, ProbField, ScribbleField, SolverConfig,
                          XentKind, argmax_decode, build_graph, is_divergent, potts_grad,
                          potts_sum, potts_value, pseudo_label_objective, random_walker_solve,
                          scribble_nll, sl_loss, solve_pseudo_labels, synthetic, write_image,
                          write_labels, write_probfield, ws_loss, xent_grad, xent_value)
    from potts_sl.cli import main

    if Path(potts_sl.__file__).resolve().parent != (tree / "src" / "potts_sl").resolve():
        sys.exit(f"imported potts_sl from {potts_sl.__file__}, not from {tree / 'src'}")
    sys.path.insert(0, str(tree / "perfbench"))
    import workloads

    root.mkdir(parents=True)
    os.chdir(root)
    codes = []

    def run(name, argv):
        out = Path(name)
        out.mkdir(parents=True, exist_ok=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = main(argv)
        (out / "stdout.txt").write_text(buf.getvalue())
        codes.append(f"{name}\t{code}\n")

    for (name, workload), seed in itertools.product(workloads.make_workloads().items(), (0, 3)):
        folder = Path("bench") / f"{name}-{seed}"
        folder.mkdir(parents=True)
        inputs = workload.generate(seed, folder)
        run(str(folder / "out"), workload.argv(inputs, folder / "out"))

    def grid_instance(folder, n, k, seed):
        folder.mkdir(parents=True)
        rng = np.random.default_rng(seed)
        write_image(synthetic.voronoi_image(rng, n, n, 6), folder / "image.ppm")
        write_probfield(synthetic.smooth_prob_field(rng, n, n, k), folder / "sigma.pfld")
        write_labels(synthetic.sparse_scribbles(rng, n, n, k, 3).data, folder / "scribbles.pgm")
        return ["--image", str(folder / "image.ppm"), "--scribbles", str(folder / "scribbles.pgm"),
                "--sigma", str(folder / "sigma.pfld")]

    solve_sets = [("k5", 32, 5, ("nn4", "sparse:2", "dense:3:1.5")),
                  ("k8", 24, 8, ("nn4",)), ("k21", 24, 21, ("nn4",))]
    for label, n, k, neighborhoods in solve_sets:
        files = grid_instance(Path("solve") / label, n, k, seed=n + k)
        for neighborhood, potts, xent in itertools.product(neighborhoods, POTTS, XENT):
            folder = Path("solve") / label / f"{neighborhood.replace(':', '-')}-{potts}-{xent}"
            folder.mkdir(parents=True)
            cfg = folder / "run.cfg"
            cfg.write_text(f"neighborhood = {neighborhood}\npotts = {potts}\nxent = {xent}\n"
                           "steps = 60\n")
            run(str(folder), ["solve", *files, "--config", str(cfg), "--out", str(folder)])

    def train_instance(folder, image, scribbles, gt):
        folder.mkdir()
        write_image(image, folder / "image.ppm")
        write_labels(scribbles.data, folder / "scribbles.pgm")
        write_labels(gt, folder / "gt.pgm")
        return folder

    def train(folder, neighborhood, potts, xent):
        out = folder / f"{neighborhood.replace(':', '-')}-{potts}-{xent}"
        out.mkdir()
        cfg = out / "run.cfg"
        cfg.write_text(f"neighborhood = {neighborhood}\npotts = {potts}\nxent = {xent}\n"
                       "rounds = 2\nsteps = 60\n")
        run(str(out), ["train", "--image", str(folder / "image.ppm"),
                       "--scribbles", str(folder / "scribbles.pgm"), "--config", str(cfg),
                       "--out", str(out), "--gt", str(folder / "gt.pgm")])

    folder = train_instance(Path("train"), *synthetic.two_region_instance(5, 20, 20))
    for neighborhood, potts, xent in itertools.product(("nn4", "sparse:2"), POTTS, XENT):
        train(folder, neighborhood, potts, xent)
    for k in (4, 21):
        rng = np.random.default_rng(20 + k)
        image = synthetic.voronoi_image(rng, 20, 20, k)
        scribbles = synthetic.sparse_scribbles(rng, 20, 20, k, 3)
        gt = argmax_decode(synthetic.smooth_prob_field(rng, 20, 20, k))
        folder = train_instance(Path(f"train-k{k}"), image, scribbles, gt)
        for neighborhood in ("nn4", "sparse:2"):
            train(folder, neighborhood, "cd", "cce")

    # every config key at a moderate value other than its default, so that a
    # setting read into the wrong field changes the written files
    all_keys = Path("all-keys.cfg")
    all_keys.write_text("eta = 0.7\nlambda = 2.5\npotts = nq\nxent = rce\n"
                        "neighborhood = dense:2:1.5\ncolor_bandwidth = 12\nsteps = 40\n"
                        "lr = 0.05\nrounds = 2\nseed = 3\n")
    files = grid_instance(Path("all-keys"), 20, 4, seed=7)
    train_files = ["--image", "train/image.ppm", "--scribbles", "train/scribbles.pgm",
                   "--gt", "train/gt.pgm"]
    for command, inputs in (("solve", files), ("oracle-rw", files), ("train", train_files)):
        folder = Path("all-keys") / command
        run(str(folder), [command, *inputs, "--config", str(all_keys), "--out", str(folder)])

    Path("corrupt").mkdir()
    run("corrupt", ["corrupt-bench", "--seed", "0", "--out", "corrupt"])
    run("gradcheck", ["gradcheck"])
    Path("exit_codes.txt").write_text("".join(codes))

    rng = np.random.default_rng(0)
    lines = []
    for k in (2, 4, 8, 21):
        onehot = np.eye(k)
        pairs = [(onehot[0], onehot[0]), (onehot[0], onehot[1])]
        for _ in range(25):
            p, q = rng.dirichlet(np.ones(k), size=2)
            p = onehot[rng.integers(k)] if rng.uniform() < 0.3 else p
            q = onehot[rng.integers(k)] if rng.uniform() < 0.3 else q
            pairs.append((p, q))
        pair_apis = [(kind, potts_value, potts_grad) for kind in PottsKind]
        pair_apis += [(kind, xent_value, xent_grad) for kind in XentKind]
        for (p, q), (kind, value_fn, grad_fn) in itertools.product(pairs, pair_apis):
            value = value_fn(kind, p, q)
            try:
                grads = " ".join(repr(g.tolist()) for g in grad_fn(kind, p, q))
            except DivergentPointError:
                grads = "divergent"
            value = "divergent" if is_divergent(value) else repr(value)
            lines.append(f"{value_fn.__name__}\t{kind.value}\t{k}\t{value}\t{grads}\n")
    Path("pair_api.txt").write_text("".join(lines))

    rng = np.random.default_rng(12)
    image = synthetic.voronoi_image(rng, 12, 12, 4)
    sigma = synthetic.smooth_prob_field(rng, 12, 12, 4)
    y = synthetic.smooth_prob_field(rng, 12, 12, 4).data
    scribbles = synthetic.sparse_scribbles(rng, 12, 12, 4, 3)
    lab = scribbles.data
    unpinned = ProbField(y.copy())
    y[lab > 0] = np.eye(4)[lab[lab > 0] - 1]
    y = ProbField(y)
    every = rng.integers(1, 5, size=lab.shape)
    # no pixel and every pixel scribbled: an empty and a full free index
    extremes = {"none": (ScribbleField(np.zeros_like(lab)), unpinned),
                "all": (ScribbleField(every), ProbField(np.eye(4)[every - 1]))}
    nn4 = build_graph(image, AffinityConfig())
    sparse = build_graph(image, AffinityConfig(kind=NeighborhoodKind.SPARSE_WINDOW, radius=2))
    graphs = {"nn4": nn4, "sparse-2": sparse,
              "no-layout": AffinityGraph(sparse.npixels, sparse.ei, sparse.ej, sparse.w)}
    lines = []
    for (name, graph), kind in itertools.product(graphs.items(), PottsKind):
        for field_name, field in (("sigma", sigma), ("y", y)):
            value = potts_sum(kind, field, graph)
            value = "divergent" if is_divergent(value) else repr(value)
            lines.append(f"potts_sum\t{name}\t{kind.value}\t{field_name}\t{value}\n")
    lines.append(f"scribble_nll\t{scribble_nll(sigma, scribbles)!r}\n")
    for scribbled, (marks, _) in extremes.items():
        lines.append(f"scribble_nll\t{scribbled}-scribbled\t{scribble_nll(sigma, marks)!r}\n")
    marked = {"none": extremes["none"][0], "some": scribbles, "all": extremes["all"][0]}
    for (name, graph), (scribbled, marks) in itertools.product(graphs.items(), marked.items()):
        values = random_walker_solve(sigma, marks, graph, 0.3, 6.0).data.ravel().tolist()
        lines.append(f"random_walker_solve\t{name}\t{scribbled}-scribbled\t{values!r}\n")

    def loss_values(labels, marks, graph, cfg):
        return (("sl_loss", sl_loss(sigma, labels, marks, graph, cfg)),
                ("ws_loss", ws_loss(sigma, marks, graph, cfg)),
                ("pseudo_label_objective",
                 pseudo_label_objective(sigma, labels, marks, graph, cfg)))

    for (name, graph), potts, xent in itertools.product(graphs.items(), PottsKind, XentKind):
        cfg = LossConfig(potts=potts, xent=xent)
        for fn, value in loss_values(y, scribbles, graph, cfg):
            lines.append(f"{fn}\t{name}\t{potts.value}\t{xent.value}\t{value!r}\n")
        for scribbled, (marks, labels) in extremes.items():
            _, report = solve_pseudo_labels(sigma, None, marks, graph, cfg, SolverConfig(steps=10))
            for fn, value in (*loss_values(labels, marks, graph, cfg),
                              ("solve_pseudo_labels", report.trace)):
                lines.append(f"{fn}\t{name}\t{potts.value}\t{xent.value}\t"
                             f"{scribbled}-scribbled\t{value!r}\n")
    for (name, graph), potts, lam in itertools.product(graphs.items(), PottsKind, (1e300, 1e308)):
        for fn, value in loss_values(y, scribbles, graph, LossConfig(lam=lam, potts=potts)):
            lines.append(f"{fn}\t{name}\t{potts.value}\tlambda={lam!r}\t{value!r}\n")
    Path("library_values.txt").write_text("".join(lines))


def file_set(root: Path) -> dict:
    return {p.relative_to(root): p for p in sorted(root.rglob("*")) if p.is_file()}


def trace_change(a: Path, b: Path) -> float:
    """Largest relative change between the numeric values of two trace files."""
    worst = 0.0
    for la, lb in zip(a.read_text().splitlines(), b.read_text().splitlines()):
        try:
            va, vb = float(la.split("\t")[-1]), float(lb.split("\t")[-1])
        except ValueError:
            continue
        if va != vb:
            worst = max(worst, abs(va - vb) / max(abs(va), abs(vb)))
    return worst


def compare(parent: Path, change: Path) -> tuple[list[str], float, int]:
    """(files that differ or exist on one side only, largest trace change, files compared)."""
    pa, ch = file_set(parent), file_set(change)
    differ, worst = [], 0.0
    for rel in sorted(pa.keys() | ch.keys()):
        if rel not in pa or rel not in ch:
            differ.append(f"{rel} (only in the {'parent' if rel in pa else 'change'})")
        elif pa[rel].read_bytes() != ch[rel].read_bytes():
            differ.append(str(rel))
            if rel.name in TRACE_FILES:
                worst = max(worst, trace_change(pa[rel], ch[rel]))
    return differ, worst, len(pa.keys() | ch.keys())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--work", type=Path, default=None,
                        help="folder for the written sets (default: a temporary one, removed)")
    parser.add_argument("--write", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write:  # child: args.parent is the tree, args.change the set's folder
        write_set(args.parent.resolve(), args.change.resolve())
        return 0

    with contextlib.ExitStack() as stack:
        work = args.work or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        status = 0
        for threads in THREADS:
            roots = {}
            for side, tree in (("parent", args.parent), ("change", args.change)):
                tree = tree.resolve()
                roots[side] = work.resolve() / f"{side}-blas{threads}"
                env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                           OPENBLAS_NUM_THREADS=threads, PYTHONDONTWRITEBYTECODE="1")
                proc = subprocess.run([sys.executable, __file__, "--write", str(tree),
                                       str(roots[side])], env=env)
                if proc.returncode != 0:
                    print(f"{side} tree {tree} failed to write its set "
                          f"(OPENBLAS_NUM_THREADS={threads})")
                    return 2
            differ, worst, total = compare(roots["parent"], roots["change"])
            for name in differ:
                print(f"differs: {name}")
            print(f"OPENBLAS_NUM_THREADS={threads}: {len(differ)} of {total} files differ; "
                  f"largest relative trace change {worst:.3g}")
            status = status or (1 if differ else 0)
        return status


if __name__ == "__main__":
    sys.exit(main())
