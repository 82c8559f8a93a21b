"""A solve, a training run and the random-walker oracle write the same bytes
whatever the OpenBLAS thread count.

Threaded BLAS reductions split a long dot product between threads and add
the parts in another order, so a value computed with one moves in the last
bits with the thread count. OpenBLAS reads OPENBLAS_NUM_THREADS when it is
loaded, so each setting runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import potts_sl

SRC = Path(potts_sl.__file__).resolve().parent.parent

CHILD = r"""
import sys
from pathlib import Path

import numpy as np
from potts_sl import synthetic, write_image, write_labels, write_probfield
from potts_sl.cli import main

work = Path(sys.argv[1])
rng = np.random.default_rng(0)
n, k = 96, 5
write_image(synthetic.voronoi_image(rng, n, n, 8), work / "i.ppm")
write_probfield(synthetic.smooth_prob_field(rng, n, n, k), work / "p.pfld")
write_labels(synthetic.sparse_scribbles(rng, n, n, k, 18).data, work / "s.pgm")
(work / "c.cfg").write_text("neighborhood = sparse:2\nsteps = 10\n")
sys.exit(main(["solve", "--image", str(work / "i.ppm"), "--scribbles", str(work / "s.pgm"),
               "--sigma", str(work / "p.pfld"), "--config", str(work / "c.cfg"),
               "--out", str(work / "out")]))
"""


# The 128x128 nn4 oracle instance of seed 0, where BLAS dot products in the
# conjugate gradients once moved the float64 solution and the written
# objective with the thread count. Its last line is a sha256 of the float64
# random_walker_solve result for the same files.
ORACLE_CHILD = r"""
import hashlib
import sys
from pathlib import Path

import numpy as np
from potts_sl import (build_graph, random_walker_solve, read_config, read_image, read_probfield,
                      read_scribbles, synthetic, write_image, write_labels, write_probfield)
from potts_sl.cli import main

work = Path(sys.argv[1])
rng = np.random.default_rng(0)
n, k = 128, 5
write_image(synthetic.voronoi_image(rng, n, n, 8), work / "i.ppm")
write_probfield(synthetic.smooth_prob_field(rng, n, n, k), work / "p.pfld")
write_labels(synthetic.sparse_scribbles(rng, n, n, k, 33).data, work / "s.pgm")
(work / "c.cfg").write_text("neighborhood = nn4\n")
code = main(["oracle-rw", "--image", str(work / "i.ppm"), "--scribbles", str(work / "s.pgm"),
             "--sigma", str(work / "p.pfld"), "--config", str(work / "c.cfg"),
             "--out", str(work / "out")])
cfg = read_config(work / "c.cfg")
graph = build_graph(read_image(work / "i.ppm"), cfg.affinity)
y = random_walker_solve(read_probfield(work / "p.pfld"), read_scribbles(work / "s.pgm", classes=k),
                        graph, cfg.loss_cfg.eta, cfg.loss_cfg.lam)
print(hashlib.sha256(y.data.tobytes()).hexdigest())
sys.exit(code)
"""


# A 128x128 two-region instance of seed 0 (3 rounds): the model's logits and
# gradients are matrix products that BLAS computes. At N = 16,384 pixels a
# per-class BLAS dot over the pixels splits between two threads, which a
# 48x48 instance's 2,304 pixels are too few to show.
TRAIN_CHILD = r"""
import sys
from pathlib import Path

from potts_sl import synthetic, write_image, write_labels
from potts_sl.cli import main

work = Path(sys.argv[1])
image, scribbles, gt = synthetic.two_region_instance(0, 128, 128)
write_image(image, work / "i.ppm")
write_labels(scribbles.data, work / "s.pgm")
write_labels(gt, work / "g.pgm")
(work / "c.cfg").write_text("rounds = 3\n")
sys.exit(main(["train", "--image", str(work / "i.ppm"), "--scribbles", str(work / "s.pgm"),
               "--config", str(work / "c.cfg"), "--out", str(work / "out"),
               "--gt", str(work / "g.pgm")]))
"""


def child_outputs(child, work, threads):
    """(last stdout line, {output file name: bytes}) of one child run."""
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-c", child, str(work)], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    files = {p.name: p.read_bytes() for p in sorted((work / "out").iterdir())}
    return proc.stdout.splitlines()[-1], files


def test_solve_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    _, one = child_outputs(CHILD, tmp_path / "one", "1")
    _, two = child_outputs(CHILD, tmp_path / "two", "2")
    assert "solve_report.txt" in one and "y.pfld" in one
    assert one.keys() == two.keys()
    for name in one:
        assert one[name] == two[name], name


def test_oracle_rw_does_not_depend_on_the_blas_thread_count(tmp_path):
    digest_one, one = child_outputs(ORACLE_CHILD, tmp_path / "one", "1")
    digest_two, two = child_outputs(ORACLE_CHILD, tmp_path / "two", "2")
    assert "solve_report.txt" in one and "y.pfld" in one
    assert one.keys() == two.keys()
    for name in one:
        assert one[name] == two[name], name
    assert digest_one == digest_two


def test_train_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    _, one = child_outputs(TRAIN_CHILD, tmp_path / "one", "1")
    _, two = child_outputs(TRAIN_CHILD, tmp_path / "two", "2")
    assert {"loss_trace.txt", "miou.txt", "sigma.pfld", "y.pfld"} <= one.keys()
    assert one.keys() == two.keys()
    for name in one:
        assert one[name] == two[name], name
