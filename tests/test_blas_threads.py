"""A solve writes the same bytes whatever the OpenBLAS thread count.

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


def solve_outputs(work, threads):
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
    subprocess.run([sys.executable, "-c", CHILD, str(work)], env=env, capture_output=True,
                   timeout=120, check=True)
    return {p.name: p.read_bytes() for p in sorted((work / "out").iterdir())}


def test_solve_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    one = solve_outputs(tmp_path / "one", "1")
    two = solve_outputs(tmp_path / "two", "2")
    assert "solve_report.txt" in one and "y.pfld" in one
    assert one.keys() == two.keys()
    for name in one:
        assert one[name] == two[name], name
