"""scipy stays out of the processes that do not use it.

Importing the package, and the solve, train, gradcheck and metrics commands,
need numpy only; scipy.sparse is imported by random_walker_solve (oracle-rw)
and scipy.ndimage by synthetic.smooth_prob_field, inside those calls. Each
check runs in a fresh interpreter, since the test process itself has
imported scipy long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import potts_sl

SRC = Path(potts_sl.__file__).resolve().parent.parent

CHILD = r"""
import json, sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import numpy as np
import potts_sl
from potts_sl import Image, ProbField, write_image, write_labels, write_probfield
from potts_sl.cli import main
loaded = {"import": scipy_modules()}

work = Path(sys.argv[1])
rng = np.random.default_rng(0)
write_image(Image(rng.integers(0, 256, size=(6, 7, 3))), work / "i.ppm")
labels = np.zeros((6, 7), dtype=np.int64)
labels[0, 0], labels[5, 6], labels[2, 3] = 1, 2, 3
write_labels(labels, work / "s.pgm")
write_labels(rng.integers(1, 4, size=(6, 7)), work / "gt.pgm")
write_probfield(ProbField(rng.dirichlet(np.ones(3), size=(6, 7))), work / "p.pfld")
(work / "c.cfg").write_text("steps = 5\nrounds = 2\n")
files = ["--image", work / "i.ppm", "--scribbles", work / "s.pgm", "--config", work / "c.cfg"]
jobs = {
    "solve": ["solve", *files, "--sigma", work / "p.pfld", "--out", work / "solve"],
    "train": ["train", *files, "--gt", work / "gt.pgm", "--out", work / "train"],
    "gradcheck": ["gradcheck", "--kind", "q", "--kind", "ce"],
    "metrics": ["metrics", "--pred", work / "gt.pgm", "--gt", work / "gt.pgm", "--classes", "3"],
    "oracle-rw": ["oracle-rw", *files, "--sigma", work / "p.pfld", "--out", work / "rw"],
}
codes = {}
for name in sys.argv[2:]:
    codes[name] = main([str(a) for a in jobs[name]])
    loaded[name] = scipy_modules()
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def run_child(tmp_path, *commands):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path), *commands],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_numpy_only_commands_load_no_scipy(tmp_path):
    result = run_child(tmp_path, "solve", "train", "gradcheck", "metrics")
    assert result["codes"] == {"solve": 0, "train": 0, "gradcheck": 0, "metrics": 0}
    assert result["loaded"] == {
        "import": [], "solve": [], "train": [], "gradcheck": [], "metrics": [],
    }


def test_oracle_rw_imports_scipy_when_it_runs(tmp_path):
    result = run_child(tmp_path, "oracle-rw")
    assert result["codes"] == {"oracle-rw": 0}
    assert result["loaded"]["import"] == []
    assert "scipy.sparse.linalg" in result["loaded"]["oracle-rw"]
    assert (tmp_path / "rw" / "y.pfld").is_file()
