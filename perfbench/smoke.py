"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -p no:cacheprovider perfbench/smoke.py

Runs every workload shrunk to a few hundred pixels, traced and untraced,
checks that each metric of BENCHMARK.json is reported with its unit, and
shows that the output checks are live: a corrupted output file makes the
job count as failed. The file name keeps it out of the repository's own
test collection.
"""

from __future__ import annotations

import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import make_workloads, read_pfld  # noqa: E402

run.import_program()
WORKLOADS = make_workloads(tiny=True)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def measure(name, seed=0, trace=False, tamper=None):
    lines = []
    result = run.measure(WORKLOADS[name], seed, 0.0, trace, tamper=tamper, log=lines.append)
    return result, "\n".join(lines)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed,trace", [(0, False), (0, True), (1, False)])
def test_reports_every_metric_with_its_unit(name, seed, trace):
    result, text = measure(name, seed, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, text
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for key in ("setup_s", "job_s", "peak_rss_mb", "fail_frac", "objective", "untraced jobs",
                "nproc", "POTTS_SL_THREADS", "working set"):
        assert key in text
    if name == "train-nn4":
        assert "miou" in text
    if trace:
        assert "tracing overhead" in text
        assert (run.BENCH_DIR / "out" / f"spans-{name}-seed{seed}.jsonl").is_file()


def _rewrite_pfld(path, field):
    h, w, k = field.shape
    path.write_bytes(b"PFLD" + struct.pack("<III", h, w, k) + field.astype("<f4").tobytes())


def _unpin_one_scribble(out, inputs):
    y = read_pfld(out / "y.pfld").copy()
    r, c = np.argwhere(inputs.scribbles > 0)[0]
    y[r, c] = 1.0 / y.shape[2]
    _rewrite_pfld(out / "y.pfld", y)


def _swap_classes_of_one_pixel(out, inputs):
    """Rows still sum to 1 and scribbles stay pinned; only the residual sees it."""
    y = read_pfld(out / "y.pfld").copy()
    r, c = np.argwhere(inputs.scribbles == 0)[0]
    order = np.argsort(y[r, c])
    y[r, c, [order[0], order[-1]]] = y[r, c, [order[-1], order[0]]]
    _rewrite_pfld(out / "y.pfld", y)


def _raise_last_loss(out, inputs):
    path = out / "loss_trace.txt"
    lines = path.read_text().splitlines()
    first = float(lines[0].split("\t")[1])
    lines[-1] = f"{len(lines)}\t{first + 1.0!r}"
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name,tamper", [
    ("solve-sparse2", _unpin_one_scribble),
    ("oracle-nn4", _unpin_one_scribble),
    ("oracle-nn4", _swap_classes_of_one_pixel),
    ("train-nn4", _unpin_one_scribble),
    ("train-nn4", _raise_last_loss),
])
def test_corrupted_output_counts_as_failure(name, tamper):
    result, text = measure(name, tamper=tamper)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "failure:" in text


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", __file__]))
