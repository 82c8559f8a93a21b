#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the potts-sl command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-sparse2 --seed 0 --seconds 40 --trace 0

One process writes the workload's inputs from the seed, then calls
`potts_sl.cli.main(argv)` for one job after another (a closed loop with one
client) until the next job would end after `--seconds`. The first job is a
warm-up: it is checked and counted as attempted, but not timed. After each job,
outside the timed region, it checks the output files; a job that exits
non-zero or fails a check counts as failed.

With `--trace 0` it reports the end-to-end metrics: `setup_s`, `job_s` and
`peak_rss_mb`. With `--trace 1` it alternates untraced and traced jobs and
reports the per-layer metrics of `tracing.PER_LAYER` (medians over the
traced jobs) together with the tracing overhead against the untraced jobs;
the spans go to `perfbench/out/`. The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
Human-readable lines before it give the environment, each job's working set,
the sample counts, `fail_frac`, and the quality figures `objective` and
`miou`, which depend on the seed and are therefore not gated metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import potts_sl; "
    "print(time.perf_counter() - t); print(potts_sl.__file__)"
)


@dataclass
class Job:
    seconds: float
    traced: bool
    warmup: bool
    problems: list
    objective: float = float("nan")
    miou: float | None = None


def import_program():
    """Import potts_sl from this checkout's src/, or exit 2 if it is missing."""
    if not (SRC / "potts_sl" / "__init__.py").is_file():
        print(f"no potts_sl package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import potts_sl

    if Path(potts_sl.__file__).resolve().parent != (SRC / "potts_sl").resolve():
        print(f"imported potts_sl from {potts_sl.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return potts_sl


def child_import_seconds() -> float:
    """Time to import potts_sl in a fresh interpreter (measured inside it)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, path = proc.stdout.split("\n")[:2]
    if Path(path).resolve().parent != (SRC / "potts_sl").resolve():
        raise RuntimeError(f"child imported potts_sl from {path}")
    return float(seconds)


def cache_sizes() -> dict:
    """Cache sizes of cpu0 by level, as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def parse_size(text: str | None) -> int | None:
    if not text:
        return None
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def environment(workload) -> dict:
    import numpy
    import scipy

    caches = cache_sizes()
    l2 = parse_size(caches.get("L2"))
    temp_bytes = workload.edges * workload.classes * 8
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches": caches,
        "POTTS_SL_THREADS": os.environ.get("POTTS_SL_THREADS", "unset"),
        "edges": workload.edges,
        "classes": workload.classes,
        "ek_temporary_bytes": temp_bytes,
        "ek_temporary_over_l2": round(temp_bytes / l2, 3) if l2 else None,
    }


def run_jobs(workload, inputs, work: Path, seconds: float, trace: bool, tamper=None):
    """Closed loop of CLI jobs; returns (jobs, tracer or None)."""
    from potts_sl import cli

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    out = work / "out"
    argv = workload.argv(inputs, out)
    jobs: list[Job] = []
    began = time.perf_counter()
    while True:
        # Job 0 warms caches and lazy imports; it is checked but not timed.
        warmup = not jobs
        traced = trace and len(jobs) % 2 == 0 and not warmup
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        sink = io.StringIO()
        call = lambda: cli.main(argv)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = tracer.run_job(call) if traced else call()
        except Exception as exc:  # a crash of the program is a failed job, not a benchmark error
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        job = Job(elapsed, traced, warmup, [])
        if code != 0:
            job.problems.append(f"exit {code}: {sink.getvalue().strip()[-300:]}")
        else:
            if tamper is not None:
                tamper(out, inputs)
            try:
                outcome = workload.check(inputs, out)
                job.problems, job.objective, job.miou = outcome.problems, outcome.objective, outcome.miou
            except (OSError, ValueError, KeyError, IndexError) as exc:
                job.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        jobs.append(job)
        typical = statistics.median(j.seconds for j in jobs)
        enough = len(jobs) >= (3 if trace else 2)
        if enough and time.perf_counter() - began + typical > seconds:
            return jobs, tracer


def measure(workload, seed: int, seconds: float, trace: bool, tamper=None, log=print) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    work = BENCH_DIR / "_work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    try:
        setups = []
        for _ in range(SETUP_REPS):
            imported = child_import_seconds()
            start = time.perf_counter()
            inputs = workload.generate(seed, work / "in")
            setups.append(imported + time.perf_counter() - start)
        jobs, tracer = run_jobs(workload, inputs, work, seconds, trace, tamper)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = [j for j in jobs if j.problems]
    plain = [j.seconds for j in jobs if not (j.traced or j.warmup)]
    env = environment(workload)
    log(f"benchmark workload={workload.name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    log(f"why: {workload.why}")
    log("env " + json.dumps(env, sort_keys=True))
    log(f"working set: E={env['edges']} edges x K={env['classes']} x 8 B = "
        f"{env['ek_temporary_bytes'] / 1e6:.2f} MB per (E, K) float64 temporary, "
        f"{env['ek_temporary_over_l2']} x L2 ({env['caches'].get('L2')})")
    log(f"setup_s     {statistics.median(setups):.4f} s  (median of {len(setups)}: import + generate)")
    log(f"job_s       {statistics.median(plain):.4f} s  (median of {len(plain)} untraced jobs, "
        f"min {min(plain):.4f}, max {max(plain):.4f})")
    log("job times (s, in order): "
        + " ".join(f"{j.seconds:.4f}{'*' if j.traced else ''}{'w' if j.warmup else ''}" for j in jobs)
        + "  (w warm-up, not timed" + ("; * traced)" if trace else ")"))
    log(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    log(f"fail_frac   {len(failed) / len(jobs):.4f} 1  ({len(failed)} failed of {len(jobs)} jobs)")
    for j in failed[:3]:
        log("  failure: " + "; ".join(j.problems))
    objectives = sorted({j.objective for j in jobs if not j.problems})
    if objectives:
        log(f"objective   {objectives[-1]!r} 1  (final objective; {len(objectives)} distinct value(s) over jobs)")
    mious = [j.miou for j in jobs if j.miou is not None]
    if mious:
        log(f"miou        {statistics.median(mious):.6f} 1  (final_y_miou, higher is better)")

    if trace:
        from tracing import PER_LAYER, job_metrics

        traced_jobs = range(1, tracer.job + 1)
        per_job = [job_metrics(tracer.spans, j) for j in traced_jobs]
        values = {name: statistics.median(m[name] for m in per_job)
                  for name, *_ in PER_LAYER if name != "trace.overhead"}
        values["trace.overhead"] = values["trace.job_s"] / statistics.median(plain) - 1.0
        spans_path = BENCH_DIR / "out" / f"spans-{workload.name}-seed{seed}.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write(spans_path)
        log(f"per-layer metrics: median of {len(per_job)} traced jobs; spans in {spans_path.relative_to(ROOT)}")
        for name, unit, _, moves, where in PER_LAYER:
            log(f"  {name:38s} {values[name]:>14.6g} {unit:6s} should move {moves} on {where}")
        log(f"tracing overhead {values['trace.overhead']:+.2%} "
            f"(traced job {values['trace.job_s']:.4f} s vs untraced {statistics.median(plain):.4f} s)")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in PER_LAYER}
    else:
        metrics = {
            "job_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": not failed, "attempted": len(jobs), "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import make_workloads

    workloads = make_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    result = measure(workloads[args.workload], args.seed % 2**63, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
