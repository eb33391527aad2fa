"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N
--seconds T --trace 0|1``, run from the root of a checkout.

``--trace 0`` starts ``bench.TIMED_PARTS`` worker processes one after
the other, each running the workload untraced for T / TIMED_PARTS
seconds from its own place in the pool, and prints the end-to-end
metrics.
``--trace 1`` starts one worker that runs the traced and counting
passes and prints the per-layer metrics.  Every job's output passes its
workload's correctness gate, and a job's output bytes must be identical
wherever that job ran.  Every time reported is scaled to one nominal
host speed by a reference loop timed next to it (``calibrate.py``).  The
last line of standard output is the JSON result; the lines before it give
the sample counts, the unscaled figures and the environment.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "bench.py"
WORKLOADS = ("shift-general", "selftest-pool", "verify-complex")
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def run_worker(args, mode, seconds, part=0):
    """(seconds from the worker's start to its `ready`, reference loop
    seconds just before the start, worker's result)."""
    cmd = [
        sys.executable,
        str(WORKER),
        *("--workload", args.workload, "--seed", str(args.seed)),
        *("--seconds", str(seconds), "--mode", mode),
        *("--part", str(part)),
    ]
    reference_s = calibrate.reference_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{mode} worker failed with exit code {proc.returncode}")
    return setup_s, reference_s, json.loads(out.splitlines()[-1])


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics, weighted by the Beta(q(n+1), (1-q)(n+1)) distribution.

    A job mix has clusters of near-equal costs with gaps between them, and
    a single order statistic jumps across a gap when a run holds a few jobs
    more or less; this weighted mean moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 16  # midpoint-rule steps of the Beta density per order statistic
    weights = [
        sum(
            math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
            for x in ((i + (j + 0.5) / steps) / n for j in range(steps))
        )
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def check_jobs(jobs):
    """(attempted, failed): a job fails if it fails its gate, or if its
    output differs from another run of the same pool item."""
    digests = {}
    for idx, _, _, digest, _, _ in jobs:
        digests.setdefault(idx, set()).add(digest)
    failed = sum(1 for idx, _, ok, _, _, _ in jobs if not ok or len(digests[idx]) > 1)
    return len(jobs), failed


def timed_run(args):
    # bench imports eigenshift: only once it is there
    from bench import TIMED_PARTS, scaled_times

    setups, raw_setups, jobs, rss = [], [], [], []
    for part in range(TIMED_PARTS):
        setup_s, reference_s, result = run_worker(
            args, "timed", args.seconds / TIMED_PARTS, part
        )
        raw_setups.append(setup_s)
        setups.append(calibrate.scaled(setup_s, reference_s, result["ready_reference_s"]))
        jobs.extend(result["jobs"])
        rss.append(result["rss_mb"])
    times = scaled_times(jobs)
    raw_times = [took for _, took, *_ in jobs]
    print(f"samples {json.dumps({'jobs': len(times), 'setups': len(setups)})}")
    unscaled = {
        "job_ms.p50": 1000 * statistics.median(raw_times),
        "setup_s": statistics.median(raw_setups),
        "reference_ms.p50": 1000 * statistics.median(before for *_, before, _ in jobs),
    }
    print(f"unscaled {json.dumps(unscaled)}")
    metrics = {
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_ms.p50": (1000 * quantile(times, 0.5), "ms"),
        "job_ms.p75": (1000 * quantile(times, 0.75), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    return result, jobs, metrics


def trace_run(args):
    _, _, result = run_worker(args, "trace", args.seconds)
    print(f"digest {result['digest']}")
    print(f"labels {' '.join(result['labels'])}")
    print(f"samples {json.dumps(result['samples'])}")
    return result, result["jobs"], {k: tuple(v) for k, v in result["metrics"].items()}


def environment(result):
    """What the figures depend on besides the code: never compare runs
    whose Python version or rational backend differ."""
    return {
        "python": platform.python_version(),
        "rational_backend": result["backend"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eigenshift" / "__init__.py").is_file():
        print(f"error: no eigenshift package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, jobs, metrics = (trace_run if args.trace else timed_run)(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(environment(result)))
    attempted, failed = check_jobs(jobs)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
