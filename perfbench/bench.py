"""One benchmark worker process, started by ``run.py``.

It imports ``eigenshift`` from the checkout's ``src/``, generates the
workload's pool from the seed, prints ``ready``, runs one pass and
prints a JSON object as its last line:

* ``timed``: cycles through the pool from the start of its part
  ``--part`` of ``TIMED_PARTS`` until ``--seconds`` have passed,
  untraced, and reports each job's time, gate result and output digest;
* ``trace``: runs the pool untraced for 40% of ``--seconds``, then the
  same jobs again with spans on, then a counting pass over the first
  ``COUNT_ITEMS`` jobs with scalar operations counted too, and reports
  the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import re
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import eigenshift  # noqa: E402
from eigenshift import scalars  # noqa: E402

if Path(eigenshift.__file__).resolve().parent != ROOT / "src" / "eigenshift":
    sys.exit(f"eigenshift was not imported from {ROOT / 'src'}")

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# worker processes in a timed run; each starts at its own part of the pool
TIMED_PARTS = 10

# jobs in each counting pass: a few seconds of work at most
COUNT_ITEMS = {"shift-general": 4, "selftest-pool": 30, "verify-complex": 4}

# span names whose self time is reported, and the ones whose calls are
SELF_TIME_LAYERS = (
    "linalg.det",
    "linalg.rank",
    "linalg.solve",
    "linalg.null_space",
    "linalg.matmul",
    "synthesis.build_matrix",
    "synthesis.chain_check",
    "biortho.gram",
    "biortho.resolvent",
    "shifting.charpoly_check",
    "shifting.shift",
    "shifting.invariance",
    "canonical.extract",
    "canonical.reduce",
    "canonical.classify",
    "oracle.weyr",
    "oracle.jordan_cycles",
    "oracle.verify_cycles",
    "randgen.instance",
    "reporting.parse",
    "reporting.serialize",
    "reporting.run",
)
CALL_COUNT_LAYERS = (
    "linalg.det",
    "linalg.rank",
    "linalg.solve",
    "linalg.null_space",
    "linalg.matmul",
    "shifting.charpoly_check",
    "oracle.weyr",
)

# report keys that hold matrices and vectors the program computed (a
# verify report only echoes its input matrix and chains)
OUTPUT_KEYS = ("shifted_matrix", "cycles")


def run_items(workload, pool, order, tracer=None, deadline=None):
    """Run the jobs of pool items in `order` until `deadline` has passed.

    Returns [(item index, seconds, gate ok, output text, reference seconds
    before, reference seconds after)]; the seconds are taken inside the
    runner, around the calls into the program, and the reference loop is
    timed between jobs (`calibrate`).
    """
    run = workloads.runner(workload)
    jobs = []
    before = calibrate.reference_s()
    for idx in order:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        done = []

        def record(took, ok, text):
            if tracer is not None:
                tracer.end_job()
            done.append((took, ok, text))

        run(pool[idx], record)
        after = calibrate.reference_s()
        jobs.extend((idx, *job, before, after) for job in done)
        before = after
    return jobs


def scaled_times(jobs):
    """Each job's seconds, scaled to the nominal host speed."""
    return [calibrate.scaled(took, before, after) for _, took, _, _, before, after in jobs]


def job_rows(jobs):
    """[item index, seconds, gate ok, sha256 of the output, reference
    seconds before, reference seconds after] per job."""
    return [
        [idx, took, ok, hashlib.sha256(text.encode()).hexdigest(), before, after]
        for idx, took, ok, text, before, after in jobs
    ]


def max_bits(text):
    """Largest numerator or denominator bit length in an output's computed
    matrices and cycles; 0 if it has none."""
    doc = json.loads(text)
    found = re.findall(r"\d+", json.dumps([doc.get(k) for k in OUTPUT_KEYS]))
    return max((int(x).bit_length() for x in found), default=0)


def timed_pass(workload, pool, seconds, part):
    start = part * len(pool) // TIMED_PARTS
    order = itertools.islice(itertools.cycle(range(len(pool))), start, None)
    ready_reference_s = calibrate.reference_s()
    jobs = run_items(workload, pool, order, deadline=time.perf_counter() + seconds)
    return {
        "jobs": job_rows(jobs),
        "ready_reference_s": ready_reference_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def count_pass(workload, pool):
    """Exact counts over the first COUNT_ITEMS jobs, scalar ops included."""
    with spans.Tracer(count_scalars=True) as counter:
        jobs = run_items(workload, pool, range(COUNT_ITEMS[workload]), counter)
    return counter, jobs


def trace_pass(workload, pool, seconds):
    untraced = run_items(
        workload,
        pool,
        itertools.cycle(range(len(pool))),
        deadline=time.perf_counter() + 0.4 * seconds,
    )
    with spans.Tracer() as tracer:
        traced = run_items(workload, pool, [idx for idx, *_ in untraced], tracer)
    counter, counted = count_pass(workload, pool)

    n = len(traced)
    traced_s = sum(scaled_times(traced))
    # self times scale like the traced jobs they fall in, taken together
    scale = traced_s / sum(took for _, took, *_ in traced)
    metrics = {
        f"{name}.self_s": (scale * tracer.self_s[name] / n, "s/job")
        for name in SELF_TIME_LAYERS
    }
    metrics.update(
        {f"{name}.calls": (counter.calls[name], "count") for name in CALL_COUNT_LAYERS}
    )
    predictions = sum(counter.labels.values())
    texts = [text for _, _, _, text, _, _ in counted]
    metrics.update(
        {
            "scalars.ops": (counter.scalar_ops, "count"),
            "scalars.max_bits": (max(max_bits(t) for t in texts), "bits"),
            "canonical.fallback_ratio": (
                counter.fallbacks / predictions if predictions else 0.0,
                "ratio",
            ),
            "canonical.labels_hit": (len(counter.labels), "count"),
            "oracle.weyr.powers": (counter.weyr_powers, "count"),
            "reporting.report_bytes": (counter.report_bytes, "bytes"),
            "trace.overhead_ratio": (traced_s / sum(scaled_times(untraced)), "ratio"),
        }
    )
    return {
        "jobs": job_rows(untraced + traced + counted),
        "metrics": metrics,
        "digest": hashlib.sha256("".join(texts).encode()).hexdigest(),
        "labels": sorted(counter.labels),
        "samples": {"traced": n, "counted": len(texts)},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "trace"), required=True)
    parser.add_argument("--part", type=int, default=0)
    args = parser.parse_args(argv)

    pool = workloads.make_pool(args.workload, args.seed)
    print("ready", flush=True)
    if args.mode == "timed":
        out = timed_pass(args.workload, pool, args.seconds, args.part)
    else:
        out = trace_pass(args.workload, pool, args.seconds)
    q = scalars.rational(0)
    out["backend"] = f"{type(q).__module__}.{type(q).__name__}"
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
