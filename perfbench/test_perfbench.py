"""Self-tests of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest -q perfbench

They take about a minute and a half, most of it in the generator checks and the
worker runs.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from eigenshift import cli  # noqa: E402


def collect(workload, item):
    out = []
    workloads.runner(workload)(item, lambda took, ok, text: out.append((ok, text)))
    return out


@pytest.mark.parametrize("seed,count", [(3, 1), (11, 2)])
def test_selftest_loop_matches_cli(tmp_path, seed, count):
    jobs = []
    workloads.selftest_pass(seed, count, lambda took, ok, text: jobs.append((ok, text)))
    report_path = tmp_path / "selftest.json"
    code = cli.main(
        ["selftest", "--seed", str(seed), "--count", str(count), "-o", str(report_path)]
    )
    report = json.loads(report_path.read_text())
    assert report["instances"] == len(jobs)
    all_pass = all(ok for ok, _ in jobs)
    assert (report["verdicts"]["selftest"] == "pass") == all_pass
    assert code == (0 if all_pass else 4)


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_shift_general_jobs_pass(seed):
    pool = workloads.make_pool("shift-general", seed)
    for item in pool[: len(workloads.SHIFT_SHAPES)]:
        (ok, text), = collect("shift-general", item)
        report = json.loads(text)
        assert report["verdicts"]["prediction_vs_oracle"] == "pass"
        assert ok, report["verdicts"]


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_complex_jobs_are_complex_and_pass(seed):
    pool = workloads.make_pool("verify-complex", seed)
    for item in pool:
        lams = [chain["lambda"] for chain in item["chains"]["chains"]]
        assert any(lam.endswith("i") for lam in lams), lams
        assert len(set(lams)) == len(lams)
    for item in pool[: len(workloads.VERIFY_SHAPES)]:
        (ok, _), = collect("verify-complex", item)
        assert ok


def test_selftest_pool_is_stratified():
    pool = workloads.make_pool("selftest-pool", 3)
    shifts = [item for item in pool if item["kind"] in ("even", "odd")]
    for kind in ("even", "odd"):
        mix = [(i["k"], i["extras"]) for i in shifts if i["kind"] == kind]
        counts = [mix.count(combo) for combo in set(mix)]
        assert len(counts) == 6 and max(counts) - min(counts) <= 1, kind
    for item in pool[:18]:
        rng = random.Random(item["seed"])
        if item["kind"] in ("even", "odd"):
            maker = getattr(workloads.randgen, f"random_{item['kind']}_shift_instance")
            blocks = maker(rng, guarded=True).segre.blocks
            k = blocks[0][1] // 2
            assert (len(blocks) > 1) == item["extras"], item
        else:
            k = workloads.randgen.targeted_concentrated_form(rng, item["kind"]).k
        assert k == item["k"], item


def test_gates_reject_wrong_outputs():
    item = workloads.make_pool("shift-general", 1)[0]
    (ok, text), = collect("shift-general", item)
    report = json.loads(text)
    assert ok and workloads.check_shift(report, item["expect"])
    na = json.loads(text)
    na["verdicts"]["prediction_vs_oracle"] = "not-applicable"
    assert not workloads.check_shift(na, item["expect"])
    moved = json.loads(text)
    moved["prediction"]["segre"][-1][1] += 1
    assert not workloads.check_shift(moved, item["expect"])
    extras = dict(item["expect"], extras=item["expect"]["extras"][1:])
    assert not workloads.check_shift(report, extras)

    item = workloads.make_pool("verify-complex", 1)[0]
    (ok, text), = collect("verify-complex", item)
    report = json.loads(text)
    expected = item["expected_verdicts"]
    assert ok and workloads.check_verify(report, expected)
    assert not workloads.check_verify(report, expected + 1)
    report["verdicts"]["chain_0:recurrence"] = "fail"
    assert not workloads.check_verify(report, expected)


def test_generators_are_seeded():
    for name in workloads.WORKLOADS:
        assert workloads.make_pool(name, 5) == workloads.make_pool(name, 5)
        assert workloads.make_pool(name, 5) != workloads.make_pool(name, 6)


def test_times_scale_by_the_reference_loop():
    ref = calibrate.REFERENCE_S
    assert calibrate.scaled(2.0, ref, ref) == pytest.approx(2.0)
    # a host half as fast takes twice as long for the job and the loop
    assert calibrate.scaled(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)
    assert calibrate.scaled(2.0, ref, 4 * ref) == pytest.approx(1.0)
    assert calibrate.reference_s() > 0


def test_quantile_estimates():
    evenly = list(range(1, 102))
    assert run.quantile(evenly, 0.5) == pytest.approx(51, abs=0.01)
    assert run.quantile(evenly, 0.75) == pytest.approx(76, abs=0.5)
    assert run.quantile([7.0], 0.75) == pytest.approx(7.0)
    # two clusters: the estimate moves smoothly as jobs are added
    few, more = [1.0] * 74 + [10.0] * 26, [1.0] * 76 + [10.0] * 24
    assert 1.0 < run.quantile(more, 0.75) < run.quantile(few, 0.75) < 10.0


def test_unimodular_inverse_is_exact():
    rng = random.Random(1)
    for n in (1, 4, 12):
        q, qi = workloads._unimodular(n, rng)
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        assert workloads._matmul(q, qi) == ident


def test_tracer_patches_names_imported_by_value():
    with spans.Tracer() as tracer:
        names = tracer.patched_names()
    for name in (
        "reporting.charpoly_ratio_check",
        "reporting.predict_structure",
        "reporting.oracle_segre",
        "reporting.build_matrix",
        "canonical.verify_cycles",
        "canonical.jordan_cycles",
        "randgen.build_matrix",
    ):
        assert f"eigenshift.{name}" in names
    from eigenshift import reporting

    assert not hasattr(reporting.run_shift_job, "__wrapped__")


def test_self_times_add_up_to_traced_time():
    pool = workloads.make_pool("verify-complex", 2)
    times = []
    with spans.Tracer() as tracer:

        def record(took, ok, text):
            tracer.end_job()
            times.append(took)

        workloads.run_verify(pool[0], record)
    assert sum(tracer.self_s.values()) == pytest.approx(times[0], rel=0.02)
    assert all(v >= 0 for v in tracer.self_s.values())


def trace_worker(workload, seed):
    out = subprocess.run(
        [
            sys.executable,
            str(HERE / "bench.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "0.5",
            "--mode",
            "trace",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=170,
    )
    return json.loads(out.stdout.splitlines()[-1])


# metric-name prefixes of the layers each workload never enters.  Every
# traced result lists every per-layer metric, so these read 0 there.
IDLE_LAYERS = {
    "shift-general": (
        "biortho.",
        "randgen.",
        "canonical.reduce.",
        "linalg.null_space.",
        "oracle.jordan_cycles.",
    ),
    "selftest-pool": (
        "biortho.",
        "reporting.",
        "shifting.charpoly_check.",
        "shifting.invariance.",
        "linalg.det.",
    ),
    "verify-complex": (
        "canonical.",
        "oracle.",
        "randgen.",
        "shifting.",
        "synthesis.build_matrix.",
        "linalg.null_space.",
        "scalars.max_bits",
    ),
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_and_digest_repeat_across_processes(workload):
    first, second = trace_worker(workload, 4), trace_worker(workload, 4)
    assert first["digest"] == second["digest"]
    exact = {
        name: value
        for name, (value, unit) in first["metrics"].items()
        if unit != "s/job" and name != "trace.overhead_ratio"
    }
    assert exact == {
        name: value
        for name, (value, unit) in second["metrics"].items()
        if name in exact
    }
    assert all(ok for _, _, ok, *_ in first["jobs"] + second["jobs"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}
    # a layer that runs reports a figure; fallbacks may be 0 wherever the
    # classifiers run
    for name, (value, _) in first["metrics"].items():
        if name.startswith(IDLE_LAYERS[workload]):
            assert value == 0, name
        elif name != "canonical.fallback_ratio":
            assert value > 0, name


def test_timed_run_prints_the_end_to_end_metrics():
    out = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            "selftest-pool",
            "--seed",
            "1",
            "--seconds",
            "2",
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=170,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "shift-general",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
