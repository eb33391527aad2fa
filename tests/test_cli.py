"""End-to-end CLI behaviour: jobs, reports, exit codes, round trips."""

import json
import random
import sys

import pytest

from eigenshift import reporting
from eigenshift.cli import main
from eigenshift.linalg import Matrix, Vector
from eigenshift.oracle import oracle_segre
from eigenshift.reporting import (
    matrix_to_obj,
    parse_shift_job,
    run_shift_job,
    vector_to_obj,
)
from eigenshift.synthesis import (
    SegreCharacteristic,
    build_matrix,
    random_unimodular,
)


def run_cli(args):
    return main(list(args))


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


GOLDEN_JOB = {
    "target_eigenvalue": "1",
    "new_eigenvalue": "2",
    "k": 2,
    "backend": "exact",
    "segre": [["1", 4], ["3", 2]],
}


def test_shift_golden_job(tmp_path, capsys):
    job = write(tmp_path, "job.json", GOLDEN_JOB)
    out = tmp_path / "report.json"
    assert run_cli(["shift", job, "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdicts"] == {
        "spectrum_check": "pass",
        "half_chain_invariance": "pass",
        "prediction_vs_oracle": "pass",
    }
    assert report["prediction"]["segre"] == [["2", 4], ["3", 2]]
    assert report["oracle_segre"] == [["2", 4], ["3", 2]]


def test_shift_split_job(tmp_path):
    job = dict(GOLDEN_JOB)
    n = 6
    r_free = [["0", "0"] for _ in range(n)]
    r_free[2][1] = "-1"  # R = [e1, e2 - e3]
    job["r_free"] = r_free
    path = write(tmp_path, "job.json", job)
    out = tmp_path / "report.json"
    assert run_cli(["shift", path, "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["oracle_segre"] == [["2", 2], ["2", 2], ["3", 2]]
    assert report["prediction"]["segre"] == [["2", 2], ["2", 2], ["3", 2]]


def test_noop_shift_passes(tmp_path):
    job = dict(GOLDEN_JOB)
    job["new_eigenvalue"] = "1"
    path = write(tmp_path, "job.json", job)
    out = tmp_path / "report.json"
    assert run_cli(["shift", path, "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    A, _ = build_matrix(
        SegreCharacteristic([(1, 4), (3, 2)]), Matrix.identity(6)
    )
    assert report["shifted_matrix"] == matrix_to_obj(A)
    assert all(v == "pass" for v in report["verdicts"].values())


def test_report_round_trip_byte_identical(tmp_path):
    path = write(tmp_path, "job.json", GOLDEN_JOB)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run_cli(["shift", path, "-o", str(out1)]) == 0
    embedded = json.loads(out1.read_text())["job"]
    assert "backend" not in embedded
    path2 = write(tmp_path, "job2.json", embedded)
    assert run_cli(["shift", path2, "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["shift", str(bad)]) == 2
    missing = write(tmp_path, "missing.json", {"k": 2})
    assert run_cli(["shift", missing]) == 2
    bad_scalar = dict(GOLDEN_JOB, target_eigenvalue="1.5")
    assert run_cli(["shift", write(tmp_path, "s.json", bad_scalar)]) == 2
    for size in (2.5, True, "2"):
        bad_size = dict(GOLDEN_JOB, segre=[["1", 4], ["3", size]])
        assert run_cli(["shift", write(tmp_path, "z.json", bad_size)]) == 2


@pytest.mark.parametrize(
    "data",
    [
        pytest.param(b'{"k": "\xff"}', id="not-utf8"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-too-deep"),
        pytest.param(
            b"1" * 5000,
            id="int-past-digit-limit",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"),
                reason="int() has no digit limit in this interpreter",
            ),
        ),
    ],
)
def test_unreadable_json_file_exit_2(tmp_path, capsys, data):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    assert run_cli(["shift", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} is not valid JSON: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unwritable_output_path_exit_2(tmp_path, capsys):
    job = write(tmp_path, "job.json", GOLDEN_JOB)
    out = tmp_path / "missing" / "report.json"
    assert run_cli(["shift", job, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert not out.parent.exists()


def test_zero_denominator_shift_job_exit_2(tmp_path, capsys):
    basis = [["1" if i == j else "0" for j in range(6)] for i in range(6)]
    basis[0][1] = "1/0i"
    job = write(tmp_path, "job.json", dict(GOLDEN_JOB, change_of_basis=basis))
    assert run_cli(["shift", job]) == 2
    assert "zero denominator in scalar string '1/0i'" in capsys.readouterr().err


def test_zero_denominator_verify_matrix_exit_2(tmp_path, capsys):
    mat = write(tmp_path, "mat.json", [["1/0"]])
    doc = {"chains": [{"lambda": "1", "left": [["1"]], "right": [["1"]]}]}
    ch = write(tmp_path, "chains.json", doc)
    assert run_cli(["verify", mat, ch]) == 2
    assert "zero denominator in scalar string '1/0'" in capsys.readouterr().err


def test_zero_denominator_classify_lambda_exit_2(tmp_path, capsys):
    form = write(tmp_path, "form.json", {"kind": "even", "k": 2, "lambda": "0/0"})
    assert run_cli(["classify", form]) == 2
    assert "zero denominator in scalar string '0/0'" in capsys.readouterr().err


def test_first_bad_matrix_entry_is_named(tmp_path, capsys):
    mat = write(tmp_path, "mat.json", [["1", "x"], ["1/0", "2"]])
    doc = {"chains": [{"lambda": "1", "left": [["1"]], "right": [["1"]]}]}
    ch = write(tmp_path, "chains.json", doc)
    assert run_cli(["verify", mat, ch]) == 2
    assert "error: bad scalar 'x': malformed scalar string 'x'" in capsys.readouterr().err


def test_scalar_past_int_digit_limit_exit_2(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int() has no digit limit in this interpreter")
    huge = "1" * (limit + 1)
    job = write(tmp_path, "job.json", dict(GOLDEN_JOB, target_eigenvalue=huge))
    assert run_cli(["shift", job]) == 2
    assert "error: bad scalar '111" in capsys.readouterr().err
    mat = write(tmp_path, "mat.json", [["1", f"1/{huge}"]])
    doc = {"chains": [{"lambda": "1", "left": [["1"]], "right": [["1"]]}]}
    ch = write(tmp_path, "chains.json", doc)
    assert run_cli(["verify", mat, ch]) == 2
    assert "error: bad scalar '1/111" in capsys.readouterr().err


@pytest.mark.parametrize(
    "job",
    [
        dict(GOLDEN_JOB, target_eigenvalue=True),
        dict(GOLDEN_JOB, new_eigenvalue=False),
        dict(GOLDEN_JOB, segre=[["1", 4], [True, 2]]),
        dict(GOLDEN_JOB, change_of_basis=[[True if i == j else "0" for j in range(6)] for i in range(6)]),
        {
            "target_eigenvalue": "1",
            "new_eigenvalue": "2",
            "k": 0,
            "matrix": [[True, "0"], ["0", "3"]],
            "chains": {"left": [["1", "0"]], "right": [["1", "0"]]},
        },
    ],
)
def test_bool_scalar_shift_job_exit_2(tmp_path, capsys, job):
    assert run_cli(["shift", write(tmp_path, "job.json", job)]) == 2
    assert "cannot parse scalar from" in capsys.readouterr().err


def test_bool_scalar_verify_matrix_exit_2(tmp_path, capsys):
    mat = write(tmp_path, "mat.json", [[True]])
    doc = {"chains": [{"lambda": "1", "left": [["1"]], "right": [["1"]]}]}
    ch = write(tmp_path, "chains.json", doc)
    assert run_cli(["verify", mat, ch]) == 2
    assert "bad scalar True" in capsys.readouterr().err


def test_bool_classify_lambda_exit_2(tmp_path, capsys):
    form = write(tmp_path, "form.json", {"kind": "even", "k": 2, "lambda": True})
    assert run_cli(["classify", form]) == 2
    assert "bad scalar True" in capsys.readouterr().err


@pytest.mark.parametrize("k", [1.5, True, "2", None, [2]])
def test_non_integer_k_exit_2(tmp_path, capsys, k):
    job = write(tmp_path, "job.json", dict(GOLDEN_JOB, k=k))
    assert run_cli(["shift", job]) == 2
    assert "k must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "chains",
    [
        {"left": 3, "right": []},
        {"left": [], "right": "abc"},
        {"right": []},
        {"left": [["1"]], "right": [3]},
    ],
)
def test_malformed_chains_exit_2(tmp_path, chains):
    job = {
        "target_eigenvalue": "1",
        "new_eigenvalue": "2",
        "k": 0,
        "matrix": [["1"]],
        "chains": chains,
    }
    assert run_cli(["shift", write(tmp_path, "job.json", job)]) == 2


@pytest.mark.parametrize(
    "doc", [{"chains": 5}, {"chains": "abc"}, {"other": []}, 5, [7]]
)
def test_malformed_chains_doc_exit_2(tmp_path, doc):
    mat = write(tmp_path, "mat.json", [["1"]])
    ch = write(tmp_path, "chains.json", doc)
    assert run_cli(["verify", mat, ch]) == 2


def test_precondition_error_exit_3(tmp_path):
    job = dict(GOLDEN_JOB, k=1)  # k inconsistent with the 4-chain
    assert run_cli(["shift", write(tmp_path, "job.json", job)]) == 3


def refuse_large_builds(monkeypatch, limit=10**4):
    """Make building a matrix or vector of more than limit entries fail
    the test instead of allocating it."""
    for cls, name, size in (
        (Matrix, "identity", lambda n: n * n),
        (Matrix, "zeros", lambda r, c: r * c),
        (Vector, "zero", lambda n: n),
    ):
        build = getattr(cls, name)

        def guarded(*shape, build=build, size=size, name=name):
            if size(*shape) > limit:
                pytest.fail(f"{name}{shape} was built")
            return build(*shape)

        monkeypatch.setattr(cls, name, staticmethod(guarded))


def test_segre_job_whose_k_misfits_the_target_block_exits_3_before_building(
    tmp_path, capsys, monkeypatch
):
    refuse_large_builds(monkeypatch)
    job = {"target_eigenvalue": "1", "new_eigenvalue": "2", "k": 1, "segre": [["1", 1000000]]}
    assert run_cli(["shift", write(tmp_path, "job.json", job)]) == 3
    err = capsys.readouterr().err
    assert err == "error: k=1 is inconsistent with a chain of length 1000000\n"


def test_classify_form_whose_fields_misfit_k_exits_2_before_allocating(
    tmp_path, capsys, monkeypatch
):
    refuse_large_builds(monkeypatch)
    form = {"kind": "odd", "k": 1000000, "lambda": "1", "a": ["1", "0"], "b": ["0", "1"]}
    assert run_cli(["classify", write(tmp_path, "form.json", form)]) == 2
    err = capsys.readouterr().err
    assert err == "error: a, b must have length 1000000 and C be 1000000x1000000\n"
    even = {"kind": "even", "k": 1000000, "lambda": "1", "C": [["0"]]}
    assert run_cli(["classify", write(tmp_path, "form.json", even)]) == 2
    assert capsys.readouterr().err == "error: C must be 1000000x1000000\n"


@pytest.mark.parametrize(
    "cmd, doc",
    [
        ("classify", {"kind": "odd", "k": 10**9, "lambda": "1"}),
        ("classify", {"kind": "even", "k": 10**10, "lambda": "1"}),
        ("shift", {"target_eigenvalue": "1", "new_eigenvalue": "2", "k": 5 * 10**9,
                   "segre": [["1", 10**10]]}),
    ],
)
def test_job_too_large_to_hold_exits_3(tmp_path, capsys, cmd, doc):
    """Sizes whose first matrix fails (MemoryError or OverflowError) before
    anything is allocated."""
    assert run_cli([cmd, write(tmp_path, "doc.json", doc)]) == 3
    assert capsys.readouterr().err.startswith("error: job too large: ")


def test_target_eigenvalue_with_two_blocks_exit_3(tmp_path, capsys):
    job = dict(GOLDEN_JOB, segre=[["1", 4], ["1", 1], ["3", 2]])
    assert run_cli(["shift", write(tmp_path, "job.json", job)]) == 3
    err = capsys.readouterr().err
    assert "the target eigenvalue must occupy exactly one Jordan block" in err


def test_oracle_gets_the_matrix_and_eigenvalues_alone(monkeypatch):
    """Every shift job hands the oracle (matrix, eigenvalues) and nothing
    read from its own claimed structure, whatever the spectrum verdict."""
    calls = []

    def recording_oracle(*args, **kwargs):
        calls.append((len(args), kwargs))
        return oracle_segre(*args, **kwargs)

    monkeypatch.setattr(reporting, "oracle_segre", recording_oracle)
    segre_job = dict(GOLDEN_JOB, segre=[["1", 4], ["2", 1], ["3", 2]])
    # an explicit n = m job takes the same oracle call, at lam1 alone
    A, chains = build_matrix(
        SegreCharacteristic([(1, 3)]), random_unimodular(3, random.Random(3))
    )
    explicit_job = {
        "target_eigenvalue": "1",
        "new_eigenvalue": "2",
        "k": 1,
        "matrix": matrix_to_obj(A),
        "chains": {
            "left": [vector_to_obj(u) for u in chains[0].left],
            "right": [vector_to_obj(v) for v in chains[0].right],
        },
    }
    jobs = [parse_shift_job(segre_job), parse_shift_job(explicit_job)]
    reports = [run_shift_job(job) for job in jobs]
    assert all(r["verdicts"]["prediction_vs_oracle"] == "pass" for r in reports)
    monkeypatch.setattr(reporting, "charpoly_ratio_check", lambda *args: False)
    for job, report in zip(jobs, reports):
        failed = run_shift_job(job)
        assert failed["verdicts"]["spectrum_check"] == "fail"
        assert failed["oracle_segre"] == report["oracle_segre"]
    assert calls == [(2, {})] * 4
    assert reports[1]["oracle_segre"] == [["2", 3]]


def test_brauer_job_free_part_has_no_columns(tmp_path, capsys):
    """With k = 0 the free parts are n x 0, as every free part is n x k:
    a free part with a column is refused, an empty one is taken."""
    job = dict(GOLDEN_JOB, k=0, segre=[["1", 1], ["3", 2]])
    for side in ("r_free", "l_free"):
        misfit = dict(job, **{side: [["0"]] * 3})
        assert run_cli(["shift", write(tmp_path, "job.json", misfit)]) == 3
        assert "free part must be 3x0, got (3, 1)" in capsys.readouterr().err
        report = run_shift_job(parse_shift_job(dict(job, **{side: [[]] * 3})))
        assert all(v == "pass" for v in report["verdicts"].values())
        assert report["job"][side] == [[]] * 3


def test_chain_of_wrong_dimension_is_blamed_not_the_free_part(tmp_path, capsys):
    """A 2x2 job whose chain vectors have 3 entries is refused on the
    chains' dimension against the matrix's, with the same text whether
    or not a free part that fits the matrix is given."""
    job = {
        "target_eigenvalue": "1",
        "new_eigenvalue": "2",
        "k": 1,
        "matrix": [["1", "1"], ["0", "1"]],
        "chains": {
            "left": [["0", "1", "0"], ["1", "0", "0"]],
            "right": [["1", "0", "0"], ["0", "1", "0"]],
        },
    }
    for misfit in [job] + [dict(job, **{side: [["0"], ["0"]]}) for side in ("r_free", "l_free")]:
        assert run_cli(["shift", write(tmp_path, "job.json", misfit)]) == 3
        assert capsys.readouterr().err == "error: columns of dimension 3, expected 2\n"


def test_non_square_matrix_job_is_a_shape_error(tmp_path, capsys):
    job = {
        "target_eigenvalue": "1",
        "new_eigenvalue": "2",
        "k": 1,
        "matrix": [["1", "1", "0"], ["0", "1", "0"]],
        "chains": {
            "left": [["0", "1"], ["1", "0"]],
            "right": [["1", "0", "0"], ["0", "1", "0"]],
        },
    }
    assert run_cli(["shift", write(tmp_path, "job.json", job)]) == 3
    err = capsys.readouterr().err
    assert "matrix must be square, got 2x3" in err
    assert "recurrence" not in err


@pytest.mark.parametrize("rows", [[["1", "0"]], [["1", "0"], ["0", "1"], ["2", "3"]]])
def test_non_square_verify_matrix_is_a_shape_error(tmp_path, capsys, rows):
    mat = write(tmp_path, "mat.json", rows)
    doc = {"chains": [{"lambda": "1", "left": [["1", "0"]], "right": [["1", "0"]]}]}
    ch = write(tmp_path, "chains.json", doc)
    assert run_cli(["verify", mat, ch]) == 3
    err = capsys.readouterr().err
    assert f"matrix must be square, got {len(rows)}x2" in err
    assert "recurrence" not in err


def test_float_backend_job_exit_2(tmp_path, capsys):
    job = dict(GOLDEN_JOB, backend="float")
    assert run_cli(["shift", write(tmp_path, "job.json", job)]) == 2
    assert "unknown backend 'float'" in capsys.readouterr().err


def test_backend_option_rejected(tmp_path):
    form = write(tmp_path, "form.json", {"kind": "even", "k": 2, "lambda": "0"})
    with pytest.raises(SystemExit) as exc:
        run_cli(["--backend", "float", "classify", form])
    assert exc.value.code == 2


def test_classify_even_zero_coupling(tmp_path, capsys):
    form = write(tmp_path, "form.json", {"kind": "even", "k": 2, "lambda": "0"})
    assert run_cli(["classify", form]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["case_label"] == "Even1"
    assert report["segre"] == [["0", 2], ["0", 2]]


def test_classify_even_full_block(tmp_path, capsys):
    form = write(
        tmp_path,
        "form.json",
        {
            "kind": "even",
            "k": 2,
            "lambda": "0",
            "C": [["0", "0"], ["1", "0"]],
        },
    )
    assert run_cli(["classify", form]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["case_label"] == "Even3"
    assert report["segre"] == [["0", 4]]


def test_classify_odd_trivial(tmp_path, capsys):
    form = write(tmp_path, "form.json", {"kind": "odd", "k": 1, "lambda": "0"})
    assert run_cli(["classify", form]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["case_label"] == "Odd4c"
    assert report["segre"] == [["0", 1], ["0", 1], ["0", 1]]


def test_classify_bad_form_exit_2(tmp_path):
    bad_forms = [{"kind": "cube", "k": 1, "lambda": "0"}] + [
        {"kind": "even", "k": k, "lambda": "0"} for k in (1.5, True, "2", None)
    ]
    for doc in bad_forms:
        form = write(tmp_path, "form.json", doc)
        assert run_cli(["classify", form]) == 2, doc


def _chains_doc(chain_list):
    return {
        "chains": [
            {
                "lambda": lam,
                "left": [vector_to_obj(u) for u in pair.left],
                "right": [vector_to_obj(v) for v in pair.right],
            }
            for lam, pair in chain_list
        ]
    }


def test_verify_synthesized_chains(tmp_path, capsys):
    rng = random.Random(7)
    segre = SegreCharacteristic([(2, 4), (5, 2)])
    P = random_unimodular(6, rng)
    A, chains = build_matrix(segre, P)
    mat = write(tmp_path, "mat.json", matrix_to_obj(A))
    doc = _chains_doc([("2", chains[0]), ("5", chains[1])])
    ch = write(tmp_path, "chains.json", doc)
    assert run_cli(["verify", mat, ch]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(v == "pass" for v in report["verdicts"].values())
    assert "cross_orthogonality_0_1" in report["verdicts"]


def test_verify_corrupted_chain_exit_4(tmp_path, capsys):
    segre = SegreCharacteristic([(2, 4)])
    A, chains = build_matrix(segre, Matrix.identity(4))
    mat = write(tmp_path, "mat.json", matrix_to_obj(A))
    doc = _chains_doc([("2", chains[0])])
    doc["chains"][0]["right"][2][0] = "9"  # corrupt one chain vector
    ch = write(tmp_path, "chains.json", doc)
    assert run_cli(["verify", mat, ch]) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["chain_0:recurrence"] == "fail"


def test_selftest_deterministic(tmp_path):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    assert run_cli(["selftest", "--seed", "5", "--count", "2", "-o", str(out1)]) == 0
    assert run_cli(["selftest", "--seed", "5", "--count", "2", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_selftest_negative_count_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["selftest", "--count", "-3"])
    assert exc.value.code == 2
    assert "argument --count: must be >= 0, got -3" in capsys.readouterr().err


def test_selftest_count_0_runs_the_targeted_forms_only(capsys):
    assert run_cli(["selftest", "--count", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["instances"] == 10
    assert report["verdicts"] == {"selftest": "pass"}


def test_selftest_counts_a_fallback_as_a_failure(monkeypatch, capsys):
    """Cycles that fail verification make the oracle supply them; the
    structure is still right, and selftest fails on the fallback."""
    from eigenshift import canonical

    monkeypatch.setattr(canonical, "verify_cycles", lambda *args: False)
    assert run_cli(["selftest", "--count", "0"]) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"] == {"selftest": "fail"}
    assert len(report["diagnostics"]) == 10
    assert (
        "targeted Odd1a: case Odd1a fell back to the oracle's cycles"
        in report["diagnostics"]
    )


def test_explicit_matrix_job(tmp_path, capsys):
    segre = SegreCharacteristic([(1, 4)])
    A, chains = build_matrix(segre, Matrix.identity(4))
    job = {
        "target_eigenvalue": "1",
        "new_eigenvalue": "6",
        "k": 2,
        "backend": "exact",
        "matrix": matrix_to_obj(A),
        "chains": {
            "left": [vector_to_obj(u) for u in chains[0].left],
            "right": [vector_to_obj(v) for v in chains[0].right],
        },
    }
    assert run_cli(["shift", write(tmp_path, "job.json", job)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["prediction_vs_oracle"] == "pass"
    assert report["prediction"]["segre"] == [["6", 4]]
    assert report["oracle_segre"] == [["6", 4]]
