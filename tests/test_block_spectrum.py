"""The block spectrum check and the oracle in the job's Jordan basis.

A shift job whose prediction extracted the shifted m x m block M takes
its spectrum verdict from M (``reporting.spectrum_holds``); a job whose
prediction is refused or skipped takes it from the full n x n pair.  A
segre job with a change of basis P0 runs its oracle on P0^{-1} A_hat P0
(``reporting._in_jordan_basis``).  These tests compare both with the
direct checks, the full ``charpoly_ratio_check`` and ``oracle_segre`` on
A_hat, and tell the paths apart by the pair handed to
``charpoly_ratio_check``.
"""

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from eigenshift import reporting
from eigenshift.canonical import predict_structure
from eigenshift.cli import main
from eigenshift.errors import ExtractionError
from eigenshift.linalg import Matrix, Vector, jordan_block, outer_plain
from eigenshift.oracle import oracle_segre
from eigenshift.randgen import (
    _chain_matrices,
    random_even_shift_instance,
    random_odd_shift_instance,
    random_scalar,
)
from eigenshift.reporting import (
    _in_jordan_basis,
    _job_inputs,
    matrix_to_obj,
    parse_shift_job,
    run_shift_job,
    spectrum_holds,
    vector_to_obj,
)
from eigenshift.scalars import CR
from eigenshift.shifting import charpoly_ratio_check, shift_even, shift_odd
from eigenshift.synthesis import (
    SegreCharacteristic,
    basis_inverse,
    build_matrix,
    random_unimodular,
)


@pytest.fixture
def checked(monkeypatch):
    """The (A, A_hat) pairs handed to reporting's charpoly_ratio_check."""
    pairs = []

    def recording(A, A_hat, *args):
        pairs.append((A, A_hat))
        return charpoly_ratio_check(A, A_hat, *args)

    monkeypatch.setattr(reporting, "charpoly_ratio_check", recording)
    return pairs


def _full(shift) -> bool:
    """The full n x n check of the shift's spectrum claim."""
    return charpoly_ratio_check(
        shift.A, shift.A_hat, shift.chains.lam, shift.lambda1, shift.multiplicity
    )


def _verdict(shift, checked):
    """(verdict, block or None) as ``run_shift_job`` takes them, after
    checking that the pair handed to charpoly_ratio_check was
    (J_m(lam0), M) for a block and (A, A_hat) otherwise."""
    try:
        block = predict_structure(shift).block
    except ExtractionError:
        block = None
    checked.clear()
    verdict = spectrum_holds(shift, block)
    m = shift.multiplicity
    if block is None:
        assert checked == [(shift.A, shift.A_hat)]
    else:
        assert block.shape == (m, m)
        assert checked == [(jordan_block(shift.chains.lam, m), block)]
    return verdict, block


def _shift_of(job):
    """The shift, the other blocks and the basis of a parsed job, as
    ``run_shift_job`` makes them (without free parts)."""
    A, chains, others, basis = _job_inputs(job)
    shift = (shift_odd if chains.length % 2 else shift_even)(
        A, chains, job.new_eigenvalue
    )
    return shift, others, basis


# ---------------------------------------------------------------------------
# job builders


def _unimodular_rows(n, seed):
    """L U, L unit lower and U unit upper triangular with entries in
    {-1, 0, 1} on a fixed pattern: an integer matrix of determinant 1."""
    L = [
        [int(i == j) if i <= j else (7 * i + 3 * j + seed) % 3 - 1 for j in range(n)]
        for i in range(n)
    ]
    U = [
        [int(i == j) if i >= j else (5 * i + 2 * j + seed) % 3 - 1 for j in range(n)]
        for i in range(n)
    ]
    return [[sum(L[i][t] * U[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def _block_orthogonal_basis(w, q_target, q_rest):
    """H diag(Q_target, Q_rest) with H = I - 2 w w^T / w^T w, as
    exact strings: the target block's columns are orthogonal to the
    others', so the default inverses keep the update inside the block."""
    n, m = len(w), len(q_target)
    ww = sum(x * x for x in w)
    Q = [[0] * n for _ in range(n)]
    for i, row in enumerate(q_target):
        Q[i][:m] = row
    for i, row in enumerate(q_rest):
        Q[m + i][m:] = row
    return [
        [
            str(sum((int(i == t) - Fraction(2 * w[i] * w[t], ww)) * Q[t][j] for t in range(n)))
            for j in range(n)
        ]
        for i in range(n)
    ]


def _householder_job(rng, m, n):
    """A job shaped as the shift-general workload's: the target block
    first, extra blocks of size 1 to 3 at integer eigenvalues away from
    both lam0 and lam1, in a Householder times diag(Q_target, Q_rest)
    basis."""
    lam0 = rng.randint(-4, 4)
    lam1 = lam0 + rng.choice((-1, 1)) * rng.randint(2, 4)
    taken, segre, left = {lam0, lam1}, [[str(lam0), m]], n - m
    while left:
        size = rng.randint(1, min(3, left))
        mu = rng.choice([x for x in range(-6, 7) if x not in taken])
        taken.add(mu)
        segre.append([str(mu), size])
        left -= size
    while True:
        w = [rng.randint(-1, 1) for _ in range(n)]
        if sum(x * x for x in w) >= 2:
            break
    q_target, q_rest = (
        [[int(x.re) for x in row] for row in random_unimodular(size, rng).row_list()]
        for size in (m, n - m)
    )
    return {
        "target_eigenvalue": str(lam0),
        "new_eigenvalue": str(lam1),
        "k": m // 2,
        "segre": segre,
        "change_of_basis": _block_orthogonal_basis(w, q_target, q_rest),
    }


def _householder_jobs():
    rng = random.Random(3)
    return [
        _householder_job(rng, m, n) for n in (8, 9, 10) for m in (4, 5, 6, 7)
    ]


def _explicit_job(rng, m):
    """An explicit n = m job: J_m(lam0) in a unimodular basis, with
    parametric chains of that basis (U~* V != I when a_1 b_1 != 1)."""
    lam0 = random_scalar(rng)
    P = random_unimodular(m, rng)
    A = build_matrix(SegreCharacteristic([(lam0, m)]), P)[0]
    a = [rng.choice((-2, 3))] + [rng.randint(-2, 2) for _ in range(m - 1)]
    b = [rng.choice((-1, 2))] + [rng.randint(-2, 2) for _ in range(m - 1)]
    left, right = _chain_matrices(m, m, a, b)
    P_invH = P.inverse().H
    return {
        "target_eigenvalue": str(lam0),
        "new_eigenvalue": str(lam0 + CR(2)),
        "k": m // 2,
        "matrix": matrix_to_obj(A),
        "chains": {
            "left": [vector_to_obj(u) for u in (P_invH @ left).columns()],
            "right": [vector_to_obj(v) for v in (P @ right).columns()],
        },
    }


def _instances(guarded):
    """The seed-7 randgen pool: 40 shifts, even and odd by turns."""
    rng = random.Random(7)
    return [
        (random_odd_shift_instance if i % 2 else random_even_shift_instance)(
            rng, guarded=guarded
        )
        for i in range(40)
    ]


# ---------------------------------------------------------------------------
# block verdict against the full check


def test_householder_basis_jobs_take_the_block_verdict(checked):
    for doc in _householder_jobs():
        job = parse_shift_job(doc)
        m = doc["segre"][0][1]
        report = run_shift_job(job)
        ((J, M),) = checked
        assert J == jordan_block(job.target_eigenvalue, m) and M.shape == (m, m)
        shift, _, _ = _shift_of(job)
        assert report["verdicts"]["spectrum_check"] == "pass"
        assert _full(shift)
        checked.clear()


@pytest.mark.parametrize("guarded", [True, False])
def test_instance_pools_block_verdict_equals_full_check(guarded, checked):
    blocks = 0
    for inst in _instances(guarded):
        verdict, block = _verdict(inst.shift, checked)
        assert verdict == _full(inst.shift)
        blocks += block is not None
    # guarded factors always keep the update in the block; minimal ones
    # couple it to the extra blocks of about half the instances
    if guarded:
        assert blocks == 40
    else:
        assert 10 <= blocks < 40


def test_explicit_n_equals_m_jobs_take_the_block_verdict(checked):
    rng = random.Random(5)
    for _ in range(12):
        m = rng.randint(1, 6)
        job = parse_shift_job(_explicit_job(rng, m))
        report = run_shift_job(job)
        ((J, M),) = checked
        assert J == jordan_block(job.target_eigenvalue, m) and M.shape == (m, m)
        assert report["prediction"] is not None
        shift, _, _ = _shift_of(job)
        assert report["verdicts"]["spectrum_check"] == "pass" and _full(shift)
        checked.clear()


@pytest.mark.parametrize("m", [4, 5])
def test_perturbed_shifted_matrices_pick_their_path(m, checked):
    """A_hat plus V E W*: E in C keeps M's shape and the block verdict;
    E on M's diagonal makes extraction refuse and the full check fail;
    an entry of the complementary block is refused too."""
    job = parse_shift_job(
        {
            "target_eigenvalue": "1",
            "new_eigenvalue": "-5",
            "k": m // 2,
            "segre": [["1", m], ["3", 2]],
            "change_of_basis": _block_orthogonal_basis(
                [1, 0, -1, 1, 1, 0, -1][: m + 2],
                _unimodular_rows(m, 1),
                _unimodular_rows(2, 2),
            ),
        }
    )
    shift, _, _ = _shift_of(job)
    n = shift.A.rows
    V = Matrix.from_columns(list(shift.chains.right))
    Ut_H = Matrix.from_columns(list(reversed(shift.chains.left))).H
    W = (Ut_H @ V).solve(Ut_H)

    def perturbed(delta):
        return replace(shift, A_hat=shift.A_hat + delta)

    in_C = perturbed(outer_plain(V.col(0), W.row(m - 1)))
    verdict, block = _verdict(in_C, checked)
    corner = outer_plain(Vector.unit(m, 0), Vector.unit(m, m - 1))
    assert block == predict_structure(shift).block + corner
    assert verdict and _full(in_C)

    on_diagonal = perturbed(outer_plain(V.col(0), W.row(0)))
    verdict, block = _verdict(on_diagonal, checked)
    assert block is None
    assert not verdict and not _full(on_diagonal)

    outside = perturbed(outer_plain(Vector.unit(n, n - 1), Vector.unit(n, n - 1)))
    verdict, block = _verdict(outside, checked)
    assert block is None
    assert verdict == _full(outside)


def test_refused_extraction_reports_the_full_check(checked):
    """The r_free job couples into the trailing columns: no prediction,
    and the 6 x 6 pair decides the spectrum verdict."""
    r_free = [["0", "0"] for _ in range(6)]
    r_free[4][0] = "1"
    doc = {
        "target_eigenvalue": "1",
        "new_eigenvalue": "-5",
        "k": 2,
        "segre": [["1", 4], ["3", 2]],
        "r_free": r_free,
    }
    report = run_shift_job(parse_shift_job(doc))
    assert report["verdicts"]["prediction_vs_oracle"] == "not-applicable"
    ((A, A_hat),) = checked
    assert A.shape == A_hat.shape == (6, 6)
    assert A_hat == Matrix.from_texts(report["shifted_matrix"])
    assert report["verdicts"]["spectrum_check"] == (
        "pass" if charpoly_ratio_check(A, A_hat, 1, -5, 4) else "fail"
    )


# ---------------------------------------------------------------------------
# oracle in the Jordan basis against the oracle on A_hat


def test_householder_jobs_oracle_in_basis_equals_direct_oracle():
    for doc in _householder_jobs():
        shift, others, basis = _shift_of(parse_shift_job(doc))
        eigs = [shift.lambda1] + [lam for lam, _ in others]
        B = _in_jordan_basis(shift.A_hat, basis)
        assert B != shift.A_hat
        assert oracle_segre(B, eigs) == oracle_segre(shift.A_hat, eigs)


@pytest.mark.parametrize("guarded", [True, False])
def test_instance_pools_oracle_in_basis_equals_direct_oracle(guarded):
    for inst in _instances(guarded):
        _, chain_list = build_matrix(inst.segre, inst.P)
        B = _in_jordan_basis(inst.shift.A_hat, (inst.P, chain_list))
        eigs = [inst.lambda1] + [lam for lam, _ in inst.segre.blocks[1:]]
        assert oracle_segre(B, eigs) == oracle_segre(inst.shift.A_hat, eigs)


def test_identity_basis_oracle_reads_a_hat(monkeypatch):
    seen = []

    def recording(M, eigenvalues, multiplicities=None):
        seen.append(M)
        return oracle_segre(M, eigenvalues, multiplicities)

    monkeypatch.setattr(reporting, "oracle_segre", recording)
    doc = {"target_eigenvalue": "1", "new_eigenvalue": "2", "k": 2,
           "segre": [["1", 4], ["3", 2]]}
    report = run_shift_job(parse_shift_job(doc))
    assert seen == [Matrix.from_texts(report["shifted_matrix"])]


def test_corrupted_basis_inverse_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        reporting, "basis_inverse", lambda chains: basis_inverse(chains).scale(2)
    )
    path = tmp_path / "job.json"
    path.write_text(json.dumps(_householder_jobs()[0]))
    assert main(["shift", str(path)]) == 3
    assert capsys.readouterr().err == "error: P0^{-1} P0 != I\n"


# ---------------------------------------------------------------------------
# golden: a dense segre job at n = 32


GOLDEN_SEGRE = [
    ["1", 7], ["3", 3], ["-2", 2], ["4", 4], ["0", 2], ["5", 3],
    ["-1", 3], ["6", 3], ["-4", 2], ["2", 3],
]


def test_dense_block_orthogonal_job_at_n_32(tmp_path):
    """J_7(1) -> -3 with nine other blocks in H diag(Q_target, Q_rest):
    the block verdict and the oracle in the Jordan basis give the report
    the full check and the direct oracle gave."""
    m = GOLDEN_SEGRE[0][1]
    n = sum(size for _, size in GOLDEN_SEGRE)
    doc = {
        "target_eigenvalue": "1",
        "new_eigenvalue": "-3",
        "k": m // 2,
        "segre": GOLDEN_SEGRE,
        "change_of_basis": _block_orthogonal_basis(
            [i % 3 - 1 for i in range(n)],
            _unimodular_rows(m, 1),
            _unimodular_rows(n - m, 2),
        ),
    }
    job, out = tmp_path / "job.json", tmp_path / "report.json"
    job.write_text(json.dumps(doc))
    assert main(["shift", str(job), "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report["verdicts"].values()) == {"pass"}
    assert report["prediction"]["case_label"] == "Odd1a"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "41018f9cf82b8d03369c7df205de86261dfbc0a55a6e2f0b8ed57a6dcfc1252f"
    )
