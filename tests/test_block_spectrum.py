"""The one spectrum path and the oracle in the job's Jordan basis.

Every shift job, predicted or refused, hands ``charpoly_ratio_check``
one pair in its Jordan basis (``reporting._in_jordan_basis``): (J,
P0^{-1} A_hat P0) for a segre job with a change of basis P0, and
(A, A_hat) otherwise; its oracle reads the second matrix.  Both checks
split their matrices into diagonal blocks, so the block verdict is the
verdict read off those blocks.  These tests compare it with the dense
check in the job's coordinates, ``charpoly_ratio_check(A, A_hat)``, and
the oracle with ``oracle_segre`` on A_hat, and tell the pairs apart by
what was handed to ``charpoly_ratio_check``.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from eigenshift import reporting
from eigenshift.cli import main
from eigenshift.errors import ExtractionError
from eigenshift.linalg import Matrix, Vector, _diagonal_blocks, outer_plain
from eigenshift.oracle import oracle_segre
from eigenshift.randgen import (
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
    vector_to_obj,
)
from eigenshift.scalars import CR
from eigenshift.shifting import (
    ShiftResult,
    charpoly_ratio_check,
    shift_even,
    shift_odd,
)
from eigenshift.synthesis import (
    SegreCharacteristic,
    basis_inverse,
    build_matrix,
    jordan_matrix,
    parametric_chain_matrices,
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
    """The dense check of the shift's spectrum claim, in the job's
    coordinates."""
    return charpoly_ratio_check(
        shift.A, shift.A_hat, shift.chains.lam, shift.lambda1, shift.multiplicity
    )


def _verdict(shift, basis):
    """(verdict, pair) as ``run_shift_job`` takes them: the pair in the
    Jordan basis, after checking that J is P0^{-1} A P0, and the check on
    it."""
    pair = _in_jordan_basis(shift, basis)
    if basis is None:
        assert pair == (shift.A, shift.A_hat)
    else:
        P0, J, _ = basis
        assert pair[0] == J == P0.inverse() @ shift.A @ P0
    lam0, lam1, m = shift.chains.lam, shift.lambda1, shift.multiplicity
    return charpoly_ratio_check(*pair, lam0, lam1, m), pair


def _target_block_splits_off(M, m) -> bool:
    """No diagonal block of M straddles its leading m indices and the
    rest: the update stayed inside the target block."""
    return all(max(g) < m or min(g) >= m for g in _diagonal_blocks(M))


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
    left, right = parametric_chain_matrices(m, m, a, b)
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
# the one spectrum path against the dense check


def test_householder_basis_jobs_take_the_block_verdict(checked):
    """The pair is (J, P0^{-1} A_hat P0), whose target block splits off
    (the update stays in it), and its verdict is the dense check's."""
    for doc in _householder_jobs():
        job = parse_shift_job(doc)
        m = doc["segre"][0][1]
        report = run_shift_job(job)
        shift, _, basis = _shift_of(job)
        verdict, pair = _verdict(shift, basis)
        assert checked == [pair]
        assert pair[0] == jordan_matrix(job.segre)
        assert _target_block_splits_off(pair[1], m)
        assert report["verdicts"]["spectrum_check"] == "pass"
        assert verdict and _full(shift)
        checked.clear()


@pytest.mark.parametrize("guarded", [True, False])
def test_instance_pools_block_verdict_equals_full_check(guarded):
    split = 0
    for inst in _instances(guarded):
        _, chain_list = build_matrix(inst.segre, inst.P)
        basis = (inst.P, jordan_matrix(inst.segre), chain_list)
        verdict, pair = _verdict(inst.shift, basis)
        assert verdict == _full(inst.shift)
        split += _target_block_splits_off(pair[1], inst.shift.multiplicity)
    # guarded factors always keep the update in the target block; minimal
    # ones couple it to the extra blocks of about half the instances
    if guarded:
        assert split == 40
    else:
        assert 10 <= split < 40


def test_explicit_n_equals_m_jobs_take_the_block_verdict(checked):
    """An explicit job has no change of basis: the pair is (A, A_hat)."""
    rng = random.Random(5)
    for _ in range(12):
        m = rng.randint(1, 6)
        job = parse_shift_job(_explicit_job(rng, m))
        report = run_shift_job(job)
        assert report["prediction"] is not None
        shift, _, basis = _shift_of(job)
        assert basis is None
        assert checked == [(shift.A, shift.A_hat)]
        assert report["verdicts"]["spectrum_check"] == "pass" and _full(shift)
        checked.clear()


@pytest.mark.parametrize("m", [4, 5])
def test_perturbed_shifted_matrices_pick_their_path(m):
    """A_hat plus V E W*: E in C keeps M's shape, and extraction reads
    it; E on M's diagonal makes extraction refuse and the spectrum check
    fail; an entry of the complementary block is refused too.  Whichever
    way extraction goes, the verdict comes from the one pair in the
    Jordan basis, and it is the dense check's."""
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
    shift, _, basis = _shift_of(job)
    n = shift.A.rows
    V = Matrix.from_columns(list(shift.chains.right))
    Ut_H = Matrix.from_columns(list(reversed(shift.chains.left))).H
    W = (Ut_H @ V).solve(Ut_H)
    _, (_, before) = _verdict(shift, basis)

    def perturbed(delta):
        return ShiftResult(
            shift.A, shift.A_hat + delta, shift.chains, shift.lambda1, shift.middle
        )

    def predicts(s):
        try:
            reporting.predict_structure(s)
        except ExtractionError:
            return False
        return True

    in_C = perturbed(outer_plain(V.col(0), W.row(m - 1)))
    verdict, (_, after) = _verdict(in_C, basis)
    corner = outer_plain(Vector.unit(n, 0), Vector.unit(n, m - 1))
    assert after == before + corner and predicts(in_C)
    assert verdict and _full(in_C)

    on_diagonal = perturbed(outer_plain(V.col(0), W.row(0)))
    verdict, _ = _verdict(on_diagonal, basis)
    assert not predicts(on_diagonal)
    assert not verdict and not _full(on_diagonal)

    outside = perturbed(outer_plain(Vector.unit(n, n - 1), Vector.unit(n, n - 1)))
    verdict, _ = _verdict(outside, basis)
    assert not predicts(outside)
    assert verdict == _full(outside)


R_FREE_JOB = {
    "target_eigenvalue": "1",
    "new_eigenvalue": "-5",
    "k": 2,
    "segre": [["1", 4], ["3", 2]],
    "r_free": [["0", "0"]] * 4 + [["1", "0"], ["0", "0"]],
}


def test_refused_extraction_reports_the_full_check(checked):
    """The r_free job couples into the trailing columns: no prediction,
    and the 6 x 6 pair (A, A_hat), split, decides the spectrum verdict."""
    report = run_shift_job(parse_shift_job(R_FREE_JOB))
    assert report["verdicts"]["prediction_vs_oracle"] == "not-applicable"
    ((A, A_hat),) = checked
    assert A.shape == A_hat.shape == (6, 6)
    assert A_hat == Matrix.from_texts(report["shifted_matrix"])
    assert not _target_block_splits_off(A_hat, 4)
    assert report["verdicts"]["spectrum_check"] == (
        "pass" if charpoly_ratio_check(A, A_hat, 1, -5, 4) else "fail"
    )


IDENTITY_BASIS_JOB = {
    "target_eigenvalue": "1",
    "new_eigenvalue": "-5",
    "k": 4,
    "segre": [["1", 8]] + [[str(v), 2] for v in range(3, 7)],
}


@pytest.mark.parametrize("which", ["householder", "identity"])
def test_refused_prediction_keeps_the_spectrum_verdict_and_its_pair(
    which, checked, monkeypatch
):
    """A job that predicts gets the same spectrum verdict, from the same
    pair, when prediction is made to refuse: the verdict does not depend
    on extraction."""
    docs = _householder_jobs()[:4] if which == "householder" else [IDENTITY_BASIS_JOB]
    for doc in docs:
        job = parse_shift_job(doc)
        predicted = run_shift_job(job)
        assert predicted["prediction"] is not None
        (pair,) = checked
        checked.clear()
        with monkeypatch.context() as patch:

            def refusing(shift, P=None):
                raise ExtractionError("refused for the test")

            patch.setattr(reporting, "predict_structure", refusing)
            refused = run_shift_job(job)
        assert refused["verdicts"]["prediction_vs_oracle"] == "not-applicable"
        assert checked == [pair]
        assert refused["verdicts"]["spectrum_check"] == (
            predicted["verdicts"]["spectrum_check"]
        )
        checked.clear()


# ---------------------------------------------------------------------------
# oracle in the Jordan basis against the oracle on A_hat


def test_householder_jobs_oracle_in_basis_equals_direct_oracle():
    for doc in _householder_jobs():
        shift, others, basis = _shift_of(parse_shift_job(doc))
        eigs = [shift.lambda1] + [lam for lam, _ in others]
        _, B = _in_jordan_basis(shift, basis)
        assert B != shift.A_hat
        assert oracle_segre(B, eigs) == oracle_segre(shift.A_hat, eigs)


@pytest.mark.parametrize("guarded", [True, False])
def test_instance_pools_oracle_in_basis_equals_direct_oracle(guarded):
    for inst in _instances(guarded):
        _, chain_list = build_matrix(inst.segre, inst.P)
        basis = (inst.P, jordan_matrix(inst.segre), chain_list)
        _, B = _in_jordan_basis(inst.shift, basis)
        eigs = [inst.lambda1] + [lam for lam, _ in inst.segre.blocks[1:]]
        assert oracle_segre(B, eigs) == oracle_segre(inst.shift.A_hat, eigs)


def test_identity_basis_oracle_reads_a_hat(monkeypatch):
    seen = []

    def recording(M, eigenvalues):
        seen.append(M)
        return oracle_segre(M, eigenvalues)

    monkeypatch.setattr(reporting, "oracle_segre", recording)
    doc = {"target_eigenvalue": "1", "new_eigenvalue": "2", "k": 2,
           "segre": [["1", 4], ["3", 2]]}
    report = run_shift_job(parse_shift_job(doc))
    assert seen == [Matrix.from_texts(report["shifted_matrix"])]


@pytest.mark.parametrize("target, k", [("1", 1), ("1/2+i", 1), ("-3", 2)])
def test_identity_basis_segre_job_takes_j_and_unit_chains(monkeypatch, target, k):
    """With no change of basis, A is the Jordan matrix and the target
    block's chain pair is unit vectors: what ``build_matrix`` gives for
    P = I, made with no inverse or product."""
    segre = [["2", 1], ["1", 3], ["1/2+i", 2], ["-3", 4]]
    job = parse_shift_job({"target_eigenvalue": target, "new_eigenvalue": "7", "k": k, "segre": segre})
    want_A, chain_list = build_matrix(job.segre, Matrix.identity(10))
    t = [lam for lam, _ in job.segre.blocks].index(job.target_eigenvalue)
    monkeypatch.setattr(reporting, "build_matrix", None)
    A, chains, others, basis = _job_inputs(job)
    assert (A, basis) == (want_A, None) and A == jordan_matrix(job.segre)
    assert (chains.lam, chains.left, chains.right) == (
        chain_list[t].lam, chain_list[t].left, chain_list[t].right
    )
    assert others == [b for i, b in enumerate(job.segre.blocks) if i != t]


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
    the split spectrum check and the oracle in the Jordan basis give the
    report the full check and the direct oracle gave."""
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
