"""Extraction of the shifted block's canonical form.

Golden shift reports pin each refusal of the leading-block extraction,
and the skip of an explicit job larger than its chain, by verdicts,
diagnostics and the SHA-256 of the serialized report.

Extraction reads the block from the shifted chain pair alone.  The
differential tests compare it with the similarity P^{-1} A_hat P of a
full Jordan basis P whose first m columns are the right chain, kept
here as the reference, on random instances, segre jobs and explicit
jobs with parametric chains.
"""

import hashlib
import random

import pytest

from eigenshift.canonical import _extract_leading_block, predict_structure
from eigenshift.errors import ExtractionError
from eigenshift.linalg import Matrix, Vector, outer_plain
from eigenshift.randgen import (
    random_even_shift_instance,
    random_odd_shift_instance,
    random_scalar,
)
from eigenshift.reporting import (
    _job_inputs,
    dumps,
    matrix_to_obj,
    parse_shift_job,
    run_shift_job,
    vector_to_obj,
)
from eigenshift.scalars import CR, format_scalar
from eigenshift.shifting import (
    ShiftResult,
    make_left_inverse,
    make_right_inverse,
    shift_even,
    shift_odd,
)
from eigenshift.synthesis import (
    ChainPair,
    SegreCharacteristic,
    build_matrix,
    parametric_chain_matrices,
    random_unimodular,
)

SEGRE = [["1", 4], ["3", 2]]
NOT_PREDICTED = {
    "spectrum_check": "pass",
    "half_chain_invariance": "pass",
    "prediction_vs_oracle": "not-applicable",
}


def _job(**fields):
    return {"target_eigenvalue": "1", "new_eigenvalue": "-5", "k": 2, **fields}


def _trailing_columns_job():
    """Identity basis, with e_5 as the first column of r_free: R's first
    column e_1 + e_5 reaches past the shifted block."""
    r_free = [["0", "0"] for _ in range(6)]
    r_free[4][0] = "1"
    return _job(segre=SEGRE, r_free=r_free)


def _report(doc):
    report = run_shift_job(parse_shift_job(doc))
    return report, hashlib.sha256(dumps(report).encode()).hexdigest()


def test_general_basis_job_couples_into_the_lower_block_rows():
    P0 = random_unimodular(6, random.Random(0))
    report, digest = _report(_job(segre=SEGRE, change_of_basis=matrix_to_obj(P0)))
    assert report["verdicts"] == NOT_PREDICTED
    assert report["diagnostics"] == [
        "prediction not applicable: shift update couples into the lower "
        "block rows"
    ]
    assert digest == (
        "ad84f5ef2ee75ecdf14d971d6d7ee3f673342b91be00b8815d2543bdb4adbfd1"
    )


def test_free_part_past_the_block_couples_into_the_trailing_columns():
    report, digest = _report(_trailing_columns_job())
    assert report["verdicts"] == NOT_PREDICTED
    assert report["diagnostics"] == [
        "prediction not applicable: shift update couples into the trailing "
        "columns"
    ]
    assert digest == (
        "38a0bffeb5ffa02c2751fe3abd5f4a84eadea76ad572c9b271665611391ab484"
    )


def test_modified_complementary_part_is_refused():
    """A_hat with e_5 e_6^T added: the J_2(3) block no longer equals A's."""
    P = Matrix.identity(6)
    A, chains = build_matrix(SegreCharacteristic([(1, 4), (3, 2)]), P)
    shift = shift_even(A, chains[0], -5)
    e5e6 = outer_plain(Vector.unit(6, 4), Vector.unit(6, 5))
    bad = ShiftResult(A, shift.A_hat + e5e6, shift.chains, shift.lambda1)
    assert predict_structure(shift, P).case_label == "Even3"
    with pytest.raises(
        ExtractionError, match="^complementary Jordan part was modified$"
    ):
        predict_structure(bad, P)


def test_explicit_job_larger_than_its_chain_skips_prediction():
    A, chains = build_matrix(SegreCharacteristic([(1, 4), (3, 2)]), Matrix.identity(6))
    report, digest = _report(
        _job(
            matrix=matrix_to_obj(A),
            chains={
                "left": [vector_to_obj(u) for u in chains[0].left],
                "right": [vector_to_obj(v) for v in chains[0].right],
            },
        )
    )
    assert report["verdicts"] == NOT_PREDICTED
    assert report["diagnostics"] == [
        "an explicit job names only the shifted chain, so A's Jordan blocks "
        "outside it, at lambda1 too, are unknown to the oracle; prediction "
        "skipped"
    ]
    assert report["prediction"] is None and report["cycles"] is None
    assert digest == (
        "e6a4309e305b60348037a93ecfc8741dccb483113b6f7b9f9177b3c30cae955b"
    )


def test_chains_of_two_blocks_give_no_leading_block():
    """U~* V = 0 when the left chain is one block's and the right chain
    another's at the same eigenvalue."""
    segre = SegreCharacteristic([(1, 2), (1, 2)])
    A, chains = build_matrix(segre, Matrix.identity(4))
    mixed = ChainPair(1, chains[0].left, chains[1].right)
    shift = shift_even(A, mixed, 3)
    with pytest.raises(ExtractionError, match="singular"):
        predict_structure(shift)


# ---------------------------------------------------------------------------
# differential tests against the full-basis similarity


def _reference_block(shift, P):
    """The leading m x m block of P^{-1} A_hat P, or the message of the
    first locality check it fails, for P a Jordan basis of A whose first
    m columns are the shifted right chain."""
    n, m = shift.A_hat.rows, shift.multiplicity
    P_inv = P.inverse()
    M = P_inv @ shift.A_hat @ P
    if n == m:
        return M
    if not M.submatrix(m, n, 0, m).is_zero:
        return "shift update couples into the lower block rows"
    if not M.submatrix(0, m, m, n).is_zero:
        return "shift update couples into the trailing columns"
    rest_before = P_inv.submatrix(m, n, 0, n) @ shift.A @ P.submatrix(0, n, m, n)
    if M.submatrix(m, n, m, n) != rest_before:
        return "complementary Jordan part was modified"
    return M.submatrix(0, m, 0, m)


def _block(shift):
    try:
        return _extract_leading_block(shift, shift.multiplicity)
    except ExtractionError as exc:
        return str(exc)


def _agree(cases):
    """Assert that both extractions agree on every (shift, P); return
    how many gave a block and the refusal messages seen."""
    blocks, messages = 0, set()
    for shift, P in cases:
        got = _block(shift)
        assert got == _reference_block(shift, P)
        if isinstance(got, str):
            messages.add(got)
        else:
            blocks += 1
    return blocks, messages


REFUSALS = {
    "shift update couples into the lower block rows",
    "shift update couples into the trailing columns",
    "complementary Jordan part was modified",
}


def _perturbed(shift, chain_list, rng):
    """shift with u v* added to A_hat, for u a right chain vector and v
    a left chain vector of random blocks: it stays in the shifted block,
    or couples it to another block, or stays outside it."""
    u = rng.choice(rng.choice(chain_list).right)
    v = rng.choice(rng.choice(chain_list).left)
    A_hat = shift.A_hat + Matrix.from_columns([u]) @ Matrix.from_columns([v]).H
    return ShiftResult(shift.A, A_hat, shift.chains, shift.lambda1, shift.middle)


@pytest.mark.parametrize("guarded", [True, False])
def test_instances_extract_as_their_basis_similarity(guarded):
    rng = random.Random(7)
    cases = []
    for i in range(40):
        maker = random_odd_shift_instance if i % 2 else random_even_shift_instance
        inst = maker(rng, guarded=guarded)
        cases.append((inst.shift, inst.P))
    blocks, messages = _agree(cases)
    assert blocks >= 10
    assert guarded or "shift update couples into the lower block rows" in messages


def _segre_job_cases(rng, count):
    """Shifts of random segre jobs, as ``run_shift_job`` makes them, each
    with the basis P0 reordered to put the target block's columns first;
    some have free parts and some a perturbed A_hat."""
    cases = []
    for i in range(count):
        m = rng.randint(1, 5)
        k = m // 2
        mus = rng.sample((-3, 2, 4), rng.randint(1, 2))
        segre = [(CR(mu), rng.randint(1, 2)) for mu in mus]
        t = rng.randint(0, len(segre))
        segre.insert(t, (CR(1), m))
        n = sum(size for _, size in segre)
        P0 = random_unimodular(n, rng) if i % 2 else Matrix.identity(n)
        job = parse_shift_job(
            {
                "target_eigenvalue": "1",
                "new_eigenvalue": rng.choice(("-5", "1/2", "3+i")),
                "k": k,
                "segre": [[format_scalar(mu), size] for mu, size in segre],
                "change_of_basis": matrix_to_obj(P0),
            }
        )
        A, chains, _, _ = _job_inputs(job)
        # the Jordan basis of the target-first order, and its chains
        columns = iter(P0.columns())
        parts = [(b, [next(columns) for _ in range(b[1])]) for b in segre]
        parts.insert(0, parts.pop(t))
        P = Matrix.from_columns([v for _, vs in parts for v in vs])
        A_ref, chain_list = build_matrix(SegreCharacteristic([b for b, _ in parts]), P)
        assert (A_ref, chain_list[0]) == (A, chains)
        R = L = None
        if k and rng.random() < 0.5:
            V = Matrix.from_columns(list(chains.right[:k]), dim=n)
            U = Matrix.from_columns(list(chains.left[:k]), dim=n)
            R = make_right_inverse(V, free=_orthogonal_free(V, rng))
            L = make_left_inverse(U, free=_orthogonal_free(U, rng))
        shift = (shift_odd if m % 2 else shift_even)(
            A, chains, job.new_eigenvalue, R=R, L=L
        )
        if rng.random() < 0.5:
            shift = _perturbed(shift, chain_list, rng)
        cases.append((shift, P))
    return cases


def _orthogonal_free(X, rng):
    """A random free part F with F* X = 0: a random integer matrix with
    its component in span(X) removed."""
    n, k = X.shape
    F = Matrix.from_rows([[rng.randint(-1, 1) for _ in range(k)] for _ in range(n)])
    return F - X @ (X.H @ X).solve(X.H @ F)


def test_segre_jobs_extract_as_their_basis_similarity():
    blocks, messages = _agree(_segre_job_cases(random.Random(11), 60))
    assert blocks >= 10
    assert messages == REFUSALS


def test_explicit_jobs_with_parametric_chains_extract_as_their_chain_basis():
    """An explicit n = m job's basis is its right chain.  Parametric
    chains with a_1 b_1 != 1 make U~* V != I."""
    rng = random.Random(5)
    cases = []
    for _ in range(20):
        m = rng.randint(1, 6)
        lam0 = random_scalar(rng)
        a = [rng.choice((-2, 3))] + [rng.randint(-2, 2) for _ in range(m - 1)]
        b = [rng.choice((-1, 2))] + [rng.randint(-2, 2) for _ in range(m - 1)]
        A = build_matrix(SegreCharacteristic([(lam0, m)]), Matrix.identity(m))[0]
        left, right = parametric_chain_matrices(m, m, a, b)
        chains = ChainPair(lam0, left.columns(), right.columns())
        Ut = Matrix.from_columns(list(reversed(chains.left)))
        assert Ut.H @ right != Matrix.identity(m)
        shift = (shift_odd if m % 2 else shift_even)(A, chains, lam0 + CR(2))
        cases.append((shift, right))
    blocks, messages = _agree(cases)
    assert (blocks, messages) == (20, set())
