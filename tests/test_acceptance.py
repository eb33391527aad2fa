"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion is exercised exactly as stated, with shared randomized
instance pools where several criteria refer to the same instances.
"""

import random
import time

import pytest

from eigenshift.biortho import (
    check_hankel,
    gram_table,
    resolvent_orthogonality_check,
)
from eigenshift.canonical import classify_odd, predict_structure
from eigenshift.linalg import Matrix, Vector
from eigenshift.oracle import oracle_segre, verify_cycles, weyr_profile
from eigenshift.randgen import (
    ODD_CASE_LABELS,
    random_even_shift_instance,
    random_odd_shift_instance,
    targeted_concentrated_form,
)
from eigenshift.scalars import CR, ONE, ZERO
from eigenshift.shifting import (
    charpoly_ratio_check,
    half_chain_invariance_holds,
    shift_even,
)
from eigenshift.synthesis import (
    SegreCharacteristic,
    build_matrix,
    generate_parametric_chains_single,
    generate_parametric_chains_two_blocks,
    jordan_matrix,
    random_unimodular,
)


def conj(x):
    """The complex conjugate of a scalar, from its parts."""
    return CR(x.re, -x.im)


def _report(capsys, num, desc, ok):
    with capsys.disabled():
        print(f"[PRIMARY {num}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


# ---------------------------------------------------------------------------
# shared instance pools


@pytest.fixture(scope="module")
def mixed_pool():
    """>= 200 unguarded random shift instances, block sizes 2..7."""
    rng = random.Random(20260826)
    pool = []
    for i in range(100):
        pool.append(random_even_shift_instance(rng, guarded=False, max_k=3))
        pool.append(random_odd_shift_instance(rng, guarded=False, max_k=3))
    return pool


@pytest.fixture(scope="module")
def even_pool():
    """>= 200 guarded even shifts with their structure predictions."""
    rng = random.Random(31)
    pool = []
    for i in range(200):
        inst = random_even_shift_instance(
            rng, guarded=True, max_k=3 if i % 5 == 0 else 2
        )
        pool.append((inst, predict_structure(inst.shift, inst.P)))
    return pool


@pytest.fixture(scope="module")
def odd_pool():
    """>= 200 guarded odd shifts plus targeted concentrated forms."""
    rng = random.Random(47)
    shifts = []
    for i in range(200):
        inst = random_odd_shift_instance(
            rng, guarded=True, max_k=2 if i % 3 else 3
        )
        shifts.append((inst, predict_structure(inst.shift, inst.P)))
    targeted = []
    for label in ODD_CASE_LABELS:
        for _ in range(6):
            cf = targeted_concentrated_form(rng, label, max_k=3)
            targeted.append((label, cf, classify_odd(cf)))
    return shifts, targeted


# ---------------------------------------------------------------------------
# criteria 1-2: golden examples


def test_criterion_1_golden_full_block(capsys):
    start = time.perf_counter()
    segre = SegreCharacteristic([(1, 4), (3, 2)])
    P = Matrix.identity(6)
    A, chains = build_matrix(segre, P)
    shift = shift_even(A, chains[0], 2)
    ok = shift.A_hat == jordan_matrix(SegreCharacteristic([(2, 4), (3, 2)]))
    pred = predict_structure(shift, P)
    target = SegreCharacteristic([(2, 4), (3, 2)])
    ok = ok and oracle_segre(shift.A_hat, [2, 3]) == target
    ok = ok and pred.segre == SegreCharacteristic([(2, 4)])
    ok = ok and (time.perf_counter() - start) < 1.0
    _report(capsys, 1, "golden full-block shift J4(1)+J2(3) -> J4(2)+J2(3)", ok)


def test_criterion_2_golden_split_block(capsys):
    start = time.perf_counter()
    segre = SegreCharacteristic([(1, 4), (3, 2)])
    P = Matrix.identity(6)
    A, chains = build_matrix(segre, P)
    e = lambda i: Vector.unit(6, i)
    R = Matrix.from_columns([e(0), e(1) - e(2)], dim=6)
    shift = shift_even(A, chains[0], 2, R=R)
    target = SegreCharacteristic([(2, 2), (2, 2), (3, 2)])
    pred = predict_structure(shift, P)
    ok = oracle_segre(shift.A_hat, [2, 3]) == target
    ok = ok and pred.sizes == (2, 2)
    ok = ok and (time.perf_counter() - start) < 1.0
    _report(capsys, 2, "golden split-block shift yields blocks [2, 2]", ok)


# ---------------------------------------------------------------------------
# criteria 3-4: spectrum replacement and half-chain invariance


def test_criterion_3_spectrum_replacement(capsys, mixed_pool):
    start = time.perf_counter()
    ok = all(
        charpoly_ratio_check(
            inst.A,
            inst.shift.A_hat,
            inst.lambda0,
            inst.lambda1,
            inst.chains.length,
        )
        for inst in mixed_pool
    )
    ok = ok and len(mixed_pool) >= 200
    ok = ok and (time.perf_counter() - start) < 60.0
    _report(capsys, 3, "characteristic polynomial replacement, 200 instances", ok)


def test_criterion_4_half_chain_invariance(capsys, mixed_pool):
    ok = len(mixed_pool) >= 200 and all(
        half_chain_invariance_holds(inst.shift) for inst in mixed_pool
    )
    _report(capsys, 4, "half-chain invariance of the shifted matrix", ok)


# ---------------------------------------------------------------------------
# criteria 5-6: classifier soundness against the rank-sequence oracle


def test_criterion_5_even_classifier(capsys, even_pool):
    ok = len(even_pool) >= 200
    for inst, pred in even_pool:
        k = inst.shift.k
        ok = ok and pred.sizes in ((2 * k,), (k, k))
        oracle = weyr_profile(inst.shift.A_hat, inst.lambda1).block_sizes()
        ok = ok and pred.sizes == oracle
        if not ok:
            break
    _report(capsys, 5, "even classifier matches oracle, family {[k,k],[2k]}", ok)


def _odd_family_member(sizes, k):
    parts = tuple(sorted(sizes, reverse=True))
    if sum(parts) != 2 * k + 1:
        return False
    if len(parts) <= 2:
        return True
    return len(parts) == 3 and parts[2] == 1


def test_criterion_6_odd_classifier(capsys, odd_pool):
    shifts, targeted = odd_pool
    ok = len(shifts) >= 200
    for inst, pred in shifts:
        k = inst.shift.k
        ok = ok and _odd_family_member(pred.sizes, k)
        oracle = weyr_profile(inst.shift.A_hat, inst.lambda1).block_sizes()
        ok = ok and pred.sizes == oracle
        if not ok:
            break
    hits = {label: 0 for label in ODD_CASE_LABELS}
    for label, cf, pred in targeted:
        ok = ok and pred.case_label == label
        ok = ok and _odd_family_member(pred.sizes, cf.k)
        oracle = weyr_profile(cf.matrix(), cf.lam).block_sizes()
        ok = ok and pred.sizes == oracle
        hits[label] += 1
    ok = ok and all(count >= 5 for count in hits.values())
    _report(capsys, 6, "odd classifier matches oracle, all case labels >= 5x", ok)


def test_criterion_7_cycle_verification(capsys, even_pool, odd_pool):
    shifts, targeted = odd_pool
    ok = True
    everything = (
        [(pred.canonical, inst.lambda1, pred) for inst, pred in even_pool]
        + [(pred.canonical, inst.lambda1, pred) for inst, pred in shifts]
        + [(pred.canonical, cf.lam, pred) for _, cf, pred in targeted]
    )
    for M, lam, pred in everything:
        ok = ok and verify_cycles(M, lam, [list(c) for c in pred.cycles])
        if not ok:
            break
    _report(capsys, 7, "all emitted cycles verify exactly with full rank", ok)


# ---------------------------------------------------------------------------
# criterion 8: biorthogonality and resolvent suite


def _random_pair(rng, size):
    P = random_unimodular(size, rng)
    lam = CR(rng.randint(-4, 4))
    _, chains = build_matrix(SegreCharacteristic([(lam, size)]), P)
    return lam, chains[0]


def _resolvent_closed_form(chain, d, i):
    """sum_{j<=i} (-1)^{i-j} x_j / d^{i-j+1}, which is (M - t I)^{-1} x_i
    for a right chain x of M at lam0 and d = lam0 - t."""
    acc = Vector.zero(chain[0].dim)
    for j in range(1, i + 1):
        sign = ONE if (i - j) % 2 == 0 else -ONE
        acc = acc + chain[j - 1].scale(sign / d ** (i - j + 1))
    return acc


def test_criterion_8_biorthogonality_suite(capsys):
    rng = random.Random(211)
    ok = True

    # (a) zero Gram table across distinct eigenvalues
    for _ in range(50):
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        l0, l1 = rng.sample(range(-5, 6), 2)
        P = random_unimodular(p + q, rng)
        _, chains = build_matrix(
            SegreCharacteristic([(l0, p), (l1, q)]), P
        )
        ok = ok and gram_table(chains[0].left, chains[1].right).is_zero
        ok = ok and gram_table(chains[1].left, chains[0].right).is_zero

    # (b) lower triangular Hankel Gram table for a single chain
    # (c) vanishing pattern u_i* v_j = 0 for i + j <= block size
    for _ in range(50):
        size = rng.randint(2, 6)
        _, pair = _random_pair(rng, size)
        table = gram_table(pair.left, pair.right)
        ok = ok and check_hankel(table)[0]
        for i in range(1, size + 1):
            for j in range(1, size + 1):
                if i + j <= size:
                    ok = ok and table[i - 1, j - 1].is_zero

    # (d) parametric chain families, all four displayed patterns
    for _ in range(50):
        k = rng.randint(1, 3)
        lam = CR(rng.randint(-4, 4))
        ones2k, unit2k = [ONE] * (2 * k), [ONE] + [ZERO] * (2 * k - 1)
        pair = generate_parametric_chains_single(lam, 2 * k, ones2k, ones2k)
        table = gram_table(pair.left, pair.right)
        for i in range(1, 2 * k + 1):
            for j in range(1, 2 * k + 1):
                if i <= k and j <= k:
                    ok = ok and table[i - 1, j - 1].is_zero
                if i >= k + 1 and j >= k + 1:
                    ok = ok and not table[i - 1, j - 1].is_zero
        pair = generate_parametric_chains_single(lam, 2 * k, unit2k, unit2k)
        table = gram_table(pair.left, pair.right)
        for i in range(1, 2 * k + 1):
            for j in range(1, 2 * k + 1):
                ok = ok and table[i - 1, j - 1].is_zero != (i + j == 2 * k + 1)
        ones, zeros = [ONE] * k, [ZERO] * k
        left, right = generate_parametric_chains_two_blocks(
            lam, k, ones, ones, ones, ones
        )
        table = gram_table(left, right)
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                ok = ok and table[i - 1, j - 1].is_zero == (i + j < k + 1)
        left, right = generate_parametric_chains_two_blocks(
            lam, k, ones, zeros, zeros, ones
        )
        ok = ok and gram_table(left, right).is_zero

    # (e) resolvent action on chains and resolvent orthogonality
    for _ in range(50):
        size = rng.randint(1, 5)
        lam = CR(rng.randint(-4, 4))
        A, chains = build_matrix(
            SegreCharacteristic([(lam, size)]), random_unimodular(size, rng)
        )
        pair = chains[0]
        point = lam + CR(rng.choice([1, 2, -1, -2]))
        shifted = A - Matrix.identity(size).scale(point)
        for i in range(1, size + 1):
            # (A - t I)^{-1} v_i = sum_j (-1)^{i-j} v_j / (lam0 - t)^{i-j+1},
            # and the u_i, a right chain of A* at conj(lam0), likewise
            rv = shifted.solve(pair.right[i - 1])
            lw = shifted.H.solve(pair.left[i - 1])
            ok = ok and rv == _resolvent_closed_form(pair.right, lam - point, i)
            ok = ok and lw == _resolvent_closed_form(
                pair.left, conj(lam - point), i
            )
        ok = ok and resolvent_orthogonality_check(A, point, pair)

    _report(capsys, 8, "biorthogonality, Hankel, families and resolvents", ok)


# ---------------------------------------------------------------------------
# criterion 9: geometric multiplicity bounds


def test_criterion_9_geometric_multiplicity(capsys, even_pool, odd_pool):
    shifts, targeted = odd_pool
    ok = True
    for inst, pred in even_pool:
        M = pred.canonical - Matrix.identity(pred.canonical.rows).scale(
            inst.lambda1
        )
        ok = ok and len(M.null_space_basis()) <= 2
    for inst, pred in shifts:
        M = pred.canonical - Matrix.identity(pred.canonical.rows).scale(
            inst.lambda1
        )
        ok = ok and len(M.null_space_basis()) <= 3
    for _, cf, pred in targeted:
        M = pred.canonical - Matrix.identity(pred.canonical.rows).scale(cf.lam)
        ok = ok and len(M.null_space_basis()) <= 3
    _report(capsys, 9, "geometric multiplicity <= 2 (even) / <= 3 (odd)", ok)
