"""Biorthogonality patterns, Hankel Gram tables and resolvent identities."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenshift import linalg
from eigenshift.biortho import (
    _antitriangle_entry,
    check_hankel,
    gram_table,
    resolvent_identities,
    resolvent_orthogonality_check,
)
from eigenshift.errors import (
    ResolventError,
    ShapeError,
    SingularMatrixError,
)
from eigenshift.linalg import Matrix, Vector, inner, jordan_block
from eigenshift.scalars import CR, ONE, ZERO
from eigenshift.synthesis import (
    ChainPair,
    SegreCharacteristic,
    build_matrix,
    generate_parametric_chains_single,
    generate_parametric_chains_two_blocks,
    random_unimodular,
)


def conj(x):
    """The complex conjugate of a scalar, from its parts."""
    return CR(x.re, -x.im)


def test_cross_gram_zero_for_distinct_eigenvalues():
    rng = random.Random(2)
    segre = SegreCharacteristic([(1, 3), (4, 2)])
    P = random_unimodular(5, rng)
    A, chains = build_matrix(segre, P)
    cross = gram_table(chains[0].left, chains[1].right)
    assert cross.is_zero
    cross = gram_table(chains[1].left, chains[0].right)
    assert cross.is_zero


def test_same_block_gram_is_lower_triangular_hankel():
    rng = random.Random(4)
    for _ in range(5):
        segre = SegreCharacteristic([(rng.randint(-3, 3), rng.randint(2, 5))])
        P = random_unimodular(segre.total_size, rng)
        _, chains = build_matrix(segre, P)
        table = gram_table(chains[0].left, chains[0].right)
        ok, info = check_hankel(table)
        assert ok, info


def test_check_hankel_flags_violations():
    bad = Matrix.from_rows([[ONE, ZERO], [ZERO, ONE]])
    ok, info = check_hankel(bad)
    assert not ok
    (i, j), reason = info
    assert (i, j) == (1, 1)


def test_single_block_family_all_ones_pattern():
    """All-ones parameters: zero Gram on the first half-chains, full on the second."""
    for k in (1, 2, 3):
        twok = 2 * k
        ones = [ONE] * twok
        pair = generate_parametric_chains_single(CR(2), twok, ones, ones)
        table = gram_table(pair.left, pair.right)
        for i in range(1, twok + 1):
            for j in range(1, twok + 1):
                value = table[i - 1, j - 1]
                if i <= k and j <= k:
                    assert value.is_zero
                if i >= k + 1 and j >= k + 1:
                    assert not value.is_zero


def test_single_block_family_unit_pattern():
    """a_1 = b_1 = 1, rest zero: Gram supported on the main anti-diagonal."""
    for k in (1, 2, 3):
        twok = 2 * k
        unit = [ONE] + [ZERO] * (twok - 1)
        pair = generate_parametric_chains_single(CR(-1), twok, unit, unit)
        table = gram_table(pair.left, pair.right)
        for i in range(1, twok + 1):
            for j in range(1, twok + 1):
                if i + j == twok + 1:
                    assert not table[i - 1, j - 1].is_zero
                else:
                    assert table[i - 1, j - 1].is_zero


def test_two_block_family_all_ones_pattern():
    for k in (1, 2, 3):
        ones = [ONE] * k
        left, right = generate_parametric_chains_two_blocks(
            CR(3), k, ones, ones, ones, ones
        )
        table = gram_table(left, right)
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                if i + j < k + 1:
                    assert table[i - 1, j - 1].is_zero
                else:
                    assert not table[i - 1, j - 1].is_zero


def test_two_block_family_disjoint_pattern():
    for k in (1, 2, 3):
        ones = [ONE] * k
        zeros = [ZERO] * k
        left, right = generate_parametric_chains_two_blocks(
            CR(3), k, ones, zeros, zeros, ones
        )
        table = gram_table(left, right)
        assert table.is_zero


def test_middle_product():
    segre = SegreCharacteristic([(0, 3)])
    _, chains = build_matrix(segre, Matrix.identity(3))
    assert not gram_table(chains[0].left, chains[0].right)[1, 1].is_zero


def resolvent_closed_form(chain, d, i):
    """sum_{j<=i} (-1)^{i-j} x_j / d^{i-j+1}, which is (M - t I)^{-1} x_i
    for a right chain x of M at lam0 and d = lam0 - t."""
    acc = Vector.zero(chain[0].dim)
    for j in range(1, i + 1):
        sign = ONE if (i - j) % 2 == 0 else -ONE
        acc = acc + chain[j - 1].scale(sign / d ** (i - j + 1))
    return acc


def test_resolvent_apply_matches_definition():
    """(A - t I)^{-1} v_i has the closed form in the v_j; the u_i are a
    right chain of A* at conj(lam0), so (A* - conj(t) I)^{-1} u_i has it
    in the u_j with conj(lam0) - conj(t)."""
    rng = random.Random(8)
    for lam0, point in ((CR(2), CR(7)), (CR(1, -1), CR(Fraction(1, 2), 2))):
        segre = SegreCharacteristic([(lam0, 4)])
        A, chains = build_matrix(segre, random_unimodular(4, rng))
        pair = chains[0]
        shifted = A - Matrix.identity(4).scale(point)
        for i in range(1, 5):
            rv = shifted.solve(pair.right[i - 1])
            assert shifted @ rv == pair.right[i - 1]
            assert rv == resolvent_closed_form(pair.right, lam0 - point, i)
            lw = shifted.H.solve(pair.left[i - 1])
            assert shifted.H @ lw == pair.left[i - 1]
            assert lw == resolvent_closed_form(
                pair.left, conj(lam0 - point), i
            )


def test_resolvent_rejects_spectrum_point():
    segre = SegreCharacteristic([(2, 2)])
    A, chains = build_matrix(segre, Matrix.identity(2))
    with pytest.raises(
        ResolventError, match="^resolvent point 2 lies in the spectrum$"
    ):
        resolvent_orthogonality_check(A, CR(2), chains[0])


def test_resolvent_orthogonality():
    rng = random.Random(13)
    for _ in range(5):
        size = rng.randint(2, 5)
        segre = SegreCharacteristic([(rng.randint(-3, 3), size)])
        P = random_unimodular(size, rng)
        A, chains = build_matrix(segre, P)
        point = CR(9)
        assert resolvent_orthogonality_check(A, point, chains[0])


def test_resolvent_orthogonality_fails_on_corrupted_chain():
    segre = SegreCharacteristic([(1, 3)])
    A, chains = build_matrix(segre, Matrix.identity(3))
    good = chains[0]
    bad = ChainPair(
        good.lam,
        [good.left[0] + good.left[2], good.left[1], good.left[2]],
        good.right,
    )
    assert not resolvent_orthogonality_check(A, CR(6), bad)


# ---------------------------------------------------------------------------
# the batched tables against per-entry and per-pair references


def _random_vector(rng, n, complex_prob):
    def part():
        return CR(rng.randint(-5, 5)) / rng.randint(1, 4)

    return Vector(
        [
            part() + CR(0, 1) * part() if rng.random() < complex_prob else part()
            for _ in range(n)
        ]
    )


@pytest.mark.parametrize("complex_prob", [0.0, 0.5])
@pytest.mark.parametrize("p, q", [(1, 3), (3, 1), (2, 5), (4, 4)])
def test_gram_table_matches_entrywise_inner(p, q, complex_prob):
    rng = random.Random(p * 10 + q)
    for n in (1, 3, 6):
        left = [_random_vector(rng, n, complex_prob) for _ in range(p)]
        right = [_random_vector(rng, n, complex_prob) for _ in range(q)]
        want = Matrix(p, q, [inner(u, v) for u in left for v in right])
        assert gram_table(left, right) == want


def test_gram_table_shape_errors():
    u, w = Vector.unit(3, 0), Vector.unit(2, 0)
    for left, right in (([], [u]), ([u], []), ([], [])):
        with pytest.raises(ShapeError, match="^gram_table needs nonempty chains$"):
            gram_table(left, right)
    for left, right in (([u, w], [u]), ([u], [u, w]), ([w], [u])):
        with pytest.raises(
            ShapeError,
            match="^all chain vectors must share the ambient dimension$",
        ):
            gram_table(left, right)


def reference_resolvent_check(A, lam, pair):
    """One solve for this pair's right chain, then u_i* x_j entry by entry."""
    images = A.minus_identity(lam).solve(Matrix.from_columns(list(pair.right)))
    p = pair.length
    return all(
        inner(pair.left[i - 1], images.col(j - 1)).is_zero
        for i in range(1, p + 1)
        for j in range(1, p - i + 1)
    )


def corrupted(pair, where):
    """pair with one vector plus its chain's last: u_1 or v_1, or u_(p-1)
    or v_(p-1), whose only identities lie on the edge i + j = p.  Each
    breaks an identity: u_p* (A - t I)^{-1} v_1 and u_1* (A - t I)^{-1} v_p
    are u_p* v_1 / (lam - t) and u_1* v_p / (lam - t), both nonzero."""
    side, first = where
    left, right = list(pair.left), list(pair.right)
    chain = left if side == "left" else right
    i = 0 if first else pair.length - 2
    chain[i] = chain[i] + chain[-1]
    return ChainPair(pair.lam, left, right)


CORRUPTIONS = (("left", True), ("right", True), ("left", False), ("right", False))


@st.composite
def chain_families(draw):
    """(A, chain pairs, point, corrupted): blocks with complex eigenvalues
    in a random unimodular basis, some chains of length 2 or more
    corrupted, and in one family every block of size 1; the point is an
    eigenvalue in about a quarter of the draws."""
    count = draw(st.integers(1, 4))
    largest = draw(st.sampled_from((1, 4, 4, 4)))
    sizes = draw(st.lists(st.integers(1, largest), min_size=count, max_size=count))
    parts = st.tuples(st.integers(-3, 3), st.integers(-2, 2))
    lams = draw(st.lists(parts, min_size=count, max_size=count))
    lams[0] = (lams[0][0], lams[0][1] or 1)  # at least one non-real
    segre = SegreCharacteristic(
        [(CR(re, im), size) for (re, im), size in zip(lams, sizes)]
    )
    rng = random.Random(draw(st.integers(0, 2**16)))
    A, chains = build_matrix(segre, random_unimodular(sum(sizes), rng))
    wheres = draw(
        st.lists(
            st.none() | st.sampled_from(CORRUPTIONS), min_size=count, max_size=count
        )
    )
    bad = [where is not None and pair.length > 1 for pair, where in zip(chains, wheres)]
    pairs = [
        corrupted(pair, where) if hit else pair
        for pair, where, hit in zip(chains, wheres, bad)
    ]
    if draw(st.integers(0, 3)) == 0:
        point = draw(st.sampled_from([pair.lam for pair in chains]))
    else:
        point = CR(draw(st.integers(-3, 3)))
    return A, pairs, point, bad


@settings(max_examples=60, deadline=None)
@given(chain_families())
def test_batched_resolvent_verdicts_match_per_pair_solves(family):
    A, pairs, point, bad = family
    try:
        want = [reference_resolvent_check(A, point, pair) for pair in pairs]
    except SingularMatrixError:
        with pytest.raises(ResolventError, match="^resolvent point .* lies in the spectrum$"):
            resolvent_identities(A, point, pairs)
        return
    assert want == [not hit for hit in bad]
    assert resolvent_identities(A, point, pairs) == want
    assert [resolvent_orthogonality_check(A, point, p) for p in pairs] == want


def test_length_one_pairs_still_refuse_a_spectrum_point():
    """With every pair of length 1 there are no identities, but the pass
    still runs, so a point of the spectrum raises."""
    segre = SegreCharacteristic([(CR(0, 1), 1), (CR(3), 1), (CR(1), 1)])
    A, chains = build_matrix(segre, random_unimodular(3, random.Random(5)))
    assert resolvent_identities(A, CR(2), chains) == [True, True, True]
    for lam in (CR(3), CR(1), CR(0, 1)):
        with pytest.raises(ResolventError, match=f"^resolvent point {re.escape(str(lam))} lies"):
            resolvent_identities(A, lam, chains)


def resolvent_table(A, point, pairs):
    """U* (A - t I)^{-1} V over every pair's first p - 1 vectors, by a
    solve and a product."""
    U = Matrix.from_columns([u for pair in pairs for u in pair.left[:-1]])
    V = Matrix.from_columns([v for pair in pairs for v in pair.right[:-1]])
    return U.H @ A.minus_identity(point).solve(V)


def test_resolvent_verdicts_read_each_pairs_own_anti_triangle_only():
    """A verdict reads its pair's own diagonal block of the table, up to
    and including the edge i + j = p, and no cross-pair entry."""
    segre = SegreCharacteristic([(CR(1), 3), (CR(-2, 1), 2), (CR(0, 1), 4)])
    A, (first, second, third) = build_matrix(segre, random_unimodular(9, random.Random(21)))
    point = CR(3)
    # u_1 of the first pair plus the last left vector of the second: u_2*
    # of the second pair's chain is orthogonal to the first pair's right
    # chain, so the first pair's own block stays zero, while its row meets
    # the second pair's v_1 in u_2* (A - t I)^{-1} v_1 = u_2* v_1 / (lam - t)
    mixed = ChainPair(first.lam, [first.left[0] + second.left[-1], *first.left[1:]], first.right)
    pairs = [mixed, second, third]
    table = resolvent_table(A, point, pairs)
    assert _antitriangle_entry(table.submatrix(0, 2, 0, 2), 3) is None
    assert not table.submatrix(0, 1, 2, 3).is_zero
    assert resolvent_identities(A, point, pairs) == [True, True, True]
    # u_1 of the third pair (p = 4) plus its u_2: of the identities
    # i + j <= 4 only (1, 3), on the edge, becomes u_2* (A - t I)^{-1} v_3,
    # which is u_2* v_3 / (lam - t), nonzero
    edge = ChainPair(third.lam, [third.left[0] + third.left[1], *third.left[1:]], third.right)
    pairs = [first, second, edge]
    own = resolvent_table(A, point, pairs).submatrix(3, 6, 3, 6)
    nonzero = [
        (i, j) for i in range(1, 4) for j in range(1, 5 - i) if not own[i - 1, j - 1].is_zero
    ]
    assert nonzero == [(1, 3)]
    assert resolvent_identities(A, point, pairs) == [True, True, False]


# ---------------------------------------------------------------------------
# the scans on the integer form against entrywise ComplexRational references


def reference_antitriangle_entry(table, bound):
    """First (i, j), 1-based, with i + j <= bound and x_{i,j} != 0, read
    entry by entry as ComplexRationals."""
    p, q = table.shape
    for i in range(1, p + 1):
        for j in range(1, min(q, bound - i) + 1):
            if table[i - 1, j - 1] != ZERO:
                return (i, j)
    return None


def reference_hankel(table):
    p, q = table.shape
    at = reference_antitriangle_entry(table, max(p, q))
    if at is not None:
        return False, (at, "leading anti-triangle entry nonzero")
    for i in range(2, p + 1):
        for j in range(1, q):
            if table[i - 1, j - 1] != table[i - 2, j]:
                return False, ((i, j), "anti-diagonal not constant")
    return True, None


def _near_hankel_table(rng, complex_prob):
    """A p x q table built along its anti-diagonals: those with
    i + j <= max(p, q) mostly 0, the others one value each, and now and
    then an entry replaced, so that both violations and passes occur."""
    p, q = rng.randint(1, 5), rng.randint(1, 5)

    def value():
        re = CR(rng.randint(-4, 4)) / rng.randint(1, 6)
        if rng.random() < complex_prob:
            return re + CR(0, rng.randint(-3, 3)) / rng.randint(1, 6)
        return re

    diagonal = {
        s: ZERO if s <= max(p, q) and rng.random() < 0.9 else value()
        for s in range(2, p + q + 1)
    }
    entries = [
        value() if rng.random() < 0.04 else diagonal[i + j]
        for i in range(1, p + 1)
        for j in range(1, q + 1)
    ]
    return Matrix(p, q, entries)


@pytest.mark.parametrize("complex_prob", [0.0, 0.5])
def test_scans_match_the_entrywise_references(complex_prob):
    rng = random.Random(31 + int(complex_prob * 10))
    outcomes = set()
    for _ in range(600):
        table = _near_hankel_table(rng, complex_prob)
        want = reference_hankel(table)
        assert check_hankel(table) == want
        outcomes.add(want[1] and want[1][1])
        for bound in range(1, sum(table.shape) + 2):
            assert _antitriangle_entry(table, bound) == (
                reference_antitriangle_entry(table, bound)
            )
    assert outcomes == {
        None,
        "leading anti-triangle entry nonzero",
        "anti-diagonal not constant",
    }


def test_scans_make_no_scalar(monkeypatch):
    """check_hankel and resolvent_identities read the integer form only:
    with scalar construction refused they still finish."""
    segre = SegreCharacteristic(
        [(CR(1, 2), 3), (CR(-1), 2), (CR(Fraction(1, 2)), 1), (CR(1, 2), 2)]
    )
    A, chains = build_matrix(segre, random_unimodular(8, random.Random(8)))
    tables = [gram_table(pair.left, pair.right) for pair in chains]
    bad = Matrix.from_rows([[0, 0, 1], [0, 1, 0], [2, 0, 0]])

    def refuse(re, im, den):
        raise AssertionError("a scalar was made")

    monkeypatch.setattr(linalg, "from_integers", refuse)
    assert [check_hankel(table) for table in tables] == [(True, None)] * 4
    assert check_hankel(bad) == (False, ((3, 1), "anti-diagonal not constant"))
    assert resolvent_identities(A, CR(0), chains) == [True] * 4
    with pytest.raises(AssertionError, match="^a scalar was made$"):
        tables[0][0, 0]
