"""Differential tests: the fraction-free kernel against plain elimination.

The reference below is elimination over ComplexRational with exact
division and first-nonzero pivoting, written out directly; it is what
``linalg`` ran before its integer kernel.  Every kernel result must
equal the reference value exactly, on real and complex-rational
matrices of every shape, including rank-deficient, empty and all-zero
ones.  The characteristic polynomial, computed without division, is
checked by its values at integer points against one reference
determinant per point, and the ranks of powers, which clear a matrix to
integers once, against one rank per explicit power.  The operations
that slice, stack, add or transpose the stored integer form are checked
against entrywise ComplexRational references, and every result must
keep the canonical form.  ``schur_blocks`` is checked, whole and split
into random diagonal blocks, against the blocks of a solve and a
product, C @ A.solve(B), and the lazy elimination against eager Bareiss.
"""

import hashlib
import json
import operator
import random
from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenshift import linalg
from eigenshift.errors import MissingEigenvalueError, ShapeError, SingularMatrixError
from eigenshift.linalg import (
    Matrix,
    Vector,
    _diagonal_blocks,
    _eliminate,
    _multiplicity,
    hstack,
    inner,
    jordan_block,
    jordan_sum,
    outer_plain,
    power_ranks,
    schur_blocks,
    vstack,
)
from eigenshift.oracle import oracle_segre
from eigenshift.scalars import CR, ONE, ZERO
from eigenshift.shifting import charpoly_ratio_check, shift_even, shift_odd
from eigenshift.synthesis import SegreCharacteristic, build_matrix, random_unimodular

# -- reference: elimination over ComplexRational --------------------------------


def ref_echelon(rows):
    """In-place echelon form of a list-of-lists copy.

    Returns (pivot columns, product of pivots times the swap sign).
    """
    n = len(rows)
    m = len(rows[0]) if n else 0
    piv_cols = []
    det = ONE
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            det = -det
        pivot = rows[r][c]
        det = det * pivot
        for i in range(r + 1, n):
            f = rows[i][c]
            if not f:
                continue
            f = f / pivot
            rows[i][c] = ZERO
            for j in range(c + 1, m):
                rows[i][j] = rows[i][j] - f * rows[r][j]
        piv_cols.append(c)
        r += 1
        if r == n:
            break
    return piv_cols, det


def ref_rank(A):
    if A.rows == 0 or A.cols == 0:
        return 0
    return len(ref_echelon(A.row_list())[0])


def ref_det(A):
    if A.rows == 0:
        return ONE
    piv_cols, det = ref_echelon(A.row_list())
    return det if len(piv_cols) == A.rows else ZERO


def ref_solve(A, B):
    """X with A X = B, or the rank of A when A is singular."""
    n, m = A.rows, B.cols
    rows = [A.row_list()[i] + B.row_list()[i] for i in range(n)]
    piv_cols, _ = ref_echelon(rows)
    rank = len([c for c in piv_cols if c < n])
    if len(piv_cols) < n or any(c >= n for c in piv_cols):
        return rank
    sol = [[ZERO] * m for _ in range(n)]
    for r in range(n - 1, -1, -1):
        for j in range(m):
            s = rows[r][n + j]
            for c in range(r + 1, n):
                s = s - rows[r][c] * sol[c][j]
            sol[r][j] = s / rows[r][r]
    return Matrix(n, m, [sol[i][j] for i in range(n) for j in range(m)])


def ref_null_space(A):
    n, m = A.rows, A.cols
    if m == 0:
        return []
    if n == 0:
        return [Vector.unit(m, j) for j in range(m)]
    rows = A.row_list()
    piv_cols, _ = ref_echelon(rows)
    free_cols = [c for c in range(m) if c not in set(piv_cols)]
    basis = []
    for fc in free_cols:
        x = [ZERO] * m
        x[fc] = ONE
        for r in range(len(piv_cols) - 1, -1, -1):
            pc = piv_cols[r]
            s = ZERO
            for c in range(pc + 1, m):
                if x[c]:
                    s = s + rows[r][c] * x[c]
            x[pc] = -s / rows[r][pc]
        basis.append(Vector(x))
    return basis


def ref_matmul(A, B):
    out = []
    for i in range(A.rows):
        for j in range(B.cols):
            s = ZERO
            for k in range(A.cols):
                s = s + A[i, k] * B[k, j]
            out.append(s)
    return Matrix(A.rows, B.cols, out)


def conj(x):
    """The complex conjugate of a scalar, from its parts."""
    return CR(x.re, -x.im)


def ref_inner(u, v):
    s = ZERO
    for a, b in zip(u.entries, v.entries):
        s = s + conj(a) * b
    return s


# -- random exact matrices -----------------------------------------------------


def random_scalar(rng, complex_prob, den_max=4):
    def part():
        return Fraction(rng.randint(-5, 5), rng.randint(1, den_max))

    im = part() if rng.random() < complex_prob else 0
    return CR(part(), im)


def random_matrix(rng, rows, cols, complex_prob=0.0, rank=None):
    """Random rows x cols matrix; with rank given, a product of two
    random factors of that inner dimension (rank at most that)."""
    if rank is None:
        return Matrix(
            rows,
            cols,
            [random_scalar(rng, complex_prob) for _ in range(rows * cols)],
        )
    left = random_matrix(rng, rows, rank, complex_prob)
    right = random_matrix(rng, rank, cols, complex_prob)
    return ref_matmul(left, right)


def assert_kernel_matches(A):
    """Every kernel operation on A equals the reference."""
    assert A.exact_rank() == ref_rank(A)
    assert A.null_space_basis() == ref_null_space(A)
    if A.is_square:
        assert A.det() == ref_det(A)
        rng = random.Random(A.rows * 31 + A.cols)
        B = random_matrix(rng, A.rows, 2, complex_prob=0.5)
        expected = ref_solve(A, B)
        if isinstance(expected, int):
            with pytest.raises(SingularMatrixError) as err:
                A.solve(B)
            assert err.value.rank == expected
            with pytest.raises(SingularMatrixError) as err:
                A.inverse()
            assert err.value.rank == expected
        else:
            assert A.solve(B) == expected
            assert A.solve(B.col(1)) == expected.col(1)
            assert A.inverse() == ref_solve(A, Matrix.identity(A.rows))


SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 6), (7, 3)]


@pytest.mark.parametrize("complex_prob", [0.0, 0.4])
@pytest.mark.parametrize("rows,cols", SHAPES)
def test_full_and_wide_and_tall_matrices(rows, cols, complex_prob):
    rng = random.Random(rows * 100 + cols + int(10 * complex_prob))
    for _ in range(3):
        assert_kernel_matches(random_matrix(rng, rows, cols, complex_prob))


@pytest.mark.parametrize("complex_prob", [0.0, 0.4])
@pytest.mark.parametrize("rows,cols,rank", [(5, 5, 3), (6, 4, 2), (3, 7, 1), (6, 6, 5)])
def test_rank_deficient_matrices(rows, cols, rank, complex_prob):
    rng = random.Random(rows * 1000 + cols * 10 + rank)
    for _ in range(3):
        A = random_matrix(rng, rows, cols, complex_prob, rank=rank)
        assert_kernel_matches(A)


@pytest.mark.parametrize("rows,cols", [(1, 1), (3, 3), (2, 4), (4, 2)])
def test_all_zero_matrices(rows, cols):
    Z = Matrix.zeros(rows, cols)
    assert_kernel_matches(Z)
    assert len(Z.null_space_basis()) == cols


def test_pivot_search_skips_leading_zero_rows_and_columns():
    A = Matrix.from_rows(
        [
            [ZERO, ZERO, CR(2), CR(1)],
            [ZERO, CR(0, 1), CR(1), ZERO],
            [ZERO, ZERO, CR(4), CR(2)],
            [ZERO, CR(3), ZERO, CR(1, 2)],
        ]
    )
    assert_kernel_matches(A)


@pytest.mark.parametrize("complex_prob", [0.0, 0.5])
@pytest.mark.parametrize("n,m,p", [(0, 3, 2), (3, 0, 2), (2, 3, 0), (4, 4, 4), (3, 5, 2)])
def test_products_match_reference(n, m, p, complex_prob):
    rng = random.Random(n * 100 + m * 10 + p)
    A = random_matrix(rng, n, m, complex_prob)
    B = random_matrix(rng, m, p, complex_prob)
    assert A @ B == ref_matmul(A, B)
    v = Vector([random_scalar(rng, complex_prob) for _ in range(m)])
    assert A @ v == ref_matmul(A, Matrix.from_columns([v])).col(0)
    for i in range(n):
        assert inner(A.row(i), v) == ref_inner(A.row(i), v)
        assert inner(v, A.row(i)) == ref_inner(v, A.row(i))


@pytest.mark.parametrize("complex_prob", [0.0, 0.5, 1.0])
def test_scaling_matches_scalar_products(complex_prob):
    rng = random.Random(11)
    A = random_matrix(rng, 3, 4, complex_prob)
    for c in (random_scalar(rng, complex_prob), CR(0), CR(0, 1), 3):
        expected = [c * a for a in A.entries]
        assert A.scale(c).entries == tuple(expected)
        assert A.row(1).scale(c).entries == tuple(expected[4:8])


@pytest.mark.parametrize("complex_prob", [0.0, 0.5])
def test_scale_and_outer_match_the_one_wide_product(complex_prob):
    """``scale`` and ``outer_plain`` multiply the numerators directly; each
    equals the product of a column and a 1 x 1 or a 1 x p matrix, whose
    dot products are one term long, for real, complex and zero scalars
    and empty shapes, and keeps the canonical form."""
    rng = random.Random(17 + int(10 * complex_prob))
    scalars = [0, ZERO, 3, CR(Fraction(-5, 6)), CR(0, 1), CR(Fraction(1, 2), -3)]
    for rows, cols in [(0, 0), (0, 3), (3, 0), (1, 1), (4, 3)]:
        X = random_matrix(rng, rows, cols, complex_prob)
        column = Matrix(rows * cols, 1, X.entries)
        u = Vector([random_scalar(rng, complex_prob) for _ in range(rows)])
        v = Vector([random_scalar(rng, complex_prob) for _ in range(cols)])
        for c in scalars + [random_scalar(rng, 1.0)]:
            scaled = X.scale(c)
            assert scaled == Matrix(rows, cols, (column @ Matrix(1, 1, [c])).entries)
            assert u.scale(c) == (Matrix.from_columns([u]) @ Matrix(1, 1, [c])).col(0)
            assert_canonical(scaled)
        outer = outer_plain(u, v)
        assert outer == Matrix.from_columns([u]) @ Matrix(1, cols, v.entries)
        assert_canonical(outer)


def test_mixed_real_and_complex_products():
    rng = random.Random(7)
    R = random_matrix(rng, 3, 4)
    C = random_matrix(rng, 4, 3, complex_prob=1.0)
    assert R @ C == ref_matmul(R, C)
    assert C @ R == ref_matmul(C, R)


def test_minus_identity_equals_subtracting_scaled_identity():
    """Changing only the diagonal gives A - lam I: over one denominator
    (rescaled when lam's does not divide A's), with a complex lam on a
    real A, an integer lam on a Gaussian-integer A, a result that cancels
    to a smaller denominator, and n = 0; a non-square A is refused, and
    the identity equals the one built from its rows for n = 0..4."""
    rng = random.Random(3)
    half = CR(Fraction(1, 2))
    quarters = Matrix.from_rows([[Fraction(1, 2), 1], [3, Fraction(1, 4)]])
    half_identity = Matrix.identity(3).scale(half)
    gaussian = Matrix(3, 3, [CR(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(9)])
    cases = [
        (random_matrix(rng, 4, 4, complex_prob=0.5), lam)
        for lam in (CR(0), CR(2, -1), CR(Fraction(-3, 7)))
    ]
    cases += [
        (random_matrix(rng, 4, 4), CR(Fraction(1, 2), Fraction(-2, 3))),
        (quarters, Fraction(1, 3)),
        (half_identity, half),
        (gaussian, 3),
        (Matrix.zeros(0, 0), CR(1, 2)),
    ]
    for A, lam in cases:
        got = A.minus_identity(lam)
        assert got == A - Matrix.identity(A.rows).scale(lam)
        assert_canonical(got)
    assert quarters.den == 4 and quarters.minus_identity(Fraction(1, 3)).den == 12
    zero = half_identity.minus_identity(half)
    assert zero == Matrix.zeros(3, 3) and zero.den == 1
    with pytest.raises(ShapeError):
        Matrix.zeros(2, 3).minus_identity(1)
    for n in range(5):  # the reference's identity, written straight into its form
        want = Matrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])
        assert Matrix.identity(n) == want and hash(Matrix.identity(n)) == hash(want)
        assert_canonical(Matrix.identity(n))


@st.composite
def exact_matrices(draw):
    rows = draw(st.integers(min_value=0, max_value=5))
    cols = draw(st.integers(min_value=0, max_value=5))
    part = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    real_only = draw(st.booleans())
    entries = draw(
        st.lists(
            st.tuples(part, st.just(Fraction(0)) if real_only else part),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    # zero out a random set of columns to reach rank deficiency often
    dropped = draw(st.sets(st.integers(min_value=0, max_value=max(cols - 1, 0))))
    return Matrix(
        rows,
        cols,
        [
            ZERO if t % cols in dropped else CR(re, im)
            for t, (re, im) in enumerate(entries)
        ]
        if cols
        else [],
    )


@settings(max_examples=60, deadline=None)
@given(exact_matrices())
def test_kernel_matches_reference_property(A):
    assert_kernel_matches(A)
    square = A @ A.transpose()
    assert square == ref_matmul(A, A.transpose())
    assert_kernel_matches(square)


# -- characteristic polynomials at integer points and ranks of powers ----------


def power_rank_list(M, count, lam=ZERO):
    """The first count ranks of the powers of M - lam I, from the one
    eigenvalue call of ``power_ranks``."""
    (ranks,) = power_ranks(M, [lam])
    return list(islice(ranks, count))


def explicit_power_ranks(M, count):
    ranks, power = [], M
    for _ in range(count):
        ranks.append(power.exact_rank())
        power = power @ M
    return ranks


def special_square_matrices(complex_prob):
    """Nilpotent, singular, zero, identity, empty and generic matrices."""
    rng = random.Random(int(10 * complex_prob) + 5)
    strict = Matrix(
        4,
        4,
        [
            random_scalar(rng, complex_prob) if j > i else ZERO
            for i in range(4)
            for j in range(4)
        ],
    )
    S = Matrix.identity(4) + strict.transpose()  # unit lower triangular
    unit = CR(0, 1) if complex_prob else ONE
    return [
        ref_matmul(ref_matmul(S, strict), S.inverse()),  # nilpotent
        jordan_block(ZERO, 5).scale(unit),  # nilpotent of index 5
        random_matrix(rng, 5, 5, complex_prob, rank=2),  # singular
        Matrix.zeros(3, 3),
        Matrix.identity(4).scale(unit),
        Matrix(0, 0, []),
        random_matrix(rng, 5, 5, complex_prob),
    ]


POINTS = [0, 1, -1, 2, 5, 0]


def charpoly_dets(M, points):
    """[det(M - t I) for t in points] from M's characteristic polynomial
    det(x I - M), by Horner's rule, after checking its shape."""
    coeffs = M.charpoly()
    assert isinstance(coeffs, Vector) and coeffs.dim == M.rows + 1
    assert coeffs[0] == ONE
    sign = -ONE if M.rows % 2 else ONE
    dets = []
    for t in points:
        value = ZERO
        for c in coeffs:
            value = value * CR(t) + c
        dets.append(sign * value)
    return dets


@pytest.mark.parametrize("complex_prob", [0.0, 0.5])
def test_dets_at_points_match_shifted_dets(complex_prob):
    for M in special_square_matrices(complex_prob):
        expected = [ref_det(M.minus_identity(t)) for t in POINTS]
        assert charpoly_dets(M, POINTS) == expected
        assert [M.minus_identity(t).det() for t in POINTS] == expected
        assert M.det() == expected[0]
    assert Matrix(0, 0, []).charpoly() == Vector([ONE])
    assert Matrix.identity(2).charpoly() == Vector([ONE, CR(-2), ONE])


@pytest.mark.parametrize("complex_prob", [0.0, 0.5, 1.0])
def test_power_ranks_match_explicit_powers(complex_prob):
    for M in special_square_matrices(complex_prob):
        count = M.rows + 2
        assert power_rank_list(M, count) == explicit_power_ranks(M, count)
        for lam in (ZERO, ONE, CR(0, 1)):
            N = M.minus_identity(lam)
            assert power_rank_list(M, count, lam) == explicit_power_ranks(N, count)


def test_points_and_powers_refuse_bad_input():
    for shape in ((2, 3), (3, 2), (0, 1)):
        M = Matrix.zeros(*shape)
        with pytest.raises(ShapeError):
            M.charpoly()
        with pytest.raises(ShapeError):
            M.det()
        with pytest.raises(ShapeError):
            power_ranks(M, [ZERO])


@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    part = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    real_only = draw(st.booleans())
    upper_only = draw(st.booleans())  # strictly upper: nilpotent
    entries = draw(
        st.lists(
            st.tuples(part, st.just(Fraction(0)) if real_only else part),
            min_size=n * n,
            max_size=n * n,
        )
    )
    dropped = draw(st.sets(st.integers(min_value=0, max_value=max(n - 1, 0))))
    return Matrix(
        n,
        n,
        [
            ZERO
            if t % n in dropped or (upper_only and t % n <= t // n)
            else CR(re, im)
            for t, (re, im) in enumerate(entries)
        ],
    )


@settings(max_examples=60, deadline=None)
@given(square_matrices(), st.lists(st.integers(-4, 4), max_size=4))
def test_points_and_powers_property(M, points):
    assert charpoly_dets(M, points) == [ref_det(M.minus_identity(t)) for t in points]
    count = M.rows + 1
    assert power_rank_list(M, count) == [
        ref_rank(P) for P in islice(accumulate(repeat(M), ref_matmul), count)
    ]


# -- diagonal blocks: direct sums under a permutation similarity --------------

EIGENVALUES = (ZERO, ONE, CR(0, 1))


def random_block(rng, size, complex_prob):
    """A generic, a rank-deficient or a Jordan-similar block, the last
    S J_size(lam) S^{-1} for a unimodular S and lam in EIGENVALUES; with
    complex entries, also i J_size(lam), coupled by imaginary parts alone."""
    kind = rng.randrange(4 if complex_prob else 3)
    if kind == 0:
        return random_matrix(rng, size, size, complex_prob)
    if kind == 1:
        return random_matrix(rng, size, size, complex_prob, rank=rng.randint(0, size))
    if kind == 3:
        return jordan_block(rng.choice(EIGENVALUES), size).scale(CR(0, 1))
    S = random_unimodular(size, rng)
    return S @ jordan_block(rng.choice(EIGENVALUES), size) @ S.inverse()


def direct_sum(blocks):
    """The rows of entries of the direct sum of the square blocks."""
    n = sum(X.rows for X in blocks)
    D = [[ZERO] * n for _ in range(n)]
    t = 0
    for X in blocks:
        for i in range(X.rows):
            D[t + i][t : t + X.rows] = X.row(i).entries
        t += X.rows
    return D


def permuted_direct_sum(rng, complex_prob):
    """(M, owner): M = Q (X_1 + ... + X_b) Q^T for 1 to 4 random blocks
    X_i of size 1 to 5 and a random permutation Q; owner[i] is the block
    that M's index i belongs to."""
    blocks = [
        random_block(rng, rng.randint(1, 5), complex_prob)
        for _ in range(rng.randint(1, 4))
    ]
    owner = [b for b, X in enumerate(blocks) for _ in range(X.rows)]
    M, perm = permuted(rng, direct_sum(blocks))
    return M, [owner[i] for i in perm]


def permuted(rng, D):
    """(Q D Q^T, perm) for the rows of entries D and a random permutation
    Q: entry (i, j) is D[perm[i]][perm[j]]."""
    n = len(D)
    perm = list(range(n))
    rng.shuffle(perm)
    return Matrix(n, n, [D[perm[i]][perm[j]] for i in range(n) for j in range(n)]), perm


@pytest.mark.parametrize("complex_prob", [0.0, 0.5])
def test_permuted_direct_sums_split_exactly(complex_prob):
    """The split finds groups inside the drawn blocks; the charpoly, a
    product over them, equals (-1)^n det(M - t I) at n + 1 integer
    points, and the ranks of powers, sums over them, equal the ranks of
    the explicit powers."""
    rng = random.Random(41 + int(10 * complex_prob))
    for _ in range(30):
        M, owner = permuted_direct_sum(rng, complex_prob)
        n = M.rows
        groups = _diagonal_blocks(M)
        assert sorted(i for g in groups for i in g) == list(range(n))
        assert [g[0] for g in groups] == sorted(g[0] for g in groups)
        assert all(g == sorted(g) and len({owner[i] for i in g}) == 1 for g in groups)
        points = list(range(n + 1))
        assert charpoly_dets(M, points) == [M.minus_identity(t).det() for t in points]
        for lam in EIGENVALUES:
            N = M.minus_identity(lam)
            assert power_rank_list(M, n + 1, lam) == explicit_power_ranks(N, n + 1)


@st.composite
def dense_sums_holding_zero(draw):
    """A direct sum of dense blocks, each a Jordan matrix in a
    ``random_unimodular`` basis: the first holds 0 in one to three Jordan
    blocks beside at most one other eigenvalue, the others hold no 0; the
    sum is taken as it is or times 1 + i."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    nonzero = st.sampled_from((ONE, CR(-2), CR(Fraction(1, 2)), CR(0, 1), CR(1, -1)))
    zero_blocks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    other = draw(st.lists(st.tuples(nonzero, st.integers(1, 3)), max_size=1))
    rest = draw(st.lists(st.lists(st.tuples(nonzero, st.integers(1, 2)), min_size=1, max_size=2), max_size=2))
    dense = []
    for blocks in [[(ZERO, s) for s in zero_blocks] + other, *rest]:
        segre = SegreCharacteristic(blocks)
        dense.append(build_matrix(segre, random_unimodular(segre.total_size, rng))[0])
    unit = draw(st.sampled_from((ONE, CR(1, 1))))
    D = direct_sum(dense)
    return Matrix(len(D), len(D), [x * unit for row in D for x in row])


@settings(max_examples=40, deadline=None)
@given(dense_sums_holding_zero())
def test_power_ranks_of_dense_blocks_holding_zero_match_explicit_powers(N):
    """Each block that holds 0 stops at the floor its characteristic
    polynomial gives, and every rank is that of the explicit power."""
    n = N.rows
    assert power_rank_list(N, n + 1) == explicit_power_ranks(N, n + 1)


# real, rational with a denominator, and Gaussian: each listed or not
LISTABLE = (ZERO, CR(-2), CR(Fraction(1, 3)), CR(Fraction(-3, 2)), CR(0, 1), CR(Fraction(1, 2), -1))


@st.composite
def listed_direct_sums(draw):
    """(M, listed, segre): M is a permuted direct sum of one to three dense
    blocks, each a Jordan matrix in a ``random_unimodular`` basis with
    zero to three Jordan blocks at listed eigenvalues, repeats allowed,
    and perhaps one at an unlisted eigenvalue; listed may hold values
    that are no eigenvalue, and segre is M's Segre characteristic."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    listed = draw(st.lists(st.sampled_from(LISTABLE), min_size=1, max_size=4, unique=True))
    unlisted = [lam for lam in LISTABLE if lam not in listed]
    dense, blocks = [], []
    for _ in range(draw(st.integers(1, 3))):
        held = draw(st.lists(st.sampled_from(listed), max_size=3))
        extra = draw(st.lists(st.sampled_from(unlisted), min_size=0 if held else 1, max_size=1))
        segre = [(lam, draw(st.integers(1, 3))) for lam in held + extra]
        blocks += segre
        segre = SegreCharacteristic(segre)
        dense.append(build_matrix(segre, random_unimodular(segre.total_size, rng))[0])
    return permuted(rng, direct_sum(dense))[0], listed, SegreCharacteristic(blocks).canonical()


@settings(max_examples=40, deadline=None)
@given(listed_direct_sums())
def test_power_ranks_at_listed_eigenvalues_match_explicit_powers(case):
    """One call takes the ranks at every listed value, and each equals the
    explicit powers' (to one power past the largest Jordan block); the
    oracle finds the Segre characteristic when the list covers M and
    refuses it with the covered dimension count when it does not."""
    M, listed, segre = case
    n = M.rows
    for lam, ranks in zip(listed, power_ranks(M, listed)):
        assert list(islice(ranks, 4)) == explicit_power_ranks(M.minus_identity(lam), 4)
    covered = sum(size for lam, size in segre.blocks if lam in listed)
    if covered == n:
        assert oracle_segre(M, listed) == segre
    else:
        with pytest.raises(MissingEigenvalueError, match=f"supplied eigenvalues cover {covered} of {n} dimensions"):
            oracle_segre(M, listed)


def test_root_multiplicity_by_exact_deflation():
    """_multiplicity divides by x - r while the remainder is 0: no root,
    a simple root, a full root and a double one among others, over Z and
    over Z[i] (a real polynomial at a complex root, too)."""
    cube = [1, -6, 12, -8]  # (x - 2)^3
    mixed = [1, -3, 0, 4]  # (x - 2)^2 (x + 1)
    assert [_multiplicity(mixed, r, False) for r in (2, -1, 3, 0)] == [2, 1, 0, 0]
    assert _multiplicity(cube, 2, False) == 3 and _multiplicity([1], 2, False) == 0
    # (x - i)^2 (x - 1 - i) and x^2 + 1 = (x - i)(x + i)
    gauss = [(1, 0), (-1, -3), (-3, 2), (1, 1)]
    assert [_multiplicity(gauss, r, True) for r in ((0, 1), (1, 1), (1, -1))] == [2, 1, 0]
    assert _multiplicity([(1, 0), (0, 0), (1, 0)], (0, -1), True) == 1


def test_roots_with_a_denominator_and_listed_values_that_are_no_root(monkeypatch):
    """At mu = m / e the block of den (M - mu I) is Z - den mu I: a
    denominator of mu that divides den gives an integer root, as in
    J_2(1/3) + J_1(2/3) at 1/3, and one that does not, as 1/2 there or
    beside an integer M, is no eigenvalue and takes no elimination."""
    M = jordan_sum(((CR(Fraction(1, 3)), 2), (CR(Fraction(2, 3)), 1), (CR(0, 1), 1)))
    calls = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda *a, **k: calls.append(1) or eliminate(*a, **k))
    third, half, two_thirds, i = power_ranks(M, [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), CR(0, 1)])
    assert list(islice(third, 3)) == [3, 2, 2] and len(calls) == 1
    assert list(islice(half, 3)) == [4, 4, 4] and list(islice(two_thirds, 2)) == [3, 3]
    assert list(islice(i, 2)) == [3, 3] and len(calls) == 1
    (ranks,) = power_ranks(jordan_block(CR(2), 3), [Fraction(5, 2)])
    assert list(islice(ranks, 2)) == [3, 3] and len(calls) == 1


def test_charpoly_takes_each_block_on_its_own(monkeypatch):
    """The characteristic polynomial is the product of its diagonal
    blocks', each taken from 1, so a dense block, J_3(2) + J_2(5) in a
    ``random_unimodular`` basis, costs the same integer products before
    or after J_30(1), and the result, the same either way, has the values
    of det(M - t I)."""
    segre = SegreCharacteristic([(2, 3), (5, 2)])
    dense = build_matrix(segre, random_unimodular(5, random.Random(4)))[0]
    lead = jordan_block(ONE, 30)
    products, polys, counts = [], [], []
    times = linalg._times_integer
    monkeypatch.setattr(linalg, "_times_integer", lambda *a: products.append(1) or times(*a))
    for blocks in ([dense, lead], [lead, dense]):
        M = Matrix(35, 35, [x for row in direct_sum(blocks) for x in row])
        assert len(_diagonal_blocks(M)) == 2
        products.clear()
        polys.append(M.charpoly())
        counts.append(len(products))
    assert polys[0] == polys[1] and counts[0] == counts[1]
    assert charpoly_dets(M, [0, 3]) == [M.minus_identity(t).det() for t in (0, 3)]


def connected_dense_matrices():
    """Real and complex matrices of size 1 to 6 with no zero entry, each
    generic or of rank at most 2: one diagonal block each."""
    rng = random.Random(23)
    part = lambda: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    out = []
    for complex_ in (False, True):
        for n in range(1, 7):
            entries = lambda r, c: [
                CR(part(), part() if complex_ else 0) for _ in range(r * c)
            ]
            out.append(Matrix(n, n, entries(n, n)))
            out.append(Matrix(n, 2, entries(n, 2)) @ Matrix(2, n, entries(2, n)))
    return out


def test_connected_dense_matrices_are_one_block_with_unchanged_results():
    """A matrix with no zero entry is one diagonal block, and its charpoly
    and ranks of powers are those of the unsplit kernel, which the digest
    pins."""
    record = []
    for M in connected_dense_matrices():
        assert _diagonal_blocks(M) == [list(range(M.rows))]
        ranks = [power_rank_list(M, M.rows + 1, lam) for lam in EIGENVALUES]
        record.append([M.charpoly().texts(), *ranks])
    assert hashlib.sha256(json.dumps(record).encode()).hexdigest() == (
        "e8ce7f0a88bf0823b6077fd624f4c9b210f899e64acb6b5b95487873d5eb73c7"
    )


def ref_charpoly_ratio_check(A, A_hat, lambda0, lambda1, m):
    """The spectrum identity at the same points, one reference det each."""
    points = [t for t in range(A.rows + m + 3) if t != lambda0 and t != lambda1]
    return all(
        ref_det(A_hat.minus_identity(t)) * (lambda0 - t) ** m
        == ref_det(A.minus_identity(t)) * (lambda1 - t) ** m
        for t in points[: A.rows + m + 1]
    )


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("lambda1", [CR(-1, 2), CR(1)])
def test_charpoly_check_with_complex_eigenvalue(size, lambda1):
    lambda0 = CR(Fraction(1, 2), 1)
    segre = SegreCharacteristic([(lambda0, size), (CR(2), 1), (CR(1, -1), 1)])
    P = random_unimodular(segre.total_size, random.Random(size))
    A, chains = build_matrix(segre, P)
    shift = (shift_odd if size % 2 else shift_even)(A, chains[0], lambda1)
    args = (A, shift.A_hat, lambda0, lambda1, size)
    assert charpoly_ratio_check(*args)
    assert ref_charpoly_ratio_check(*args)
    # a diagonal bump changes the trace, so the spectrum moves for any
    # A_hat; an off-diagonal one may not (an upper-triangular A_hat keeps
    # its spectrum under a bump above the diagonal)
    bumped = list(shift.A_hat.entries)
    bumped[0] = bumped[0] + CR(0, Fraction(1, 3))
    perturbed = Matrix(A.rows, A.cols, bumped)
    args = (A, perturbed, lambda0, lambda1, size)
    assert not charpoly_ratio_check(*args)
    assert not ref_charpoly_ratio_check(*args)


# -- the stored form: invariant and the non-kernel operations -------------------


def assert_canonical(X):
    """X's integer form is canonical and equals X rebuilt from its entries."""
    assert type(X.den) is int and X.den > 0
    assert type(X.re) is tuple and (X.im is None or type(X.im) is tuple)
    parts = X.re + (X.im or ())
    assert all(type(x) is int for x in parts)
    assert gcd(X.den, *parts) == 1
    assert (X.im is None) == all(e.im == 0 for e in X.entries)
    if isinstance(X, Vector):  # a Vector is a Matrix too
        rebuilt = Vector(X.entries)
    else:
        rebuilt = Matrix(X.rows, X.cols, X.entries)
    assert X == rebuilt and hash(X) == hash(rebuilt)


def ref_matrix(rows, cols, entry):
    """The matrix whose (i, j) entry is the scalar entry(i, j)."""
    return Matrix(rows, cols, [entry(i, j) for i in range(rows) for j in range(cols)])


def form_results(A, B, S, v, w, lam, box, k):
    """(result, entrywise reference) for every operation on the stored
    form; A and B are r x c, S is r x r, v has c entries, w has r."""
    (r, c), (r0, r1, c0, c1) = A.shape, box
    vbar = Vector([conj(x) for x in v])
    pairs = [
        (A + B, ref_matrix(r, c, lambda i, j: A[i, j] + B[i, j])),
        (A - B, ref_matrix(r, c, lambda i, j: A[i, j] - B[i, j])),
        (-A, ref_matrix(r, c, lambda i, j: -A[i, j])),
        (A.scale(lam), ref_matrix(r, c, lambda i, j: lam * A[i, j])),
        (S.minus_identity(lam), ref_matrix(r, r, lambda i, j: S[i, j] - lam * (i == j))),
        (A.transpose(), ref_matrix(c, r, lambda i, j: A[j, i])),
        (A.H, ref_matrix(c, r, lambda i, j: conj(A[j, i]))),
        (
            A.submatrix(r0, r1, c0, c1),
            ref_matrix(r1 - r0, c1 - c0, lambda i, j: A[r0 + i, c0 + j]),
        ),
        (Matrix.from_columns([v, vbar]), ref_matrix(c, 2, lambda i, j: (v[i], vbar[i])[j])),
        (Matrix.from_columns([], dim=r), Matrix(r, 0, [])),
        (Matrix.zeros(r, c), ref_matrix(r, c, lambda i, j: ZERO)),
        (Matrix.identity(r), ref_matrix(r, r, lambda i, j: ONE if i == j else ZERO)),
        (Vector.zero(c), Vector([ZERO] * c)),
        (v + vbar, Vector([x + conj(x) for x in v])),
        (Matrix.from_columns([Vector([*w, *v, *w])]).submatrix(r, r + c, 0, 1).col(0), v),
        (v.scale(lam), Vector([lam * x for x in v])),
        (-v, Vector([-x for x in v])),
        (Matrix.from_columns([v]), ref_matrix(c, 1, lambda i, j: v[i])),
        (vstack(A, B), ref_matrix(2 * r, c, lambda i, j: (A if i < r else B)[i % r, j])),
        (
            jordan_block(lam, k),
            ref_matrix(k, k, lambda i, j: lam if i == j else ONE if j == i + 1 else ZERO),
        ),
        (Matrix.from_columns([v]) @ Matrix.from_columns([w]).H, ref_matrix(c, r, lambda i, j: v[i] * conj(w[j]))),
        (outer_plain(v, w), ref_matrix(c, r, lambda i, j: v[i] * w[j])),
        (A @ v, ref_matmul(A, Matrix.from_columns([v])).col(0)),
        (A @ A.H, ref_matmul(A, A.H)),
    ]
    if r or c:
        pairs.append((hstack(A, B), ref_matrix(r, 2 * c, lambda i, j: (A if j < c else B)[i, j % c])))
    pairs += [(A.row(i), Vector([A[i, j] for j in range(c)])) for i in range(r)]
    pairs += [(A.col(j), Vector([A[i, j] for i in range(r)])) for j in range(c)]
    pairs += [(Vector.unit(c, j), Vector([ONE * (t == j) for t in range(c)])) for j in range(c)]
    return pairs


def kernel_results(A, S):
    """Matrices and vectors that solve, inverse and null space return."""
    out = list(A.null_space_basis())
    try:
        out += [S.inverse(), S.solve(S.H), S.solve(S.col(0)) if S.rows else S]
    except SingularMatrixError:
        pass
    return out


def random_operands(rng, prob_a, prob_b):
    r, c = rng.randint(0, 4), rng.randint(0, 4)
    A, S = random_matrix(rng, r, c, prob_a), random_matrix(rng, r, r, prob_a)
    B = random_matrix(rng, r, c, prob_b)
    v = random_matrix(rng, c, 1, prob_b).col(0) if c else Vector([])
    w = random_matrix(rng, r, 1, prob_a).col(0) if r else Vector([])
    r0, c0 = rng.randint(0, r), rng.randint(0, c)
    box = (r0, rng.randint(r0, r), c0, rng.randint(c0, c))
    return A, B, S, v, w, random_scalar(rng, prob_b), box, rng.randint(1, 3)


@pytest.mark.parametrize("prob_a,prob_b", [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.5, 0.5)])
def test_form_operations_match_entrywise_reference(prob_a, prob_b):
    rng = random.Random(int(10 * prob_a) * 7 + int(10 * prob_b))
    for _ in range(12):
        operands = random_operands(rng, prob_a, prob_b)
        for result, expected in form_results(*operands):
            assert result == expected
            assert_canonical(result)


@st.composite
def sized_matrices(draw, rows, cols):
    part = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    im = st.just(Fraction(0)) if draw(st.booleans()) else part
    entries = draw(st.lists(st.tuples(part, im), min_size=rows * cols, max_size=rows * cols))
    return Matrix(rows, cols, [CR(re, im) for re, im in entries])


@st.composite
def form_operands(draw):
    """Operands for form_results over real, complex and mixed matrices,
    empty ones (0 x n and n x 0) included."""
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    A, B, S = draw(sized_matrices(r, c)), draw(sized_matrices(r, c)), draw(sized_matrices(r, r))
    v, w = (Vector(draw(sized_matrices(n, 1)).entries) for n in (c, r))
    part = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    lam = CR(draw(part), draw(st.sampled_from([Fraction(0), draw(part)])))
    r0, c0 = draw(st.integers(0, r)), draw(st.integers(0, c))
    box = (r0, draw(st.integers(r0, r)), c0, draw(st.integers(c0, c)))
    return A, B, S, v, w, lam, box, draw(st.integers(1, 3))


@settings(max_examples=80, deadline=None)
@given(form_operands())
def test_every_result_keeps_the_canonical_form(operands):
    A, _, S = operands[:3]
    for result, expected in form_results(*operands):
        assert_canonical(result)
        assert result == expected and hash(result) == hash(expected)
    for result in kernel_results(A, S):
        assert_canonical(result)


def test_matrices_and_vectors_are_immutable():
    A = Matrix.from_rows([[CR(1, 2), CR(Fraction(1, 3))]])
    v = A.row(0)
    for value, names in ((A, ("rows", "cols", "den", "re", "im", "entries", "other")),
                         (v, ("den", "re", "im", "entries", "other"))):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
    assert A.shape == (1, 2) and A.entries == (CR(1, 2), CR(Fraction(1, 3)))


def test_values_from_different_routes_are_equal_and_hash_alike():
    rng = random.Random(23)
    for prob in (0.0, 0.5, 1.0):
        A = random_matrix(rng, 3, 4, prob)
        B = random_matrix(rng, 3, 4, 1.0 - prob)
        v = A.row(1)
        routes = [
            (A @ Matrix.identity(4), A),
            ((A + B) - B, A),
            (A.H.H, A),
            (A.transpose().transpose(), A),
            (A.scale(CR(0, 2)).scale(CR(0, Fraction(-1, 2))), A),
            (Matrix.from_columns(A.columns()), A),
            (vstack(A.submatrix(0, 1, 0, 4), A.submatrix(1, 3, 0, 4)), A),
            (hstack(A.submatrix(0, 3, 0, 2), A.submatrix(0, 3, 2, 4)), A),
            (A - A, Matrix.zeros(3, 4)),
            (Matrix.from_columns(A.transpose().columns()), A.transpose()),
            (A.transpose().col(1), v),
            (v + B.row(0) - B.row(0), v),
        ]
        for got, want in routes:
            assert got == want and hash(got) == hash(want)
        S = random_matrix(rng, 3, 3, prob)
        assert S.inverse() @ S == Matrix.identity(3)


def test_a_matrix_never_equals_a_vector():
    x = CR(Fraction(1, 2), 1)
    pairs = [
        (Matrix(1, 1, [x]), Vector([x])),
        (Matrix(0, 0, []), Vector([])),
        (Matrix.from_columns([Vector([x, ONE])]), Vector([x, ONE])),
        (Matrix.zeros(2, 1), Vector.zero(2)),
    ]
    for M, v in pairs:
        assert M != v and v != M
        assert not M == v and not v == M


# -- lazy Bareiss scaling against eager elimination ----------------------------


def exact_quotient(x, d):
    q, rem = divmod(x, d)
    if rem:
        raise ArithmeticError("inexact Bareiss division")
    return q


def eager_bareiss(rows, ncols, gaussian, reduced):
    """Plain Bareiss elimination that updates every row at every pivot,
    each division checked exact; returns (rows, pivot columns, sign)."""
    if gaussian:
        zero, one = (0, 0), (1, 0)

        def times(a, b):
            return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

        def minus(a, b):
            return (a[0] - b[0], a[1] - b[1])

        def over(a, q):
            nq = q[0] * q[0] + q[1] * q[1]
            re, im = a[0] * q[0] + a[1] * q[1], a[1] * q[0] - a[0] * q[1]
            return exact_quotient(re, nq), exact_quotient(im, nq)

    else:
        zero, one = 0, 1
        times, minus, over = operator.mul, operator.sub, exact_quotient

    rows = [list(row) for row in rows]
    n, piv_cols, sign, prev, r = len(rows), [], 1, one, 0
    for c in range(ncols):
        pr = next((i for i in range(r, n) if rows[i][c] != zero), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        for i in range(n):
            if i == r or (i < r and not reduced):
                continue
            f = rows[i][c]
            rows[i] = [over(minus(times(p, x), times(f, y)), prev) for x, y in zip(rows[i], top)]
        prev = p
        piv_cols.append(c)
        r += 1
    return rows, piv_cols, sign


@st.composite
def integer_rows(draw):
    """Integer or Gaussian rows with many zero entries and zero columns,
    some of them rank-deficient, and the number of columns to pivot in."""
    gaussian = draw(st.booleans())
    n, width = draw(st.integers(0, 7)), draw(st.integers(0, 8))
    ncols = draw(st.integers(0, width))
    zero_cols = draw(st.sets(st.integers(0, max(width - 1, 0)), max_size=width))
    small = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3, 5))
    entry, zero = (st.tuples(small, small), (0, 0)) if gaussian else (small, 0)
    rows = [
        [zero if j in zero_cols else draw(entry) for j in range(width)]
        for _ in range(n)
    ]
    if n > 2 and draw(st.booleans()):  # a repeated row
        rows[-1] = list(rows[0])
    return rows, ncols, gaussian, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(integer_rows())
def test_lazy_elimination_matches_eager_bareiss(case):
    rows, ncols, gaussian, reduced = case
    want_rows, want_pivots, want_sign = eager_bareiss(rows, ncols, gaussian, reduced)
    got_rows = [list(row) for row in rows]
    got = _eliminate(got_rows, ncols, gaussian, reduced)
    assert got == (want_pivots, want_sign)
    assert got_rows == want_rows


# -- the diagonal blocks of C A^-1 B against a solve and a product ------------


def assert_schur_matches_solve(C, A, B, sizes=None):
    """schur_blocks(C, A, B, sizes) holds the diagonal blocks of
    C @ A.solve(B), the whole product when sizes is None, or raises as
    the solve does, with the same rank."""
    sizes = [(C.rows, B.cols)] if sizes is None else sizes
    try:
        want = C @ A.solve(B)
    except SingularMatrixError as err:
        with pytest.raises(SingularMatrixError, match=r"^matrix is singular \(rank \d+\)$") as got:
            schur_blocks(C, A, B, sizes)
        assert got.value.rank == err.rank
        return
    starts = zip(accumulate([0] + [r for r, _ in sizes]), accumulate([0] + [m for _, m in sizes]))
    assert schur_blocks(C, A, B, sizes) == [
        want.submatrix(r0, r0 + r, m0, m0 + m) for (r, m), (r0, m0) in zip(sizes, starts)
    ]


@pytest.mark.parametrize(
    "probs",
    [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.5, 0.5, 0.5), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)],
)
@pytest.mark.parametrize(
    "n,r,m",
    [(1, 1, 1), (4, 2, 3), (6, 5, 5), (5, 0, 3), (5, 3, 0), (4, 0, 0), (0, 2, 3), (0, 0, 0)],
)
def test_schur_product_matches_solve_then_product(n, r, m, probs):
    """The whole product as one block: real, Gaussian and mixed
    operands, B or C empty, and singular A (a product through rank
    n - 1, and the zero matrix)."""
    prob_c, prob_a, prob_b = probs
    rng = random.Random(f"{n}:{r}:{m}:{probs}")
    ranks = [None, None, n - 1, 0] if n else [None]
    for rank in ranks:
        A = random_matrix(rng, n, n, prob_a, rank=rank)
        B = random_matrix(rng, n, m, prob_b)
        C = random_matrix(rng, r, n, prob_c)
        assert_schur_matches_solve(C, A, B)


def random_split(rng, total, parts):
    """total as a sum of parts nonnegative terms, zeros included."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


@pytest.mark.parametrize(
    "probs", [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.5, 0.5, 0.5), (1.0, 0.0, 0.0), (0.0, 1.0, 1.0)]
)
def test_schur_blocks_match_blocks_of_solve_then_product(probs):
    """Random splits into 1 to 5 diagonal blocks, empty blocks and r = 0
    or m = 0 included, over real, Gaussian and mixed operands.  Some of
    C's rows are rows of A, which the pass zeroes at the first step, so
    their last update comes long before the last pivot."""
    prob_c, prob_a, prob_b = probs
    rng = random.Random(f"blocks:{probs}")
    for n, r, m in [(1, 1, 1), (3, 4, 2), (5, 5, 5), (6, 7, 4), (4, 0, 3), (4, 3, 0), (0, 2, 2)]:
        for rank in [None, None, None, n - 1] if n else [None]:
            A = random_matrix(rng, n, n, prob_a, rank=rank)
            B = random_matrix(rng, n, m, prob_b)
            rows = [
                A.row_list()[rng.randrange(n)]
                if n and rng.random() < 0.4
                else random_matrix(rng, 1, n, prob_c).row_list()[0]
                for _ in range(r)
            ]
            C = Matrix.from_rows(rows) if r else Matrix.zeros(0, n)
            for parts in (1, 2, 3, 5):
                sizes = list(zip(random_split(rng, r, parts), random_split(rng, m, parts)))
                assert_schur_matches_solve(C, A, B, sizes)


def test_schur_product_refuses_bad_shapes():
    A, B, C = Matrix.identity(3), Matrix.zeros(3, 2), Matrix.zeros(2, 3)
    with pytest.raises(ShapeError, match="^schur_blocks requires a square matrix$"):
        schur_blocks(C, Matrix.zeros(3, 2), Matrix.zeros(3, 1), [(2, 1)])
    for c, b in ((C, Matrix.zeros(2, 2)), (Matrix.zeros(2, 2), B)):
        with pytest.raises(ShapeError, match=r"^cannot border \(3, 3\) with"):
            schur_blocks(c, A, b, [(c.rows, b.cols)])
    # sizes that do not split C's 2 rows and B's 2 columns
    wrong = r"^cannot border \(3, 3\) with \(2, 3\) and \(3, 2\) in blocks"
    for sizes in ([], [(1, 2)], [(2, 1)], [(2, 2), (0, 1)], [(1, 1), (1, 2)], [(3, 2), (-1, 0)]):
        with pytest.raises(ShapeError, match=wrong):
            schur_blocks(C, A, B, sizes)


@st.composite
def bordered_operands(draw):
    """(C, A, B): real, complex or mixed, empty B or C included, and A
    often singular through a repeated or a zero row."""
    n, r, m = draw(st.integers(0, 5)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    A = draw(sized_matrices(n, n))
    if n > 1 and draw(st.booleans()):
        rows = A.row_list()
        rows[-1] = rows[0] if draw(st.booleans()) else [ZERO] * n
        A = Matrix.from_rows(rows)
    return draw(sized_matrices(r, n)), A, draw(sized_matrices(n, m))


@settings(max_examples=80, deadline=None)
@given(bordered_operands())
def test_schur_product_property(operands):
    assert_schur_matches_solve(*operands)


@settings(max_examples=80, deadline=None)
@given(bordered_operands(), st.randoms(use_true_random=False), st.integers(1, 4))
def test_schur_blocks_property(operands, rng, parts):
    C, A, B = operands
    sizes = list(zip(random_split(rng, C.rows, parts), random_split(rng, B.cols, parts)))
    assert_schur_matches_solve(C, A, B, sizes)
