"""Differential tests: the fraction-free kernel against plain elimination.

The reference below is elimination over ComplexRational with exact
division and first-nonzero pivoting, written out directly; it is what
``linalg`` ran before its integer kernel.  Every kernel result must
equal the reference value exactly, on real and complex-rational
matrices of every shape, including rank-deficient, empty and all-zero
ones.  The determinants at integer points and the ranks of powers,
which clear a matrix to integers once, are checked the same way against
one reference determinant per point and one rank per explicit power.
"""

import random
from fractions import Fraction
from itertools import accumulate, islice, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenshift.errors import ShapeError, SingularMatrixError
from eigenshift.linalg import Matrix, Vector, inner, jordan_block, power_ranks
from eigenshift.scalars import CR, ONE, ZERO, conj
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
    assert A @ v == ref_matmul(A, v.as_column()).col(0)
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


def test_mixed_real_and_complex_products():
    rng = random.Random(7)
    R = random_matrix(rng, 3, 4)
    C = random_matrix(rng, 4, 3, complex_prob=1.0)
    assert R @ C == ref_matmul(R, C)
    assert C @ R == ref_matmul(C, R)


def test_minus_identity_equals_subtracting_scaled_identity():
    rng = random.Random(3)
    for lam in (CR(0), CR(2, -1), CR(Fraction(-3, 7))):
        A = random_matrix(rng, 4, 4, complex_prob=0.5)
        assert A.minus_identity(lam) == A - Matrix.identity(4).scale(lam)


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


# -- determinants at integer points and ranks of powers -------------------------


def power_rank_list(M, count):
    return list(islice(power_ranks(M), count))


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


@pytest.mark.parametrize("complex_prob", [0.0, 0.5])
def test_dets_at_points_match_shifted_dets(complex_prob):
    for M in special_square_matrices(complex_prob):
        expected = [ref_det(M.minus_identity(t)) for t in POINTS]
        assert M.dets_minus_identity(POINTS) == expected
        assert [M.minus_identity(t).det() for t in POINTS] == expected
        assert M.det() == expected[0]
    assert Matrix.identity(2).dets_minus_identity([]) == []


@pytest.mark.parametrize("complex_prob", [0.0, 0.5, 1.0])
def test_power_ranks_match_explicit_powers(complex_prob):
    for M in special_square_matrices(complex_prob):
        count = M.rows + 2
        assert power_rank_list(M, count) == explicit_power_ranks(M, count)
        for lam in (ZERO, ONE, CR(0, 1)):
            N = M.minus_identity(lam)
            assert power_rank_list(N, count) == explicit_power_ranks(N, count)


def test_points_and_powers_refuse_bad_input():
    wide = Matrix.zeros(2, 3)
    with pytest.raises(ShapeError):
        wide.dets_minus_identity([0])
    with pytest.raises(ShapeError):
        next(power_ranks(wide))
    with pytest.raises(TypeError):
        Matrix.identity(2).dets_minus_identity([Fraction(1, 2)])


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
    assert M.dets_minus_identity(points) == [
        ref_det(M.minus_identity(t)) for t in points
    ]
    count = M.rows + 1
    assert power_rank_list(M, count) == [
        ref_rank(P) for P in islice(accumulate(repeat(M), ref_matmul), count)
    ]


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
    bumped = list(shift.A_hat.entries)
    bumped[1] = bumped[1] + CR(0, Fraction(1, 3))
    perturbed = Matrix(A.rows, A.cols, bumped)
    args = (A, perturbed, lambda0, lambda1, size)
    assert not charpoly_ratio_check(*args)
    assert not ref_charpoly_ratio_check(*args)
