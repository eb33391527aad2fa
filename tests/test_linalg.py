"""Exact dense linear algebra: rank, determinant, solve, null space."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenshift.errors import BackendError, ShapeError, SingularMatrixError
from eigenshift.linalg import (
    Matrix,
    Vector,
    _adjoint_of_columns,
    hstack,
    inner,
    jordan_block,
    outer_plain,
    vstack,
)
from eigenshift.scalars import CR, I, ONE, ZERO
from eigenshift.shifting import shift_even
from eigenshift.synthesis import (
    SegreCharacteristic,
    build_matrix,
    random_unimodular,
)


def M(rows):
    return Matrix.from_rows([[CR(e) for e in r] for r in rows])


def test_vector_ops():
    u = Vector([CR(1), CR(2)])
    v = Vector([CR(3), CR(-1)])
    assert u + v == Vector([CR(4), CR(1)])
    assert u - v == Vector([CR(-2), CR(3)])
    assert u.scale(CR(2)) == Vector([CR(2), CR(4)])
    assert Vector.unit(3, 1) == Vector([ZERO, ONE, ZERO])
    assert Vector.zero(2).is_zero


def test_inner_is_conjugate_linear_in_first_argument():
    u = Vector([I])
    v = Vector([ONE])
    # inner(u, v) = conj(u)^T v
    assert inner(u, v) == -I
    assert inner(v, u) == I


def test_outer_products():
    u = Vector([CR(1), CR(2)])
    v = Vector([I, CR(3)])
    assert outer_plain(u, v)[0, 0] == I


def test_matmul_and_identity():
    A = M([[1, 2], [3, 4]])
    assert A @ Matrix.identity(2) == A
    assert A @ Vector([ONE, ZERO]) == Vector([CR(1), CR(3)])
    with pytest.raises(ShapeError):
        _ = A @ Matrix.identity(3)


def test_det_rank_inverse_known():
    A = M([[2, 1], [1, 1]])
    assert A.det() == ONE
    assert A.exact_rank() == 2
    assert A.inverse() == M([[1, -1], [-1, 2]])
    S = M([[1, 2], [2, 4]])
    assert S.det() == ZERO
    assert S.exact_rank() == 1
    with pytest.raises(SingularMatrixError) as err:
        S.inverse()
    assert err.value.rank == 1


def test_complex_determinant():
    A = Matrix.from_rows([[I, ONE], [ONE, I]])
    assert A.det() == CR(-2)


def test_solve_vector_and_matrix_rhs():
    A = M([[2, 0], [1, 3]])
    b = Vector([CR(4), CR(5)])
    x = A.solve(b)
    assert A @ x == b
    B = M([[1, 0], [0, 1]])
    X = A.solve(B)
    assert A @ X == B


def test_null_space_basis():
    A = M([[1, 2, 3], [2, 4, 6]])
    basis = A.null_space_basis()
    assert len(basis) == 2
    for v in basis:
        assert (A @ v).is_zero
    assert Matrix.from_columns(basis).exact_rank() == 2


def test_jordan_block_shape():
    J = jordan_block(CR(5), 3)
    assert J[0, 0] == CR(5) and J[0, 1] == ONE and J[1, 0] == ZERO
    assert J[2, 2] == CR(5)


def test_stacking_helpers():
    A = Matrix.identity(2)
    B = Matrix.zeros(2, 1)
    assert hstack(A, B).shape == (2, 3)
    assert vstack(A, A).shape == (4, 2)


def test_submatrix():
    A = M([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert A.submatrix(0, 2, 1, 3) == M([[2, 3], [5, 6]])
    assert A.submatrix(1, 1, 0, 3).rows == 0


def test_row_and_col_refuse_indices_out_of_range():
    A = M([[1, 2, 3], [4, 5, 6]])
    reads = [(A.row, -1), (A.row, 2), (A.col, -1), (A.col, 3)]
    for read, index in reads + [(Matrix.zeros(0, 2).row, 0), (Matrix.zeros(2, 0).col, 0)]:
        with pytest.raises(ShapeError):
            read(index)


def test_submatrix_refuses_ranges_out_of_range():
    """Each range must lie in the matrix with its start at most its end,
    also when the other range is empty."""
    A = Matrix.identity(2)
    for bounds in [(5, 7, 0, 0), (0, 0, 3, 4), (-1, 1, 0, 2), (0, 2, 0, 3), (2, 1, 0, 2), (0, 2, 1, 0)]:
        with pytest.raises(ShapeError):
            A.submatrix(*bounds)
    assert A.submatrix(2, 2, 0, 0).shape == (0, 0)
    assert A.submatrix(0, 2, 2, 2).shape == (2, 0)


def test_vector_index_out_of_range_raises_shape_error():
    """As Matrix.row and Matrix.col do: no negative index wraps."""
    v = Vector([CR(1), CR(2), CR(3)])
    assert [v[i] for i in range(3)] == [CR(1), CR(2), CR(3)]
    for i in (-1, -3, 3, 7):
        with pytest.raises(ShapeError):
            v[i]
    with pytest.raises(ShapeError):
        Vector([])[0]


def test_float_entries_refused_for_exact_ops():
    """A float or complex value is refused when the object is built."""
    with pytest.raises(BackendError):
        Matrix.from_rows([[1.5, 0.0], [0.0, 1.0]])
    with pytest.raises(BackendError):
        Vector([ONE, 1j])
    with pytest.raises(BackendError):
        Matrix.identity(2).scale(0.5)
    with pytest.raises(BackendError):
        Matrix.identity(2).minus_identity(0.5)
    # ... and so is one that reaches a scalar or a public entry point
    with pytest.raises(BackendError):
        CR(0.1)
    with pytest.raises(BackendError):
        CR(1, 0.5)
    segre = SegreCharacteristic([(1, 2)])
    A, chains = build_matrix(segre, Matrix.identity(2))
    with pytest.raises(BackendError):
        shift_even(A, chains[0], 2.5)
    with pytest.raises(BackendError):
        SegreCharacteristic([(0.5, 2)])
    # a bool is refused too, not taken as 0 or 1
    with pytest.raises(TypeError, match="cannot use True as an exact scalar"):
        Matrix.from_rows([[True, False]])
    with pytest.raises(TypeError, match="cannot use True as an exact scalar"):
        Vector([True])
    # so is a rational text with a zero denominator
    zero_den = "^cannot use '1/0' as an exact scalar$"
    with pytest.raises(TypeError, match=zero_den):
        Matrix(1, 2, [1, "1/0"])
    with pytest.raises(TypeError, match=zero_den):
        Vector(["1/0"])
    with pytest.raises(TypeError, match=zero_den):
        SegreCharacteristic([("1/0", 2)])
    with pytest.raises(TypeError, match=zero_den):
        shift_even(A, chains[0], "1/0")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers())
def test_unimodular_inverse_round_trip(n, seed):
    rng = random.Random(seed)
    U = random_unimodular(n, rng)
    d = U.det()
    assert d == ONE or d == -ONE
    assert U @ U.inverse() == Matrix.identity(n)
    assert U.inverse() @ U == Matrix.identity(n)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers())
def test_rank_of_product_bounded(n, seed):
    rng = random.Random(seed)
    A = Matrix.from_rows(
        [[CR(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    )
    B = Matrix.from_rows(
        [[CR(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    )
    assert (A @ B).exact_rank() <= min(A.exact_rank(), B.exact_rank())


def test_conj_transpose():
    A = Matrix.from_rows([[I, CR(2)], [ZERO, -I]])
    assert A.H == Matrix.from_rows([[-I, ZERO], [CR(2), I]])
    assert (A.H).H == A


_A2, _A23, _v2, _v3 = Matrix.identity(2), Matrix.zeros(2, 3), Vector([1, 2]), Vector([1, 2, 3])


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: Vector.unit(3, 3), "unit index 3 out of range for dim 3"),
        (lambda: inner(_v2, _v3), "inner product of different dimensions"),
        (lambda: Matrix(2, 2, [1, 2, 3]), "2x2 matrix needs 4 entries, got 3"),
        (lambda: Matrix.from_columns([]), "cannot infer dimension of empty column set"),
        (lambda: _A2[2, 0], "index (2, 0) out of range for (2, 2)"),
        (lambda: _A2 + _A23, "cannot add (2, 2) and (2, 3)"),
        (lambda: _A2 - _A23, "cannot subtract (2, 3) from (2, 2)"),
        (lambda: _v3 + _v2, "cannot add (3, 1) and (2, 1)"),
        (lambda: _v3 - _v2, "cannot subtract (2, 1) from (3, 1)"),
        (lambda: _A23.solve(_v2), "solve requires a square matrix"),
        (lambda: _A2.solve(_v3), "right-hand side has wrong number of rows"),
        (lambda: _A2.solve(_A23.H), "right-hand side has wrong number of rows"),
        (lambda: Matrix.from_rows([[1, 2], [3]]), "ragged rows"),
        (lambda: jordan_block(ONE, 0), "Jordan block size must be >= 1, got 0"),
        (lambda: hstack(), "hstack of nothing"),
        (lambda: hstack(_A2, _v3), "hstack with differing row counts"),
        (lambda: vstack(_A2, _A23), "vstack with differing column counts"),
    ],
)
def test_shape_guards_raise_their_texts(call, text):
    """Each shape guard of the stored form raises ShapeError with its own
    text; a Vector's sum and difference are guarded as a one-column
    Matrix's are."""
    with pytest.raises(ShapeError) as info:
        call()
    assert str(info.value) == text


def test_reprs():
    """A Vector prints as its entries, a Matrix as its shape and rows."""
    half_i = CR(Fraction(1, 2), 1)
    assert repr(Vector([half_i, 3, CR(0, -2)])) == "Vector([1/2+1i, 3, -2i])"
    assert repr(Vector([])) == "Vector([])"
    assert repr(Matrix.from_rows([[1, CR(Fraction(-1, 3))], [I, 0]])) == "Matrix(2x2: [1, -1/3; 1i, 0])"
    assert repr(Matrix.zeros(0, 2)) == "Matrix(0x2: [])"


_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_ENTRIES = {
    "real": st.integers(-9, 9).map(CR),
    "rational": _fractions.map(CR),
    "gaussian": st.tuples(_fractions, _fractions).map(lambda parts: CR(*parts)),
}


def _shape_error(build, *args):
    with pytest.raises(ShapeError) as info:
        build(*args)
    return str(info.value)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_ENTRIES)), st.integers(0, 4), st.integers(0, 4), st.data())
def test_adjoint_of_columns_is_the_adjoint_of_the_stacked_columns(kind, n, p, data):
    """U* of a list of columns, read from their conjugated numerators in
    one step, is the adjoint of the matrix they stack into, for an empty
    list too, and it refuses misfit columns with the same texts."""
    entries = st.lists(_ENTRIES[kind], min_size=n, max_size=n)
    columns = [Vector(data.draw(entries)) for _ in range(p)]
    U_H = _adjoint_of_columns(columns, n)
    assert U_H == Matrix.from_columns(columns, n).H and U_H.shape == (p, n)
    misfits = [([], None)]
    if columns:
        assert _adjoint_of_columns(columns) == U_H
        misfits += [(columns + [Vector([1] * (n + 1))], None), (columns, n + 1)]
    for misfit in misfits:
        assert _shape_error(_adjoint_of_columns, *misfit) == _shape_error(Matrix.from_columns, *misfit)
