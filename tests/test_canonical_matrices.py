"""The one-pass matrix builders against block-stacking references, and
integer entries against their scalar counterparts."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenshift.canonical import ConcentratedForm, EvenCanonical, OddCanonical
from eigenshift.errors import BackendError
from eigenshift.linalg import Matrix, Vector, hstack, jordan_block, vstack
from eigenshift.scalars import CR, ZERO
from eigenshift.synthesis import SegreCharacteristic, jordan_matrix

# -- references: the matrices stacked from Jordan blocks and zero blocks


def _ref_jordan_block(lam, k):
    """lam I_k plus the ones above the diagonal, added entrywise."""
    ones = [[int(j == i + 1) for j in range(k)] for i in range(k)]
    return Matrix.identity(k).scale(lam) + Matrix.from_rows(ones)


def _ref_jordan_matrix(blocks):
    n, c0, bands = sum(size for _, size in blocks), 0, []
    for lam, size in blocks:
        parts = [Matrix.zeros(size, c0), _ref_jordan_block(lam, size)]
        parts.append(Matrix.zeros(size, n - c0 - size))
        bands.append(hstack(*parts))
        c0 += size
    return vstack(*bands)


def _ref_even(k, lam, C):
    J = _ref_jordan_block(lam, k)
    return vstack(hstack(J, C), hstack(Matrix.zeros(k, k), J))


def _ref_odd(k, lam, a, b, C):
    J = _ref_jordan_block(lam, k)
    top = hstack(J, a.as_column(), C)
    mid = hstack(Matrix.zeros(1, k), Matrix(1, 1, [lam]), b.as_column().transpose())
    bot = hstack(Matrix.zeros(k, k), Matrix.zeros(k, 1), J)
    return vstack(top, mid, bot)


def _ref_concentrated(k, lam, a_k, b_1, last_row):
    a = Vector([ZERO] * (k - 1) + [a_k])
    b = Vector([b_1] + [ZERO] * (k - 1))
    C = vstack(Matrix.zeros(k - 1, k), last_row.as_column().transpose())
    return _ref_odd(k, lam, a, b, C)


# -- strategies: real and Gaussian rationals

_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
_scalars = st.one_of(
    st.builds(CR, _rationals),
    st.builds(CR, _rationals, _rationals),
)


def _vectors(k):
    return st.lists(_scalars, min_size=k, max_size=k).map(Vector)


def _matrices(k):
    return st.lists(_scalars, min_size=k * k, max_size=k * k).map(
        lambda xs: Matrix(k, k, xs)
    )


def _assert_same(got, want):
    """Equal values with equal hashes and the same canonical form."""
    assert got == want
    assert hash(got) == hash(want)
    assert (got.rows, got.cols, got.den, got.re, got.im) == (
        want.rows,
        want.cols,
        want.den,
        want.re,
        want.im,
    )
    assert got.den > 0 and gcd(got.den, *got.re, *(got.im or ())) == 1
    assert got.im is None or any(got.im)
    assert type(got.re) is tuple and (got.im is None or type(got.im) is tuple)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_scalars, st.integers(1, 5)), min_size=1, max_size=4))
def test_jordan_matrix_equals_the_stacked_blocks(blocks):
    _assert_same(jordan_matrix(SegreCharacteristic(blocks)), _ref_jordan_matrix(blocks))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: st.tuples(st.just(k), _scalars, _matrices(k))))
def test_even_canonical_matrix_equals_the_stacked_blocks(args):
    k, lam, C = args
    _assert_same(EvenCanonical(k, lam, C).matrix(), _ref_even(k, lam, C))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda k: st.tuples(st.just(k), _scalars, _vectors(k), _vectors(k), _matrices(k))
    )
)
def test_odd_canonical_matrix_equals_the_stacked_blocks(args):
    k, lam, a, b, C = args
    _assert_same(OddCanonical(k, lam, a, b, C).matrix(), _ref_odd(k, lam, a, b, C))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda k: st.tuples(st.just(k), _scalars, _scalars, _scalars, _vectors(k))
    )
)
def test_concentrated_form_matrix_equals_the_stacked_blocks(args):
    k, lam, a_k, b_1, row = args
    cf = ConcentratedForm(k, lam, a_k, b_1, row, Matrix.identity(2 * k + 1))
    _assert_same(cf.matrix(), _ref_concentrated(k, lam, a_k, b_1, row))


@settings(max_examples=40, deadline=None)
@given(_scalars, st.integers(1, 6))
def test_jordan_block_equals_the_reference(lam, k):
    _assert_same(jordan_block(lam, k), _ref_jordan_block(lam, k))


def test_odd_canonical_of_size_one_is_lambda():
    oc = OddCanonical(0, CR(2, -1), Vector([]), Vector([]), Matrix(0, 0, []))
    _assert_same(oc.matrix(), Matrix(1, 1, [CR(2, -1)]))


# -- integer entries


_ints = st.integers(-(10**30), 10**30)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_integer_entries_equal_their_scalars(rows, cols, data):
    xs = data.draw(st.lists(_ints, min_size=rows * cols, max_size=rows * cols))
    _assert_same(Matrix(rows, cols, xs), Matrix(rows, cols, [CR(x) for x in xs]))
    grid = [xs[i * cols : (i + 1) * cols] for i in range(rows)] if cols else []
    if rows and cols:
        scalar_grid = [[CR(x) for x in row] for row in grid]
        _assert_same(Matrix.from_rows(grid), Matrix.from_rows(scalar_grid))
    v, w = Vector(xs), Vector([CR(x) for x in xs])
    assert v == w and hash(v) == hash(w)
    assert (v.den, v.re, v.im) == (w.den, w.re, w.im)
    # an int next to a scalar is read the same way
    mixed = [CR(x, 1) if t % 2 else x for t, x in enumerate(xs)]
    assert Vector(mixed) == Vector([CR(x) if type(x) is int else x for x in mixed])


@pytest.mark.parametrize(
    "entry, error, message",
    [
        (True, TypeError, "cannot use True as an exact scalar"),
        (False, TypeError, "cannot use False as an exact scalar"),
        (
            1.5,
            BackendError,
            "(1.5, 0) is not exact; scalar parts must be int, Fraction or a "
            "rational string",
        ),
        (
            2j,
            BackendError,
            "(2j, 0) is not exact; scalar parts must be int, Fraction or a "
            "rational string",
        ),
        ("abc", TypeError, "cannot use 'abc' as an exact scalar"),
        ("1/0", TypeError, "cannot use '1/0' as an exact scalar"),
    ],
)
def test_inexact_entries_are_refused_as_before(entry, error, message):
    for build in (
        lambda: Matrix(1, 2, [1, entry]),
        lambda: Matrix.from_rows([[3, entry]]),
        lambda: Vector([-4, entry]),
        lambda: Vector([entry]),
    ):
        with pytest.raises(error) as exc:
            build()
        assert str(exc.value) == message


def test_rational_entries_still_read():
    assert Vector(["1/2", 3, Fraction(1, 3)]) == Vector(
        [CR(Fraction(1, 2)), CR(3), CR(Fraction(1, 3))]
    )
