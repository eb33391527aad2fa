"""Exact complex-rational scalar arithmetic and string round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenshift.scalars import (
    CR,
    I,
    ONE,
    ZERO,
    ComplexRational,
    format_scalar,
    parse_scalar,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
scalars = st.builds(CR, rationals, rationals)


def test_basic_arithmetic():
    a = CR(Fraction(1, 2), 3)
    b = CR(2, Fraction(-1, 3))
    assert a + b == CR(Fraction(5, 2), Fraction(8, 3))
    assert a - b == CR(Fraction(-3, 2), Fraction(10, 3))
    assert a * b == CR(2, Fraction(35, 6))
    assert -a == CR(Fraction(-1, 2), -3)


def test_division_and_inverse():
    a = CR(3, 4)
    assert a / a == ONE
    assert (ONE / a) * a == ONE
    with pytest.raises(ZeroDivisionError):
        _ = ONE / ZERO


def test_powers():
    assert I**2 == CR(-1)
    assert CR(2) ** 5 == CR(32)
    assert CR(7) ** 0 == ONE


@pytest.mark.parametrize("base", [CR(Fraction(2, 3), -1), I, CR(0, Fraction(-5, 2))])
def test_complex_powers_equal_repeated_products(base):
    product = ONE
    for n in range(9):
        assert base**n == product
        product = product * base


@pytest.mark.parametrize("base", [CR(Fraction(-3, 4)), CR(0), ONE])
def test_real_powers_stay_real(base):
    for n in range(6):
        power = base**n
        assert isinstance(power, ComplexRational)
        assert power.im == 0
        assert power.re == base.re**n


@pytest.mark.parametrize("n", [-1, Fraction(2), 1.5, "2"])
def test_powers_refuse_negative_and_non_integer_exponents(n):
    with pytest.raises(ValueError):
        CR(1, 1) ** n
    with pytest.raises(ValueError):
        CR(3) ** n


def test_conjugate_and_zero_test():
    a = CR(1, -2)
    assert a.conjugate() == CR(1, 2)
    assert (a * a.conjugate()).im == 0
    assert ZERO.is_zero
    assert not ONE.is_zero
    assert not bool(ZERO)
    assert bool(I)


def test_format_canonical():
    assert format_scalar(CR(3)) == "3"
    assert format_scalar(CR(Fraction(-1, 2))) == "-1/2"
    assert format_scalar(CR(Fraction(1, 2), 3)) == "1/2+3i"
    assert format_scalar(CR(0, -2)) == "-2i"
    assert format_scalar(ZERO) == "0"


def test_parse_examples():
    assert parse_scalar("3") == CR(3)
    assert parse_scalar("-1/2") == CR(Fraction(-1, 2))
    assert parse_scalar("1/2+3i") == CR(Fraction(1, 2), 3)
    assert parse_scalar("-2i") == CR(0, -2)
    assert parse_scalar(5) == CR(5)


def test_parse_rejects_garbage():
    for bad in ("", "one", "1.5", "2+", "i+i", None, "1/0", "1/0i", "0/0", True, False):
        with pytest.raises((ValueError, TypeError)):
            parse_scalar(bad)


def test_sort_key_orders_by_re_then_im():
    vals = [CR(1, 1), CR(0, 5), CR(1, -1), CR(-2)]
    ordered = sorted(vals, key=lambda s: s.sort_key())
    assert ordered == [CR(-2), CR(0, 5), CR(1, -1), CR(1, 1)]


@settings(deadline=None)
@given(scalars)
def test_format_parse_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


@settings(deadline=None)
@given(scalars, scalars)
def test_field_axioms_sample(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@settings(deadline=None)
@given(scalars)
def test_additive_and_multiplicative_identity(a):
    assert a + ZERO == a
    assert a * ONE == a
    if not a.is_zero:
        assert a / a == ONE


def test_hashable_and_immutable():
    s = {CR(1), CR(1), CR(2)}
    assert len(s) == 2
    a = CR(1)
    with pytest.raises(AttributeError):
        a.re = 5
