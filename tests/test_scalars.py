"""Exact complex-rational scalar arithmetic and string round trips."""

import operator
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenshift.linalg import Matrix, Vector
from eigenshift.reporting import matrix_to_obj, obj_to_matrix, obj_to_vector, vector_to_obj
from eigenshift.scalars import (
    CR,
    I,
    ONE,
    ZERO,
    ComplexRational,
    format_parts,
    _regex_parts,
    format_scalar,
    from_integers,
    parse_parts,
    parse_scalar,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
scalars = st.builds(CR, rationals, rationals)


def conj(x):
    """The complex conjugate of a scalar, from its parts."""
    return CR(x.re, -x.im)


# -- the Fraction-based parser and formatter, kept as the reference ----------

_REF_RAT = r"[+-]?\d+(?:/\d+)?"
_REF_SCALAR_RE = re.compile(
    rf"^\s*(?:(?P<re>{_REF_RAT})(?=\s*(?:[+-]|$)))?\s*"
    rf"(?:(?P<im>[+-]?(?:\d+(?:/\d+)?\s*)?)[iIjJ])?\s*$"
)


def ref_parse_scalar(text) -> ComplexRational:
    if isinstance(text, ComplexRational):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return ComplexRational(text)
    if not isinstance(text, str):
        raise ValueError(f"cannot parse scalar from {text!r}")
    m = _REF_SCALAR_RE.match(text)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ValueError(f"malformed scalar string {text!r}")
    re_s = m.group("re")
    im_s = m.group("im")
    im_s = "0" if im_s is None else im_s.replace(" ", "")
    im_s = {"": "1", "+": "1", "-": "-1"}.get(im_s, im_s)
    try:
        return ComplexRational(Fraction(re_s or 0), Fraction(im_s))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar string {text!r}") from None


def ref_format_scalar(x: ComplexRational) -> str:
    re_part, im_part = x.re, x.im
    if im_part == 0:
        return str(re_part)
    im_str = str(im_part)
    if re_part == 0:
        return f"{im_str}i"
    if im_str.startswith("-"):
        return f"{re_part}{im_str}i"
    return f"{re_part}+{im_str}i"


GARBAGE = ("", "one", "1.5", "2+", "i+i", None, "1/0", "1/0i", "0/0", True, False)
PARSE_CORPUS = GARBAGE + (
    # unreduced and signed forms
    "6/4", "-0", "+3", "00/04", "-6/-4", "+-1", "--1", "-0/5i", "3/6-4/8i",
    # bare imaginary units and spaced forms
    "i", "+i", "-i", "2-i", "2+I", "-j", " 1/2 - 3i ", " 1/2 -3i ", "1/2+3 i",
    "\t7\n", "3 i", "1 2", "1 /2", "1/ 2",
    # Unicode digits
    "\u0663", "\u0661/\u0662+\u0663i", "\uff17",
    # other near misses
    "1e3", "0x10", "1_000", "1//2", "i1", "ii", "1/2/3", "2i3", "+", "-", "/",
    5, -7, 0, 1.5, [1], 1j,
)


@pytest.mark.parametrize("text", PARSE_CORPUS)
def test_parse_matches_fraction_reference(text):
    """The integer-part parser gives the reference's value, or raises
    the reference's exception type with its message."""
    try:
        expected = ref_parse_scalar(text)
    except Exception as exc:
        with pytest.raises(Exception) as got:
            parse_scalar(text)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
    else:
        assert parse_scalar(text) == expected



def _parts_or_error(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc)


# texts near the integer fast path: ASCII and other decimal digits, and
# the characters that make a text something else
near_integers = st.one_of(
    st.text(alphabet="0123456789\u0663\uff17\u0966 \t_+-/iI", max_size=10),
    # digit runs across Python's 4300-digit limit for int(str)
    st.builds(
        lambda sign, digit, count: sign + digit * count,
        st.sampled_from(["", "-", "+", " "]),
        st.sampled_from(["7", "\u0663"]),
        st.integers(4290, 4310),
    ),
)


@settings(max_examples=400, deadline=None)
@given(near_integers)
def test_integer_fast_path_matches_the_grammar(text):
    """parse_parts reads digit texts by int alone; the full grammar gives
    the same parts, or raises the same exception type."""
    assert _parts_or_error(parse_parts, text) == _parts_or_error(_regex_parts, text)

def test_vector_from_texts_matches_fraction_reference():
    good = []
    for text in PARSE_CORPUS:
        try:
            good.append((text, ref_parse_scalar(text)))
        except Exception:
            pass
    texts, values = zip(*good)
    assert Vector.from_texts(list(texts)) == Vector(values)
    assert Matrix.from_texts([list(texts)] * 2) == Matrix.from_rows([list(values)] * 2)


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
    assert Matrix.from_rows([[a]]).H[0, 0] == conj(a) == CR(1, 2)
    assert (a * conj(a)).im == 0
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
    for bad in GARBAGE:
        with pytest.raises((ValueError, TypeError)):
            parse_scalar(bad)
    # a bool is not a number for the constructor either
    with pytest.raises(TypeError):
        CR(True)


def test_sort_key_orders_by_re_then_im():
    vals = [CR(1, 1), CR(0, 5), CR(1, -1), CR(-2)]
    ordered = sorted(vals, key=lambda s: s.sort_key())
    assert ordered == [CR(-2), CR(0, 5), CR(1, -1), CR(1, 1)]


@settings(deadline=None)
@given(scalars)
def test_format_parse_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


@settings(deadline=None)
@given(scalars)
def test_format_matches_fraction_reference(x):
    assert format_scalar(x) == ref_format_scalar(x)


@settings(deadline=None)
@given(st.integers(1, 10**6), st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6))
def test_format_parts_matches_fraction_reference(den, re, im):
    expected = ref_format_scalar(CR(Fraction(re, den), Fraction(im, den)))
    assert format_parts(den, re, im) == expected


numerators = st.integers(-(10**4), 10**4)


@st.composite
def forms(draw):
    """(rows, cols, entries) for a random (den, re, im) form."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    den = draw(st.integers(1, 360))
    re = draw(st.lists(numerators, min_size=rows * cols, max_size=rows * cols))
    im = draw(st.one_of(st.none(), st.lists(numerators, min_size=rows * cols, max_size=rows * cols)))
    im = im or [0] * (rows * cols)
    return rows, cols, [CR(Fraction(a, den), Fraction(b, den)) for a, b in zip(re, im)]


@settings(deadline=None)
@given(forms())
def test_texts_round_trip_through_the_integer_form(form):
    rows, cols, entries = form
    M = Matrix(rows, cols, entries)
    assert M.texts() == [format_scalar(e) for e in entries]
    assert Matrix.from_texts(matrix_to_obj(M)) == M
    assert obj_to_matrix(matrix_to_obj(M)) == M
    v = M.row(0)
    assert vector_to_obj(v) == [format_scalar(e) for e in entries[:cols]]
    assert Vector.from_texts(v.texts()) == v
    assert obj_to_vector(vector_to_obj(v)) == v


@settings(deadline=None)
@given(scalars, scalars)
def test_field_axioms_sample(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert conj(a + b) == conj(a) + conj(b)
    assert conj(a * b) == conj(a) * conj(b)


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
    # a real scalar equals its int or Fraction, and hashes like it
    assert 3 in {CR(3)} and CR(3) in {3}
    assert {CR(2): "x"}.get(2) == "x"
    assert Fraction(-3, 4) in {CR(Fraction(-3, 4))}
    assert {parse_scalar("-6/8"): "q"}.get(Fraction(-3, 4)) == "q"
    assert {Fraction(1, 2): "h"}.get(parse_scalar("1/2")) == "h"
    M = Matrix.from_texts([["1/2", "2"], ["0", "1/3+i"]])
    texts = dict(zip(M.entries, M.texts()))
    assert [texts.get(k) for k in (Fraction(1, 2), 2, 0, CR(Fraction(1, 3), 1))] == M.texts()
    a = CR(1)
    for name in ("re", "im", "den", "nre", "nim"):
        with pytest.raises(AttributeError):
            setattr(a, name, 5)


def test_from_integers_is_canonical_and_refuses_a_zero_denominator():
    x = from_integers(3, -6, -9)
    assert (x.den, x.nre, x.nim) == (3, -1, 2) and x == CR(Fraction(-1, 3), Fraction(2, 3))
    assert from_integers(0, 0, 5) is ZERO
    with pytest.raises(ZeroDivisionError):
        from_integers(1, 0, 0)


# -- the Fraction-pair formulas, kept as the reference for the integer form --


def ref_pair(x):
    """(re, im) of an operand as a pair of Fractions."""
    if isinstance(x, ComplexRational):
        return x.re, x.im
    return Fraction(int(x) if isinstance(x, bool) else x), Fraction(0)


def ref_div(p, q):
    (ar, ai), (br, bi) = p, q
    n = br * br + bi * bi
    if n == 0:
        raise ZeroDivisionError("division by zero ComplexRational")
    return (ar * br + ai * bi) / n, (ai * br - ar * bi) / n


REF_OPS = {
    operator.add: lambda p, q: (p[0] + q[0], p[1] + q[1]),
    operator.sub: lambda p, q: (p[0] - q[0], p[1] - q[1]),
    operator.mul: lambda p, q: (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]),
    operator.truediv: ref_div,
}


def ref_pair_text(p) -> str:
    re_part, im_part = p
    if im_part == 0:
        return str(re_part)
    im_str = str(im_part)
    if re_part == 0:
        return f"{im_str}i"
    return f"{re_part}{im_str}i" if im_str.startswith("-") else f"{re_part}+{im_str}i"


def assert_value(got, pair):
    """got is the scalar pair names, in its canonical integer form."""
    assert type(got) is ComplexRational
    assert (got.re, got.im) == pair
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert got.den > 0 and gcd(got.den, got.nre, got.nim) == 1


small = st.integers(-60, 60)
integer_forms = st.builds(from_integers, small, small, small.filter(bool))
operands = st.one_of(integer_forms, scalars, small, rationals, st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.one_of(integer_forms, scalars), operands)
def test_arithmetic_matches_the_fraction_pair_reference(a, b):
    """Every operation on the integer form gives the value of the
    Fraction-pair formulas, in canonical form, with an int, Fraction or
    bool on either side."""
    pa, pb = ref_pair(a), ref_pair(b)
    for op, ref in REF_OPS.items():
        for x, y, px, py in ((a, b, pa, pb), (b, a, pb, pa)):
            try:
                want = ref(px, py)
            except ZeroDivisionError as exc:
                with pytest.raises(ZeroDivisionError, match=str(exc)):
                    op(x, y)
            else:
                assert_value(op(x, y), want)
    assert (a == b) is (b == a) is (pa == pb)
    if a == b:
        assert hash(a) == hash(b)
    assert_value(-a, (-pa[0], -pa[1]))
    power = (Fraction(1), Fraction(0))
    for n in range(7):
        assert_value(a**n, power)
        power = REF_OPS[operator.mul](power, pa)
    assert str(a) == format_scalar(a) == ref_pair_text(pa)
    assert (a.re, a.im) == pa and a.is_zero is (pa == (0, 0))
    if isinstance(b, ComplexRational):
        ka, kb = a.sort_key(), b.sort_key()
        assert (ka < kb, ka == kb, ka > kb) == (pa < pb, pa == pb, pa > pb)


def test_reads_parses_and_operations_make_no_fraction(monkeypatch):
    """A cost guard without timing noise: reading the entries of a
    complex matrix or vector, testing an entry for zero, parsing a scalar
    and the scalar operations of a shift work on the integer form and
    construct no ``Fraction``."""
    M = Matrix.from_texts([["1/2+3i", "-2/3"], ["5", "7/4-i"]])
    v = M.col(1)
    lam0, lam1 = parse_scalar("1/3-2i"), parse_scalar("5/6+i")
    half_3i = CR(Fraction(1, 2), 3)
    expected = [CR(Fraction(-2, 3)), CR(Fraction(7, 4), -1), False, half_3i, half_3i]
    expected += [CR(Fraction(41, 18), Fraction(-4, 3)), CR(Fraction(-31, 74), Fraction(18, 37))]
    made, new = [], Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: made.append(a) or new(cls, *a, **k))
    got = [v[0], v[1], M[0, 1].is_zero, parse_scalar("1/2+3i"), lam1 - lam0, lam1 * lam0, lam1 / lam0]
    entries = M.entries
    assert made == []
    assert got == expected and entries == (M[0, 0], M[0, 1], M[1, 0], M[1, 1])
    assert lam0.re == Fraction(1, 3) and made  # the count sees a construction
