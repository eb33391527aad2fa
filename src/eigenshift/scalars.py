"""Exact complex-rational scalars and their one text form.

A complex number is stored as a matrix entry is: a denominator ``den`` >
0 and integer numerators ``nre`` and ``nim`` with no common factor, so
every zero test made by the classifiers is a test of integers, and
arithmetic takes one gcd per result.

Scalars travel as text ("3", "-1/2", "1/2+3i").  ``parse_parts`` reads a
text into integer parts and ``format_parts`` prints (re + im i) / den,
so a matrix or vector is read and printed from its integer form with no
scalar object in between; ``parse_scalar`` and ``format_scalar`` are the
same grammar for one ``ComplexRational``.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, lcm

from .errors import BackendError


def rational(x) -> Fraction:
    """Coerce an int, string 'p/q' or rational to a ``Fraction``."""
    return Fraction(x)


# a float or complex is inexact, and a bool is not taken as 0 or 1
_NOT_EXACT = (float, complex, bool)


def _ratio(x) -> tuple:
    """(numerator, denominator) of one exact part, in lowest terms."""
    q = x if isinstance(x, (int, Fraction)) else Fraction(x)
    return q.numerator, q.denominator


def _parts(x):
    """(den, nre, nim) of an exact operand, or None for any other value;
    arithmetic keeps Python's bool as 0 or 1 (x * (i == j)), and only the
    constructor refuses a bool as a value."""
    if isinstance(x, ComplexRational):
        return x.den, x.nre, x.nim
    if isinstance(x, int):
        return 1, int(x), 0
    if isinstance(x, Fraction):
        return x.denominator, x.numerator, 0
    return None


class ComplexRational:
    """A complex number (nre + nim i) / den with exact rational real and
    imaginary parts; den > 0 and gcd(den, nre, nim) = 1."""

    __slots__ = ("den", "nre", "nim")

    def __init__(self, re=0, im=0):
        if isinstance(re, _NOT_EXACT) or isinstance(im, _NOT_EXACT):
            if isinstance(re, bool) or isinstance(im, bool):
                raise TypeError(f"({re!r}, {im!r}): a bool is not a number here")
            raise BackendError(
                f"({re!r}, {im!r}) is not exact; scalar parts must be int, "
                "Fraction or a rational string"
            )
        (a, b), (c, e) = _ratio(re), _ratio(im)
        # each part is in lowest terms, so no prime of lcm(b, e) divides
        # both numerators and the form needs no gcd
        den = b if b == e else lcm(b, e)
        _set(self, den, a * (den // b), c * (den // e))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.nre, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.nim, self.den)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        (d, r, i), e = o, self.den
        return from_integers(self.nre * d + r * e, self.nim * d + i * e, e * d)

    __radd__ = __add__

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        (d, r, i), e = o, self.den
        return from_integers(self.nre * d - r * e, self.nim * d - i * e, e * d)

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        (d, r, i), e = o, self.den
        return from_integers(r * e - self.nre * d, i * e - self.nim * d, e * d)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        (d, r, i), a, b = o, self.nre, self.nim
        return from_integers(a * r - b * i, a * i + b * r, self.den * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _quotient((self.den, self.nre, self.nim), o)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _quotient(o, (self.den, self.nre, self.nim))

    def __neg__(self):
        return _set(object.__new__(ComplexRational), self.den, -self.nre, -self.nim)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        # square and multiply on the numerators; one gcd at the end
        re, im, den = 1, 0, self.den**n
        br, bi = self.nre, self.nim
        while n:
            if n & 1:
                re, im = re * br - im * bi, re * bi + im * br
            br, bi = br * br - bi * bi, 2 * br * bi
            n >>= 1
        return from_integers(re, im, den)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.nre and not self.nim

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return (self.den, self.nre, self.nim) == o

    def __hash__(self):
        # a real value equals its int or Fraction, so it hashes like it
        return hash((self.den, self.nre, self.nim) if self.nim else self.re)

    def sort_key(self):
        """Lexicographic key on (re, im) for deterministic ordering; the
        parts of a value with denominator 1 are their own keys."""
        return (self.nre, self.nim) if self.den == 1 else (self.re, self.im)

    # -- formatting ---------------------------------------------------------

    def __str__(self):
        return format_parts(self.den, self.nre, self.nim)

    def __repr__(self):
        return f"ComplexRational({self.re!s}, {self.im!s})"


# the slot setters, which the immutable class's __setattr__ does not reach
_set_den, _set_nre, _set_nim = (
    ComplexRational.__dict__[f].__set__ for f in ComplexRational.__slots__
)


def _set(x, den, nre, nim):
    _set_den(x, den)
    _set_nre(x, nre)
    _set_nim(x, nim)
    return x


def _quotient(p, q):
    """p / q for (den, nre, nim) parts: a product with conj(q) over |q|^2."""
    (d, a, b), (e, r, i) = p, q
    n = r * r + i * i
    if not n:
        raise ZeroDivisionError("division by zero ComplexRational")
    return from_integers(e * (a * r + b * i), e * (b * r - a * i), d * n)


ZERO = ComplexRational(0)
ONE = ComplexRational(1)
I = ComplexRational(0, 1)


class _Value:
    """An immutable value, compared, hashed and printed over the fields its
    class names in ``__slots__`` and sets in its own ``__init__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({', '.join(fields)})"


def from_integers(re: int, im: int, den: int) -> ComplexRational:
    """(re + im i) / den for integers re, im and nonzero den, made
    canonical with one gcd; a matrix or vector makes each entry this way
    when it is read.  A zero den raises ZeroDivisionError."""
    if not re and not im:
        return ZERO
    g = gcd(den, re, im) if den > 0 else -gcd(den, re, im) if den else 0
    return _set(object.__new__(ComplexRational), den // g, re // g, im // g)


def CR(re, im=0) -> ComplexRational:
    """Shorthand constructor used pervasively in tests."""
    return ComplexRational(re, im)


def format_scalar(x: ComplexRational) -> str:
    """Canonical string form: '3', '-1/2', '1/2+3i', '-2i', '1-1/3i'."""
    return format_parts(x.den, x.nre, x.nim)


def _ratio_text(n: int, d: int) -> str:
    """n / d in lowest terms, as str(Fraction(n, d)) prints it (d > 0)."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def format_parts(den: int, re: int, im: int = 0) -> str:
    """The canonical string of (re + im i) / den, for den > 0."""
    re_str = _ratio_text(re, den)
    if not im:
        return re_str
    im_str = _ratio_text(im, den)
    if not re:
        return f"{im_str}i"
    if im_str[0] == "-":
        return f"{re_str}{im_str}i"
    return f"{re_str}+{im_str}i"


_SCALAR_RE = _re.compile(
    r"^\s*(?:(?P<re>[+-]?\d+)(?:/(?P<re_den>\d+))?(?=\s*(?:[+-]|$)))?\s*"
    r"(?:(?P<im_sign>[+-]?)(?:(?P<im>\d+)(?:/(?P<im_den>\d+))?\s*)?[iIjJ])?\s*$"
)


def parse_parts(text) -> tuple:
    """(re_num, re_den, im_num, im_den), the integers a scalar text
    spells: '3', '-1/2', '1/2+3i', 'i', '2-i'; the fractions are not
    reduced.

    A text of decimal digits, or of "-" and decimal digits, is read by
    ``int`` alone; every other text by ``_regex_parts``, which gives the
    same parts for those.  An int is accepted directly for convenience in
    job files; a bool is not a number here, so JSON true and false are
    refused.
    """
    if isinstance(text, str):
        if text.isdecimal() or (text[:1] == "-" and text[1:].isdecimal()):
            return int(text), 1, 0, 1
        return _regex_parts(text)
    if isinstance(text, int) and not isinstance(text, bool):
        return text, 1, 0, 1
    raise ValueError(f"cannot parse scalar from {text!r}")


def _regex_parts(text: str) -> tuple:
    """``parse_parts`` of a text, by the full grammar."""
    m = _SCALAR_RE.match(text)
    re, re_den, sign, im, im_den = m.groups() if m else (None,) * 5
    if re is None and sign is None:  # no match, or an empty one
        raise ValueError(f"malformed scalar string {text!r}")
    # the real part is read and checked before the imaginary one
    re, re_den = int(re or 0), int(re_den or 1)
    if re_den:
        im = 0 if sign is None else int(sign + (im or "1"))
        im_den = int(im_den or 1)
        if im_den:
            return re, re_den, im, im_den
    raise ValueError(f"zero denominator in scalar string {text!r}")


def parse_scalar(text) -> ComplexRational:
    """The scalar of a text such as '3', '-1/2', '1/2+3i', 'i', '2-i'
    (see ``parse_parts``); a ``ComplexRational`` is returned as it is."""
    if isinstance(text, ComplexRational):
        return text
    re, re_den, im, im_den = parse_parts(text)
    return from_integers(re * im_den, im * re_den, re_den * im_den)
