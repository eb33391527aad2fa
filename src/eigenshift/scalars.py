"""Exact complex-rational scalars and their one text form.

A complex number is a pair of stdlib ``Fraction``s, so every zero test
made by the classifiers is decidable.

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


class ComplexRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, _NOT_EXACT) or isinstance(im, _NOT_EXACT):
            if isinstance(re, bool) or isinstance(im, bool):
                raise TypeError(f"({re!r}, {im!r}): a bool is not a number here")
            raise BackendError(
                f"({re!r}, {im!r}) is not exact; scalar parts must be int, "
                "Fraction or a rational string"
            )
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, ComplexRational):
            return x
        if isinstance(x, (int, Fraction)):
            # arithmetic keeps Python's bool as 0 or 1 (x * (i == j)); only
            # the constructor refuses a bool as a value
            return ComplexRational(int(x) if isinstance(x, bool) else x)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ComplexRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ComplexRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ComplexRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        if not self.im:
            return ComplexRational(self.re**n)
        # square and multiply on the Fraction parts; one object at the end
        re, im = _Q1, _Q0
        br, bi = self.re, self.im
        while n:
            if n & 1:
                re, im = re * br - im * bi, re * bi + im * br
            br, bi = br * br - bi * bi, 2 * br * bi
            n >>= 1
        return ComplexRational(re, im)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def sort_key(self):
        """Lexicographic key on (re, im) for deterministic ordering."""
        return (self.re, self.im)

    # -- formatting ---------------------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"ComplexRational({self.re!s}, {self.im!s})"


ZERO = ComplexRational(0)
ONE = ComplexRational(1)
I = ComplexRational(0, 1)
_Q0 = ZERO.re
_Q1 = ONE.re


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
    """(re + im i) / den for integers re, im and nonzero den.

    Builds the value directly, without the coercions of the constructor;
    a matrix or vector makes each entry this way when it is read.
    """
    if not re and not im:
        return ZERO
    x = object.__new__(ComplexRational)
    object.__setattr__(x, "re", Fraction(re, den) if re else _Q0)
    object.__setattr__(x, "im", Fraction(im, den) if im else _Q0)
    return x


def CR(re, im=0) -> ComplexRational:
    """Shorthand constructor used pervasively in tests."""
    return ComplexRational(re, im)


def format_scalar(x: ComplexRational) -> str:
    """Canonical string form: '3', '-1/2', '1/2+3i', '-2i', '1-1/3i'."""
    re, im = x.re, x.im
    den = lcm(re.denominator, im.denominator)
    return format_parts(
        den,
        re.numerator * (den // re.denominator),
        im.numerator * (den // im.denominator),
    )


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
    return ComplexRational(Fraction(re, re_den), Fraction(im, im_den))
