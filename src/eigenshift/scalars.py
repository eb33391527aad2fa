"""Exact complex-rational scalars.

A complex number is a pair of stdlib ``Fraction``s, so every zero test
made by the classifiers is decidable.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from .errors import BackendError


def rational(x) -> Fraction:
    """Coerce an int, string 'p/q' or rational to a ``Fraction``."""
    return Fraction(x)


class ComplexRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, (float, complex)) or isinstance(im, (float, complex)):
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
            return ComplexRational(x)
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

    def conjugate(self) -> "ComplexRational":
        if not self.im:
            return self  # immutable, so a real value is its own conjugate
        return ComplexRational(self.re, -self.im)

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


def conj(x):
    """Complex conjugate of a ``ComplexRational``."""
    return x.conjugate()


def format_scalar(x: ComplexRational) -> str:
    """Canonical string form: '3', '-1/2', '1/2+3i', '-2i', '1-1/3i'."""
    re_part, im_part = x.re, x.im
    if im_part == 0:
        return str(re_part)
    im_str = str(im_part)
    if re_part == 0:
        return f"{im_str}i"
    if im_str.startswith("-"):
        return f"{re_part}{im_str}i"
    return f"{re_part}+{im_str}i"


_RAT = r"[+-]?\d+(?:/\d+)?"
_SCALAR_RE = _re.compile(
    rf"^\s*(?:(?P<re>{_RAT})(?=\s*(?:[+-]|$)))?\s*"
    rf"(?:(?P<im>[+-]?(?:\d+(?:/\d+)?\s*)?)[iIjJ])?\s*$"
)


def parse_scalar(text) -> ComplexRational:
    """Parse a scalar string such as '3', '-1/2', '1/2+3i', 'i', '2-i'.

    Integers are accepted directly for convenience in job files; a bool
    is not a number here, so JSON true and false are refused.
    """
    if isinstance(text, ComplexRational):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return ComplexRational(text)
    if not isinstance(text, str):
        raise ValueError(f"cannot parse scalar from {text!r}")
    m = _SCALAR_RE.match(text)
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
