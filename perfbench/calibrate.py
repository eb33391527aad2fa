"""The reference loop that scales every benchmark time to one host speed.

The host the benchmark runs on is shared: the same code runs up to twice
as slow for seconds to minutes at a time, and CPU time slows with wall
time.  So each time the benchmark reports is scaled by a reference loop
timed right next to it:

    scaled = measured * REFERENCE_S / reference

where ``reference`` is the geometric mean of the loop's times just before
and just after the measured span.  The loop does the kind of work the
program does, exact ``Fraction`` elimination in plain Python lists, but
never calls the program, so a change to the program cannot move it.  It
needs only the standard library.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

# seconds one reference loop takes at the nominal host speed: about its
# fastest time on the host where the benchmark was defined (a shared
# 2-vCPU cloud VM, CPython 3 with fractions.Fraction)
REFERENCE_S = 0.0045

_REPEATS = 6
_rng = random.Random(20120529)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(8)] for _ in range(8)]


def _det(rows):
    a = [row[:] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


_DET = _det(_MATRIX)


def reference_s():
    """Seconds the reference loop takes now."""
    t0 = time.perf_counter()
    for _ in range(_REPEATS):
        if _det(_MATRIX) != _DET:
            raise AssertionError("reference loop computed a wrong determinant")
    return time.perf_counter() - t0


def scaled(seconds, before, after):
    """`seconds` measured between reference times `before` and `after`,
    scaled to the nominal host speed."""
    return seconds * REFERENCE_S / math.sqrt(before * after)
