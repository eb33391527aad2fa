"""Dense exact linear algebra over complex rationals.

Everything is immutable and every operation returns a fresh value, so
values are safe to share freely.

Products, rank, determinant, solve, inverse and null space run on one
fraction-free integer kernel.  Each row (or column) is cleared to a
common denominator, leaving integer numerators, or Gaussian-integer
(re, im) pairs when some imaginary part is nonzero.  Products are
integer dot products; elimination is Bareiss's fraction-free scheme,
whose division by the previous pivot is exact in Z and in Z[i]
(Bareiss 1968).  The pivot is the first nonzero entry in its column, so
the pivot columns are those of hand elimination.  Every entry of a
result is rebuilt from integers once, and the results equal those of
elimination over ``ComplexRational``: the same values, in the same
canonical form.  ``Matrix.dets_minus_identity`` (det(A - t I) at many
integer points) and ``power_ranks`` (the ranks of N, N^2, ...) clear
their matrix once for every point or power.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Sequence

from .errors import ShapeError, SingularMatrixError
from .scalars import ComplexRational, ONE, ZERO, conj, from_integers


def _as_scalar(x) -> ComplexRational:
    """x as an exact scalar; a float or complex raises BackendError."""
    if isinstance(x, ComplexRational):
        return x
    try:
        return ComplexRational(x)
    except (TypeError, ValueError):
        raise TypeError(f"cannot use {x!r} as an exact scalar") from None


class Vector:
    """An exact column vector."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        object.__setattr__(self, "entries", tuple(map(_as_scalar, entries)))

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @staticmethod
    def zero(n: int) -> "Vector":
        return Vector([ZERO] * n)

    @staticmethod
    def unit(n: int, i: int) -> "Vector":
        """Standard basis vector e_{i+1} (0-based index i) in C^n."""
        if not 0 <= i < n:
            raise ShapeError(f"unit index {i} out of range for dim {n}")
        return Vector([ONE if j == i else ZERO for j in range(n)])

    def __getitem__(self, i: int):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __add__(self, other: "Vector") -> "Vector":
        if self.dim != other.dim:
            raise ShapeError("vector dimensions differ")
        return Vector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "Vector") -> "Vector":
        if self.dim != other.dim:
            raise ShapeError("vector dimensions differ")
        return Vector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self):
        return Vector(-a for a in self.entries)

    def scale(self, c) -> "Vector":
        return Vector(_scaled(self.entries, c))

    def __eq__(self, other):
        return (
            isinstance(other, Vector)
            and self.dim == other.dim
            and all(a == b for a, b in zip(self.entries, other.entries))
        )

    def __hash__(self):
        return hash(self.entries)

    @property
    def is_zero(self) -> bool:
        return all(not e for e in self.entries)

    def concat(self, other: "Vector") -> "Vector":
        return Vector(self.entries + other.entries)

    def conj(self) -> "Vector":
        return Vector(conj(a) for a in self.entries)

    def as_column(self) -> "Matrix":
        return Matrix(self.dim, 1, self.entries)

    def __repr__(self):
        return "Vector([" + ", ".join(str(e) for e in self.entries) + "])"


def inner(u: Vector, v: Vector):
    """u* v, conjugate-linear in the left argument."""
    if u.dim != v.dim:
        raise ShapeError("inner product of different dimensions")
    d, re, im = _clear(u.entries)
    return _dot((d, re, im and [-x for x in im]), _clear(v.entries))


def outer_conj(u: Vector, v: Vector) -> "Matrix":
    """Rank-one matrix u v* (conjugate transpose of v)."""
    return Matrix(
        u.dim, v.dim, [a * conj(b) for a in u.entries for b in v.entries]
    )


def outer_plain(u: Vector, v: Vector) -> "Matrix":
    """Rank-one matrix u v^T (plain transpose, Brauer's convention)."""
    return Matrix(u.dim, v.dim, [a * b for a in u.entries for b in v.entries])


class Matrix:
    """Dense row-major matrix of exact scalars."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        entries = tuple(map(_as_scalar, entries))
        if len(entries) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, "
                f"got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ShapeError("ragged rows")
        return Matrix(r, c, [e for row in rows for e in row])

    @staticmethod
    def from_columns(columns: Sequence[Vector], dim: int | None = None) -> "Matrix":
        if not columns:
            if dim is None:
                raise ShapeError("cannot infer dimension of empty column set")
            return Matrix(dim, 0, [])
        n = columns[0].dim
        if any(v.dim != n for v in columns):
            raise ShapeError("columns of different dimensions")
        return Matrix(
            n, len(columns), [v[i] for i in range(n) for v in columns]
        )

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [ZERO] * (rows * cols))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(
            n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)]
        )

    # -- access -------------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ShapeError(f"index {key} out of range for {self.shape}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return Vector(self.entries[i * self.cols : (i + 1) * self.cols])

    def col(self, j: int) -> Vector:
        return Vector(self.entries[i * self.cols + j] for i in range(self.rows))

    def columns(self):
        return [self.col(j) for j in range(self.cols)]

    def row_list(self):
        return [list(row) for row in self._row_slices()]

    def _row_slices(self):
        c, e = self.cols, self.entries
        return [e[i * c : (i + 1) * c] for i in range(self.rows)]

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        """Rows r0:r1, columns c0:c1 (half-open, 0-based)."""
        return Matrix(
            r1 - r0,
            c1 - c0,
            [self[i, j] for i in range(r0, r1) for j in range(c0, c1)],
        )

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        return Matrix(
            self.rows,
            self.cols,
            [a + b for a, b in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ShapeError(f"cannot subtract {other.shape} from {self.shape}")
        return Matrix(
            self.rows,
            self.cols,
            [a - b for a, b in zip(self.entries, other.entries)],
        )

    def __neg__(self):
        return Matrix(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, c) -> "Matrix":
        return Matrix(self.rows, self.cols, _scaled(self.entries, c))

    def minus_identity(self, lam) -> "Matrix":
        """self - lam I, changing only the diagonal (square matrices)."""
        if not self.is_square:
            raise ShapeError(f"{self.shape} matrix minus a multiple of I")
        lam = _as_scalar(lam)
        entries = list(self.entries)
        for t in range(0, len(entries), self.cols + 1):
            entries[t] = entries[t] - lam
        return Matrix(self.rows, self.cols, entries)

    def __matmul__(self, other):
        if isinstance(other, Vector):
            if self.cols != other.dim:
                raise ShapeError(f"{self.shape} @ vector of dim {other.dim}")
            return Vector(_product(self._row_slices(), [other.entries]))
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        p, b = other.cols, other.entries
        columns = [b[j::p] for j in range(p)]
        return Matrix(self.rows, p, _product(self._row_slices(), columns))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and all(a == b for a, b in zip(self.entries, other.entries))
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            [self[i, j] for j in range(self.cols) for i in range(self.rows)],
        )

    def conj_transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            [conj(self[i, j]) for j in range(self.cols) for i in range(self.rows)],
        )

    @property
    def H(self) -> "Matrix":
        return self.conj_transpose()

    @property
    def is_zero(self) -> bool:
        return all(not e for e in self.entries)

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(self[i, j]) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: [{body}])"

    # -- exact elimination ---------------------------------------------------

    def exact_rank(self) -> int:
        """Rank over the complex rationals."""
        if self.rows == 0 or self.cols == 0:
            return 0
        _, rows, gaussian = _integer_rows(self._row_slices())
        return len(_eliminate(rows, self.cols, gaussian)[0])

    def det(self):
        """Exact determinant (square matrices only)."""
        return self.dets_minus_identity([0])[0]

    def dets_minus_identity(self, points) -> list:
        """[det(self - t I) for t in points], for integer points t.

        The matrix is cleared to integer rows once: row i times its
        scale s_i is integral, so the scaled rows of self - t I are
        those rows with s_i t taken off the diagonal, and each
        determinant is divided by the product of the scales.
        """
        if not self.is_square:
            raise ShapeError("determinant of a non-square matrix")
        points = list(points)
        if not all(isinstance(t, int) for t in points):
            raise TypeError(f"points must be integers, got {points!r}")
        n = self.rows
        if n == 0:
            return [ONE] * len(points)
        scales, rows, gaussian = _integer_rows(self._row_slices())
        den = prod(scales)
        dets = []
        for t in points:
            shifted = list(rows)  # the kernel replaces rows, never edits them
            if t:
                for i, s in enumerate(scales):
                    row = shifted[i] = list(rows[i])
                    x = row[i]
                    row[i] = (x[0] - s * t, x[1]) if gaussian else x - s * t
            piv_cols, sign = _eliminate(shifted, n, gaussian)
            if len(piv_cols) < n:
                dets.append(ZERO)
                continue
            # the last pivot is the determinant of the scaled, permuted rows
            re, im = shifted[-1][-1] if gaussian else (shifted[-1][-1], 0)
            dets.append(from_integers(re, im, sign * den))
        return dets

    def solve(self, rhs):
        """Solve self @ X = rhs for square nonsingular self.

        rhs may be a Vector or a Matrix; the result has matching kind.
        """
        if not self.is_square:
            raise ShapeError("solve requires a square matrix")
        vector_rhs = isinstance(rhs, Vector)
        B = rhs.as_column() if vector_rhs else rhs
        if B.rows != self.rows:
            raise ShapeError("right-hand side has wrong number of rows")
        n, m = self.rows, B.cols
        _, rows, gaussian = _integer_rows(
            [a + b for a, b in zip(self._row_slices(), B._row_slices())]
        )
        piv_cols, _ = _eliminate(rows, n, gaussian, reduced=True)
        if len(piv_cols) < n:
            raise SingularMatrixError(
                f"matrix is singular (rank {len(piv_cols)})",
                rank=len(piv_cols),
            )
        # rows are now d [I | X] with d the last pivot
        d = rows[-1][n - 1] if n else 1
        out = Matrix(
            n, m, [_quotient(x, d, gaussian) for row in rows for x in row[n:]]
        )
        return out.col(0) if vector_rhs else out

    def inverse(self) -> "Matrix":
        return self.solve(Matrix.identity(self.rows))

    def null_space_basis(self):
        """Exact basis (list of Vectors) of the right null space.

        One vector per non-pivot column fc: 1 at fc, 0 at the other
        non-pivot columns.
        """
        n, m = self.rows, self.cols
        if m == 0:
            return []
        if n == 0:
            return [Vector.unit(m, j) for j in range(m)]
        _, rows, gaussian = _integer_rows(self._row_slices())
        piv_cols, _ = _eliminate(rows, m, gaussian, reduced=True)
        # the pivot rows are now d times the reduced echelon form
        d = rows[len(piv_cols) - 1][piv_cols[-1]] if piv_cols else 1
        neg_d = (-d[0], -d[1]) if gaussian else -d
        piv_set = set(piv_cols)
        basis = []
        for fc in range(m):
            if fc in piv_set:
                continue
            x = [ZERO] * m
            x[fc] = ONE
            for row, pc in zip(rows, piv_cols):
                x[pc] = _quotient(row[fc], neg_d, gaussian)
            basis.append(Vector(x))
        return basis


def power_ranks(N: Matrix):
    """Yield rank(N), rank(N^2), rank(N^3), ... of a square matrix.

    N is cleared once to Z = d N, integral (or Gaussian-integral) for
    the common denominator d; Z^j and N^j have the same rank.  The row
    space of Z^(j+1) is spanned by (rows spanning that of Z^j) Z, so
    each step multiplies only the rank(Z^j) pivot rows that elimination
    leaves by the columns of Z.  The pivot rows are reduced (fraction-free
    Gauss-Jordan) and cut to their least integer multiples, which depend
    on the row space alone, so entries do not grow from step to step.
    """
    if not N.is_square:
        raise ShapeError(f"powers of a {N.rows}x{N.cols} matrix")
    n = N.rows
    _, re, im = _clear(N.entries)
    gaussian = im is not None
    flat = list(zip(re, im)) if gaussian else re
    rows = [flat[i * n : (i + 1) * n] for i in range(n)]
    columns = [flat[j::n] for j in range(n)]
    times = _times_gaussian if gaussian else _times_integer
    while True:
        rank = len(_eliminate(rows, n, gaussian, reduced=True)[0])
        yield rank
        rows = [times(_primitive(row, gaussian), columns) for row in rows[:rank]]


# -- fraction-free integer kernel ----------------------------------------------


def _clear(values):
    """(d, re, im): d * values[t] == re[t] + im[t] i with integer lists.

    d is the least common denominator of every real and imaginary part;
    im is None when every imaginary part is zero.
    """
    res = [x.re for x in values]
    ims = [x.im for x in values]
    re, re_den = [q.numerator for q in res], [q.denominator for q in res]
    im, im_den = [q.numerator for q in ims], []
    if any(im):
        im_den = [q.denominator for q in ims]
    else:
        im = None
    d = lcm(*set(re_den), *set(im_den))
    if d != 1:
        re = [a * (d // e) for a, e in zip(re, re_den)]
        if im:
            im = [a * (d // e) for a, e in zip(im, im_den)]
    return d, re, im


def _product(rows, columns):
    """Row-major entries of rows[i] . columns[j]."""
    a = [_clear(r) for r in rows]
    b = [_clear(c) for c in columns]
    return [_dot(x, y) for x in a for y in b]


def _dot(a, b):
    """a . b for vectors cleared by _clear, as one ComplexRational."""
    da, ar, ai = a
    db, br, bi = b
    re = sum(map(mul, ar, br))
    im = sum(map(mul, ar, bi)) if bi else 0
    if ai:
        im += sum(map(mul, ai, br))
        if bi:
            re -= sum(map(mul, ai, bi))
    return from_integers(re, im, da * db)


def _times_integer(row, columns):
    """The integer row times the matrix whose columns are given."""
    return [sum(map(mul, row, col)) for col in columns]


def _times_gaussian(row, columns):
    """_times_integer over Z[i], on (re, im) pairs."""
    out = []
    for col in columns:
        re = im = 0
        for (ar, ai), (br, bi) in zip(row, col):
            re += ar * br - ai * bi
            im += ar * bi + ai * br
        out.append((re, im))
    return out


def _primitive(row, gaussian):
    """The least integer multiple of a nonzero reduced echelon row.

    A Gaussian row is first multiplied by the conjugate of its leading
    entry, which makes that entry real; then the row is divided by the
    gcd of its integer parts.
    """
    if not gaussian:
        g = gcd(*row)
        return [x // g for x in row] if g > 1 else row
    pr, pi = next(z for z in row if z[0] or z[1])
    if pi:
        row = [(a * pr + b * pi, b * pr - a * pi) for a, b in row]
    g = gcd(*(x for z in row for x in z))
    return [(a // g, b // g) for a, b in row] if g > 1 else row


def _scaled(entries, c):
    """c * entries[t] for each t."""
    d, re, im = _clear(entries)
    dc, (cr,), ci = _clear((_as_scalar(c),))
    if not (im or ci):
        return [from_integers(x * cr, 0, d * dc) for x in re]
    ci = ci[0] if ci else 0
    return [
        from_integers(x * cr - y * ci, x * ci + y * cr, d * dc)
        for x, y in zip(re, im or [0] * len(re))
    ]


def _integer_rows(rows):
    """(row scales, integer rows, gaussian): rows[i] times scales[i] is
    integral; entries are ints, or (re, im) pairs when gaussian."""
    cleared = [_clear(r) for r in rows]
    scales = [d for d, _, _ in cleared]
    if all(im is None for _, _, im in cleared):
        return scales, [re for _, re, _ in cleared], False
    return (
        scales,
        [list(zip(re, im or [0] * len(re))) for _, re, im in cleared],
        True,
    )


def _eliminate(rows, ncols, gaussian, reduced=False):
    """Bareiss elimination of integer rows, in place.

    Pivots are searched in the first ncols columns; each is the first
    nonzero entry at or below the current row.  Each row update is
    (p * row - f * pivot_row) / previous pivot, where p and f are the
    entries of the pivot row and of the row in the pivot column.  The
    division is exact in Z and in Z[i], and the last pivot ends as the
    determinant of the leading pivot minor.  With reduced=True the rows
    above the pivot are updated too (fraction-free Gauss-Jordan): the
    pivot rows end as d times the reduced echelon form, d being the
    last pivot.  Returns (pivot columns, sign of the row permutation).
    """
    step = _step_gaussian if gaussian else _step_integer
    n = len(rows)
    piv_cols = []
    sign = 1
    prev = (1, 0) if gaussian else 1
    nonzero = any if gaussian else bool
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, n) if nonzero(rows[i][c])), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        top = rows[r]
        if reduced:
            for i in range(r):
                rows[i] = step(rows[i], top, c, prev, 0)
        # below the pivot row every entry left of c is already zero
        for i in range(r + 1, n):
            rows[i] = step(rows[i], top, c, prev, c)
        prev = top[c]
        piv_cols.append(c)
        r += 1
        if r == n:
            break
    return piv_cols, sign


def _step_integer(row, top, c, prev, lo):
    """One Bareiss row update over Z, from column lo on."""
    p, f = top[c], row[c]
    if not f and p == prev:
        return row
    return row[:lo] + [(p * x - f * y) // prev for x, y in zip(row[lo:], top[lo:])]


def _step_gaussian(row, top, c, prev, lo):
    """One Bareiss row update over Z[i], from column lo on; the division
    by q is a product with conj(q) and an exact division by |q|^2."""
    (pr, pi), (fr, fi), (qr, qi) = top[c], row[c], prev
    if not (fr or fi) and pr == qr and pi == qi:
        return row
    nq = qr * qr + qi * qi
    out = row[:lo]
    for (xr, xi), (yr, yi) in zip(row[lo:], top[lo:]):
        zr = pr * xr - pi * xi - fr * yr + fi * yi
        zi = pr * xi + pi * xr - fr * yi - fi * yr
        out.append(((zr * qr + zi * qi) // nq, (zi * qr - zr * qi) // nq))
    return out


def _quotient(z, d, gaussian):
    """z / d as a ComplexRational; z and d are ints, or (re, im) pairs
    when gaussian."""
    if not gaussian:
        return from_integers(z, 0, d)
    (zr, zi), (dr, di) = z, d
    if not di:
        return from_integers(zr, zi, dr)
    return from_integers(zr * dr + zi * di, zi * dr - zr * di, dr * dr + di * di)


def jordan_block(lam, k: int) -> Matrix:
    """k-by-k upper bidiagonal Jordan block: lam on the diagonal, 1 above."""
    if k < 1:
        raise ShapeError(f"Jordan block size must be >= 1, got {k}")
    lam = _as_scalar(lam)
    entries = []
    for i in range(k):
        for j in range(k):
            if i == j:
                entries.append(lam)
            elif j == i + 1:
                entries.append(ONE)
            else:
                entries.append(ZERO)
    return Matrix(k, k, entries)


def hstack(*mats: Matrix) -> Matrix:
    mats = [m for m in mats if m.cols > 0 or m.rows > 0]
    if not mats:
        raise ShapeError("hstack of nothing")
    n = mats[0].rows
    if any(m.rows != n for m in mats):
        raise ShapeError("hstack with differing row counts")
    entries = []
    for i in range(n):
        for m in mats:
            entries.extend(m.entries[i * m.cols : (i + 1) * m.cols])
    return Matrix(n, sum(m.cols for m in mats), entries)


def vstack(*mats: Matrix) -> Matrix:
    mats = list(mats)
    c = mats[0].cols
    if any(m.cols != c for m in mats):
        raise ShapeError("vstack with differing column counts")
    entries = []
    for m in mats:
        entries.extend(m.entries)
    return Matrix(sum(m.rows for m in mats), c, entries)


def direct_sum(*mats: Matrix) -> Matrix:
    n = sum(m.rows for m in mats)
    c = sum(m.cols for m in mats)
    out = [[ZERO] * c for _ in range(n)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[r0 + i][c0 + j] = m[i, j]
        r0 += m.rows
        c0 += m.cols
    return Matrix.from_rows(out)


def stack_vectors_as_rows(vectors: Sequence[Vector]) -> Matrix:
    if not vectors:
        raise ShapeError("no vectors to stack")
    return Matrix.from_rows([list(v.entries) for v in vectors])
