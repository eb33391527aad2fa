"""Dense exact linear algebra over complex rationals.

Everything is immutable and every operation returns a fresh value, so
values are safe to share freely.

A ``Matrix`` stores one integer form: a denominator ``den`` > 0 and
row-major tuples ``re`` and ``im`` of integer numerators, entry t being
(re[t] + im[t] i) / den, with ``im`` None when every imaginary part is
zero.  The form is canonical (gcd(den, every numerator) = 1), so equal
values have equal fields.  A value is built from scalars, converted once
(a plain int entry is its own numerator), or from scalar texts ("3",
"-1/2", "1/2+3i"), parsed straight into integer parts; every operation
reads and returns the form, ``texts`` prints the entries straight from
it, and a ``ComplexRational`` is made only when an entry is read.  A
``Vector`` is a Matrix with one column, read by one index.  The rows of
U* for columns u_1 .. u_p are their conjugated numerators, so U* of a
chain list is read in one step (``_adjoint_of_columns``).

Products are integer dot products; ``scale`` and ``outer_plain`` are
entrywise products of numerators.  Rank, determinant, solve, inverse,
null space and ``schur_blocks`` (diagonal blocks of C A^{-1} B from one
forward pass over [A | B]) run on one fraction-free kernel: row i enters
it as its numerators over g_i = gcd(den, content of row i), integers or
Gaussian-integer (re, im) pairs.  Elimination is Bareiss's scheme, whose
division by the previous pivot is exact in Z and in Z[i] (Bareiss 1968).
Its row scaling is lazy: a row whose entry in the pivot column is 0 is
skipped, and the scale factors it missed, which telescope, are applied
in its next update, so a sparse matrix costs what its nonzeros cost.
The pivot is the first nonzero entry in its column, as in hand
elimination, and the results equal those of elimination over
``ComplexRational``.  ``Matrix.charpoly`` computes the coefficients of
det(x I - M) with no division at all, by Berkowitz's algorithm on the
numerators (Berkowitz 1984).  It and ``power_ranks`` (the ranks of
(M - mu I)^j at each mu of a list) split their matrix once into diagonal
blocks, whose direct sum it is up to a permutation similarity
(``_diagonal_blocks``), and take each block's characteristic polynomial
once (``_block_polys``).  M - mu I changes only the diagonal, so it
splits as M does; ``power_ranks`` reads how often mu is a root of each
block's polynomial by exact deflation (``_multiplicity``), and
eliminates a block only where it is, until its later ranks are forced.
"""

from __future__ import annotations

from itertools import accumulate, chain, compress, repeat
from math import gcd, lcm, prod
from operator import mul, neg, or_
from typing import Iterable, Sequence

from .errors import ShapeError, SingularMatrixError
from .scalars import ComplexRational, ONE, ZERO, format_parts, from_integers, parse_parts


def _as_scalar(x) -> ComplexRational:
    """x as an exact scalar; a float or complex raises BackendError."""
    if isinstance(x, ComplexRational):
        return x
    try:
        return ComplexRational(x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise TypeError(f"cannot use {x!r} as an exact scalar") from None


# -- the integer form (den, re, im) --------------------------------------------


def _common_parts(re, re_den, im, im_den):
    """(d, re, im) for entries whose parts are re[t] / re_den[t] and
    im[t] / im_den[t]: the numerators scaled to the least common
    denominator d, and im None when every imaginary part is zero."""
    d = lcm(*set(re_den), *set(im_den))
    im = im if any(im) else None
    if d != 1:
        re = [a * (d // e) for a, e in zip(re, re_den)]
        im = im and [a * (d // e) for a, e in zip(im, im_den)]
    return d, re, im


def _clear(values):
    """The form of exact values, each an int or a ComplexRational: each
    part is an int or a reduced Fraction, so no prime of the common
    denominator divides every numerator and no gcd is needed."""
    res = [x if type(x) is int else x.re for x in values]
    ims = [0 if type(x) is int else x.im for x in values]
    ims = ims if any(ims) else ()  # a real value reads no imaginary parts
    d, re, im = _common_parts(
        [q.numerator for q in res],
        [q.denominator for q in res],
        [q.numerator for q in ims],
        [q.denominator for q in ims],
    )
    return d, tuple(re), im and tuple(im)


def _entries_form(entries):
    """The form of a tuple of entries.  A plain int is its own
    numerator; any other entry is read by ``_as_scalar``, which refuses
    a bool, float, complex or malformed text."""
    if all(type(x) is int for x in entries):
        return 1, entries, None
    return _clear([x if type(x) is int else _as_scalar(x) for x in entries])


def _parsed(texts):
    """The form of scalar texts, each read by ``parse_parts`` (a
    malformed text raises its ValueError); the parts are not reduced, so
    one gcd makes the form canonical."""
    return _normal(*_common_parts(*([*zip(*map(parse_parts, texts))] or [()] * 4)))


def _normal(den, re, im):
    """(den, re, im) made canonical with one gcd: den > 0, no common
    factor, tuples, and im None when every imaginary part is zero."""
    if im is not None and not any(im):
        im = None
    g = gcd(den, *re, *im) if im else gcd(den, *re)
    if den < 0:
        g = -g
    if g == 1:
        return den, tuple(re), im and tuple(im)
    return den // g, tuple(x // g for x in re), im and tuple(x // g for x in im)


def _negated(xs):
    return xs and tuple(map(neg, xs))


def _common(forms):
    """(d, res, ims): each form's numerators over the least common
    denominator d; ims is None when every form is real, else a real
    form's imaginary parts are zeros."""
    d = lcm(*(den for den, _, _ in forms))
    complex_ = any(im is not None for _, _, im in forms)
    res, ims = [], []
    for den, re, im in forms:
        s = d // den
        res.append(re if s == 1 else [s * x for x in re])
        if complex_:
            im = (0,) * len(re) if im is None else im
            ims.append(im if s == 1 else [s * x for x in im])
    return d, res, ims if complex_ else None


def _sum(f, g, sign):
    """The form of f + sign * g, entrywise."""
    d, (ra, rb), ims = _common([f, g])
    re = [x + sign * y for x, y in zip(ra, rb)]
    return _normal(d, re, ims and [x + sign * y for x, y in zip(*ims)])


def _concat(forms):
    """The form whose numerators are those of forms, one after another."""
    d, res, ims = _common(forms)
    flat = lambda parts: [x for part in parts for x in part]
    return _normal(d, flat(res), ims and flat(ims))


def _mul(n, k, p, ar, ai, br, bi):
    """(re, im), row-major, of the n x k by k x p product of the
    numerators (ar, ai) and (br, bi); im is None for a real product."""

    def dots(a, b):
        rows = [a[i * k : (i + 1) * k] for i in range(n)]
        cols = [b[j::p] for j in range(p)]
        return [sum(map(mul, r, c)) for r in rows for c in cols]

    re = dots(ar, br)
    if ai is None and bi is None:
        return re, None
    im = dots(ar, bi) if bi is not None else [0] * len(re)
    if ai is not None:
        im = [x + y for x, y in zip(im, dots(ai, br))]
        if bi is not None:
            re = [x - y for x, y in zip(re, dots(ai, bi))]
    return re, im


def _product(a, b, p):
    """The form of a @ b, for b with p columns."""
    return _normal(a.den * b.den, *_mul(a.rows, a.cols, p, a.re, a.im, b.re, b.im))


def _outer(ar, ai, br, bi):
    """(re, im), row-major, of every product a_s b_t of the numerators
    (ar, ai) and (br, bi), with no dot product; im is None for a real
    product."""
    if ai is None and bi is None:
        return [x * y for x in ar for y in br], None
    ai, bi = ai or [0] * len(ar), bi or [0] * len(br)
    pairs = [(x, u, y, v) for x, u in zip(ar, ai) for y, v in zip(br, bi)]
    return [x * y - u * v for x, u, y, v in pairs], [x * v + u * y for x, u, y, v in pairs]


def _scaled(form, c):
    """The form of c times each entry."""
    den, re, im = form
    dc, cr, ci = _entries_form((c,))
    return _normal(den * dc, *_outer(cr, ci, re, im))


def _divided(zs, d, gaussian):
    """The form of [z / d for z in zs]; z and d are ints, or (re, im)
    pairs when gaussian, where the division is a product with conj(d)
    and a division by |d|^2."""
    if not gaussian:
        return _normal(d, zs, None)
    dr, di = d
    if not di:
        return _normal(dr, [zr for zr, _ in zs], [zi for _, zi in zs])
    return _normal(
        dr * dr + di * di,
        [zr * dr + zi * di for zr, zi in zs],
        [zi * dr - zr * di for zr, zi in zs],
    )


class Matrix:
    """Dense row-major matrix of exact scalars, in the stored form of the
    module doc."""

    __slots__ = ("rows", "cols", "den", "re", "im")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        entries = tuple(entries)
        form = _entries_form(entries)
        if len(entries) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        _set(self, rows, cols, form)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _like(self, form):
        return _matrix(self.rows, self.cols, form)

    def _key(self):
        return (self.rows, self.cols, *self._form)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def _form(self):
        return self.den, self.re, self.im

    @property
    def entries(self) -> tuple:
        """The entries as ComplexRationals, row-major, made on each read."""
        im = self.im or repeat(0)
        return tuple(map(from_integers, self.re, im, repeat(self.den)))

    def texts(self) -> list:
        """The canonical entry strings ('3', '-1/2', '1/2+3i'), row-major."""
        if self.im is None:
            return list(map(format_parts, repeat(self.den), self.re))
        return list(map(format_parts, repeat(self.den), self.re, self.im))

    def _entry(self, t):
        return from_integers(self.re[t], self.im[t] if self.im else 0, self.den)

    @property
    def is_zero(self) -> bool:
        return self.im is None and not any(self.re)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        return Matrix(*_flattened(rows))

    @staticmethod
    def from_texts(rows: Sequence[Sequence]) -> "Matrix":
        """The matrix whose rows are lists of scalar texts ('3', '-1/2',
        '1/2+3i')."""
        r, c, texts = _flattened(rows)
        return _matrix(r, c, _parsed(texts))

    @staticmethod
    def from_columns(columns: Sequence[Vector], dim: int | None = None) -> "Matrix":
        n = _columns_dim(columns, dim)
        d, res, ims = _common([v._form for v in columns])
        rows = lambda parts: [x for row in zip(*parts) for x in row]
        return _matrix(n, len(columns), _normal(d, rows(res), ims and rows(ims)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return _matrix(rows, cols, (1, (0,) * (rows * cols), None))

    @staticmethod
    def identity(n: int) -> "Matrix":
        re = [0] * (n * n)
        re[:: n + 1] = [1] * n
        return _matrix(n, n, (1, tuple(re), None))

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
        return self._entry(i * self.cols + j)

    def _part(self, pick):
        """The canonical form of pick(numerators), for re and im alike."""
        return _normal(self.den, pick(self.re), self.im and pick(self.im))

    def row(self, i: int) -> Vector:
        if not 0 <= i < self.rows:
            raise ShapeError(f"row {i} out of range for {self.shape}")
        c = self.cols
        return _vector(self._part(lambda xs: xs[i * c : (i + 1) * c]))

    def col(self, j: int) -> Vector:
        if not 0 <= j < self.cols:
            raise ShapeError(f"column {j} out of range for {self.shape}")
        c = self.cols
        return _vector(self._part(lambda xs: xs[j::c]))

    def columns(self):
        return [self.col(j) for j in range(self.cols)]

    def row_list(self):
        c, e = self.cols, self.entries
        return [list(e[i * c : (i + 1) * c]) for i in range(self.rows)]

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        """Rows r0:r1, columns c0:c1 (half-open, 0-based)."""
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise ShapeError(f"rows {r0}:{r1}, columns {c0}:{c1} out of range for {self.shape}")
        c = self.cols
        pick = lambda xs: [x for i in range(r0, r1) for x in xs[i * c + c0 : i * c + c1]]
        return _matrix(r1 - r0, c1 - c0, self._part(pick))

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        return self._like(_sum(self._form, other._form, 1))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ShapeError(f"cannot subtract {other.shape} from {self.shape}")
        return self._like(_sum(self._form, other._form, -1))

    def __neg__(self):
        return self._like((self.den, _negated(self.re), _negated(self.im)))

    def scale(self, c):
        return self._like(_scaled(self._form, c))

    def minus_identity(self, lam) -> "Matrix":
        """self - lam I, changing only the diagonal (square matrices)."""
        if not self.is_square:
            raise ShapeError(f"{self.shape} matrix minus a multiple of I")
        n, lam = self.rows, _as_scalar(lam)
        d = lcm(self.den, lam.re.denominator, lam.im.denominator)
        s = d // self.den

        def shifted(xs, part):  # xs over d, less part over d on the diagonal
            xs = [s * x for x in xs] if s != 1 else list(xs)
            part = part.numerator * (d // part.denominator)
            xs[:: n + 1] = [x - part for x in xs[:: n + 1]]
            return xs

        im = self.im if self.im is not None or not lam.im else (0,) * (n * n)
        return self._like(_normal(d, shifted(self.re, lam.re), im and shifted(im, lam.im)))

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        vector = isinstance(other, Vector)
        if self.cols != other.rows:
            if vector:
                raise ShapeError(f"{self.shape} @ vector of dim {other.rows}")
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        p = other.cols
        form = _product(self, other, p)
        return _vector(form) if vector else _matrix(self.rows, p, form)

    def transpose(self) -> "Matrix":
        return _matrix(self.cols, self.rows, self._turned(self.im))

    def _turned(self, im):
        """The transposed form, with im as the imaginary parts."""
        c = self.cols
        turn = lambda xs: tuple(chain.from_iterable(xs[j::c] for j in range(c)))
        return self.den, turn(self.re), im and turn(im)

    @property
    def H(self) -> "Matrix":
        return _matrix(self.cols, self.rows, self._turned(_negated(self.im)))

    def __repr__(self):
        body = "; ".join(", ".join(map(str, row)) for row in self.row_list())
        return f"Matrix({self.rows}x{self.cols}: [{body}])"

    # -- exact elimination ---------------------------------------------------

    def exact_rank(self) -> int:
        """Rank over the complex rationals."""
        if self.rows == 0 or self.cols == 0:
            return 0
        _, rows, gaussian = _integer_rows(self)
        return len(_eliminate(rows, self.cols, gaussian)[0])

    def det(self):
        """Exact determinant (square matrices only): the last Bareiss
        pivot of the integer rows, with the sign of the row swaps,
        divided by the product of the row scales."""
        if not self.is_square:
            raise ShapeError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return ONE
        scales, rows, gaussian = _integer_rows(self)
        piv_cols, sign = _eliminate(rows, n, gaussian)
        if len(piv_cols) < n:
            return ZERO
        re, im = rows[-1][-1] if gaussian else (rows[-1][-1], 0)
        return from_integers(re, im, sign * prod(scales))

    def charpoly(self) -> Vector:
        """The n + 1 coefficients of det(x I - self), leading 1 first.

        The product of the characteristic polynomials of the diagonal
        blocks of the numerators Z = den self, each taken on its own
        (``_block_polys``), so a block costs the same wherever it comes in
        the split.  Coefficient j of det(x I - self) is c_j / den^j for
        c_j that of det(x I - Z).
        """
        if not self.is_square:
            raise ShapeError(f"charpoly of a {self.rows}x{self.cols} matrix")
        n, den = self.rows, self.den
        blocks, gaussian, times = _block_polys(self)
        one, zero = ((1, 0), (0, 0)) if gaussian else (1, 0)
        poly = [one]
        for _, _, block_poly in blocks:
            poly = _poly_product(poly, block_poly, zero, times)
        scaled = lambda xs: [x * den ** (n - j) for j, x in enumerate(xs)]
        re, im = map(scaled, zip(*poly)) if gaussian else (scaled(poly), None)
        return _vector(_normal(den**n, re, im))

    def solve(self, rhs: "Matrix") -> "Matrix":
        """Solve self @ X = rhs for square nonsingular self; X has rhs's
        shape and kind (``_like``), a Vector for a Vector."""
        if not self.is_square:
            raise ShapeError("solve requires a square matrix")
        if rhs.rows != self.rows:
            raise ShapeError("right-hand side has wrong number of rows")
        n = self.rows
        _, rows, gaussian = _integer_rows(_hcat([self, rhs]))
        piv_cols, _ = _eliminate(rows, n, gaussian, reduced=True)
        if len(piv_cols) < n:
            raise SingularMatrixError(
                f"matrix is singular (rank {len(piv_cols)})",
                rank=len(piv_cols),
            )
        # rows are now d [I | X] with d the last pivot
        d = rows[-1][n - 1] if n else 1
        return rhs._like(_divided([x for row in rows for x in row[n:]], d, gaussian))

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
        _, rows, gaussian = _integer_rows(self)
        piv_cols, _ = _eliminate(rows, m, gaussian, reduced=True)
        # the pivot rows are now d times the reduced echelon form
        d = rows[len(piv_cols) - 1][piv_cols[-1]] if piv_cols else 1
        neg_d = (-d[0], -d[1]) if gaussian else -d
        piv_set = set(piv_cols)
        basis = []
        for fc in range(m):
            if fc in piv_set:
                continue
            z = [(0, 0) if gaussian else 0] * m  # z / -d is the basis vector
            z[fc] = neg_d
            for row, pc in zip(rows, piv_cols):
                z[pc] = row[fc]
            basis.append(_vector(_divided(z, neg_d, gaussian)))
        return basis


class Vector(Matrix):
    """An exact column vector: a Matrix with one column, read by one index,
    whose own results (``_like``) and products A @ v stay Vectors."""

    __slots__ = ()

    def __init__(self, entries: Iterable):
        form = _entries_form(tuple(entries))
        _set(self, len(form[1]), 1, form)

    @staticmethod
    def from_texts(texts: Sequence) -> "Vector":
        """The vector of scalar texts such as '3', '-1/2' or '1/2+3i'."""
        return _vector(_parsed(texts))

    def _like(self, form):
        return _vector(form)

    @property
    def dim(self) -> int:
        return self.rows

    @staticmethod
    def zero(n: int) -> "Vector":
        return _vector((1, (0,) * n, None))

    @staticmethod
    def unit(n: int, i: int) -> "Vector":
        """Standard basis vector e_{i+1} (0-based index i) in C^n."""
        if not 0 <= i < n:
            raise ShapeError(f"unit index {i} out of range for dim {n}")
        return _vector((1, (0,) * i + (1,) + (0,) * (n - i - 1), None))

    def __getitem__(self, i: int):
        if not 0 <= i < self.rows:
            raise ShapeError(f"index {i} out of range for dim {self.rows}")
        return self._entry(i)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return self.rows

    def __repr__(self):
        return "Vector([" + ", ".join(str(e) for e in self.entries) + "])"


def inner(u: Vector, v: Vector):
    """u* v, conjugate-linear in the left argument."""
    if u.dim != v.dim:
        raise ShapeError("inner product of different dimensions")
    (re,), im = _mul(1, u.dim, 1, u.re, _negated(u.im), v.re, v.im)
    return from_integers(re, im[0] if im else 0, u.den * v.den)


def outer_plain(u: Vector, v: Vector) -> Matrix:
    """Rank-one matrix u v^T (plain transpose, Brauer's convention)."""
    return _matrix(u.dim, v.dim, _normal(u.den * v.den, *_outer(u.re, u.im, v.re, v.im)))


def _flattened(rows):
    """(row count, column count, entries row-major) of equal-length rows."""
    r = len(rows)
    c = len(rows[0]) if r else 0
    if any(len(row) != c for row in rows):
        raise ShapeError("ragged rows")
    return r, c, [e for row in rows for e in row]


# the slot setters, which the immutable class's __setattr__ does not reach
_set_rows, _set_cols, _set_den, _set_re, _set_im = (
    Matrix.__dict__[f].__set__ for f in Matrix.__slots__
)


def _set(out, rows, cols, form):
    _set_rows(out, rows)
    _set_cols(out, cols)
    _set_den(out, form[0])
    _set_re(out, form[1])
    _set_im(out, form[2])
    return out


def _vector(form) -> Vector:
    return _set(object.__new__(Vector), len(form[1]), 1, form)


def _matrix(rows, cols, form) -> Matrix:
    return _set(object.__new__(Matrix), rows, cols, form)


def _columns_dim(columns, dim):
    """The dimension that columns share, which must be dim when given;
    an empty list has dimension dim."""
    if not columns:
        if dim is None:
            raise ShapeError("cannot infer dimension of empty column set")
        return dim
    n = columns[0].dim
    if any(v.dim != n for v in columns):
        raise ShapeError("columns of different dimensions")
    if dim is not None and n != dim:
        raise ShapeError(f"columns of dimension {n}, expected {dim}")
    return n


def _adjoint_of_columns(columns, dim: int | None = None) -> Matrix:
    """Matrix.from_columns(columns, dim).H, read straight from the
    conjugated numerators of the columns, which are its rows: U* of a
    chain list in one step, with no transpose."""
    n = _columns_dim(columns, dim)
    den, re, im = _concat([v._form for v in columns])
    return _matrix(len(columns), n, (den, re, _negated(im)))


def _moved(M: Matrix, down: bool) -> Matrix:
    """M moved one row down, or one column right, its first row or column
    zero: the numerators moved on by a row, or by one place and cleared."""
    n, c = M.rows, M.cols

    def move(xs):
        if down:
            return (0,) * c + xs[:-c]
        xs = [0, *xs[:-1]]
        xs[::c] = [0] * n
        return xs

    return _matrix(n, c, _normal(M.den, move(M.re), M.im and move(M.im)))


def power_ranks(M: Matrix, eigenvalues) -> list:
    """For each mu of eigenvalues, an iterator of rank((M - mu I)^j) for
    j = 1, 2, ...: the sum over M's diagonal blocks (``_diagonal_blocks``),
    which M - mu I shares, as it changes only the diagonal.

    M is split once, and each block's characteristic polynomial is taken
    once (``_block_polys``), on the numerators Z = den M, so that
    den (M - mu I) is Z - r I on each block, r = den mu.  Z is integral,
    so r is an eigenvalue of Z only as an integer, or a Gaussian integer
    (Z[i] is integrally closed): with mu = m / e in lowest terms, only
    when e divides den.  Then a block of size s where r is a root a times
    (``_multiplicity``) falls to its floor s - a (``_block_ranks``), and a
    block where a = 0 adds s to every rank and takes no elimination.
    Entries and r are ints, or (re, im) pairs where M or mu is complex.
    """
    if not M.is_square:
        raise ShapeError(f"powers of a {M.rows}x{M.cols} matrix")
    den = M.den
    blocks, gaussian, _ = _block_polys(M)

    def ranks(mu):
        e, (re,), im = _entries_form((mu,))
        if den % e:  # r = den mu is no (Gaussian) integer
            return repeat(M.rows)
        complex_ = gaussian or im is not None
        r = (den // e * re, den // e * im[0] if im else 0) if complex_ else den // e * re
        full, held = 0, []
        for Z, s, poly in blocks:
            if complex_ and not gaussian:  # a real block at a complex mu
                Z, poly = [(x, 0) for x in Z], [(c, 0) for c in poly]
            a = _multiplicity(poly, r, complex_)
            if a:
                held.append(_block_ranks(Z, s, r, s - a, complex_))
            else:
                full += s
        return map(sum, zip(repeat(full), *held))

    return [ranks(mu) for mu in eigenvalues]


def schur_blocks(C: Matrix, A: Matrix, B: Matrix, sizes) -> list:
    """The diagonal blocks of the exact C A^{-1} B, A square and
    nonsingular: the pairs (r_i, m_i) of sizes split C's rows and B's
    columns in order, and [(r, m)] gives the whole product.

    One forward Bareiss pass runs over the integer rows of [A | B]; each
    row of C_i, bordered by zeros, is then reduced below its pivot rows
    by the lazy updates of ``_eliminate``, over A's and B_i's columns
    alone.  It ends as det [[A, B_j], [C_i, 0]] = -d s_i (C A^{-1} B)_ij,
    d being the last pivot and s_i the row's scale (Bareiss 1968), so
    each block is divided once, with no solve.  A singular A raises
    SingularMatrixError with the rank that ``solve`` reports.
    """
    if not A.is_square:
        raise ShapeError("schur_blocks requires a square matrix")
    n, rs, ms = A.rows, [r for r, _ in sizes], [m for _, m in sizes]
    if (B.rows, C.cols, sum(rs), sum(ms)) != (n, n, C.rows, B.cols) or min(rs + ms, default=0) < 0:
        raise ShapeError(f"cannot border {A.shape} with {C.shape} and {B.shape} in blocks {sizes}")
    _, tops, gaussian = _integer_rows(_hcat([A, B]), C.im is not None)
    rank = len(_eliminate(tops, n, gaussian)[0])
    if rank < n:
        raise SingularMatrixError(f"matrix is singular (rank {rank})", rank=rank)
    step, zero = (_step_gaussian, (0, 0)) if gaussian else (_step_integer, 0)
    pivots = [(1, 0) if gaussian else 1] + [top[t] for t, top in enumerate(tops)]
    scales, rows, _ = _integer_rows(C, gaussian)
    blocks = []
    for (r, m), r0, m0 in zip(sizes, accumulate([0] + rs), accumulate([n] + ms)):
        own = [top[:n] + top[m0 : m0 + m] for top in tops]
        zs, L = [], lcm(*scales[r0 : r0 + r])
        for s, row in zip(scales[r0 : r0 + r], rows[r0 : r0 + r]):
            row, since = row + [zero] * m, 0  # since: the step the row is scaled to
            for t, top in enumerate(own, 1):
                if row[t - 1] != zero:
                    row = step(row, top, pivots[t], row[t - 1], pivots[since], t - 1)
                    since = t
            # entry (i, j) is z_ij / (-d s_i): over -d L, each row times L / s_i
            z, f = step(row, row, pivots[-1], zero, pivots[since], n)[n:], L // s
            zs += [(a * f, b * f) for a, b in z] if gaussian else [x * f for x in z]
        den, re, im = _divided(zs, pivots[-1], gaussian)
        blocks.append(_matrix(r, m, _normal(-den * L, re, im)))
    return blocks


# -- fraction-free integer kernel ----------------------------------------------


def _diagonal_blocks(M: Matrix):
    """The index groups, each ascending and in order of their least
    index, of the connected components of M's nonzero pattern off the
    diagonal (i and j joined when entry (i, j) or (j, i) is nonzero):
    permuting M to them is an exact similarity to the direct sum of its
    principal submatrices on them.  Each nonzero entry joins the groups
    of its row and column, the smaller relabelled into the larger."""
    n = M.rows
    label, members, joins = list(range(n)), [[i] for i in range(n)], n - 1
    for t in compress(range(n * n), M.re if M.im is None else map(or_, M.re, M.im)):
        a, b = label[t // n], label[t % n]
        if a != b:
            if len(members[a]) < len(members[b]):
                a, b = b, a
            for i in members[b]:
                label[i] = a
            members[a], members[b], joins = members[a] + members[b], None, joins - 1
            if not joins:  # one group is left
                return [list(range(n))]
    return sorted(sorted(g) for g in members if g)


def _block_polys(M: Matrix):
    """(blocks, gaussian, times): for each diagonal block of M
    (``_diagonal_blocks``) the numerators Z = den M on it, row-major, its
    size s and the coefficients of det(x I - Z) (``_berkowitz``), as
    (Z, s, poly); and ``_numerators``' gaussian and times."""
    n = M.rows
    flat, gaussian, times = _numerators(M)
    blocks = []
    for g in _diagonal_blocks(M):
        s = len(g)
        Z = flat if s == n else [flat[i * n + j] for i in g for j in g]
        blocks.append((Z, s, _berkowitz(Z, s, gaussian, times)))
    return blocks, gaussian, times


def _berkowitz(Z, s, gaussian, times):
    """The coefficients, leading first, of det(x I - Z) for the s x s
    block Z of integer (or Gaussian-integer) numerators, row-major, by
    Berkowitz's division-free algorithm (Berkowitz 1984): with Z_r the
    leading r x r block, det(x I - Z_(r+1)) is the lower triangular
    Toeplitz matrix with first column 1, -z, -R C, -R Z_r C, ... times
    the coefficients of det(x I - Z_r), where z, R and C are the diagonal
    entry, the row and the column that Z_(r+1) adds; where R or C is
    zero, as in a triangular block, the column is 1, -z, 0, ....
    """
    one, zero, negate = ((1, 0), (0, 0), _negated) if gaussian else (1, 0, neg)
    poly = [one]
    for r in range(s):
        row, col, z = Z[r * s : r * s + r], Z[r : r * s : s], Z[r * s + r]
        if row.count(zero) == r or col.count(zero) == r:
            poly = _times_root(poly, z, gaussian)
            continue
        # the columns of the block and -C: one product gives R Z^(k+1) and -R Z^k C
        cols = [Z[j : r * s : s] for j in range(r)] + [list(map(negate, col))]
        t, k = [one, negate(z)], len(poly) - 1
        for _ in range(k):
            *row, c = times(row, cols)
            t.append(c)
        # row i of the Toeplitz matrix is u[k + 1 - i : 2k + 2 - i]
        u = t[::-1] + [zero] * k
        poly = times(poly, [u[k + 1 - i : 2 * k + 2 - i] for i in range(k + 2)])
    return poly


def _times_root(poly, z, gaussian):
    """The coefficients, leading first, of poly(x) (x - z)."""
    if not gaussian:
        return [a - z * b for a, b in zip(poly + [0], [0] + poly)]
    zr, zi = z
    pairs = zip(poly + [(0, 0)], [(0, 0)] + poly)
    return [(ar - zr * br + zi * bi, ai - zr * bi - zi * br) for (ar, ai), (br, bi) in pairs]


def _poly_product(p, q, zero, times):
    """The coefficients, leading first, of p(x) q(x): the shorter row
    times the Toeplitz columns of the longer."""
    if len(p) > len(q):
        p, q = q, p
    pad = [zero] * (len(p) - 1)
    q = pad + q + pad
    return times(p, [q[k : k + len(p)][::-1] for k in range(len(q) - len(p) + 1)])


def _multiplicity(poly, r, gaussian):
    """How often x - r divides the monic poly, whose coefficients, leading
    first, are ints, as is r, or (re, im) pairs when gaussian: the
    divisions by Horner's scheme, exact over Z and Z[i] for a monic
    divisor, that leave remainder 0."""
    if gaussian:
        rr, ri = r
        step = lambda b, c: (c[0] + rr * b[0] - ri * b[1], c[1] + rr * b[1] + ri * b[0])
        zero = (0, 0)
    else:
        step = lambda b, c: c + r * b
        zero = 0
    a = 0
    while len(poly) > 1:
        *quotient, rest = accumulate(poly, step)
        if rest != zero:
            break
        poly, a = quotient, a + 1
    return a


def _block_ranks(Z, s, r, floor, gaussian):
    """Iterate rank(N^j), j = 1, 2, ..., for N = Z - r I, Z an s x s
    block, whose ranks fall to floor.

    The row space of N^(j+1) is spanned by (rows spanning that of N^j) N,
    so each step multiplies only the rank(N^j) pivot rows that
    elimination leaves by the columns of N.  The pivot rows are reduced
    (fraction-free Gauss-Jordan) and cut to their least integer
    multiples, which depend on the row space alone, so entries do not
    grow from step to step.  Each fall is at least 1 and at most the one
    before (the Weyr characteristic), so at the floor, 1 above it or
    after a fall of 1 the later ranks are known and take no elimination.
    """
    times = _times_gaussian if gaussian else _times_integer
    N, d = list(Z), Z[:: s + 1]
    N[:: s + 1] = [(x - r[0], y - r[1]) for x, y in d] if gaussian else [x - r for x in d]
    rows = [N[i * s : (i + 1) * s] for i in range(s)]
    columns = [N[j::s] for j in range(s)]
    prev, rank = s + 2, s  # rank(N^0), after no fall that forces anything
    while min(prev - rank, rank - floor) > 1:
        if rank < s:
            rows = [times(_primitive(row, gaussian), columns) for row in rows[:rank]]
        prev, rank = rank, len(_eliminate(rows, s, gaussian, reduced=True)[0])
        yield rank
    yield from range(rank - 1, floor, -1)
    yield from repeat(floor)


def _integer_rows(M: Matrix, gaussian=False):
    """(row scales, integer rows, gaussian): row i is M's numerators over
    g_i = gcd(den, content of row i), which is M's row i times
    scales[i] = den / g_i; entries are ints, or (re, im) pairs when
    gaussian is asked for or some imaginary part of M is nonzero."""
    den, re, im, c = M.den, M.re, M.im, M.cols
    gaussian = gaussian or im is not None
    scales, rows = [], []
    for i in range(M.rows):
        r = re[i * c : (i + 1) * c]
        if not gaussian:
            g = gcd(den, *r)
            rows.append([x // g for x in r] if g > 1 else list(r))
        else:
            s = im[i * c : (i + 1) * c] if im else [0] * c
            g = gcd(den, *r, *s)
            rows.append([(x // g, y // g) for x, y in zip(r, s)])
        scales.append(den // g)
    return scales, rows, gaussian


def _numerators(M: Matrix):
    """(flat, gaussian, times): M's numerators row-major, as ints or as
    (re, im) pairs when some imaginary part is nonzero, and the
    row-times-columns product for them."""
    if M.im is None:
        return list(M.re), False, _times_integer
    return list(zip(M.re, M.im)), True, _times_gaussian


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

    Scaling is lazy.  With f = 0 the update only scales the row by
    p_t / p_(t-1), and over steps s+1..t these factors telescope to
    p_t / p_s; so a row keeps the step s of its last update, skips every
    step where its f is 0, and is next updated in one fused step,
    (p_t * row - f * pivot_row) / p_s, a Bareiss minor, so the division
    is still exact.  A row is brought up to date (times p_(t-1) / p_s)
    when it becomes the pivot row, and every row still lazy is at the
    end, so the rows equal those of eager elimination.
    """
    step = _step_gaussian if gaussian else _step_integer
    zero = (0, 0) if gaussian else 0
    n = len(rows)
    piv_cols = []
    sign = 1
    pivots = [(1, 0) if gaussian else 1]  # pivots[t], the pivot of step t
    since = [0] * n  # since[i], the step row i is scaled to
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, n) if rows[i][c] != zero), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            since[r], since[pr] = since[pr], since[r]
            sign = -sign
        t = len(pivots)
        # the rows from r on are zero left of c
        top = rows[r] = step(rows[r], rows[r], pivots[-1], zero, pivots[since[r]], c)
        since[r] = t
        p = top[c]
        for i in range(0 if reduced else r + 1, n):
            f = rows[i][c]
            if f != zero and i != r:
                rows[i] = step(rows[i], top, p, f, pivots[since[i]], 0 if i < r else c)
                since[i] = t
        pivots.append(p)
        piv_cols.append(c)
        r += 1
    # pivot rows stay final unless reduced; bring the lazy rows up to date
    last = pivots[-1]
    for i in range(0 if reduced else r, n):
        rows[i] = step(rows[i], rows[i], last, zero, pivots[since[i]], 0)
    return piv_cols, sign


def _step_integer(row, top, p, f, q, lo):
    """One Bareiss row update over Z, (p row - f top) / q from column lo
    on; with f = 0 it scales the row by p / q."""
    if not f and p == q:
        return row
    return row[:lo] + [(p * x - f * y) // q for x, y in zip(row[lo:], top[lo:])]


def _step_gaussian(row, top, p, f, q, lo):
    """One Bareiss row update over Z[i], from column lo on; the division
    by q is a product with conj(q) and an exact division by |q|^2."""
    (pr, pi), (fr, fi), (qr, qi) = p, f, q
    if not (fr or fi) and pr == qr and pi == qi:
        return row
    nq = qr * qr + qi * qi
    out = row[:lo]
    for (xr, xi), (yr, yi) in zip(row[lo:], top[lo:]):
        zr = pr * xr - pi * xi - fr * yr + fi * yi
        zi = pr * xi + pi * xr - fr * yi - fi * yr
        out.append(((zr * qr + zi * qi) // nq, (zi * qr - zr * qi) // nq))
    return out


# -- building matrices from matrices -------------------------------------------


def jordan_block(lam, k: int) -> Matrix:
    """k-by-k upper bidiagonal Jordan block: lam on the diagonal, 1 above."""
    if k < 1:
        raise ShapeError(f"Jordan block size must be >= 1, got {k}")
    return jordan_sum(((lam, k),))


def jordan_sum(blocks, parts=()) -> Matrix:
    """The direct sum of the Jordan blocks J_size(lam), for (lam, size)
    in blocks, with each (i, j, M) of parts written over its zeros, M's
    top-left entry at (i, j).

    The matrix is built in one pass: every lam and every part is put
    over one common denominator d, each lam is written on the diagonal
    of its block and d (a one) above it inside the block.
    """
    n = sum(size for _, size in blocks)
    lams = _entries_form(tuple(lam for lam, _ in blocks))
    d, res, ims = _common([lams, *(M._form for _, _, M in parts)])
    re = [0] * (n * n)
    im = ims and [0] * (n * n)
    t = 0
    for b, (_, size) in enumerate(blocks):
        for i in range(t, t + size):
            re[i * (n + 1)] = res[0][b]
            if im:
                im[i * (n + 1)] = ims[0][b]
            if i + 1 < t + size:
                re[i * (n + 1) + 1] = d
        t += size
    for p, (i, j, M) in enumerate(parts, 1):
        w = M.cols
        for r in range(M.rows):
            s = (i + r) * n + j
            re[s : s + w] = res[p][r * w : (r + 1) * w]
            if im:
                im[s : s + w] = ims[p][r * w : (r + 1) * w]
    return _matrix(n, n, _normal(d, re, im))


def _hcat(mats) -> Matrix:
    """The matrices, each with the same number of rows, side by side."""
    n, widths = mats[0].rows, [m.cols for m in mats]
    d, res, ims = _common([m._form for m in mats])
    rows = lambda parts: [
        x for i in range(n) for p, w in zip(parts, widths) for x in p[i * w : (i + 1) * w]
    ]
    return _matrix(n, sum(widths), _normal(d, rows(res), ims and rows(ims)))


def hstack(*mats: Matrix) -> Matrix:
    mats = [m for m in mats if m.cols > 0 or m.rows > 0]
    if not mats:
        raise ShapeError("hstack of nothing")
    n = mats[0].rows
    if any(m.rows != n for m in mats):
        raise ShapeError("hstack with differing row counts")
    return _hcat(mats)


def vstack(*mats: Matrix) -> Matrix:
    c = mats[0].cols
    if any(m.cols != c for m in mats):
        raise ShapeError("vstack with differing column counts")
    return _matrix(sum(m.rows for m in mats), c, _concat([m._form for m in mats]))

