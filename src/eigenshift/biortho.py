"""Biorthogonality of generalized eigenvector chains and resolvent identities.

Inner products are conjugate-linear in the left argument throughout
(u* v), matching the star convention used by the shift construction.

Tables are batched: a Gram table is one product U* V of the stacked
chains, U* read in one step from the left chain's conjugated numerators
(``linalg._adjoint_of_columns``), and the resolvent identities of
several chain pairs come from one forward Bareiss pass over
[A - lam I | V] (``linalg.schur_blocks``), below whose pivot rows each
pair's rows of U* are reduced over its own columns of V alone: that
leaves the pair's diagonal block of U* (A - lam I)^{-1} V with no solve,
no product and no cross-pair entry.
With the chain recurrences, one product per side of each chain
(``synthesis.check_chains``), a verify job with p chain pairs therefore
makes one forward pass and 2p + 1 products.

A table is a plain ``Matrix``, and the checks read its integer form: one
denominator serves every entry, so two entries are equal, or an entry
is zero, exactly when their numerators say so, and no scalar is made.
"""

from __future__ import annotations

from itertools import repeat
from typing import Sequence

from .errors import ResolventError, ShapeError, SingularMatrixError
from .linalg import Matrix, Vector, _adjoint_of_columns, _as_scalar, schur_blocks
from .synthesis import ChainPair


def gram_table(left: Sequence[Vector], right: Sequence[Vector]) -> Matrix:
    """Exact p x q table of u_i* v_j, as the one product U* V."""
    if not left or not right:
        raise ShapeError("gram_table needs nonempty chains")
    n = left[0].dim
    if any(v.dim != n for v in left) or any(v.dim != n for v in right):
        raise ShapeError("all chain vectors must share the ambient dimension")
    return _adjoint_of_columns(left) @ Matrix.from_columns(list(right))


def _parts(table: Matrix) -> list:
    """The (re, im) numerators of the entries, row-major."""
    return list(zip(table.re, table.im or repeat(0)))


def _antitriangle_entry(table: Matrix, bound: int):
    """First (i, j), 1-based, with i + j <= bound and x_{i,j} != 0, or None."""
    x, q = _parts(table), table.cols
    for i in range(1, table.rows + 1):
        for j in range(1, min(q, bound - i) + 1):
            if x[(i - 1) * q + j - 1] != (0, 0):
                return (i, j)
    return None


def check_hankel(table: Matrix):
    """(ok, first violation) for the same-eigenvalue Gram pattern.

    The pattern requires x_{i,j} = 0 for 2 <= i+j <= max(p, q) and
    constancy along anti-diagonals: x_{i,j} = x_{i-1,j+1}.  The second
    return value is None, or a ((i, j), reason) pair in 1-based indices.
    """
    p, q = table.shape
    at = _antitriangle_entry(table, max(p, q))
    if at is not None:
        return False, (at, "leading anti-triangle entry nonzero")
    x = _parts(table)
    for i in range(2, p + 1):
        for j in range(1, q):
            t = (i - 1) * q + j - 1  # x_{i,j}; x_{i-1,j+1} is entry t - q + 1
            if x[t] != x[t - q + 1]:
                return False, ((i, j), "anti-diagonal not constant")
    return True, None


def resolvent_identities(A: Matrix, lam, pairs: Sequence[ChainPair]) -> list:
    """For each pair, whether u_i* (A - lam I)^{-1} v_j = 0 for all i + j <= p.

    The identities read u_1 .. u_(p-1) and v_1 .. v_(p-1) only, and a
    pair's are the leading anti-triangle of its own diagonal block of
    U* (A - lam I)^{-1} V, which ``schur_blocks`` gives for all pairs
    from one pass.  The pass runs even when every pair has length 1, so
    a point of the spectrum always raises ResolventError.
    """
    lam = _as_scalar(lam)
    n = A.rows
    heads = [pair.length - 1 for pair in pairs]
    U_H = _adjoint_of_columns([u for pair in pairs for u in pair.left[:-1]], n)
    V = Matrix.from_columns([v for pair in pairs for v in pair.right[:-1]], n)
    try:
        own = schur_blocks(U_H, A.minus_identity(lam), V, [(h, h) for h in heads])
    except SingularMatrixError:
        raise ResolventError(
            f"resolvent point {lam} lies in the spectrum"
        ) from None
    return [_antitriangle_entry(table, h + 1) is None for table, h in zip(own, heads)]


def resolvent_orthogonality_check(A: Matrix, lam, pair: ChainPair) -> bool:
    """True iff u_i* (A - lam I)^{-1} v_j = 0 for all i + j <= p."""
    (ok,) = resolvent_identities(A, lam, [pair])
    return ok
