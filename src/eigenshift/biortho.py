"""Biorthogonality of generalized eigenvector chains and resolvent identities.

Inner products are conjugate-linear in the left argument throughout
(u* v), matching the star convention used by the shift construction.

Tables are batched: a Gram table is one product U* V of the stacked
chains, and the resolvent identities of several chain pairs come from
one forward Bareiss pass over the bordered matrix
[[A - lam I, V], [U*, 0]] (``linalg.schur_product``), which leaves
U* (A - lam I)^{-1} V in its trailing block with no solve and no
product; each pair reads its own diagonal block.  With the chain
recurrences, which ``synthesis.check_chains`` checks with one product
per side, A V and A* U, a verify job therefore makes one elimination
and three products, however many chain pairs it holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    InvalidChainError,
    ResolventError,
    ShapeError,
    SingularMatrixError,
)
from .linalg import Matrix, Vector, _as_scalar, schur_product
from .scalars import ZERO
from .synthesis import ChainPair


@dataclass(frozen=True)
class GramTable:
    """Table of inner products x_{i,j} = u_i* v_j (p rows, q columns)."""

    table: Matrix

    @property
    def p(self) -> int:
        return self.table.rows

    @property
    def q(self) -> int:
        return self.table.cols

    def at(self, i: int, j: int):
        """1-based access, matching the chain indexing."""
        return self.table[i - 1, j - 1]

    def block(self, r0: int, p: int, c0: int, q: int) -> "GramTable":
        """The p x q table of rows r0:r0+p and columns c0:c0+q (0-based)."""
        return GramTable(self.table.submatrix(r0, r0 + p, c0, c0 + q))

    def middle(self):
        """x_{m,m} for the middle index m = (p+1)/2 of an odd p x p table.

        Theory guarantees this is nonzero for a genuine full chain pair of
        a single odd block; a zero therefore flags invalid input.
        """
        m = (self.p + 1) // 2
        x = self.at(m, m)
        if x.is_zero:
            raise InvalidChainError(
                "middle inner product vanishes: not a genuine full chain pair"
            )
        return x


def gram_table(left: Sequence[Vector], right: Sequence[Vector]) -> GramTable:
    """Exact p x q table of u_i* v_j, as the one product U* V."""
    if not left or not right:
        raise ShapeError("gram_table needs nonempty chains")
    n = left[0].dim
    if any(v.dim != n for v in left) or any(v.dim != n for v in right):
        raise ShapeError("all chain vectors must share the ambient dimension")
    return GramTable(
        Matrix.from_columns(list(left)).H @ Matrix.from_columns(list(right))
    )


def _antitriangle_entry(table: GramTable, bound: int):
    """First (i, j), 1-based, with i + j <= bound and x_{i,j} != 0, or None."""
    for i in range(1, table.p + 1):
        for j in range(1, min(table.q, bound - i) + 1):
            if table.at(i, j) != ZERO:
                return (i, j)
    return None


def check_hankel(table: GramTable):
    """(ok, first violation) for the same-eigenvalue Gram pattern.

    The pattern requires x_{i,j} = 0 for 2 <= i+j <= max(p, q) and
    constancy along anti-diagonals: x_{i,j} = x_{i-1,j+1}.  The second
    return value is None, or a ((i, j), reason) pair in 1-based indices.
    """
    p, q = table.p, table.q
    at = _antitriangle_entry(table, max(p, q))
    if at is not None:
        return False, (at, "leading anti-triangle entry nonzero")
    for i in range(2, p + 1):
        for j in range(1, q):
            if table.at(i, j) != table.at(i - 1, j + 1):
                return False, ((i, j), "anti-diagonal not constant")
    return True, None


def resolvent_identities(A: Matrix, lam, pairs: Sequence[ChainPair]) -> list:
    """For each pair, whether u_i* (A - lam I)^{-1} v_j = 0 for all i + j <= p.

    The identities read u_1 .. u_(p-1) and v_1 .. v_(p-1) only, and
    their table U* (A - lam I)^{-1} V, for all pairs at once, is the one
    ``schur_product`` of the bordered matrix: a pair's identities are the
    leading anti-triangle of its diagonal block.  The pass runs even when
    every pair has length 1, so a point of the spectrum always raises
    ResolventError.
    """
    lam = _as_scalar(lam)
    n = A.rows
    heads = [pair.length - 1 for pair in pairs]
    U = Matrix.from_columns([u for pair in pairs for u in pair.left[:-1]], n)
    V = Matrix.from_columns([v for pair in pairs for v in pair.right[:-1]], n)
    try:
        table = GramTable(schur_product(U.H, A.minus_identity(lam), V))
    except SingularMatrixError:
        raise ResolventError(
            f"resolvent point {lam} lies in the spectrum"
        ) from None
    verdicts = []
    offset = 0
    for h in heads:
        own = table.block(offset, h, offset, h)
        verdicts.append(_antitriangle_entry(own, h + 1) is None)
        offset += h
    return verdicts


def resolvent_orthogonality_check(A: Matrix, lam, pair: ChainPair) -> bool:
    """True iff u_i* (A - lam I)^{-1} v_j = 0 for all i + j <= p."""
    (ok,) = resolvent_identities(A, lam, [pair])
    return ok
