"""Biorthogonality of generalized eigenvector chains and resolvent identities.

Inner products are conjugate-linear in the left argument throughout
(u* v), matching the star convention used by the shift construction.
The left chain of A at lam0 is a right chain of A* at conj(lam0), so
the left resolvent identity is the right one computed for A*.
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
from .linalg import Matrix, Vector, _as_scalar, inner
from .scalars import ONE, ZERO
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


def gram_table(left: Sequence[Vector], right: Sequence[Vector]) -> GramTable:
    """Exact p x q table of u_i* v_j."""
    if not left or not right:
        raise ShapeError("gram_table needs nonempty chains")
    n = left[0].dim
    if any(v.dim != n for v in left) or any(v.dim != n for v in right):
        raise ShapeError("all chain vectors must share the ambient dimension")
    return GramTable(
        Matrix(len(left), len(right), [inner(u, v) for u in left for v in right])
    )


def check_hankel(table: GramTable):
    """(ok, first violation) for the same-eigenvalue Gram pattern.

    The pattern requires x_{i,j} = 0 for 2 <= i+j <= max(p, q) and
    constancy along anti-diagonals: x_{i,j} = x_{i-1,j+1}.  The second
    return value is None, or a ((i, j), reason) pair in 1-based indices.
    """
    p, q = table.p, table.q
    bound = max(p, q)
    for i in range(1, p + 1):
        for j in range(1, q + 1):
            if 2 <= i + j <= bound and table.at(i, j) != ZERO:
                return False, ((i, j), "leading anti-triangle entry nonzero")
    for i in range(2, p + 1):
        for j in range(1, q):
            if table.at(i, j) != table.at(i - 1, j + 1):
                return False, ((i, j), "anti-diagonal not constant")
    return True, None


def middle_product_nonzero(left: Sequence[Vector], right: Sequence[Vector]):
    """u_m* v_m for the middle index m = (p+1)/2 of an odd full chain.

    Theory guarantees this is nonzero for a genuine full chain pair of a
    single odd block; a zero therefore flags invalid input.
    """
    p = len(left)
    if p != len(right):
        raise InvalidChainError("left/right chain lengths differ")
    if p % 2 == 0:
        raise InvalidChainError("middle product needs odd chain length")
    m = (p + 1) // 2
    x = inner(left[m - 1], right[m - 1])
    if x.is_zero:
        raise InvalidChainError(
            "middle inner product vanishes: not a genuine full chain pair"
        )
    return x


def _resolvent_solve(A: Matrix, lam, rhs):
    """(A - lam I)^{-1} rhs; a point of the spectrum raises ResolventError."""
    try:
        return A.minus_identity(lam).solve(rhs)
    except SingularMatrixError:
        raise ResolventError(
            f"resolvent point {lam} lies in the spectrum"
        ) from None


def _resolvent_apply(A: Matrix, lam, lam0, chain, i: int, side: str):
    """(A - lam I)^{-1} x_i for a chain x of A at lam0, cross-checked.

    The closed form is sum_{j=1}^{i} (-1)^{i-j} x_j / (lam0 - lam)^{i-j+1};
    solving the linear system and evaluating the sum validate each other.
    """
    solved = _resolvent_solve(A, lam, chain[i - 1])
    d = lam0 - lam
    acc = Vector.zero(solved.dim)
    for j in range(1, i + 1):
        coeff = (ONE if (i - j) % 2 == 0 else -ONE) / d ** (i - j + 1)
        acc = acc + chain[j - 1].scale(coeff)
    if solved != acc:
        raise InvalidChainError(
            "resolvent closed form disagrees with the exact solve; "
            f"input is not a genuine {side} chain"
        )
    return solved


def resolvent_apply_right(
    A: Matrix, lam, pair: ChainPair, i: int
) -> Vector:
    """(A - lam I)^{-1} v_i, exactly, cross-checked against the closed form."""
    lam = _as_scalar(lam)
    return _resolvent_apply(A, lam, pair.lam, pair.right, i, "right")


def resolvent_apply_left(A: Matrix, lam, pair: ChainPair, i: int) -> Vector:
    """w with w* = u_i* (A - lam I)^{-1}, cross-checked likewise.

    w = (A* - conj(lam) I)^{-1} u_i, and the u_i form a right chain of A*
    at conj(lam0), so this is the right-side computation for A*.
    """
    return _resolvent_apply(
        A.H, _as_scalar(lam).conjugate(), pair.lam.conjugate(), pair.left,
        i, "left",
    )


def resolvent_orthogonality_check(A: Matrix, lam, pair: ChainPair) -> bool:
    """True iff u_i* (A - lam I)^{-1} v_j = 0 for all i + j <= p."""
    # (A - lam I)^{-1} v_j for every j, from one solve
    images = _resolvent_solve(
        A, _as_scalar(lam), Matrix.from_columns(list(pair.right))
    )
    p = pair.length
    for i in range(1, p + 1):
        for j in range(1, p - i + 1):
            if not inner(pair.left[i - 1], images.col(j - 1)).is_zero:
                return False
    return True
