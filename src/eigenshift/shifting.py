"""Rank-one and rank-k eigenvalue shifts.

Builds the updated matrix A + (lam1 - lam0) R1 R2* for the rank-one
case (single eigenvector, plain-transpose normalization), the even
multiplicity case R1 = [V L], R2 = [R U], and the odd multiplicity case
R1 = [V v_{k+1} L], R2 = [R r U] with the normalized middle vector r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (
    InvalidChainError,
    InvalidParameterError,
    InverseIdentityError,
    NormalizationError,
    ShapeError,
    SingularMatrixError,
)
from .linalg import Matrix, Vector, hstack, inner, outer_plain
from .scalars import ComplexRational, ONE
from .synthesis import ChainPair, _as_scalar


@dataclass(frozen=True)
class ShiftPlan:
    """All ingredients of one shift: chains halves plus their inverses."""

    lambda0: ComplexRational
    lambda1: ComplexRational
    k: int
    U: Matrix
    V: Matrix
    R: Matrix
    L: Matrix
    middle: Optional[tuple] = None  # (v_{k+1}, r) in the odd case


@dataclass(frozen=True)
class ShiftResult:
    A: Matrix
    A_hat: Matrix
    plan: ShiftPlan
    R1: Matrix
    R2: Matrix

    @property
    def multiplicity(self) -> int:
        return 2 * self.plan.k + (1 if self.plan.middle is not None else 0)


def brauer_shift(A: Matrix, v: Vector, r: Vector, lambda0, lambda1) -> Matrix:
    """Rank-one update A + (lam1 - lam0) v r^T with r^T v = 1.

    Note the plain (unconjugated) transpose in both the normalization
    and the update, unlike the multiplicity-k shifts.
    """
    lambda0 = _as_scalar(lambda0)
    lambda1 = _as_scalar(lambda1)
    if A @ v != v.scale(lambda0):
        raise InvalidChainError("v is not an eigenvector of A for lambda0")
    rv = sum((a * b for a, b in zip(r.entries, v.entries)), start=_as_scalar(0))
    if rv != ONE:
        raise NormalizationError(f"r^T v = {rv}, expected 1")
    return A + outer_plain(v, r).scale(lambda1 - lambda0)


def make_right_inverse(V: Matrix, free: Optional[Matrix] = None) -> Matrix:
    """R with R* V = I_k.

    Default is the minimal solution R = V (V* V)^{-1}; an optional free
    part may add any matrix whose conjugate transpose annihilates V.
    """
    n, k = V.rows, V.cols
    if k == 0:
        return Matrix(n, 0, [])
    if V.exact_rank() < k:
        raise SingularMatrixError(
            "V must have full column rank", rank=V.exact_rank()
        )
    gram = V.H @ V
    R = V @ gram.inverse()
    if free is not None:
        if free.shape != (n, k):
            raise ShapeError(f"free part must be {n}x{k}, got {free.shape}")
        if not (free.H @ V).is_zero:
            raise InvalidParameterError(
                "free part must satisfy free* V = 0 to preserve R* V = I"
            )
        R = R + free
    return R


def make_left_inverse(U: Matrix, free: Optional[Matrix] = None) -> Matrix:
    """L with U* L = I_k; mirror of make_right_inverse."""
    n, k = U.rows, U.cols
    if k == 0:
        return Matrix(n, 0, [])
    if U.exact_rank() < k:
        raise SingularMatrixError(
            "U must have full column rank", rank=U.exact_rank()
        )
    L = U @ (U.H @ U).inverse()
    if free is not None:
        if free.shape != (n, k):
            raise ShapeError(f"free part must be {n}x{k}, got {free.shape}")
        if not (U.H @ free).is_zero:
            raise InvalidParameterError(
                "free part must satisfy U* free = 0 to preserve U* L = I"
            )
        L = L + free
    return L


def _halves(chains: ChainPair, k: int):
    n = chains.right[0].dim
    U = Matrix.from_columns(list(chains.left[:k]), dim=n)
    V = Matrix.from_columns(list(chains.right[:k]), dim=n)
    return U, V


def _check_inverse_identities(U, V, R, L, k):
    ident = Matrix.identity(k)
    if R.H @ V != ident:
        raise InverseIdentityError("R* V != I_k")
    if U.H @ L != ident:
        raise InverseIdentityError("U* L != I_k")


def shift_even(
    A: Matrix,
    chains: ChainPair,
    lambda1,
    R: Optional[Matrix] = None,
    L: Optional[Matrix] = None,
) -> ShiftResult:
    """Shift an eigenvalue of even algebraic multiplicity 2k."""
    lambda1 = _as_scalar(lambda1)
    p = chains.length
    if p % 2 != 0:
        raise InvalidChainError(f"even shift needs an even chain, got {p}")
    chains.verify_against(A)
    k = p // 2
    U, V = _halves(chains, k)
    if R is None:
        R = make_right_inverse(V)
    if L is None:
        L = make_left_inverse(U)
    _check_inverse_identities(U, V, R, L, k)
    R1 = hstack(V, L)
    R2 = hstack(R, U)
    A_hat = A + (R1 @ R2.H).scale(lambda1 - chains.lam)
    plan = ShiftPlan(chains.lam, lambda1, k, U, V, R, L, middle=None)
    return ShiftResult(A, A_hat, plan, R1, R2)


def shift_odd(
    A: Matrix,
    chains: ChainPair,
    lambda1,
    R: Optional[Matrix] = None,
    L: Optional[Matrix] = None,
) -> ShiftResult:
    """Shift an eigenvalue of odd algebraic multiplicity 2k + 1.

    The middle pair contributes the extra rank-one term v_{k+1} r* with
    r = u_{k+1} / (v_{k+1}* u_{k+1}); the middle product is nonzero for
    genuine chains and is checked.
    """
    lambda1 = _as_scalar(lambda1)
    p = chains.length
    if p % 2 != 1:
        raise InvalidChainError(f"odd shift needs an odd chain, got {p}")
    chains.verify_against(A)
    k = (p - 1) // 2
    U, V = _halves(chains, k)
    v_mid = chains.right[k]
    u_mid = chains.left[k]
    mu = inner(v_mid, u_mid)  # v_{k+1}* u_{k+1}
    if mu.is_zero:
        raise InvalidChainError(
            "v_{k+1}* u_{k+1} = 0: not a genuine odd chain pair"
        )
    r = u_mid.scale(ONE / mu)
    if R is None:
        R = make_right_inverse(V)
    if L is None:
        L = make_left_inverse(U)
    _check_inverse_identities(U, V, R, L, k)
    R1 = hstack(V, v_mid.as_column(), L)
    R2 = hstack(R, r.as_column(), U)
    A_hat = A + (R1 @ R2.H).scale(lambda1 - chains.lam)
    plan = ShiftPlan(chains.lam, lambda1, k, U, V, R, L, middle=(v_mid, r))
    return ShiftResult(A, A_hat, plan, R1, R2)


def half_chain_invariance_holds(shift: ShiftResult) -> bool:
    """A_hat V = V J_k(lam1) and U* A_hat = J_k(lam1)^T U*, entrywise."""
    from .linalg import jordan_block

    plan = shift.plan
    k = plan.k
    if k == 0:
        v1 = plan.middle[0] if plan.middle else None
        return v1 is None or shift.A_hat @ v1 == v1.scale(plan.lambda1)
    Jk = jordan_block(plan.lambda1, k)
    if shift.A_hat @ plan.V != plan.V @ Jk:
        return False
    return plan.U.H @ shift.A_hat == Jk.transpose() @ plan.U.H


def charpoly_ratio_check(
    A: Matrix, A_hat: Matrix, lambda0, lambda1, m: int
) -> bool:
    """Polynomial identity test for the spectrum replacement claim.

    Verifies det(A_hat - x I) (lam0 - x)^m = det(A - x I) (lam1 - x)^m
    at n + m + 1 distinct rational points; both sides are polynomials of
    degree n + m, so agreement everywhere follows.  Points equal to
    lam0 or lam1 are skipped (they correspond to the poles of the ratio
    form of the identity); other spectrum collisions are harmless.
    """
    lambda0 = _as_scalar(lambda0)
    lambda1 = _as_scalar(lambda1)
    n = A.rows
    if A_hat.shape != A.shape or not A.is_square:
        raise ShapeError("charpoly_ratio_check needs two equal square matrices")
    needed = n + m + 1
    t = 0
    checked = 0
    while checked < needed:
        s = _as_scalar(t)
        t += 1
        if s == lambda0 or s == lambda1:
            continue
        lhs = A_hat.minus_identity(s).det() * (lambda0 - s) ** m
        rhs = A.minus_identity(s).det() * (lambda1 - s) ** m
        if lhs != rhs:
            return False
        checked += 1
    return True


def update_rank(shift: ShiftResult) -> int:
    """Rank of A_hat - A (bounded by the shifted multiplicity)."""
    return (shift.A_hat - shift.A).exact_rank()
