"""Rank-one and rank-k eigenvalue shifts.

Builds the updated matrix A + (lam1 - lam0) R1 R2* for the rank-one
case (single eigenvector, plain-transpose normalization) and, from one
construction, for a chain of length 2k or 2k + 1: the even update
R1 = [V L], R2 = [R U], which an odd chain extends by its middle pair to
R1 = [V v_{k+1} L], R2 = [R r U] with the normalized middle vector r.
The checks test that the half chains carry over to lam1 and that the
spectrum changes only in lam0 -> lam1 (the characteristic polynomials,
each computed once without division, as the product of its diagonal
blocks', and compared coefficient by coefficient).
"""

from __future__ import annotations

from typing import Optional

from .errors import (
    InvalidChainError,
    InvalidParameterError,
    InverseIdentityError,
    NormalizationError,
    ShapeError,
    SingularMatrixError,
)
from .linalg import (
    Matrix,
    Vector,
    _as_scalar,
    _normal,
    hstack,
    inner,
    outer_plain,
)
from .scalars import ONE, _Value
from .synthesis import ChainPair, check_chains


class ShiftResult(_Value):
    """A_hat = A + (lam1 - lam0) R1 R2*, the chain pair it shifted, whose
    first k vectors are U and V, and the middle pair (v_{k+1}, r) of an
    odd chain (None for an even one)."""

    __slots__ = ("A", "A_hat", "chains", "lambda1", "middle")

    def __init__(self, A, A_hat, chains, lambda1, middle=None):
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "A_hat", A_hat)
        object.__setattr__(self, "chains", chains)
        object.__setattr__(self, "lambda1", lambda1)
        object.__setattr__(self, "middle", middle)

    @property
    def multiplicity(self) -> int:
        return self.chains.length

    @property
    def k(self) -> int:
        return self.multiplicity // 2


def brauer_shift(A: Matrix, v: Vector, r: Vector, lambda0, lambda1) -> Matrix:
    """Rank-one update A + (lam1 - lam0) v r^T with r^T v = 1.

    Note the plain (unconjugated) transpose in both the normalization
    and the update, unlike the multiplicity-k shifts.
    """
    lambda0 = _as_scalar(lambda0)
    lambda1 = _as_scalar(lambda1)
    if A @ v != v.scale(lambda0):
        raise InvalidChainError("v is not an eigenvector of A for lambda0")
    (rv,) = r.transpose() @ v  # refuses an r of another dimension
    if rv != ONE:
        raise NormalizationError(f"r^T v = {rv}, expected 1")
    return A + outer_plain(v, r).scale(lambda1 - lambda0)


def _one_sided_inverse(X: Matrix, free: Optional[Matrix], name: str):
    """X (X* X)^{-1} plus an optional free part F with F* X = 0.

    Over C, rank(X* X) = rank(X), so the Gram inverse fails exactly when
    X lacks full column rank, and its error carries rank(X).
    """
    n, k = X.shape
    try:
        out = X @ (X.H @ X).inverse()
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"{name} must have full column rank", rank=exc.rank
        ) from None
    if free is not None:
        if free.shape != (n, k):
            raise ShapeError(f"free part must be {n}x{k}, got {free.shape}")
        if not (free.H @ X).is_zero:
            raise InvalidParameterError(f"free part F needs F* {name} = 0")
        out = out + free
    return out


def make_right_inverse(V: Matrix, free: Optional[Matrix] = None) -> Matrix:
    """R with R* V = I_k.

    Default is the minimal solution R = V (V* V)^{-1}; an optional free
    part may add any matrix whose conjugate transpose annihilates V.
    """
    return _one_sided_inverse(V, free, "V")


def make_left_inverse(U: Matrix, free: Optional[Matrix] = None) -> Matrix:
    """L with U* L = I_k; the same construction as make_right_inverse."""
    return _one_sided_inverse(U, free, "U")


def _shift(A, chains: ChainPair, lambda1, R, L, parity: int) -> ShiftResult:
    """The shift of a chain of the given parity (0 even, 1 odd).

    For an odd chain the middle pair v_{k+1}, r with
    r = u_{k+1} / (v_{k+1}* u_{k+1}) joins R1 and R2; the middle product
    is nonzero for genuine chains and is checked.
    """
    p = chains.length
    if p % 2 != parity:
        name = ("even", "odd")[parity]
        raise InvalidChainError(f"{name} shift needs an {name} chain, got {p}")
    lambda1 = _as_scalar(lambda1)
    chains.verify_against(A)
    k = p // 2
    U = Matrix.from_columns(list(chains.left[:k]), dim=A.rows)
    V = Matrix.from_columns(list(chains.right[:k]), dim=A.rows)
    middle = None
    if p % 2:
        v_mid, u_mid = chains.right[k], chains.left[k]
        mu = inner(v_mid, u_mid)  # v_{k+1}* u_{k+1}
        if mu.is_zero:
            raise InvalidChainError(
                "v_{k+1}* u_{k+1} = 0: not a genuine odd chain pair"
            )
        middle = (v_mid, u_mid.scale(ONE / mu))
    if R is None:
        R = make_right_inverse(V)
    if L is None:
        L = make_left_inverse(U)
    ident = Matrix.identity(k)
    if R.H @ V != ident:
        raise InverseIdentityError("R* V != I_k")
    if L.H @ U != ident:  # L* U = (U* L)*, so I exactly when U* L is
        raise InverseIdentityError("U* L != I_k")
    mid = [[x] for x in middle] if middle else [[], []]
    R1 = hstack(V, *mid[0], L)  # [V v_{k+1} L], or [V L] when even
    R2 = hstack(R, *mid[1], U)  # [R r U], or [R U] when even
    A_hat = A + (R1 @ R2.H).scale(lambda1 - chains.lam)
    return ShiftResult(A, A_hat, chains, lambda1, middle)


def shift_even(
    A: Matrix, chains: ChainPair, lambda1,
    R: Optional[Matrix] = None, L: Optional[Matrix] = None,
) -> ShiftResult:
    """Shift an eigenvalue of even algebraic multiplicity 2k."""
    return _shift(A, chains, lambda1, R, L, parity=0)


def shift_odd(
    A: Matrix, chains: ChainPair, lambda1,
    R: Optional[Matrix] = None, L: Optional[Matrix] = None,
) -> ShiftResult:
    """Shift an eigenvalue of odd algebraic multiplicity 2k + 1."""
    return _shift(A, chains, lambda1, R, L, parity=1)


def half_chain_invariance_holds(shift: ShiftResult) -> bool:
    """A_hat V = V J_k(lam1) and U* A_hat = J_k(lam1)^T U*, entrywise.

    For k = 0 the middle pair (v_1, u_1) is the half chain: u_1 is a
    multiple of r, so u_1* A_hat = lam1 u_1* as well as A_hat v_1 = lam1 v_1.
    """
    h = max(shift.k, 1)
    (failure,) = check_chains(
        shift.A_hat,
        [(shift.lambda1, shift.chains.left[:h], shift.chains.right[:h])],
    )
    return failure is None


def charpoly_ratio_check(
    A: Matrix, A_hat: Matrix, lambda0, lambda1, m: int
) -> bool:
    """Polynomial identity test for the spectrum replacement claim.

    Verifies det(A_hat - x I) (lam0 - x)^m = det(A - x I) (lam1 - x)^m
    as polynomials in x.  Up to the sign (-1)^(n+m), which both sides
    share, this is p_A_hat(x) (x - lam0)^m = p_A(x) (x - lam1)^m for the
    characteristic polynomials p = det(x I - M), each computed once,
    exactly and without division, by ``Matrix.charpoly``, which splits
    its matrix into diagonal blocks by a permutation similarity.  Each
    side is that polynomial times (x - lam)^m on its integer numerators
    (``_times_power``); the sides agree exactly when their canonical
    forms are equal.
    """
    lambda0 = _as_scalar(lambda0)
    lambda1 = _as_scalar(lambda1)
    if A_hat.shape != A.shape or not A.is_square:
        raise ShapeError("charpoly_ratio_check needs two equal square matrices")
    if m < 0:
        raise ValueError(f"multiplicity must be >= 0, got {m}")
    return _times_power(A_hat.charpoly(), lambda0, m) == _times_power(
        A.charpoly(), lambda1, m
    )


def _times_power(p: Vector, lam, m: int):
    """The canonical form of p(x) (x - lam)^m, leading coefficient first:
    with lam = (a + b i) / d, p's numerators are multiplied m times by
    d x - (a + b i) and put over den d^m."""
    d, a, b = lam.den, lam.nre, lam.nim
    re, im = list(p.re), p.im and list(p.im)
    if b and im is None:
        im = [0] * len(re)
    for _ in range(m):
        # coefficient j of (d x - (a + b i)) q is d q_j - (a + b i) q_(j-1)
        if im is None:
            re = [d * x - a * y for x, y in zip(re + [0], [0] + re)]
        else:
            re, im = (
                [d * x - a * y + b * z for x, y, z in zip(re + [0], [0] + re, [0] + im)],
                [d * x - a * z - b * y for x, y, z in zip(im + [0], [0] + re, [0] + im)],
            )
    return _normal(p.den * d**m, re, im)
