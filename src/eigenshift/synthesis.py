"""Synthesis of matrices with prescribed Jordan structure.

Given a block description and a change of basis P, builds A = P J P^{-1}
together with the left/right generalized eigenvector chains of every
block, read off from the columns of P and the rows of P^{-1}.  Also
provides the parametrized chain families for a single Jordan block and
for a pair of equal blocks.

A chain pair is checked as two matrix equations, A V = V J_p(lam) and
U* A = J_p(lam)^T U*; the shift's half-chain invariance runs the same
check on A_hat.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvalidChainError, InvalidParameterError, ShapeError
from .linalg import (
    Matrix,
    Vector,
    _as_scalar,
    direct_sum,
    jordan_block,
)
from .scalars import CR, ComplexRational, ZERO


@dataclass(frozen=True)
class SegreCharacteristic:
    """Multiset of (eigenvalue, block size) pairs describing a Jordan form."""

    blocks: tuple

    def __init__(self, blocks):
        norm = tuple((_as_scalar(lam), size) for lam, size in blocks)
        if any(
            isinstance(size, bool) or not isinstance(size, int) or size < 1
            for _, size in norm
        ):
            raise ShapeError("all Jordan block sizes must be integers >= 1")
        object.__setattr__(self, "blocks", norm)

    @property
    def total_size(self) -> int:
        return sum(size for _, size in self.blocks)

    def eigenvalues(self):
        """Distinct eigenvalues in deterministic (re, im) order."""
        seen = []
        for lam, _ in self.blocks:
            if lam not in seen:
                seen.append(lam)
        return sorted(seen, key=lambda s: s.sort_key())

    def sizes_at(self, lam) -> tuple:
        lam = _as_scalar(lam)
        return tuple(
            sorted((s for ev, s in self.blocks if ev == lam), reverse=True)
        )

    def canonical(self) -> "SegreCharacteristic":
        """Grouped by eigenvalue (lexicographic on (re, im)), sizes descending."""
        out = []
        for lam in self.eigenvalues():
            out.extend((lam, s) for s in self.sizes_at(lam))
        return SegreCharacteristic(out)

    def __eq__(self, other):
        if not isinstance(other, SegreCharacteristic):
            return NotImplemented
        return self.canonical().blocks == other.canonical().blocks

    def __hash__(self):
        return hash(self.canonical().blocks)


@dataclass(frozen=True)
class ChainPair:
    """Left chain {u_i} and right chain {v_i} for one Jordan block.

    Chains are stored leading-vector-first: u_1 / v_1 (the genuine
    eigenvectors) come first.
    """

    lam: ComplexRational
    left: tuple
    right: tuple

    def __init__(self, lam, left, right):
        object.__setattr__(self, "lam", _as_scalar(lam))
        object.__setattr__(self, "left", tuple(left))
        object.__setattr__(self, "right", tuple(right))
        if not self.left or not self.right:
            raise InvalidChainError("chains must be nonempty")
        if self.left[0].is_zero or self.right[0].is_zero:
            raise InvalidChainError("leading chain vectors must be nonzero")

    @property
    def length(self) -> int:
        if len(self.left) != len(self.right):
            raise InvalidChainError("left/right chain lengths differ")
        return len(self.left)

    def verify_against(self, A: Matrix) -> None:
        """Check the defining recurrences exactly; raise on violation."""
        _check_chains(A, self.lam, self.left, self.right)


def _check_chains(A: Matrix, lam, left, right) -> None:
    """A V = V J_p(lam) and U* A = J_p(lam)^T U*, or InvalidChainError.

    Column i of V J_p(lam) is lam v_i + v_{i-1} and row i of
    J_p(lam)^T U* is lam u_i* + u_{i-1}*, so the first failing column
    (right chain, checked first) or row (left chain, a column of the
    transposes) is the first index at which the chain recurrence fails.
    """
    V = Matrix.from_columns(list(right))
    J = jordan_block(lam, V.cols)
    _first_failure("right", A @ V, V @ J)
    UH = Matrix.from_columns(list(left)).H
    JT = jordan_block(lam, UH.rows).transpose()
    _first_failure("left", (UH @ A).transpose(), (JT @ UH).transpose())


def _first_failure(side: str, got: Matrix, want: Matrix) -> None:
    """Raise at the first index whose column of got is not want's."""
    if got == want:
        return
    for i, (x, y) in enumerate(zip(got.columns(), want.columns())):
        if x != y:
            raise InvalidChainError(
                f"{side} chain recurrence fails at index {i + 1}"
            )


def jordan_matrix(segre: SegreCharacteristic) -> Matrix:
    """Direct sum of the blocks in the order given (not canonicalized)."""
    return direct_sum(*(jordan_block(lam, size) for lam, size in segre.blocks))


def build_matrix(segre: SegreCharacteristic, change_of_basis: Matrix):
    """A = P J P^{-1} plus the chain pair of every block.

    Right chains are columns of P; left chains are conjugated rows of
    P^{-1}, taken in reverse block order so that u_1 is the genuine left
    eigenvector.
    """
    n = segre.total_size
    P = change_of_basis
    if not (P.is_square and P.rows == n):
        raise ShapeError(
            f"change of basis must be {n}x{n}, got {P.rows}x{P.cols}"
        )
    P_inv = P.inverse()  # raises SingularMatrixError when singular
    J = jordan_matrix(segre)
    A = P @ J @ P_inv
    PmH = P_inv.H
    chains = []
    offset = 0
    for lam, size in segre.blocks:
        right = [P.col(offset + i) for i in range(size)]
        left = [PmH.col(offset + size - 1 - i) for i in range(size)]
        chains.append(ChainPair(lam, left, right))
        offset += size
    return A, chains


def basis_inverse(chains) -> Matrix:
    """P^{-1} for the chain pairs ``build_matrix`` returned from P.

    Each block's left chain, reversed, is the conjugated rows of P^{-1}
    in that block, so no solve is needed.
    """
    return Matrix.from_columns([u for pair in chains for u in reversed(pair.left)]).H


def generate_parametric_chains_single(lam, twok: int, a, b) -> ChainPair:
    """Every chain pair of a single block J_{2k}(lam), parametrized.

    u_i = sum_{j=1}^{i} a_{i-j+1} e_{2k-j+1},
    v_i = sum_{j=1}^{i} b_{i-j+1} e_j,   with a_1 b_1 != 0.
    """
    if twok < 2 or twok % 2 != 0:
        raise InvalidParameterError("chain family needs even length >= 2")
    a = [_as_scalar(x) for x in a]
    b = [_as_scalar(x) for x in b]
    if len(a) != twok or len(b) != twok:
        raise InvalidParameterError(
            f"need {twok} parameters in each family, got {len(a)}/{len(b)}"
        )
    if (a[0] * b[0]).is_zero:
        raise InvalidParameterError("a_1 * b_1 must be nonzero")
    left, right = [], []
    for i in range(1, twok + 1):
        u = [ZERO] * twok
        v = [ZERO] * twok
        for j in range(1, i + 1):
            u[twok - j] = u[twok - j] + a[i - j]
            v[j - 1] = v[j - 1] + b[i - j]
        left.append(Vector(u))
        right.append(Vector(v))
    return ChainPair(lam, left, right)


def generate_parametric_chains_two_blocks(lam, k: int, a, b, c, d):
    """Chains across a pair of equal blocks J_k(lam) + J_k(lam).

    Returns (left chain of the first block, right chain of the second):
    u_i = sum_{j<=i} a_{i-j+1} e_{k-j+1} + b_{i-j+1} e_{2k-j+1},
    v_i = sum_{j<=i} c_{i-j+1} e_j + d_{i-j+1} e_{k+j}.

    The coefficient of each unit vector must depend on i - j (a convolution)
    for the chain recurrences to hold; any other indexing breaks them as
    soon as the parameters are non-constant.
    """
    if k < 1:
        raise InvalidParameterError("block size must be >= 1")
    a, b, c, d = (
        [_as_scalar(x) for x in xs] for xs in (a, b, c, d)
    )
    if any(len(xs) != k for xs in (a, b, c, d)):
        raise InvalidParameterError(f"each parameter family needs {k} entries")
    lead_left = a[0].re * a[0].re + a[0].im * a[0].im + b[0].re * b[0].re + b[0].im * b[0].im
    lead_right = c[0].re * c[0].re + c[0].im * c[0].im + d[0].re * d[0].re + d[0].im * d[0].im
    if lead_left == 0 or lead_right == 0:
        raise InvalidParameterError(
            "leading parameter pairs (a_1, b_1) and (c_1, d_1) cannot both vanish"
        )
    n = 2 * k
    left, right = [], []
    for i in range(1, k + 1):
        u = [ZERO] * n
        v = [ZERO] * n
        for j in range(1, i + 1):
            u[k - j] = u[k - j] + a[i - j]
            u[n - j] = u[n - j] + b[i - j]
            v[j - 1] = v[j - 1] + c[i - j]
            v[k + j - 1] = v[k + j - 1] + d[i - j]
        left.append(Vector(u))
        right.append(Vector(v))
    return left, right


def random_unimodular(
    n: int, rng: random.Random, max_abs: int = 3, steps: int | None = None
) -> Matrix:
    """Random integer matrix with determinant +-1 and entries in [-max_abs, max_abs].

    Built from elementary row operations so the inverse stays exact and
    integer; operations that would push an entry past the bound are
    skipped, which keeps rational growth bounded in tests.
    """
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    steps = steps if steps is not None else 4 * n
    for _ in range(steps):
        op = rng.randrange(3)
        if op == 0 and n > 1:  # transvection
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            new_row = [rows[i][t] + c * rows[j][t] for t in range(n)]
            if all(abs(x) <= max_abs for x in new_row):
                rows[i] = new_row
        elif op == 1 and n > 1:  # swap
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
        else:  # negate
            i = rng.randrange(n)
            rows[i] = [-x for x in rows[i]]
    return Matrix.from_rows([[CR(x) for x in row] for row in rows])
