"""Synthesis of matrices with prescribed Jordan structure.

Given a block description and a change of basis P, builds A = P J P^{-1}
together with the left/right generalized eigenvector chains of every
block, read off from the columns of P and the rows of P^{-1}.  Also
provides the parametrized chain family of a Jordan block
(``parametric_chain_matrices``), which the random instances draw from,
and its checked forms for a single block and for a pair of equal blocks.

A chain pair is checked as A V = V J_p(lam) and U* A = J_p(lam)^T U*,
one product with A - lam I per side (``check_chains``); the shift's
half-chain invariance, a verify job and ``oracle.verify_cycles`` run the
same body.
"""

from __future__ import annotations

import random

from .errors import InvalidChainError, InvalidParameterError, ShapeError
from .linalg import (
    Matrix,
    _adjoint_of_columns,
    _as_scalar,
    _moved,
    jordan_sum,
    vstack,
)
from .scalars import _Value


class SegreCharacteristic(_Value):
    """Multiset of (eigenvalue, block size) pairs describing a Jordan form."""

    __slots__ = ("blocks",)

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

    def sizes_at(self, lam) -> tuple:
        lam = _as_scalar(lam)
        return tuple(
            sorted((s for ev, s in self.blocks if ev == lam), reverse=True)
        )

    def canonical(self) -> "SegreCharacteristic":
        """Grouped by eigenvalue (lexicographic on (re, im)), sizes descending."""
        key = lambda block: (*block[0].sort_key(), -block[1])
        return SegreCharacteristic(sorted(self.blocks, key=key))

    def __eq__(self, other):
        if not isinstance(other, SegreCharacteristic):
            return NotImplemented
        return self.canonical().blocks == other.canonical().blocks

    def __hash__(self):
        return hash(self.canonical().blocks)


class ChainPair(_Value):
    """Left chain {u_i} and right chain {v_i} for one Jordan block.

    Chains are stored leading-vector-first: u_1 / v_1 (the genuine
    eigenvectors) come first.
    """

    __slots__ = ("lam", "left", "right")

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
        """Check the defining recurrences exactly; raise on violation:
        the one-chain case of ``check_chains``."""
        (failure,) = check_chains(A, [(self.lam, self.left, self.right)])
        if failure is not None:
            raise failure


def check_chains(A: Matrix, chains):
    """For each (lam, left, right) of chains, None when A V = V J_p(lam)
    and U* A = J_p(lam)^T U* hold, or else the InvalidChainError of the
    first index at which the right chain, checked first, or the left
    chain fails (``_first_failure``, one A - lam I per chain).  A misfit
    chain raises the ShapeError of its own product when its turn comes,
    its left chain only once its right chain passes.  A non-square A has
    no A - lam I, and a fitting chain fails at index 1."""
    for lam, left, right in chains:
        N = A.minus_identity(lam) if A.is_square else A
        if r := _first_failure(N, right):
            yield InvalidChainError(f"right chain recurrence fails at index {r}")
        elif u := _first_failure(N, left, left=True):
            yield InvalidChainError(f"left chain recurrence fails at index {u}")
        else:
            yield None


def _first_failure(N: Matrix, chain, left=False) -> int:
    """The first index c, 1-based, at which chain breaks its recurrence
    at N = A - lam I, or 0 (as for an empty chain): a right chain V holds
    when N V is V moved one column right, (A - lam I) v_c = v_(c-1), and a
    left chain U when U* N is U* moved one row down; the columns or rows
    are compared only when the sides differ."""
    if not chain:
        return 0
    side = _adjoint_of_columns(chain) if left else Matrix.from_columns(chain)
    got = side @ N if left else N @ side
    want = _moved(side, down=left)
    if got == want:
        return 0
    part = Matrix.row if left else Matrix.col
    return next(c for c in range(len(chain)) if part(got, c) != part(want, c)) + 1


def jordan_matrix(segre: SegreCharacteristic) -> Matrix:
    """Direct sum of the blocks in the order given (not canonicalized)."""
    return jordan_sum(segre.blocks)


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
    in that block, so P^{-1} is read from their conjugated numerators in
    one step, with no solve.
    """
    return _adjoint_of_columns([u for pair in chains for u in reversed(pair.left)])


def parametric_chain_matrices(m: int, n: int, a, b):
    """The full-length parametric chains of a leading block J_m, in J
    coordinates, as the columns of two n x m matrices (left, right):

    u_i = sum_{j<=i} a_{i-j+1} e_{m-j+1}, v_i = sum_{j<=i} b_{i-j+1} e_j.

    The coefficient of each unit vector depends on i - j (a convolution),
    as the chain recurrences need; rows past m are zero.
    """
    left = [[0] * m for _ in range(n)]
    right = [[0] * m for _ in range(n)]
    for i in range(m):
        for j in range(i + 1):
            left[m - 1 - j][i] = a[i - j]
            right[j][i] = b[i - j]
    return Matrix.from_rows(left), Matrix.from_rows(right)


def generate_parametric_chains_single(lam, twok: int, a, b) -> ChainPair:
    """Every chain pair of a single block J_{2k}(lam), parametrized
    (``parametric_chain_matrices`` with m = n = 2k), a_1 b_1 != 0."""
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
    left, right = parametric_chain_matrices(twok, twok, a, b)
    return ChainPair(lam, left.columns(), right.columns())


def generate_parametric_chains_two_blocks(lam, k: int, a, b, c, d):
    """Chains across a pair of equal blocks J_k(lam) + J_k(lam).

    Returns (left chain of the first block, right chain of the second):
    u_i = sum_{j<=i} a_{i-j+1} e_{k-j+1} + b_{i-j+1} e_{2k-j+1},
    v_i = sum_{j<=i} c_{i-j+1} e_j + d_{i-j+1} e_{k+j},
    the single-block families of (a, c) and (b, d) stacked.
    """
    if k < 1:
        raise InvalidParameterError("block size must be >= 1")
    a, b, c, d = (
        [_as_scalar(x) for x in xs] for xs in (a, b, c, d)
    )
    if any(len(xs) != k for xs in (a, b, c, d)):
        raise InvalidParameterError(f"each parameter family needs {k} entries")
    if (a[0].is_zero and b[0].is_zero) or (c[0].is_zero and d[0].is_zero):
        raise InvalidParameterError(
            "leading parameter pairs (a_1, b_1) and (c_1, d_1) cannot both vanish"
        )
    first_left, first_right = parametric_chain_matrices(k, k, a, c)
    second_left, second_right = parametric_chain_matrices(k, k, b, d)
    return (
        vstack(first_left, second_left).columns(),
        vstack(first_right, second_right).columns(),
    )


def random_unimodular(n: int, rng: random.Random) -> Matrix:
    """Random integer matrix with determinant +-1 and entries in [-3, 3].

    Built from 4n elementary row operations so the inverse stays exact
    and integer; operations that would push an entry past the bound are
    skipped, which keeps rational growth bounded in tests.
    """
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        op = rng.randrange(3)
        if op == 0 and n > 1:  # transvection
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            new_row = [rows[i][t] + c * rows[j][t] for t in range(n)]
            if all(abs(x) <= 3 for x in new_row):
                rows[i] = new_row
        elif op == 1 and n > 1:  # swap
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
        else:  # negate
            i = rng.randrange(n)
            rows[i] = [-x for x in rows[i]]
    return Matrix.from_rows(rows)
