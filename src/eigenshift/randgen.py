"""Randomized instance generators for tests and the CLI self-test.

Two flavours of shift instance are produced:

* "guarded" instances use integer chain parameters, integer free parts
  and an eigenvalue step of absolute value at least 2.  This forces the
  decisive coupling entry c_{k,1} = 1 + (lam1 - lam0) * (integer) to be
  nonzero, so the even classifier always lands in its full-block case,
  whose structure claim holds unconditionally.
* unguarded instances draw rational eigenvalues and default (minimal)
  inverse factors; they exercise the spectrum and invariance properties
  that do not depend on the coupling pattern.

A targeted generator samples lower concentrated forms directly from a
requested case label so that every branch of the odd classifier is
reachable on demand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .canonical import ConcentratedForm
from .errors import InvalidParameterError
from .linalg import Matrix, Vector, hstack
from .scalars import CR, ComplexRational, ZERO
from .shifting import ShiftResult, shift_even, shift_odd
from .synthesis import (
    ChainPair,
    SegreCharacteristic,
    build_matrix,
    parametric_chain_matrices,
    random_unimodular,
)


@dataclass(frozen=True)
class ShiftInstance:
    """One randomized shift together with everything tests need."""

    A: Matrix
    chains: ChainPair
    lambda1: ComplexRational
    shift: ShiftResult
    # a Jordan basis whose leading columns are the full right chain;
    # prediction reads the chain pair alone, and tests compare with P
    P: Matrix
    segre: SegreCharacteristic

    @property
    def lambda0(self) -> ComplexRational:
        return self.chains.lam


def random_rational(rng: random.Random, max_num: int = 4, max_den: int = 3):
    num = rng.randint(-max_num, max_num)
    den = rng.randint(1, max_den)
    return Fraction(num, den)


def random_scalar(
    rng: random.Random,
    max_num: int = 4,
    max_den: int = 3,
    imag_prob: float = 0.25,
) -> ComplexRational:
    re = random_rational(rng, max_num, max_den)
    im = (
        random_rational(rng, max_num, max_den)
        if rng.random() < imag_prob
        else 0
    )
    return CR(re, im)


def random_nonzero_scalar(rng: random.Random, **kw) -> ComplexRational:
    while True:
        s = random_scalar(rng, **kw)
        if not s.is_zero:
            return s


def _random_extras(rng: random.Random, avoid) -> list:
    """Optional extra Jordan blocks at eigenvalues away from the shift."""
    extras = []
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            while True:
                mu = CR(rng.randint(-6, 6))
                if all(mu != x for x in avoid):
                    break
            extras.append((mu, rng.randint(1, 2)))
    return extras


def _int_params(rng: random.Random, m: int):
    """Chain parameters with a unit leading coefficient (integer inverses)."""
    return [rng.choice((-1, 1))] + [rng.randint(-2, 2) for _ in range(m - 1)]


def _toeplitz_solved(b, rows) -> list:
    """B^{-1} X for B the upper triangular Toeplitz matrix with first
    row b, b[0] = +-1, and X the len(b) integer rows given: back
    substitution, so X's entries stay integers and no inverse is
    formed."""
    rows = list(rows)
    for i in reversed(range(len(b))):
        for j in range(i + 1, len(b)):
            if b[j - i]:
                rows[i] = [x - b[j - i] * y for x, y in zip(rows[i], rows[j])]
        if b[0] < 0:
            rows[i] = [-x for x in rows[i]]
    return rows


def _structured_inverses(
    rng: random.Random, P0: Matrix, P0_invH: Matrix, a, b, k: int
):
    """R and L with R*V = U*L = I_k supported inside the leading block.

    In J coordinates R = P0^{-*} G with G = [B^{-*}; S1; 0] and
    L = P0 H with H = [S2; (U_blk^*)^{-1}; 0]; the random integer blocks
    S1, S2 are the free parameters of the update.  B = B_k and U_blk
    are the leading k x k block of the right chains and the trailing
    one of the left chains (``synthesis.parametric_chain_matrices``):
    B_k is the upper triangular Toeplitz matrix T_b with first row
    b_1..b_k, and U_blk is T_a with its rows reversed, so
    (U_blk^*)^{-1} is (T_a^{-1})^T with its rows reversed.  Both
    inverses are integer back substitutions.
    """
    n, m = P0.rows, len(a)
    eye = [[int(i == j) for j in range(k)] for i in range(k)]
    B_inv = _toeplitz_solved(b[:k], eye)
    Ta_inv = _toeplitz_solved(a[:k], eye)
    S1 = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(m - k)]
    S2 = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(m - k)]
    zeros = [[0] * k for _ in range(n - m)]
    G = [list(col) for col in zip(*B_inv)] + S1 + zeros
    H = S2 + [list(col) for col in reversed([*zip(*Ta_inv)])] + zeros
    return P0_invH @ Matrix.from_rows(G), P0 @ Matrix.from_rows(H)


def _make_instance(
    rng: random.Random, m: int, guarded: bool
) -> ShiftInstance:
    """One shift of a leading J_m(lam0) block, m = 2k or 2k + 1."""
    k = m // 2
    if guarded:
        lam0 = CR(rng.randint(-4, 4))
        lam1 = lam0 + CR(rng.choice((-1, 1)) * rng.randint(2, 4))
    else:
        lam0 = random_scalar(rng)
        while True:
            lam1 = random_scalar(rng)
            if lam1 != lam0:
                break
    extras = _random_extras(rng, (lam0, lam1))
    segre = SegreCharacteristic([(lam0, m)] + extras)
    n = segre.total_size
    P0 = random_unimodular(n, rng)
    A, blocks = build_matrix(segre, P0)
    # each block's left chain, reversed, is P0^{-*}'s columns in that block
    P0_invH = Matrix.from_columns([u for pair in blocks for u in reversed(pair.left)])
    a, b = _int_params(rng, m), _int_params(rng, m)
    left_j, right_j = parametric_chain_matrices(m, n, a, b)
    right = P0 @ right_j
    chains = ChainPair(lam0, (P0_invH @ left_j).columns(), right.columns())
    R = L = None
    if guarded:  # structured factors also keep the update decoupled
        R, L = _structured_inverses(rng, P0, P0_invH, a, b, k)
    shift = (shift_odd if m % 2 else shift_even)(A, chains, lam1, R=R, L=L)
    # Jordan basis whose leading m columns are the full right chain:
    # P = P0 diag(B_m, I), B_m the leading m x m block of right_j
    P = hstack(right, P0.submatrix(0, n, m, n))
    return ShiftInstance(A, chains, lam1, shift, P, segre)


def random_even_shift_instance(
    rng: random.Random, guarded: bool = True, max_k: int = 3
) -> ShiftInstance:
    return _make_instance(rng, 2 * rng.randint(1, max_k), guarded)


def random_odd_shift_instance(
    rng: random.Random, guarded: bool = True, max_k: int = 3
) -> ShiftInstance:
    return _make_instance(rng, 2 * rng.randint(1, max_k) + 1, guarded)


# ---------------------------------------------------------------------------
# targeted concentrated-form sampling

ODD_CASE_LABELS = (
    "Odd1a",
    "Odd1b",
    "Odd2a",
    "Odd2b",
    "Odd2c",
    "Odd3a",
    "Odd3b",
    "Odd4a",
    "Odd4b",
    "Odd4c",
)


def targeted_concentrated_form(
    rng: random.Random, label: str, max_k: int = 4
) -> ConcentratedForm:
    """Concentrated form whose (b_1, a_k, last row) pattern hits `label`."""
    if label not in ODD_CASE_LABELS:
        raise InvalidParameterError(f"unknown odd case label {label!r}")
    min_k = 2 if label in ("Odd2b", "Odd4b") else 1  # at k = 1 their i0 range is empty
    k = rng.randint(min_k, max(max_k, min_k))
    lam = random_scalar(rng, imag_prob=0.2)
    nz = lambda: random_nonzero_scalar(rng, max_num=3, max_den=2)
    sc = lambda: random_scalar(rng, max_num=3, max_den=2)
    b1 = nz() if label.startswith(("Odd1", "Odd3")) else ZERO
    ak = nz() if label.startswith(("Odd1", "Odd2")) else ZERO
    if label in ("Odd1b", "Odd2c", "Odd3b", "Odd4c"):
        i0 = None
    elif label == "Odd2a":
        i0 = k - 1
    elif label == "Odd2b":
        i0 = rng.randint(0, k - 2)
    elif label == "Odd4a":
        i0 = 0
    elif label == "Odd4b":
        i0 = rng.randint(1, k - 1)
    else:  # 1a, 3a: any position
        i0 = rng.randint(0, k - 1)
    row = [ZERO] * k
    if i0 is not None:
        row[i0] = nz()
        for j in range(i0 + 1, k):
            row[j] = sc()
    return ConcentratedForm(
        k, lam, ak, b1, Vector(row), Matrix.identity(2 * k + 1)
    )
