"""Closed-form prediction of the Jordan structure of a shifted matrix.

The shifted matrix is similar to a small canonical block matrix (T in
the even case, S in the odd case), which is read from the shifted chain
pair alone: no n x n Jordan basis is built or inverted.  The cases are
dispatched on exact zero tests of the coupling entries, explicit
generalized-eigenvector cycles are constructed from the closed-form
displays, and every cycle is verified against the canonical matrix
before being surfaced.  When a closed-form display fails its own
verification (several of them do on degenerate couplings), the
rank-sequence oracle supplies the cycles and the discrepancy is
reported in the diagnostics instead of being silently trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ExtractionError, ReductionError, SingularMatrixError
from .linalg import (
    Matrix,
    Vector,
    _clear,
    _concat,
    _matrix,
    _normal,
    _vector,
    jordan_block,
    jordan_sum,
    outer_plain,
    stack_vectors_as_rows,
)
from .oracle import jordan_cycles, verify_cycles
from .scalars import ComplexRational, ONE, ZERO
from .shifting import ShiftResult
from .synthesis import SegreCharacteristic


# ---------------------------------------------------------------------------
# canonical form containers


class _Assembled:
    """A form that assembles its matrix once, when it is made."""

    def __post_init__(self):
        object.__setattr__(self, "_assembled", self._assemble())

    def matrix(self) -> Matrix:
        """The form's matrix, assembled when the form was made."""
        return self._assembled


@dataclass(frozen=True)
class EvenCanonical(_Assembled):
    """T = [[J_k(lam), C], [0, J_k(lam)]]."""

    k: int
    lam: ComplexRational
    C: Matrix

    def _assemble(self) -> Matrix:
        k, lam = self.k, self.lam
        return jordan_sum(((lam, k), (lam, k)), ((0, k, self.C),))


@dataclass(frozen=True)
class OddCanonical(_Assembled):
    """S = [[J_k(lam), a, C], [0, lam, b^T], [0, 0, J_k(lam)]]."""

    k: int
    lam: ComplexRational
    a: Vector
    b: Vector
    C: Matrix

    def _assemble(self) -> Matrix:
        k, lam = self.k, self.lam
        return jordan_sum(
            ((lam, k), (lam, 1), (lam, k)),
            (
                (0, k, self.a.as_column()),
                (k, k + 1, self.b.as_column().transpose()),
                (0, k + 1, self.C),
            ),
        )


@dataclass(frozen=True)
class ConcentratedForm(_Assembled):
    """Lower concentrated reduction of an OddCanonical.

    a is reduced to a_k e_k, b to b_1 e_1, and the coupling block to a
    single (last) row; transform holds the similarity Y with
    Y S Y^{-1} = S_tilde.
    """

    k: int
    lam: ComplexRational
    a_k: ComplexRational
    b_1: ComplexRational
    last_row: Vector
    transform: Matrix

    def _assemble(self) -> Matrix:
        k, lam = self.k, self.lam
        return jordan_sum(
            ((lam, k), (lam, 1), (lam, k)),
            (
                (k - 1, k, Matrix(1, 1, [self.a_k])),
                (k, k + 1, Matrix(1, 1, [self.b_1])),
                (k - 1, k + 1, self.last_row.as_column().transpose()),
            ),
        )


@dataclass(frozen=True)
class StructurePrediction:
    """Predicted canonical structure at the shifted eigenvalue."""

    segre: SegreCharacteristic
    cycles: tuple
    case_label: str
    canonical: Matrix
    fallback_used: bool = False
    diagnostics: tuple = ()

    @property
    def sizes(self) -> tuple:
        lam = self.segre.blocks[0][0]
        return self.segre.sizes_at(lam)


# ---------------------------------------------------------------------------
# small vector building helpers


def _neg_lower_shift_apply(x: Vector) -> Vector:
    """Apply N_k (with N_k^T = lam I - J_k(lam), i.e. -1 on the subdiagonal)."""
    return -_shifted(x, 1)


def _unit(k: int, idx1: int) -> Vector:
    """e_{idx1} in C^k, or zero when the 1-based index falls outside 1..k."""
    if 1 <= idx1 <= k:
        return Vector.unit(k, idx1 - 1)
    return Vector.zero(k)


def _stack3(x: Vector, xi, z: Vector) -> Vector:
    return _vector(_concat([x._form, _clear((xi,)), z._form]))


def _shifted(v: Vector, s: int) -> Vector:
    """The vector whose entry i is v's entry i - s, or 0 where i - s
    falls outside v (0 <= |s| <= dim)."""
    k = v.dim
    if s >= 0:
        move = lambda xs: (0,) * s + xs[: k - s]
    else:
        move = lambda xs: xs[-s:] + (0,) * -s
    return _vector(_normal(v.den, move(v.re), v.im and move(v.im)))


# ---------------------------------------------------------------------------
# even multiplicity


def extract_even_canonical(shift: ShiftResult) -> EvenCanonical:
    """Read C off the shifted block and assert the block-triangular shape."""
    if shift.middle is not None:
        raise ExtractionError("even extraction applied to an odd shift")
    k = shift.k
    lead = _extract_leading_block(shift, 2 * k)
    form = EvenCanonical(k, shift.lambda1, lead.submatrix(0, k, k, 2 * k))
    if form.matrix() != lead:
        raise ExtractionError(
            "leading block is not [[J_k(lambda1), C], [0, J_k(lambda1)]]"
        )
    return form


def eigenspace_even(ec: EvenCanonical):
    """Eigenspace basis of T at lam by the closed-form case split."""
    k, C = ec.k, ec.C
    ck1 = C[k - 1, 0]
    Ce1 = C.col(0)
    e1 = Vector.unit(k, 0)
    zero = Vector.zero(k)
    if ck1.is_zero and Ce1.is_zero:
        return [e1.concat(zero), zero.concat(e1)]
    if ck1.is_zero:
        return [e1.concat(zero), _neg_lower_shift_apply(Ce1).concat(e1)]
    return [e1.concat(zero)]


def classify_even(ec: EvenCanonical) -> StructurePrediction:
    """Jordan structure of T from the even case split, cycles verified.

    gamma_2 is (x_m, e_m) with x_m = sum_{i<=m} N^{m-i+1} C e_i, that is
    x_m = N (x_{m-1} + C e_m), in every case; Even1's display starts its
    sum at i = 2, which is the same because C e_1 = 0 there.  Even3
    chains gamma_2 onto gamma_1 = (c_{k1} e_m, 0) in one cycle.
    """
    k, lam, C = ec.k, ec.lam, ec.C
    ck1 = C[k - 1, 0]
    if not ck1.is_zero:
        label, claimed, lead = "Even3", (2 * k,), ck1
    else:
        label = "Even1" if C.col(0).is_zero else "Even2"
        claimed, lead = (k, k), ONE
    zero = Vector.zero(k)
    gamma1 = [Vector.unit(k, m).scale(lead).concat(zero) for m in range(k)]
    gamma2 = []
    x = zero
    for m in range(k):
        x = _neg_lower_shift_apply(x + C.col(m))
        gamma2.append(x.concat(Vector.unit(k, m)))
    cycles = [gamma1 + gamma2] if label == "Even3" else [gamma1, gamma2]
    return _finalize(ec.matrix(), lam, label, claimed, cycles)


# ---------------------------------------------------------------------------
# odd multiplicity


def extract_odd_canonical(shift: ShiftResult) -> OddCanonical:
    """Read (a, b, C) off the shifted block and assert the block shape."""
    if shift.middle is None:
        raise ExtractionError("odd extraction applied to an even shift")
    k = shift.k
    m = 2 * k + 1
    lead = _extract_leading_block(shift, m)
    lam1 = shift.lambda1
    if k == 0:
        if lead[0, 0] != lam1:
            raise ExtractionError("1x1 block does not equal lambda1")
        return OddCanonical(0, lam1, Vector([]), Vector([]), Matrix(0, 0, []))
    form = OddCanonical(
        k,
        lam1,
        lead.submatrix(0, k, k, k + 1).col(0),
        lead.submatrix(k, k + 1, k + 1, m).row(0),
        lead.submatrix(0, k, k + 1, m),
    )
    if form.matrix() != lead:
        raise ExtractionError(
            "leading block is not [[J_k(lambda1), a, C], [0, lambda1, b^T], "
            "[0, 0, J_k(lambda1)]]"
        )
    return form


def eigenspace_odd(oc: OddCanonical):
    """(basis, diagnostics) for the eigenspace of S at lam.

    The closed-form case display is compared against the exact null
    space; on disagreement the null space wins and a diagnostic is
    reported instead of asserting the literal display.
    """
    k = oc.k
    a, b, C = oc.a, oc.b, oc.C
    b1, ak, ck1 = b[0], a[k - 1], C[k - 1, 0]
    e1 = Vector.unit(k, 0)
    zero = Vector.zero(k)
    N = _neg_lower_shift_apply
    if b1.is_zero and not ak.is_zero and ck1.is_zero:
        literal = [_stack3(e1, ZERO, zero), _stack3(N(C.col(0)), ZERO, e1)]
    elif b1.is_zero and not ak.is_zero:
        t = -ck1 / ak
        literal = [
            _stack3(e1, ZERO, zero),
            _stack3(N(a.scale(t) + C.col(0)), t, e1),
        ]
    elif ak.is_zero and (not b1.is_zero or not ck1.is_zero):
        literal = [_stack3(e1, ZERO, zero), _stack3(N(a), ONE, zero)]
    elif b1.is_zero and ak.is_zero:
        literal = [
            _stack3(e1, ZERO, zero),
            _stack3(N(a + C.col(0)), ONE, e1),
            _stack3(N(C.col(0)), ZERO, e1),
        ]
    else:
        literal = [_stack3(e1, ZERO, zero)]
    S = oc.matrix()
    null = S.minus_identity(oc.lam).null_space_basis()
    diags = []
    joint = stack_vectors_as_rows(literal + null).exact_rank()
    independent = stack_vectors_as_rows(literal).exact_rank() == len(literal)
    if not (independent and len(literal) == len(null) and joint == len(null)):
        diags.append(
            "closed-form eigenspace display disagrees with the exact null "
            f"space ({len(literal)} listed vs dimension {len(null)}); "
            "returning the null space basis"
        )
        return null, diags
    return literal, diags


def reduce_to_concentrated(oc: OddCanonical) -> ConcentratedForm:
    """Similarity to lower concentrated form via the Y-transform.

    Free entries y_1 and z_k are fixed to 0, and the first row of the
    commutator gauge W is fixed to 0; the recurrence determines the
    rest.  The resulting similarity is verified exactly.
    """
    k, lam = oc.k, oc.lam
    a, b, C = oc.a, oc.b, oc.C
    y = _shifted(a, 1)
    z = -_shifted(b, -1)
    # (J_k(lam) - lam I) y is y moved up one place
    D = C + outer_plain(y, b) - outer_plain(a, z) + outer_plain(_shifted(y, -1), z)

    def recurrence(d):
        """W's recurrence on D's numerators d, run one row past W: the
        first row is zero, then w_{i+1,j} = w_{i,j-1} + d_{i,j}; the
        extra row k + 1 is the last row, sum over l < j of
        d_{k-l, j-l}."""
        w = [0] * (k * (k + 1))
        for i in range(1, k + 1):
            w[i * k] = d[(i - 1) * k]
            for j in range(1, k):
                w[i * k + j] = w[(i - 1) * k + j - 1] + d[(i - 1) * k + j]
        return w

    w_re = recurrence(D.re)
    w_im = D.im and recurrence(D.im)
    cut = k * k
    W = _matrix(k, k, _normal(D.den, w_re[:cut], w_im and w_im[:cut]))
    last = _vector(_normal(D.den, w_re[cut:], w_im and w_im[cut:]))
    # Y = [[I, y, W], [0, 1, z^T], [0, 0, I]], over 1 x 1 blocks J_1(1)
    Y = jordan_sum(
        ((ONE, 1),) * (2 * k + 1),
        (
            (0, k, y.as_column()),
            (k, k + 1, z.as_column().transpose()),
            (0, k + 1, W),
        ),
    )
    # the last row is cross-checked below
    cf = ConcentratedForm(k, lam, a[k - 1], b[0], last, Y)
    # Y is unit block upper triangular, hence invertible, so Y S Y^{-1}
    # equals the concentrated form exactly when Y S does S~ Y
    if Y @ oc.matrix() != cf.matrix() @ Y:
        raise ReductionError(
            "Y-transform did not reach the expected concentrated form"
        )
    return cf


def _alphas(row: Vector, i0: int, k: int):
    """alpha_0 = 1, alpha_j = -(1/c_{i0+1}) sum_{s<j} alpha_s c_{i0+2+s}."""
    pivot = row[i0]
    alphas = [ONE]
    for j in range(1, k - i0):
        s = ZERO
        for t in range(j):
            idx = i0 + 1 + t  # 0-based index of c̃_{k, i0+2+t}
            if idx < k:
                s = s + alphas[t] * row[idx]
        alphas.append(-s / pivot)
    return alphas


def _odd_case1_cycles(cf: ConcentratedForm, i0: Optional[int]):
    k = cf.k
    b1, ak, row = cf.b_1, cf.a_k, cf.last_row
    zero = Vector.zero(k)
    lead = b1 * ak
    gamma = [_stack3(_unit(k, m).scale(lead), ZERO, zero) for m in range(1, k + 1)]
    gamma.append(_stack3(zero, b1, zero))
    if i0 is None:  # Case 1b: whole last row zero
        gamma.extend(_stack3(zero, ZERO, _unit(k, m)) for m in range(1, k + 1))
        return [gamma]
    gamma.extend(_stack3(zero, ZERO, _unit(k, m)) for m in range(1, i0 + 1))
    row = row.entries
    taus = []
    for j in range(1, k - i0 + 1):
        # f = e_{i0+j} + sum_{s<j} (tau_s / b1) e_{j-s}: its nonzero
        # entries are 1 at i0 + j and f_p = tau_{j-p} / b1 for p < j
        f = [ZERO] * k
        f[i0 + j - 1] = ONE
        for s in range(1, j):
            f[j - s - 1] = taus[s - 1] / b1
        dot = sum((row[p] * f[p] for p in range(j - 1)), start=row[i0 + j - 1])
        tau = -dot / ak
        taus.append(tau)
        gamma.append(_stack3(zero, tau, Vector(f)))
    return [gamma]


def _mn_cycle(cf: ConcentratedForm, i0: int, variant: str):
    """The long gamma_1 of Cases 2b / 3a / 4b, built from m_j and n_j."""
    k = cf.k
    row = cf.last_row
    pivot = row[i0]
    alphas = _alphas(row, i0, k)
    length = 2 * k - i0
    out = []
    for j in range(1, length + 1):
        m_part = _unit(k, j).scale(pivot) if j <= k else Vector.zero(k)
        xi = ZERO
        z = Vector.zero(k)
        base = j - k + i0  # index shift appearing in every display
        if variant == "2b":
            if j == length:
                s_hi = k - i0 - 2
                xi = -sum(
                    (alphas[s] * row[k - s - 1] for s in range(s_hi + 1)),
                    start=ZERO,
                ) / cf.a_k
                for s in range(s_hi + 1):
                    z = z + _unit(k, k - s).scale(alphas[s])
            elif j >= k - i0 + 1:
                if j < 2 * k - 2 * i0 - 1 and k != i0 + 2:
                    s_hi = base - 1
                else:
                    s_hi = k - i0 - 2
                for s in range(s_hi + 1):
                    z = z + _unit(k, base - s).scale(alphas[s])
        elif variant == "3a":
            if j == k - i0:
                xi = cf.b_1
            elif j > k - i0:
                if j < 2 * k - 2 * i0:
                    xi = cf.b_1 * alphas[base]
                    s_hi = base - 1
                else:
                    s_hi = k - i0 - 1
                for s in range(s_hi + 1):
                    z = z + _unit(k, base - s).scale(alphas[s])
        else:  # "4b"
            if j >= k - i0 + 1:
                if j < 2 * k - 2 * i0 and k != i0 + 1:
                    s_hi = base - 1
                else:
                    s_hi = k - i0 - 1
                for s in range(s_hi + 1):
                    z = z + _unit(k, base - s).scale(alphas[s])
        out.append(_stack3(m_part, xi, z))
    return out


def classify_odd(cf: ConcentratedForm) -> StructurePrediction:
    """Jordan structure of the concentrated form, cycles verified."""
    k, lam = cf.k, cf.lam
    S = cf.matrix()
    b1, ak, row = cf.b_1, cf.a_k, cf.last_row
    i0 = next((i for i in range(k) if not row[i].is_zero), None)
    zero = Vector.zero(k)
    e = lambda m: _unit(k, m)

    if not b1.is_zero and not ak.is_zero:
        label = "Odd1b" if i0 is None else "Odd1a"
        claimed = (2 * k + 1,)
        cycles = _odd_case1_cycles(cf, i0)
    elif b1.is_zero and not ak.is_zero:
        gamma1 = [_stack3(e(m).scale(ak), ZERO, zero) for m in range(1, k + 1)]
        gamma1.append(_stack3(zero, ONE, zero))
        if i0 is None:
            label, claimed = "Odd2c", (k + 1, k)
            gamma2 = [_stack3(zero, ZERO, e(m)) for m in range(1, k + 1)]
            cycles = [gamma1, gamma2]
        elif i0 == k - 1:
            label, claimed = "Odd2a", (k + 1, k)
            gamma2 = [_stack3(zero, ZERO, e(m)) for m in range(1, k)]
            gamma2.append(_stack3(zero, -row[k - 1] / ak, e(k)))
            cycles = [gamma1, gamma2]
        else:
            label, claimed = "Odd2b", (2 * k - i0, i0 + 1)
            gamma2 = [_stack3(zero, ZERO, e(m)) for m in range(1, i0 + 1)]
            gamma2.append(_stack3(zero, -row[i0] / ak, e(i0 + 1)))
            cycles = [_mn_cycle(cf, i0, "2b"), gamma2]
    elif not b1.is_zero:
        if i0 is None:
            label, claimed = "Odd3b", (k + 1, k)
            gamma1 = [_stack3(zero, b1, zero)]
            gamma1.extend(_stack3(zero, ZERO, e(m)) for m in range(1, k + 1))
            gamma2 = [_stack3(e(m), ZERO, zero) for m in range(1, k + 1)]
            cycles = [gamma1, gamma2]
        else:
            label, claimed = "Odd3a", (2 * k - i0, i0 + 1)
            gamma2 = [_stack3(zero, b1, zero)]
            gamma2.extend(_stack3(zero, ZERO, e(m)) for m in range(1, i0 + 1))
            cycles = [_mn_cycle(cf, i0, "3a"), gamma2]
    else:
        if i0 is None:
            label, claimed = "Odd4c", (k, k, 1)
            cycles = [
                [_stack3(zero, ZERO, e(m)) for m in range(1, k + 1)],
                [_stack3(e(m), ZERO, zero) for m in range(1, k + 1)],
                [_stack3(zero, ONE, zero)],
            ]
        elif i0 == 0:
            label, claimed = "Odd4a", (2 * k, 1)
            pivot = row[0]
            psis = [ONE]
            for j in range(2, k + 1):
                s = ZERO
                for t in range(1, j):
                    idx = j - t  # 0-based index of c̃_{k, j-t+1}
                    if idx < k:
                        s = s + psis[t - 1] * row[idx]
                psis.append(-s / pivot)
            gamma1 = [_stack3(e(m).scale(pivot), ZERO, zero) for m in range(1, k + 1)]
            for m in range(1, k + 1):
                zvec = Vector.zero(k)
                for s in range(1, m + 1):
                    zvec = zvec + e(m - s + 1).scale(psis[s - 1])
                gamma1.append(_stack3(zero, ZERO, zvec))
            cycles = [gamma1, [_stack3(zero, ONE, zero)]]
        else:
            label, claimed = "Odd4b", (2 * k - i0, i0, 1)
            cycles = [
                _mn_cycle(cf, i0, "4b"),
                [_stack3(zero, ZERO, e(m)) for m in range(1, i0 + 1)],
                [_stack3(zero, ONE, zero)],
            ]
    return _finalize(S, lam, label, claimed, cycles)


# ---------------------------------------------------------------------------
# shared machinery


def _finalize(M: Matrix, lam, label, claimed_sizes, cycles) -> StructurePrediction:
    """Verify closed-form cycles; fall back to the oracle on failure."""
    diagnostics = []
    fallback = False
    sizes = tuple(sorted((len(c) for c in cycles), reverse=True))
    ok = (
        sizes == tuple(sorted(claimed_sizes, reverse=True))
        and sum(sizes) == M.rows
        and verify_cycles(M, lam, cycles)
    )
    if not ok:
        fallback = True
        cycles = jordan_cycles(M, lam)
        sizes = tuple(sorted((len(c) for c in cycles), reverse=True))
        diagnostics.append(
            f"closed-form cycles for case {label} failed verification; "
            f"oracle cycles substituted (claimed {tuple(claimed_sizes)}, "
            f"actual {sizes})"
        )
    segre = SegreCharacteristic([(lam, s) for s in sizes]).canonical()
    return StructurePrediction(
        segre=segre,
        cycles=tuple(tuple(c) for c in cycles),
        case_label=label,
        canonical=M,
        fallback_used=fallback,
        diagnostics=tuple(diagnostics),
    )


def _extract_leading_block(shift: ShiftResult, m: int) -> Matrix:
    """The shifted block of A_hat, read from the shifted chain pair alone.

    With V the right chain and U~ the reversed left chain, W* =
    (U~* V)^{-1} U~* is the first m rows of P^{-1} for every Jordan
    basis P whose first m columns are V, so no basis is built: the block
    is M = W* A_hat V = J + Y, with J = J_m(lam0), D = A_hat V - V J and
    Y = W* D.  When the ambient dimension exceeds m, the update must
    stay inside the shifted block's invariant subspace and leave the
    complementary Jordan part untouched; any coupling means the
    closed-form analysis does not apply and extraction refuses.  A_hat V
    leaves span(V) exactly when D != V Y (the lower block rows), and
    A_hat - A = D W* holds exactly when the update touches neither the
    trailing columns (W* A_hat = M W*) nor the complementary part.
    """
    A_hat, chains = shift.A_hat, shift.chains
    n = A_hat.rows
    V = Matrix.from_columns(list(chains.right), dim=n)
    Ut_H = Matrix.from_columns(list(reversed(chains.left)), dim=n).H
    G = Ut_H @ V
    try:
        # the chains of build_matrix come from P and P^{-1}: G = I
        W = Ut_H if G == Matrix.identity(m) else G.solve(Ut_H)
    except SingularMatrixError:
        raise ExtractionError(
            "U~* V is singular: the left and right chains are not the "
            "chains of one Jordan block"
        ) from None
    J = jordan_block(chains.lam, m)
    D = A_hat @ V - V @ J
    Y = W @ D
    M = J + Y
    if n == m:  # W* = V^{-1}: every check below holds
        return M
    if D != V @ Y:
        raise ExtractionError("shift update couples into the lower block rows")
    if A_hat - shift.A != D @ W:
        if W @ A_hat != M @ W:
            raise ExtractionError(
                "shift update couples into the trailing columns"
            )
        raise ExtractionError("complementary Jordan part was modified")
    return M


def predict_structure(shift: ShiftResult, P=None) -> StructurePrediction:
    """End-to-end prediction: extract, (reduce,) classify, verify.

    The shifted block is read from the shift's chain pair alone.  P, the
    Jordan basis that prediction once needed, is accepted and not read,
    so callers that still pass one keep working.
    """
    if shift.multiplicity % 2 == 0:
        return classify_even(extract_even_canonical(shift))
    oc = extract_odd_canonical(shift)
    if oc.k == 0:
        return StructurePrediction(
            segre=SegreCharacteristic([(oc.lam, 1)]),
            cycles=((Vector([ONE]),),),
            case_label="Odd0",
            canonical=oc.matrix(),
        )
    return classify_odd(reduce_to_concentrated(oc))
