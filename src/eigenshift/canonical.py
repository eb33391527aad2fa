"""Closed-form prediction of the Jordan structure of a shifted matrix.

The shifted matrix is similar to a small canonical block matrix (T in
the even case, S in the odd case), which is read from the shifted chain
pair alone: no n x n Jordan basis is built or inverted.  Both forms go
through one concentrated reduction, an exact similarity that leaves a
single coupling row c (T is the odd form with a = b = 0 and its middle
1 x 1 block dropped).  The cases are dispatched on exact zero tests of
b_1, a_k and c, and Brauer's m = 1 shift is the case Odd0; each case
names its chain tops and their sizes.  Every cycle is read down from
its top and each cycle set is checked exactly before it is surfaced,
both in the oracle module (``read_down``, ``verify_cycles``).  The
cycles belong to the reduced form, which the prediction carries as its
canonical matrix.  Should a set ever fail its check, the oracle's own
cycles replace it and the discrepancy is reported in the diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExtractionError, ReductionError, SingularMatrixError
from .linalg import (
    Matrix,
    Vector,
    _adjoint_of_columns,
    _matrix,
    _normal,
    _vector,
    jordan_block,
    jordan_sum,
    outer_plain,
)
from .oracle import jordan_cycles, read_down, verify_cycles
from .scalars import ComplexRational, ONE
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
                (0, k, self.a),
                (k, k + 1, self.b.transpose()),
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
                (k - 1, k + 1, self.last_row.transpose()),
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
# extraction


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


def extract_odd_canonical(shift: ShiftResult) -> OddCanonical:
    """Read (a, b, C) off the shifted block and assert the block shape."""
    if shift.middle is None:
        raise ExtractionError("odd extraction applied to an even shift")
    k = shift.k
    m = 2 * k + 1
    lead = _extract_leading_block(shift, m)
    form = OddCanonical(
        k,
        shift.lambda1,
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


# ---------------------------------------------------------------------------
# concentrated reduction


def _shifted(v: Vector, s: int) -> Vector:
    """The vector whose entry i is v's entry i - s, or 0 where i - s
    falls outside v (0 <= |s| <= dim)."""
    k = v.dim
    if s >= 0:
        move = lambda xs: (0,) * s + xs[: k - s]
    else:
        move = lambda xs: xs[-s:] + (0,) * -s
    return _vector(_normal(v.den, move(v.re), v.im and move(v.im)))


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
            (0, k, y),
            (k, k + 1, z.transpose()),
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


# ---------------------------------------------------------------------------
# classification


def _first_nonzero(row: Vector):
    """0-based index of the first nonzero entry of row, or None."""
    return next((i for i in range(row.dim) if not row[i].is_zero), None)


def classify_even(ec: EvenCanonical) -> StructurePrediction:
    """Jordan structure of T through the concentrated reduction.

    T is the odd form with a = b = 0 and its middle 1 x 1 block dropped,
    so reducing that form leaves T~ = [[J, e_k c^T], [0, J]], similar to
    T, where c is the reduced last row.  Its cycles are read down from
    the tops of Odd4 without xi: z_k and x_k (k each) when c = 0 (Even1,
    or Even2 when C e_1 != 0), z_k (2k) when c_1 != 0 (Even3), and z_k
    (2k - i0) with z_{i0} (i0) when c's first nonzero entry is c_{i0+1},
    0 < i0 < k (Even4, outside the paper's even display).  The cycles
    belong to T~, which the prediction carries as its canonical form.
    """
    k, lam = ec.k, ec.lam
    zero = Vector.zero(k)
    row = reduce_to_concentrated(OddCanonical(k, lam, zero, zero, ec.C)).last_row
    form = EvenCanonical(k, lam, outer_plain(Vector.unit(k, k - 1), row))
    z = lambda i: Vector.unit(2 * k, k + i - 1)
    x_k = Vector.unit(2 * k, k - 1)
    i0 = _first_nonzero(row)
    if i0 is None:
        label = "Even1" if ec.C.col(0).is_zero else "Even2"
        tops = [(z(k), k), (x_k, k)]
    else:
        label = "Even3" if i0 == 0 else "Even4"
        tops = [(z(k), 2 * k - i0), (z(i0), i0)]
    return _finalize(form.matrix(), lam, label, tops)


def classify_odd(cf: ConcentratedForm) -> StructurePrediction:
    """Jordan structure of the concentrated form S~, cycles verified.

    Coordinates are x_1..x_k, xi, z_1..z_k, with z_0 := xi; i0 is the
    0-based index of the first nonzero entry c_{i0+1} of the last row c.
    Each case names its chain tops and their sizes, and each cycle is
    read down from its top.
    """
    k, lam = cf.k, cf.lam
    b1, ak, row = cf.b_1, cf.a_k, cf.last_row
    n = 2 * k + 1
    z = lambda i: Vector.unit(n, k + i)
    xi, x_k = z(0), Vector.unit(n, k - 1)
    i0 = _first_nonzero(row)
    if not b1.is_zero and not ak.is_zero:
        label = "Odd1b" if i0 is None else "Odd1a"
        tops = [(z(k), n)]
    elif not ak.is_zero:
        if i0 is None:
            label, tops = "Odd2c", [(xi, k + 1), (z(k), k)]
        else:
            label = "Odd2a" if i0 == k - 1 else "Odd2b"
            second = z(i0 + 1) - xi.scale(row[i0] / ak)
            tops = [(z(k), 2 * k - i0), (second, i0 + 1)]
    elif not b1.is_zero:
        if i0 is None:
            label, tops = "Odd3b", [(z(k), k + 1), (x_k, k)]
        else:
            label, tops = "Odd3a", [(z(k), 2 * k - i0), (z(i0), i0 + 1)]
    elif i0 is None:
        label, tops = "Odd4c", [(z(k), k), (x_k, k), (xi, 1)]
    else:
        label = "Odd4a" if i0 == 0 else "Odd4b"
        tops = [(z(k), 2 * k - i0), (z(i0), i0), (xi, 1)]
    return _finalize(cf.matrix(), lam, label, tops)


# ---------------------------------------------------------------------------
# shared machinery


def _finalize(M: Matrix, lam, label, tops) -> StructurePrediction:
    """Read the cycles down from their tops and verify them; fall back
    to the oracle's cycles on failure."""
    cycles = read_down(M.minus_identity(lam), tops)
    claimed = tuple(sorted((len(c) for c in cycles), reverse=True))
    diagnostics = []
    fallback = sum(claimed) != M.rows or not verify_cycles(M, lam, cycles)
    sizes = claimed
    if fallback:
        cycles = jordan_cycles(M, lam)
        sizes = tuple(sorted((len(c) for c in cycles), reverse=True))
        diagnostics.append(
            f"closed-form cycles for case {label} failed verification; "
            f"oracle cycles substituted (claimed {claimed}, actual {sizes})"
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
    Ut_H = _adjoint_of_columns(chains.left[::-1], n)
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
    if oc.k == 0:  # Brauer's shift: S = (lam1), with nothing to reduce
        return _finalize(oc.matrix(), oc.lam, "Odd0", [(Vector.unit(1, 0), 1)])
    return classify_odd(reduce_to_concentrated(oc))
