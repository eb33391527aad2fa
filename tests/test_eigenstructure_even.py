"""Even-multiplicity canonical extraction, eigenspaces and classification."""

import random

from eigenshift.canonical import (
    EvenCanonical,
    classify_even,
    extract_even_canonical,
    predict_structure,
)
from eigenshift.errors import ExtractionError
from eigenshift.linalg import Matrix, Vector
from eigenshift.oracle import oracle_segre, verify_cycles, weyr_profile
from eigenshift.randgen import random_even_shift_instance
from eigenshift.scalars import CR, ONE, ZERO
from eigenshift.shifting import shift_even
from eigenshift.synthesis import SegreCharacteristic, build_matrix


def _cmat(k, entries):
    return Matrix.from_rows([[CR(e) for e in row] for row in entries])


def test_golden_full_block_shift():
    """J4(1) + J2(3), minimal factors: the shifted matrix is J4(2) + J2(3)."""
    segre = SegreCharacteristic([(1, 4), (3, 2)])
    P = Matrix.identity(6)
    A, chains = build_matrix(segre, P)
    shift = shift_even(A, chains[0], 2)
    from eigenshift.synthesis import jordan_matrix

    assert shift.A_hat == jordan_matrix(SegreCharacteristic([(2, 4), (3, 2)]))
    pred = predict_structure(shift, P)
    assert pred.case_label == "Even3"
    assert pred.segre == SegreCharacteristic([(2, 4)])
    assert oracle_segre(shift.A_hat, [2, 3]) == SegreCharacteristic(
        [(2, 4), (3, 2)]
    )


def test_golden_split_block_shift():
    """Same input with R = [e1, e2 - e3]: the block splits into [2, 2]."""
    segre = SegreCharacteristic([(1, 4), (3, 2)])
    P = Matrix.identity(6)
    A, chains = build_matrix(segre, P)
    e = lambda i: Vector.unit(6, i)
    R = Matrix.from_columns([e(0), e(1) - e(2)], dim=6)
    shift = shift_even(A, chains[0], 2, R=R)
    assert oracle_segre(shift.A_hat, [2, 3]) == SegreCharacteristic(
        [(2, 2), (2, 2), (3, 2)]
    )
    pred = predict_structure(shift, P)
    assert pred.segre == SegreCharacteristic([(2, 2), (2, 2)])
    assert not pred.fallback_used


def _sound(pred, lam):
    """No fallback, and the cycles verify on the reduced form T~."""
    assert not pred.fallback_used and not pred.diagnostics
    assert verify_cycles(pred.canonical, lam, [list(c) for c in pred.cycles])


def test_classify_even_case_labels():
    # C = 0: split case with trivially coupled cycles
    pred = classify_even(EvenCanonical(2, CR(0), Matrix.zeros(2, 2)))
    assert pred.case_label == "Even1" and pred.sizes == (2, 2)
    # Ce1 = 0, C != 0 still falls in the split case with trivial coupling
    C = _cmat(2, [[0, 1], [0, 0]])
    pred = classify_even(EvenCanonical(2, CR(0), C))
    assert pred.case_label == "Even1" and pred.sizes == (2, 2)
    # Ce1 != 0 with c_{k,1} = 0 and NC + CN = 0: split, corrected cycle
    C = _cmat(2, [[1, 0], [0, -1]])
    pred = classify_even(EvenCanonical(2, CR(0), C))
    assert pred.case_label == "Even2" and pred.sizes == (2, 2)
    _sound(pred, CR(0))
    # Ce1 != 0 with c_{k,1} = 0 but NC + CN != 0: the reduced last row is
    # (0, 1), so i0 = 1 and the blocks are (2k - 1, 1), outside the
    # paper's even display
    C = _cmat(2, [[1, 0], [0, 0]])
    pred = classify_even(EvenCanonical(2, CR(0), C))
    assert pred.case_label == "Even4" and pred.sizes == (3, 1)
    _sound(pred, CR(0))
    # c_{k,1} != 0: single full block
    C = _cmat(2, [[0, 0], [1, 0]])
    pred = classify_even(EvenCanonical(2, CR(0), C))
    assert pred.case_label == "Even3" and pred.sizes == (4,)


def test_classify_even_coupling_outside_stated_family():
    """A coupling outside the paper's even display.

    C = e2 e2^T has c_{2,1} = 0 and C e1 = 0, which the paper's case
    split would give blocks [2, 2]; the true structure is [3, 1].  The
    concentrated reduction leaves the last row (0, 1), which is Even4:
    tops z_2 (size 3) and z_1 (size 1), verified without fallback.
    """
    C = _cmat(2, [[0, 0], [0, 1]])
    ec = EvenCanonical(2, CR(0), C)
    pred = classify_even(ec)
    assert pred.case_label == "Even4" and pred.sizes == (3, 1)
    _sound(pred, CR(0))
    assert weyr_profile(ec.matrix(), CR(0)).block_sizes() == (3, 1)


def test_even_classification_matches_oracle_randomized():
    """Random even shifts (guarded, and the seed-7 pools of 80 guarded
    and 80 unguarded) and 300 random couplings C, with Even2 pinned by
    C = diag(1, -1): every prediction equals the oracle and needs no
    fallback.  An unguarded shift may refuse extraction."""
    rng = random.Random(77)
    shifts = [
        (random_even_shift_instance(rng, guarded=True, max_k=3), True)
        for _ in range(25)
    ]
    for guarded in (True, False):
        rng = random.Random(7)
        shifts += [
            (random_even_shift_instance(rng, guarded=guarded), guarded)
            for _ in range(80)
        ]
    for inst, guarded in shifts:
        try:
            pred = predict_structure(inst.shift, inst.P)
        except ExtractionError:
            assert not guarded
            continue
        k = inst.shift.k
        assert not guarded or pred.sizes in ((k, k), (2 * k,))
        want = weyr_profile(inst.shift.A_hat, inst.lambda1).block_sizes()
        assert pred.sizes == want
        _sound(pred, inst.lambda1)
    rng = random.Random(5)
    forms = [EvenCanonical(2, CR(1), _cmat(2, [[1, 0], [0, -1]]))]
    for _ in range(300):
        k = rng.randint(1, 4)
        C = Matrix.from_rows(
            [[CR(rng.choice((-1, 0, 0, 1))) for _ in range(k)] for _ in range(k)]
        )
        forms.append(EvenCanonical(k, CR(rng.randint(-2, 2)), C))
    labels = set()
    for ec in forms:
        pred = classify_even(ec)
        assert pred.sizes == weyr_profile(ec.matrix(), ec.lam).block_sizes()
        _sound(pred, ec.lam)
        labels.add(pred.case_label)
    assert labels == {"Even1", "Even2", "Even3", "Even4"}


def test_eigenspace_even_matches_null_space():
    """The cycle bottoms lie in the null space of T~ - lam I, are
    independent, and are as many as the null space of T - lam I has
    dimensions, so they span it on T~."""
    rng = random.Random(31)
    for k in (1, 2, 3):
        for _ in range(8):
            C = Matrix.from_rows(
                [
                    [CR(rng.randint(-2, 2)) for _ in range(k)]
                    for _ in range(k)
                ]
            )
            ec = EvenCanonical(k, CR(rng.randint(-3, 3)), C)
            pred = classify_even(ec)
            bottoms = [c[0] for c in pred.cycles]
            shifted = pred.canonical.minus_identity(ec.lam)
            for v in bottoms:
                assert (shifted @ v).is_zero
            null = ec.matrix().minus_identity(ec.lam).null_space_basis()
            assert len(bottoms) == len(null)
            assert Matrix.from_columns(bottoms).exact_rank() == len(bottoms)


def test_geometric_multiplicity_at_most_two():
    rng = random.Random(13)
    for _ in range(10):
        inst = random_even_shift_instance(rng, guarded=True, max_k=3)
        pred = predict_structure(inst.shift, inst.P)
        shifted = pred.canonical - Matrix.identity(
            pred.canonical.rows
        ).scale(inst.lambda1)
        assert len(shifted.null_space_basis()) <= 2


def test_extract_even_canonical_reads_coupling():
    segre = SegreCharacteristic([(1, 4)])
    P = Matrix.identity(4)
    A, chains = build_matrix(segre, P)
    shift = shift_even(A, chains[0], 2)
    ec = extract_even_canonical(shift)
    assert ec.k == 2 and ec.lam == CR(2)
    # minimal factors on an identity basis: C = e_k e_1^T
    assert ec.C == _cmat(2, [[0, 0], [1, 0]])
