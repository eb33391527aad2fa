"""Odd-multiplicity reduction to concentrated form and classification."""

import random

import pytest

from eigenshift.canonical import (
    ConcentratedForm,
    OddCanonical,
    classify_odd,
    eigenspace_odd,
    extract_odd_canonical,
    predict_structure,
    reduce_to_concentrated,
)
from eigenshift.errors import ExtractionError
from eigenshift.linalg import Matrix, Vector, stack_vectors_as_rows
from eigenshift.oracle import verify_cycles, weyr_profile
from eigenshift.randgen import (
    ODD_CASE_LABELS,
    random_odd_shift_instance,
    targeted_concentrated_form,
)
from eigenshift.scalars import CR, ONE, ZERO
from eigenshift.shifting import shift_odd
from eigenshift.synthesis import SegreCharacteristic, build_matrix


def test_extract_odd_canonical_shape():
    segre = SegreCharacteristic([(1, 5)])
    P = Matrix.identity(5)
    A, chains = build_matrix(segre, P)
    shift = shift_odd(A, chains[0], 4)
    oc = extract_odd_canonical(shift)
    assert oc.k == 2 and oc.lam == CR(4)
    assert oc.a.dim == 2 and oc.b.dim == 2 and oc.C.shape == (2, 2)
    # the extracted data reassembles to the similarity image itself
    assert oc.matrix() == P.inverse() @ shift.A_hat @ P


def test_extract_odd_rejects_even_shift():
    from eigenshift.shifting import shift_even

    segre = SegreCharacteristic([(1, 4)])
    A, chains = build_matrix(segre, Matrix.identity(4))
    shift = shift_even(A, chains[0], 2)
    with pytest.raises(ExtractionError):
        extract_odd_canonical(shift)


def test_reduction_is_exact_similarity():
    rng = random.Random(3)
    for k in (1, 2, 3):
        for _ in range(6):
            a = Vector([CR(rng.randint(-2, 2)) for _ in range(k)])
            b = Vector([CR(rng.randint(-2, 2)) for _ in range(k)])
            C = Matrix.from_rows(
                [[CR(rng.randint(-2, 2)) for _ in range(k)] for _ in range(k)]
            )
            oc = OddCanonical(k, CR(rng.randint(-3, 3)), a, b, C)
            cf = reduce_to_concentrated(oc)
            Y = cf.transform
            assert Y @ oc.matrix() @ Y.inverse() == cf.matrix()
            # reduction preserves a_k and b_1
            assert cf.a_k == a[k - 1]
            assert cf.b_1 == b[0]


def test_reduction_preserves_weyr_profile():
    rng = random.Random(19)
    for _ in range(10):
        k = rng.randint(1, 3)
        oc = OddCanonical(
            k,
            CR(rng.randint(-2, 2)),
            Vector([CR(rng.randint(-2, 2)) for _ in range(k)]),
            Vector([CR(rng.randint(-2, 2)) for _ in range(k)]),
            Matrix.from_rows(
                [[CR(rng.randint(-2, 2)) for _ in range(k)] for _ in range(k)]
            ),
        )
        cf = reduce_to_concentrated(oc)
        assert (
            weyr_profile(oc.matrix(), oc.lam).null_dims
            == weyr_profile(cf.matrix(), cf.lam).null_dims
        )


def test_targeted_labels_all_reachable_and_sound():
    rng = random.Random(29)
    for label in ODD_CASE_LABELS:
        for _ in range(6):
            cf = targeted_concentrated_form(rng, label)
            pred = classify_odd(cf)
            assert pred.case_label == label
            want = weyr_profile(cf.matrix(), cf.lam).block_sizes()
            assert pred.sizes == want
            assert verify_cycles(
                cf.matrix(), cf.lam, [list(c) for c in pred.cycles]
            )


def test_odd_segre_family_membership():
    """Every odd prediction is [2k+1], [2k-i+1, i], or [2k-i, i, 1]."""
    rng = random.Random(37)
    for _ in range(30):
        cf = targeted_concentrated_form(
            rng, rng.choice(ODD_CASE_LABELS)
        )
        k = cf.k
        sizes = classify_odd(cf).sizes
        n = 2 * k + 1
        assert sum(sizes) == n
        ok = (
            sizes == (n,)
            or (len(sizes) == 2 and sizes[0] + sizes[1] == n)
            or (
                len(sizes) == 3
                and sizes[2] == 1
                and sizes[0] + sizes[1] == n - 1
            )
        )
        assert ok, sizes


def test_odd_shift_classification_matches_oracle():
    rng = random.Random(43)
    for _ in range(20):
        inst = random_odd_shift_instance(rng, guarded=True, max_k=2)
        pred = predict_structure(inst.shift, inst.P)
        want = weyr_profile(pred.canonical, inst.lambda1).block_sizes()
        assert pred.sizes == want
        assert verify_cycles(
            pred.canonical, inst.lambda1, [list(c) for c in pred.cycles]
        )


def test_eigenspace_odd_matches_null_space():
    rng = random.Random(53)
    checked_disagreement = 0
    for _ in range(40):
        k = rng.randint(1, 3)
        oc = OddCanonical(
            k,
            CR(rng.randint(-2, 2)),
            Vector([CR(rng.choice((-1, 0, 1))) for _ in range(k)]),
            Vector([CR(rng.choice((-1, 0, 1))) for _ in range(k)]),
            Matrix.from_rows(
                [
                    [CR(rng.choice((-1, 0, 1))) for _ in range(k)]
                    for _ in range(k)
                ]
            ),
        )
        basis, diags = eigenspace_odd(oc)
        S = oc.matrix()
        shifted = S - Matrix.identity(2 * k + 1).scale(oc.lam)
        for v in basis:
            assert (shifted @ v).is_zero
        null = shifted.null_space_basis()
        assert len(basis) == len(null)
        assert stack_vectors_as_rows(basis).exact_rank() == len(basis)
        if diags:
            checked_disagreement += 1
    # disagreements (if any) are reported, never silently asserted
    assert checked_disagreement >= 0


def test_geometric_multiplicity_at_most_three():
    rng = random.Random(59)
    for _ in range(10):
        inst = random_odd_shift_instance(rng, guarded=True, max_k=2)
        pred = predict_structure(inst.shift, inst.P)
        shifted = pred.canonical - Matrix.identity(
            pred.canonical.rows
        ).scale(inst.lambda1)
        assert len(shifted.null_space_basis()) <= 3


def test_multiplicity_one_prediction():
    segre = SegreCharacteristic([(3, 1), (5, 2)])
    P = Matrix.identity(3)
    A, chains = build_matrix(segre, P)
    shift = shift_odd(A, chains[0], -1)
    pred = predict_structure(shift, P)
    assert pred.case_label == "Odd0"
    assert pred.segre == SegreCharacteristic([(-1, 1)])
