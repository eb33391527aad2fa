"""Odd-multiplicity reduction to concentrated form and classification."""

import random

import pytest

from eigenshift.canonical import (
    ConcentratedForm,
    OddCanonical,
    classify_odd,
    extract_odd_canonical,
    predict_structure,
    reduce_to_concentrated,
)
from eigenshift.errors import ExtractionError
from eigenshift.linalg import Matrix, Vector
from eigenshift.oracle import jordan_cycles, verify_cycles, weyr_profile
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
            cf = targeted_concentrated_form(rng, label, max_k=8)
            pred = classify_odd(cf)
            assert pred.case_label == label
            assert not pred.fallback_used
            want = weyr_profile(cf.matrix(), cf.lam).block_sizes()
            assert pred.sizes == want
            assert verify_cycles(
                cf.matrix(), cf.lam, [list(c) for c in pred.cycles]
            )


def test_fallback_substitutes_verified_oracle_cycles(monkeypatch):
    """No known form reaches the fallback, so one verification is made
    to fail: the oracle's cycles replace the closed-form ones, the
    prediction says so, and the substituted cycles verify.  The m = 1
    case takes the same path."""
    from eigenshift import canonical

    calls = []

    def fail_first(*args):
        calls.append(args)
        return len(calls) > 1 and verify_cycles(*args)

    monkeypatch.setattr(canonical, "verify_cycles", fail_first)
    cf = targeted_concentrated_form(random.Random(29), "Odd3a")
    pred = classify_odd(cf)
    assert pred.case_label == "Odd3a" and pred.fallback_used
    sizes = weyr_profile(cf.matrix(), cf.lam).block_sizes()
    assert pred.sizes == sizes
    assert pred.diagnostics == (
        "closed-form cycles for case Odd3a failed verification; oracle "
        f"cycles substituted (claimed {sizes}, actual {sizes})",
    )
    assert verify_cycles(cf.matrix(), cf.lam, [list(c) for c in pred.cycles])
    # the next prediction verifies its own cycles again
    assert not classify_odd(cf).fallback_used
    # Brauer's m = 1 shift (Odd0) is verified like every other case
    calls.clear()
    A, chains = build_matrix(SegreCharacteristic([(3, 1), (5, 2)]), Matrix.identity(3))
    pred = predict_structure(shift_odd(A, chains[0], -1))
    assert pred.case_label == "Odd0" and pred.fallback_used
    assert pred.cycles == tuple(map(tuple, jordan_cycles(pred.canonical, -1)))
    assert pred.diagnostics == (
        "closed-form cycles for case Odd0 failed verification; oracle "
        "cycles substituted (claimed (1,), actual (1,))",
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
    """Random odd shifts (guarded, and the seed-7 pools of 80 guarded and
    80 unguarded): every prediction equals the oracle and needs no
    fallback.  An unguarded shift may refuse extraction."""
    rng = random.Random(43)
    shifts = [
        (random_odd_shift_instance(rng, guarded=True, max_k=2), True)
        for _ in range(20)
    ]
    for guarded in (True, False):
        rng = random.Random(7)
        shifts += [
            (random_odd_shift_instance(rng, guarded=guarded), guarded)
            for _ in range(80)
        ]
    for inst, guarded in shifts:
        try:
            pred = predict_structure(inst.shift, inst.P)
        except ExtractionError:
            assert not guarded
            continue
        want = weyr_profile(inst.shift.A_hat, inst.lambda1).block_sizes()
        assert pred.sizes == want
        assert not pred.fallback_used
        assert verify_cycles(
            pred.canonical, inst.lambda1, [list(c) for c in pred.cycles]
        )


def test_eigenspace_odd_matches_null_space():
    """The cycle bottoms lie in the null space of S~ - lam I, are
    independent, and are as many as the null space of S - lam I has
    dimensions, so they span it on S~."""
    rng = random.Random(53)
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
        pred = classify_odd(reduce_to_concentrated(oc))
        assert not pred.fallback_used
        bottoms = [c[0] for c in pred.cycles]
        shifted = pred.canonical.minus_identity(oc.lam)
        for v in bottoms:
            assert (shifted @ v).is_zero
        null = oc.matrix().minus_identity(oc.lam).null_space_basis()
        assert len(bottoms) == len(null)
        assert Matrix.from_columns(bottoms).exact_rank() == len(bottoms)


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
