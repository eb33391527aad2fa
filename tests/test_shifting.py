"""Rank-one and rank-k shift construction and its defining identities."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from eigenshift.errors import (
    InvalidChainError,
    InvalidParameterError,
    InverseIdentityError,
    NormalizationError,
    ShapeError,
    SingularMatrixError,
)
from eigenshift.linalg import Matrix, Vector, jordan_block, outer_plain
from eigenshift.randgen import (
    random_even_shift_instance,
    random_odd_shift_instance,
)
from eigenshift.scalars import CR, ONE, ZERO
from eigenshift.shifting import (
    brauer_shift,
    charpoly_ratio_check,
    half_chain_invariance_holds,
    make_left_inverse,
    make_right_inverse,
    _times_power,
    shift_even,
    shift_odd,
)
from eigenshift.synthesis import (
    ChainPair,
    SegreCharacteristic,
    build_matrix,
    random_unimodular,
)


def test_brauer_rank_one_plain_transpose():
    A = Matrix.from_rows([[CR(2), ONE], [ZERO, CR(3)]])
    v = Vector([ONE, ZERO])
    r = Vector([ONE, CR(5)])  # r^T v = 1 with the plain transpose
    A_hat = brauer_shift(A, v, r, 2, 7)
    assert A_hat @ v == v.scale(CR(7))
    assert charpoly_ratio_check(A, A_hat, 2, 7, 1)


def test_brauer_rejects_bad_normalization_and_vector():
    A = Matrix.from_rows([[CR(2), ZERO], [ZERO, CR(3)]])
    v = Vector([ONE, ZERO])
    with pytest.raises(NormalizationError):
        brauer_shift(A, v, Vector([CR(2), ZERO]), 2, 7)
    with pytest.raises(InvalidChainError):
        brauer_shift(A, Vector([ONE, ONE]), Vector([ONE, ZERO]), 2, 7)


def test_brauer_refuses_r_of_another_dimension():
    """r^T v is one product, which refuses an r longer or shorter than v
    (a truncated sum passed both as normalized)."""
    A = Matrix.from_rows([[CR(2), ONE], [ZERO, CR(3)]])
    v = Vector([ONE, ZERO])
    for r in (Vector([ONE, CR(5), CR(7)]), Vector([ONE])):
        with pytest.raises(ShapeError, match=rf"^\(1, {r.dim}\) @ vector of dim 2$"):
            brauer_shift(A, v, r, 2, 7)


def test_make_right_inverse_identity_and_free_part():
    V = Matrix.from_columns([Vector.unit(4, 0), Vector.unit(4, 1)])
    R = make_right_inverse(V)
    assert R.H @ V == Matrix.identity(2)
    free = Matrix.from_columns([Vector.zero(4), Vector.unit(4, 3)])
    R2 = make_right_inverse(V, free=free)
    assert R2.H @ V == Matrix.identity(2)
    bad_free = Matrix.from_columns([Vector.unit(4, 0), Vector.zero(4)])
    with pytest.raises(InvalidParameterError):
        make_right_inverse(V, free=bad_free)


@pytest.mark.parametrize("make, name", [(make_right_inverse, "V"), (make_left_inverse, "U")])
def test_one_sided_inverse_refuses_rank_deficient_columns(make, name):
    x = Vector([ONE, CR(2), ZERO, CR(0, 1)])
    X = Matrix.from_columns([x, x.scale(CR(3)), Vector.unit(4, 2)])
    with pytest.raises(SingularMatrixError, match=f"^{name} must have full column rank$") as info:
        make(X)
    assert info.value.rank == 2


def test_make_left_inverse_mirror():
    U = Matrix.from_columns([Vector.unit(3, 2), Vector.unit(3, 1)])
    L = make_left_inverse(U)
    assert U.H @ L == Matrix.identity(2)
    free = Matrix.from_columns([Vector.unit(3, 0), Vector.zero(3)])
    L2 = make_left_inverse(U, free=free)
    assert L2 == L + free
    assert U.H @ L2 == Matrix.identity(2)
    bad_free = Matrix.from_columns([Vector.zero(3), Vector.unit(3, 1)])
    with pytest.raises(InvalidParameterError):
        make_left_inverse(U, free=bad_free)


def test_shift_even_golden_block():
    segre = SegreCharacteristic([(1, 4)])
    A, chains = build_matrix(segre, Matrix.identity(4))
    shift = shift_even(A, chains[0], 2)
    assert shift.A_hat == jordan_block(CR(2), 4)
    assert shift.multiplicity == 4
    assert (shift.A_hat - shift.A).exact_rank() <= 4


def test_shift_odd_golden_block():
    """In the identity basis R1 R2* = I, so J_{2k+1}(1) becomes J_{2k+1}(3)."""
    for k in range(4):
        m = 2 * k + 1
        segre = SegreCharacteristic([(1, m)])
        A, chains = build_matrix(segre, Matrix.identity(m))
        shift = shift_odd(A, chains[0], 3)
        assert shift.A_hat == jordan_block(CR(3), m)
        assert (shift.k, shift.multiplicity) == (k, m)


def test_shift_even_rejects_custom_factor_violating_identity():
    for shift, m in ((shift_even, 4), (shift_odd, 5)):
        segre = SegreCharacteristic([(1, m)])
        A, chains = build_matrix(segre, Matrix.identity(m))
        bad = Matrix.from_columns([Vector.unit(m, 2), Vector.unit(m, 3)])
        with pytest.raises(InverseIdentityError):
            shift(A, chains[0], 2, R=bad)
        with pytest.raises(InverseIdentityError):
            shift(A, chains[0], 2, L=bad.scale(2))


def test_shift_parity_enforced():
    segre = SegreCharacteristic([(1, 4)])
    A, chains = build_matrix(segre, Matrix.identity(4))
    with pytest.raises(InvalidChainError):
        shift_odd(A, chains[0], 2)
    segre = SegreCharacteristic([(1, 3)])
    A, chains = build_matrix(segre, Matrix.identity(3))
    with pytest.raises(InvalidChainError):
        shift_even(A, chains[0], 2)


def test_shift_odd_middle_vector_normalization():
    segre = SegreCharacteristic([(0, 3)])
    A, chains = build_matrix(segre, Matrix.identity(3))
    shift = shift_odd(A, chains[0], 4)
    assert shift.multiplicity == 3
    v_mid, r = shift.middle
    from eigenshift.linalg import inner

    assert inner(r, v_mid) == ONE  # r* v_{k+1} = 1 by construction


def test_noop_shift_returns_same_matrix():
    rng = random.Random(17)
    inst = random_even_shift_instance(rng, guarded=False)
    shift = shift_even(inst.A, inst.chains, inst.lambda0)
    assert shift.A_hat == inst.A
    assert half_chain_invariance_holds(shift)


def test_update_rank_bounded_by_multiplicity():
    rng = random.Random(21)
    for _ in range(5):
        for maker in (random_even_shift_instance, random_odd_shift_instance):
            shift = maker(rng, guarded=True, max_k=2).shift
            assert (shift.A_hat - shift.A).exact_rank() <= shift.multiplicity


def test_charpoly_ratio_random_small():
    rng = random.Random(33)
    for _ in range(5):
        inst = random_odd_shift_instance(rng, guarded=False, max_k=2)
        m = inst.chains.length
        assert charpoly_ratio_check(
            inst.A, inst.shift.A_hat, inst.lambda0, inst.lambda1, m
        )


def test_charpoly_ratio_detects_wrong_target():
    segre = SegreCharacteristic([(1, 2)])
    A, chains = build_matrix(segre, Matrix.identity(2))
    shift = shift_even(A, chains[0], 5)
    assert not charpoly_ratio_check(A, shift.A_hat, 1, 6, 2)
    # a real matrix plus i times a real rank-one matrix: only the imaginary
    # parts of the characteristic polynomial move
    bump = outer_plain(Vector([CR(0, 1), ZERO]), Vector([ONE, ONE]))
    assert not charpoly_ratio_check(A, shift.A_hat + bump, 1, 5, 2)


def test_charpoly_ratio_at_n_32_in_a_unimodular_basis():
    """The spectrum check at a size where the coefficients of the two
    characteristic polynomials grow well past those of the n <= 12 tests;
    the complex block makes the matrices Gaussian."""
    lambda0, lambda1 = CR(Fraction(1, 2)), CR(Fraction(7, 3))
    segre = SegreCharacteristic(
        [
            (lambda0, 6), (CR(2, 1), 4), (CR(-3), 5), (CR(1), 3), (CR(0, -1), 2),
            (CR(4), 2), (CR(Fraction(-2, 3)), 2), (CR(5), 4), (CR(-1), 4),
        ]
    )
    rng = random.Random(32)
    A, chains = build_matrix(segre, random_unimodular(segre.total_size, rng))
    A_hat = shift_even(A, chains[0], lambda1).A_hat
    assert A.rows == 32
    assert charpoly_ratio_check(A, A_hat, lambda0, lambda1, 6)
    assert not charpoly_ratio_check(A, A_hat, lambda0, lambda1 + 1, 6)
    assert not charpoly_ratio_check(A, A_hat, lambda0, lambda1, 5)
    assert not charpoly_ratio_check(A, A_hat, lambda0, lambda1, 7)
    u, v = (Vector([CR(rng.randint(-2, 2)) for _ in range(32)]) for _ in range(2))
    assert not charpoly_ratio_check(A, A_hat + outer_plain(u, v), lambda0, lambda1, 6)


def ref_times_power(p: Vector, lam, m):
    """p(x) (x - lam)^m as m rounds of Vector arithmetic, x p - lam p."""
    for _ in range(m):
        p = Vector([*p, ZERO]) - Vector([ZERO, *p]).scale(lam)
    return p


@pytest.mark.parametrize(
    "lam", [ZERO, CR(Fraction(-3, 2)), CR(5), CR(Fraction(1, 2), Fraction(-2, 3)), CR(0, 1)]
)
def test_times_power_matches_vector_arithmetic(lam):
    polys = [
        Vector([ONE]),
        Vector([ONE, CR(-3), CR(Fraction(7, 4))]),
        Vector([CR(Fraction(2, 9)), ZERO, CR(-5), CR(Fraction(1, 3))]),
        Vector([ONE, CR(1, -2), CR(Fraction(1, 2), 3), ZERO, CR(0, Fraction(-5, 6))]),
    ]
    for p in polys:
        for m in range(9):
            assert _times_power(p, lam, m) == ref_times_power(p, lam, m)._form, (p, lam, m)


def test_half_chain_invariance_random():
    rng = random.Random(55)
    for _ in range(5):
        for maker in (random_even_shift_instance, random_odd_shift_instance):
            inst = maker(rng, guarded=False, max_k=2)
            assert half_chain_invariance_holds(inst.shift)


def outer_star(x, y):
    """The rank-one matrix x y*."""
    return Matrix.from_columns([x]) @ Matrix.from_columns([y]).H


def test_half_chain_invariance_detects_each_side():
    """A_hat + x y* breaks A_hat V = V J exactly when y* V != 0, and
    U* A_hat = J^T U* exactly when U* x != 0."""
    rng = random.Random(61)
    A, chains = build_matrix(
        SegreCharacteristic([(1, 4), (2, 2)]), random_unimodular(6, rng)
    )
    pair = chains[0]
    shift = shift_even(A, pair, 3)
    assert half_chain_invariance_holds(shift)
    # u_i* v_j = 0 for i + j <= 4, so U* v_1 = 0 and u_1* V = 0,
    # while u_4* v_1 and u_1* v_4 are nonzero
    right_only = outer_star(pair.right[0], pair.left[3])
    left_only = outer_star(pair.right[3], pair.left[0])
    for E in (right_only, left_only):
        bad = replace(shift, A_hat=shift.A_hat + E)
        assert not half_chain_invariance_holds(bad)

    # k = 0: the middle pair (v_1, u_1) is the half chain on both sides
    A, chains = build_matrix(
        SegreCharacteristic([(3, 1), (7, 2)]), random_unimodular(3, rng)
    )
    pair, other = chains
    shift = shift_odd(A, pair, -2)
    assert shift.k == 0 and half_chain_invariance_holds(shift)
    # the other block's vectors are orthogonal to the shifted pair
    right_only = outer_star(other.right[0], pair.left[0])
    left_only = outer_star(pair.right[0], other.left[0])
    for E in (right_only, left_only):
        bad = replace(shift, A_hat=shift.A_hat + E)
        assert not half_chain_invariance_holds(bad)


def test_rank_one_via_odd_shift_k0():
    """A length-1 chain is the Brauer case; shift_odd degenerates to it."""
    segre = SegreCharacteristic([(3, 1), (7, 2)])
    A, chains = build_matrix(segre, Matrix.identity(3))
    shift = shift_odd(A, chains[0], -2)
    assert shift.multiplicity == 1
    assert shift.A_hat @ chains[0].right[0] == chains[0].right[0].scale(CR(-2))
    assert charpoly_ratio_check(A, shift.A_hat, 3, -2, 1)
