"""Biorthogonality patterns, Hankel Gram tables and resolvent identities."""

import random

import pytest

from eigenshift.biortho import (
    GramTable,
    check_hankel,
    gram_table,
    middle_product_nonzero,
    resolvent_apply_left,
    resolvent_apply_right,
    resolvent_orthogonality_check,
)
from eigenshift.errors import InvalidChainError, ResolventError
from eigenshift.linalg import Matrix, Vector, direct_sum, inner, jordan_block
from eigenshift.scalars import CR, ONE, ZERO
from eigenshift.synthesis import (
    SegreCharacteristic,
    build_matrix,
    generate_parametric_chains_single,
    generate_parametric_chains_two_blocks,
    random_unimodular,
)


def test_cross_gram_zero_for_distinct_eigenvalues():
    rng = random.Random(2)
    segre = SegreCharacteristic([(1, 3), (4, 2)])
    P = random_unimodular(5, rng)
    A, chains = build_matrix(segre, P)
    cross = gram_table(chains[0].left, chains[1].right)
    assert cross.table.is_zero
    cross = gram_table(chains[1].left, chains[0].right)
    assert cross.table.is_zero


def test_same_block_gram_is_lower_triangular_hankel():
    rng = random.Random(4)
    for _ in range(5):
        segre = SegreCharacteristic([(rng.randint(-3, 3), rng.randint(2, 5))])
        P = random_unimodular(segre.total_size, rng)
        _, chains = build_matrix(segre, P)
        table = gram_table(chains[0].left, chains[0].right)
        ok, info = check_hankel(table)
        assert ok, info


def test_check_hankel_flags_violations():
    bad = Matrix.from_rows([[ONE, ZERO], [ZERO, ONE]])
    ok, info = check_hankel(GramTable(bad))
    assert not ok
    (i, j), reason = info
    assert (i, j) == (1, 1)


def test_single_block_family_all_ones_pattern():
    """All-ones parameters: zero Gram on the first half-chains, full on the second."""
    for k in (1, 2, 3):
        twok = 2 * k
        ones = [ONE] * twok
        pair = generate_parametric_chains_single(CR(2), twok, ones, ones)
        table = gram_table(pair.left, pair.right)
        for i in range(1, twok + 1):
            for j in range(1, twok + 1):
                value = table.at(i, j)
                if i <= k and j <= k:
                    assert value.is_zero
                if i >= k + 1 and j >= k + 1:
                    assert not value.is_zero


def test_single_block_family_unit_pattern():
    """a_1 = b_1 = 1, rest zero: Gram supported on the main anti-diagonal."""
    for k in (1, 2, 3):
        twok = 2 * k
        unit = [ONE] + [ZERO] * (twok - 1)
        pair = generate_parametric_chains_single(CR(-1), twok, unit, unit)
        table = gram_table(pair.left, pair.right)
        for i in range(1, twok + 1):
            for j in range(1, twok + 1):
                if i + j == twok + 1:
                    assert not table.at(i, j).is_zero
                else:
                    assert table.at(i, j).is_zero


def test_two_block_family_all_ones_pattern():
    for k in (1, 2, 3):
        ones = [ONE] * k
        left, right = generate_parametric_chains_two_blocks(
            CR(3), k, ones, ones, ones, ones
        )
        table = gram_table(left, right)
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                if i + j < k + 1:
                    assert table.at(i, j).is_zero
                else:
                    assert not table.at(i, j).is_zero


def test_two_block_family_disjoint_pattern():
    for k in (1, 2, 3):
        ones = [ONE] * k
        zeros = [ZERO] * k
        left, right = generate_parametric_chains_two_blocks(
            CR(3), k, ones, zeros, zeros, ones
        )
        table = gram_table(left, right)
        assert table.table.is_zero


def test_middle_product():
    segre = SegreCharacteristic([(0, 3)])
    _, chains = build_matrix(segre, Matrix.identity(3))
    mu = middle_product_nonzero(chains[0].left, chains[0].right)
    assert not mu.is_zero
    with pytest.raises(InvalidChainError):
        middle_product_nonzero(chains[0].left[:2], chains[0].right[:2])


def test_resolvent_apply_matches_definition():
    rng = random.Random(8)
    segre = SegreCharacteristic([(2, 4)])
    P = random_unimodular(4, rng)
    A, chains = build_matrix(segre, P)
    pair = chains[0]
    point = CR(7)
    shifted = A - Matrix.identity(4).scale(point)
    for i in range(1, 5):
        rv = resolvent_apply_right(A, point, pair, i)
        assert shifted @ rv == pair.right[i - 1]
        lw = resolvent_apply_left(A, point, pair, i)
        assert shifted.H @ lw == pair.left[i - 1]


def test_resolvent_rejects_spectrum_point():
    segre = SegreCharacteristic([(2, 2)])
    A, chains = build_matrix(segre, Matrix.identity(2))
    pair = chains[0]
    for check in (
        lambda: resolvent_apply_right(A, CR(2), pair, 1),
        lambda: resolvent_apply_left(A, CR(2), pair, 2),
        lambda: resolvent_orthogonality_check(A, CR(2), pair),
    ):
        with pytest.raises(
            ResolventError, match="^resolvent point 2 lies in the spectrum$"
        ):
            check()


def test_resolvent_orthogonality():
    rng = random.Random(13)
    for _ in range(5):
        size = rng.randint(2, 5)
        segre = SegreCharacteristic([(rng.randint(-3, 3), size)])
        P = random_unimodular(size, rng)
        A, chains = build_matrix(segre, P)
        point = CR(9)
        assert resolvent_orthogonality_check(A, point, chains[0])


def test_resolvent_orthogonality_fails_on_corrupted_chain():
    from eigenshift.synthesis import ChainPair

    segre = SegreCharacteristic([(1, 3)])
    A, chains = build_matrix(segre, Matrix.identity(3))
    good = chains[0]
    bad = ChainPair(
        good.lam,
        [good.left[0] + good.left[2], good.left[1], good.left[2]],
        good.right,
    )
    assert not resolvent_orthogonality_check(A, CR(6), bad)
