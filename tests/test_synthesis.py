"""Matrix synthesis from block data and parametric chain families."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenshift.errors import InvalidChainError, InvalidParameterError, ShapeError
from eigenshift.linalg import Matrix, Vector, jordan_block
from eigenshift import linalg, synthesis
from eigenshift.oracle import jordan_cycles, oracle_segre, verify_cycles
from eigenshift.scalars import CR, ONE, ZERO
from eigenshift.synthesis import (
    ChainPair,
    SegreCharacteristic,
    basis_inverse,
    build_matrix,
    check_chains,
    generate_parametric_chains_single,
    generate_parametric_chains_two_blocks,
    jordan_matrix,
    random_unimodular,
)


def test_segre_canonicalization_and_equality():
    s1 = SegreCharacteristic([(3, 2), (1, 4), (1, 1)])
    s2 = SegreCharacteristic([(1, 1), (1, 4), (3, 2)])
    assert s1 == s2
    assert hash(s1) == hash(s2)
    assert s1.canonical().blocks[0] == (CR(1), 4)
    assert s1.sizes_at(1) == (4, 1)
    assert s1.total_size == 7


def _grouped(blocks):
    """The grouping canonical() gives: each distinct eigenvalue, in (re, im)
    order, followed by its sizes in descending order."""
    seen = []
    for lam, _ in blocks:
        if lam not in seen:
            seen.append(lam)
    out = []
    for lam in sorted(seen, key=lambda s: s.sort_key()):
        sizes = sorted((s for ev, s in blocks if ev == lam), reverse=True)
        out.extend((lam, s) for s in sizes)
    return tuple(out)


def test_canonical_order_matches_the_grouping_by_eigenvalue():
    pool = [
        CR(0), CR(1), CR(-1), CR(0, 1), CR(0, -1), CR(1, 1), CR(1, -1),
        CR(Fraction(1, 2)), CR(Fraction(1, 2), -3), CR(Fraction(-7, 3), 2),
    ]
    rng = random.Random(12)
    for _ in range(300):
        blocks = [(rng.choice(pool), rng.randint(1, 4)) for _ in range(rng.randint(1, 8))]
        segre = SegreCharacteristic(blocks)
        want = _grouped(segre.blocks)
        assert segre.canonical().blocks == want
        for lam in dict.fromkeys(lam for lam, _ in segre.canonical().blocks):
            assert segre.sizes_at(lam) == tuple(s for ev, s in want if ev == lam)


def test_segre_rejects_bad_sizes():
    # a bool, float or string is refused, not truncated by int()
    for size in (0, -1, 2.5, 1.0, True, False, "2", None):
        with pytest.raises(ShapeError):
            SegreCharacteristic([(3, 2), (1, size)])
    # and a bool eigenvalue is not taken as 0 or 1
    with pytest.raises(TypeError):
        SegreCharacteristic([(True, 2)])


def test_jordan_matrix_layout():
    J = jordan_matrix(SegreCharacteristic([(2, 2), (5, 1)]))
    assert J == Matrix.from_rows(
        [
            [CR(2), ONE, ZERO],
            [ZERO, CR(2), ZERO],
            [ZERO, ZERO, CR(5)],
        ]
    )


def test_build_matrix_identity_basis():
    segre = SegreCharacteristic([(1, 4), (3, 2)])
    A, chains = build_matrix(segre, Matrix.identity(6))
    assert A == jordan_matrix(segre)
    # right chain of the leading block: e1..e4; left chain: e4..e1
    assert chains[0].right[0] == Vector.unit(6, 0)
    assert chains[0].right[3] == Vector.unit(6, 3)
    assert chains[0].left[0] == Vector.unit(6, 3)
    assert chains[0].left[3] == Vector.unit(6, 0)


def test_build_matrix_chains_verify():
    rng = random.Random(11)
    segre = SegreCharacteristic([(2, 3), (CR(0, 1), 2)])
    P = random_unimodular(5, rng)
    A, chains = build_matrix(segre, P)
    for pair in chains:
        pair.verify_against(A)


def test_build_matrix_oracle_round_trip():
    rng = random.Random(23)
    for _ in range(10):
        blocks = []
        total = 0
        while total < 4:
            lam = rng.randint(-5, 5)
            size = rng.randint(1, 3)
            blocks.append((lam, size))
            total += size
        segre = SegreCharacteristic(blocks)
        P = random_unimodular(segre.total_size, rng)
        A, _ = build_matrix(segre, P)
        assert oracle_segre(A, [lam for lam, _ in blocks]) == segre


def test_build_matrix_rejects_singular_or_misshaped_basis():
    segre = SegreCharacteristic([(0, 2)])
    with pytest.raises(ShapeError):
        build_matrix(segre, Matrix.identity(3))
    singular = Matrix.from_rows([[ONE, ONE], [ONE, ONE]])
    from eigenshift.errors import SingularMatrixError

    with pytest.raises(SingularMatrixError):
        build_matrix(segre, singular)


def test_chain_pair_rejects_empty_or_zero_lead():
    with pytest.raises(InvalidChainError):
        ChainPair(0, [], [])
    with pytest.raises(InvalidChainError):
        ChainPair(0, [Vector.zero(2)], [Vector.unit(2, 0)])


def test_chain_verification_catches_corruption():
    A, chains = build_matrix(SegreCharacteristic([(1, 3)]), Matrix.identity(3))
    good = chains[0]
    bad = ChainPair(
        good.lam,
        good.left,
        [good.right[0], good.right[1] + Vector.unit(3, 0), good.right[2]],
    )
    # v_2 + e_1 still satisfies its own recurrence; v_3 is the first to fail
    with pytest.raises(
        InvalidChainError, match="^right chain recurrence fails at index 3$"
    ):
        bad.verify_against(A)
    # e_2 is no eigenvector, so adding it breaks the recurrence right there
    for side in ("right", "left"):
        for index in (1, 2, 3):
            chain = list(getattr(good, side))
            chain[index - 1] = chain[index - 1] + Vector.unit(3, 1)
            left = chain if side == "left" else good.left
            right = chain if side == "right" else good.right
            with pytest.raises(InvalidChainError) as exc:
                ChainPair(good.lam, left, right).verify_against(A)
            assert str(exc.value) == (
                f"{side} chain recurrence fails at index {index}"
            )
    # with both chains broken, the right chain is reported first
    both = ChainPair(
        good.lam,
        [good.left[0] + Vector.unit(3, 1)] + list(good.left[1:]),
        list(good.right[:2]) + [good.right[2] + Vector.unit(3, 1)],
    )
    with pytest.raises(
        InvalidChainError, match="^right chain recurrence fails at index 3$"
    ):
        both.verify_against(A)


def test_parametric_single_family_verifies():
    rng = random.Random(5)
    for twok in (2, 4, 6):
        a = [CR(rng.choice((-1, 1)))] + [
            CR(rng.randint(-2, 2)) for _ in range(twok - 1)
        ]
        b = [CR(rng.choice((-1, 1)))] + [
            CR(rng.randint(-2, 2)) for _ in range(twok - 1)
        ]
        pair = generate_parametric_chains_single(CR(3), twok, a, b)
        pair.verify_against(jordan_block(CR(3), twok))


def test_parametric_single_rejects_zero_lead():
    with pytest.raises(InvalidParameterError):
        generate_parametric_chains_single(0, 4, [0, 1, 1, 1], [1, 1, 1, 1])
    with pytest.raises(InvalidParameterError):
        generate_parametric_chains_single(0, 3, [1, 1, 1], [1, 1, 1])


def test_parametric_two_blocks_verifies():
    lam = CR(2)
    k = 3
    J2 = jordan_matrix(SegreCharacteristic([(lam, k), (lam, k)]))
    left, right = generate_parametric_chains_two_blocks(
        lam, k, [1, 0, 2], [1, -1, 0], [0, 1, 1], [1, 2, -1]
    )
    ChainPair(lam, left, right).verify_against(J2)


def test_parametric_two_blocks_rejects_double_zero_lead():
    with pytest.raises(InvalidParameterError):
        generate_parametric_chains_two_blocks(
            0, 2, [0, 1], [0, 1], [1, 1], [1, 1]
        )


# Chain-family parameters with distinct entries, so that an index slip in
# the convolution moves a visible value: per kind, the families a, b, c, d
# (the single block reads a and b, the block pair all four).
_FAMILY_PARAMS = {
    "integer": (
        [2, -3, 5, -7, 11, -13],
        [3, 4, -1, 6, -2, 8],
        [-1, 2, 0, 3, 1, -4],
        [5, 0, -6, 1, 7, 2],
    ),
    "rational": (
        [Fraction(1, 2), Fraction(-2, 3), 4, Fraction(5, 7), Fraction(-1, 6), 3],
        [Fraction(-3, 4), 1, Fraction(2, 5), Fraction(-7, 2), 0, Fraction(1, 9)],
        [Fraction(2, 3), Fraction(1, 4), -1, Fraction(3, 8), Fraction(5, 2), Fraction(-4, 3)],
        [Fraction(-1, 5), Fraction(6, 7), Fraction(1, 3), 2, Fraction(-3, 2), Fraction(1, 8)],
    ),
    "complex": (
        [CR(1, 1), CR(0, -2), CR(Fraction(1, 2), 3), CR(-4), CR(2, Fraction(-1, 3)), CR(0, 1)],
        [CR(2, -1), CR(Fraction(-1, 2)), CR(0, 5), CR(1, 1), CR(Fraction(3, 4), -2), CR(-1, 0)],
        [CR(0, 3), CR(1, -1), CR(2), CR(Fraction(-1, 3), 1), CR(0, -1), CR(4, 2)],
        [CR(-2, 1), CR(0, 1), CR(Fraction(1, 5), Fraction(-2, 5)), CR(3), CR(1, 4), CR(-1, -1)],
    ),
}

# (kind, 2k) -> (left chain, right chain) of the single-block family, each
# vector as its space-separated entry texts, u_1 / v_1 first
_SINGLE_GOLDEN = {
    ("integer", 2): (
        [
            "0 2",
            "2 -3",
        ],
        [
            "3 0",
            "4 3",
        ],
    ),
    ("integer", 4): (
        [
            "0 0 0 2",
            "0 0 2 -3",
            "0 2 -3 5",
            "2 -3 5 -7",
        ],
        [
            "3 0 0 0",
            "4 3 0 0",
            "-1 4 3 0",
            "6 -1 4 3",
        ],
    ),
    ("integer", 6): (
        [
            "0 0 0 0 0 2",
            "0 0 0 0 2 -3",
            "0 0 0 2 -3 5",
            "0 0 2 -3 5 -7",
            "0 2 -3 5 -7 11",
            "2 -3 5 -7 11 -13",
        ],
        [
            "3 0 0 0 0 0",
            "4 3 0 0 0 0",
            "-1 4 3 0 0 0",
            "6 -1 4 3 0 0",
            "-2 6 -1 4 3 0",
            "8 -2 6 -1 4 3",
        ],
    ),
    ("rational", 2): (
        [
            "0 1/2",
            "1/2 -2/3",
        ],
        [
            "-3/4 0",
            "1 -3/4",
        ],
    ),
    ("rational", 4): (
        [
            "0 0 0 1/2",
            "0 0 1/2 -2/3",
            "0 1/2 -2/3 4",
            "1/2 -2/3 4 5/7",
        ],
        [
            "-3/4 0 0 0",
            "1 -3/4 0 0",
            "2/5 1 -3/4 0",
            "-7/2 2/5 1 -3/4",
        ],
    ),
    ("rational", 6): (
        [
            "0 0 0 0 0 1/2",
            "0 0 0 0 1/2 -2/3",
            "0 0 0 1/2 -2/3 4",
            "0 0 1/2 -2/3 4 5/7",
            "0 1/2 -2/3 4 5/7 -1/6",
            "1/2 -2/3 4 5/7 -1/6 3",
        ],
        [
            "-3/4 0 0 0 0 0",
            "1 -3/4 0 0 0 0",
            "2/5 1 -3/4 0 0 0",
            "-7/2 2/5 1 -3/4 0 0",
            "0 -7/2 2/5 1 -3/4 0",
            "1/9 0 -7/2 2/5 1 -3/4",
        ],
    ),
    ("complex", 2): (
        [
            "0 1+1i",
            "1+1i -2i",
        ],
        [
            "2-1i 0",
            "-1/2 2-1i",
        ],
    ),
    ("complex", 4): (
        [
            "0 0 0 1+1i",
            "0 0 1+1i -2i",
            "0 1+1i -2i 1/2+3i",
            "1+1i -2i 1/2+3i -4",
        ],
        [
            "2-1i 0 0 0",
            "-1/2 2-1i 0 0",
            "5i -1/2 2-1i 0",
            "1+1i 5i -1/2 2-1i",
        ],
    ),
    ("complex", 6): (
        [
            "0 0 0 0 0 1+1i",
            "0 0 0 0 1+1i -2i",
            "0 0 0 1+1i -2i 1/2+3i",
            "0 0 1+1i -2i 1/2+3i -4",
            "0 1+1i -2i 1/2+3i -4 2-1/3i",
            "1+1i -2i 1/2+3i -4 2-1/3i 1i",
        ],
        [
            "2-1i 0 0 0 0 0",
            "-1/2 2-1i 0 0 0 0",
            "5i -1/2 2-1i 0 0 0",
            "1+1i 5i -1/2 2-1i 0 0",
            "3/4-2i 1+1i 5i -1/2 2-1i 0",
            "-1 3/4-2i 1+1i 5i -1/2 2-1i",
        ],
    ),
}

# (kind, k) -> (left chain of the first block, right chain of the second)
# of the block-pair family
_TWO_BLOCKS_GOLDEN = {
    ("integer", 1): (
        [
            "2 3",
        ],
        [
            "-1 5",
        ],
    ),
    ("integer", 2): (
        [
            "0 2 0 3",
            "2 -3 3 4",
        ],
        [
            "-1 0 5 0",
            "2 -1 0 5",
        ],
    ),
    ("integer", 3): (
        [
            "0 0 2 0 0 3",
            "0 2 -3 0 3 4",
            "2 -3 5 3 4 -1",
        ],
        [
            "-1 0 0 5 0 0",
            "2 -1 0 0 5 0",
            "0 2 -1 -6 0 5",
        ],
    ),
    ("rational", 1): (
        [
            "1/2 -3/4",
        ],
        [
            "2/3 -1/5",
        ],
    ),
    ("rational", 2): (
        [
            "0 1/2 0 -3/4",
            "1/2 -2/3 -3/4 1",
        ],
        [
            "2/3 0 -1/5 0",
            "1/4 2/3 6/7 -1/5",
        ],
    ),
    ("rational", 3): (
        [
            "0 0 1/2 0 0 -3/4",
            "0 1/2 -2/3 0 -3/4 1",
            "1/2 -2/3 4 -3/4 1 2/5",
        ],
        [
            "2/3 0 0 -1/5 0 0",
            "1/4 2/3 0 6/7 -1/5 0",
            "-1 1/4 2/3 1/3 6/7 -1/5",
        ],
    ),
    ("complex", 1): (
        [
            "1+1i 2-1i",
        ],
        [
            "3i -2+1i",
        ],
    ),
    ("complex", 2): (
        [
            "0 1+1i 0 2-1i",
            "1+1i -2i 2-1i -1/2",
        ],
        [
            "3i 0 -2+1i 0",
            "1-1i 3i 1i -2+1i",
        ],
    ),
    ("complex", 3): (
        [
            "0 0 1+1i 0 0 2-1i",
            "0 1+1i -2i 0 2-1i -1/2",
            "1+1i -2i 1/2+3i 2-1i -1/2 5i",
        ],
        [
            "3i 0 0 -2+1i 0 0",
            "1-1i 3i 0 1i -2+1i 0",
            "2 1-1i 3i 1/5-2/5i 1i -2+1i",
        ],
    ),
}


def _chain_texts(chain):
    return [" ".join(v.texts()) for v in chain]


@pytest.mark.parametrize("kind", sorted(_FAMILY_PARAMS))
def test_parametric_families_match_their_golden_texts(kind):
    a, b, c, d = _FAMILY_PARAMS[kind]
    for twok in (2, 4, 6):
        pair = generate_parametric_chains_single(CR(3), twok, a[:twok], b[:twok])
        got = (_chain_texts(pair.left), _chain_texts(pair.right))
        assert got == _SINGLE_GOLDEN[kind, twok]
    for k in (1, 2, 3):
        left, right = generate_parametric_chains_two_blocks(
            CR(3), k, a[:k], b[:k], c[:k], d[:k]
        )
        assert (_chain_texts(left), _chain_texts(right)) == _TWO_BLOCKS_GOLDEN[kind, k]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: generate_parametric_chains_single(0, 3, [1] * 3, [1] * 3),
         "chain family needs even length >= 2"),
        (lambda: generate_parametric_chains_single(0, 0, [], []),
         "chain family needs even length >= 2"),
        (lambda: generate_parametric_chains_single(0, 4, [1] * 3, [1] * 4),
         "need 4 parameters in each family, got 3/4"),
        (lambda: generate_parametric_chains_single(0, 4, [0, 1, 1, 1], [1] * 4),
         "a_1 * b_1 must be nonzero"),
        (lambda: generate_parametric_chains_two_blocks(0, 0, [], [], [], []),
         "block size must be >= 1"),
        (lambda: generate_parametric_chains_two_blocks(0, 2, [1, 1], [1], [1, 1], [1, 1]),
         "each parameter family needs 2 entries"),
        (lambda: generate_parametric_chains_two_blocks(0, 2, [1, 1], [1, 1], [0, 1], [0, 1]),
         "leading parameter pairs (a_1, b_1) and (c_1, d_1) cannot both vanish"),
    ],
)
def test_parametric_families_refuse_with_their_messages(build, message):
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        build()


def test_random_unimodular_entry_bound():
    rng = random.Random(3)
    for n in (1, 2, 5):
        U = random_unimodular(n, rng)
        assert all(e.im == 0 and abs(e.re) <= 3 for e in U.entries)
        assert U.det() in (ONE, -ONE)


def test_basis_inverse_from_left_chains_equals_the_inverse():
    rng = random.Random(5)
    for trial in range(12):
        blocks = [(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        segre = SegreCharacteristic(blocks)
        n = segre.total_size
        if trial % 2:
            P = random_unimodular(n, rng)
        else:  # a dense complex-rational basis
            while True:
                P = Matrix(n, n, [CR(rng.randint(-3, 3), rng.randint(-1, 1)) / rng.randint(1, 3) for _ in range(n * n)])
                if P.exact_rank() == n:
                    break
        _, chains = build_matrix(segre, P)
        assert basis_inverse(chains) == P.inverse()


# -- the batched recurrence check against a per-pair reference ---------------


def ref_chain_failure(A, lam, left, right):
    """One pair's first failing recurrence, from four matrix products:
    columns of A V and V J_p(lam), then of (U* A)^T and (J_p(lam)^T U*)^T."""
    V = Matrix.from_columns(list(right))
    sides = [("right", A @ V, V @ jordan_block(lam, V.cols))]
    UH = Matrix.from_columns(list(left)).H
    JT = jordan_block(lam, UH.rows).transpose()
    sides.append(("left", (UH @ A).transpose(), (JT @ UH).transpose()))
    for side, got, want in sides:
        for i, (x, y) in enumerate(zip(got.columns(), want.columns())):
            if x != y:
                return f"{side} chain recurrence fails at index {i + 1}"
    return None


CHAIN_EIGENVALUES = (
    CR(0), CR(2), CR(-1, 2), CR(Fraction(1, 3), -1), CR(Fraction(-5, 2)), CR(0, 1),
)


@st.composite
def chain_jobs(draw):
    """A matrix in a random_unimodular basis with its chain pairs, some
    vectors corrupted: in random pairs, or in every pair."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    lams = draw(
        st.lists(st.sampled_from(CHAIN_EIGENVALUES), min_size=len(sizes), max_size=len(sizes))
    )
    basis = random_unimodular(sum(sizes), random.Random(draw(st.integers(0, 10**6))))
    A, pairs = build_matrix(SegreCharacteristic(list(zip(lams, sizes))), basis)
    n = A.rows
    every = draw(st.booleans())
    for i, pair in enumerate(pairs):
        if not (every or draw(st.booleans())):
            continue
        chains = {"left": list(pair.left), "right": list(pair.right)}
        for side in draw(st.sampled_from([["right"], ["left"], ["right", "left"]])):
            t = draw(st.integers(0, len(pair.right) - 1))
            bump = Vector.unit(n, draw(st.integers(0, n - 1)))
            chains[side][t] = chains[side][t] + bump.scale(
                draw(st.sampled_from([CR(1), CR(-2), CR(0, 1), CR(Fraction(1, 2))]))
            )
        if chains["left"][0].is_zero or chains["right"][0].is_zero:
            continue
        pairs[i] = ChainPair(pair.lam, chains["left"], chains["right"])
    return A, pairs


@settings(max_examples=80, deadline=None)
@given(chain_jobs())
def test_batched_chain_check_matches_the_per_pair_reference(job):
    A, pairs = job
    want = [ref_chain_failure(A, p.lam, p.left, p.right) for p in pairs]
    got = check_chains(A, [(p.lam, p.left, p.right) for p in pairs])
    assert [None if f is None else str(f) for f in got] == want
    for pair, message in zip(pairs, want):  # the one-pair case
        if message is None:
            pair.verify_against(A)
        else:
            with pytest.raises(InvalidChainError) as exc:
                pair.verify_against(A)
            assert str(exc.value) == message


def test_chain_checks_read_past_an_empty_chain():
    """An empty chain reads as passing, and the chains after it are read
    against their own recurrences, in ``check_chains`` and in
    ``verify_cycles`` alike; a non-square A fails a fitting chain at
    index 1."""
    J = jordan_block(2, 2)
    good = [Vector.unit(2, 0), Vector.unit(2, 1)]
    bad = [Vector.unit(2, 1), Vector.unit(2, 0)]
    lam = CR(2)

    def verdicts(A, chains):
        return [f and str(f) for f in check_chains(A, [(lam, *c) for c in chains])]

    right_1, left_1 = (f"{side} chain recurrence fails at index 1" for side in ("right", "left"))
    # J's left chain is its right chain reversed
    assert verdicts(J, [([], []), (bad, good)]) == [None, None]
    assert verdicts(J, [(bad, good), ([], []), (bad, bad)]) == [None, None, right_1]
    assert verdicts(J, [([], []), (good, good), ([], [])]) == [None, left_1, None]
    assert verdicts(J, [([], [])]) == [None]
    assert verify_cycles(J, lam, [[], good]) and verify_cycles(J, lam, [good, []])
    assert not verify_cycles(J, lam, [[], bad, []])
    assert not verify_cycles(J, lam, [[]])
    wide = Matrix.zeros(2, 3)
    right, left = [Vector.unit(3, 0)], [Vector.unit(2, 0)]
    assert verdicts(wide, [([], []), ([], right)]) == [None, right_1]
    assert verdicts(wide, [([], []), (left, []), (left, right)]) == [None, left_1, right_1]


def test_chain_checks_make_one_product_per_side(monkeypatch):
    """A cost guard without timing noise: ``check_chains`` over p chains
    forms p shifts A - lam I and makes 2p products, one per side per
    chain, and builds no Jordan block; ``verify_cycles`` forms M - lam I
    once per call and makes one product per cycle."""
    calls = []

    def counting(name, method):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)

        return wrapped

    for name in ("__matmul__", "minus_identity"):
        monkeypatch.setattr(Matrix, name, counting(name, getattr(Matrix, name)))
    for module in (linalg, synthesis):
        monkeypatch.setattr(module, "jordan_sum", counting("jordan_sum", linalg.jordan_sum))
    monkeypatch.setattr(linalg, "jordan_block", counting("jordan_block", linalg.jordan_block))
    A, pairs = build_matrix(
        SegreCharacteristic([(CR(1, 1), 1), (CR(2), 3), (CR(-1), 2), (CR(2), 2)]),
        random_unimodular(8, random.Random(6)),
    )
    calls.clear()
    assert list(check_chains(A, [(p.lam, p.left, p.right) for p in pairs])) == [None] * 4
    assert sorted(calls) == ["__matmul__"] * 8 + ["minus_identity"] * 4
    J = jordan_matrix(SegreCharacteristic([(0, 3), (0, 2), (0, 2), (1, 1)]))
    cycles = jordan_cycles(J, 0)
    calls.clear()
    assert verify_cycles(J, 0, cycles)
    assert sorted(calls) == ["__matmul__"] * 3 + ["minus_identity"]


def test_batched_chain_check_when_every_pair_fails():
    A, pairs = build_matrix(
        SegreCharacteristic([(CR(1, 1), 1), (CR(2), 3), (CR(-1), 2)]),
        random_unimodular(6, random.Random(4)),
    )
    broken = []
    for pair, side, t in zip(pairs, ("right", "left", "left"), (0, 2, 1)):
        chain = list(getattr(pair, side))
        chain[t] = chain[t] + Vector.unit(6, 5).scale(3)
        left, right = (chain, pair.right) if side == "left" else (pair.left, chain)
        broken.append(ChainPair(pair.lam, left, right))
    got = [str(f) for f in check_chains(A, [(p.lam, p.left, p.right) for p in broken])]
    assert got == [ref_chain_failure(A, p.lam, p.left, p.right) for p in broken]
    assert all(got)
