"""Rank-sequence oracle: Weyr profiles, segre recovery, generic cycles."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import eigenshift
from eigenshift import linalg, oracle
from eigenshift.canonical import classify_odd, predict_structure
from eigenshift.errors import ClassificationError, MissingEigenvalueError, ShapeError
from eigenshift.linalg import (
    Matrix,
    Vector,
    _diagonal_blocks,
    jordan_block,
)
from eigenshift.oracle import (
    WeyrProfile,
    jordan_cycles,
    oracle_segre,
    verify_cycles,
    weyr_profile,
)
from eigenshift.randgen import (
    ODD_CASE_LABELS,
    random_even_shift_instance,
    random_odd_shift_instance,
    targeted_concentrated_form,
)
from eigenshift.scalars import CR
from eigenshift.synthesis import (
    SegreCharacteristic,
    build_matrix,
    jordan_matrix,
    random_unimodular,
)


def test_weyr_single_block():
    prof = weyr_profile(jordan_block(CR(2), 3), 2)
    assert prof.null_dims == (1, 2, 3)
    assert prof.block_sizes() == (3,)


def test_weyr_two_blocks():
    M = jordan_matrix(SegreCharacteristic([(0, 2), (0, 1)]))
    prof = weyr_profile(M, 0)
    assert prof.null_dims == (2, 3)
    assert prof.block_sizes() == (2, 1)


def test_weyr_semisimple():
    prof = weyr_profile(Matrix.identity(3), 1)
    assert prof.null_dims == (3,)
    assert prof.block_sizes() == (1, 1, 1)


def test_weyr_absent_eigenvalue():
    prof = weyr_profile(jordan_block(CR(1), 2), 5)
    assert prof.null_dims == ()
    assert prof.block_sizes() == ()


def test_conjugate_partition_explicit():
    # Weyr (3, 2, 1) <-> Segre (3, 2, 1); Weyr (2, 2, 1) <-> (3, 2)
    assert WeyrProfile(CR(0), (3, 5, 6)).block_sizes() == (3, 2, 1)
    assert WeyrProfile(CR(0), (2, 4, 5)).block_sizes() == (3, 2)


def test_oracle_segre_golden():
    M = jordan_matrix(SegreCharacteristic([(2, 4), (3, 2)]))
    assert oracle_segre(M, [2, 3]) == SegreCharacteristic([(2, 4), (3, 2)])


def test_oracle_segre_identity():
    assert oracle_segre(Matrix.identity(3), [1]) == SegreCharacteristic(
        [(1, 1), (1, 1), (1, 1)]
    )


def test_oracle_segre_missing_eigenvalue():
    M = jordan_matrix(SegreCharacteristic([(2, 2), (3, 1)]))
    with pytest.raises(MissingEigenvalueError):
        oracle_segre(M, [2])


def test_oracle_round_trip_random():
    rng = random.Random(9)
    for _ in range(15):
        blocks = []
        total = 0
        while total < rng.randint(3, 8):
            lam = rng.randint(-4, 4)
            size = rng.randint(1, 5)
            blocks.append((lam, size))
            total += size
        segre = SegreCharacteristic(blocks)
        P = random_unimodular(segre.total_size, rng)
        A, _ = build_matrix(segre, P)
        assert oracle_segre(A, [lam for lam, _ in blocks]) == segre


def test_jordan_cycles_single_block():
    M = jordan_block(CR(4), 3)
    cycles = jordan_cycles(M, 4)
    assert [len(c) for c in cycles] == [3]
    assert verify_cycles(M, 4, cycles)


def test_jordan_cycles_mixed_blocks_random_basis():
    rng = random.Random(41)
    for _ in range(10):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        lam = rng.randint(-3, 3)
        segre = SegreCharacteristic([(lam, s) for s in sizes])
        P = random_unimodular(segre.total_size, rng)
        A, _ = build_matrix(segre, P)
        cycles = jordan_cycles(A, lam)
        assert sorted((len(c) for c in cycles), reverse=True) == sorted(
            sizes, reverse=True
        )
        assert verify_cycles(A, lam, cycles)


def test_verify_cycles_rejects_wrong_chain():
    M = jordan_block(CR(0), 2)
    good = jordan_cycles(M, 0)
    assert verify_cycles(M, 0, good)
    bad = [[Vector.unit(2, 1), Vector.unit(2, 0)]]  # reversed order
    assert not verify_cycles(M, 0, bad)


def test_verify_cycles_rejects_dependent_cycles():
    M = Matrix.identity(2)
    dep = [[Vector.unit(2, 0)], [Vector.unit(2, 0)]]
    assert not verify_cycles(M, 1, dep)


def _walk_verify(M, lam, cycles):
    """Each vector walked against its predecessor, one product per
    vector, then the rank of all of them: the reference for
    ``verify_cycles``."""
    N = M.minus_identity(lam)
    flat = []
    for cycle in cycles:
        prev = Vector.zero(M.rows)
        for v in cycle:
            if N @ v != prev:
                return False
            prev = v
        flat.extend(cycle)
    if not flat:
        return False
    return Matrix.from_columns(flat).exact_rank() == len(flat)


def _pool_predictions(rng):
    """Predictions of the guarded random shift pools, whose update never
    couples out of the shifted block, and of every targeted odd case."""
    for make in (random_even_shift_instance, random_odd_shift_instance):
        for _ in range(6):
            yield predict_structure(make(rng, max_k=2).shift)
    for label in ODD_CASE_LABELS:
        yield classify_odd(targeted_concentrated_form(rng, label, max_k=3))


def test_verify_cycles_agrees_with_the_walk():
    rng = random.Random(5)
    verdicts = set()
    for pred in _pool_predictions(rng):
        M, lam = pred.canonical, pred.segre.blocks[0][0]
        cycles = [list(c) for c in pred.cycles]
        assert verify_cycles(M, lam, cycles) and _walk_verify(M, lam, cycles)
        # one vector moved by a unit vector
        bent = [list(c) for c in cycles]
        i = rng.randrange(len(bent))
        j = rng.randrange(len(bent[i]))
        bent[i][j] = bent[i][j] + Vector.unit(M.rows, rng.randrange(M.rows))
        verdict = verify_cycles(M, lam, bent)
        assert verdict == _walk_verify(M, lam, bent)
        verdicts.add(verdict)
        # two linearly dependent cycles: the last one twice
        twice = cycles + [cycles[-1]]
        assert not verify_cycles(M, lam, twice)
        assert not _walk_verify(M, lam, twice)
    assert False in verdicts
    # the empty set verifies nothing
    M = jordan_block(CR(2), 3)
    assert not verify_cycles(M, 2, []) and not _walk_verify(M, 2, [])
    # a cycle of the wrong dimension
    for check in (verify_cycles, _walk_verify):
        with pytest.raises(ShapeError):
            check(M, 2, [[Vector.unit(4, 0)]])


def test_weyr_check_raises_instead_of_asserting(monkeypatch):
    # ranks 3, 1, 1 of the powers give nullities 1, 3: increments (1, 2)
    monkeypatch.setattr(oracle, "power_ranks", lambda M, eigenvalues: [iter([3, 1, 1])])
    with pytest.raises(ClassificationError):
        weyr_profile(jordan_block(CR(0), 4), 0)


def _reads_optimize_state(node):
    """An assert, which python -O strips, or a read of __debug__ or
    sys.flags, the two ways code can see -O."""
    return (
        isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "__debug__")
        or (isinstance(node, ast.Attribute) and node.attr == "flags"
            and isinstance(node.value, ast.Name) and node.value.id == "sys")
        or (isinstance(node, ast.ImportFrom) and node.module == "sys"
            and any(alias.name == "flags" for alias in node.names))
    )


def test_package_has_no_assert_statements():
    """Internal checks must also run under python -O, and the package must
    not behave differently under it: with no assert and no read of
    __debug__ or sys.flags, -O changes nothing, so tier-1 needs no -O run."""
    package = Path(eigenshift.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _reads_optimize_state(node)
    ]
    assert found == []


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("assert x", True),
        ("if __debug__:\n    pass", True),
        ("level = sys.flags.optimize", True),
        ("from sys import flags", True),
        ("flags = sys.argv; debug = x.__debug__; y = obj.flags", False),
    ],
)
def test_optimize_guard_flags_each_way_to_see_o(source, flagged):
    assert any(map(_reads_optimize_state, ast.walk(ast.parse(source)))) is flagged



def test_package_has_no_unused_imports():
    """Every name a module imports is read somewhere in that module."""
    package = Path(eigenshift.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public names
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


# Public names that nothing in the package reads, each with its reader
# outside it.
_READ_OUTSIDE_THE_PACKAGE = {
    "linalg.Matrix.det": "perfbench/spans.py patches it (layer linalg.det)",
    "oracle.weyr_profile": "perfbench/spans.py patches it (layer oracle.weyr)",
    "biortho.resolvent_orthogonality_check": "perfbench/spans.py patches it (layer biortho.resolvent)",
    "scalars.rational": "perfbench/bench.py calls it",
    "synthesis.generate_parametric_chains_single": "acceptance criterion 8(d)",
    "synthesis.generate_parametric_chains_two_blocks": "acceptance criterion 8(d)",
}


def test_package_has_no_unread_public_names():
    """Every public module-level function and class is read somewhere in
    the package (as a name or an attribute) or is listed in ``__all__``,
    and every public method is read as an attribute, unless it has a
    reader outside the package named in _READ_OUTSIDE_THE_PACKAGE.  A
    bare name does not read a method: a parameter that shares a
    method's name is no reader of it."""
    package = Path(eigenshift.__file__).parent
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(package.glob("*.py"))
    }
    names, attributes = set(eigenshift.__all__), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node.name, names | attributes)]
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{m.name}", m.name, attributes)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef)
                ]
            for qualname, name, read in defs:
                qualname = f"{module}.{qualname}"
                if name.startswith("_") or name in read:
                    continue
                if qualname not in _READ_OUTSIDE_THE_PACKAGE:
                    found.append(qualname)
    assert found == []


def explicit_null_dims(A, lam):
    """dim ker (A - lam I)^j for j = 1.. until stable, from the explicit
    powers, formed with @, and ``exact_rank``."""
    N = A.minus_identity(lam)
    dims, power = [0], N
    while len(dims) < 2 or dims[-1] != dims[-2]:
        dims.append(A.rows - power.exact_rank())
        power = power @ N
    return tuple(dims[1:-1])


def test_weyr_profile_stops_at_the_multiplicity_with_the_same_result():
    """Each diagonal block stops where the multiplicity of 0 in its own
    characteristic polynomial forces the rest, and the profile is the one
    the explicit powers give, at repeated and complex eigenvalues with
    several blocks each."""
    rng = random.Random(11)
    pool = [CR(0), CR(1), CR(1, 1), CR(Fraction(-1, 2)), CR(2, -1)]
    for _ in range(30):
        blocks = [(rng.choice(pool), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        segre = SegreCharacteristic(blocks)
        A, _ = build_matrix(segre, random_unimodular(segre.total_size, rng))
        for lam in dict.fromkeys(lam for lam, _ in segre.canonical().blocks):
            prof = weyr_profile(A, lam)
            assert prof.null_dims == explicit_null_dims(A, lam)
            assert prof.block_sizes() == segre.sizes_at(lam)
        assert oracle_segre(A, [lam for lam, _ in blocks]) == segre


def counted_eliminations(monkeypatch):
    """Patch linalg._eliminate to count its calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return eliminate(*args, **kwargs)

    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", counting)
    return calls


@pytest.mark.parametrize(
    "sizes, mult, want_steps",
    [
        ((8,), 8, 1),  # fall 1: the ranks down to the floor are forced
        ((2, 2), 4, 2),  # fall 2 forces nothing; the second rank is the floor
        ((3, 1), 4, 2),  # Weyr (2, 1, 1): forced after the second rank
        ((2, 1, 1), 4, 1),  # Weyr (3, 1): 1 above the floor after the first
        # two diagonal blocks: J_2(3), forced after its first rank, and
        # Weyr (2, 1, 1) at 3, forced after its second
        ((3, 2, 1), 6, 3),
        ((3, 3, 1), 7, 3),  # Weyr (3, 2, 2): nothing forced, the third rank is the floor
        ((1,), 1, 0),  # a simple root: 1 below the full rank, forced before any elimination
    ],
)
def test_forced_tail_steps(monkeypatch, sizes, mult, want_steps):
    """The profile at 3, whose multiplicity mult the diagonal blocks'
    characteristic polynomials give, takes want_steps eliminations."""
    rng = random.Random(len(sizes))
    segre = SegreCharacteristic([(CR(3), s) for s in sizes] + [(CR(-1), 2)])
    A, _ = build_matrix(segre, random_unimodular(segre.total_size, rng))
    calls = counted_eliminations(monkeypatch)
    prof = weyr_profile(A, 3)
    assert prof.block_sizes() == tuple(sorted(sizes, reverse=True))
    assert prof.null_dims[-1] == mult
    assert len(calls) == want_steps


def test_one_jordan_block_takes_one_elimination_per_profile(monkeypatch):
    """A single J_s(mu) in a dense basis falls by 1 at its first rank, so
    every later rank is forced; J_1(mu), a simple root, takes none."""
    rng = random.Random(6)
    for lam, s in [(CR(2), 1), (CR(0), 4), (CR(1, -1), 6), (CR(Fraction(1, 3)), 9)]:
        A, _ = build_matrix(SegreCharacteristic([(lam, s)]), random_unimodular(s, rng))
        assert len(_diagonal_blocks(A)) == 1
        calls = counted_eliminations(monkeypatch)
        assert weyr_profile(A, lam).null_dims == tuple(range(1, s + 1))
        assert len(calls) == (s > 1)


def test_a_missing_eigenvalue_in_a_shared_block_is_refused():
    """J_2(2) + J_1(5) in a dense basis is one diagonal block; the block's
    floor at 2 stops its profile at 2 of 3 dimensions."""
    segre = SegreCharacteristic([(2, 2), (5, 1)])
    A, _ = build_matrix(segre, random_unimodular(3, random.Random(2)))
    assert len(_diagonal_blocks(A)) == 1
    with pytest.raises(MissingEigenvalueError):
        oracle_segre(A, [2])
    assert oracle_segre(A, [2, 5]) == segre
