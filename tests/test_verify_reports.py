"""Golden verify reports on the failure paths of the biorthogonality suite.

Each report is pinned by its verdicts, its diagnostics and the SHA-256 of
its serialized text, so a change to how the suite computes its tables
must leave every byte of the report as it was.

The Hankel pattern, the cross tables and the resolvent identities all
follow from the chain recurrences A V = V J_p(lam) and
U* A = J_p(lam)^T U*: once both hold exactly, none of these checks can
fail.  To reach their FAIL branches, those tests replace the recurrence
check by one that accepts every pair and feed vectors that are not
chains.
"""

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eigenshift
from eigenshift import biortho, reporting
from eigenshift.cli import main
from eigenshift.errors import EigenShiftError
from eigenshift.linalg import Matrix, Vector
from eigenshift.reporting import (
    dumps,
    matrix_to_obj,
    run_verify_job,
    vector_to_obj,
)
from eigenshift.scalars import CR, format_scalar, parse_scalar
from eigenshift.synthesis import (
    ChainPair,
    SegreCharacteristic,
    build_matrix,
    random_unimodular,
)


def e(n, i):
    return Vector.unit(n, i)


def digest(report):
    return hashlib.sha256(dumps(report).encode()).hexdigest()


@pytest.fixture
def recurrences_accepted(monkeypatch):
    monkeypatch.setattr(
        reporting, "check_chains", lambda A, chains: [None] * len(chains)
    )


def test_one_chain_of_three_fails_its_recurrence():
    segre = SegreCharacteristic(
        [(parse_scalar("1+2i"), 2), (parse_scalar("-1/2"), 3), (3, 1)]
    )
    A, chains = build_matrix(segre, random_unimodular(6, random.Random(3)))
    middle = chains[1]
    broken = list(middle.right)
    broken[2] = broken[2].scale(2)
    chains[1] = ChainPair(middle.lam, middle.left, broken)
    report = run_verify_job(A, chains)
    assert report["verdicts"] == {
        "chain_0:recurrence": "pass",
        "chain_0:hankel_pattern": "pass",
        "chain_0:resolvent_identities": "pass",
        "chain_1:recurrence": "fail",
        "chain_2:recurrence": "pass",
        "chain_2:hankel_pattern": "pass",
        "chain_2:middle_product": "pass",
        "chain_2:resolvent_identities": "pass",
        "cross_orthogonality_0_2": "pass",
        "cross_orthogonality_2_0": "pass",
    }
    assert list(report["verdicts"]) == [
        "chain_0:recurrence",
        "chain_0:hankel_pattern",
        "chain_0:resolvent_identities",
        "chain_1:recurrence",
        "chain_2:recurrence",
        "chain_2:hankel_pattern",
        "chain_2:middle_product",
        "chain_2:resolvent_identities",
        "cross_orthogonality_0_2",
        "cross_orthogonality_2_0",
    ]
    assert report["diagnostics"] == [
        "chain_1: right chain recurrence fails at index 3"
    ]
    assert digest(report) == (
        "faadcd1184c587f5c104bf222689156781329a5055f828aac65e2c3e382c86a9"
    )


def test_hankel_pattern_fails(recurrences_accepted):
    A = Matrix.identity(3).scale(3)
    pairs = [
        # Gram table I: its (1, 1) entry lies in the leading anti-triangle
        ChainPair(3, [e(3, 0), e(3, 1)], [e(3, 0), e(3, 1)]),
        # Gram table [[0, 2], [1, 0]]: x_21 != x_12
        ChainPair(3, [e(3, 0), e(3, 1)], [e(3, 1), e(3, 0).scale(2)]),
    ]
    report = run_verify_job(A, pairs)
    assert report["verdicts"] == {
        "chain_0:recurrence": "pass",
        "chain_0:hankel_pattern": "fail",
        "chain_0:resolvent_identities": "fail",
        "chain_1:recurrence": "pass",
        "chain_1:hankel_pattern": "fail",
        "chain_1:resolvent_identities": "pass",
    }
    assert report["diagnostics"] == [
        "chain_0: Gram table violates the Hankel pattern at (1, 1):"
        " leading anti-triangle entry nonzero",
        "chain_1: Gram table violates the Hankel pattern at (2, 1):"
        " anti-diagonal not constant",
    ]
    assert digest(report) == (
        "602f555b445e966915beeb70834eb7a97d742a6c66fedc32155a63f9c12e358a"
    )


def test_middle_product_vanishes():
    # genuine length-1 chains of 2 I_2 whose product u_1* v_1 is 0
    A = Matrix.identity(2).scale(2)
    report = run_verify_job(A, [ChainPair(2, [e(2, 0)], [e(2, 1)])])
    assert report["verdicts"] == {
        "chain_0:recurrence": "pass",
        "chain_0:hankel_pattern": "pass",
        "chain_0:middle_product": "fail",
        "chain_0:resolvent_identities": "pass",
    }
    assert report["diagnostics"] == [
        "chain_0: middle inner product vanishes: not a genuine full chain pair"
    ]
    assert digest(report) == (
        "71317230bdd8c296db74d8624e0484ed8d6d93dc588c4296ab3b300c2def972a"
    )


def test_nonzero_cross_table(recurrences_accepted):
    A = Matrix.identity(3).scale(3)
    pairs = [
        ChainPair(3, [e(3, 1), e(3, 0)], [e(3, 0), e(3, 1)]),
        # u_1* v_1 = 0, and u_1 = e_1 meets v_1 of the first pair
        ChainPair(5, [e(3, 0)], [e(3, 2)]),
    ]
    report = run_verify_job(A, pairs)
    assert report["verdicts"] == {
        "chain_0:recurrence": "pass",
        "chain_0:hankel_pattern": "pass",
        "chain_0:resolvent_identities": "pass",
        "chain_1:recurrence": "pass",
        "chain_1:hankel_pattern": "pass",
        "chain_1:middle_product": "fail",
        "chain_1:resolvent_identities": "pass",
        "cross_orthogonality_0_1": "pass",
        "cross_orthogonality_1_0": "fail",
    }
    assert report["diagnostics"] == [
        "chain_1: middle inner product vanishes: not a genuine full chain pair",
        "chains 1 and 0 have distinct eigenvalues but a nonzero cross Gram"
        " table",
    ]
    assert digest(report) == (
        "3d6fbeda92467b494e27d6f9ac143c5ba6c9243bfc1e7361006fcf992ef0e02f"
    )


def test_resolvent_identity_fails(recurrences_accepted):
    # a Hankel Gram table with u_1* v_1 = 0, but at the point 0
    # u_1* A^{-1} v_1 = 1/2 - 1/3
    A = Matrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 7]])
    u1, v1 = e(3, 0) + e(3, 1), e(3, 0) - e(3, 1)
    pairs = [ChainPair(1, [u1, e(3, 2)], [v1, e(3, 2)])]
    report = run_verify_job(A, pairs)
    assert report["verdicts"] == {
        "chain_0:recurrence": "pass",
        "chain_0:hankel_pattern": "pass",
        "chain_0:resolvent_identities": "fail",
    }
    assert report["diagnostics"] == []
    assert digest(report) == (
        "f2a2fbc3dfd6556e42de8411a7d8994b35fe08722c94897192579adc8fbb8f11"
    )


def test_resolvent_point_skips_chain_eigenvalues_and_the_spectrum(monkeypatch):
    tried = []
    solve = biortho.resolvent_identities

    def recording(A, lam, pairs):
        tried.append(lam)
        return solve(A, lam, pairs)

    monkeypatch.setattr(reporting, "resolvent_identities", recording)
    # eigenvalues 0, 1 and 2; the only chain is at 0
    A = Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 2]])
    report = run_verify_job(A, [ChainPair(0, [e(3, 1)], [e(3, 1)])])
    assert tried == [CR(1), CR(2), CR(3)]
    assert set(report["verdicts"].values()) == {"pass"}


# ---------------------------------------------------------------------------
# malformed chains through the CLI


def _run_verify_cli(tmp_path, A, chains):
    mat = tmp_path / "mat.json"
    mat.write_text(json.dumps(matrix_to_obj(A)))
    doc = {
        "chains": [
            {
                "lambda": lam,
                "left": [vector_to_obj(u) for u in left],
                "right": [vector_to_obj(v) for v in right],
            }
            for lam, left, right in chains
        ]
    }
    ch = tmp_path / "chains.json"
    ch.write_text(json.dumps(doc))
    return main(["verify", str(mat), str(ch)])


def test_chain_lengths_differ_exit_3(tmp_path, capsys):
    segre = SegreCharacteristic([(2, 3), (5, 1)])
    A, chains = build_matrix(segre, random_unimodular(4, random.Random(5)))
    # both sides satisfy their recurrences, but the left one is shorter
    short = ("2", chains[0].left[:2], chains[0].right)
    full = ("5", chains[1].left, chains[1].right)
    assert _run_verify_cli(tmp_path, A, [full, short]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: left/right chain lengths differ\n"


@pytest.mark.parametrize(
    "left, right, message",
    [
        ([[0, 0, 0, 1]], [[0, 0, 1]], "cannot multiply (4, 4) by (3, 1)"),
        ([[1, 0, 0]], [[1, 0, 0, 0]], "cannot multiply (1, 3) by (4, 4)"),
        (
            [[0, 0, 0, 1], [0, 0, 1, 0]],
            [[1, 0, 0, 0], [0, 1, 0]],
            "columns of different dimensions",
        ),
    ],
)
def test_chain_vectors_of_wrong_dimension_exit_3(
    tmp_path, capsys, left, right, message
):
    A = Matrix.identity(4)
    vectors = lambda rows: [Vector.from_texts(list(map(str, r))) for r in rows]
    assert _run_verify_cli(
        tmp_path, A, [("1", vectors(left), vectors(right))]
    ) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


def test_large_verify_job_through_the_cli(tmp_path):
    """n = 24: eight blocks of size 3 with non-real eigenvalues in a random
    unimodular basis, run as `python -m eigenshift.cli verify`."""
    rng = random.Random(24)
    lams = [CR(re, im) for re, im in ((1, 1), (1, -1), (-2, 3), (0, 2),
                                      (3, -2), (-1, 1), (2, 2), (-3, -1))]
    segre = SegreCharacteristic([(lam, 3) for lam in lams])
    A, chains = build_matrix(segre, random_unimodular(24, rng))
    mat = tmp_path / "mat.json"
    mat.write_text(json.dumps(matrix_to_obj(A)))
    doc = {
        "chains": [
            {
                "lambda": format_scalar(pair.lam),
                "left": [vector_to_obj(u) for u in pair.left],
                "right": [vector_to_obj(v) for v in pair.right],
            }
            for pair in chains
        ]
    }
    ch = tmp_path / "chains.json"
    ch.write_text(json.dumps(doc))
    src = str(Path(eigenshift.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run(
        [sys.executable, "-m", "eigenshift.cli", "verify", str(mat), str(ch)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    verdicts = json.loads(out.stdout)["verdicts"]
    # per chain: recurrence, Hankel, middle product, resolvent; 8 * 7 cross
    assert len(verdicts) == 8 * 4 + 8 * 7
    assert set(verdicts.values()) == {"pass"}


def test_malformed_chain_sets_raise_where_one_by_one_checks_would():
    """All recurrences share one product per side, yet a malformed pair
    raises only when its turn comes: the first pair in order decides, a
    left chain is fitted only once its right chain passes, and the
    lengths are compared only once both pass."""
    A = Matrix.from_rows([[2, 1, 0], [0, 2, 0], [0, 0, 5]])
    good = ChainPair(2, [e(3, 1), e(3, 0)], [e(3, 0), e(3, 1)])
    short_left = ChainPair(2, [e(3, 1)], [e(3, 0), e(3, 1)])
    wrong_dim = ChainPair(5, [e(3, 2)], [e(2, 0)])
    cases = [
        ([good, short_left, wrong_dim], "left/right chain lengths differ"),
        ([good, wrong_dim, short_left], "cannot multiply (3, 3) by (2, 1)"),
        ([ChainPair(5, [e(3, 2)], [e(3, 2), e(2, 0)]), short_left],
         "columns of different dimensions"),
        ([good, ChainPair(5, [e(2, 0)], [e(3, 2)])],
         "cannot multiply (1, 2) by (3, 3)"),
    ]
    for pairs, message in cases:
        with pytest.raises(EigenShiftError) as exc:
            run_verify_job(A, pairs)
        assert str(exc.value) == message
    # a right chain that fails leaves its misfit left chain unchecked
    report = run_verify_job(A, [ChainPair(5, [e(2, 0)], [e(3, 0)]), good])
    assert report["diagnostics"] == [
        "chain_0: right chain recurrence fails at index 1"
    ]
    assert report["verdicts"]["chain_1:recurrence"] == "pass"


# -- the report writer ---------------------------------------------------------

# values shaped like json.loads output: lone surrogates, NaN and infinities,
# big integers, nested empty containers
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**80), max_value=10**80)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(st.characters(blacklist_categories=()), max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(st.characters(blacklist_categories=()), max_size=6), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_dumps_writes_the_bytes_of_json_dumps(value):
    assert dumps(value) == json.dumps(value, indent=2) + "\n"


def test_dumps_writes_tuples_as_lists_and_keys_as_json_does():
    value = {"t": (1, ("a", ()), {}), 2: [1.5, None], None: True, 0.5: False}
    assert dumps(value) == json.dumps(value, indent=2) + "\n"


def test_dumps_leaves_no_cyclic_garbage():
    segre = SegreCharacteristic([(parse_scalar("1+2i"), 2), (3, 3)])
    A, chains = build_matrix(segre, random_unimodular(5, random.Random(8)))
    report = run_verify_job(A, chains)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        text = dumps(report)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert text == json.dumps(report, indent=2) + "\n"
