"""Mutated job documents: the CLI exits 0, 2, 3 or 4 and never raises.

Each property starts from a small valid document, applies a few random
mutations (a value replaced, two values swapped, a key or list item
deleted, a list item duplicated) and runs the document through
``cli.main``.  Integers stay small (|x| <= 12), so no mutation turns a
document into legitimately huge work.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenshift.cli import main

SHIFT_SEGRE = {
    "target_eigenvalue": "1",
    "new_eigenvalue": "2",
    "k": 1,
    "segre": [["1", 3], ["-1/2", 1]],
    "change_of_basis": [
        ["1", "1", "0", "0"],
        ["0", "1", "0", "2"],
        ["0", "0", "1", "0"],
        ["0", "0", "1", "1"],
    ],
    "r_free": [["0"], ["0"], ["0"], ["0"]],
}

SHIFT_EXPLICIT = {
    "target_eigenvalue": "1",
    "new_eigenvalue": "1+i",
    "k": 1,
    "matrix": [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "3"]],
    "chains": {
        "left": [["0", "1", "0"], ["1", "0", "0"]],
        "right": [["1", "0", "0"], ["0", "1", "0"]],
    },
}

CLASSIFY_EVEN = {"kind": "even", "k": 2, "lambda": "0", "C": [["0", "0"], ["1", "0"]]}

CLASSIFY_ODD = {
    "kind": "odd",
    "k": 2,
    "lambda": "1/2+3i",
    "a": ["1", "0"],
    "b": ["0", "1"],
    "C": [["0", "0"], ["0", "0"]],
}

VERIFY = {  # the verify command's two documents, in argument order
    "matrix": [["2", "1", "0"], ["0", "2", "0"], ["0", "0", "-1"]],
    "chains": {
        "chains": [
            {
                "lambda": "2",
                "left": [["0", "1", "0"], ["1", "0", "0"]],
                "right": [["1", "0", "0"], ["0", "1", "0"]],
            },
            {"lambda": "-1", "left": [["0", "0", "1"]], "right": [["0", "0", "1"]]},
        ]
    },
}

KEYS = ["k", "lambda", "kind", "segre", "matrix", "chains", "left", "right", "C", "a", "b"]
TEXTS = ["0", "1", "-1", "2", "-5", "1/2", "1/2+3i", "-i", "x", "", "1/0", "1.5"]
leaves = st.one_of(
    st.integers(-12, 12),
    st.sampled_from(TEXTS),
    st.booleans(),
    st.none(),
    st.just(1.5),
)
values = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.sampled_from(KEYS), kids, max_size=2),
    ),
    max_leaves=8,
)


def paths(node, prefix=()):
    """Every path (a tuple of keys and indices) below node, node's own first."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


def at(node, path):
    for key in path:
        node = node[key]
    return node


def mutate(data, wrapper):
    """Apply one drawn mutation to the documents held in wrapper, whose
    own keys (one per document) are never deleted."""
    op = data.draw(st.sampled_from(["replace", "swap", "delete", "duplicate"]))
    inner = [p for p in paths(wrapper) if p]
    if op == "replace":
        path = data.draw(st.sampled_from(inner))
        at(wrapper, path[:-1])[path[-1]] = data.draw(values)
    elif op == "swap":
        p, q = data.draw(st.sampled_from(inner)), data.draw(st.sampled_from(inner))
        if p[: len(q)] != q and q[: len(p)] != p:
            x, y = at(wrapper, p), at(wrapper, q)
            at(wrapper, p[:-1])[p[-1]], at(wrapper, q[:-1])[q[-1]] = y, x
    elif op == "delete":
        deep = [p for p in inner if len(p) > 1]
        if deep:
            path = data.draw(st.sampled_from(deep))
            del at(wrapper, path[:-1])[path[-1]]
    else:
        lists = [p for p in paths(wrapper) if at(wrapper, p) and isinstance(at(wrapper, p), list)]
        if lists:
            items = at(wrapper, data.draw(st.sampled_from(lists)))
            i = data.draw(st.integers(0, len(items) - 1))
            items.insert(i, copy.deepcopy(items[i]))


def run(tmp, command, docs):
    """cli.main's exit code on the documents, written one file each."""
    args = [command]
    for name, doc in docs.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(doc))
        args.append(str(path))
    return main(args + ["-o", str(tmp / "report.json")])


def run_mutated(data, tmp, command, docs):
    wrapper = copy.deepcopy(docs)
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data, wrapper)
    code = run(tmp, command, wrapper)
    assert code in (0, 2, 3, 4), (code, wrapper)


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize(
    "command, docs",
    [
        ("shift", {"job": SHIFT_SEGRE}),
        ("shift", {"job": SHIFT_EXPLICIT}),
        ("classify", {"form": CLASSIFY_EVEN}),
        ("classify", {"form": CLASSIFY_ODD}),
        ("verify", VERIFY),
    ],
)
def test_unmutated_documents_pass(tmp, command, docs):
    assert run(tmp, command, docs) == 0


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from([SHIFT_SEGRE, SHIFT_EXPLICIT]))
def test_mutated_shift_jobs_exit_cleanly(tmp, data, job):
    run_mutated(data, tmp, "shift", {"job": job})


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from([CLASSIFY_EVEN, CLASSIFY_ODD]))
def test_mutated_classify_forms_exit_cleanly(tmp, data, form):
    run_mutated(data, tmp, "classify", {"form": form})


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_mutated_verify_documents_exit_cleanly(tmp, data):
    run_mutated(data, tmp, "verify", VERIFY)
