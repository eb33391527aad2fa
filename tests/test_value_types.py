"""The package's value classes: immutable, compared and hashed over their
fields, and cheap to import."""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import eigenshift
from eigenshift.canonical import (
    ConcentratedForm,
    EvenCanonical,
    OddCanonical,
    StructurePrediction,
)
from eigenshift.linalg import Matrix, Vector
from eigenshift.oracle import WeyrProfile
from eigenshift.randgen import ShiftInstance
from eigenshift.reporting import ShiftJob
from eigenshift.scalars import CR
from eigenshift.shifting import ShiftResult, shift_even
from eigenshift.synthesis import ChainPair, SegreCharacteristic, build_matrix


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """pytest and Hypothesis load both into this process, so the imports
    are made in a fresh interpreter."""
    modules = "eigenshift, eigenshift.cli, eigenshift.reporting, "
    modules += "eigenshift.randgen, eigenshift.biortho"
    code = (
        f"import sys, {modules}; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    src = str(Path(eigenshift.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []


_SEGRE = SegreCharacteristic([(1, 2), (3, 1)])
_A, (_PAIR, _) = build_matrix(_SEGRE, Matrix.identity(3))
_SHIFT = shift_even(_A, _PAIR, 5)
_T = Matrix.from_texts([["2", "3"], ["0", "2"]])
_S = Matrix.from_texts([["2", "3", "5"], ["0", "2", "4"], ["0", "0", "2"]])


def _vec(*xs):
    return Vector([CR(x) for x in xs])


# (class, its fields in order, the defaults of the fields left out); each
# canonical form here assembles _T or _S
_CASES = [
    (EvenCanonical, dict(k=1, lam=CR(2), C=Matrix.from_texts([["3"]])), {}),
    (
        OddCanonical,
        dict(k=1, lam=CR(2), a=_vec(3), b=_vec(4), C=Matrix.from_texts([["5"]])),
        {},
    ),
    (
        ConcentratedForm,
        dict(
            k=1,
            lam=CR(2),
            a_k=CR(3),
            b_1=CR(4),
            last_row=_vec(5),
            transform=Matrix.identity(3),
        ),
        {},
    ),
    (
        StructurePrediction,
        dict(segre=_SEGRE, cycles=((_vec(1, 0, 0),),), case_label="Odd0", canonical=_S),
        {"fallback_used": False, "diagnostics": ()},
    ),
    (WeyrProfile, dict(lam=CR(2), null_dims=(1, 2)), {}),
    (
        ShiftInstance,
        dict(
            A=_A,
            chains=_PAIR,
            lambda1=CR(5),
            shift=_SHIFT,
            P=Matrix.identity(3),
            segre=_SEGRE,
        ),
        {},
    ),
    (
        ShiftJob,
        dict(target_eigenvalue=CR(1), new_eigenvalue=CR(5), k=1),
        dict.fromkeys(
            (
                "segre",
                "change_of_basis",
                "matrix",
                "left_chain",
                "right_chain",
                "r_free",
                "l_free",
            )
        ),
    ),
    (
        ShiftResult,
        dict(A=_A, A_hat=_SHIFT.A_hat, chains=_PAIR, lambda1=CR(5)),
        {"middle": None},
    ),
    (SegreCharacteristic, dict(blocks=((CR(1), 2), (CR(3), 1))), {}),
    (
        ChainPair,
        dict(lam=CR(1), left=(_vec(1, 0, 0),), right=(_vec(0, 1, 0),)),
        {},
    ),
]


@pytest.mark.parametrize(
    "cls, fields, defaults", _CASES, ids=[case[0].__name__ for case in _CASES]
)
def test_value_classes_keep_their_value_semantics(cls, fields, defaults):
    one, two = cls(*fields.values()), cls(**fields)
    assert one == two and not one != two
    for name, value in {**fields, **defaults}.items():
        assert getattr(one, name) == value
    # the same fields on an object of another class
    twin = SimpleNamespace(**fields, **defaults)
    assert one != twin and twin != one
    first = next(iter(fields))
    if cls is ShiftJob:
        one.k = 2
        assert one.k == 2 and one != two
        with pytest.raises(TypeError):
            hash(one)
        return
    assert hash(one) == hash(two)
    with pytest.raises(AttributeError):
        setattr(one, first, fields[first])
    if cls in (EvenCanonical, OddCanonical, ConcentratedForm):
        assert one.matrix() is one.matrix()
        assert one.matrix() == (_T if cls is EvenCanonical else _S)
