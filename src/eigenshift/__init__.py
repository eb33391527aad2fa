"""Exact eigenvalue shifting with Jordan-structure prediction.

Shift one eigenvalue of a matrix to a new value through a rank-k
update built from left/right Jordan chains, predict the Jordan
structure of the result by exact closed-form case analysis, and verify
the prediction against an independent rank-sequence oracle.

The names below are the paper's entry points; everything else is
imported from its submodule (``eigenshift.linalg``,
``eigenshift.canonical`` and so on).
"""

from .canonical import predict_structure
from .errors import EigenShiftError
from .linalg import Matrix, Vector
from .oracle import oracle_segre
from .scalars import CR, ComplexRational, parse_scalar
from .shifting import brauer_shift, charpoly_ratio_check, shift_even, shift_odd
from .synthesis import ChainPair, SegreCharacteristic, build_matrix

__version__ = "0.1.0"

__all__ = [
    "CR",
    "ChainPair",
    "ComplexRational",
    "EigenShiftError",
    "Matrix",
    "SegreCharacteristic",
    "Vector",
    "brauer_shift",
    "build_matrix",
    "charpoly_ratio_check",
    "oracle_segre",
    "parse_scalar",
    "predict_structure",
    "shift_even",
    "shift_odd",
]
