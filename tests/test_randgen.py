"""The selftest instance stream, pinned, and the generators' exact inverses."""

import hashlib
import json
import random

from eigenshift.canonical import classify_odd, predict_structure
from eigenshift.linalg import Matrix, vstack
from eigenshift.randgen import (
    ODD_CASE_LABELS,
    _int_params,
    _structured_inverses,
    random_even_shift_instance,
    random_odd_shift_instance,
    targeted_concentrated_form,
)
from eigenshift.synthesis import parametric_chain_matrices, random_unimodular

# SHA-256 of ``_selftest_stream(1, 3)``; any change to a random draw, its
# order or a value built from it changes this digest
SELFTEST_STREAM_DIGEST = "206d6c0ed1968cb36bcc4d0cea89108a17afbab803e84647d5eb718409b5a839"


def _matrix_doc(M):
    return [M.rows, M.cols, M.texts()]


def _prediction_doc(p):
    return {
        "label": p.case_label,
        "fallback": p.fallback_used,
        "sizes": list(p.sizes),
        "cycles": [[v.texts() for v in cycle] for cycle in p.cycles],
    }


def _selftest_stream(seed, count):
    """Every instance ``eigenshift selftest --seed seed --count count``
    builds, in its order, with both predictions of each random shift."""
    rng = random.Random(seed)
    docs = []
    for _ in range(count):
        for maker in (random_even_shift_instance, random_odd_shift_instance):
            inst = maker(rng, guarded=True)
            docs.append(
                {
                    "A_hat": _matrix_doc(inst.shift.A_hat),
                    "P": _matrix_doc(inst.P),
                    "P_inv": _matrix_doc(inst.P.inverse()),
                    "given_P_inv": _prediction_doc(
                        predict_structure(inst.shift, inst.P)
                    ),
                    "inverting_P": _prediction_doc(
                        predict_structure(inst.shift, inst.P)
                    ),
                }
            )
    for label in ODD_CASE_LABELS:
        cf = targeted_concentrated_form(rng, label)
        docs.append(
            {
                "target": label,
                "matrix": _matrix_doc(cf.matrix()),
                "prediction": _prediction_doc(classify_odd(cf)),
            }
        )
    return docs


def test_selftest_stream_is_pinned():
    text = json.dumps(_selftest_stream(1, 3), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SELFTEST_STREAM_DIGEST


def _bareiss_structured_inverses(rng, P0, P0_invH, a, b, k):
    """R and L as the Bareiss inverses of B_k and U_blk^* give them: the
    reference for ``_structured_inverses``."""
    n, m = P0.rows, len(a)
    left_j, right_j = parametric_chain_matrices(m, n, a, b)
    Bk = right_j.submatrix(0, k, 0, k)
    Ublk = left_j.submatrix(m - k, m, 0, k)
    S1 = Matrix(m - k, k, [rng.randint(-2, 2) for _ in range((m - k) * k)])
    S2 = Matrix(m - k, k, [rng.randint(-2, 2) for _ in range((m - k) * k)])
    G = vstack(Bk.inverse().H, S1, Matrix.zeros(n - m, k))
    H = vstack(S2, Ublk.H.inverse(), Matrix.zeros(n - m, k))
    return P0_invH @ G, P0 @ H


def test_structured_inverses_equal_the_bareiss_inverses():
    for seed in range(44):
        rng = random.Random(seed)
        # the last seeds take m = 1 (k = 0), whose R and L are n x 0
        m = rng.randint(2, 7) if seed < 40 else 1
        n = m + rng.randint(0, 3)
        k = m // 2
        P0 = random_unimodular(n, rng)
        P0_invH = P0.inverse().H
        a, b = _int_params(rng, m), _int_params(rng, m)
        state = rng.getstate()
        R, L = _structured_inverses(rng, P0, P0_invH, a, b, k)
        rng.setstate(state)
        assert (R, L) == _bareiss_structured_inverses(rng, P0, P0_invH, a, b, k)
        left_j, right_j = parametric_chain_matrices(m, n, a, b)
        V = (P0 @ right_j).submatrix(0, n, 0, k)
        U = (P0_invH @ left_j).submatrix(0, n, 0, k)
        assert R.H @ V == U.H @ L == Matrix.identity(k)
