"""Job parsing, report assembly and deterministic serialization.

Jobs and reports are single JSON documents.  All scalars travel as
exact strings ("3", "-1/2", "1/2+3i") so no value is ever routed
through floating point.  Matrices and vectors are read from those
strings straight into their integer form (``from_texts``) and printed
straight from it (``texts``), with no scalar object per entry.  Reports
embed their normalized input job, so re-running a report's job
reproduces the report byte for byte.

Every shift job, predicted or refused, checks its spectrum and runs its
oracle on one n x n pair in its Jordan basis (``_in_jordan_basis``),
which both checks split into diagonal blocks from its zero pattern alone.
"""

from __future__ import annotations

import itertools
import json
from json.encoder import encode_basestring_ascii as _quote

from .biortho import check_hankel, gram_table, resolvent_identities
from .canonical import (
    EvenCanonical,
    OddCanonical,
    classify_even,
    classify_odd,
    predict_structure,
    reduce_to_concentrated,
)
from .errors import (
    EigenShiftError,
    ExtractionError,
    InvalidParameterError,
    InverseIdentityError,
    ResolventError,
    ShapeError,
)
from .linalg import Matrix, Vector
from .oracle import oracle_segre
from .scalars import CR, ComplexRational, _Value, format_scalar, parse_scalar
from .shifting import (
    ShiftResult,
    charpoly_ratio_check,
    half_chain_invariance_holds,
    make_left_inverse,
    make_right_inverse,
    shift_even,
    shift_odd,
)
from .synthesis import (
    ChainPair,
    SegreCharacteristic,
    basis_inverse,
    build_matrix,
    check_chains,
    jordan_matrix,
)


class JobParseError(EigenShiftError):
    """Malformed job or form document, or a file argument that cannot be
    read or written (CLI exit code 2)."""


PASS, FAIL, NA = "pass", "fail", "not-applicable"


# ---------------------------------------------------------------------------
# scalar / matrix / vector (de)serialization


def str_to_scalar(s) -> ComplexRational:
    try:
        return parse_scalar(s)
    except (ValueError, TypeError) as exc:
        raise JobParseError(f"bad scalar {s!r}: {exc}") from exc


def _int_field(value, name: str) -> int:
    """A JSON integer field; a bool, float or string is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobParseError(f"{name} must be an integer, got {value!r}")
    return value


def _check_square(A: Matrix) -> Matrix:
    if not A.is_square:
        raise ShapeError(f"matrix must be square, got {A.rows}x{A.cols}")
    return A


def matrix_to_obj(M: Matrix):
    t, c = M.texts(), M.cols
    return [t[i * c : (i + 1) * c] for i in range(M.rows)]


def obj_to_matrix(obj) -> Matrix:
    if not isinstance(obj, list) or not obj or not all(
        isinstance(r, list) and len(r) == len(obj[0]) for r in obj
    ):
        raise JobParseError("matrix must be a non-empty list of equal-length rows")
    try:
        return Matrix.from_texts(obj)
    except ValueError:
        _first_bad_scalar(e for r in obj for e in r)
        raise


def vector_to_obj(v: Vector):
    return v.texts()


def obj_to_vector(obj) -> Vector:
    if not isinstance(obj, list) or not obj:
        raise JobParseError("vector must be a non-empty list of scalar strings")
    try:
        return Vector.from_texts(obj)
    except ValueError:
        _first_bad_scalar(obj)
        raise


def _first_bad_scalar(texts):
    """Raise the JobParseError of the first text that does not parse."""
    for s in texts:
        str_to_scalar(s)


def segre_to_obj(segre: SegreCharacteristic):
    return [
        [format_scalar(lam), size] for lam, size in segre.canonical().blocks
    ]


def obj_to_segre(obj) -> SegreCharacteristic:
    try:
        return SegreCharacteristic(
            [
                (str_to_scalar(lam), _int_field(size, "block size"))
                for lam, size in obj
            ]
        )
    except (TypeError, ValueError) as exc:
        raise JobParseError(f"bad segre description: {exc}") from exc


def dumps(doc) -> str:
    """json.dumps(doc, indent=2) and a newline, written by ``_write``.

    json's own encoder takes its pure-Python path when indenting, and
    that path leaves a cycle of closures behind on every call, for the
    collector to find; a module-level writer leaves none.
    """
    out = []
    _write(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(x, out, newline):
    """Append x's JSON text to out, as json.dumps(x, indent=2) writes it
    at the nesting whose line break and indent are newline."""
    if isinstance(x, str):
        out.append(_quote(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, (list, tuple, dict)) and not x:
        out.append("{}" if isinstance(x, dict) else "[]")
    elif isinstance(x, (list, tuple)) and all(isinstance(item, str) for item in x):
        inner = newline + "  "  # a row of texts, in one join
        out.append(f"[{inner}{(',' + inner).join(map(_quote, x))}{newline}]")
    elif isinstance(x, (list, tuple)):
        inner = newline + "  "
        out.append("[")
        for i, item in enumerate(x):
            out.append("," + inner if i else inner)
            _write(item, out, inner)
        out.append(newline + "]")
    elif isinstance(x, dict):
        inner = newline + "  "
        out.append("{")
        for i, (key, value) in enumerate(x.items()):
            out.append("," + inner if i else inner)
            # a key that is not a string is quoted as json prints it
            out.append(_quote(key if isinstance(key, str) else json.dumps(key)))
            out.append(": ")
            _write(value, out, inner)
        out.append(newline + "}")
    else:  # a float, say, echoed from a classify form
        out.append(json.dumps(x))


# ---------------------------------------------------------------------------
# shift jobs


class ShiftJob(_Value):
    """Parsed shift job (one of the two source forms)."""

    __slots__ = (
        "target_eigenvalue", "new_eigenvalue", "k", "segre", "change_of_basis",
        "matrix", "left_chain", "right_chain", "r_free", "l_free",
    )
    # mutable and unhashable: parse_shift_job fills it field by field
    __setattr__ = object.__setattr__
    __hash__ = None

    def __init__(
        self, target_eigenvalue, new_eigenvalue, k, segre=None, change_of_basis=None,
        matrix=None, left_chain=None, right_chain=None, r_free=None, l_free=None,
    ):
        self.target_eigenvalue = target_eigenvalue
        self.new_eigenvalue = new_eigenvalue
        self.k = k
        self.segre = segre
        self.change_of_basis = change_of_basis
        self.matrix = matrix
        self.left_chain = left_chain
        self.right_chain = right_chain
        self.r_free = r_free
        self.l_free = l_free

    def normalized(self) -> dict:
        """Canonical document form; embedding this in a report and
        re-parsing it round-trips exactly."""
        doc = {
            "target_eigenvalue": format_scalar(self.target_eigenvalue),
            "new_eigenvalue": format_scalar(self.new_eigenvalue),
            "k": self.k,
        }
        if self.segre is not None:
            doc["segre"] = segre_to_obj(self.segre)
            if self.change_of_basis is not None:
                doc["change_of_basis"] = matrix_to_obj(self.change_of_basis)
        else:
            doc["matrix"] = matrix_to_obj(self.matrix)
            doc["chains"] = {
                "left": [vector_to_obj(u) for u in self.left_chain],
                "right": [vector_to_obj(v) for v in self.right_chain],
            }
        if self.r_free is not None:
            doc["r_free"] = matrix_to_obj(self.r_free)
        if self.l_free is not None:
            doc["l_free"] = matrix_to_obj(self.l_free)
        return doc


def parse_shift_job(doc) -> ShiftJob:
    if not isinstance(doc, dict):
        raise JobParseError("job document must be a single object")
    try:
        lam0 = str_to_scalar(doc["target_eigenvalue"])
        lam1 = str_to_scalar(doc["new_eigenvalue"])
        k = _int_field(doc["k"], "k")
    except KeyError as exc:
        raise JobParseError(f"job is missing required field {exc}") from exc
    # older reports embed "backend": "exact" in their job; keep them parsing
    if doc.get("backend", "exact") != "exact":
        raise JobParseError(f"unknown backend {doc['backend']!r}")
    if k < 0:
        raise JobParseError("k must be >= 0")
    job = ShiftJob(lam0, lam1, k)
    if "segre" in doc:
        job.segre = obj_to_segre(doc["segre"])
        if "change_of_basis" in doc:
            job.change_of_basis = obj_to_matrix(doc["change_of_basis"])
    elif "matrix" in doc:
        job.matrix = obj_to_matrix(doc["matrix"])
        chains = doc.get("chains")
        if not isinstance(chains, dict):
            raise JobParseError("explicit-matrix jobs need a chains object")
        for side in ("left", "right"):
            if not isinstance(chains.get(side), list):
                raise JobParseError(f"chains.{side} must be a list of vectors")
        job.left_chain = [obj_to_vector(u) for u in chains["left"]]
        job.right_chain = [obj_to_vector(v) for v in chains["right"]]
    else:
        raise JobParseError("job needs either a segre or an explicit matrix")
    if "r_free" in doc:
        job.r_free = obj_to_matrix(doc["r_free"])
    if "l_free" in doc:
        job.l_free = obj_to_matrix(doc["l_free"])
    return job


def _check_k(k: int, m: int) -> None:
    """A chain of length m is shifted with k = m // 2."""
    if m != 2 * k and m != 2 * k + 1:
        raise InvalidParameterError(
            f"k={k} is inconsistent with a chain of length {m}"
        )


def _job_inputs(job: ShiftJob):
    """Materialize (A, chain pair at lam0, other blocks, basis) from
    either job source, once k fits the chain.  A segre job's chain pair
    is its target block's, as ``build_matrix`` returns it; prediction
    reads that pair alone and needs no basis.  basis is (P0, J, every
    block's chain pair) for a segre job with a change of basis, and None
    otherwise; without one, A is the Jordan matrix J itself and the pair
    is the unit vectors of the target block, with no inverse or product."""
    lam0 = job.target_eigenvalue
    if job.segre is not None:
        segre = job.segre
        n = segre.total_size
        P0 = job.change_of_basis
        if P0 is not None and P0.shape != (n, n):
            raise ShapeError(
                f"change of basis must be {n}x{n}, got {P0.rows}x{P0.cols}"
            )
        targets = [i for i, (lam, _) in enumerate(segre.blocks) if lam == lam0]
        if len(targets) != 1:
            raise InvalidParameterError(
                "the target eigenvalue must occupy exactly one Jordan block"
            )
        (t,) = targets
        # the chain length is the target block's size: check k before
        # any n x n matrix is built
        _check_k(job.k, segre.blocks[t][1])
        others = [b for i, b in enumerate(segre.blocks) if i != t]
        if P0 is None:  # A is J, and the chains are unit vectors
            lam, size = segre.blocks[t]
            offset = sum(s for _, s in segre.blocks[:t])
            units = [Vector.unit(n, offset + i) for i in range(size)]
            return jordan_matrix(segre), ChainPair(lam, units[::-1], units), others, None
        A, chain_list = build_matrix(segre, P0)
        return A, chain_list[t], others, (P0, jordan_matrix(segre), chain_list)
    A = _check_square(job.matrix)
    chains = ChainPair(lam0, job.left_chain, job.right_chain)
    _check_k(job.k, chains.length)
    for v in (*chains.left, *chains.right):  # with or without a free part
        if v.dim != A.rows:
            raise ShapeError(f"columns of dimension {v.dim}, expected {A.rows}")
    return A, chains, [], None


def _in_jordan_basis(shift: ShiftResult, basis):
    """(A, A_hat) in the job's Jordan basis: (J, P0^{-1} A_hat P0) for a
    basis (P0, J, chains), or (A, A_hat) itself for None.

    P0^{-1} is read off the chains (``basis_inverse``) and checked:
    InverseIdentityError unless P0^{-1} P0 = I.  J stands in for
    P0^{-1} A P0 with no product: ``_job_inputs`` built A = P0 J P0^{-1}
    in this process, so with P0^{-1} P0 = I, P0^{-1} A P0 = J exactly.
    """
    if basis is None:
        return shift.A, shift.A_hat
    P0, J, chain_list = basis
    P0_inv = basis_inverse(chain_list)
    if P0_inv @ P0 != Matrix.identity(P0.rows):
        raise InverseIdentityError("P0^{-1} P0 != I")
    return J, P0_inv @ shift.A_hat @ P0


def run_shift_job(job: ShiftJob) -> dict:
    """Execute shift -> predict -> verify and assemble the report; the
    spectrum check and the oracle read the pair ``_in_jordan_basis``."""
    lam1 = job.new_eigenvalue
    A, chains, others, basis = _job_inputs(job)
    m = chains.length
    R = L = None  # without a free part the shift builds the default
    if job.r_free is not None:
        V = Matrix.from_columns(list(chains.right[: job.k]), dim=A.rows)
        R = make_right_inverse(V, free=job.r_free)
    if job.l_free is not None:
        U = Matrix.from_columns(list(chains.left[: job.k]), dim=A.rows)
        L = make_left_inverse(U, free=job.l_free)
    shift = (shift_odd if m % 2 else shift_even)(A, chains, lam1, R=R, L=L)

    prediction = None
    if job.segre is None and A.rows != m:
        skipped = (
            "an explicit job names only the shifted chain, so A's Jordan "
            "blocks outside it, at lambda1 too, are unknown to the oracle; "
            "prediction skipped"
        )
    else:
        try:
            prediction = predict_structure(shift)
        except ExtractionError as exc:
            skipped = f"prediction not applicable: {exc}"

    diagnostics, verdicts = [], {}
    A_in, A_hat_in = _in_jordan_basis(shift, basis)
    verdicts["spectrum_check"] = (
        PASS if charpoly_ratio_check(A_in, A_hat_in, chains.lam, lam1, m) else FAIL
    )
    verdicts["half_chain_invariance"] = (
        PASS if half_chain_invariance_holds(shift) else FAIL
    )

    predicted_obj = cycles_obj = report_oracle = None
    if prediction is None:
        verdicts["prediction_vs_oracle"] = NA
        diagnostics.append(skipped)
    else:
        diagnostics.extend(prediction.diagnostics)
        predicted_full = SegreCharacteristic([*prediction.segre.blocks, *others])
        eigs = [lam1] + [lam for lam, _ in others]
        oracle = oracle_segre(A_hat_in, eigs)
        verdicts["prediction_vs_oracle"] = (
            PASS if predicted_full == oracle else FAIL
        )
        predicted_obj = {
            "segre": segre_to_obj(predicted_full),
            "case_label": prediction.case_label,
            "fallback_used": prediction.fallback_used,
        }
        cycles_obj = [
            [vector_to_obj(v) for v in cycle] for cycle in prediction.cycles
        ]
        report_oracle = segre_to_obj(oracle)
    return {
        "kind": "shift-report",
        "job": job.normalized(),
        "shifted_matrix": matrix_to_obj(shift.A_hat),
        "prediction": predicted_obj,
        "oracle_segre": report_oracle,
        "cycles": cycles_obj,
        "verdicts": verdicts,
        "diagnostics": diagnostics,
    }


def report_exit_code(report: dict) -> int:
    verdicts = report.get("verdicts", {})
    return 0 if all(v != FAIL for v in verdicts.values()) else 4


# ---------------------------------------------------------------------------
# verify jobs (biorthogonality / resolvent identity suite)


def parse_chain_sets(doc):
    """Chains document: {"chains": [{"lambda", "left", "right"}, ...]}."""
    items = doc.get("chains") if isinstance(doc, dict) else doc
    if not isinstance(items, list):
        raise JobParseError("chains document must hold a 'chains' array")
    pairs = []
    for item in items:
        try:
            lam = str_to_scalar(item["lambda"])
            left = [obj_to_vector(u) for u in item["left"]]
            right = [obj_to_vector(v) for v in item["right"]]
        except (KeyError, TypeError) as exc:
            raise JobParseError(f"bad chain entry: {exc}") from exc
        pairs.append(ChainPair(lam, left, right))
    return pairs


def run_verify_job(A: Matrix, pairs) -> dict:
    """Biorthogonality, Hankel-pattern and resolvent identity report.

    Every recurrence is checked first, each chain with one product per
    side (``check_chains``); the chains that pass then share one
    Gram table, of which each pair reads its own blocks, and one forward
    pass that gives each pair's own block of the resolvent table
    (``resolvent_identities``).
    """
    _check_square(A)
    failures = {}  # pair index -> recurrence failure
    blocks = {}  # pair index -> (offset, length) in the batched tables
    offset = 0
    checks = check_chains(A, [(p.lam, p.left, p.right) for p in pairs])
    for i, (pair, failure) in enumerate(zip(pairs, checks)):
        if failure is not None:
            failures[i] = failure
            continue
        blocks[i] = (offset, pair.length)
        offset += pair.length
    passed = [pairs[i] for i in blocks]
    if passed:
        gram = gram_table(
            [u for pair in passed for u in pair.left],
            [v for pair in passed for v in pair.right],
        )
        resolvent = dict(
            zip(blocks, _resolvent_verdicts(A, passed, [p.lam for p in pairs]))
        )
    verdicts = {}
    diagnostics = []
    for i in range(len(pairs)):
        tag = f"chain_{i}"
        if i in failures:
            verdicts[f"{tag}:recurrence"] = FAIL
            diagnostics.append(f"{tag}: {failures[i]}")
            continue
        verdicts[f"{tag}:recurrence"] = PASS
        o, p = blocks[i]
        own = gram.submatrix(o, o + p, o, o + p)
        ok, info = check_hankel(own)
        verdicts[f"{tag}:hankel_pattern"] = PASS if ok else FAIL
        if not ok:
            diagnostics.append(
                f"{tag}: Gram table violates the Hankel pattern at {info[0]}:"
                f" {info[1]}"
            )
        if p % 2 == 1:  # a genuine full pair has x_{m,m} != 0, m = (p + 1) / 2
            m = p // 2
            ok = not own.submatrix(m, m + 1, m, m + 1).is_zero
            verdicts[f"{tag}:middle_product"] = PASS if ok else FAIL
            if not ok:
                diagnostics.append(
                    f"{tag}: middle inner product vanishes: not a genuine full"
                    " chain pair"
                )
        verdicts[f"{tag}:resolvent_identities"] = (
            PASS if resolvent[i] else FAIL
        )
    for i, (oi, pi) in blocks.items():
        for j, (oj, pj) in blocks.items():
            if i == j or pairs[i].lam == pairs[j].lam:
                continue
            ok = gram.submatrix(oi, oi + pi, oj, oj + pj).is_zero
            verdicts[f"cross_orthogonality_{i}_{j}"] = PASS if ok else FAIL
            if not ok:
                diagnostics.append(
                    f"chains {i} and {j} have distinct eigenvalues but a "
                    "nonzero cross Gram table"
                )
    return {
        "kind": "verify-report",
        "matrix": matrix_to_obj(A),
        "chains": [
            {
                "lambda": format_scalar(p.lam),
                "left": [vector_to_obj(u) for u in p.left],
                "right": [vector_to_obj(v) for v in p.right],
            }
            for p in pairs
        ],
        "verdicts": verdicts,
        "diagnostics": diagnostics,
    }


def _resolvent_verdicts(A: Matrix, pairs, exclude):
    """Resolvent identity verdicts at the first t = 0, 1, 2, ... that is
    neither in exclude nor an eigenvalue of A.

    A point of the spectrum shows as a singular pass, so the pass that
    gives the verdicts also picks the point; at most n points fail.
    """
    for t in itertools.count():
        point = CR(t)
        if any(point == x for x in exclude):
            continue
        try:
            return resolvent_identities(A, point, pairs)
        except ResolventError:
            continue


# ---------------------------------------------------------------------------
# classify jobs (direct canonical-form access)


def run_classify_job(doc) -> dict:
    if not isinstance(doc, dict):
        raise JobParseError("form document must be a single object")
    kind = doc.get("kind")
    try:
        k = _int_field(doc["k"], "k")
        lam = str_to_scalar(doc["lambda"])
    except KeyError as exc:
        raise JobParseError(f"form is missing required field {exc}") from exc
    if k < 1:
        raise JobParseError("classification needs k >= 1")
    if kind not in ("even", "odd"):
        raise JobParseError("form kind must be 'even' or 'odd'")
    # the supplied fields are checked against k before a default is built
    C = obj_to_matrix(doc["C"]) if "C" in doc else None
    a = b = None
    if kind == "odd":
        a = obj_to_vector(doc["a"]) if "a" in doc else None
        b = obj_to_vector(doc["b"]) if "b" in doc else None
    if (C is not None and C.shape != (k, k)) or any(
        v is not None and v.dim != k for v in (a, b)
    ):
        raise JobParseError(
            f"C must be {k}x{k}"
            if kind == "even"
            else f"a, b must have length {k} and C be {k}x{k}"
        )
    C = Matrix.zeros(k, k) if C is None else C
    if kind == "even":
        prediction = classify_even(EvenCanonical(k, lam, C))
    else:
        a, b = (Vector.zero(k) if v is None else v for v in (a, b))
        oc = OddCanonical(k, lam, a, b, C)
        prediction = classify_odd(reduce_to_concentrated(oc))
    return {
        "kind": "classify-report",
        "form": doc,
        "case_label": prediction.case_label,
        "segre": segre_to_obj(prediction.segre),
        "cycles": [
            [vector_to_obj(v) for v in cycle] for cycle in prediction.cycles
        ],
        "fallback_used": prediction.fallback_used,
        "diagnostics": list(prediction.diagnostics),
        "verdicts": {"classification": PASS},
    }
