"""Command-line interface.

    eigenshift shift <job.json> [-o report.json]
    eigenshift verify <matrix.json> <chains.json> [-o report.json]
    eigenshift classify <form.json> [-o report.json]
    eigenshift selftest [--seed N] [--count N]

Exit codes: 0 all applicable verdicts pass, 2 parse error or a file
argument that cannot be read or written, 3 precondition violation or a
job too large to hold, 4 internal discrepancy (report still written).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .canonical import classify_odd, predict_structure
from .errors import EigenShiftError
from .oracle import oracle_segre
from .randgen import (
    ODD_CASE_LABELS,
    random_even_shift_instance,
    random_odd_shift_instance,
    targeted_concentrated_form,
)
from .reporting import (
    FAIL,
    JobParseError,
    dumps,
    obj_to_matrix,
    parse_chain_sets,
    parse_shift_job,
    report_exit_code,
    run_classify_job,
    run_shift_job,
    run_verify_job,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_DISCREPANCY = 4


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise JobParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors, as is an
        # integer literal past the interpreter's digit limit
        raise JobParseError(f"{path} is not valid JSON: {exc}") from exc


def _emit(report: dict, out_path):
    text = dumps(report)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise JobParseError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_shift(args) -> int:
    job = parse_shift_job(_load_json(args.job))
    report = run_shift_job(job)
    _emit(report, args.output)
    return report_exit_code(report)


def _cmd_verify(args) -> int:
    A = obj_to_matrix(_load_json(args.matrix))
    pairs = parse_chain_sets(_load_json(args.chains))
    report = run_verify_job(A, pairs)
    _emit(report, args.output)
    return report_exit_code(report)


def _cmd_classify(args) -> int:
    report = run_classify_job(_load_json(args.form))
    _emit(report, args.output)
    return report_exit_code(report)


def _cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    failures = []
    checked = 0

    def check(prediction, want, what):
        """A wrong structure, or a right one reached only through the
        oracle's cycles, is a failure."""
        if prediction.sizes != want:
            failures.append(
                f"{what}: predicted {prediction.sizes} != oracle {want} "
                f"(case {prediction.case_label})"
            )
        elif prediction.fallback_used:
            failures.append(
                f"{what}: case {prediction.case_label} fell back to the "
                "oracle's cycles"
            )

    for _ in range(args.count):
        for maker in (random_even_shift_instance, random_odd_shift_instance):
            inst = maker(rng, guarded=True)
            prediction = predict_structure(inst.shift)
            eigs = [inst.lambda1] + [
                lam for lam, _ in inst.segre.blocks if lam != inst.lambda0
            ]
            oracle = oracle_segre(inst.shift.A_hat, eigs)
            checked += 1
            check(prediction, oracle.sizes_at(inst.lambda1), "shift")
    for label in ODD_CASE_LABELS:
        cf = targeted_concentrated_form(rng, label)
        checked += 1
        want = oracle_segre(cf.matrix(), [cf.lam]).sizes_at(cf.lam)
        check(classify_odd(cf), want, f"targeted {label}")
    report = {
        "kind": "selftest-report",
        "seed": args.seed,
        "instances": checked,
        "verdicts": {"selftest": FAIL if failures else "pass"},
        "diagnostics": failures,
    }
    _emit(report, args.output)
    return report_exit_code(report)


def nonnegative_int(text: str) -> int:
    """An integer >= 0, such as a --count value."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenshift",
        description=(
            "Exact eigenvalue shifting with Jordan-structure prediction "
            "and rank-sequence verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_shift = sub.add_parser("shift", help="run a shift job file")
    p_shift.add_argument("job", help="path to the JSON job document")
    p_shift.add_argument("-o", "--output", default=None)
    p_shift.set_defaults(func=_cmd_shift)

    p_verify = sub.add_parser(
        "verify", help="run the biorthogonality/resolvent identity suite"
    )
    p_verify.add_argument("matrix", help="path to the JSON matrix document")
    p_verify.add_argument("chains", help="path to the JSON chains document")
    p_verify.add_argument("-o", "--output", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_classify = sub.add_parser(
        "classify", help="classify an explicit canonical form"
    )
    p_classify.add_argument("form", help="path to the JSON form document")
    p_classify.add_argument("-o", "--output", default=None)
    p_classify.set_defaults(func=_cmd_classify)

    p_self = sub.add_parser(
        "selftest", help="randomized prediction-vs-oracle self test"
    )
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--count", type=nonnegative_int, default=10)
    p_self.add_argument("-o", "--output", default=None)
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except JobParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EigenShiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (MemoryError, OverflowError) as exc:
        print(f"error: job too large: {exc!r}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
