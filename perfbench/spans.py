"""In-memory spans and exact counts around the program's public functions.

``Tracer`` wraps each public function listed in ``LAYER_POINTS``.  The
wrapper is installed on the defining module or class *and* on every
``eigenshift`` module that imported the function by value (for example
``reporting.charpoly_ratio_check`` or ``canonical.verify_cycles``);
otherwise calls made through those names would be missed.

A span is ``[name, start, end, parent]``; the spans of one job are kept
in memory until the job ends, then folded into per-layer self time
(span duration minus the time its direct child spans cover) and
dropped.  Everything runs in one thread, so nothing queues or waits and
no wait time is recorded.

With ``count_scalars=True`` the arithmetic methods of
``ComplexRational`` are wrapped too.  That adds a Python call to every
scalar operation and would distort the self times, so counting passes
are kept apart from the timed ones.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

from eigenshift import (
    biortho,
    canonical,
    linalg,
    oracle,
    randgen,
    reporting,
    scalars,
    shifting,
    synthesis,
)

# span name -> (owner, attribute names); owner is a module or class
LAYER_POINTS = {
    "linalg.det": (linalg.Matrix, ("det",)),
    "linalg.rank": (linalg.Matrix, ("exact_rank",)),
    "linalg.solve": (linalg.Matrix, ("solve",)),
    "linalg.null_space": (linalg.Matrix, ("null_space_basis",)),
    "linalg.matmul": (linalg.Matrix, ("__matmul__",)),
    "synthesis.build_matrix": (synthesis, ("build_matrix",)),
    "synthesis.chain_check": (synthesis.ChainPair, ("verify_against",)),
    "biortho.gram": (biortho, ("gram_table",)),
    "biortho.resolvent": (biortho, ("resolvent_orthogonality_check",)),
    "shifting.charpoly_check": (shifting, ("charpoly_ratio_check",)),
    "shifting.shift": (
        shifting,
        ("shift_even", "shift_odd", "make_right_inverse", "make_left_inverse"),
    ),
    "shifting.invariance": (shifting, ("half_chain_invariance_holds",)),
    "canonical.predict": (canonical, ("predict_structure",)),
    "canonical.extract": (
        canonical,
        ("extract_even_canonical", "extract_odd_canonical"),
    ),
    "canonical.reduce": (canonical, ("reduce_to_concentrated",)),
    "canonical.classify": (canonical, ("classify_even", "classify_odd")),
    "oracle.segre": (oracle, ("oracle_segre",)),
    "oracle.weyr": (oracle, ("weyr_profile",)),
    "oracle.jordan_cycles": (oracle, ("jordan_cycles",)),
    "oracle.verify_cycles": (oracle, ("verify_cycles",)),
    "randgen.instance": (
        randgen,
        (
            "random_even_shift_instance",
            "random_odd_shift_instance",
            "targeted_concentrated_form",
        ),
    ),
    "reporting.parse": (
        reporting,
        ("parse_shift_job", "obj_to_matrix", "parse_chain_sets"),
    ),
    "reporting.run": (reporting, ("run_shift_job", "run_verify_job")),
    "reporting.serialize": (reporting, ("dumps",)),
}

SCALAR_OPS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
)


class Tracer:
    """Spans, self times and exact counts for one traced or counting pass."""

    def __init__(self, count_scalars=False):
        self.count_scalars = count_scalars
        self.calls = Counter()
        self.self_s = Counter()
        self.scalar_ops = 0
        self.weyr_powers = 0
        self.labels = Counter()
        self.fallbacks = 0
        self.report_bytes = 0
        self._spans = []
        self._open = []
        self._patches = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, open_ = self._spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            if (
                name == "linalg.matmul"
                and parent >= 0
                and spans[parent][0] == "oracle.weyr"
            ):
                self.weyr_powers += 1
            span = [name, clock(), None, parent]
            open_.append(len(spans))
            spans.append(span)
            self.calls[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if name == "canonical.classify":
                self.labels[result.case_label] += 1
                self.fallbacks += result.fallback_used
            elif name == "reporting.serialize":
                self.report_bytes += len(result.encode())
            return result

        return wrapper

    def end_job(self):
        """Fold the finished job's spans into self times and drop them."""
        spans = self._spans
        for name, start, end, parent in spans:
            took = end - start
            self.self_s[name] += took
            if parent >= 0:
                self.self_s[spans[parent][0]] -= took
        spans.clear()

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        if self.count_scalars:
            cls = scalars.ComplexRational
            for attr in SCALAR_OPS:
                self._patch(cls, attr, self._counting(cls.__dict__[attr]))
        users = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key.startswith("eigenshift.") and mod is not None
        ]
        for name, (owner, attrs) in LAYER_POINTS.items():
            for attr in attrs:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                self._patch(owner, attr, wrapper)
                for mod in users:
                    if mod is not owner and vars(mod).get(attr) is original:
                        self._patch(mod, attr, wrapper)

    def _counting(self, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            self.scalar_ops += 1
            return fn(*args)

        return wrapper

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def patched_names(self):
        """'module.attribute' for every patched module attribute."""
        return {
            f"{owner.__name__}.{attr}" for owner, attr, _ in self._patches
        }
