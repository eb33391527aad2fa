"""Seeded inputs, job runners and correctness gates for the workloads.

Inputs are generated with the standard library only (``random`` and
``fractions``), so they do not change when the program changes.  Every
call into the program goes through a module attribute such as
``reporting.run_shift_job``, so the wrappers installed by ``spans.py``
see it.

A *job* is one report (``shift-general``, ``verify-complex``) or one
selftest instance (``selftest-pool``).  A pool holds one item per job;
a runner hands the job's time, gate result and output to ``record``.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

from eigenshift import canonical, oracle, randgen, reporting

# ---------------------------------------------------------------------------
# exact helpers on plain lists of Fractions


def _unimodular(n, rng, max_abs=3):
    """Integer matrix Q with det +-1 and its integer inverse.

    Row operations on the identity build Q; the matching column
    operations on the identity build Q^-1.
    """
    q = [[int(i == j) for j in range(n)] for i in range(n)]
    qi = [row[:] for row in q]
    for _ in range(4 * n):
        op = rng.randrange(3)
        if op == 0 and n > 1:  # row_i += c row_j
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            new_row = [q[i][t] + c * q[j][t] for t in range(n)]
            if all(abs(x) <= max_abs for x in new_row):
                q[i] = new_row
                for row in qi:
                    row[j] -= c * row[i]
        elif op == 1 and n > 1:  # swap rows i and j
            i, j = rng.sample(range(n), 2)
            q[i], q[j] = q[j], q[i]
            for row in qi:
                row[i], row[j] = row[j], row[i]
        else:  # negate row i
            i = rng.randrange(n)
            q[i] = [-x for x in q[i]]
            for row in qi:
                row[i] = -row[i]
    return q, qi


def _matmul(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off : off + len(row)] = row
        off += len(b)
    return out


def _householder(n, rng):
    """w^T w and the integer matrix (w^T w) I - 2 w w^T for a random integer
    w: the rational reflector I - 2 w w^T / w^T w, scaled."""
    while True:
        w = [rng.randint(-1, 1) for _ in range(n)]
        ww = sum(x * x for x in w)
        if ww >= 2:
            break
    return ww, [[ww * (i == j) - 2 * w[i] * w[j] for j in range(n)] for i in range(n)]


def _jordan(blocks, scale):
    """scale * (real part, imaginary part) of the Jordan matrix of
    [(lam, size)], as integers: scale must clear every denominator."""
    n = sum(size for _, size in blocks)
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    off = 0
    for (lam_re, lam_im), size in blocks:
        for i in range(size):
            re[off + i][off + i] = int(lam_re * scale)
            im[off + i][off + i] = int(lam_im * scale)
            if i + 1 < size:
                re[off + i][off + i + 1] = scale
        off += size
    return re, im


def _scalar(re, im=0):
    """Scalar string in the job-file format: '3', '-1/2', '5/3-2i'."""
    re, im = Fraction(re), Fraction(im)
    if im == 0:
        return str(re)
    sign = "-" if im < 0 else "+"
    return f"{re}{sign}{abs(im)}i"


def _matrix_doc(rows):
    return [[_scalar(x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# shift-general: segre jobs in a dense rational basis

# (m, n): target block size and total dimension.  Cost grows with n and
# m, so the cheapest and the dearest shapes alternate: any stretch of
# consecutive jobs, not just a whole pass, has about the mean cost.
_BY_COST = [(m, n) for n in (8, 9, 10) for m in (4, 5, 6, 7)]
SHIFT_SHAPES = tuple(
    shape for pair in zip(_BY_COST[:6], reversed(_BY_COST[6:])) for shape in pair
)


def _parts(total, rng):
    """Random composition of `total` into parts of size 1 to 3."""
    parts = []
    while total:
        s = rng.randint(1, min(3, total))
        parts.append(s)
        total -= s
    return parts


def shift_job(seed, index):
    """One shift job document and the extra blocks it must keep.

    P = H diag(Q_target, Q_rest): the target block's columns are then
    orthogonal to the other blocks', so the default one-sided inverses
    keep the update inside the shifted block and prediction applies.
    """
    rng = random.Random(f"shift-general:{seed}:{index}")
    m, n = SHIFT_SHAPES[index % len(SHIFT_SHAPES)]
    lam0 = rng.randint(-4, 4)
    lam1 = lam0 + rng.choice((-1, 1)) * rng.randint(2, 4)
    taken = {lam0, lam1}
    extras = []
    for size in _parts(n - m, rng):
        mu = rng.choice([x for x in range(-6, 7) if x not in taken])
        taken.add(mu)
        extras.append((mu, size))
    q_target, _ = _unimodular(m, rng)
    q_rest, _ = _unimodular(n - m, rng)
    ww, h = _householder(n, rng)
    P = [
        [Fraction(x, ww) for x in row]
        for row in _matmul(h, _block_diag(q_target, q_rest))
    ]
    doc = {
        "target_eigenvalue": _scalar(lam0),
        "new_eigenvalue": _scalar(lam1),
        "k": m // 2,
        "segre": [[_scalar(lam0), m]]
        + [[_scalar(mu), size] for mu, size in extras],
        "change_of_basis": _matrix_doc(P),
    }
    expect = {
        "new": _scalar(lam1),
        "m": m,
        "extras": sorted((_scalar(mu), size) for mu, size in extras),
    }
    return {"doc": doc, "expect": expect}


def run_shift(item, record):
    t0 = time.perf_counter()
    job = reporting.parse_shift_job(item["doc"])
    report = reporting.run_shift_job(job)
    text = reporting.dumps(report)
    record(time.perf_counter() - t0, check_shift(report, item["expect"]), text)


def check_shift(report, expect):
    """Every verdict passes, prediction equals oracle, extras unchanged."""
    verdicts = report["verdicts"]
    if set(verdicts) != {
        "spectrum_check",
        "half_chain_invariance",
        "prediction_vs_oracle",
    } or any(v != "pass" for v in verdicts.values()):
        return False
    predicted = report["prediction"]["segre"]
    if predicted != report["oracle_segre"]:
        return False
    at_new = [size for lam, size in predicted if lam == expect["new"]]
    away = sorted((lam, size) for lam, size in predicted if lam != expect["new"])
    return sum(at_new) == expect["m"] and away == expect["extras"]


# ---------------------------------------------------------------------------
# verify-complex: explicit matrices with complex eigenvalues and all chains

# block sizes per job, cycled; n = 10 to 12 with 3 to 5 blocks of size 2
# to 4.  As for SHIFT_SHAPES, cheap and dear shapes alternate.
VERIFY_SHAPES = (
    (2, 2, 2, 2, 2),
    (4, 3, 3, 2),
    (4, 4, 2),
    (3, 3, 2, 2, 2),
    (3, 3, 3, 2),
    (4, 4, 4),
    (4, 3, 3),
    (3, 2, 2, 2, 2),
    (4, 4, 3),
)


EIG_DENOMINATORS = 6  # a multiple of every real-part denominator drawn


def _complex_eigenvalues(count, rng):
    """Distinct eigenvalues such as -5/3+2i; the first is never real."""
    out = []
    while len(out) < count:
        re = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        im = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        if out and rng.random() < 0.25:
            im = Fraction(0)
        if (re, im) not in out:
            out.append((re, im))
    return out


def verify_job(seed, index):
    """Matrix document, chains document and expected verdict count."""
    rng = random.Random(f"verify-complex:{seed}:{index}")
    sizes = VERIFY_SHAPES[index % len(VERIFY_SHAPES)]
    blocks = list(zip(_complex_eigenvalues(len(sizes), rng), sizes))
    n = sum(sizes)
    q, qi = _unimodular(n, rng)
    j_re, j_im = _jordan(blocks, EIG_DENOMINATORS)
    a_re = _matmul(_matmul(q, j_re), qi)
    a_im = _matmul(_matmul(q, j_im), qi)
    matrix = [
        [
            _scalar(
                Fraction(a_re[i][j], EIG_DENOMINATORS),
                Fraction(a_im[i][j], EIG_DENOMINATORS),
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    # right chains are the columns of Q, left chains the rows of Q^-1
    # taken last-first within each block (Q^-1 is real, so no conjugate)
    chains = []
    off = 0
    for (lam_re, lam_im), size in blocks:
        right = [[_scalar(q[r][off + i]) for r in range(n)] for i in range(size)]
        left = [
            [_scalar(x) for x in qi[off + size - 1 - i]] for i in range(size)
        ]
        chains.append({"lambda": _scalar(lam_re, lam_im), "left": left, "right": right})
        off += size
    p = len(blocks)
    expected = sum(4 if size % 2 else 3 for size in sizes) + p * (p - 1)
    return {
        "matrix": matrix,
        "chains": {"chains": chains},
        "expected_verdicts": expected,
    }


def run_verify(item, record):
    t0 = time.perf_counter()
    A = reporting.obj_to_matrix(item["matrix"])
    pairs = reporting.parse_chain_sets(item["chains"])
    report = reporting.run_verify_job(A, pairs)
    text = reporting.dumps(report)
    record(
        time.perf_counter() - t0,
        check_verify(report, item["expected_verdicts"]),
        text,
    )


def check_verify(report, expected):
    verdicts = report["verdicts"]
    return len(verdicts) == expected and all(
        v == "pass" for v in verdicts.values()
    )


# ---------------------------------------------------------------------------
# selftest-pool: the `eigenshift selftest` calls, one instance at a time

# Instance kinds in the proportions of `eigenshift selftest --count 10`
# (ten even and ten odd random shifts, one targeted form per odd case
# label), interleaved so that any stretch of jobs has about that mix.
SELFTEST_KINDS = tuple(
    kind for label in randgen.ODD_CASE_LABELS for kind in ("even", "odd", label)
)


def _k_range(kind):
    """Range of k, the first draw of the instance maker for `kind`."""
    if kind in ("even", "odd"):
        return 1, 3  # max_k 3, as `eigenshift selftest` uses
    return (2 if kind in ("Odd2b", "Odd4b") else 1), 4


def _draws_extras(rng):
    """Whether a guarded random shift instance drawn from `rng`, after its
    first draw k, gets extra blocks: the draws of `randgen._make_instance`
    up to its first one in `_random_extras`."""
    rng.randint(-4, 4)  # lambda0
    rng.choice((-1, 1))
    rng.randint(2, 4)  # |lambda1 - lambda0|
    return rng.random() < 0.5


def selftest_item(seed, index):
    """Instance kind and generator seed of pool item `index`.

    Cost grows steeply with k, and a random shift instance with extra
    blocks costs two to four times one without.  So the items are
    stratified over both: the generator seed is the first one whose first
    draw, randint(lo, hi), gives the k this item's position calls for and,
    for a random shift instance, whose later draws give extra blocks or
    none as the position calls for.  Every seed's pool then has the same
    mix of sizes, and the median job depends less on the seed.
    """
    kind = SELFTEST_KINDS[index % len(SELFTEST_KINDS)]
    lo, hi = _k_range(kind)
    k = lo + (index // 3) % (hi - lo + 1)
    extras = (index // (3 * (hi - lo + 1))) % 2 == 1
    for attempt in itertools.count():
        rng_seed = f"selftest-pool:{seed}:{index}:{attempt}"
        rng = random.Random(rng_seed)
        if rng.randint(lo, hi) != k:
            continue
        if kind not in ("even", "odd"):
            return {"kind": kind, "seed": rng_seed, "k": k}
        if _draws_extras(rng) == extras:
            return {"kind": kind, "seed": rng_seed, "k": k, "extras": extras}


def run_selftest(item, record):
    selftest_instance(item["kind"], random.Random(item["seed"]), record)


def selftest_instance(kind, rng, record):
    """One instance of the `eigenshift selftest` loop.

    "even"/"odd": a guarded random shift, predicted and compared with the
    oracle; an odd case label: a targeted concentrated form, classified
    and compared with the oracle.
    """
    t0 = time.perf_counter()
    if kind in ("even", "odd"):
        maker = (
            randgen.random_even_shift_instance
            if kind == "even"
            else randgen.random_odd_shift_instance
        )
        inst = maker(rng, guarded=True)
        prediction = canonical.predict_structure(inst.shift, inst.P)
        eigs = [inst.lambda1] + [
            lam for lam, _ in inst.segre.blocks if lam != inst.lambda0
        ]
        want = oracle.oracle_segre(inst.shift.A_hat, eigs).sizes_at(inst.lambda1)
        matrix = inst.shift.A_hat
    else:
        cf = randgen.targeted_concentrated_form(rng, kind)
        prediction = canonical.classify_odd(cf)
        want = oracle.oracle_segre(cf.matrix(), [cf.lam]).sizes_at(cf.lam)
        matrix = None
    elapsed = time.perf_counter() - t0
    record(elapsed, prediction.sizes == want, _selftest_text(prediction, want, matrix))


def selftest_pass(seed, count, record):
    """`eigenshift selftest --seed S --count C`: the same instances in the
    same order, all drawn from one shared generator."""
    rng = random.Random(seed)
    for _ in range(count):
        for kind in ("even", "odd"):
            selftest_instance(kind, rng, record)
    for label in randgen.ODD_CASE_LABELS:
        selftest_instance(label, rng, record)


def _selftest_text(prediction, want, matrix=None):
    """Deterministic record of one instance, for the output digest."""
    doc = {
        "case_label": prediction.case_label,
        "fallback_used": prediction.fallback_used,
        "predicted": list(prediction.sizes),
        "oracle": list(want),
        "cycles": [[[str(e) for e in v] for v in c] for c in prediction.cycles],
    }
    if matrix is not None:
        doc["shifted_matrix"] = [str(e) for e in matrix.entries]
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------

# name -> (item generator, runner, pool size).  A timed run covers about
# one pool; the more distinct jobs a run averages over, the less its
# figures depend on the seed.
WORKLOADS = {
    "shift-general": (shift_job, run_shift, 4 * len(SHIFT_SHAPES)),
    "selftest-pool": (selftest_item, run_selftest, 8 * len(SELFTEST_KINDS)),
    "verify-complex": (verify_job, run_verify, 8 * len(VERIFY_SHAPES)),
}


def make_pool(workload, seed):
    make, _, size = WORKLOADS[workload]
    return [make(seed, i) for i in range(size)]


def runner(workload):
    return WORKLOADS[workload][1]
