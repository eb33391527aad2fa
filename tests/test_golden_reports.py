"""The pinned reports: each job runs through the CLI, and the SHA-256 of its
report's bytes is fixed.

Every input is built here from ``fractions.Fraction`` alone, so a bug in the
package cannot shape its own golden input.

The seed-1 trace digests of the benchmark workloads are pinned here too.
Their inputs come from ``perfbench/workloads.py``, which uses the standard
library only, except that ``selftest-pool`` pins ``randgen``'s own draws, as
``SELFTEST_STREAM_DIGEST`` does.
"""

import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from eigenshift import cli, linalg, reporting

ALL_PASS = dict.fromkeys(["spectrum_check", "half_chain_invariance", "prediction_vs_oracle"], "pass")


def mul(X, Y):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] for row in X]


def basis(n):
    """P = (I + N)(I + Nᵀ) and P⁻¹, N the shift; (I + N)⁻¹ = B with
    B[i][j] = (-1)^(j-i) for j >= i."""
    E = [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]
    B = [[(-1) ** (j - i) if j >= i else 0 for j in range(n)] for i in range(n)]
    P, Pinv = mul(E, list(zip(*E))), mul(list(zip(*B)), B)
    assert mul(P, Pinv) == [[int(i == j) for j in range(n)] for i in range(n)]
    return P, Pinv


def text(re, im=0):
    re, im = F(re), F(im)
    return str(re) if not im else f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def texts(rows):
    return [[text(x) for x in r] for r in rows]


def jordan_system(blocks):
    """A = P J P⁻¹ as text for the Jordan blocks (re, im, size), and each
    block's eigenvalue text and chains: the rows of P⁻¹ and the columns of P,
    leading vector first."""
    n = sum(s for _, _, s in blocks)
    P, Pinv = basis(n)
    Jre = [[F(0)] * n for _ in range(n)]
    Jim = [[F(0)] * n for _ in range(n)]
    chains, off = [], 0
    for re, im, s in blocks:
        for i in range(off, off + s):
            Jre[i][i], Jim[i][i] = F(re), F(im)
            if i + 1 < off + s:
                Jre[i][i + 1] = F(1)
        right = [[P[r][off + i] for r in range(n)] for i in range(s)]
        chains.append((text(re, im), Pinv[off : off + s][::-1], right))
        off += s
    Are, Aim = mul(mul(P, Jre), Pinv), mul(mul(P, Jim), Pinv)
    return [[text(x, y) for x, y in zip(r, i)] for r, i in zip(Are, Aim)], chains


def segre_job(new, k, segre, **extra):
    return {"target_eigenvalue": "1", "new_eigenvalue": new, "k": k, "segre": segre, **extra}


def explicit_job():
    """A = P J_3(2) P⁻¹ with its genuine chains."""
    A, [(_, left, right)] = jordan_system([(2, 0, 3)])
    chains = {"left": texts(left), "right": texts(right)}
    return {"target_eigenvalue": "2", "new_eigenvalue": "-1/2", "k": 1, "matrix": A, "chains": chains}


SHIFT_JOBS = {
    "n64": (segre_job("-5", 4, [["1", 8]] + [[str(v), 2] for v in range(3, 31)]), ALL_PASS,
            "ade234f5235ec05eca2b4e2d76f334ba0c0f2b669c521eb28d1c6be42740341a"),
    "n128": (segre_job("-5", 4, [["1", 8]] + [[str(v), 2] for v in range(3, 63)]), ALL_PASS,
             "7325fc8547254fa309a04bc956b43ff1d5097773d64ef8f0268012f4a72bde07"),
    # several diagonal blocks at one eigenvalue, in the reversal basis
    "derogatory-n16": (segre_job("-3", 3, [["1", 6], ["2", 3], ["2", 2], ["2", 1], ["-1", 2], ["-1", 2]],
                                 change_of_basis=texts([[int(i + j == 15) for j in range(16)] for i in range(16)])),
                       ALL_PASS, "54a30523f4ce7800ea9198967d064569a396e7c09ea767f42028639952cf8e6c"),
    # r_free couples into the trailing columns: prediction not applicable
    "r_free": (segre_job("-5", 2, [["1", 4], ["3", 2]], r_free=[["0", "0"]] * 4 + [["1", "0"], ["0", "0"]]),
               None, "38a0bffeb5ffa02c2751fe3abd5f4a84eadea76ad572c9b271665611391ab484"),
    "explicit-n3": (explicit_job(), None, "cd137570bde5d1fdfeeaa97d1be5971f4b0f5c65f693ca9fe2e4b785cb3683cc"),
    "brauer-m1": (segre_job("3+i", 0, [["-2", 2], ["1", 1], ["5", 1]], change_of_basis=texts(basis(4)[0])),
                  None, "ae9223897e16237c99acfc491d68ae451c95cf91500fecfb35a159b8bd1d3269"),
}


def run_report(tmp_path, cmd, *docs):
    """The exit code, the verdicts and the report's SHA-256 of one CLI run."""
    paths = [tmp_path / f"input{i}.json" for i in range(len(docs))]
    for path, doc in zip(paths, docs):
        path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = cli.main([cmd, *map(str, paths), "-o", str(out)])
    report = out.read_bytes()
    return code, json.loads(report)["verdicts"], hashlib.sha256(report).hexdigest()


@pytest.mark.parametrize("job, verdicts, digest", SHIFT_JOBS.values(), ids=SHIFT_JOBS)
def test_shift_report(tmp_path, job, verdicts, digest):
    code, got, sha = run_report(tmp_path, "shift", job)
    assert code == 0
    assert verdicts is None or got == verdicts
    assert sha == digest


# The oracle's eliminations on each golden shift job once a diagonal block
# is eliminated only at the listed eigenvalues that are roots of its
# characteristic polynomial at least twice: the bounds of the cost guard.
ORACLE_ELIMINATIONS = {"n64": 29, "n128": 61, "derogatory-n16": 5, "r_free": 0, "explicit-n3": 1, "brauer-m1": 1}


@pytest.mark.parametrize("name", SHIFT_JOBS)
def test_oracle_eliminations_do_not_grow(tmp_path, monkeypatch, name):
    """A cost guard without timing noise: the ``_eliminate`` calls made
    inside the oracle on each golden shift job stay within their bound."""
    calls, inside = [], []
    eliminate, oracle_segre = linalg._eliminate, reporting.oracle_segre

    def counting(*args, **kwargs):
        calls.extend(inside)
        return eliminate(*args, **kwargs)

    def oracle(*args):
        inside.append(1)
        try:
            return oracle_segre(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(linalg, "_eliminate", counting)
    monkeypatch.setattr(reporting, "oracle_segre", oracle)
    assert run_report(tmp_path, "shift", SHIFT_JOBS[name][0])[0] == 0
    assert len(calls) <= ORACLE_ELIMINATIONS[name]


@pytest.mark.parametrize("name", [name for name in SHIFT_JOBS if name != "r_free"])
def test_oracle_splits_once_and_takes_one_charpoly_per_block(tmp_path, monkeypatch, name):
    """However many eigenvalues it is given, each oracle call on a golden
    shift job splits its matrix into diagonal blocks once and takes at
    most one characteristic polynomial per block (the r_free job has no
    prediction, so no oracle call)."""
    records, split, berkowitz, oracle_segre = [], linalg._diagonal_blocks, linalg._berkowitz, reporting.oracle_segre
    inside = []  # the record of the oracle call that is running

    def splitting(M):
        groups = split(M)
        for record in inside:
            record["splits"].append(len(groups))
        return groups

    def charpoly(*args):
        for record in inside:
            record["polys"] += 1
        return berkowitz(*args)

    def oracle(*args):
        inside.append({"splits": [], "polys": 0})
        try:
            return oracle_segre(*args)
        finally:
            records.append(inside.pop())

    monkeypatch.setattr(linalg, "_diagonal_blocks", splitting)
    monkeypatch.setattr(linalg, "_berkowitz", charpoly)
    monkeypatch.setattr(reporting, "oracle_segre", oracle)
    assert run_report(tmp_path, "shift", SHIFT_JOBS[name][0])[0] == 0
    assert records
    for record in records:
        assert len(record["splits"]) == 1 and record["polys"] <= record["splits"][0]


def test_verify_report_past_two_singular_points(tmp_path):
    """Chains only for the first three blocks, so 0 and 1 are eigenvalues of A
    that no chain excludes from the resolvent point search."""
    A, chains = jordan_system([(1, 2, 4), (F(-1, 2), 1, 3), (3, 0, 1), (0, 0, 2), (1, 0, 2)])
    doc = {"chains": [{"lambda": lam, "left": texts(left), "right": texts(right)}
                      for lam, left, right in chains[:3]]}
    code, _, sha = run_report(tmp_path, "verify", A, doc)
    assert (code, sha) == (0, "6dd6e8f3e3e2e7b1767e747c51109bb7bbb4213549a18f542c6ff6f24d08fdbd")


def test_failing_verify_report(tmp_path, monkeypatch):
    """A Hankel-pattern violation, a vanishing middle product and a nonzero
    cross table. Genuine chains leave neither the violation nor the cross
    table (both follow from the recurrences), so every recurrence is
    accepted, as the golden failure tests in test_verify_reports.py do."""
    A, chains = jordan_system([(1, 2, 3), (1, 2, 3), (3, 0, 1), (0, 0, 2)])
    (lam, left0, right0), (_, left1, _), (three, left2, right2), _ = chains
    doc = {"chains": [
        # v_j scaled by j: the anti-diagonal reads 3, 2, 1
        {"lambda": lam, "left": texts(left0), "right": texts([[j * x for x in v] for j, v in enumerate(right0, 1)])},
        # the left chain of the other block at 1+2i: u_2* v_2 = 0
        {"lambda": lam, "left": texts(left1), "right": texts(right0)},
        # v_1 of block 0 added to the eigenvector at 3: chain 0 meets it
        {"lambda": three, "left": texts(left2), "right": texts([[x + y for x, y in zip(right2[0], right0[0])]])},
    ]}
    monkeypatch.setattr(reporting, "check_chains", lambda A, chains: [None] * len(chains))
    code, _, sha = run_report(tmp_path, "verify", A, doc)
    assert (code, sha) == (4, "9d2ec6d39bc1d7554d42ef43aa1e5467ec253fa837b4bbd9927e714ffdec0459")


# The SHA-256 of the joined outputs of each workload's counted jobs at seed 1:
# the ``digest`` line of ``perfbench/run.py --seed 1 --trace 1``.
TRACE_DIGESTS = {
    "shift-general": "89b397d83f235ee61f1025ddaac20e1ba6387a893965c6e264fa0ad70243d218",
    "selftest-pool": "53ff5ed75dcc6c8c4cb59c5404e0d0423c591539aef024e493b434b04b634921",
    "verify-complex": "e17ff7de34ebd96360073b42e7c864feceb94c835028606c7b6eb406061bff7c",
}


@pytest.mark.parametrize("workload", TRACE_DIGESTS)
def test_seed_1_trace_digest(monkeypatch, workload):
    """The first ``bench.COUNT_ITEMS`` jobs of the seed-1 pool, run in-process
    through the workload's runner: every gate holds and the outputs hash to
    the pinned digest."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import bench
    import workloads

    pool = workloads.make_pool(workload, 1)
    done = []
    for item in pool[: bench.COUNT_ITEMS[workload]]:
        workloads.runner(workload)(item, lambda took, ok, text: done.append((ok, text)))
    assert all(ok for ok, _ in done)
    assert hashlib.sha256("".join(text for _, text in done).encode()).hexdigest() == TRACE_DIGESTS[workload]
