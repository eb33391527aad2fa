"""Independent ground truth for Jordan structure via exact rank sequences.

The Weyr characteristic (nullity increments of powers of M - lam I) is
the conjugate partition of the block sizes at lam.  One ``power_ranks``
call takes the ranks at every listed eigenvalue: it splits M into the
diagonal blocks of its zero pattern off the diagonal, which every
M - lam I shares, takes each block's characteristic polynomial once,
and eliminates a block at lam only when lam is a root of it, each power's
row space spanned by the previous power's pivot rows times the block of
M - lam I, until the root's multiplicity forces the rest.
The oracle reads its matrix and the eigenvalue list alone.
Nothing here depends on the closed-form classifiers; this module is
what they are verified against; every cycle, theirs and its own, is
read down from its top (``read_down``) and checked (``verify_cycles``).
"""

from __future__ import annotations

from .errors import ClassificationError, MissingEigenvalueError, ShapeError
from .linalg import Matrix, _as_scalar, power_ranks
from .scalars import _Value
from .synthesis import SegreCharacteristic, _first_failure


class WeyrProfile(_Value):
    __slots__ = ("lam", "null_dims")  # dim ker (M - lam I)^j, j = 1.. until stable

    def __init__(self, lam, null_dims):
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "null_dims", null_dims)

    @property
    def increments(self) -> tuple:
        prev = 0
        out = []
        for d in self.null_dims:
            out.append(d - prev)
            prev = d
        return tuple(out)

    def block_sizes(self) -> tuple:
        """Jordan block sizes at lam: conjugate partition of the increments."""
        inc = self.increments
        if not inc:
            return ()
        # one block per kernel vector at level 1; block t has size
        # equal to the number of levels still holding >= t new vectors
        return tuple(
            sum(1 for w in inc if w >= t) for t in range(1, inc[0] + 1)
        )


def weyr_profile(M: Matrix, lam) -> WeyrProfile:
    """Exact nullity sequence of (M - lam I)^j, stopping when stable:
    the one-eigenvalue call of the ranks that ``oracle_segre`` reads."""
    lam = _as_scalar(lam)
    (ranks,) = power_ranks(M, [lam])
    return _profile(M.rows, lam, ranks)


def _profile(n, lam, ranks) -> WeyrProfile:
    """The profile at lam of an n x n matrix from the ranks of the powers
    of its shift, read until one repeats; ClassificationError unless the
    increments are non-increasing."""
    null_dims = [0]
    for rank in ranks:
        if n - rank == null_dims[-1]:
            break
        null_dims.append(n - rank)
    prof = WeyrProfile(lam, tuple(null_dims[1:]))
    inc = prof.increments
    if any(inc[i] < inc[i + 1] for i in range(len(inc) - 1)):
        raise ClassificationError(
            f"Weyr increments {inc} at {lam} are not non-increasing"
        )
    return prof


def oracle_segre(M: Matrix, eigenvalues) -> SegreCharacteristic:
    """Full Segre characteristic from a covering eigenvalue list.

    One ``power_ranks`` call takes the ranks at every eigenvalue: M is
    split into its diagonal blocks once, each block's characteristic
    polynomial says which listed eigenvalues it holds and how often, and
    only those (block, eigenvalue) pairs are eliminated.  A list that
    misses an eigenvalue of M raises MissingEigenvalueError.
    """
    n = M.rows
    lams = list(dict.fromkeys(map(_as_scalar, eigenvalues)))
    blocks = [
        (lam, size)
        for lam, ranks in zip(lams, power_ranks(M, lams))
        for size in _profile(n, lam, ranks).block_sizes()
    ]
    total = sum(size for _, size in blocks)
    if total != n:
        raise MissingEigenvalueError(
            f"supplied eigenvalues cover {total} of {n} dimensions"
        )
    return SegreCharacteristic(blocks).canonical()


def jordan_cycles(M: Matrix, lam):
    """Exact cycles of generalized eigenvectors of M at lam.

    Returns a list of cycles, each listed eigenvector-first:
    (M - lam I) c[0] = 0 and (M - lam I) c[i] = c[i-1].  The union of
    all cycles is a basis of the generalized eigenspace.  Standard
    construction: walk the kernel filtration top-down, completing each
    level with fresh chain tops, then read each top down to its cycle.
    """
    lam = _as_scalar(lam)
    n = M.rows
    N = M.minus_identity(lam)
    kernels = []  # basis of ker N^j for j = 1..s
    power = N
    prev_dim = 0
    while True:
        basis = power.null_space_basis()
        if len(basis) == prev_dim:
            break
        kernels.append(basis)
        prev_dim = len(basis)
        if prev_dim == n:
            break
        power = power @ N

    def rank_of(vectors):
        if not vectors:
            return 0
        return Matrix.from_columns(vectors).exact_rank()

    tops = []  # (top, size), tallest first
    carry = []  # images at the current level of taller chains' tops
    for j in range(len(kernels), 0, -1):
        lower = kernels[j - 2] if j >= 2 else []
        context = list(lower) + carry
        base_rank = rank_of(context)
        w_j = len(kernels[j - 1]) - len(lower)
        w_next = len(kernels[j]) - len(kernels[j - 1]) if j < len(kernels) else 0
        needed = w_j - w_next
        picked = []
        for cand in kernels[j - 1]:
            if len(picked) == needed:
                break
            trial = context + picked + [cand]
            if rank_of(trial) > base_rank + len(picked):
                picked.append(cand)
        if len(picked) != needed:
            raise ClassificationError(
                f"kernel filtration walk at level {j} found {len(picked)} "
                f"of {needed} chain tops"
            )
        tops += [(top, j) for top in picked]
        carry = [N @ v for v in carry] + [N @ v for v in picked]
    return read_down(N, tops)


def read_down(N: Matrix, tops) -> list:
    """Each top t of size s, for (t, s) in tops, read down to the cycle
    [N^{s-1} t, ..., N t, t], eigenvector first; a top of size 0 names
    no cycle."""
    cycles = []
    for top, size in tops:
        cycle = [top]
        while len(cycle) < size:
            cycle.append(N @ cycle[-1])
        if size:
            cycles.append(cycle[::-1])
    return cycles


def verify_cycles(M: Matrix, lam, cycles) -> bool:
    """Chain recurrences hold, one product with M - lam I per cycle
    (``synthesis._first_failure``), and the stacked cycles have full
    rank; an empty set is refused, and a misfit vector raises ShapeError."""
    cycles = list(cycles)
    flat = [v for c in cycles for v in c]
    if not flat:
        return False
    if not M.is_square or any(v.dim != M.cols for v in flat):
        raise ShapeError(f"cycles do not fit a {M.rows}x{M.cols} matrix")
    N = M.minus_identity(lam)
    return not any(_first_failure(N, c) for c in cycles) and (
        Matrix.from_columns(flat).exact_rank() == len(flat)
    )
