"""Partial correlations and the conditioning quantities behind the error bound.

One engine computes partial correlations: a Cholesky factorization of the
relevant principal submatrix, batched over many conditioning sets of one
size and memoised per correlation matrix by :class:`PartialCorrelations`,
which the data-driven CI decider reads.  The conditioning functionals
(smallest nonzero partial correlation, smallest submatrix eigenvalue) feed
the closed-form bound on the probability that rank-based structure learning
returns a wrong equivalence class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .correlation import validate_correlation_matrix
from .graph import _bits, node_set

__all__ = [
    "NotPositiveDefiniteError",
    "partial_corr_inverse",
    "partial_corr_batch",
    "PartialCorrelations",
    "min_nonzero_partial_corr",
    "min_submatrix_eigenvalue",
    "BoundInputs",
    "rank_pc_error_bound",
    "inverse_error_bound_holds",
    "normalized_offdiag_bound_holds",
]

ZERO_TOL = 1e-9
_CHUNK = 4096  # rows per kernel call in PartialCorrelations.level_one, which bounds its memory


class NotPositiveDefiniteError(ArithmeticError):
    """A principal submatrix admitted no Cholesky factorization."""

    def __init__(self, indices: tuple[int, ...]):
        self.indices = tuple(indices)
        super().__init__(f"submatrix over indices {self.indices} is not positive definite")


@np.errstate(invalid="ignore")
def partial_corr_batch(mat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """r(a, b | S) for every row S + (a, b) of ``idx``, from one stacked factorization.

    ``mat`` is a validated correlation matrix and ``idx`` a (k, |S| + 2)
    integer array without repeats in a row.  With L the Cholesky factor of a
    row's submatrix, L[-1, -2] / hypot(L[-1, -2], L[-1, -1]) is its partial
    correlation.  One call to the gufunc behind ``np.linalg.cholesky``, with
    the invalid-value flag it raises on failure ignored, factorizes every
    submatrix on its own: a row whose submatrix is not positive definite comes
    back NaN, and the other rows are unaffected.
    """
    chol = _umath_linalg.cholesky_lo(mat[idx[:, :, None], idx[:, None, :]])
    x, y = chol[:, -1, -2], chol[:, -1, -1]
    return x / np.hypot(x, y)


class PartialCorrelations:
    """Memoised r(a, b | S) over one correlation matrix, validated once.

    Deciders at different significance levels ask largely the same queries,
    so sharing one instance between them computes each partial correlation
    once.  Every r(a, b | {}) is computed up front in one batch, since skeleton
    search asks them all; ``marginal[a][b]`` holds it for both orders of the
    pair, as nested lists, and ``has_nonpd_marginal`` says whether any of them
    is NaN.  The memo of r(a, b | S), a < b and |S| >= 2 in skeleton search,
    is read by ``batch`` and written by ``_compute``, which runs the kernel
    once over every set its caller found missing: ``batch`` on a miss, and
    ``fill_block`` ahead of a node's block of skeleton-search queries.  A NaN
    value marks a submatrix that is not positive definite.  Level 1 of
    skeleton search reads a separate table of |r(a, b | c)|, one row of p
    floats per pair, which ``level_one`` alone writes.
    """

    def __init__(self, sigma):
        self.sigma = validate_correlation_matrix(sigma)
        p = self.sigma.shape[0]
        upper = np.triu_indices(p, 1)
        r = partial_corr_batch(self.sigma, np.stack(upper, axis=1))
        marginal = np.full((p, p), math.nan)
        marginal[upper] = marginal.T[upper] = r
        self.marginal: list[list[float]] = marginal.tolist()
        self.has_nonpd_marginal = bool(np.isnan(r).any())
        self._memo: dict[tuple[int, int], dict[tuple[int, ...], float]] = {}
        self._filled: set[tuple[int, int]] = set()  # (node, level) blocks already filled
        self._level1: dict[tuple[int, int], list[int]] = {}  # (a, b) -> [row, computed c, non-PD c]
        self._table = np.empty((0, p))  # the rows of |r(a, b | c)|

    def batch(self, a: int, b: int, conds: Sequence[tuple[int, ...]]) -> list[float]:
        """r(a, b | S) for each S in ``conds``; needs a < b, each S sorted, all of one size."""
        if not conds[0]:
            return [self.marginal[a][b]] * len(conds)
        known = self._memo.setdefault((a, b), {})
        try:
            return [known[c] for c in conds]
        except KeyError:
            self._compute([(a, b, [c for c in conds if c not in known])])
            return [known[c] for c in conds]

    def fill_block(self, u: int, adj: Sequence[int], level: int) -> None:
        """One kernel call for each missing r(u, w | S), w > u in sorted ``adj``, S in adj - {w}.

        |S| = ``level``: these are the direction-u queries of u's block in
        skeleton search.  Each (u, level) is filled once per instance;
        ``batch`` computes what a later fit on the matrix misses.
        """
        if (u, level) in self._filled:
            return
        self._filled.add((u, level))
        asked = []
        for w in adj:
            if w > u:
                known = self._memo.setdefault((u, w), {})
                subsets = combinations([x for x in adj if x != w], level)
                asked.append((u, w, [c for c in subsets if c not in known]))
        if any(missing for _, _, missing in asked):
            self._compute(asked)

    def level_one(self, adj: Sequence[int]) -> tuple[np.ndarray, list[int]]:
        """|r(a, b | c)| at [i, c] for the i-th edge (a, b), a < b, in lexicographic order of the graph
        with neighbour bitmasks ``adj``, and per edge the bitmask of the c whose submatrix is not PD.

        Computes, in kernel calls of at most ``_CHUNK`` rows, each r(a, b | c), c adjacent to a or b,
        that no earlier call did; an entry not computed, or not PD, is NaN.
        """
        p = self.sigma.shape[0]
        pairs = [(a, b) for a in range(p) for b in _bits(adj[a]) if a < b]
        known = [self._level1.setdefault(pair, [len(self._level1), 0, 0]) for pair in pairs]
        need = [(adj[a] | adj[b]) & ~(1 << a | 1 << b | k[1]) for (a, b), k in zip(pairs, known)]
        rows = np.array([k[0] for k in known], np.intp)
        grow = len(self._level1) - len(self._table)  # rows for the pairs new here
        if grow:
            self._table = np.vstack([self._table, np.full((grow, p), np.nan)])
        if any(need):
            width = (p + 7) // 8
            packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in need), np.uint8)
            i, c = np.nonzero(np.unpackbits(packed.reshape(-1, width), 1, p, bitorder="little"))
            ab = np.array(pairs, np.intp)
            for lo in range(0, len(i), _CHUNK):
                ii, cc = i[lo : lo + _CHUNK], c[lo : lo + _CHUNK]
                r = partial_corr_batch(self.sigma, np.stack([cc, ab[ii, 0], ab[ii, 1]], axis=1))
                self._table[rows[ii], cc] = np.abs(r)
                for j in np.flatnonzero(np.isnan(r)).tolist():
                    known[ii[j]][2] |= 1 << int(cc[j])
            for k, m in zip(known, need):
                k[1] |= m
        return self._table[rows], [k[2] for k in known]

    def _compute(self, asked: list[tuple[int, int, list[tuple[int, ...]]]]) -> None:
        """Run the kernel once over every (a, b, missing sets), all sets of one size, and memoise."""
        rows = [c + (a, b) for a, b, missing in asked for c in missing]
        idx = np.fromiter(chain.from_iterable(rows), np.intp, len(rows) * len(rows[0]))
        values = iter(partial_corr_batch(self.sigma, idx.reshape(len(rows), -1)).tolist())
        for a, b, missing in asked:
            self._memo[a, b].update(zip(missing, values))  # zip stops at the end of missing


def _checked_query(p: int, u: int, v: int, s: Iterable[int]) -> tuple[int, int, tuple[int, ...]]:
    """(a, b, S), a < b, S sorted; ``ValueError`` unless u, v and S are distinct nodes below p."""
    a, b = node_set((u, v), p)
    cond = node_set(s, p)
    if a in cond or b in cond:
        raise ValueError("u and v must not belong to the conditioning set")
    return a, b, cond


def partial_corr_inverse(sigma, u: int, v: int, s: Iterable[int] = ()) -> float:
    """Partial correlation from the Cholesky factor of the (S, u, v) principal submatrix.

    Raises :class:`NotPositiveDefiniteError` (carrying the index set) when the
    submatrix has no Cholesky factorization; no regularization is applied.
    """
    mat = validate_correlation_matrix(sigma)
    a, b, cond = _checked_query(mat.shape[0], u, v, s)
    r = float(partial_corr_batch(mat, np.array([cond + (a, b)]))[0])
    if math.isnan(r):
        raise NotPositiveDefiniteError((a, b) + cond)
    return r


def min_nonzero_partial_corr(sigma, q: int | None = None):
    """Smallest nonzero |partial correlation| over conditioning sets.

    With ``q`` given, restricts to |S| <= q - 2, which equals the minimum of
    the unrestricted functional over all q x q principal submatrices.  Values
    at or below ``ZERO_TOL`` in absolute value count as zero.  Returns None
    when every partial correlation vanishes (e.g. the identity matrix).
    Exhaustive enumeration: intended for small p.
    """
    mat = validate_correlation_matrix(sigma)
    p = mat.shape[0]
    if p < 2:
        raise ValueError(f"need at least 2 variables, got p={p}")
    if q is None:
        q = p
    if not 2 <= q <= p:
        raise ValueError(f"q must be in 2..{p}, got {q}")
    best = None
    for u in range(p):
        for v in range(u + 1, p):
            others = [w for w in range(p) if w != u and w != v]
            for size in range(0, q - 1):
                conds = list(combinations(others, size))
                vals = np.abs(partial_corr_batch(mat, np.array([c + (u, v) for c in conds])))
                bad = np.flatnonzero(np.isnan(vals))
                if bad.size:
                    raise NotPositiveDefiniteError((u, v) + conds[bad[0]])
                nonzero = vals[vals > ZERO_TOL]
                if nonzero.size and (best is None or nonzero.min() < best):
                    best = float(nonzero.min())
    return best


def min_submatrix_eigenvalue(sigma, q: int) -> float:
    """Smallest eigenvalue over all q x q principal submatrices."""
    mat = validate_correlation_matrix(sigma)
    p = mat.shape[0]
    if not 1 <= q <= p:
        raise ValueError(f"q must be in 1..{p}, got {q}")
    best = math.inf
    for idx in combinations(range(p), q):
        vals = np.linalg.eigvalsh(mat[np.ix_(idx, idx)])
        best = min(best, float(vals[0]))
    return best


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the structure-learning error bound.

    a, b: tail-bound constants of the correlation estimator (A * exp(-B n eps^2));
    p, n: variable count and sample size; q: one more than the reach of the
    conditioning sets (max degree plus 2); c: smallest relevant nonzero
    partial correlation; lam: smallest relevant submatrix eigenvalue.
    """

    a: float
    b: float
    p: int
    n: int
    q: int
    c: float
    lam: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError(f"constants must be positive, got a={self.a}, b={self.b}")
        if self.p < 1:
            raise ValueError(f"p must be positive, got {self.p}")
        if self.q < 2:
            raise ValueError(f"q must be at least 2, got {self.q}")
        if self.n <= self.q:
            raise ValueError(f"need n > q, got n={self.n}, q={self.q}")
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"c must lie in [0, 1], got {self.c}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")


def rank_pc_error_bound(inputs: BoundInputs) -> float:
    """Upper bound on the probability of learning a wrong equivalence class.

    Evaluates (a/2) p^2 exp(-b lam^4 n c^2 / (36 q^2)).  Decreasing in n, c,
    lam; increasing in p and q; equals (a/2) p^2 when c or lam is 0.
    """
    expo = (
        -inputs.b
        * inputs.lam**4
        * inputs.n
        * inputs.c**2
        / (36.0 * inputs.q**2)
    )
    return (inputs.a / 2.0) * inputs.p**2 * math.exp(expo)


def _check_square(name: str, m) -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def inverse_error_bound_holds(sigma, err, eps: float) -> bool:
    """Does the inversion perturbation bound hold for this instance?

    Requires max|err| < eps < lam_min(sigma) / q.  Checks

        max|inv(sigma + err) - inv(sigma)| <= (q eps / lam^2) / (1 - q eps / lam)

    where lam is the smallest eigenvalue of sigma and q its dimension.
    """
    mat = _check_square("sigma", sigma)
    e = _check_square("err", err)
    if e.shape != mat.shape:
        raise ValueError(f"shape mismatch: {mat.shape} vs {e.shape}")
    if not np.allclose(mat, mat.T, atol=1e-10, rtol=0.0):
        raise ValueError("sigma must be symmetric")
    q = mat.shape[0]
    lam = float(np.linalg.eigvalsh(mat)[0])
    if lam <= 0.0:
        raise ValueError("sigma must be positive definite")
    err_norm = float(np.abs(e).max())
    if not err_norm < eps < lam / q:
        raise ValueError(
            f"need max|err| < eps < lam/q, got {err_norm} vs {eps} vs {lam / q}"
        )
    lhs = float(np.abs(np.linalg.inv(mat + e) - np.linalg.inv(mat)).max())
    ratio = q * eps / lam
    rhs = (ratio / lam) / (1.0 - ratio)
    return lhs <= rhs


def normalized_offdiag_bound_holds(a, b, delta: float) -> bool:
    """Stability of the normalized off-diagonal of a perturbed 2x2 matrix.

    For symmetric 2x2 matrices with a positive definite, both diagonal
    entries of a at least 1, and max|a - b| < delta < 1, checks

        |a01/sqrt(a00 a11) - b01/sqrt(b00 b11)| < 2 delta / (1 - delta).
    """
    am = _check_square("a", a)
    bm = _check_square("b", b)
    if am.shape != (2, 2) or bm.shape != (2, 2):
        raise ValueError("both matrices must be 2x2")
    if am[0, 1] != am[1, 0] or bm[0, 1] != bm[1, 0]:
        raise ValueError("both matrices must be symmetric")
    if not (am[0, 0] >= 1.0 and am[1, 1] >= 1.0):
        raise ValueError("diagonal entries of a must be at least 1")
    if np.linalg.eigvalsh(am)[0] <= 0.0:
        raise ValueError("a must be positive definite")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if float(np.abs(am - bm).max()) >= delta:
        raise ValueError("need max|a - b| < delta")
    if bm[0, 0] <= 0.0 or bm[1, 1] <= 0.0:
        raise ValueError("diagonal entries of b must be positive")
    lhs = abs(
        am[0, 1] / math.sqrt(am[0, 0] * am[1, 1])
        - bm[0, 1] / math.sqrt(bm[0, 0] * bm[1, 1])
    )
    return lhs < 2.0 * delta / (1.0 - delta)
