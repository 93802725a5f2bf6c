"""Partial correlations and the conditioning quantities behind the error bound.

One engine computes partial correlations: closed forms for conditioning
sets of size 0, 1 and 2 and a Cholesky factorization for larger ones,
batched over many sets of one size.  :class:`PartialCorrelations` holds
them per correlation matrix for the data-driven CI decider: a level-1
table for the pairs it is given, asked for one block of pairs at a time,
and one whole table for each level from 2 up, kept.  The
conditioning functionals (smallest nonzero partial correlation, smallest
submatrix eigenvalue) feed the closed-form bound on the probability that
rank-based structure learning returns a wrong equivalence class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, groupby
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .correlation import _check_square, validate_correlation_matrix
from .graph import _bits, _pairs, node_set

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


class NotPositiveDefiniteError(ArithmeticError):
    """A principal submatrix admitted no Cholesky factorization."""

    def __init__(self, indices: tuple[int, ...]):
        self.indices = tuple(indices)
        super().__init__(f"submatrix over indices {self.indices} is not positive definite")


def _unit_only(r: np.ndarray) -> np.ndarray:
    """``r`` with NaN wherever not |r| < 1."""
    return np.where(np.abs(r) < 1, r, np.nan)


def _eliminate(r_ab: np.ndarray, r_ac: np.ndarray, r_bc: np.ndarray) -> np.ndarray:
    """r(a, b | S + c) from r(a, b | S), r(a, c | S) and r(b, c | S) by the recursive formula:
    (r_ab - r_ac r_bc) / sqrt(da db), da = 1 - r_ac^2, NaN unless da, db > 0 and |r| < 1."""
    da, db = (np.where(np.abs(r) < 1, 1 - r * r, np.nan) for r in (r_ac, r_bc))
    return _unit_only((r_ab - r_ac * r_bc) / np.sqrt(da * db))


def partial_corr_batch(mat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """r(a, b | S) for every row S + (a, b) of ``idx``, NaN where the submatrix is not PD.

    ``mat`` is a validated correlation matrix and ``idx`` a (k, |S| + 2) integer array without
    repeats in a row; entries are read from the lower triangle of each row's submatrix.  As in
    pcalg, r(a, b | {}) is the entry and r(a, b | c) = (r_ab - r_ac r_bc) / sqrt(da db), with
    da = 1 - r_ac^2, in the recursive formula's arithmetic: PD exactly when da, db > 0 and |r| < 1.
    r(a, b | c, d) applies that step to r(a, b | d), r(a, c | d) and r(b, c | d), eliminating c
    last as the recursion does for c < d: PD exactly when each of the four steps is.  The closed
    forms assume the unit diagonal and symmetry that validation enforces only up to its tolerance,
    so on an inexact matrix they can differ from a factorization by about that.  Larger sets give
    L[-1, -2] / hypot(L[-1, -2], L[-1, -1]), L the Cholesky factor of the row's submatrix, from
    one gufunc call: a row that admits no factorization alone comes back NaN.
    """
    if idx.shape[1] == 2:
        return _unit_only(mat[idx[:, 1], idx[:, 0]])
    if idx.shape[1] == 3:
        c, a, b = idx.T
        return _eliminate(mat[b, a], mat[a, c], mat[b, c])
    if idx.shape[1] == 4:
        c, d, a, b = idx.T
        r_ad, r_bd, r_cd = mat[a, d], mat[b, d], mat[d, c]
        r_ab = _eliminate(mat[b, a], r_ad, r_bd)  # all given d
        r_ac, r_bc = _eliminate(mat[a, c], r_ad, r_cd), _eliminate(mat[b, c], r_bd, r_cd)
        return _eliminate(r_ab, r_ac, r_bc)
    with np.errstate(invalid="ignore"):
        chol = _umath_linalg.cholesky_lo(mat[idx[:, :, None], idx[:, None, :]])
    x, y = chol[:, -1, -2], chol[:, -1, -1]
    return x / np.hypot(x, y)


TABLE_CHUNK = 4096  # rows per kernel call of a table build, which bounds its gathered submatrices


class LevelTable(NamedTuple):
    """|r(a, b | S)| for each direction (a, b) of the adjacency bitmasks ``adj`` with a of degree
    above ``level``, and each level-size set S among a's other neighbours.

    Direction (a, b) owns ``width[a]`` = C(deg(a) - 1, level) rows, its sets in lexicographic
    order, from ``start[a]`` plus ``width[a]`` times the number of a's neighbours below b.  Row i
    holds ``abs_r[i]``, NaN where the submatrix is not positive definite (``nonpd`` lists those
    rows in ascending order), and its set is row i - start[a] of ``_level_pattern`` over adj[a].
    """

    adj: list[int]
    level: int
    start: list[int]
    width: list[int]
    abs_r: np.ndarray
    nonpd: list[int]

    def mask(self, a: int, i: int) -> int:
        """The bitmask of row i's set, a row of a's, made from its layout on each call."""
        nbrs = _bits(self.adj[a])
        return sum(1 << nbrs[c] for c in _level_pattern(len(nbrs), self.level)[i - self.start[a]].tolist()[:-1])


@lru_cache(maxsize=32)
def _level_pattern(k: int, level: int) -> np.ndarray:
    """Positions (S + (b,)) in a sorted list of k neighbours: for each b in turn, each size-``level``
    S of the rest in lexicographic order."""
    rest = np.array(list(combinations(range(k - 1), level)), np.intp)
    b = np.arange(k)[:, None, None]
    sets = rest + (rest >= b)  # each position from b up moves one along
    return np.concatenate([sets, np.broadcast_to(b, (k, len(rest), 1))], 2).reshape(-1, level + 1)


class PartialCorrelations:
    """r(a, b | S) over one correlation matrix, validated once.

    Deciders at different significance levels ask largely the same queries,
    so sharing one instance between them computes each partial correlation
    once.  ``pair_marginal`` holds |r(a, b | {})| for the pairs a < b in
    lexicographic order, the kernel's value at |S| = 0: the entry sigma[b, a],
    NaN where |r| >= 1.  ``level_one`` computes the level-1 table of the
    pairs it is given from the rows of sigma and 1 - sigma^2 (the decider
    gives it one block of a fit's pairs at a time), and ``table`` the
    table of a level >= 2, one kept per level for later fits.  A single
    query is one ``partial_corr_batch`` call on its row.  NaN marks a
    submatrix that is not positive definite.
    """

    def __init__(self, sigma):
        self.sigma = validate_correlation_matrix(sigma)
        p = self.sigma.shape[0]
        a, b = np.triu_indices(p, 1)
        self.pair_marginal = np.abs(_unit_only(self.sigma[b, a]))
        gap = np.where(np.abs(self.sigma) < 1, 1 - self.sigma * self.sigma, np.nan)
        np.fill_diagonal(gap, np.nan)  # c = a is never a conditioning node of (a, b)
        self._rows = np.stack([self.sigma, gap])  # the rows level_one gathers
        self._tables: dict[int, LevelTable] = {}

    def level_one(self, pairs: Sequence[tuple[int, int]]) -> tuple[np.ndarray, list[int]]:
        """|r(a, b | c)| at [i, c] for the i-th pair (a, b), a < b, of ``pairs`` and every node c, bitwise
        ``partial_corr_batch`` on (c, a, b) and NaN at c = a and c = b; per pair, the bitmask of the
        other NaN c.  One closed-form step over the gathered rows of a and b; the masks take a pass
        over the rows only when some pair has more than those two NaN."""
        p, k = self.sigma.shape[0], len(pairs)
        ab = np.fromiter(chain.from_iterable(pairs), np.intp, 2 * k).reshape(k, 2)
        (r_ac, r_bc), (da, db) = np.take(self._rows, ab.T, axis=1)  # each a contiguous (k, p) block
        table = np.multiply(r_ac, r_bc, out=r_ac)
        np.subtract(self.sigma[ab[:, 1], ab[:, 0], None], table, out=table)
        np.divide(table, np.sqrt(np.multiply(da, db, out=da), out=da), out=table)
        np.abs(table, out=table)
        ok = table < 1
        nonpd = [0] * k
        if np.count_nonzero(ok) < k * (p - 2):
            table[~ok] = np.nan
            for i in np.flatnonzero(np.count_nonzero(ok, axis=1) < p - 2).tolist():
                nonpd[i] = sum(1 << c for c in np.flatnonzero(~ok[i]).tolist() if c not in pairs[i])
        return table, nonpd

    def table(self, adj: Sequence[int], level: int) -> LevelTable:
        """The table of level ``level`` >= 2 over the adjacency bitmasks ``adj``.  The one kept for
        the level serves while each adj[a] lies inside its own, since a walk asks no set outside a's
        current neighbours; else a new one is computed.  Its kernel index is written per degree, run
        through ``partial_corr_batch`` in calls of at most ``TABLE_CHUNK`` rows, and dropped."""
        old = self._tables.get(level)
        if old is not None and all(x & ~y == 0 for x, y in zip(adj, old.adj)):
            return old
        deg = [m.bit_count() for m in adj]
        start, width = [0] * len(adj), [math.comb(k - 1, level) if k > level else 0 for k in deg]
        idx, rows = np.empty((sum(k * w for k, w in zip(deg, width)), level + 2), np.intp), 0
        for k, group in groupby(sorted((k, a) for a, k in enumerate(deg) if k > level), lambda ka: ka[0]):
            nodes = [a for _, a in group]  # the nodes of degree k, ascending
            pattern = _level_pattern(k, level)
            for a in nodes:
                start[a], rows = rows, rows + len(pattern)
            block = idx[start[nodes[0]] : rows].reshape(len(nodes), len(pattern), level + 2)
            block[:, :, :-1] = np.array([_bits(adj[a]) for a in nodes])[:, pattern]  # (node, row, S + (b,))
            a, b = np.array(nodes)[:, None], block[:, :, -2]
            np.maximum(a, b, out=block[:, :, -1])
            np.minimum(a, b, out=b)  # the rows (S, min(a, b), max(a, b))
        abs_r = np.empty(rows)
        for i in range(0, rows, TABLE_CHUNK):
            abs_r[i : i + TABLE_CHUNK] = np.abs(partial_corr_batch(self.sigma, idx[i : i + TABLE_CHUNK]))
        nonpd = np.flatnonzero(np.isnan(abs_r)).tolist()
        self._tables[level] = LevelTable(list(adj), level, start, width, abs_r, nonpd)
        return self._tables[level]


def _query(mat: np.ndarray, u: int, v: int, s: Iterable[int]) -> tuple[int, int, tuple[int, ...], float]:
    """(a, b, S, r(a, b | S)), a < b, S sorted, r NaN where the submatrix is not PD: one
    ``partial_corr_batch`` call on the row S + (a, b) of the validated matrix ``mat``.
    ``ValueError`` unless u, v and S are distinct nodes of ``mat``."""
    a, b = node_set((u, v), mat.shape[0])
    cond = node_set(s, mat.shape[0])
    if a in cond or b in cond:
        raise ValueError("u and v must not belong to the conditioning set")
    return a, b, cond, float(partial_corr_batch(mat, np.array([cond + (a, b)]))[0])


def partial_corr_inverse(sigma, u: int, v: int, s: Iterable[int] = ()) -> float:
    """r(u, v | S) from ``partial_corr_batch``: the entry, a closed form for |S| <= 2, or Cholesky.

    Raises :class:`NotPositiveDefiniteError`, carrying the index set, when the
    (S, u, v) submatrix is not positive definite; no regularization is applied.
    """
    a, b, cond, r = _query(validate_correlation_matrix(sigma), u, v, s)
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
    for u, v in _pairs(p):
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
        if not (self.a > 0 and self.b > 0):
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
    if bm[0, 0] <= 0.0 or bm[1, 1] <= 0.0:  # checked before delta, which alone would rule it out
        raise ValueError("diagonal entries of b must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if float(np.abs(am - bm).max()) >= delta:
        raise ValueError("need max|a - b| < delta")
    lhs = abs(
        am[0, 1] / math.sqrt(am[0, 0] * am[1, 1])
        - bm[0, 1] / math.sqrt(bm[0, 0] * bm[1, 1])
    )
    return lhs < 2.0 * delta / (1.0 - delta)
