"""Conditional-independence deciders for constraint-based structure learning.

A decider answers "is X_u independent of X_v given X_S?".  The data-driven
decider reads the partial correlations of one correlation matrix
estimate; the oracle decider reads d-separation off a known DAG.  The
data-driven decider has one decision rule, independent when |partial
correlation| <= gamma.  The 'threshold' variant fixes gamma; the 'fisher_z'
variant takes the cutoff from :func:`gamma_threshold`, which makes the rule
equal to the z-transform test at level alpha.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from ._normal import ndtri
from .correlation import METHODS
from .graph import Dag, _bits, _count, _pairs, d_separated
from .partial import NotPositiveDefiniteError, PartialCorrelations, _query

LEVEL_ONE_BLOCK = 65536  # entries (pairs x nodes) per level-1 block, which bounds its gathered rows to 2 MiB

__all__ = [
    "VARIANTS",
    "TestConfig",
    "CiDecider",
    "RankCiDecider",
    "OracleDecider",
    "gamma_threshold",
]

VARIANTS = ("threshold", "fisher_z")
# (a, b, cand) -> (subsets asked, separator or None): one level of skeleton search, per direction
Finder = Callable[[int, int, int], tuple[int, tuple | None]]


@dataclass(frozen=True)
class TestConfig:
    """Which decision rule to run and its parameters.

    variant 'threshold' uses ``gamma``; variant 'fisher_z' uses ``alpha``.
    ``method`` is a validated label naming the correlation estimator; the
    decider ignores it and uses whatever matrix it is handed.
    """

    __test__ = False  # not a test case despite the name

    variant: str
    method: str = "spearman"
    gamma: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.variant == "threshold":
            if self.gamma is None or not 0.0 <= self.gamma <= 1.0:
                raise ValueError(f"threshold variant needs gamma in [0, 1], got {self.gamma}")
            if self.alpha is not None:
                raise ValueError("alpha is meaningless for the threshold variant")
        else:
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ValueError(f"fisher_z variant needs alpha in (0, 1), got {self.alpha}")
            if 1.0 - self.alpha / 2.0 == 1.0:  # ndtri(1) is inf: no finite cutoff
                raise ValueError(f"fisher_z variant needs alpha above 2**-53 (about 1.1e-16), got {self.alpha}")
            if self.gamma is not None:
                raise ValueError("gamma is meaningless for the fisher_z variant")


def gamma_threshold(n: int, s_size: int, z: float) -> float:
    """Cutoff making the threshold rule match the z-transform rule.

    gamma = (exp(z/sqrt(m)) - 1) / (exp(z/sqrt(m)) + 1) with m = n - s_size - 3;
    z is twice the normal quantile at 1 - alpha/2.
    """
    if s_size < 0:
        raise ValueError(f"conditioning size must be nonnegative, got {s_size}")
    m = n - s_size - 3
    if m < 1:
        raise ValueError(f"need n - s_size - 3 >= 1, got n={n}, s_size={s_size}")
    if z < 0 or not math.isfinite(z):
        raise ValueError(f"z must be finite and nonnegative, got {z}")
    x = z / math.sqrt(m)
    return -math.expm1(-x) / (1.0 + math.exp(-x))


@lru_cache(maxsize=64)
def _fisher_cutoffs(n: int, alpha: float, levels: int) -> tuple[float, ...]:
    """:func:`gamma_threshold` at each size below ``levels``, with z = 2 ndtri(1 - alpha/2): level alpha."""
    z = 2.0 * ndtri(1.0 - alpha / 2.0)
    return tuple(gamma_threshold(n, s, z) for s in range(levels))


class CiDecider:
    """Base conditional-independence decider.

    ``decide(u, v, s)`` returns True for independent, False for dependent,
    and must be symmetric in (u, v); it is the one call that asks a single
    query.  Skeleton search asks each level in bulk:
    ``marginally_independent(p)`` answers level 0 for every pair at once,
    and ``separator_finder(adj, level)`` each direction of every level from
    1 up.  ``level_one_masks(pairs)`` may answer level 1 as bitmasks
    instead; it returns None here, which sends level 1 through
    ``separator_finder(adj, 1)``.  Here both ask ``decide`` one set at a
    time, lazily, so a subclass that defines only ``decide`` runs the same
    search; ``RankCiDecider`` answers each level from one table.
    ``max_cond_size`` is the largest usable conditioning-set size (None for
    unbounded); skeleton search will not query beyond it.  Noteworthy events
    are appended to ``warnings``.
    """

    max_cond_size: int | None = None

    def __init__(self):
        self.warnings: list[str] = []

    def decide(self, u: int, v: int, s: tuple[int, ...]) -> bool:
        raise NotImplementedError

    def level_one_masks(self, pairs: Sequence[tuple[int, int]]) -> list[tuple[int, int]] | None:
        """Per pair (a, b), a < b, of ``pairs``, the edges at the start of level 1: the bitmasks
        of the c that separate a and b and of the non-PD c.  None here: skeleton search then asks
        ``separator_finder(adj, 1)``."""
        return None

    def separator_finder(self, adj: Sequence[int], level: int) -> Finder:
        """Level ``level`` >= 1 of skeleton search over the adjacency bitmasks ``adj`` at its start.

        The returned function takes a direction (a, b) and the bitmask ``cand`` of a's candidates,
        inside adj[a] - {b}.  It returns the separator, the first size-``level`` subset of cand in
        lexicographic order that separates a and b (or None), and how many subsets it asked: up to
        and including the separator, or all of them.  Here each subset is one ``decide`` call.
        """

        def find(a: int, b: int, cand: int) -> tuple[int, tuple | None]:
            u, v = min(a, b), max(a, b)
            for i, s in enumerate(combinations(_bits(cand), level), 1):
                if self.decide(u, v, s):
                    return i, s
            return math.comb(cand.bit_count(), level), None

        return find

    def marginally_independent(self, p: int) -> list[bool]:
        """Is u independent of v given nothing, for each pair u < v of p nodes, in lexicographic order?

        Asks ``decide(u, v, ())`` once per pair, and once more for a dependent
        pair: skeleton search asks a pair that stays adjacent from both of its
        sides.
        """
        return [self.decide(u, v, ()) or self.decide(u, v, ()) for u, v in _pairs(p)]


class RankCiDecider(CiDecider):
    """Decider backed by the partial correlations of one correlation matrix.

    ``sigma`` is a correlation matrix or a :class:`PartialCorrelations` over
    one; deciders handed the same instance share the values it computes.
    Both variants decide |r| <= ``cutoffs[|S|]``, a list built once here:
    ``gamma_threshold`` at each level below min(p, n - 3) for fisher_z, the
    fixed gamma at each level below p for threshold; a level past its end
    raises ``ValueError``.  A submatrix that is not positive definite yields
    a 'dependent' answer and a warning rather than an exception, so a run on
    badly conditioned estimates degrades to keeping edges instead of crashing.
    Each level of skeleton search compares a whole table with the level's
    cutoff: ``marginally_independent`` the marginal entries,
    ``level_one_masks`` the tables ``PartialCorrelations.level_one`` computes,
    one block of pairs at a time (``warn_nonpd`` warns for the non-PD c the
    walk passes), and
    ``separator_finder`` at each level >= 2 the table
    ``PartialCorrelations.table`` keeps, walked row by row over each
    direction's sets.  ``decide`` computes its one query in one kernel call.
    """

    def __init__(self, sigma, n: int, config: TestConfig):
        super().__init__()
        self.partials = sigma if isinstance(sigma, PartialCorrelations) else PartialCorrelations(sigma)
        p, n = self.partials.sigma.shape[0], _count(n, "sample size", 1)
        if config.variant == "fisher_z":
            self.max_cond_size = n - 4
            self.cutoffs = list(_fisher_cutoffs(n, config.alpha, min(p, n - 3)))
        else:
            self.max_cond_size = None
            self.cutoffs = [float(config.gamma)] * p

    def _cutoff(self, level: int) -> float:
        try:
            return self.cutoffs[level]
        except IndexError:
            raise ValueError(f"no cutoff for conditioning size {level}") from None

    def _nonpd_warning(self, u: int, v: int, s: tuple[int, ...]) -> str:
        err = NotPositiveDefiniteError(((u, v) if u < v else (v, u)) + s)
        return f"dependent by default for ({u}, {v} | {s}): {err}"

    def marginally_independent(self, p: int) -> list[bool]:
        """One comparison of ``PartialCorrelations.pair_marginal`` with the cutoff; p must be the
        matrix's size.  A NaN pair is warned twice, as a kept pair is asked from both sides."""
        partials = self.partials
        if p != len(partials.sigma):
            raise ValueError(f"asked about {p} variables of a {len(partials.sigma)}-variable matrix")
        for i in np.flatnonzero(np.isnan(partials.pair_marginal)).tolist():
            self.warnings += [self._nonpd_warning(*_pairs(p)[i], ())] * 2
        return (partials.pair_marginal <= self._cutoff(0)).tolist()

    def level_one_masks(self, pairs: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
        """``PartialCorrelations.level_one`` over max(1, ``LEVEL_ONE_BLOCK`` // p) pairs at a time, each
        block compared with the level-1 cutoff and packed into its pairs' rows of one preallocated array
        of 64-bit words before the next is computed."""
        gamma, p = self._cutoff(1), len(self.partials.sigma)
        step, nonpd = max(1, LEVEL_ONE_BLOCK // p), []
        words = np.zeros((len(pairs), -(-p // 64)), "<u8")  # whole 64-bit words per pair
        packed = words.view(np.uint8)[:, : -(-p // 8)]
        for lo in range(0, len(pairs), step):
            table, bad = self.partials.level_one(pairs[lo : lo + step])
            packed[lo : lo + len(bad)] = np.packbits(table <= gamma, 1, bitorder="little")
            nonpd += bad
            del table  # freed before the next block is gathered
        words = words.T.tolist()
        seps = words[0]
        for w, word in enumerate(words[1:], 1):
            seps = [s | x << 64 * w for s, x in zip(seps, word)]
        return list(zip(seps, nonpd))

    def warn_nonpd(self, u: int, v: int, bits: int) -> None:
        """Warn for (u, v | c) at each bit c of ``bits``, from the lowest up."""
        self.warnings += [self._nonpd_warning(u, v, (c,)) for c in _bits(bits)]

    def separator_finder(self, adj: Sequence[int], level: int) -> Finder:
        """Reads the rows of the direction in ``PartialCorrelations.table(adj, level)``: the separator
        is the first row at or below the cutoff whose set lies inside ``cand``, and each non-PD row
        of cand before it is warned.  The count asked is the separator's lexicographic rank among
        the size-``level`` subsets of cand, from 1, or all of them.  A row's set becomes a bitmask
        only to be tested against a cand smaller than the table's neighbours, warned or returned."""
        table = self.partials.table(adj, level)
        seps = np.flatnonzero(table.abs_r <= self._cutoff(level)).tolist() + [len(table.abs_r)]
        tadj, start, width, mask, nonpd = table.adj, table.start, table.width, table.mask, table.nonpd

        def find(a: int, b: int, cand: int) -> tuple[int, tuple | None]:
            lo = start[a] + (tadj[a] & ((1 << b) - 1)).bit_count() * width[a]
            hi, out = lo + width[a], (tadj[a] ^ (1 << b)) & ~cand  # the table's neighbours of a outside cand
            i = bisect_left(seps, lo)
            while out and seps[i] < hi and mask(a, seps[i]) & out:
                i += 1
            hit = min(seps[i], hi)
            if nonpd:
                for j in nonpd[bisect_left(nonpd, lo) : bisect_left(nonpd, hit)]:
                    if not mask(a, j) & out:
                        self.warnings.append(self._nonpd_warning(min(a, b), max(a, b), tuple(_bits(mask(a, j)))))
            m = cand.bit_count()
            if hit == hi:
                return math.comb(m, level), None
            sep, asked, prev = _bits(mask(a, hit)), 1, -1
            for j, c in enumerate(sep):  # the subsets that agree with sep below its j-th node, then go lower
                pos = (cand & ((1 << c) - 1)).bit_count()
                asked += math.comb(m - prev - 1, level - j) - math.comb(m - pos, level - j)
                prev = pos
            return asked, tuple(sep)

        return find

    def decide(self, u: int, v: int, s: Iterable[int] = ()) -> bool:
        """|r(u, v | S)| <= the cutoff of level |S|, from the one query row of ``partial._query``.
        The cutoff is looked up first, so a level past the last one raises before the kernel runs.
        A non-PD submatrix is dependent, warned."""
        s = tuple(s)
        gamma = self._cutoff(len(s))
        _, _, cond, r = _query(self.partials.sigma, u, v, s)
        if math.isnan(r):
            self.warnings.append(self._nonpd_warning(int(u), int(v), cond))  # NumPy nodes print as ints
        return abs(r) <= gamma


class OracleDecider(CiDecider):
    """Decider that reads conditional independence off a known DAG."""

    def __init__(self, dag: Dag):
        super().__init__()
        self.dag = dag

    def decide(self, u: int, v: int, s: Iterable[int] = ()) -> bool:
        return d_separated(self.dag, u, v, s)
