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
from dataclasses import dataclass
from typing import Iterable, Sequence

from scipy.special import ndtri

from .correlation import METHODS
from .graph import Dag, d_separated
from .partial import NotPositiveDefiniteError, PartialCorrelations

__all__ = [
    "VARIANTS",
    "TestConfig",
    "CiDecider",
    "RankCiDecider",
    "OracleDecider",
    "gamma_threshold",
]

VARIANTS = ("threshold", "fisher_z")


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


class CiDecider:
    """Base conditional-independence decider.

    ``decide(u, v, s)`` returns True for independent, False for dependent,
    and must be symmetric in (u, v).  ``first_independent(u, v, subsets)``
    asks sorted conditioning sets of one size in order and returns the index
    of the first one that separates u and v, or None; skeleton search calls
    it once per pair, direction and level >= 1, and a subclass may answer it
    in one batch.  ``marginally_independent(pairs)`` answers level 0 for
    every pair at once.
    ``max_cond_size`` is the largest usable conditioning-set size (None for
    unbounded); skeleton search will not query beyond it.  Noteworthy events
    are appended to ``warnings``.
    """

    max_cond_size: int | None = None

    def __init__(self):
        self.warnings: list[str] = []

    def decide(self, u: int, v: int, s: tuple[int, ...]) -> bool:
        raise NotImplementedError

    def first_independent(self, u: int, v: int, subsets: Sequence[tuple[int, ...]]) -> int | None:
        for i, s in enumerate(subsets):
            if self.decide(u, v, s):
                return i
        return None

    def marginally_independent(self, pairs: Sequence[tuple[int, int]]) -> list[bool]:
        """Is u independent of v given nothing, for each pair (u, v) with u < v?

        Asks ``first_independent(u, v, [()])`` once per pair, and once more
        for a dependent pair: skeleton search asks a pair that stays adjacent
        from both of its sides.
        """
        return [
            self.first_independent(u, v, [()]) is not None
            or self.first_independent(u, v, [()]) is not None
            for u, v in pairs
        ]


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
    """

    def __init__(self, sigma, n: int, config: TestConfig):
        super().__init__()
        self.partials = sigma if isinstance(sigma, PartialCorrelations) else PartialCorrelations(sigma)
        p, n = self.partials.sigma.shape[0], int(n)
        if config.variant == "fisher_z":
            self.max_cond_size = n - 4
            z = 2.0 * float(ndtri(1.0 - config.alpha / 2.0))
            self.cutoffs = [gamma_threshold(n, s, z) for s in range(min(p, n - 3))]
        else:
            self.max_cond_size = None
            self.cutoffs = [config.gamma] * p

    def _cutoff(self, level: int) -> float:
        try:
            return self.cutoffs[level]
        except IndexError:
            raise ValueError(f"no cutoff for conditioning size {level}") from None

    def _nonpd_warning(self, u: int, v: int, s: tuple[int, ...]) -> str:
        err = NotPositiveDefiniteError(((u, v) if u < v else (v, u)) + s)
        return f"dependent by default for ({u}, {v} | {s}): {err}"

    def first_independent(self, u: int, v: int, subsets: Sequence[tuple[int, ...]]) -> int | None:
        if not subsets:
            return None
        a, b = (u, v) if u < v else (v, u)
        gamma = self._cutoff(len(subsets[0]))
        for i, r in enumerate(self.partials.batch(a, b, subsets)):
            if abs(r) <= gamma:
                return i
            if math.isnan(r):
                self.warnings.append(self._nonpd_warning(u, v, subsets[i]))
        return None

    def marginally_independent(self, pairs: Sequence[tuple[int, int]]) -> list[bool]:
        m = self.partials.marginal
        if self.partials.has_nonpd_marginal:
            for u, v in pairs:
                if math.isnan(m[u][v]):  # asked from both sides, as a kept pair is
                    self.warnings += [self._nonpd_warning(u, v, ())] * 2
        gamma = self._cutoff(0)
        return [abs(m[u][v]) <= gamma for u, v in pairs]

    def decide(self, u: int, v: int, s: Iterable[int] = ()) -> bool:
        return self.first_independent(u, v, [tuple(sorted(s))]) is not None


class OracleDecider(CiDecider):
    """Decider that reads conditional independence off a known DAG."""

    def __init__(self, dag: Dag):
        super().__init__()
        self.dag = dag

    def decide(self, u: int, v: int, s: Iterable[int] = ()) -> bool:
        return d_separated(self.dag, u, v, s)
