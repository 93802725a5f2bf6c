"""Conditional-independence deciders for constraint-based structure learning.

A decider answers "is X_u independent of X_v given X_S?".  The data-driven
decider reads memoised partial correlations of one correlation matrix
estimate; the oracle decider reads d-separation off a known DAG.  Two
exchangeable decision rules are provided: a fixed cutoff on |partial
correlation| and the z-transform test, which are equivalent for a cutoff
computed by :func:`gamma_threshold`; the data-driven decider runs both as a
cutoff.
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
    "TestConfig",
    "CiDecider",
    "RankCiDecider",
    "OracleDecider",
    "threshold_decide",
    "fisher_z_decide",
    "gamma_threshold",
    "inverse_normal_cdf",
]

VARIANTS = ("threshold", "fisher_z", "oracle")


@dataclass(frozen=True)
class TestConfig:
    """Which decision rule to run and its parameters.

    variant 'threshold' uses ``gamma``; variant 'fisher_z' uses ``alpha``;
    variant 'oracle' needs neither.  ``method`` picks the correlation
    estimator feeding the data-driven decider.
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
        elif self.variant == "fisher_z":
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ValueError(f"fisher_z variant needs alpha in (0, 1), got {self.alpha}")
            if self.gamma is not None:
                raise ValueError("gamma is meaningless for the fisher_z variant")
        else:
            if self.gamma is not None or self.alpha is not None:
                raise ValueError("oracle variant takes no gamma or alpha")


def threshold_decide(rho_hat: float, gamma: float) -> bool:
    """Independent exactly when |rho_hat| <= gamma (boundary counts as independent)."""
    if not math.isfinite(rho_hat):
        raise ValueError(f"correlation estimate must be finite, got {rho_hat}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    return abs(rho_hat) <= gamma


def inverse_normal_cdf(prob: float) -> float:
    """Quantile of the standard normal distribution."""
    if not 0.0 < prob < 1.0:
        raise ValueError(f"probability must lie strictly in (0, 1), got {prob}")
    return float(ndtri(prob))


def fisher_z_decide(rho_hat: float, n: int, s_size: int, alpha: float) -> bool:
    """z-transform test: independent when the standardized statistic is small.

    Compares sqrt(n - |S| - 3) * |0.5 log((1+r)/(1-r))| against the upper
    alpha/2 normal quantile.  Requires n - s_size - 3 >= 1 and |rho_hat| < 1.
    """
    if not math.isfinite(rho_hat) or abs(rho_hat) >= 1.0:
        raise ValueError(f"need |rho_hat| < 1, got {rho_hat}")
    if s_size < 0:
        raise ValueError(f"conditioning size must be nonnegative, got {s_size}")
    m = n - s_size - 3
    if m < 1:
        raise ValueError(f"need n - s_size - 3 >= 1, got n={n}, s_size={s_size}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    stat = math.sqrt(m) * abs(0.5 * math.log((1.0 + rho_hat) / (1.0 - rho_hat)))
    return stat <= inverse_normal_cdf(1.0 - alpha / 2.0)


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
    it once per pair, direction and level, and a subclass may answer it in
    one batch.
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


class RankCiDecider(CiDecider):
    """Decider backed by the partial correlations of one correlation matrix.

    ``sigma`` is a correlation matrix or a :class:`PartialCorrelations` over
    one; passing the same instance to several deciders shares its memo.  Both
    variants decide |r| <= gamma at each level, with the fisher_z cutoff from
    :func:`gamma_threshold`.  A submatrix that is not positive definite yields
    a 'dependent' answer and a warning rather than an exception, so a run on
    badly conditioned estimates degrades to keeping edges instead of crashing.
    """

    def __init__(self, sigma, n: int, config: TestConfig):
        super().__init__()
        if config.variant == "oracle":
            raise ValueError("oracle variant has no data-driven decider")
        self.partials = sigma if isinstance(sigma, PartialCorrelations) else PartialCorrelations(sigma)
        self.sigma = self.partials.sigma
        self.n = int(n)
        self.config = config
        self._gammas: dict[int, float] = {}
        if config.variant == "fisher_z":
            self.max_cond_size = self.n - 4
            self._z = 2.0 * inverse_normal_cdf(1.0 - config.alpha / 2.0)
        else:
            self.max_cond_size = None

    def _gamma(self, level: int) -> float:
        gamma = self._gammas.get(level)
        if gamma is None:
            if self.config.variant == "threshold":
                gamma = self.config.gamma
            else:
                gamma = gamma_threshold(self.n, level, self._z)
            self._gammas[level] = gamma
        return gamma

    def first_independent(self, u: int, v: int, subsets: Sequence[tuple[int, ...]]) -> int | None:
        if not subsets:
            return None
        a, b = (u, v) if u < v else (v, u)
        gamma = self._gamma(len(subsets[0]))
        for i, r in enumerate(self.partials.batch(a, b, subsets)):
            if abs(r) <= gamma:
                return i
            if math.isnan(r):
                err = NotPositiveDefiniteError((a, b) + subsets[i])
                self.warnings.append(f"dependent by default for ({u}, {v} | {subsets[i]}): {err}")
        return None

    def decide(self, u: int, v: int, s: Iterable[int] = ()) -> bool:
        return self.first_independent(u, v, [tuple(sorted(s))]) is not None


class OracleDecider(CiDecider):
    """Decider that reads conditional independence off a known DAG."""

    def __init__(self, dag: Dag):
        super().__init__()
        self.dag = dag

    def decide(self, u: int, v: int, s: Iterable[int] = ()) -> bool:
        return d_separated(self.dag, u, v, s)
