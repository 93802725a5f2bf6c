"""Rank and moment correlation estimators for continuous data.

Rank-based estimates (Spearman, Kendall) combined with their sine transforms
estimate the latent correlation of a Gaussian copula without looking at the
marginals; the Pearson estimator is included as the moment-based baseline.
Tied observations are rejected rather than midranked: the data model is
continuous, so a tie signals discretized or corrupted input.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = [
    "TieError",
    "Dataset",
    "ranks",
    "spearman_rho",
    "kendall_tau",
    "pearson",
    "sine_transform_spearman",
    "sine_transform_kendall",
    "tail_bound_constants",
    "estimation_tail_bound",
    "estimate_correlation_matrix",
    "validate_correlation_matrix",
    "METHODS",
]

METHODS = ("pearson", "spearman", "kendall")


class TieError(ValueError):
    """Raised when a rank-based estimator meets tied observations."""

    def __init__(self, value: float, where: str = ""):
        self.value = value
        loc = f" in {where}" if where else ""
        super().__init__(f"tied value {value!r}{loc}; rank estimators need distinct observations")


class Dataset:
    """An n x p table of continuous observations, one row per observation."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.array(values, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"dataset must be 2-dimensional, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"dataset must be non-empty, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("dataset contains non-finite entries")
        arr.flags.writeable = False
        self.values = arr

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.values[:, j]

    def to_csv(self, path) -> None:
        """Write with a header row; floats use shortest-exact decimal form."""
        with open(path, "w", newline="") as fh:
            fh.write(",".join(f"x{j}" for j in range(self.p)) + "\n")
            for row in self.values:
                fh.write(",".join(format(x, ".17g") for x in row) + "\n")

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=float)
        return cls(arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.all(self.values == other.values)
        )

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, p={self.p})"


def _as_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_pair(x, y) -> tuple[np.ndarray, np.ndarray, int]:
    xa = _as_vector(x, "x")
    ya = _as_vector(y, "y")
    if xa.shape[0] != ya.shape[0]:
        raise ValueError(f"length mismatch: {xa.shape[0]} vs {ya.shape[0]}")
    n = xa.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    return xa, ya, n


def ranks(x, where: str = "") -> np.ndarray:
    """Ranks 1..n of a vector of distinct values; ties raise :class:`TieError`."""
    arr = _as_vector(x, where or "x")
    n = arr.shape[0]
    order = np.argsort(arr, kind="stable")
    xs = arr[order]
    dup = np.nonzero(xs[1:] == xs[:-1])[0]
    if dup.size:
        raise TieError(float(xs[dup[0]]), where)
    out = np.empty(n, dtype=np.int64)
    out[order] = np.arange(1, n + 1)
    return out


def _pair_ranks(x, y) -> np.ndarray:
    xa, ya, _ = _check_pair(x, y)
    return np.column_stack((ranks(xa, "x"), ranks(ya, "y")))


def spearman_rho(x, y) -> float:
    """Spearman rank correlation: the two-column case of the matrix kernel."""
    return float(_spearman_rho_matrix(_pair_ranks(x, y))[0, 1])


def kendall_tau(x, y) -> float:
    """Kendall rank correlation, exactly: the two-column case of the matrix kernel.

    Equals the average of sign(x_i - x_j) * sign(y_i - y_j) over pairs i < j.
    """
    return float(_kendall_tau_matrix(_pair_ranks(x, y))[0, 1])


def pearson(x, y) -> float:
    """Product-moment correlation, clamped into [-1, 1]."""
    xa, ya, n = _check_pair(x, y)
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sx = float(np.dot(xc, xc))
    sy = float(np.dot(yc, yc))
    if sx == 0.0:
        raise ValueError("x has zero variance")
    if sy == 0.0:
        raise ValueError("y has zero variance")
    r = float(np.dot(xc, yc)) / math.sqrt(sx * sy)
    return min(1.0, max(-1.0, r))


def sine_transform_spearman(rho: float) -> float:
    """Map a Spearman correlation to the latent Gaussian correlation scale."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"spearman correlation {rho} outside [-1, 1]")
    val = 2.0 * math.sin(math.pi * rho / 6.0)
    return min(1.0, max(-1.0, val))


def sine_transform_kendall(tau: float) -> float:
    """Map a Kendall correlation to the latent Gaussian correlation scale."""
    if not -1.0 <= tau <= 1.0:
        raise ValueError(f"kendall correlation {tau} outside [-1, 1]")
    val = math.sin(math.pi * tau / 2.0)
    return min(1.0, max(-1.0, val))


def tail_bound_constants(method: str) -> tuple[float, float]:
    """Constants (A, B) in the deviation bound A * exp(-B * n * eps**2).

    The bound controls P(|estimate - rho| > eps) for the sine-transformed
    rank estimator, uniformly in the true correlation rho.
    """
    if method == "spearman":
        return 2.0, 2.0 / (9.0 * math.pi**2)
    if method == "kendall":
        return 2.0, 2.0 / math.pi**2
    raise ValueError(f"no tail bound for method {method!r}")


def estimation_tail_bound(method: str, n: int, eps: float) -> float:
    """Evaluate the deviation bound A * exp(-B * n * eps**2) for one estimator."""
    if n < 1:
        raise ValueError(f"sample size must be positive, got {n}")
    if eps <= 0:
        raise ValueError(f"deviation eps must be positive, got {eps}")
    a, b = tail_bound_constants(method)
    return a * math.exp(-b * n * eps * eps)


def _rank_columns(data: Dataset) -> np.ndarray:
    cols = np.empty((data.n, data.p), dtype=np.int64)
    for j in range(data.p):
        cols[:, j] = ranks(data.column(j), f"column {j}")
    return cols


def _spearman_rho_matrix(rank_cols: np.ndarray) -> np.ndarray:
    """Spearman rho of every column pair of an n x p rank matrix."""
    n = rank_cols.shape[0]
    r = rank_cols.astype(float)
    cross = r.T @ r
    sum_sq = n * (n + 1) * (2 * n + 1) / 6.0
    ssd = 2.0 * sum_sq - 2.0 * cross
    return 1.0 - 6.0 * ssd / (n * (n * n - 1))


# Sign entries per block of the Kendall kernel (512 KiB of float32): enough
# rows for BLAS to be efficient, few enough to keep peak memory flat.
_KENDALL_BLOCK = 2**17


def _kendall_tau_matrix(rank_cols: np.ndarray) -> np.ndarray:
    """Kendall tau of every column pair of an n x p rank matrix, exactly.

    Sums sign(R_i - R_j) sign(R_i - R_j)^T over all ordered row pairs, a
    block of rows i at a time; the total is n(n-1) - 4 * discordant.  The
    float32 arithmetic is exact while n < 2**24: ranks and their differences
    are integers below 2**24, and each block's sums are integers bounded by
    its number of row pairs, at most max(2**17, n).  The float64 total is an
    integer below 2**53.
    """
    n, p = rank_cols.shape
    r = rank_cols.astype(np.float32)
    rows = max(1, _KENDALL_BLOCK // (n * p))
    total = np.zeros((p, p))
    for i in range(0, n, rows):
        signs = np.sign(r[i : i + rows, None, :] - r[None, :, :]).reshape(-1, p)
        total += signs.T @ signs
    return total / (n * (n - 1))


def _finish(mat: np.ndarray) -> np.ndarray:
    mat = (mat + mat.T) / 2.0
    mat = np.clip(mat, -1.0, 1.0)
    np.fill_diagonal(mat, 1.0)
    return mat


def estimate_correlation_matrix(data: Dataset, method: str) -> np.ndarray:
    """Pairwise correlation estimates for all columns of a dataset.

    method is one of 'pearson', 'spearman', 'kendall'; the rank methods
    return the sine-transformed estimate of the latent correlation.  The
    result is symmetric with unit diagonal and entries in [-1, 1].
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if data.n < 2:
        raise ValueError(f"need at least 2 observations, got {data.n}")
    if method == "pearson":
        centered = data.values - data.values.mean(axis=0)
        norms = np.sqrt((centered * centered).sum(axis=0))
        dead = np.nonzero(norms == 0.0)[0]
        if dead.size:
            raise ValueError(f"column {dead[0]} has zero variance")
        z = centered / norms
        return _finish(z.T @ z)
    rank_cols = _rank_columns(data)
    if method == "spearman":
        return _finish(2.0 * np.sin(np.pi * _spearman_rho_matrix(rank_cols) / 6.0))
    return _finish(np.sin(np.pi * _kendall_tau_matrix(rank_cols) / 2.0))


def validate_correlation_matrix(sigma, atol: float = 1e-8) -> np.ndarray:
    """Check square shape, symmetry, unit diagonal, and entry range."""
    mat = np.asarray(sigma, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"correlation matrix must be square, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("correlation matrix contains non-finite entries")
    if not np.allclose(mat, mat.T, atol=atol, rtol=0.0):
        raise ValueError("correlation matrix is not symmetric")
    if not np.allclose(np.diagonal(mat), 1.0, atol=atol, rtol=0.0):
        raise ValueError("correlation matrix diagonal is not 1")
    if np.any(np.abs(mat) > 1.0 + atol):
        raise ValueError("correlation matrix has entries outside [-1, 1]")
    return mat
