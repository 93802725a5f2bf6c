"""Rank and moment correlation estimators for continuous data.

Rank-based estimates (Spearman, Kendall) combined with their sine transforms
estimate the latent correlation of a Gaussian copula without looking at the
marginals; the Pearson estimator is included as the moment-based baseline.
Tied observations are rejected rather than midranked: the data model is
continuous, so a tie signals discretized or corrupted input.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .graph import _count

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
        """Write with a header row; floats in 17 significant digits, which read back exactly."""
        header = ",".join(f"x{j}" for j in range(self.p))
        np.savetxt(path, self.values, fmt="%.17g", delimiter=",", header=header, comments="")

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=float)
        return cls(arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.values, other.values)

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


def ranks(x) -> np.ndarray:
    """Ranks 1..n of a vector of distinct values; ties raise :class:`TieError`."""
    return _rank_columns(_as_vector(x, "x")[:, None], ("",))[:, 0]


def _pair_ranks(x, y) -> np.ndarray:
    xa, ya, _ = _check_pair(x, y)
    return _rank_columns(np.column_stack((xa, ya)), ("x", "y"))


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
    n = _count(n, "sample size", 1)
    if not eps > 0:
        raise ValueError(f"deviation eps must be positive, got {eps}")
    a, b = tail_bound_constants(method)
    return a * math.exp(-b * n * eps * eps)


def _rank_columns(values: np.ndarray, where: Sequence[str] | None = None) -> np.ndarray:
    """Ranks 1..n down each column of an n x p array, C-ordered, from one argsort.

    A tie raises :class:`TieError` at the first tied column (``where[j]`` or
    'column j') with its smallest tied value as met first in the input, as
    a stable sort meets it: 0.0 and -0.0 tie.
    """
    n, p = values.shape
    flat = np.argsort(values, axis=0) * p + np.arange(p)  # flat index of each column's i-th smallest
    xs = np.take(values, flat)
    tied = xs[1:] == xs[:-1]
    if tied.any():
        j = int(tied.any(axis=0).argmax())
        col = values[:, j]
        first = col[(col == xs[tied[:, j].argmax(), j]).argmax()]
        raise TieError(float(first), f"column {j}" if where is None else where[j])
    out = np.empty((n, p), dtype=np.int64)
    out.reshape(-1)[flat] = np.arange(1, n + 1)[:, None]
    return out


def _spearman_rho_matrix(rank_cols: np.ndarray) -> np.ndarray:
    """Spearman rho of every column pair of an n x p rank matrix, correctly rounded.

    rho = 3 c_k^T c_l / (n(n^2 - 1)) over the centred ranks c = 2R - (n + 1), and
    c_k^T c_l = 4 R_k^T R_l - n(n + 1)^2 is an exact integer while n < 2**17.
    """
    n = rank_cols.shape[0]
    r = rank_cols.astype(float)
    return 3.0 * (4.0 * (r.T @ r) - n * (n + 1) ** 2) / (n * (n * n - 1))


KENDALL_BLOCK = 1 << 16  # entries (rows x p) of the float32 buffer one Kendall product reads, unless n - 1 rows are more


def _kendall_tau_matrix(rank_cols: np.ndarray) -> np.ndarray:
    """Kendall tau of every column pair of an n x p rank matrix, exactly.

    With a_i = [R_j > R_i] over the rows j > i, each pair's sign is 2a - 1,
    so the sign sum over the row pairs i < j is 4g - 2(c_k + c_l) + n(n-1)/2,
    where g sums a_i^T a_i and c is its diagonal.  The a_i are written in
    turn into one float32 buffer of max(n - 1, ``KENDALL_BLOCK`` // p) rows,
    and each time the next would not fit, one product takes the stacked
    ones: at n = 1000 the first rows have a product each and the later,
    shorter ones share.  It is exact while the buffer has fewer than 2**24
    rows: a product's sums are integers of at most that.  They are summed
    in float64, and every term is an integer below 2**53.
    """
    n, p = rank_cols.shape
    r = rank_cols.astype(np.float32)
    g = np.zeros((p, p))
    above, k = np.empty((max(n - 1, KENDALL_BLOCK // p), p), np.float32), 0  # k rows stacked
    for i in range(n - 1):
        if k + n - 1 - i > len(above):
            g += above[:k].T @ above[:k]
            k = 0
        np.greater(r[i + 1 :], r[i], out=above[k : k + n - 1 - i])
        k += n - 1 - i
    g += above[:k].T @ above[:k]
    c = np.diagonal(g)
    total = 4.0 * g - 2.0 * (c[:, None] + c) + n * (n - 1) / 2
    return 2.0 * total / (n * (n - 1))


def _finish(mat: np.ndarray) -> np.ndarray:
    """Symmetrise, clip into [-1, 1] and set a unit diagonal."""
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
    rank_cols = _rank_columns(data.values)
    if method == "spearman":
        return _finish(2.0 * np.sin(np.pi * _spearman_rho_matrix(rank_cols) / 6.0))
    return _finish(np.sin(np.pi * _kendall_tau_matrix(rank_cols) / 2.0))


_ATOL = 1e-8


def _check_square(name: str, m) -> np.ndarray:
    """``m`` as a float array, once it is square and finite."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def validate_correlation_matrix(sigma) -> np.ndarray:
    """Check square shape, symmetry, unit diagonal, and entry range, up to ``_ATOL``."""
    mat = _check_square("correlation matrix", sigma)
    if not np.all(np.abs(mat - mat.T) <= _ATOL):
        raise ValueError("correlation matrix is not symmetric")
    if not np.all(np.abs(np.diagonal(mat) - 1.0) <= _ATOL):
        raise ValueError("correlation matrix diagonal is not 1")
    if np.any(np.abs(mat) > 1.0 + _ATOL):
        raise ValueError("correlation matrix has entries outside [-1, 1]")
    return mat
