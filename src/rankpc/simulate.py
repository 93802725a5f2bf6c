"""Synthetic data generation from linear structural equation models.

A model is a DAG plus edge weights; each variable equals the weighted sum of
its parents plus independent noise.  Noise is either standard normal or a
4:1 normal/Cauchy mixture; normal-noise data can additionally be pushed
through a heavy-tailed marginal transform (the quantile of the squared
standard Cauchy) that preserves ranks while destroying moments.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ._normal import ndtr
from .correlation import Dataset, _finish
from .graph import Dag, _count, _edge_lines, _pairs

__all__ = [
    "NOISES",
    "TRANSFORMS",
    "SemModel",
    "random_dag",
    "random_weights",
    "sample_sem",
    "implied_covariance",
    "f11_transform",
    "derive_seed",
    "sem_to_text",
    "sem_from_text",
]

NOISES = ("standard_normal", "cauchy_mixture")
TRANSFORMS = ("identity", "f11")


class SemModel:
    """A weighted DAG with a noise kind and a marginal transform.

    ``weights[u, v]`` is the coefficient of parent u in the equation of
    child v, nonzero only where the DAG has the edge u -> v.  The 'f11'
    transform needs standard normal noise: it maps each variable through its
    own true normal distribution function first.
    """

    __slots__ = ("dag", "weights", "noise", "transform")

    def __init__(self, dag: Dag, weights, noise: str = "standard_normal", transform: str = "identity"):
        if noise not in NOISES:
            raise ValueError(f"unknown noise kind {noise!r}; expected one of {NOISES}")
        if transform not in TRANSFORMS:
            raise ValueError(f"unknown transform {transform!r}; expected one of {TRANSFORMS}")
        if transform == "f11" and noise != "standard_normal":
            raise ValueError("the f11 transform needs standard normal noise")
        w = np.array(weights, dtype=float)
        p = dag.p
        if w.shape != (p, p):
            raise ValueError(f"weights must have shape ({p}, {p}), got {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("weights contain non-finite entries")
        mask = np.zeros((p, p), dtype=bool)
        for u, v in dag.edges:
            mask[u, v] = True
        if np.any(w[~mask] != 0.0):
            raise ValueError("weights must be zero off the DAG's edges")
        w.flags.writeable = False
        self.dag = dag
        self.weights = w
        self.noise = noise
        self.transform = transform

    def __repr__(self) -> str:
        return (
            f"SemModel(p={self.dag.p}, edges={len(self.dag.edges)}, "
            f"noise={self.noise!r}, transform={self.transform!r})"
        )


def random_dag(p: int, s: float, rng: np.random.Generator) -> Dag:
    """Include each edge u -> v (u < v) independently with probability s.

    The expected degree of the result is (p - 1) * s.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {s}")
    p = _count(p, "node count", 1)
    pairs = _pairs(p)
    return Dag(p, [pairs[i] for i in np.flatnonzero(rng.random(len(pairs)) < s).tolist()])


def random_weights(dag: Dag, rng: np.random.Generator) -> np.ndarray:
    """Independent Uniform(0.1, 1) weight per edge, drawn in sorted edge order."""
    w = np.zeros((dag.p, dag.p))
    for u, v in sorted(dag.edges):
        w[u, v] = rng.uniform(0.1, 1.0)
    return w


def _draw_noise(noise: str, n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """An n x p noise matrix; 'cauchy_mixture' is 0.8 N(0,1) + 0.2 standard Cauchy."""
    if noise == "standard_normal":
        return rng.standard_normal((n, p))
    pick = rng.random((n, p))
    normals = rng.standard_normal((n, p))
    cauchy = np.tan(np.pi * (rng.random((n, p)) - 0.5))
    return np.where(pick < 0.8, normals, cauchy)


def _implied_raw_covariance(model: SemModel) -> np.ndarray:
    """Covariance of the solved system under unit-variance noise."""
    p = model.dag.p
    order = list(model.dag.topological_order())
    w_topo = model.weights[np.ix_(order, order)]  # strictly upper triangular
    # NumPy's LAPACK, not scipy.linalg: SciPy ships its own OpenBLAS, with a second thread pool
    binv = np.linalg.inv(np.eye(p) - w_topo)
    cov_topo = binv.T @ binv
    cov = np.empty((p, p))
    cov[np.ix_(order, order)] = cov_topo
    return cov


def implied_covariance(model: SemModel) -> np.ndarray:
    """Population correlation matrix of the model, for standard normal noise."""
    if model.noise != "standard_normal":
        raise ValueError(f"population correlations undefined for noise {model.noise!r}")
    cov = _implied_raw_covariance(model)
    d = np.sqrt(np.diag(cov))
    return _finish(cov / np.outer(d, d))


def f11_transform(u):
    """Quantile of the squared standard Cauchy: tan(pi u / 2) ** 2 on (0, 1)."""
    arr = np.asarray(u, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("u must lie strictly inside (0, 1)")
    val = np.tan(np.pi * arr / 2.0) ** 2
    if arr.ndim == 0:
        return float(val)
    return val


def sample_sem(model: SemModel, n: int, rng: np.random.Generator) -> Dataset:
    """Draw n observations by substitution along a topological order.

    The same generator state yields the same latent draws regardless of the
    marginal transform, so the 'f11' dataset is exactly the transformed
    version of the 'identity' dataset for an equal seed.
    """
    n = _count(n, "sample size", 1)
    p = model.dag.p
    eps = _draw_noise(model.noise, n, p, rng)
    x = np.empty((n, p))
    for v in model.dag.topological_order():
        pa = list(model.dag.parents(v))
        if pa:
            x[:, v] = x[:, pa] @ model.weights[pa, v] + eps[:, v]
        else:
            x[:, v] = eps[:, v]
    if model.transform == "f11":
        sd = np.sqrt(np.diag(_implied_raw_covariance(model)))
        x = f11_transform(ndtr(x / sd))
    return Dataset(x)


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from the textual form of the parts (order matters)."""
    text = "|".join(str(x) for x in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def sem_to_text(model: SemModel) -> str:
    """Weighted edge list: header line, then 'u -> v : weight' per edge."""
    lines = [f"p={model.dag.p}"]
    for u, v in sorted(model.dag.edges):
        lines.append(f"{u} -> {v} : {format(model.weights[u, v], '.17g')}")
    return "\n".join(lines) + "\n"


def sem_from_text(
    text: str, noise: str = "standard_normal", transform: str = "identity"
) -> SemModel:
    p, lines = _edge_lines(text)
    triples = []
    for ln, parts in lines:
        if len(parts) != 5 or parts[1] != "->" or parts[3] != ":":
            raise ValueError(f"unrecognized weighted edge line: {ln!r}")
        triples.append((int(parts[0]), int(parts[2]), float(parts[4])))
    dag = Dag(p, [(u, v) for u, v, _ in triples])  # rejects a node out of range before it indexes weights
    weights = np.zeros((p, p))
    for u, v, w in triples:
        weights[u, v] = w
    return SemModel(dag, weights, noise=noise, transform=transform)
