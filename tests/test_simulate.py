import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtr

from oracles import comprehension_random_dag, triangular_raw_covariance
from rankpc.correlation import (
    Dataset,
    _finish,
    estimate_correlation_matrix,
    ranks,
    validate_correlation_matrix,
)
from rankpc.graph import Dag, EdgeState, Pdag, d_separated
from rankpc.partial import partial_corr_inverse
from rankpc.simulate import (
    SemModel,
    derive_seed,
    f11_transform,
    implied_covariance,
    random_dag,
    random_weights,
    sample_sem,
    sem_from_text,
    sem_to_text,
)


def _model(p, edges, weights=None, **kw):
    dag = Dag(p, edges)
    if weights is None:
        weights = np.zeros((p, p))
        for u, v in edges:
            weights[u, v] = 0.5
    return SemModel(dag, weights, **kw)


def test_sem_model_validation():
    dag = Dag(2, [(0, 1)])
    good = np.array([[0.0, 0.5], [0.0, 0.0]])
    SemModel(dag, good)
    with pytest.raises(ValueError):
        SemModel(dag, good, noise="levy")
    with pytest.raises(ValueError):
        SemModel(dag, good, transform="probit")
    with pytest.raises(ValueError):
        SemModel(dag, good, noise="cauchy_mixture", transform="f11")
    with pytest.raises(ValueError):
        SemModel(dag, np.zeros((3, 3)))
    off_edge = np.array([[0.0, 0.5], [0.3, 0.0]])
    with pytest.raises(ValueError):
        SemModel(dag, off_edge)
    with pytest.raises(ValueError):
        SemModel(dag, np.array([[0.0, np.inf], [0.0, 0.0]]))
    model = SemModel(dag, good)
    assert not model.weights.flags.writeable


def test_random_dag_degenerate_densities():
    rng = np.random.default_rng(0)
    assert random_dag(5, 0.0, rng).edges == frozenset()
    full = random_dag(5, 1.0, rng)
    assert len(full.edges) == 10
    assert all(u < v for u, v in full.edges)
    with pytest.raises(ValueError):
        random_dag(5, 1.5, rng)
    with pytest.raises(ValueError):
        random_dag(0, 0.5, rng)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 100), s=st.floats(0.0, 1.0))
@example(seed=0, p=100, s=1.0)
@example(seed=0, p=100, s=0.0)
@example(seed=2, p=1, s=0.5)
def test_random_dag_matches_comprehension_over_pairs(seed, p, s):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert sorted(random_dag(p, s, rng).edges) == sorted(comprehension_random_dag(p, s, ref).edges)
    assert rng.random() == ref.random()  # the same draws consumed


def test_random_dag_expected_edge_count():
    # p=100 at expected degree 3: mean edge count near 4950 * 3/99 = 150
    rng = np.random.default_rng(107)
    counts = [len(random_dag(100, 3.0 / 99.0, rng).edges) for _ in range(500)]
    assert abs(np.mean(counts) - 150.0) < 2.7  # five standard errors


def test_random_dag_pairwise_bernoulli_frequency():
    rng = np.random.default_rng(109)
    s = 0.3
    hits = np.zeros((5, 5))
    reps = 2000
    for _ in range(reps):
        for u, v in random_dag(5, s, rng).edges:
            hits[u, v] += 1
    se = math.sqrt(s * (1 - s) / reps)
    for u in range(5):
        for v in range(u + 1, 5):
            assert abs(hits[u, v] / reps - s) < 4 * se


def test_random_weights_support_and_mean():
    rng = np.random.default_rng(113)
    complete = Dag(142, [(u, v) for u in range(142) for v in range(u + 1, 142)])
    w = random_weights(complete, rng)
    vals = w[np.triu_indices(142, 1)]
    assert vals.size == 10011
    assert np.all((vals > 0.1) & (vals < 1.0))
    assert abs(vals.mean() - 0.55) < 0.01
    assert np.all(np.tril(w) == 0.0)


def test_random_weights_empty_graph_and_validation():
    rng = np.random.default_rng(2)
    assert np.all(random_weights(Dag(3), rng) == 0.0)


def test_contaminated_noise_median_and_tail():
    rng = np.random.default_rng(127)
    model = SemModel(Dag(4), np.zeros((4, 4)), noise="cauchy_mixture")
    draws = sample_sem(model, 25_000, rng).values.ravel()
    assert abs(np.median(draws)) < 0.02
    tail = np.mean(np.abs(draws) > 10.0)
    want = 0.2 * (1.0 - (2.0 / math.pi) * math.atan(10.0))
    assert want == pytest.approx(0.0127, abs=3e-4)
    assert abs(tail - want) < 0.003


def test_sample_sem_empty_graph_is_plain_noise():
    model = _model(3, [])
    data = sample_sem(model, 50, np.random.default_rng(8))
    want = np.random.default_rng(8).standard_normal((50, 3))
    assert np.array_equal(data.values, want)


def test_sample_sem_single_edge_correlation():
    model = _model(2, [(0, 1)])
    data = sample_sem(model, 10_000, np.random.default_rng(131))
    r = np.corrcoef(data.values[:, 0], data.values[:, 1])[0, 1]
    assert abs(r - 0.5 / math.sqrt(1.25)) < 0.05


def test_sample_sem_deterministic_and_validated():
    for noise in ("standard_normal", "cauchy_mixture"):
        model = _model(4, [(0, 2), (1, 3)], noise=noise)
        a = sample_sem(model, 30, np.random.default_rng(3))
        b = sample_sem(model, 30, np.random.default_rng(3))
        assert a == b
        with pytest.raises(ValueError):
            sample_sem(model, 0, np.random.default_rng(3))


def test_implied_covariance_empty_graph_identity():
    model = _model(4, [])
    assert np.array_equal(implied_covariance(model), np.eye(4))


def test_implied_covariance_single_edge_frozen():
    model = _model(2, [(0, 1)])
    sigma = implied_covariance(model)
    assert sigma[0, 1] == pytest.approx(0.5 / math.sqrt(1.25), abs=1e-15)
    assert sigma[0, 0] == 1.0 and sigma[1, 1] == 1.0


def test_implied_covariance_is_valid_and_pd():
    rng = np.random.default_rng(137)
    for _ in range(20):
        dag = random_dag(6, 0.5, rng)
        model = SemModel(dag, random_weights(dag, rng))
        sigma = implied_covariance(model)
        validate_correlation_matrix(sigma)
        assert np.linalg.eigvalsh(sigma)[0] > 0.0


def test_implied_covariance_needs_normal_noise():
    model = _model(2, [(0, 1)], noise="cauchy_mixture")
    with pytest.raises(ValueError):
        implied_covariance(model)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 40), s=st.floats(0.0, 1.0))
@example(seed=0, p=40, s=1.0)
@example(seed=1, p=1, s=1.0)
def test_implied_covariance_equals_triangular_solve_bitwise(seed, p, s):
    rng = np.random.default_rng(seed)
    dag = random_dag(p, s, rng)
    weights = random_weights(dag, rng)
    model = SemModel(dag, weights)
    ref = triangular_raw_covariance(model)
    sd = np.sqrt(np.diag(ref))
    assert np.array_equal(implied_covariance(model), _finish(ref / np.outer(sd, sd)))
    plain = sample_sem(model, 20, np.random.default_rng(seed))
    warped = sample_sem(SemModel(dag, weights, transform="f11"), 20, np.random.default_rng(seed))
    assert np.array_equal(warped.values, f11_transform(ndtr(plain.values / sd)))


def test_runtime_never_imports_scipy():
    # SciPy is a test dependency only: its import costs most of a cold start, and its own OpenBLAS
    # would start a second thread pool
    code = (
        "import sys, numpy as np, rankpc, rankpc.cli\n"
        "from rankpc import RankCiDecider, TestConfig, estimate_correlation_matrix, run_pc\n"
        "from rankpc.simulate import SemModel, random_dag, random_weights, sample_sem\n"
        "rng = np.random.default_rng(0)\n"
        "dag = random_dag(100, 3.0 / 99.0, rng)\n"
        "data = sample_sem(SemModel(dag, random_weights(dag, rng), transform='f11'), 200, rng)\n"
        "sigmas = [estimate_correlation_matrix(data, m) for m in ('pearson', 'spearman', 'kendall')]\n"
        "run_pc(RankCiDecider(sigmas[1], data.n, TestConfig('fisher_z', alpha=0.01)), data.p)\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_sample_correlations_converge_to_implied():
    rng = np.random.default_rng(139)
    dag = random_dag(8, 0.4, rng)
    model = SemModel(dag, random_weights(dag, rng))
    sigma = implied_covariance(model)
    n = 10_000
    data = sample_sem(model, n, np.random.default_rng(149))
    sample = estimate_correlation_matrix(data, "pearson")
    assert np.abs(sample - sigma).max() < 3.0 / math.sqrt(n)


def test_f11_transform_frozen_midpoint():
    assert f11_transform(0.5) == pytest.approx(1.0, abs=1e-15)
    assert isinstance(f11_transform(0.5), float)


def test_f11_transform_strictly_increasing_and_bounded_domain():
    grid = np.linspace(0.01, 0.99, 99)
    vals = f11_transform(grid)
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(vals > 0.0)
    for bad in (0.0, 1.0, -0.2, 1.3, math.nan):
        with pytest.raises(ValueError):
            f11_transform(bad)


def test_f11_transform_matches_squared_cauchy_distribution():
    # quantile cross-check: half of all squared Cauchy draws fall below f11(0.5)
    rng = np.random.default_rng(151)
    c2 = np.tan(math.pi * (rng.random(100_000) - 0.5)) ** 2
    frac = np.mean(c2 <= f11_transform(0.5))
    assert abs(frac - 0.5) < 0.007
    frac9 = np.mean(c2 <= f11_transform(0.9))
    assert abs(frac9 - 0.9) < 0.007


def test_f11_preserves_ranks_columnwise():
    model = _model(3, [(0, 1), (1, 2)])
    plain = sample_sem(
        SemModel(model.dag, model.weights, transform="identity"), 60, np.random.default_rng(11)
    )
    warped = sample_sem(
        SemModel(model.dag, model.weights, transform="f11"), 60, np.random.default_rng(11)
    )
    for j in range(3):
        assert np.array_equal(ranks(plain.column(j)), ranks(warped.column(j)))
    for method in ("spearman", "kendall"):
        a = estimate_correlation_matrix(plain, method)
        b = estimate_correlation_matrix(warped, method)
        assert np.array_equal(a, b)


def test_implied_sigma_faithful_to_graph():
    # partial correlations vanish exactly on the d-separations, nowhere else
    rng = np.random.default_rng(163)
    for _ in range(10):
        p = int(rng.integers(3, 7))
        dag = random_dag(p, 0.4, rng)
        model = SemModel(dag, random_weights(dag, rng))
        sigma = implied_covariance(model)
        for u in range(p):
            for v in range(u + 1, p):
                rest = [w for w in range(p) if w not in (u, v)]
                for size in range(len(rest) + 1):
                    for s in combinations(rest, size):
                        r = partial_corr_inverse(sigma, u, v, list(s))
                        separated = d_separated(dag, u, v, s)
                        assert (abs(r) <= 1e-7) == separated, (dag, u, v, s, r)


def test_derive_seed_frozen_and_sensitive():
    assert derive_seed(0, 10, 1000, 3.0, "normal", 0) == 1168853092959067118
    assert derive_seed("a", "b") == 1057090313966889972
    assert derive_seed("a", "b") != derive_seed("b", "a")
    assert derive_seed(1, 2) != derive_seed(1, 3)
    assert 0 <= derive_seed("x") < 2**64


def test_sem_text_round_trip():
    rng = np.random.default_rng(167)
    dag = random_dag(5, 0.5, rng)
    model = SemModel(dag, random_weights(dag, rng), noise="cauchy_mixture")
    text = sem_to_text(model)
    back = sem_from_text(text, noise="cauchy_mixture")
    assert back.dag == model.dag
    assert np.array_equal(back.weights, model.weights)
    assert back.noise == "cauchy_mixture"


def test_value_types_hash_compare_and_print():
    dag = Dag(3, [(2, 1), (0, 1)])
    assert len({dag, Dag(3, [(0, 1), (2, 1)])}) == 1  # equal DAGs hash alike
    weights = np.zeros((3, 3))
    weights[0, 1], weights[2, 1] = 0.5, -1.0
    model = SemModel(dag, weights, noise="cauchy_mixture")
    data = Dataset(np.zeros((4, 2)))
    pdag = Pdag(3, {(0, 1): EdgeState.UNDIRECTED, (1, 2): EdgeState.BACKWARD})
    for value in (dag, data, pdag):
        assert value != "foreign" and not value == object()
    assert repr(dag) == "Dag(p=3, edges=[(0, 1), (2, 1)])"
    assert repr(data) == "Dataset(n=4, p=2)"
    assert repr(model) == "SemModel(p=3, edges=2, noise='cauchy_mixture', transform='identity')"
    assert repr(pdag) == "Pdag(p=3, [0 -- 1, 2 -> 1])"


def test_sem_from_text_rejects_malformed():
    with pytest.raises(ValueError):
        sem_from_text("0 -> 1 : 0.5\n")
    with pytest.raises(ValueError):
        sem_from_text("p=2\n0 -> 1\n")
    with pytest.raises(ValueError):
        sem_from_text("p=2\n0 => 1 : 0.5\n")
    with pytest.raises(ValueError, match=r"^edge \(0, 5\) out of range for p=2$"):
        sem_from_text("p=2\n0 -> 5 : 0.5\n")
    with pytest.raises(ValueError, match=r"^edge \(-1, 0\) out of range for p=2$"):
        sem_from_text("p=2\n-1 -> 0 : 0.5\n")
