"""Symmetries of the learner, as oracle-free properties.

A decision on |r| does not see the sign of a column, and a rank estimator
does not see a strictly increasing map of one (the nonparanormal; Liu,
Lafferty & Wasserman 2009).  So neither may move the learned graph, and a
sign flip negates the flipped rows and columns of every estimate exactly.
The order-independent skeleton (Colombo & Maathuis 2014) does not see the
labels of the variables either.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankpc.citest import RankCiDecider, TestConfig
from rankpc.correlation import METHODS, Dataset, TieError, estimate_correlation_matrix
from rankpc.pc import pc_result_to_text, pc_skeleton, run_pc
from rankpc.simulate import NOISES, SemModel, random_dag, random_weights, sample_sem

from oracles import random_correlation

# strictly increasing maps, monotone on floats too; 'round' merges close values into ties
MONOTONE = {
    "identity": lambda x: x,
    "affine": lambda x: 0.5 * x + 3.0,
    "cube": lambda x: x * x * x,
    "exp": np.exp,
    "arctan": np.arctan,
    "round": lambda x: np.round(x, 2),
}


def sem_values(seed: int, p: int, n: int, noise: str = "standard_normal") -> np.ndarray:
    rng = np.random.default_rng(seed)
    dag = random_dag(p, min(1.0, 3.0 / (p - 1)), rng)
    return sample_sem(SemModel(dag, random_weights(dag, rng), noise=noise), n, rng).values


def fit(values: np.ndarray, method: str):
    """The correlation estimate and the PC result of one fisher_z fit at alpha = 0.01."""
    sigma = estimate_correlation_matrix(Dataset(values), method)
    decider = RankCiDecider(sigma, len(values), TestConfig("fisher_z", method=method, alpha=0.01))
    return sigma, run_pc(decider, values.shape[1])


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 12),
    n=st.sampled_from([20, 60, 200]),
    noise=st.sampled_from(NOISES),
    flips=st.integers(0, 2**12 - 1),
)
def test_sign_flips_leave_the_fit_unchanged(seed, p, n, noise, flips):
    values = sem_values(seed, p, n, noise)
    signs = np.array([-1.0 if flips >> j & 1 else 1.0 for j in range(p)])
    for method in METHODS:
        sigma, plain = fit(values, method)
        flipped_sigma, flipped = fit(values * signs, method)
        assert np.array_equal(flipped_sigma, signs[:, None] * sigma * signs)  # D sigma D, exactly
        assert pc_result_to_text(flipped) == pc_result_to_text(plain)
        assert flipped.sepsets == plain.sepsets


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 10),
    n=st.sampled_from([20, 60, 200]),
    maps=st.lists(st.sampled_from(sorted(MONOTONE)), min_size=10, max_size=10),
    method=st.sampled_from(["spearman", "kendall"]),
)
def test_monotone_margins_leave_a_rank_fit_unchanged(seed, p, n, maps, method):
    values = sem_values(seed, p, n)
    warped = np.column_stack([MONOTONE[name](values[:, j]) for j, name in zip(range(p), maps)])
    if any(len(np.unique(col)) < n for col in warped.T):
        with pytest.raises(TieError):
            fit(warped, method)
        return
    assert np.array_equal(np.argsort(warped, axis=0), np.argsort(values, axis=0))
    sigma, plain = fit(values, method)
    warped_sigma, warped_fit = fit(warped, method)
    assert np.array_equal(warped_sigma.view(np.int64), sigma.view(np.int64))
    assert pc_result_to_text(warped_fit) == pc_result_to_text(plain)
    assert warped_fit.sepsets == plain.sepsets


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 10),
    n=st.sampled_from([20, 60, 200, 1000]),
    source=st.sampled_from(METHODS + ("random",)),
    config=st.sampled_from(
        [TestConfig("fisher_z", alpha=a) for a in (1e-4, 0.01, 0.05, 0.3)]
        + [TestConfig("threshold", gamma=g) for g in (0.02, 0.1, 0.2, 0.4)]
    ),
    data=st.data(),
)
def test_relabelling_permutes_the_stable_skeleton(seed, p, n, source, config, data):
    if source == "random":
        sigma = random_correlation(np.random.default_rng(seed), p)
    else:
        sigma = estimate_correlation_matrix(Dataset(sem_values(seed, p, n)), source)
    perm = data.draw(st.permutations(range(p)))  # new variable i is old variable perm[i]
    plain = pc_skeleton(RankCiDecider(sigma, n, config), p, stable=True)
    relabelled = pc_skeleton(RankCiDecider(sigma[np.ix_(perm, perm)], n, config), p, stable=True)
    # edges only: tests_run, sepsets and warnings follow the label order
    assert {tuple(sorted((perm[a], perm[b]))) for a, b in relabelled.edges} == plain.edges
