import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from rankpc.correlation import (
    Dataset,
    TieError,
    _kendall_tau_matrix,
    _rank_columns,
    estimate_correlation_matrix,
    estimation_tail_bound,
    kendall_tau,
    pearson,
    ranks,
    sine_transform_kendall,
    sine_transform_spearman,
    spearman_rho,
    tail_bound_constants,
    validate_correlation_matrix,
)

from oracles import bivariate_normal_sample, naive_kendall, spearman_ratio


def test_ranks_basic():
    assert list(ranks([3.0, 1.0, 2.0])) == [3, 1, 2]
    assert list(ranks([10.0])) == [1]


def test_ranks_reject_ties():
    with pytest.raises(TieError) as exc:
        ranks([1.0, 2.0, 2.0])
    assert exc.value.value == 2.0


def test_spearman_frozen_example():
    assert spearman_rho([1, 2, 3, 4], [2, 1, 4, 3]) == 0.6


def test_spearman_extremes():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert spearman_rho(x, x) == 1.0
    assert spearman_rho(x, x[::-1]) == -1.0


def test_spearman_matches_ratio_form():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(3, 60))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        assert abs(spearman_rho(x, y) - spearman_ratio(x, y)) < 1e-12


def test_kendall_frozen_example():
    assert kendall_tau([1, 2, 3], [3, 1, 2]) == -1.0 / 3.0


def test_kendall_matches_naive_exactly():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 80))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        assert kendall_tau(x, y) == naive_kendall(x, y)


def test_kendall_rejects_ties():
    with pytest.raises(TieError):
        kendall_tau([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(TieError):
        kendall_tau([1.0, 2.0, 3.0], [5.0, 5.0, 6.0])


def test_pearson_frozen_example():
    assert pearson([1, 2, 3], [1, 3, 2]) == 0.5


def test_pearson_zero_variance_errors():
    with pytest.raises(ValueError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])


def test_pair_estimators_validate_input():
    with pytest.raises(ValueError):
        spearman_rho([1.0], [2.0])
    with pytest.raises(ValueError):
        kendall_tau([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        pearson([[1.0, 2.0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        spearman_rho([1.0, np.nan], [1.0, 2.0])


def test_estimators_match_scipy():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(4, 120))
        x = rng.standard_normal(n)
        y = 0.4 * x + rng.standard_normal(n)
        assert spearman_rho(x, y) == pytest.approx(
            scipy.stats.spearmanr(x, y).statistic, abs=1e-12
        )
        assert kendall_tau(x, y) == pytest.approx(
            scipy.stats.kendalltau(x, y).statistic, abs=1e-12
        )
        assert pearson(x, y) == pytest.approx(
            scipy.stats.pearsonr(x, y).statistic, abs=1e-12
        )


def test_rank_estimators_invariant_under_monotone_maps():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(40)
    y = rng.standard_normal(40)
    fx = np.exp(x)
    gy = np.arctan(y) ** 3 + y
    assert spearman_rho(fx, gy) == spearman_rho(x, y)
    assert kendall_tau(fx, gy) == kendall_tau(x, y)
    assert pearson(fx, gy) != pearson(x, y)


def test_sine_transforms():
    assert sine_transform_spearman(0.0) == 0.0
    assert sine_transform_kendall(0.0) == 0.0
    assert sine_transform_spearman(0.6) == pytest.approx(0.6180339887498949, abs=1e-15)
    assert sine_transform_kendall(1.0) == 1.0
    assert sine_transform_spearman(1.0) == pytest.approx(1.0, abs=2e-16)
    assert sine_transform_spearman(-1.0) == pytest.approx(-1.0, abs=2e-16)
    with pytest.raises(ValueError):
        sine_transform_spearman(1.5)
    with pytest.raises(ValueError):
        sine_transform_kendall(-2.0)


def test_sine_transforms_are_odd_and_monotone():
    grid = np.linspace(-1.0, 1.0, 41)
    sp = [sine_transform_spearman(v) for v in grid]
    kd = [sine_transform_kendall(v) for v in grid]
    for seq in (sp, kd):
        assert all(a < b for a, b in zip(seq, seq[1:]))
    for v in grid:
        assert sine_transform_spearman(-v) == -sine_transform_spearman(v)
        assert sine_transform_kendall(-v) == -sine_transform_kendall(v)


def test_tail_bound_constants():
    a, b = tail_bound_constants("spearman")
    assert a == 2.0 and b == pytest.approx(2.0 / (9.0 * math.pi**2), abs=1e-18)
    a, b = tail_bound_constants("kendall")
    assert a == 2.0 and b == pytest.approx(2.0 / math.pi**2, abs=1e-17)
    with pytest.raises(ValueError):
        tail_bound_constants("pearson")


def test_estimation_tail_bound_value_and_validation():
    a, b = tail_bound_constants("kendall")
    assert estimation_tail_bound("kendall", 100, 0.3) == a * math.exp(-b * 100 * 0.09)
    with pytest.raises(ValueError):
        estimation_tail_bound("kendall", 0, 0.3)
    with pytest.raises(ValueError):
        estimation_tail_bound("kendall", 100, 0.0)


def test_tail_bound_smoke_on_independent_data():
    # cheap version of the full exceedance study: kendall at a loose cell
    rng = np.random.default_rng(9)
    a, b = tail_bound_constants("kendall")
    n, eps = 100, 0.3
    bound = estimation_tail_bound("kendall", n, eps)
    hits = 0
    reps = 300
    for _ in range(reps):
        x, y = bivariate_normal_sample(rng, 0.0, n)
        est = sine_transform_kendall(kendall_tau(x, y))
        if abs(est) > eps:
            hits += 1
    assert hits / reps <= bound


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset([1.0, 2.0])
    with pytest.raises(ValueError):
        Dataset(np.empty((0, 3)))
    with pytest.raises(ValueError):
        Dataset([[1.0, np.inf]])
    d = Dataset([[1.0, 2.0], [3.0, 4.0]])
    assert (d.n, d.p) == (2, 2)
    assert not d.values.flags.writeable
    assert list(d.column(1)) == [2.0, 4.0]


def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    d = Dataset(rng.standard_normal((17, 3)))
    path = tmp_path / "data.csv"
    d.to_csv(path)
    back = Dataset.from_csv(path)
    assert back == d
    first = path.read_text().splitlines()[0]
    assert first == "x0,x1,x2"


def test_dataset_csv_single_column(tmp_path):
    d = Dataset([[1.5], [2.5]])
    path = tmp_path / "one.csv"
    d.to_csv(path)
    assert Dataset.from_csv(path) == d


def test_matrix_matches_pairwise_estimates():
    rng = np.random.default_rng(21)
    data = Dataset(rng.standard_normal((60, 5)))
    for method, fn in (
        ("pearson", pearson),
        ("spearman", lambda x, y: sine_transform_spearman(spearman_rho(x, y))),
        ("kendall", lambda x, y: sine_transform_kendall(kendall_tau(x, y))),
    ):
        mat = estimate_correlation_matrix(data, method)
        validate_correlation_matrix(mat)
        for u in range(5):
            for v in range(u + 1, 5):
                want = fn(data.column(u), data.column(v))
                assert mat[u, v] == pytest.approx(want, abs=2e-15), (method, u, v)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 1000), p=st.integers(1, 6))
@example(seed=0, n=1000, p=3)  # 24 blocks of rows, the last one partial
@example(seed=1, n=2, p=1)
def test_kendall_kernel_matches_naive_oracle(seed, n, p):
    data = Dataset(np.random.default_rng(seed).standard_normal((n, p)))
    tau = _kendall_tau_matrix(_rank_columns(data))
    mat = estimate_correlation_matrix(data, "kendall")
    if p == 1:
        assert mat.tolist() == [[1.0]]
    for u in range(p):
        for v in range(u + 1, p):
            want = naive_kendall(data.column(u), data.column(v))
            assert tau[u, v] == tau[v, u] == want, (u, v)
            assert abs(mat[u, v] - sine_transform_kendall(want)) <= 2e-15, (u, v)


def test_matrix_frozen_two_column_example():
    data = Dataset(np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 4.0], [4.0, 3.0]]))
    mat = estimate_correlation_matrix(data, "spearman")
    assert mat[0, 1] == pytest.approx(0.6180339887498949, abs=1e-15)


def test_matrix_validation_errors():
    data = Dataset([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        estimate_correlation_matrix(data, "biweight")
    with pytest.raises(ValueError):
        estimate_correlation_matrix(Dataset([[1.0, 2.0]]), "spearman")
    tied = Dataset([[1.0, 1.0], [1.0, 2.0], [2.0, 3.0]])
    with pytest.raises(TieError) as exc:
        estimate_correlation_matrix(tied, "kendall")
    assert "column 0" in str(exc.value)
    constant = Dataset([[1.0, 1.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        estimate_correlation_matrix(constant, "pearson")


def test_validate_correlation_matrix_errors():
    good = np.array([[1.0, 0.3], [0.3, 1.0]])
    validate_correlation_matrix(good)
    with pytest.raises(ValueError):
        validate_correlation_matrix(np.array([[1.0, 0.3]]))
    with pytest.raises(ValueError):
        validate_correlation_matrix(np.array([[1.0, 0.4], [0.3, 1.0]]))
    with pytest.raises(ValueError):
        validate_correlation_matrix(np.array([[2.0, 0.3], [0.3, 1.0]]))
    bad_range = np.array([[1.0, 1.4], [1.4, 1.0]])
    with pytest.raises(ValueError):
        validate_correlation_matrix(bad_range)
