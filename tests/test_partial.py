import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankpc.partial import (
    BoundInputs,
    NotPositiveDefiniteError,
    inverse_error_bound_holds,
    min_nonzero_partial_corr,
    min_submatrix_eigenvalue,
    normalized_offdiag_bound_holds,
    partial_corr_batch,
    partial_corr_inverse,
    rank_pc_error_bound,
)

from oracles import (
    DegenerateCorrelationError,
    halving_partial_corr_batch,
    partial_corr_recursive,
    random_correlation,
)
from test_citest import NONPD_BLOCK


EQUI = np.array(
    [
        [1.0, 0.5, 0.5],
        [0.5, 1.0, 0.5],
        [0.5, 0.5, 1.0],
    ]
)


def test_recursion_frozen_equicorrelated():
    assert partial_corr_recursive(EQUI, 0, 1, [2]) == 1.0 / 3.0


def test_recursion_empty_set_is_plain_entry():
    assert partial_corr_recursive(EQUI, 0, 2) == 0.5


def test_recursion_validates_indices():
    assert partial_corr_inverse(EQUI, np.int64(0), np.int64(1), [np.int64(2)]) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        partial_corr_inverse(EQUI, 0, 0, [])
    with pytest.raises(ValueError):
        partial_corr_inverse(EQUI, 0, 1, [1])
    with pytest.raises(ValueError):
        partial_corr_inverse(EQUI, 0, 1, [5])
    with pytest.raises(ValueError):
        partial_corr_inverse(EQUI, 0, 1, [2, 2])


def test_recursion_degenerate_denominator():
    near = np.array(
        [
            [1.0, 1.0 - 1e-16, 0.2],
            [1.0 - 1e-16, 1.0, 0.2],
            [0.2, 0.2, 1.0],
        ]
    )
    with pytest.raises(DegenerateCorrelationError):
        partial_corr_recursive(near, 0, 2, [1])


def test_inverse_route_matches_equicorrelated():
    assert partial_corr_inverse(EQUI, 0, 1, [2]) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_inverse_rejects_indefinite_submatrix():
    bad = np.array(
        [
            [1.0, 0.9, -0.9],
            [0.9, 1.0, 0.9],
            [-0.9, 0.9, 1.0],
        ]
    )
    with pytest.raises(NotPositiveDefiniteError) as exc:
        partial_corr_inverse(bad, 0, 1, [2])
    assert exc.value.indices == (0, 1, 2)


def test_routes_agree_on_random_matrices():
    rng = np.random.default_rng(13)
    for _ in range(60):
        p = int(rng.integers(3, 9))
        sigma = random_correlation(rng, p)
        u, v = rng.choice(p, size=2, replace=False)
        u, v = int(u), int(v)
        rest = [w for w in range(p) if w not in (u, v)]
        size = int(rng.integers(0, min(4, len(rest)) + 1))
        s = [int(w) for w in rng.choice(rest, size=size, replace=False)]
        a = partial_corr_recursive(sigma, u, v, s)
        b = partial_corr_inverse(sigma, u, v, s)
        assert a == pytest.approx(b, abs=1e-10)


def _same_bits(x, y) -> bool:
    """NaN in the same places, and bitwise equal values elsewhere."""
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and x[~nan].tobytes() == y[~nan].tobytes()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(3, 7),
    size=st.integers(0, 3),
    degenerate=st.sampled_from([None, "nonpd", "unit"]),
)
def test_partial_corr_batch_matches_halving_kernel(seed, p, size, degenerate):
    rng = np.random.default_rng(seed)
    sigma = random_correlation(rng, p)
    if degenerate == "nonpd":
        sigma[:3, :3] = NONPD_BLOCK  # every submatrix over {0, 1, 2} and more is indefinite
    elif degenerate == "unit":
        sigma[0, 1] = sigma[1, 0] = 1.0  # r(0, 1 | {}) has a singular 2 x 2 submatrix
    size = min(size, p - 2)
    rows = [
        c + (a, b)
        for a, b in combinations(range(p), 2)
        for c in combinations([w for w in range(p) if w not in (a, b)], size)
    ]
    nonpd = [
        (degenerate == "nonpd" and {0, 1, 2} <= set(row)) or (degenerate == "unit" and row == (0, 1))
        for row in rows
    ]
    # a random subset of the rows, always with the non-PD ones, in random order
    keep = np.flatnonzero((rng.random(len(rows)) < 0.5) | np.array(nonpd))
    keep = rng.permutation(keep if keep.size else [0])
    idx = np.array(rows)[keep]
    got = partial_corr_batch(sigma, idx)
    want = halving_partial_corr_batch(sigma, idx)
    if size <= 2:  # closed forms: NaN where the Cholesky kernel's is, else the recursion's arithmetic
        assert np.array_equal(np.isnan(got), np.isnan(want))
        for (*s, a, b), r in zip(idx.tolist(), got.tolist()):
            assert math.isnan(r) or r == partial_corr_recursive(sigma, a, b, s)
    else:
        assert _same_bits(got, want)
    assert all(math.isnan(got[i]) for i, k in enumerate(keep) if nonpd[k])
    # a row's value depends neither on its neighbours nor on its place in the batch
    for i in range(len(idx)):
        assert _same_bits(partial_corr_batch(sigma, idx[i : i + 1]), got[i : i + 1])
    perm = rng.permutation(len(idx))
    assert _same_bits(partial_corr_batch(sigma, idx[perm]), got[perm])
    for row, r in zip(idx.tolist(), got.tolist()):
        *s, a, b = row
        if math.isnan(r):
            with pytest.raises(NotPositiveDefiniteError) as exc:
                partial_corr_inverse(sigma, b, a, s[::-1])
            assert exc.value.indices == tuple(row[-2:] + row[:-2])
        else:
            assert partial_corr_inverse(sigma, b, a, s[::-1]) == r
    # min_nonzero_partial_corr reports the first non-PD (u, v, S) of its enumeration
    first_nonpd = next(
        (
            (u, v) + c
            for u, v in combinations(range(p), 2)
            for k in range(p - 1)
            for c in combinations([w for w in range(p) if w not in (u, v)], k)
            if math.isnan(halving_partial_corr_batch(sigma, np.array([c + (u, v)]))[0])
        ),
        None,
    )
    if first_nonpd is None:
        min_nonzero_partial_corr(sigma)
    else:
        with pytest.raises(NotPositiveDefiniteError) as exc:
            min_nonzero_partial_corr(sigma)
        assert exc.value.indices == first_nonpd


def test_partial_corr_symmetric_in_pair_and_set_order():
    rng = np.random.default_rng(19)
    sigma = random_correlation(rng, 5)
    a = partial_corr_recursive(sigma, 1, 4, [0, 3])
    assert partial_corr_recursive(sigma, 4, 1, [3, 0]) == a
    b = partial_corr_inverse(sigma, 1, 4, [0, 3])
    assert partial_corr_inverse(sigma, 4, 1, [3, 0]) == b


def test_min_nonzero_partial_corr_frozen():
    assert min_nonzero_partial_corr(EQUI, q=3) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert min_nonzero_partial_corr(EQUI, q=2) == pytest.approx(0.5, abs=1e-12)


def test_min_nonzero_partial_corr_none_when_diagonal():
    assert min_nonzero_partial_corr(np.eye(4), q=3) is None


def test_min_nonzero_partial_corr_decreases_with_reach():
    rng = np.random.default_rng(29)
    for _ in range(20):
        sigma = random_correlation(rng, 5)
        v2 = min_nonzero_partial_corr(sigma, q=2)
        v3 = min_nonzero_partial_corr(sigma, q=3)
        assert v2 is not None and v3 is not None
        assert v3 <= v2 + 1e-12


def test_min_nonzero_partial_corr_validation():
    with pytest.raises(ValueError):
        min_nonzero_partial_corr(EQUI, q=1)
    with pytest.raises(ValueError):
        min_nonzero_partial_corr(EQUI, q=4)


def test_min_submatrix_eigenvalue_frozen():
    two = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert min_submatrix_eigenvalue(two, 2) == pytest.approx(0.5, abs=1e-12)
    assert min_submatrix_eigenvalue(EQUI, 1) == pytest.approx(1.0, abs=1e-12)
    assert min_submatrix_eigenvalue(EQUI, 3) == pytest.approx(0.5, abs=1e-12)


def test_min_submatrix_eigenvalue_decreases_with_size():
    rng = np.random.default_rng(37)
    for _ in range(20):
        sigma = random_correlation(rng, 6)
        vals = [min_submatrix_eigenvalue(sigma, q) for q in range(1, 7)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12


def test_bound_inputs_validation():
    good = dict(a=2.0, b=0.1, p=10, n=100, q=4, c=0.3, lam=0.5)
    BoundInputs(**good)
    for bad in (
        dict(good, a=0.0),
        dict(good, b=-1.0),
        dict(good, a=math.nan),
        dict(good, b=math.nan),
        dict(good, p=0),
        dict(good, q=1),
        dict(good, n=4),
        dict(good, c=1.5),
        dict(good, lam=-0.2),
    ):
        with pytest.raises(ValueError):
            BoundInputs(**bad)


def test_error_bound_frozen_example():
    inputs = BoundInputs(
        a=2.0, b=2.0 / (9.0 * math.pi**2), p=10, n=1000, q=4, c=0.5, lam=0.5
    )
    assert rank_pc_error_bound(inputs) == pytest.approx(99.93894058194029, rel=1e-12)


def test_error_bound_degenerate_signal_gives_trivial_level():
    inputs = BoundInputs(a=2.0, b=0.5, p=10, n=100, q=4, c=0.0, lam=0.5)
    assert rank_pc_error_bound(inputs) == 100.0
    inputs = BoundInputs(a=2.0, b=0.5, p=10, n=100, q=4, c=0.5, lam=0.0)
    assert rank_pc_error_bound(inputs) == 100.0


def test_error_bound_monotonicity_smoke():
    base = dict(a=2.0, b=0.5, p=10, n=100, q=4, c=0.5, lam=0.5)
    val = rank_pc_error_bound(BoundInputs(**base))
    assert rank_pc_error_bound(BoundInputs(**dict(base, n=200))) < val
    assert rank_pc_error_bound(BoundInputs(**dict(base, c=0.7))) < val
    assert rank_pc_error_bound(BoundInputs(**dict(base, lam=0.7))) < val
    assert rank_pc_error_bound(BoundInputs(**dict(base, p=20))) > val
    assert rank_pc_error_bound(BoundInputs(**dict(base, q=6))) > val


def _admissible_perturbation(rng, sigma, scale=0.5):
    q = sigma.shape[0]
    lam = float(np.linalg.eigvalsh(sigma)[0])
    eps = scale * lam / q
    raw = rng.standard_normal(sigma.shape)
    raw = (raw + raw.T) / 2.0
    raw *= 0.9 * eps / np.abs(raw).max()
    return raw, eps


def test_inverse_error_bound_random_instances():
    rng = np.random.default_rng(41)
    for _ in range(100):
        q = int(rng.integers(2, 7))
        sigma = random_correlation(rng, q)
        err, eps = _admissible_perturbation(rng, sigma, scale=float(rng.uniform(0.2, 0.9)))
        assert inverse_error_bound_holds(sigma, err, eps)


def test_inverse_error_bound_rejects_inadmissible_window():
    rng = np.random.default_rng(43)
    sigma = random_correlation(rng, 3)
    lam = float(np.linalg.eigvalsh(sigma)[0])
    err = np.zeros((3, 3))
    with pytest.raises(ValueError):
        inverse_error_bound_holds(sigma, err, eps=lam)  # eps >= lam/q
    big = np.full((3, 3), 1.0)
    with pytest.raises(ValueError):
        inverse_error_bound_holds(sigma, big, eps=lam / 6.0)  # err >= eps


def test_inverse_correlation_diagonal_at_least_one():
    rng = np.random.default_rng(47)
    for _ in range(100):
        p = int(rng.integers(2, 8))
        sigma = random_correlation(rng, p)
        diag = np.diagonal(np.linalg.inv(sigma))
        assert diag.min() >= 1.0 - 1e-9


def _admissible_offdiag_pair(rng):
    d0, d1 = rng.uniform(1.0, 2.0, size=2)
    t = rng.uniform(-0.9, 0.9)
    a = np.array([[d0, t * math.sqrt(d0 * d1)], [t * math.sqrt(d0 * d1), d1]])
    delta = float(rng.uniform(0.05, 0.95))
    pert = rng.uniform(-1.0, 1.0, size=(2, 2))
    pert = (pert + pert.T) / 2.0
    pert *= 0.9 * delta / np.abs(pert).max()
    return a, a + pert, delta


def test_normalized_offdiag_bound_random_instances():
    rng = np.random.default_rng(53)
    for _ in range(100):
        a, b, delta = _admissible_offdiag_pair(rng)
        assert normalized_offdiag_bound_holds(a, b, delta)


def test_normalized_offdiag_bound_rejects_inadmissible():
    a = np.array([[1.5, 0.2], [0.2, 1.5]])
    with pytest.raises(ValueError):
        normalized_offdiag_bound_holds(a, a, delta=1.0)
    with pytest.raises(ValueError):
        normalized_offdiag_bound_holds(np.array([[0.5, 0.0], [0.0, 1.5]]), a, delta=0.5)
    with pytest.raises(ValueError):
        normalized_offdiag_bound_holds(a, a + 0.6, delta=0.5)


ASYMMETRIC, INDEFINITE, ZERO = np.array([[1.0, 0.5], [0.4, 1.0]]), np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((2, 2))


@pytest.mark.parametrize(
    "check, args, message",
    [
        (min_nonzero_partial_corr, (np.eye(1),), "need at least 2 variables, got p=1"),
        (min_submatrix_eigenvalue, (np.eye(3), 0), "q must be in 1..3, got 0"),
        (min_submatrix_eigenvalue, (np.eye(3), 4), "q must be in 1..3, got 4"),
        (inverse_error_bound_holds, (np.ones((2, 3)), ZERO, 0.1), "sigma must be square, got shape (2, 3)"),
        (inverse_error_bound_holds, (np.eye(2), np.full((2, 2), np.inf), 0.1), "err contains non-finite entries"),
        (inverse_error_bound_holds, (np.eye(3), ZERO, 0.1), "shape mismatch: (3, 3) vs (2, 2)"),
        (inverse_error_bound_holds, (ASYMMETRIC, ZERO, 0.1), "sigma must be symmetric"),
        (inverse_error_bound_holds, (INDEFINITE, ZERO, 0.1), "sigma must be positive definite"),
        (normalized_offdiag_bound_holds, (np.eye(3), np.eye(3), 0.1), "both matrices must be 2x2"),
        (normalized_offdiag_bound_holds, (np.eye(2), ASYMMETRIC, 0.1), "both matrices must be symmetric"),
        (normalized_offdiag_bound_holds, (INDEFINITE, INDEFINITE, 0.1), "a must be positive definite"),
        (normalized_offdiag_bound_holds, (np.eye(2), np.diag([1.0, 0.0]), 0.5), "diagonal entries of b must be positive"),
    ],
)
def test_partial_input_checks(check, args, message):
    with pytest.raises(ValueError) as exc:
        check(*args)
    assert str(exc.value) == message
