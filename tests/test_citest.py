import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

import rankpc.partial
from rankpc.citest import CiDecider, OracleDecider, RankCiDecider, TestConfig, gamma_threshold
from rankpc.correlation import estimate_correlation_matrix
from rankpc.graph import Dag, d_separated
from rankpc.partial import PartialCorrelations
from rankpc.simulate import SemModel, random_dag, random_weights, sample_sem

from oracles import fisher_z_decide, random_correlation


def test_config_validation():
    TestConfig("threshold", gamma=0.2)
    TestConfig("fisher_z", method="kendall", alpha=0.05)
    with pytest.raises(ValueError):
        TestConfig("wald")
    with pytest.raises(ValueError):
        TestConfig("threshold")  # missing gamma
    with pytest.raises(ValueError):
        TestConfig("threshold", gamma=1.5)
    with pytest.raises(ValueError):
        TestConfig("threshold", gamma=0.2, alpha=0.05)
    with pytest.raises(ValueError):
        TestConfig("fisher_z", alpha=0.0)
    with pytest.raises(ValueError):
        TestConfig("fisher_z", alpha=0.05, gamma=0.1)
    with pytest.raises(ValueError):
        TestConfig("fisher_z", method="tetrachoric", alpha=0.05)


def test_fisher_z_decide_basic():
    assert fisher_z_decide(0.0, 100, 0, 0.05)
    assert not fisher_z_decide(0.9, 100, 0, 0.05)
    # same statistic, tighter level: keeping independence needs larger alpha
    assert fisher_z_decide(0.15, 100, 0, 0.05) != fisher_z_decide(0.15, 100, 0, 0.99)


def test_fisher_z_decide_validation():
    with pytest.raises(ValueError):
        fisher_z_decide(1.0, 100, 0, 0.05)
    with pytest.raises(ValueError):
        fisher_z_decide(0.2, 5, 2, 0.05)  # m = 0
    with pytest.raises(ValueError):
        fisher_z_decide(0.2, 100, -1, 0.05)
    with pytest.raises(ValueError):
        fisher_z_decide(0.2, 100, 0, 1.5)


def test_gamma_threshold_identity():
    # z chosen so the cutoff collapses to c/3 independently of n
    for c in (0.1, 0.3, 0.5, 0.9):
        for n in (10, 50, 1000):
            z = math.sqrt(n - 3) * math.log((1.0 + c / 3.0) / (1.0 - c / 3.0))
            assert gamma_threshold(n, 0, z) == pytest.approx(c / 3.0, abs=1e-12)


def test_gamma_threshold_properties():
    assert gamma_threshold(100, 0, 0.0) == 0.0
    vals = [gamma_threshold(100, 0, z) for z in (0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v < 1.0 for v in vals)
    with pytest.raises(ValueError):
        gamma_threshold(4, 2, 1.0)
    with pytest.raises(ValueError):
        gamma_threshold(100, 0, -1.0)


def test_fisher_and_threshold_rules_coincide():
    rng = np.random.default_rng(67)
    for _ in range(1000):
        n = int(rng.integers(10, 400))
        s = int(rng.integers(0, min(8, n - 4) + 1))
        alpha = float(rng.uniform(1e-6, 0.4))
        r = float(rng.uniform(-0.999, 0.999))
        z = 2.0 * float(ndtri(1.0 - alpha / 2.0))
        gamma = gamma_threshold(n, s, z)
        assert fisher_z_decide(r, n, s, alpha) == (abs(r) <= gamma)


def test_rank_decider_symmetric_and_deterministic():
    rng = np.random.default_rng(71)
    sigma = random_correlation(rng, 5)
    dec = RankCiDecider(sigma, 200, TestConfig("fisher_z", alpha=0.05))
    for (u, v, s) in ((0, 3, ()), (1, 4, (0,)), (2, 3, (0, 4))):
        assert dec.decide(u, v, s) == dec.decide(v, u, tuple(reversed(s)))


def test_rank_decider_threshold_variant():
    sigma = np.array([[1.0, 0.25], [0.25, 1.0]])
    loose = RankCiDecider(sigma, 50, TestConfig("threshold", gamma=0.3))
    tight = RankCiDecider(sigma, 50, TestConfig("threshold", gamma=0.2))
    assert loose.decide(0, 1, ())
    assert not tight.decide(0, 1, ())
    assert loose.max_cond_size is None
    # the cutoff is inclusive: gamma = |r(0, 1 | S)| is independent, one ulp less is not
    sigma = random_correlation(np.random.default_rng(73), 3)
    partials = PartialCorrelations(sigma)
    g0 = abs(partials.marginal[0][1])
    g1 = abs(partials.batch(0, 1, [(2,)])[0])
    for gamma, independent in ((g0, True), (float(np.nextafter(g0, 0.0)), False)):
        dec = RankCiDecider(sigma, 50, TestConfig("threshold", gamma=gamma))
        assert dec.marginally_independent([(0, 1)]) == [independent]
        assert dec.decide(0, 1, ()) is independent
    for gamma, first in ((g1, 0), (float(np.nextafter(g1, 0.0)), None)):
        dec = RankCiDecider(sigma, 50, TestConfig("threshold", gamma=gamma))
        assert dec.first_independent(0, 1, [(2,)]) == first


def test_rank_decider_fisher_cond_cap():
    sigma = np.eye(4)
    dec = RankCiDecider(sigma, 30, TestConfig("fisher_z", alpha=0.05))
    assert dec.max_cond_size == 26


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 7),
    n=st.integers(4, 60),
    cutoff=st.floats(0.0, 1.0),
)
def test_every_level_matches_the_z_test(seed, p, n, cutoff):
    sigma = random_correlation(np.random.default_rng(seed), p)
    alpha = 10.0 ** (-7.0 * cutoff - 0.5)
    partials = PartialCorrelations(sigma)
    dec = RankCiDecider(sigma, n, TestConfig("fisher_z", alpha=alpha))
    for u, v in combinations(range(p), 2):
        rest = [w for w in range(p) if w not in (u, v)]
        for size in range(min(p - 2, n - 4) + 1):
            for s in combinations(rest, size):
                r = partials.batch(u, v, [s])[0]
                assert dec.decide(u, v, s) == fisher_z_decide(r, n, size, alpha)
    with pytest.raises(ValueError):
        dec.decide(0, 1, tuple(range(2, n - 1)))  # |S| = n - 3 has no z test


def test_partials_memo_runs_the_kernel_once_per_query(monkeypatch):
    sigma = random_correlation(np.random.default_rng(83), 6)
    partials = PartialCorrelations(sigma)
    calls = []
    kernel = rankpc.partial.partial_corr_batch

    def counted(mat, idx):
        calls.append(idx.tolist())
        return kernel(mat, idx)

    monkeypatch.setattr(rankpc.partial, "partial_corr_batch", counted)
    subsets = list(combinations(range(2, 6), 2))
    first = partials.batch(0, 1, subsets[:4])
    assert calls == [[list(s) + [0, 1] for s in subsets[:4]]]  # a miss: one call for every set
    assert partials.batch(0, 1, subsets[:4]) == first  # a hit: no call
    assert partials.batch(0, 1, subsets[2:4] + subsets[:2]) == first[2:] + first[:2]
    assert partials.batch(0, 1, [()]) == [partials.marginal[0][1]]  # level 0: no call
    assert len(calls) == 1
    first = partials.batch(0, 1, subsets)
    assert calls[1:] == [[list(s) + [0, 1] for s in subsets[4:]]]  # only the sets not asked before
    assert partials.batch(0, 1, subsets) == first
    singles = [(1,), (3,), (4,), (5,)]
    one, two = (RankCiDecider(partials, 100, TestConfig("fisher_z", alpha=a)) for a in (0.05, 1e-3))
    fresh = RankCiDecider(sigma, 100, TestConfig("fisher_z", alpha=1e-3))
    calls.clear()
    one.first_independent(2, 0, singles)
    assert two.first_independent(2, 0, singles) == fresh.first_independent(2, 0, singles)
    assert calls == [[[w, 0, 2] for (w,) in singles]] * 2  # ``one``'s miss and ``fresh``'s; ``two`` hit


NONPD_BLOCK = np.array(
    [
        [1.0, 0.9, -0.9],
        [0.9, 1.0, 0.9],
        [-0.9, 0.9, 1.0],
    ]
)


def test_rank_decider_nonpd_submatrix_is_dependent_with_warning():
    dec = RankCiDecider(NONPD_BLOCK, 100, TestConfig("fisher_z", alpha=0.05))
    assert not dec.decide(0, 1, (2,))
    assert len(dec.warnings) == 1
    assert "dependent by default" in dec.warnings[0]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(3, 7),
    level=st.integers(0, 3),
    nonpd=st.booleans(),
    variant=st.sampled_from(["fisher_z", "threshold"]),
    n=st.integers(20, 1000),
    cutoff=st.floats(0.0, 1.0),
)
def test_first_independent_matches_decide_loop(seed, p, level, nonpd, variant, n, cutoff):
    rng = np.random.default_rng(seed)
    sigma = random_correlation(rng, p)
    if nonpd:
        sigma[:3, :3] = NONPD_BLOCK  # the block test_run_pc_propagates_decider_warnings uses
    u, v = (int(x) for x in rng.choice(p, size=2, replace=False))
    cands = [w for w in range(p) if w not in (u, v)]
    subsets = list(combinations(cands, min(level, len(cands))))
    if variant == "fisher_z":
        config = TestConfig("fisher_z", alpha=10.0 ** (-7.0 * cutoff - 0.5))
    else:
        config = TestConfig("threshold", gamma=cutoff)
    batched = RankCiDecider(sigma, n, config)
    looped = RankCiDecider(sigma, n, config)
    for _ in range(2):  # the second round is answered from the memo
        want = CiDecider.first_independent(looped, u, v, subsets)
        assert batched.first_independent(u, v, subsets) == want
        assert batched.warnings == looped.warnings


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 7),
    degenerate=st.sampled_from([None, "nonpd", "unit"]),
    variant=st.sampled_from(["fisher_z", "threshold", "boundary"]),
    n=st.integers(4, 1000),
    cutoff=st.floats(0.0, 1.0),
)
def test_marginally_independent_matches_base_loop(seed, p, degenerate, variant, n, cutoff):
    rng = np.random.default_rng(seed)
    sigma = random_correlation(rng, p)
    if degenerate == "nonpd" and p >= 3:
        sigma[:3, :3] = NONPD_BLOCK
    elif degenerate == "unit":
        sigma[0, 1] = sigma[1, 0] = 1.0
    # either order of a pair, since the base class sorts it before asking
    pairs = [
        (u, v) if rng.random() < 0.5 else (v, u)
        for u, v in combinations(range(p), 2)
        if rng.random() < 0.7
    ]
    partials = PartialCorrelations(sigma)
    if variant == "fisher_z":
        config = TestConfig("fisher_z", alpha=10.0 ** (-7.0 * cutoff - 0.5))
    elif variant == "boundary" and not math.isnan(partials.marginal[p - 2][p - 1]):
        # a cutoff equal to one |r(u, v | {})|: that pair is independent
        config = TestConfig("threshold", gamma=abs(partials.marginal[p - 2][p - 1]))
    else:
        config = TestConfig("threshold", gamma=cutoff)
    batched = RankCiDecider(sigma, n, config)
    looped = RankCiDecider(sigma, n, config)
    for _ in range(2):
        want = CiDecider.marginally_independent(looped, pairs)
        assert batched.marginally_independent(pairs) == want
        assert batched.warnings == looped.warnings


def test_marginally_independent_reads_either_pair_order():
    sigma = np.array([[1.0, 0.05, 0.6], [0.05, 1.0, 0.2], [0.6, 0.2, 1.0]])
    dec = RankCiDecider(sigma, 100, TestConfig("fisher_z", alpha=0.05))
    assert dec.decide(1, 0, ())
    assert dec.marginally_independent([(1, 0), (0, 1), (2, 0)]) == [True, True, False]
    assert dec.warnings == []


def test_rank_decider_unit_correlation_is_dependent():
    sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
    dec = RankCiDecider(sigma, 100, TestConfig("fisher_z", alpha=0.05))
    assert not dec.decide(0, 1, ())


def test_oracle_decider_reads_the_dag():
    chain = Dag(3, [(0, 1), (1, 2)])
    dec = OracleDecider(chain)
    assert not dec.decide(0, 2, ())
    assert dec.decide(0, 2, (1,))
    assert dec.max_cond_size is None
    assert dec.warnings == []


def test_data_decider_agreement_with_oracle_is_reported():
    # measured agreement rate between the data decider and the truth;
    # there is no exact target, only a sanity floor well above chance
    rng = np.random.default_rng(79)
    dag = random_dag(6, 0.4, rng)
    weights = random_weights(dag, rng)
    model = SemModel(dag, weights, noise="standard_normal", transform="identity")
    data = sample_sem(model, 500, np.random.default_rng(101))
    dec = RankCiDecider(
        estimate_correlation_matrix(data, "spearman"),
        data.n,
        TestConfig("fisher_z", method="spearman", alpha=0.01),
    )
    oracle = OracleDecider(dag)
    agree = total = 0
    for u in range(6):
        for v in range(u + 1, 6):
            rest = [w for w in range(6) if w not in (u, v)]
            for s in [()] + [(w,) for w in rest]:
                total += 1
                if dec.decide(u, v, s) == oracle.decide(u, v, s):
                    agree += 1
    rate = agree / total
    print(f"decider-oracle agreement rate: {rate:.3f} ({agree}/{total})")
    assert 0.5 < rate <= 1.0
