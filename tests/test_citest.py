import math
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest
from numpy.linalg import _umath_linalg
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

import rankpc.citest
import rankpc.partial
from rankpc.citest import CiDecider, OracleDecider, RankCiDecider, TestConfig, gamma_threshold
from rankpc.correlation import Dataset, estimate_correlation_matrix
from rankpc.graph import Dag, d_separated, pdag_to_text
from rankpc.pc import run_pc
from rankpc.partial import (
    NotPositiveDefiniteError,
    PartialCorrelations,
    partial_corr_batch,
    partial_corr_inverse,
)
from rankpc.simulate import SemModel, random_dag, random_weights, sample_sem

from oracles import fisher_z_decide, halving_partial_corr_batch, partial_corr_recursive, random_correlation


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
    with pytest.raises(ValueError, match="1.1e-16"):
        TestConfig("fisher_z", alpha=1e-16)  # 1 - alpha/2 rounds to 1
    assert all(map(math.isfinite, RankCiDecider(np.eye(3), 100, TestConfig("fisher_z", alpha=1e-15)).cutoffs))
    with pytest.raises(ValueError):
        TestConfig("fisher_z", alpha=0.05, gamma=0.1)
    with pytest.raises(ValueError):
        TestConfig("fisher_z", method="tetrachoric", alpha=0.05)
    # graph._real: a bool would run as 0 or 1 and be echoed as such; NumPy floats are numbers
    TestConfig("fisher_z", alpha=np.float64(0.05))
    for field, variant in (("gamma", "threshold"), ("alpha", "fisher_z")):
        for bad in (True, "0.5", 0.5j):
            with pytest.raises(ValueError) as exc:
                TestConfig(variant, **{field: bad})
            assert str(exc.value) == f"{field}: {bad!r} is not a number"


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
    # the cutoff is inclusive: gamma = |r(0, 1 | S)| is independent, one ulp less is not; each
    # gamma is an np.float64, and decide still answers a Python bool
    sigma = random_correlation(np.random.default_rng(73), 3)
    partials = PartialCorrelations(sigma)
    g0 = partials.pair_marginal[0]
    g1 = abs(partial_corr_batch(partials.sigma, np.array([[2, 0, 1]]))[0])
    r0 = np.abs(partial_corr_batch(partials.sigma, np.array([[0, 1]])))
    assert r0.tobytes() == partials.pair_marginal[:1].tobytes()
    for gamma, independent in ((g0, True), (np.nextafter(g0, 0.0), False)):
        dec = RankCiDecider(sigma, 50, TestConfig("threshold", gamma=gamma))
        assert dec.marginally_independent(3)[0] is independent  # pair (0, 1)
        assert dec.decide(0, 1, ()) is independent and dec.decide(1, 0) is independent
    for gamma, independent in ((g1, True), (np.nextafter(g1, 0.0), False)):
        dec = RankCiDecider(sigma, 50, TestConfig("threshold", gamma=gamma))
        assert dec.decide(0, 1, (2,)) is independent and dec.decide(1, 0, [2]) is independent


@pytest.mark.parametrize(
    "config", [TestConfig("fisher_z", alpha=0.05), TestConfig("threshold", gamma=np.float64(0.1))]
)
def test_decide_returns_a_python_bool(config):
    sigma = random_correlation(np.random.default_rng(11), 6)
    sigma[:3, :3] = NONPD_BLOCK
    dec = RankCiDecider(sigma, 100, config)
    answers = [
        dec.decide(u, v, s)
        for u, v in combinations(range(6), 2)
        for size in range(4)
        for s in combinations([w for w in range(6) if w not in (u, v)], size)
    ]
    assert {type(x) for x in answers} == {bool} and set(answers) == {False, True}
    assert dec.warnings  # non-PD queries answer a bool too


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
    z = 2.0 * float(ndtri(1.0 - alpha / 2.0))
    assert dec.cutoffs == [gamma_threshold(n, s, z) for s in range(min(p, n - 3))]
    for u, v in combinations(range(p), 2):
        rest = [w for w in range(p) if w not in (u, v)]
        for size in range(min(p - 2, n - 4) + 1):
            for s in combinations(rest, size):
                r = float(partial_corr_batch(partials.sigma, np.array([s + (u, v)]))[0])
                assert dec.decide(u, v, s) == fisher_z_decide(r, n, size, alpha)


def test_decide_past_the_last_cutoff_raises():
    sigma = random_correlation(np.random.default_rng(7), 7)
    dec = RankCiDecider(sigma, 8, TestConfig("fisher_z", alpha=0.05))
    with pytest.raises(ValueError, match="no cutoff"):
        dec.decide(0, 1, (2, 3, 4, 5, 6))  # |S| = n - 3 has no z test
    assert dec.warnings == []


@pytest.mark.parametrize("query", [(-1, 1, ()), (0, 5, ()), (0, 0, ()), (0, 1, (1,)), (0, 1, (2, 2))])
def test_decide_checks_its_nodes(query):
    sigma = random_correlation(np.random.default_rng(5), 3)
    for dec in (OracleDecider(Dag(3, [(0, 1), (1, 2)])), RankCiDecider(sigma, 100, TestConfig("fisher_z", alpha=0.05))):
        with pytest.raises(ValueError):
            dec.decide(*query)
        assert dec.warnings == []
    with pytest.raises(ValueError):  # the same checked query row
        partial_corr_inverse(sigma, *query)


NONPD_BLOCK = np.array(
    [
        [1.0, 0.9, -0.9],
        [0.9, 1.0, 0.9],
        [-0.9, 0.9, 1.0],
    ]
)


def test_level_one_table_holds_kernel_values_without_cholesky(monkeypatch):
    sigma = random_correlation(np.random.default_rng(31), 8)
    sigma[:3, :3] = NONPD_BLOCK
    cholesky = []
    factor = _umath_linalg.cholesky_lo

    def counted(mats, **kwargs):
        cholesky.append(len(mats))
        return factor(mats, **kwargs)

    monkeypatch.setattr(_umath_linalg, "cholesky_lo", counted)
    partials = PartialCorrelations(sigma)
    first = [(0, 1), (0, 2), (1, 2), (2, 5), (4, 6)]
    fits = [(pairs, *partials.level_one(pairs)) for pairs in (first, sorted(first + [(1, 7), (3, 4)]), first[2:])]
    assert cholesky == []  # levels 0 and 1 are closed forms
    for pairs, table, nonpd in fits:
        assert table.shape == (len(pairs), 8) and len(nonpd) == len(pairs)
        for i, (a, b) in enumerate(pairs):
            assert math.isnan(table[i, a]) and math.isnan(table[i, b])
            others = [c for c in range(8) if c not in (a, b)]
            want = np.abs(rankpc.partial.partial_corr_batch(sigma, np.array([[c, a, b] for c in others])))
            assert table[i, others].tobytes() == want.tobytes()  # bitwise the kernel's, NaN included
            assert nonpd[i] == sum(1 << c for c, r in zip(others, want) if math.isnan(r))
            for c, r in zip(others, want):  # the NaN set is the Cholesky kernel's
                assert math.isnan(r) == math.isnan(halving_partial_corr_batch(sigma, np.array([[c, a, b]]))[0])
                assert math.isnan(r) or r == abs(partial_corr_recursive(sigma, a, b, [c]))
    assert [m >> c & 1 for m, c in zip(fits[0][2], (2, 1, 0))] == [1, 1, 1]  # the non-PD block
    inexact = sigma.copy()
    np.fill_diagonal(inexact, 1 - 1e-9)  # validated: the closed forms read no diagonal entry
    table, nonpd = PartialCorrelations(inexact).level_one(first)
    assert table.tobytes() == fits[0][1].tobytes() and nonpd == fits[0][2]
    a, b = np.triu_indices(8, 1)  # level 0 reads the entries
    assert partials.pair_marginal.tobytes() == np.abs(sigma[a, b]).tobytes() == np.abs(sigma[b, a]).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(3, 12),
    nonpd=st.booleans(),
    gamma=st.floats(0.0, 0.6),
    stable=st.booleans(),
)
def test_blocked_level_one_matches_one_block(seed, p, nonpd, gamma, stable):
    # blocks of 1 and 3 pairs against every pair in one block: the masks of the complete graph's
    # pairs, and whole fits with their warnings, tests_run, sepsets and PDAGs
    sigma = random_correlation(np.random.default_rng(seed), p)
    if nonpd:
        sigma[:3, :3] = NONPD_BLOCK
    pairs = list(combinations(range(p), 2))
    assert rankpc.citest.LEVEL_ONE_BLOCK // p >= len(pairs)
    runs = []
    for size in (None, 1, 3):
        with pytest.MonkeyPatch.context() as m:
            if size:
                m.setattr(rankpc.citest, "LEVEL_ONE_BLOCK", size * p)
            decider = RankCiDecider(sigma, 1000, TestConfig("threshold", gamma=gamma))
            blocks, level_one = [], decider.partials.level_one
            m.setattr(decider.partials, "level_one", lambda block: blocks.append(len(block)) or level_one(block))
            masks = decider.level_one_masks(pairs)
            step = size or len(pairs)
            assert blocks == [min(step, len(pairs) - lo) for lo in range(0, len(pairs), step)]
            result = run_pc(decider, p, stable=stable)
            runs.append((masks, result.warnings, result.tests_run, result.sepsets, pdag_to_text(result.pdag)))
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_level_one_builds_in_bounded_memory():
    # level 1 over all 4,950 pairs of 100 nodes: a block at a time, never the (k, p) gather of all of them
    partials = PartialCorrelations(random_correlation(np.random.default_rng(43), 100))
    decider = RankCiDecider(partials, 1000, TestConfig("fisher_z", alpha=0.01))
    pairs = list(combinations(range(100), 2))
    tracemalloc.start()
    try:
        masks = decider.level_one_masks(pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gather = 4 * 8 * 100 * (rankpc.citest.LEVEL_ONE_BLOCK // 100)  # one block's rows of sigma and 1 - sigma^2
    assert len(masks) == len(pairs) > 1000
    assert peak < 2 * gather < 4 * 8 * 100 * len(pairs)  # one block's gather and its comparison, the masks


@pytest.mark.parametrize("level", [2, 3, 4])
def test_level_table_rows_are_kernel_values(monkeypatch, level):
    sigma = random_correlation(np.random.default_rng(37), 9)
    sigma[:3, :3] = NONPD_BLOCK
    cholesky, calls = [], []
    factor, kernel = _umath_linalg.cholesky_lo, rankpc.partial.partial_corr_batch

    def counted(mats, **kwargs):
        cholesky.append(len(mats))
        return factor(mats, **kwargs)

    def counted_kernel(mat, idx):
        calls.append(len(idx))
        return kernel(mat, idx)

    monkeypatch.setattr(_umath_linalg, "cholesky_lo", counted)
    monkeypatch.setattr(rankpc.partial, "partial_corr_batch", counted_kernel)
    partials = PartialCorrelations(sigma)
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 7)]
    edges += [(1, 8), (2, 4), (2, 5), (2, 8), (3, 4), (3, 6), (4, 7), (5, 6), (6, 7)]  # degrees 6, 5, 5, 4, ...
    adj = [sum(1 << v for e in edges for u, v in (e, e[::-1]) if u == a) for a in range(9)]
    table = partials.table(adj, level)
    assert (cholesky == []) == (level == 2)  # r(a, b | c, d) is a closed form
    rows = 0
    for a in range(9):
        nbrs = [v for v in range(9) if adj[a] >> v & 1]
        if len(nbrs) <= level:
            continue
        for i, b in enumerate(nbrs):
            sets = list(combinations([x for x in nbrs if x != b], level))  # lexicographic
            lo = table.start[a] + i * table.width[a]
            assert table.width[a] == len(sets)
            assert [table.mask(a, lo + i) for i in range(len(sets))] == [sum(1 << c for c in s) for s in sets]
            want = np.abs(kernel(sigma, np.array([s + (min(a, b), max(a, b)) for s in sets])))
            assert table.abs_r[lo : lo + len(sets)].tobytes() == want.tobytes()  # bitwise, NaN included
            for s, r in zip(sets, want):
                assert math.isnan(r) == math.isnan(halving_partial_corr_batch(sigma, np.array([s + (a, b)]))[0])
                if not math.isnan(r):
                    rec = abs(partial_corr_recursive(sigma, a, b, s))
                    assert r == (rec if level == 2 else pytest.approx(rec, abs=1e-12))
            rows += len(sets)
    assert len(table.abs_r) == rows and calls == [rows]
    assert table.nonpd == np.flatnonzero(np.isnan(table.abs_r)).tolist() and table.nonpd  # the non-PD block
    cholesky.clear()  # the halving kernel's
    inside = adj.copy()
    inside[1] &= ~(1 << 3)
    inside[3] &= ~(1 << 1)
    assert partials.table(inside, level) is table  # a walk inside the kept adjacency reads it
    outside = adj.copy()
    outside[3] |= 1 << 5
    outside[5] |= 1 << 3
    assert partials.table(outside, level) is not table
    assert calls == [rows, len(partials.table(outside, level).abs_r)] and (cholesky == []) == (level == 2)
    calls.clear()
    complete = PartialCorrelations(random_correlation(np.random.default_rng(41), 13)).table(
        [(1 << 13) - 1 - (1 << a) for a in range(13)], level
    )
    big = len(complete.abs_r)  # 13 * 12 * C(11, level) rows, more than 4,096
    assert calls == [4096] * (big // 4096) + [big % 4096] * (big % 4096 > 0)
    monkeypatch.setattr(rankpc.partial, "TABLE_CHUNK", 7)
    calls.clear()
    chunked = PartialCorrelations(sigma).table(adj, level)
    assert calls == [7] * (rows // 7) + [rows % 7] * (rows % 7 > 0)
    assert (chunked.abs_r.tobytes(), chunked.nonpd) == (table.abs_r.tobytes(), table.nonpd)


def test_level_tables_keep_only_abs_r_and_build_in_bounded_memory():
    # one factor, X = F + E: no low-order set separates, so levels 2-9 each build a large table
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1000, 1)) + rng.standard_normal((1000, 14))
    partials = PartialCorrelations(estimate_correlation_matrix(Dataset(x), "spearman"))
    tracemalloc.start()
    try:
        run_pc(RankCiDecider(partials, 1000, TestConfig("fisher_z", alpha=0.01)), 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = partials._tables
    index = max(len(t.abs_r) * (level + 2) * 8 for level, t in tables.items())  # the largest full kernel index
    assert sorted(tables) == list(range(2, 10)) and index > 7e6  # level 5: 134,640 rows
    assert peak < 3 * index  # the index is built once, and neither copied nor kept
    assert all([f for f in t._fields if isinstance(getattr(t, f), np.ndarray)] == ["abs_r"] for t in tables.values())


@pytest.mark.parametrize("level", [2, 3])
def test_finder_forms_bitmasks_only_of_rows_at_or_below_its_cutoff_and_nonpd_rows(monkeypatch, level):
    sigma = random_correlation(np.random.default_rng(37), 9)
    sigma[:3, :3] = NONPD_BLOCK
    adj = [(1 << 9) - 1 - (1 << a) for a in range(9)]  # complete
    partials, asked, mask = PartialCorrelations(sigma), [], rankpc.partial.LevelTable.mask
    monkeypatch.setattr(rankpc.partial.LevelTable, "mask", lambda self, a, i: asked.append(i) or mask(self, a, i))
    for gamma in (0.02, 0.1):  # the second finder reads the kept table
        decider = RankCiDecider(partials, 1000, TestConfig("threshold", gamma=gamma))
        find, ref = decider.separator_finder(adj, level), CiDecider.separator_finder(decider, adj, level)
        table = partials.table(adj, level)
        allowed = set(np.flatnonzero(table.abs_r <= gamma).tolist() + table.nonpd)
        assert asked == [] and table.nonpd and len(allowed) < len(table.abs_r) / 2  # none made up front
        for a, b in permutations(range(9), 2):
            for drop in range(9):  # all of a's candidates, then each with one neighbour less
                cand, start = adj[a] & ~(1 << b) & ~(1 << drop), len(decider.warnings)
                got, mid = find(a, b, cand), len(decider.warnings)
                assert got == ref(a, b, cand) and decider.warnings[start:mid] == decider.warnings[mid:]
        assert asked and set(asked) <= allowed
        asked.clear()


def test_rank_decider_nonpd_submatrix_is_dependent_with_warning():
    dec = RankCiDecider(NONPD_BLOCK, 100, TestConfig("fisher_z", alpha=0.05))
    assert not dec.decide(0, 1, (2,))
    assert len(dec.warnings) == 1
    assert "dependent by default" in dec.warnings[0]
    # partial_corr_inverse reads the same query row: it raises exactly where decide warns,
    # carrying (a, b) + S as Python ints
    raised = 0
    for u, v in permutations(range(3), 2):
        for s in ((), tuple(sorted({0, 1, 2} - {u, v}))):
            before = len(dec.warnings)
            dec.decide(np.int64(u), np.int64(v), s)
            try:
                partial_corr_inverse(NONPD_BLOCK, np.int64(u), np.int64(v), [np.int64(c) for c in s])
                nonpd = False
            except NotPositiveDefiniteError as err:
                assert err.indices == (min(u, v), max(u, v)) + s
                assert all(type(i) is int for i in err.indices)
                nonpd = True
            assert (len(dec.warnings) > before) == nonpd
            raised += nonpd
    assert raised == 6  # every level-1 query spans the whole indefinite block
    assert dec.warnings[-1] == (
        "dependent by default for (2, 1 | (0,)): submatrix over indices (1, 2, 0) is not positive definite"
    )


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
def test_level_routes_match_decide_loop(seed, p, level, nonpd, variant, n, cutoff):
    # the first separating subset of one direction on the complete graph, from the bulk route of
    # its level (marginal entries, level-1 masks, the level table), against decide asked over the
    # same sorted subsets in order; warnings too, and the same queries asked again
    rng = np.random.default_rng(seed)
    sigma = random_correlation(rng, p)
    if nonpd:
        sigma[:3, :3] = NONPD_BLOCK  # the block test_run_pc_propagates_decider_warnings uses
    u, v = (int(x) for x in rng.choice(p, size=2, replace=False))
    a, b = min(u, v), max(u, v)
    cands = [w for w in range(p) if w not in (u, v)]
    level = min(level, len(cands))
    subsets = list(combinations(cands, level))
    if variant == "fisher_z":
        config = TestConfig("fisher_z", alpha=10.0 ** (-7.0 * cutoff - 0.5))
    else:
        config = TestConfig("threshold", gamma=cutoff)
    batched = RankCiDecider(sigma, n, config)
    looped = RankCiDecider(sigma, n, config)
    adj = [(1 << p) - 1 - (1 << w) for w in range(p)]  # complete
    cand = adj[u] & ~(1 << v)
    for _ in range(2):
        want = next((i for i, s in enumerate(subsets) if looped.decide(a, b, s)), None)
        if level == 0:
            got = 0 if batched.marginally_independent(p)[list(combinations(range(p), 2)).index((a, b))] else None
        elif level == 1:
            [(sep, bad)] = batched.level_one_masks([(a, b)])
            low = sep & cand & -(sep & cand)
            if bad & cand & (low - 1):
                batched.warn_nonpd(a, b, bad & cand & (low - 1))
            got = cands.index(low.bit_length() - 1) if low else None
        else:
            asked, sep = batched.separator_finder(adj, level)(u, v, cand)
            got = None if sep is None else subsets.index(sep)
            assert asked == (len(subsets) if got is None else got + 1)
        assert got == want
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
    partials = PartialCorrelations(sigma)
    if variant == "fisher_z":
        config = TestConfig("fisher_z", alpha=10.0 ** (-7.0 * cutoff - 0.5))
    elif variant == "boundary" and not math.isnan(partials.pair_marginal[-1]):
        # a cutoff equal to one |r(u, v | {})|, of the pair (p - 2, p - 1): that pair is independent
        config = TestConfig("threshold", gamma=partials.pair_marginal[-1])
    else:
        config = TestConfig("threshold", gamma=cutoff)
    batched = RankCiDecider(sigma, n, config)
    looped = RankCiDecider(sigma, n, config)
    for _ in range(2):
        assert batched.marginally_independent(p) == CiDecider.marginally_independent(looped, p)
        assert batched.warnings == looped.warnings  # a NaN pair warned twice, in pair order
    with pytest.raises(ValueError):
        batched.marginally_independent(p - 1)


def test_marginally_independent_reads_either_pair_order():
    sigma = np.array([[1.0, 0.05, 0.6], [0.05, 1.0, 0.2], [0.6, 0.2, 1.0]])
    dec = RankCiDecider(sigma, 100, TestConfig("fisher_z", alpha=0.05))
    assert dec.decide(1, 0, ())
    assert dec.marginally_independent(3) == [True, False, False]  # pairs (0, 1), (0, 2), (1, 2)
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


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: gamma_threshold(100, -1, 1.0), ValueError, "conditioning size must be a nonnegative integer, got -1"),
        (lambda: CiDecider().decide(0, 1, ()), NotImplementedError, ""),  # a subclass answers queries
    ],
    ids=["gamma_negative_size", "base_decide"],
)
def test_citest_input_checks(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
