from dataclasses import replace

import numpy as np
import pytest
from numpy.linalg import _umath_linalg
from hypothesis import given, settings, strategies as st

import rankpc.partial
from rankpc.citest import CiDecider, OracleDecider, RankCiDecider, TestConfig
from rankpc.cli import cmd_oracle_check
from rankpc.correlation import estimate_correlation_matrix
from rankpc.experiment import ExperimentConfig, run_experiment
from rankpc.graph import Dag, EdgeState, Pdag, cpdag, meek_closure, skeleton
from rankpc.partial import PartialCorrelations
from rankpc.pc import PcResult, orient_colliders, pc_result_to_text, pc_skeleton, run_pc
from rankpc.simulate import SemModel, random_dag, random_weights, sample_sem

from oracles import naive_pc_skeleton, random_correlation, random_dag_edges, set_orient_colliders
from test_citest import NONPD_BLOCK


CHAIN = Dag(3, [(0, 1), (1, 2)])
COLLIDER = Dag(3, [(0, 1), (2, 1)])


def test_skeleton_chain_records_sepset():
    res = pc_skeleton(OracleDecider(CHAIN), 3)
    assert res.edges == {(0, 1), (1, 2)}
    assert res.sepsets == {(0, 2): (1,)}
    # both sides of each surviving pair contribute queries at every level
    assert res.tests_run == 10
    assert res.max_cond_used == 1


def test_skeleton_empty_graph_separates_everything_marginally():
    res = pc_skeleton(OracleDecider(Dag(4)), 4)
    assert res.edges == set()
    assert set(res.sepsets) == {(u, v) for u in range(4) for v in range(u + 1, 4)}
    assert all(s == () for s in res.sepsets.values())
    assert res.max_cond_used == 0


def test_skeleton_complete_dag_keeps_all_edges():
    full = Dag(3, [(0, 1), (0, 2), (1, 2)])
    res = pc_skeleton(OracleDecider(full), 3)
    assert res.edges == {(0, 1), (0, 2), (1, 2)}
    assert res.sepsets == {}


def test_skeleton_sepsets_exactly_for_removed_pairs():
    rng = np.random.default_rng(83)
    for _ in range(20):
        dag = random_dag_edges(rng, 6, 0.4)
        res = pc_skeleton(OracleDecider(dag), 6)
        all_pairs = {(u, v) for u in range(6) for v in range(u + 1, 6)}
        assert set(res.sepsets) == all_pairs - res.edges
        assert res.edges == skeleton(dag)


def test_skeleton_respects_max_cond():
    res = pc_skeleton(OracleDecider(CHAIN), 3, max_cond=0)
    assert res.edges == {(0, 1), (0, 2), (1, 2)}
    assert res.max_cond_used == 0


def test_skeleton_respects_decider_cap():
    class CappedOracle(OracleDecider):
        max_cond_size = 0

    res = pc_skeleton(CappedOracle(CHAIN), 3)
    assert res.edges == {(0, 1), (0, 2), (1, 2)}
    assert res.max_cond_used == 0


def test_skeleton_validates_arguments():
    with pytest.raises(ValueError):
        pc_skeleton(OracleDecider(CHAIN), 0)
    with pytest.raises(ValueError):
        pc_skeleton(OracleDecider(CHAIN), 3, max_cond=-1)


class LoggedOracle(OracleDecider):
    """Records every query, to compare the calls two searches make."""

    def __init__(self, dag):
        super().__init__(dag)
        self.calls = []

    def decide(self, u, v, s=()):
        self.calls.append((u, v, tuple(s)))
        return super().decide(u, v, s)


def _skeleton_decider(kind, seed, p, degenerate, n, cutoff):
    rng = np.random.default_rng(seed)
    if kind == "oracle":
        return LoggedOracle(random_dag_edges(rng, p, cutoff))
    sigma = random_correlation(rng, p)
    if degenerate == "nonpd" and p >= 3:
        sigma[:3, :3] = NONPD_BLOCK
    elif degenerate == "unit" and p >= 2:
        sigma[0, 1] = sigma[1, 0] = 1.0
    if kind == "fisher_z":
        config = TestConfig("fisher_z", alpha=10.0 ** (-7.0 * cutoff - 0.5))
    else:
        config = TestConfig("threshold", gamma=cutoff)
    return RankCiDecider(sigma, n, config)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["fisher_z", "threshold", "oracle"]),
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 8),
    degenerate=st.sampled_from([None, "nonpd", "unit"]),
    n=st.one_of(st.integers(3, 8), st.integers(20, 1000)),  # fisher_z: max_cond_size = n - 4
    cutoff=st.floats(0.0, 1.0),
    stable=st.booleans(),
    max_cond=st.sampled_from([None, 0, 1, 2]),
)
def test_skeleton_matches_naive_oracle(kind, seed, p, degenerate, n, cutoff, stable, max_cond):
    args = (kind, seed, p, degenerate, n, cutoff)
    fast, naive = _skeleton_decider(*args), _skeleton_decider(*args)
    got = pc_skeleton(fast, p, max_cond=max_cond, stable=stable)
    want = naive_pc_skeleton(naive, p, max_cond=max_cond, stable=stable)
    assert got.edges == want.edges
    assert got.sepsets == want.sepsets
    assert got.tests_run == want.tests_run
    assert got.max_cond_used == want.max_cond_used
    assert fast.warnings == naive.warnings
    assert getattr(fast, "calls", None) == getattr(naive, "calls", None)


class PerQueryRankDecider(RankCiDecider):
    """The rank decider without the level-1 mask sweep or the tables of levels >= 2: no masks, so
    every level from 1 up goes through the base ``separator_finder``, one ``decide`` call per
    subset, each its own kernel call."""

    level_one_masks = CiDecider.level_one_masks
    separator_finder = CiDecider.separator_finder


class DecideOnly(CiDecider):
    """A decider that defines only ``decide``, answered by ``inner`` and counted: every level of
    skeleton search reaches it through the base class's per-query walk."""

    def __init__(self, inner: CiDecider):
        super().__init__()
        self.inner, self.warnings, self.max_cond_size, self.calls = inner, inner.warnings, inner.max_cond_size, 0

    def decide(self, u, v, s=()):
        self.calls += 1
        return self.inner.decide(u, v, s)


def _seed0_p60_spearman():
    """A Spearman matrix of f11 data, p=60 and n=1000, whose search reaches level 2 and above."""
    rng = np.random.default_rng(0)
    dag = random_dag(60, 3.0 / 59, rng)
    data = sample_sem(SemModel(dag, random_weights(dag, rng), transform="f11"), 1000, rng)
    return estimate_correlation_matrix(data, "spearman"), data


@pytest.mark.parametrize("stable", [False, True])
def test_level_tables_same_result_fewer_kernel_calls(monkeypatch, stable):
    sigma, data = _seed0_p60_spearman()
    calls = []
    kernel = rankpc.partial.partial_corr_batch

    def counted(mat, idx):
        calls.append(len(idx))
        return kernel(mat, idx)

    builds = []  # (kernel calls, rows) of each table build
    table = PartialCorrelations.table

    def spied(self, adj, level):
        before = len(calls)
        built = table(self, adj, level)
        if len(calls) > before:
            builds.append((len(calls) - before, len(built.abs_r)))
        return built

    monkeypatch.setattr(rankpc.partial, "partial_corr_batch", counted)
    monkeypatch.setattr(PartialCorrelations, "table", spied)

    def learn(cls):
        calls.clear()
        result = run_pc(cls(sigma, data.n, TestConfig("fisher_z", alpha=0.01)), 60, stable=stable)
        return result, list(calls)

    (fast, fast_calls), (slow, slow_calls) = learn(RankCiDecider), learn(PerQueryRankDecider)
    assert fast == slow  # pdag, sepsets, tests_run, max_cond_used and warnings
    assert fast.max_cond_used >= 2
    assert len(fast_calls) <= 0.6 * len(slow_calls)
    assert max(fast_calls) <= 4096
    assert builds and sum(n for n, _ in builds) == len(fast_calls)  # every kernel call builds a table
    assert all(n <= -(-rows // 4096) for n, rows in builds)


@pytest.mark.parametrize("stable", [False, True])
def test_rank_level_one_reads_masks_without_a_finder(monkeypatch, stable):
    # level 1 of the rank decider is read inline from level_one_masks; a finder built for it
    # costs a closure call per direction
    sigma, data = _seed0_p60_spearman()
    levels = []
    finder = RankCiDecider.separator_finder

    def spied(self, adj, level):
        levels.append(level)
        return finder(self, adj, level)

    monkeypatch.setattr(RankCiDecider, "separator_finder", spied)
    got = run_pc(RankCiDecider(sigma, data.n, TestConfig("fisher_z", alpha=0.01)), 60, stable=stable)
    assert got.max_cond_used >= 2
    assert levels == list(range(2, got.max_cond_used + 1))


def test_level_one_warns_only_below_the_separator():
    # r(0, 1 | 2) = 0, while the submatrix over {0, 1, 3} is not positive definite
    sigma = np.array([[1, 0.64, 0.8, 0.9], [0.64, 1, 0.8, -0.9], [0.8, 0.8, 1, 0], [0.9, -0.9, 0, 1]])
    config = TestConfig("fisher_z", alpha=0.01)
    got = run_pc(RankCiDecider(sigma, 1000, config), 4)
    assert got == run_pc(PerQueryRankDecider(sigma, 1000, config), 4)
    assert got.sepsets[(0, 1)] == (2,)
    assert got.warnings and not any("(0, 1 | (3,))" in w for w in got.warnings)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(3, 10),
    degenerate=st.sampled_from([None, "nonpd", "unit", "both"]),
    variant=st.sampled_from(["fisher_z", "threshold"]),
    n=st.integers(20, 1000),
    cutoff=st.floats(0.0, 1.0),
    max_cond=st.sampled_from([None, 1, 2, 3]),
)
def test_closed_form_levels_match_per_query_decider(seed, p, degenerate, variant, n, cutoff, max_cond):
    # levels 0 to 2 answered in bulk from the marginal, level-1 and level-2 tables, against one
    # decide call per subset, on matrices with non-PD and unit submatrices.  A decider that defines
    # only decide gets the same result, warnings in order, from exactly tests_run decide calls:
    # the contract perfbench's traced decider relies on
    rng = np.random.default_rng(seed)
    sigma = random_correlation(rng, p)
    if degenerate in ("nonpd", "both"):
        block = rng.choice(p, 3, replace=False)
        sigma[np.ix_(block, block)] = NONPD_BLOCK
    if degenerate in ("unit", "both"):
        u, v = rng.choice(p, 2, replace=False)
        sigma[u, v] = sigma[v, u] = 1.0
    if variant == "fisher_z":
        config = TestConfig("fisher_z", alpha=10.0 ** (-7.0 * cutoff - 0.5))
    else:
        config = TestConfig("threshold", gamma=cutoff)
    for stable in (False, True):
        got = run_pc(RankCiDecider(sigma, n, config), p, max_cond=max_cond, stable=stable)
        assert got == run_pc(PerQueryRankDecider(sigma, n, config), p, max_cond=max_cond, stable=stable)
        decider = DecideOnly(RankCiDecider(sigma, n, config))
        assert got == run_pc(decider, p, max_cond=max_cond, stable=stable)  # pdag, sepsets, counts, warnings
        assert decider.calls == got.tests_run


@pytest.mark.parametrize("stable", [False, True])
def test_sparse_first_shared_tables_match_fresh_deciders(stable):
    # Sparsest alpha first, so each denser fit finds some pairs' level-1 rows
    # filled only for the neighbours an earlier fit had.
    sigma = random_correlation(np.random.default_rng(5), 12)
    sigma[:3, :3] = NONPD_BLOCK
    partials = PartialCorrelations(sigma)
    for alpha in (1e-9, 1e-6, 1e-4, 1e-2, 0.2):
        config = TestConfig("fisher_z", alpha=alpha)
        shared = run_pc(RankCiDecider(partials, 60, config), 12, stable=stable)
        assert shared == run_pc(RankCiDecider(sigma, 60, config), 12, stable=stable)


@pytest.mark.parametrize("stable", [False, True])
def test_shared_level_two_table_reused_and_rebuilt(monkeypatch, stable):
    # Densest alpha first, each later level-2 graph lies inside the first and reads its table;
    # sparsest first, denser graphs need new tables.  Levels 0 to 2 factorize nothing.
    sigma = random_correlation(np.random.default_rng(1), 12)
    sigma[:3, :3] = NONPD_BLOCK
    cholesky, built = [], []
    factor = _umath_linalg.cholesky_lo

    def counted(mats, **kwargs):
        cholesky.append(mats.shape[-1])
        return factor(mats, **kwargs)

    table = PartialCorrelations.table

    def spied(self, adj, level):
        old = self._tables.get(level)
        got = table(self, adj, level)
        if self is partials and level == 2:
            built.append(got is not old)
        return got

    monkeypatch.setattr(_umath_linalg, "cholesky_lo", counted)
    monkeypatch.setattr(PartialCorrelations, "table", spied)
    alphas = [1e-9, 1e-6, 1e-4, 1e-2, 0.2]
    for order in (alphas[::-1], alphas):
        partials = PartialCorrelations(sigma)
        built.clear()
        for alpha in order:
            config = TestConfig("fisher_z", alpha=alpha)
            shared = run_pc(RankCiDecider(partials, 60, config), 12, stable=stable)
            assert shared == run_pc(RankCiDecider(sigma, 60, config), 12, stable=stable)
            assert shared == run_pc(PerQueryRankDecider(sigma, 60, config), 12, stable=stable)
        assert built[0] and not all(built)  # a build, then a reuse
        if order == alphas:
            assert any(built[1:])  # and a rebuild
        else:
            assert not any(built[1:])
    assert cholesky and min(cholesky) >= 5  # |S| >= 3 only
    cholesky.clear()
    shallow = run_pc(RankCiDecider(sigma, 60, TestConfig("fisher_z", alpha=0.2)), 12, max_cond=2, stable=stable)
    assert shallow.max_cond_used == 2 and cholesky == []


def test_run_pc_unit_correlation_keeps_the_pair():
    sigma = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    res = run_pc(RankCiDecider(sigma, 100, TestConfig("fisher_z", alpha=0.05)), 3)
    assert res.pdag == Pdag(3, {(0, 1): EdgeState.UNDIRECTED})
    assert res.sepsets == {(0, 2): (), (1, 2): ()}
    assert len(res.warnings) == 2
    assert all(w.startswith("dependent by default for (0, 1 | ()): ") for w in res.warnings)


def test_orient_colliders_chain_all_undirected():
    states, warnings = orient_colliders({(0, 1), (1, 2)}, {(0, 2): (1,)}, 3)
    assert states == {(0, 1): EdgeState.UNDIRECTED, (1, 2): EdgeState.UNDIRECTED}
    assert warnings == []


def test_orient_colliders_empty_sepset_makes_collider():
    states, warnings = orient_colliders({(0, 1), (1, 2)}, {(0, 2): ()}, 3)
    assert states[(0, 1)] == EdgeState.FORWARD
    assert states[(1, 2)] == EdgeState.BACKWARD
    assert warnings == []


def test_orient_colliders_triangle_untouched():
    edges = {(0, 1), (0, 2), (1, 2)}
    states, warnings = orient_colliders(edges, {}, 3)
    assert all(st == EdgeState.UNDIRECTED for st in states.values())
    assert warnings == []


def test_orient_colliders_conflict_logged_last_write_wins():
    edges = {(0, 1), (1, 2), (0, 3)}
    sepsets = {(0, 2): (), (1, 3): ()}
    states, warnings = orient_colliders(edges, sepsets, 4)
    assert len(warnings) == 1
    assert "conflict" in warnings[0]
    assert states[(0, 1)] == EdgeState.BACKWARD  # the later triple re-aimed it
    assert states[(1, 2)] == EdgeState.BACKWARD
    assert states[(0, 3)] == EdgeState.BACKWARD


def test_orient_colliders_warns_in_pair_order():
    # every nonadjacent pair separated by the empty set: six conflicts, two of them from u = 1
    edges = {(0, 3), (1, 2), (1, 5), (2, 3), (3, 4), (3, 5)}
    sepsets = {(u, w): () for u in range(6) for w in range(u + 1, 6) if (u, w) not in edges}
    states, warnings = orient_colliders(edges, sepsets, 6)
    want_states, want_warnings = set_orient_colliders(edges, sepsets, 6)
    assert states == want_states and list(states) == sorted(states)
    assert len(warnings) == 6 and warnings == want_warnings


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=st.integers(1, 10))
def test_orient_colliders_matches_set_based_loop(data, p):
    pairs = [(u, v) for u in range(p) for v in range(u + 1, p)]
    flags = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = {pair for pair, on in zip(pairs, flags) if on}
    # sepsets on nonadjacent and adjacent pairs alike, often holding common neighbours
    keys = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    sepsets = {}
    for u, w in keys:
        others = [x for x in range(p) if x not in (u, w)]
        chosen = data.draw(st.sets(st.sampled_from(others))) if others else set()
        sepsets[(u, w)] = tuple(sorted(chosen))
    states, warnings = orient_colliders(edges, sepsets, p)
    want_states, want_warnings = set_orient_colliders(edges, sepsets, p)
    assert states == want_states and list(states) == sorted(states)
    assert warnings == want_warnings


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 10),
    nonpd=st.booleans(),
    n=st.integers(20, 1000),
    cutoff=st.floats(0.0, 1.0),
)
def test_run_pc_matches_public_orientation_route(seed, p, nonpd, n, cutoff):
    # run_pc orients on one bitmask state; the public route is orient_colliders, then meek_closure
    rng = np.random.default_rng(seed)
    sigma = random_correlation(rng, p)
    if nonpd and p >= 3:
        block = rng.choice(p, 3, replace=False)
        sigma[np.ix_(block, block)] = NONPD_BLOCK
    config = TestConfig("fisher_z", alpha=10.0 ** (-7.0 * cutoff - 0.5))
    for stable in (False, True):
        got = run_pc(RankCiDecider(sigma, n, config), p, stable=stable)
        decider = RankCiDecider(sigma, n, config)
        skel = pc_skeleton(decider, p, stable=stable)
        states, conflicts = orient_colliders(skel.edges, skel.sepsets, p)
        want = meek_closure(Pdag(p, states))
        assert list(got.pdag.pair_states().items()) == list(want.pair_states().items())
        assert got.warnings == decider.warnings + conflicts


def test_run_pc_chain_gives_undirected_chain():
    res = run_pc(OracleDecider(CHAIN), 3)
    assert res.pdag == cpdag(CHAIN)
    assert res.pdag.pair_states() == {(0, 1): EdgeState.UNDIRECTED, (1, 2): EdgeState.UNDIRECTED}


def test_run_pc_collider_preserved():
    res = run_pc(OracleDecider(COLLIDER), 3)
    assert res.pdag == cpdag(COLLIDER)
    assert res.pdag.state(0, 1) == EdgeState.FORWARD and res.pdag.state(2, 1) == EdgeState.FORWARD


def test_run_pc_empty_graph():
    res = run_pc(OracleDecider(Dag(3)), 3)
    assert res.pdag == Pdag(3, {})
    assert res.warnings == []


def test_run_pc_single_node():
    res = run_pc(OracleDecider(Dag(1)), 1)
    assert res.pdag == Pdag(1, {})
    assert res.tests_run == 0
    assert res.max_cond_used == -1


def test_run_pc_deterministic():
    rng = np.random.default_rng(89)
    for _ in range(10):
        dag = random_dag_edges(rng, 6, 0.4)
        a = run_pc(OracleDecider(dag), 6)
        b = run_pc(OracleDecider(dag), 6)
        assert a.pdag == b.pdag
        assert a.sepsets == b.sepsets
        assert a.tests_run == b.tests_run
        assert a.max_cond_used == b.max_cond_used
        assert a.warnings == b.warnings


def test_run_pc_stable_variant_matches_oracle_truth():
    rng = np.random.default_rng(97)
    for _ in range(20):
        dag = random_dag_edges(rng, 6, 0.4)
        res = run_pc(OracleDecider(dag), 6, stable=True)
        assert res.pdag == cpdag(dag)


def test_run_pc_propagates_decider_warnings():
    sigma = np.array(
        [
            [1.0, 0.9, -0.9],
            [0.9, 1.0, 0.9],
            [-0.9, 0.9, 1.0],
        ]
    )
    dec = RankCiDecider(sigma, 100, TestConfig("fisher_z", alpha=0.05))
    res = run_pc(dec, 3)
    assert res.warnings
    assert all("dependent by default" in w for w in res.warnings)
    assert len(res.pdag.pair_states()) == 3  # nothing could be removed


def test_pc_result_to_text_layout():
    res = run_pc(OracleDecider(COLLIDER), 3)
    text = pc_result_to_text(res)
    lines = text.splitlines()
    assert lines[0] == "p=3"
    assert "0 -> 1" in lines and "2 -> 1" in lines
    assert f"tests_run={res.tests_run}" in lines
    assert f"max_cond_used={res.max_cond_used}" in lines
    assert "warnings=0" in lines
    assert text.endswith("\n")


def test_run_pc_with_threshold_decider_on_exact_sigma():
    # feeding the true correlation matrix with a small cutoff recovers truth
    from rankpc.simulate import implied_covariance, random_dag, random_weights, SemModel

    rng = np.random.default_rng(101)
    for _ in range(5):
        dag = random_dag(5, 0.4, rng)
        model = SemModel(dag, random_weights(dag, rng), "standard_normal", "identity")
        sigma = implied_covariance(model)
        dec = RankCiDecider(sigma, 1000, TestConfig("threshold", gamma=1e-7))
        res = run_pc(dec, 5)
        assert res.pdag == cpdag(dag), dag


def _count_sites():
    """Each entry point that takes a count: (call of the count, what it counts, its kind, a good count)."""
    dag = Dag(4, [(0, 1), (2, 1), (1, 3)])
    model = SemModel(dag, random_weights(dag, np.random.default_rng(3)))
    tiny = ExperimentConfig(p_values=(4,), n_values=(50,), degree=1.0, methods=("spearman",),
                            alpha_log10=(-2.0,), replicates=1)

    def decider(n):
        dec = RankCiDecider(np.eye(3), n, TestConfig("fisher_z", alpha=0.05))
        return dec.cutoffs, dec.max_cond_size

    def fit(p):
        res = run_pc(OracleDecider(dag), p)
        return res.pdag, type(res.pdag.p)

    return {
        "Dag": (lambda k: (Dag(k, [(0, 1)]), type(Dag(k).p)), "node count", "positive", 3),
        "Pdag": (lambda k: (Pdag(k, {(0, 1): EdgeState.UNDIRECTED}), type(Pdag(k).p)), "node count", "positive", 3),
        "pc_skeleton.p": (lambda k: pc_skeleton(OracleDecider(dag), k), "node count", "positive", 4),
        "pc_skeleton.max_cond": (
            lambda k: pc_skeleton(OracleDecider(dag), 4, max_cond=k), "max_cond", "nonnegative", 1,
        ),
        "run_pc": (fit, "node count", "positive", 4),
        "random_dag": (lambda k: random_dag(k, 0.5, np.random.default_rng(0)), "node count", "positive", 5),
        "sample_sem": (
            lambda k: sample_sem(model, k, np.random.default_rng(0)).values.tobytes(), "sample size", "positive", 9,
        ),
        "RankCiDecider": (decider, "sample size", "positive", 100),
        "run_experiment": (
            lambda k: [replace(r, runtime_ms=0.0) for r in run_experiment(tiny, threads=k).records],
            "threads", "positive", 1,
        ),
        "cmd_oracle_check": (lambda k: cmd_oracle_check(4, k, seed=0), "trials", "nonnegative", 3),
    }


@pytest.mark.parametrize("site", list(_count_sites()))
def test_every_count_takes_numpy_integers_and_rejects_the_rest(site):
    # one rule, graph._count: any integral type but bool, read as the equal int
    call, what, kind, good = _count_sites()[site]
    want = call(good)
    assert call(np.int64(good)) == want
    assert call(np.int32(good)) == want
    for bad in (True, 2.5, "3"):
        with pytest.raises(ValueError) as exc:
            call(bad)
        assert str(exc.value) == f"{what} must be a {kind} integer, got {bad!r}"
