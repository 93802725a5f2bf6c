from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankpc.graph import (
    Dag,
    EdgeState,
    Pdag,
    cpdag,
    d_separated,
    d_separated_sets,
    dag_from_text,
    dag_to_text,
    degree,
    meek_closure,
    node_set,
    pdag_from_text,
    pdag_to_text,
    shd,
    skeleton,
    unshielded_colliders,
)

from oracles import (
    _collider_triples,
    cpdag_by_enumeration,
    cyclic_by_permutations,
    dsep_by_paths,
    kahn_order_by_lists,
    random_dag_edges,
    rebuilding_meek_fixpoint,
    shd_by_pairs,
)


CHAIN = Dag(3, [(0, 1), (1, 2)])
COLLIDER = Dag(3, [(0, 1), (2, 1)])


def test_dag_rejects_cycles_and_duplicates():
    with pytest.raises(ValueError, match="directed cycle"):
        Dag(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError, match="multiple edges between 0 and 1"):
        Dag(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="multiple edges between 0 and 1"):
        Dag(3, [(1, 0), (1, 0)])
    with pytest.raises(ValueError, match="self-loop at node 0"):
        Dag(2, [(0, 0)])
    with pytest.raises(ValueError, match=r"edge \(0, 5\) out of range for p=2"):
        Dag(2, [(0, 5)])
    with pytest.raises(TypeError):
        Dag(2, [(0.0, 1)])


def test_dag_accessors():
    d = Dag(4, [(0, 2), (1, 2), (2, 3)])
    assert d.parents(2) == (0, 1)
    assert d.children(2) == (3,)
    assert d.neighbors(2) == (0, 1, 3)
    assert (0, 2) in d.edges and (2, 0) not in d.edges
    assert d.is_adjacent(2, 0)
    topo = d.topological_order()
    assert topo.index(0) < topo.index(2) < topo.index(3)


def test_dag_accessors_reject_nodes_out_of_range():
    # a negative node must not alias one from the end: Dag(3, [(0, 2)]).parents(-1) is not (0,)
    d = Dag(3, [(0, 2)])
    for bad in (-1, -3, 3, 7, np.int64(-1), np.int64(3)):
        for read in (d.parents, d.children, d.neighbors):
            with pytest.raises(ValueError, match="out of range for p=3"):
                read(bad)
        for u, v in ((0, bad), (bad, 0)):
            with pytest.raises(ValueError, match="out of range for p=3"):
                d.is_adjacent(u, v)
    with pytest.raises(TypeError):
        d.parents(1.0)
    wide = Dag(70, [(0, 69), (64, 69)])
    assert wide.parents(np.int64(69)) == (0, 64) and wide.children(np.int64(64)) == (69,)
    assert wide.neighbors(np.int64(0)) == (69,) and wide.is_adjacent(np.int64(69), np.int64(64))
    assert not wide.is_adjacent(np.int64(0), np.int64(64))
    assert all(type(x) is int for x in wide.parents(np.int64(69)))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), p=st.integers(1, 90), s=st.sampled_from([0.02, 0.1, 0.3, 0.7])
)
def test_dag_readers_match_edge_definitions(seed, p, s):
    # relabelled, so edges run both ways between labels; p crosses 64 bits
    rng = np.random.default_rng(seed)
    perm = rng.permutation(p).tolist()
    edges = sorted((perm[u], perm[v]) for u, v in random_dag_edges(rng, p, s).edges)
    dag = Dag(p, [edges[i] for i in rng.permutation(len(edges))])
    assert dag.edges == frozenset(edges)
    for v in range(p):
        pa = tuple(sorted(u for u, w in edges if w == v))
        ch = tuple(sorted(w for u, w in edges if u == v))
        assert (dag.parents(v), dag.children(v)) == (pa, ch)
        assert dag.neighbors(v) == tuple(sorted(pa + ch))
        assert all(dag.is_adjacent(v, w) == (w in pa or w in ch) for w in range(p))
    assert degree(dag) == max(sum(v in e for e in edges) for v in range(p))
    assert skeleton(dag) == {(min(e), max(e)) for e in edges}
    assert unshielded_colliders(dag) == _collider_triples(p, edges)
    assert list(dag.topological_order()) == kahn_order_by_lists(dag)


def test_dag_accepts_numpy_endpoints_past_bit_63():
    rng = np.random.default_rng(8)
    p = 70
    perm = rng.permutation(p).tolist()
    edges = [(perm[u], perm[v]) for u, v in random_dag_edges(rng, p, 0.06).edges]
    assert sum(max(e) >= 64 for e in edges) > 10
    ints = Dag(p, edges)
    nps = Dag(p, [(np.int64(u), np.int64(v)) for u, v in edges])
    assert nps == ints and nps.topological_order() == ints.topological_order()
    for v in range(p):
        assert nps.parents(v) == ints.parents(v) and nps.children(v) == ints.children(v)
        assert all(type(x) is int for x in nps.parents(v) + nps.children(v))
    assert all(nps.is_adjacent(np.int64(u), np.int64(v)) for u, v in edges)
    assert Dag(p, [(np.int64(0), np.int64(69))]).parents(69) == (0,)
    assert cpdag(nps) == cpdag(ints)
    for _ in range(200):
        u, v, *cond = rng.choice(p, 2 + int(rng.integers(0, 4)), replace=False).tolist()
        assert d_separated(nps, u, v, cond) == d_separated(ints, u, v, cond)
        assert d_separated(nps, np.int64(u), np.int64(v), np.array(cond, dtype=np.int64)) == (
            d_separated(ints, u, v, cond)
        )


def test_degree_star():
    star = Dag(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert degree(star) == 4
    assert degree(Dag(3)) == 0


def test_skeleton_and_colliders():
    assert skeleton(COLLIDER) == {(0, 1), (1, 2)}
    assert unshielded_colliders(COLLIDER) == {(0, 1, 2)}
    assert unshielded_colliders(CHAIN) == set()
    shielded = Dag(3, [(0, 1), (2, 1), (0, 2)])
    assert unshielded_colliders(shielded) == set()


def test_d_separation_basic_patterns():
    # chain and fork block through the middle node; collider is the reverse
    assert not d_separated(CHAIN, 0, 2)
    assert d_separated(CHAIN, 0, 2, [1])
    fork = Dag(3, [(1, 0), (1, 2)])
    assert not d_separated(fork, 0, 2)
    assert d_separated(fork, 0, 2, [1])
    assert d_separated(COLLIDER, 0, 2)
    assert not d_separated(COLLIDER, 0, 2, [1])
    assert d_separated(CHAIN, np.int64(0), np.int64(2), [np.int64(1)])


def test_d_separation_collider_descendant_opens_path():
    d = Dag(4, [(0, 1), (2, 1), (1, 3)])
    assert d_separated(d, 0, 2)
    assert not d_separated(d, 0, 2, [3])


def test_d_separation_validates_arguments():
    with pytest.raises(ValueError):
        d_separated(CHAIN, 0, 0)
    with pytest.raises(ValueError):
        d_separated(CHAIN, 0, 2, [0])
    with pytest.raises(ValueError):
        d_separated_sets(CHAIN, [0], [1], [0])


def test_d_separation_matches_path_enumeration():
    rng = np.random.default_rng(5)
    checked = set_checked = 0
    for _ in range(40):
        p = int(rng.integers(3, 8))
        dag = random_dag_edges(rng, p, float(rng.choice((0.3, 0.5))))
        want = {}  # (u, v, s) -> the path oracle, for every pair u < v and every s
        for u in range(p):
            for v in range(u + 1, p):
                rest = [w for w in range(p) if w not in (u, v)]
                for size in range(len(rest) + 1):
                    for s in combinations(rest, size):
                        got = d_separated(dag, u, v, s)
                        want[u, v, s] = dsep_by_paths(dag, u, v, s)
                        assert got == want[u, v, s], (dag, u, v, s)
                        assert d_separated(dag, v, u, s) == got
                        checked += 1
        # sets: separated exactly when every pair across them is, given the same s
        for _ in range(60):
            role = rng.integers(0, 4, p)  # 0: in a, 1: in b, 2: in s, 3: none
            a, b, s = (tuple(np.flatnonzero(role == k).tolist()) for k in range(3))
            if not a or not b:
                continue
            pairwise = all(want[min(x, y), max(x, y), s] for x in a for y in b)
            assert d_separated_sets(dag, a, b, s) == d_separated_sets(dag, b, a, s) == pairwise
            set_checked += len(a) > 1 or len(b) > 1
    assert checked > 2000 and set_checked > 500


def test_d_separated_sets_matches_pairwise_closure():
    dag = Dag(5, [(0, 1), (1, 2), (3, 2), (3, 4)])
    assert d_separated_sets(dag, [0], [3, 4], [])
    assert not d_separated_sets(dag, [0], [3, 4], [2])


def test_markov_equivalence_of_chain_orientations():
    a = Dag(3, [(0, 1), (1, 2)])
    b = Dag(3, [(1, 0), (1, 2)])
    c = Dag(3, [(2, 1), (1, 0)])
    for other in (b, c):
        assert cpdag(a) == cpdag(other)
    assert cpdag(a) != cpdag(COLLIDER)
    assert cpdag(a) != cpdag(Dag(3, [(0, 1)]))


def test_markov_equivalence_iff_same_cpdag():
    rng = np.random.default_rng(17)
    for _ in range(60):
        p = int(rng.integers(2, 6))
        a = random_dag_edges(rng, p, 0.4)
        b = random_dag_edges(rng, p, 0.4)
        # the Verma-Pearl characterization: same skeleton and same unshielded colliders
        same = skeleton(a) == skeleton(b) and unshielded_colliders(a) == unshielded_colliders(b)
        assert same == (cpdag(a) == cpdag(b))


def test_cpdag_of_chain_is_fully_undirected():
    got = cpdag(CHAIN)
    assert got == Pdag(3, {(0, 1): EdgeState.UNDIRECTED, (1, 2): EdgeState.UNDIRECTED})


def test_cpdag_keeps_collider_directed():
    got = cpdag(COLLIDER)
    assert got.state(0, 1) == EdgeState.FORWARD
    assert got.state(2, 1) == EdgeState.FORWARD


def test_cpdag_matches_enumeration_oracle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        p = int(rng.integers(2, 8))
        dag = random_dag_edges(rng, p, float(rng.choice((0.2, 0.4, 0.6))))
        got = cpdag(dag)
        assert got == cpdag_by_enumeration(dag), dag
        assert not got.has_directed_cycle()


def test_meek_rule_one_orients_away_from_collider_shadow():
    # 0 -> 1 - 2 with 0, 2 nonadjacent: 1 -> 2 is forced
    start = Pdag(3, {(0, 1): EdgeState.FORWARD, (1, 2): EdgeState.UNDIRECTED})
    closed = meek_closure(start)
    assert closed.state(1, 2) == EdgeState.FORWARD


def test_meek_closure_leaves_tree_untouched():
    states = {(0, 1): EdgeState.UNDIRECTED, (1, 2): EdgeState.UNDIRECTED}
    tree = Pdag(3, states)
    assert meek_closure(tree) == tree


def test_meek_rule_two_closes_triangle_path():
    # 0 -> 1 -> 2 plus undirected 0 - 2: orienting 2 -> 0 would cycle
    start = Pdag(
        3,
        {
            (0, 1): EdgeState.FORWARD,
            (1, 2): EdgeState.FORWARD,
            (0, 2): EdgeState.UNDIRECTED,
        },
    )
    closed = meek_closure(start)
    assert closed.state(0, 2) == EdgeState.FORWARD


@settings(max_examples=400, deadline=None)
@given(data=st.data(), p=st.integers(1, 10))
def test_meek_fixpoint_matches_rebuilding_loop(data, p):
    # arbitrary states, so cyclic and conflicting inputs too, in arbitrary key order
    pairs = list(combinations(range(p), 2))
    kinds = data.draw(
        st.lists(
            st.sampled_from([None, EdgeState.UNDIRECTED, EdgeState.FORWARD, EdgeState.BACKWARD]),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    order = data.draw(st.permutations(range(len(pairs))))
    states = {pairs[i]: kinds[i] for i in order if kinds[i] is not None}
    want = dict(states)
    rebuilding_meek_fixpoint(want, p)
    assert meek_closure(Pdag(p, states)).pair_states() == want


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=st.integers(1, 7))
def test_directed_cycle_and_text_round_trip_match_oracle(data, p):
    # the bitmask readers against the input dicts: None leaves a pair out, ABSENT lists it as absent
    pairs = list(combinations(range(p), 2))

    def draw_states():
        kinds = data.draw(
            st.lists(st.sampled_from([None, *EdgeState]), min_size=len(pairs), max_size=len(pairs))
        )
        order = data.draw(st.permutations(range(len(pairs))))
        return {pairs[i]: kinds[i] for i in order if kinds[i] is not None}

    states, other = draw_states(), draw_states()
    g, h = Pdag(p, states), Pdag(p, other)
    assert g.has_directed_cycle() == cyclic_by_permutations(states, p)
    assert pdag_from_text(pdag_to_text(g)) == g
    want = {pair: states[pair] for pair in sorted(states) if states[pair] != EdgeState.ABSENT}
    assert list(g.pair_states().items()) == list(want.items())
    flip = {EdgeState.FORWARD: EdgeState.BACKWARD, EdgeState.BACKWARD: EdgeState.FORWARD}
    for u, v in pairs:
        st_uv = states.get((u, v), EdgeState.ABSENT)
        assert (g.state(u, v), g.state(v, u)) == (st_uv, flip.get(st_uv, st_uv))
    assert g == Pdag(p, dict(reversed(states.items()))) == Pdag(p, want)
    dist = shd_by_pairs(states, other)
    assert shd(g, h) == shd(h, g) == dist
    assert (g == h) == (dist == 0)


def test_shd_frozen_example():
    assert shd(cpdag(CHAIN), cpdag(COLLIDER)) == 2


def test_shd_metric_properties():
    rng = np.random.default_rng(31)
    graphs = [cpdag(random_dag_edges(rng, 5, 0.4)) for _ in range(8)]
    for a in graphs:
        assert shd(a, a) == 0
        for b in graphs:
            assert shd(a, b) == shd(b, a)
            assert shd(a, b) >= 0


def test_shd_counts_each_pair_once():
    empty = Pdag(3, {})
    one = Pdag(3, {(0, 1): EdgeState.FORWARD})
    assert shd(empty, one) == 1
    flipped = Pdag(3, {(0, 1): EdgeState.BACKWARD})
    assert shd(one, flipped) == 1
    with pytest.raises(ValueError):
        shd(empty, Pdag(4, {}))


def test_pdag_state_perspective():
    g = Pdag(3, {(0, 1): EdgeState.FORWARD})
    assert g.state(0, 1) == EdgeState.FORWARD
    assert g.state(1, 0) == EdgeState.BACKWARD
    assert g.state(0, 1) == EdgeState.FORWARD and g.state(1, 0) != EdgeState.FORWARD
    assert [pair for pair in g.pair_states() if 1 in pair] == [(0, 1)]
    mixed = Pdag(
        4, {(0, 1): EdgeState.BACKWARD, (1, 2): EdgeState.UNDIRECTED, (2, 3): EdgeState.FORWARD}
    )
    assert (mixed.state(0, 1), mixed.state(1, 0)) == (EdgeState.BACKWARD, EdgeState.FORWARD)
    assert (mixed.state(1, 2), mixed.state(2, 1)) == (EdgeState.UNDIRECTED, EdgeState.UNDIRECTED)
    assert (mixed.state(2, 3), mixed.state(3, 2)) == (EdgeState.FORWARD, EdgeState.BACKWARD)
    assert (mixed.state(0, 3), mixed.state(3, 0)) == (EdgeState.ABSENT, EdgeState.ABSENT)
    assert repr(mixed) == "Pdag(p=4, [1 -> 0, 1 -- 2, 2 -> 3])"
    assert pdag_from_text("p=4\n1 -> 0\n2 -- 1\n2 -> 3\n") == mixed
    # pairs are validated as the bitmasks are built: NumPy integers are ints, floats are not
    assert Pdag(3, {(np.int64(0), np.int64(2)): 2}) == Pdag(3, {(0, 2): EdgeState.FORWARD})
    wide = Pdag(70, {(0, 69): EdgeState.FORWARD})
    assert wide.state(np.int64(0), np.int64(69)) == EdgeState.FORWARD  # past bit 63
    with pytest.raises(ValueError):
        Pdag(3, {(1, 0): EdgeState.FORWARD})
    with pytest.raises(TypeError):
        Pdag(3, {(0.0, 1): EdgeState.FORWARD})


def test_dag_text_round_trip():
    text = dag_to_text(COLLIDER)
    assert text.splitlines()[0] == "p=3"
    assert dag_from_text(text) == COLLIDER
    assert dag_from_text(dag_to_text(Dag(2))) == Dag(2)


def test_pdag_text_round_trip():
    g = cpdag(Dag(4, [(0, 2), (1, 2), (2, 3)]))
    assert pdag_from_text(pdag_to_text(g)) == g


def test_dag_from_text_rejects_malformed_input():
    with pytest.raises(ValueError):
        dag_from_text("no header\n0 -> 1\n")
    with pytest.raises(ValueError):
        dag_from_text("p=2\n0 -- 1\n")
    with pytest.raises(ValueError):
        pdag_from_text("p=2\n0 ?? 1\n")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: node_set([0, 1.5]), "node index must be an integer, got 1.5"),
        (lambda: Dag(0), "node count must be a positive integer, got 0"),
        (lambda: Pdag(0), "node count must be a positive integer, got 0"),
        (lambda: Pdag(3).state(1, 1), "invalid pair (1, 1) for p=3"),
        (lambda: Pdag(3).state(0, 3), "invalid pair (0, 3) for p=3"),
        (lambda: pdag_from_text("p=3\n0 -> 1\n1 -- 0\n"), "pair (0, 1) listed twice"),
    ],
    ids=["node_set", "Dag", "Pdag", "state_self", "state_range", "listed_twice"],
)
def test_graph_input_checks(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
