"""Directed acyclic graphs, partially directed graphs, and equivalence-class operations.

Nodes are integers 0..p-1.  Both graph types store per-node integer
bitmasks: a :class:`Dag` its parents and children, a :class:`Pdag` (one
state per unordered pair: absent, directed either way, or undirected; the
output type of structure learning) its adjacent nodes, parents, children
and undirected neighbours.  Collider orientation writes the Pdag masks, the
orientation closure updates a copy in place, and every reader (accessors,
topological order, d-separation, the CPDAG, pair states, cycles, distance,
text) reads bits."""

from __future__ import annotations

from enum import IntEnum
from functools import lru_cache
from itertools import combinations
from numbers import Integral, Real
from typing import Iterable, Mapping

__all__ = [
    "Dag",
    "Pdag",
    "EdgeState",
    "node_set",
    "degree",
    "skeleton",
    "unshielded_colliders",
    "d_separated",
    "d_separated_sets",
    "cpdag",
    "meek_closure",
    "shd",
    "dag_to_text",
    "dag_from_text",
    "pdag_to_text",
    "pdag_from_text",
]


def _count(value, what: str, low: int, high: int | None = None) -> int:
    """``value`` as an int in ``low..high`` (no upper end when None): any integral type but bool, else ValueError.

    The one check of every count and node index; an exact int skips the ABC check, as edges come in bulk."""
    if type(value) is int or isinstance(value, Integral) and not isinstance(value, bool):
        if low <= value and (high is None or value <= high):
            return int(value)
    if high is not None:
        rule = f"an integer in {low}..{high}"
    else:
        rule = {0: "a nonnegative integer", 1: "a positive integer"}.get(low, f"an integer of at least {low}")
    raise ValueError(f"{what} must be {rule}, got {value!r}")


def _real(value, what: str):
    """``value`` itself if it is a real number of any type but bool, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{what}: {value!r} is not a number")
    return value


def node_set(nodes: Iterable[int], p: int | None = None) -> tuple[int, ...]:
    """Normalize a collection of node indices to a sorted tuple.

    Raises ValueError on duplicates, non-integers, or indices outside
    ``0..p-1`` when ``p`` is given.  NumPy integers are accepted as ints.
    """
    items = [_count(x, "node index", 0, None if p is None else p - 1) for x in nodes]
    if len(set(items)) != len(items):
        raise ValueError(f"duplicate node indices in {items}")
    return tuple(sorted(items))


class Dag:
    """Immutable directed acyclic graph on ``p`` nodes.

    Parameters
    ----------
    p : int
        Number of nodes; nodes are 0..p-1.
    edges : iterable of (int, int)
        Directed edges (u, v) meaning u -> v.  At most one edge per
        unordered pair; cycles are rejected.  NumPy integers are accepted.

    Stored as ``edges`` and the per-node bitmasks ``par, chi`` of a Pdag:
    bit u of ``par[v]`` and bit v of ``chi[u]`` is the arrow u -> v.
    """

    __slots__ = ("p", "edges", "_par", "_chi", "_topo")

    def __init__(self, p: int, edges: Iterable[tuple[int, int]] = ()):
        p = _count(p, "node count", 1)
        par, chi = [0] * p, [0] * p
        edge_list: list[tuple[int, int]] = []
        for u, v in edges:
            u, v = _count(u, "node index", 0, p - 1), _count(v, "node index", 0, p - 1)
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if (par[u] | chi[u]) >> v & 1:
                raise ValueError(f"multiple edges between {min(u, v)} and {max(u, v)}")
            par[v] |= 1 << u
            chi[u] |= 1 << v
            edge_list.append((u, v))
        self.p, self.edges, self._par, self._chi = p, frozenset(edge_list), par, chi
        self._topo = tuple(_topological_order(par, chi))
        if len(self._topo) != p:
            raise ValueError("edge set contains a directed cycle")

    def _node(self, v: int) -> int:
        return _count(v, "node index", 0, self.p - 1)

    def parents(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self._par[self._node(v)]))

    def children(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self._chi[self._node(v)]))

    def neighbors(self, v: int) -> tuple[int, ...]:
        v = self._node(v)
        return tuple(_bits(self._par[v] | self._chi[v]))

    def is_adjacent(self, u: int, v: int) -> bool:
        u, v = self._node(u), self._node(v)
        return bool((self._par[u] | self._chi[u]) >> v & 1)

    def topological_order(self) -> tuple[int, ...]:
        return self._topo

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return self.p == other.p and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.p, self.edges))

    def __repr__(self) -> str:
        return f"Dag(p={self.p}, edges={sorted(self.edges)})"


def _topological_order(par: list[int], chi: list[int]) -> list[int]:
    """Kahn's order under the arrows u -> (bits of chi[u]), FIFO and lowest bit first.

    ``par`` is the transpose of ``chi``; its bit counts are the in-degrees.
    Nodes on or downstream of a directed cycle never reach in-degree zero, so
    the order is shorter than ``len(chi)`` exactly when the arrows close a cycle.
    """
    indeg = [m.bit_count() for m in par]
    order = [v for v, k in enumerate(indeg) if not k]
    for u in order:  # the order is its own FIFO queue
        for w in _bits(chi[u]):
            indeg[w] -= 1
            if not indeg[w]:
                order.append(w)
    return order


class EdgeState(IntEnum):
    """State of an unordered pair (u, v) with u < v inside a Pdag."""

    ABSENT = 0
    UNDIRECTED = 1
    FORWARD = 2  # u -> v
    BACKWARD = 3  # v -> u


class Pdag:
    """Immutable partially directed graph: one :class:`EdgeState` per pair.

    Stored as per-node bitmasks ``adj, par, chi, und``: bit v of ``chi[u]``
    and of ``par[v]`` is the arrow u -> v, bit v of ``und[u]`` and bit u of
    ``und[v]`` the undirected edge u - v, and ``adj`` is their union.
    """

    __slots__ = ("p", "_adj", "_par", "_chi", "_und")

    def __init__(self, p: int, states: Mapping[tuple[int, int], EdgeState] = ()):
        p = _count(p, "node count", 1)
        adj, par, chi, und = ([0] * p for _ in range(4))
        absent, undirected, forward = EdgeState.ABSENT, EdgeState.UNDIRECTED, EdgeState.FORWARD
        for (u, v), st in dict(states).items():
            u, v = _count(u, "node index", 0, p - 1), _count(v, "node index", 0, p - 1)
            if u >= v:
                raise ValueError(f"pair ({u}, {v}) must satisfy 0 <= u < v < p={p}")
            st = st if isinstance(st, EdgeState) else EdgeState(st)
            if st == absent:
                continue
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            if st == undirected:
                und[u] |= 1 << v
                und[v] |= 1 << u
            else:
                _orient(par, chi, und, *((u, v) if st == forward else (v, u)))
        self.p, self._adj, self._par, self._chi, self._und = p, adj, par, chi, und

    @classmethod
    def _adopt(cls, p: int, masks: tuple[list[int], ...]) -> Pdag:
        """A Pdag that takes over the bitmasks ``adj, par, chi, und`` this library built."""
        pdag = object.__new__(cls)
        pdag.p, (pdag._adj, pdag._par, pdag._chi, pdag._und) = p, masks
        return pdag

    def state(self, u: int, v: int) -> EdgeState:
        """State of the pair, from the perspective (u, v): FORWARD means u -> v."""
        u, v = _count(u, "node index", 0, self.p - 1), _count(v, "node index", 0, self.p - 1)
        if u == v:
            raise ValueError(f"invalid pair ({u}, {v}) for p={self.p}")
        if not self._adj[u] >> v & 1:
            return EdgeState.ABSENT
        if self._und[u] >> v & 1:
            return EdgeState.UNDIRECTED
        return EdgeState.FORWARD if self._chi[u] >> v & 1 else EdgeState.BACKWARD

    def pair_states(self) -> dict[tuple[int, int], EdgeState]:
        """The state of each adjacent pair u < v, in lexicographic order."""
        und, chi = self._und, self._chi
        undirected, forward, backward = EdgeState.UNDIRECTED, EdgeState.FORWARD, EdgeState.BACKWARD
        return {
            (u, v): undirected if und[u] >> v & 1 else forward if chi[u] >> v & 1 else backward
            for u, m in enumerate(self._adj)
            for v in _bits(m & -(2 << u))
        }

    def has_directed_cycle(self) -> bool:
        """Check the directed subgraph for cycles (well-formed CPDAGs have none)."""
        return len(_topological_order(self._par, self._chi)) != self.p

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pdag):
            return NotImplemented
        return (self.p, self._chi, self._und) == (other.p, other._chi, other._und)

    def __repr__(self) -> str:
        edges = pdag_to_text(self).splitlines()[1:]
        return f"Pdag(p={self.p}, [{', '.join(edges)}])"


def degree(dag: Dag) -> int:
    """Maximum number of neighbors (parents plus children) over all nodes."""
    return max((pa | ch).bit_count() for pa, ch in zip(dag._par, dag._chi))


def skeleton(dag: Dag) -> set[tuple[int, int]]:
    """Unordered adjacencies of the DAG, as sorted pairs."""
    return {(u, v) if u < v else (v, u) for u, v in dag.edges}


def unshielded_colliders(dag: Dag) -> set[tuple[int, int, int]]:
    """Triples (u, v, w), u < w, with u -> v <- w and u, w nonadjacent."""
    par, chi = dag._par, dag._chi
    return {
        (u, v, w)
        for v, m in enumerate(par)
        for u in _bits(m)
        for w in _bits(m & ~(par[u] | chi[u]) & -(2 << u))
    }


def _reachable(dag: Dag, sources: int, blocked: int) -> int:
    """The bitmask of nodes joined to ``sources`` by a trail active given ``blocked``.

    A frontier search over (node, direction) states, held as two bitmasks:
    ``up`` marks arrival from a child, ``down`` arrival from a parent.  A
    trail goes on to the children of any node outside ``blocked``, and to
    the parents of a node it entered from a child outside ``blocked``, or
    from a parent at a collider in ``blocked`` or with a descendant there.
    """
    par, chi = dag._par, dag._chi
    anc = frontier = blocked  # blocked and its ancestors
    while frontier:
        frontier = _union(par, frontier) & ~anc
        anc |= frontier
    up = new_up = sources
    down = new_down = 0
    while new_up | new_down:
        new_up, new_down = (
            _union(par, (new_up & ~blocked) | (new_down & anc)) & ~up,
            _union(chi, (new_up | new_down) & ~blocked) & ~down,
        )
        up |= new_up
        down |= new_down
    return (up | down) & ~blocked


def d_separated(dag: Dag, u: int, v: int, s: Iterable[int] = ()) -> bool:
    """Is every trail between u and v blocked by the conditioning set ``s``?

    A trail is blocked when some chain or fork node on it lies in ``s``, or
    some collider node on it has neither itself nor any descendant in ``s``.
    """
    return d_separated_sets(dag, (u,), (v,), s)


def d_separated_sets(
    dag: Dag, a: Iterable[int], b: Iterable[int], s: Iterable[int] = ()
) -> bool:
    """Set-level d-separation: no active trail from any node of a to any of b."""
    a_m, b_m, s_m = (sum(1 << x for x in node_set(xs, dag.p)) for xs in (a, b, s))
    if a_m & b_m or a_m & s_m or b_m & s_m:
        raise ValueError("a, b, and s must be pairwise disjoint")
    return not _reachable(dag, a_m, s_m) & b_m


# -- Orientation closure -----------------------------------------------------

@lru_cache(maxsize=8)
def _pairs(p: int) -> tuple[tuple[int, int], ...]:
    """The pairs u < v of p nodes in lexicographic order, built once per p."""
    return tuple(combinations(range(p), 2))


def _bits(m: int) -> list[int]:
    """The nodes of the bitmask ``m``, in ascending order."""
    out = []
    while m:
        out.append((m & -m).bit_length() - 1)
        m &= m - 1
    return out


def _union(rows: list[int], m: int) -> int:
    """The union of ``rows[x]`` over the nodes x of the bitmask ``m``."""
    out = 0
    while m:
        low = m & -m
        out |= rows[low.bit_length() - 1]
        m ^= low
    return out


def _two_nonadjacent(m: int, adj: list[int]) -> bool:
    """Do two nodes of the bitmask ``m`` lie nonadjacent under ``adj``?"""
    while m:
        low = m & -m
        m ^= low
        if m & ~adj[low.bit_length() - 1]:
            return True
    return False


def _orient(par: list[int], chi: list[int], und: list[int], a: int, b: int) -> bool:
    """Write the arrow a -> b into the masks in place, over a - b or b -> a, and say whether
    b -> a was set.  Every arrow of a Pdag, a CPDAG or a learned graph is written here."""
    bit_a, bit_b = 1 << a, 1 << b
    flipped = chi[b] & bit_a
    if flipped:
        chi[b] ^= bit_a
        par[a] ^= bit_b
    und[a] &= ~bit_b
    und[b] &= ~bit_a
    chi[a] |= bit_b
    par[b] |= bit_a
    return flipped != 0


def _meek_fixpoint(adj: list[int], par: list[int], chi: list[int], und: list[int]) -> None:
    """Orient undirected edges compelled by the three closure rules, in the masks, in place.

    Passes over the undirected pairs u < v, in the order of u and then of v,
    until one changes nothing; each is tried as u -> v, then as v -> u.  A
    pass that changes something orients at least one undirected pair, so
    more passes than undirected pairs plus one raise RuntimeError.  a - b
    becomes a -> b when ``par[a] & ~adj[b]`` (rule 1: some c -> a, with c and
    b nonadjacent), when ``chi[a] & par[b]`` (rule 2: a -> c -> b), or when
    ``und[a] & par[b]`` has two nonadjacent bits (rule 3: c - a - d with
    c -> b <- d).
    """
    for _ in range(sum(map(int.bit_count, und)) // 2 + 1):
        changed = False
        for u in range(len(und)):
            above = und[u] & -(2 << u)  # orienting (u, v) clears no other pair's bit
            while above:
                v = (above & -above).bit_length() - 1
                above &= above - 1
                for a, b in ((u, v), (v, u)):
                    if par[a] & ~adj[b] or chi[a] & par[b] or _two_nonadjacent(und[a] & par[b], adj):
                        _orient(par, chi, und, a, b)
                        changed = True
                        break
        if not changed:
            return
    raise RuntimeError("orientation closure still changing after one pass per undirected pair")


def meek_closure(pdag: Pdag) -> Pdag:
    """Apply the three orientation rules until no undirected edge is compelled."""
    masks = pdag._adj, pdag._par.copy(), pdag._chi.copy(), pdag._und.copy()  # the closure writes no adj
    _meek_fixpoint(*masks)
    return Pdag._adopt(pdag.p, masks)


def cpdag(dag: Dag) -> Pdag:
    """Completed partially directed graph of the DAG's equivalence class.

    Starts from the skeleton, orients the unshielded colliders, and closes
    under the orientation rules.  Edges left undirected are exactly those
    whose direction varies across equivalent DAGs, so two DAGs are Markov
    equivalent exactly when their CPDAGs are equal.  Parent u of v is a
    collider parent when ``par[v]`` has a bit other than u outside ``adj[u]``.
    """
    p, par = dag.p, dag._par
    adj = [pa | ch for pa, ch in zip(par, dag._chi)]
    c_par, c_chi, und = [0] * p, [0] * p, adj.copy()
    for v, m in enumerate(par):
        for u in _bits(m):
            if m & ~adj[u] & ~(1 << u):
                _orient(c_par, c_chi, und, u, v)
    masks = adj, c_par, c_chi, und
    _meek_fixpoint(*masks)
    return Pdag._adopt(p, masks)


def shd(a: Pdag, b: Pdag) -> int:
    """Structural Hamming distance: pairs whose edge state differs.

    Each unordered pair contributes 1 when the two graphs disagree on its
    state (absent, undirected, or either direction), 0 otherwise.
    """
    if a.p != b.p:
        raise ValueError(f"node counts differ: {a.p} != {b.p}")
    rows = zip(a._adj, b._adj, a._und, b._und, a._chi, b._chi)
    return sum(
        (((adj_a ^ adj_b) | (und_a ^ und_b) | (chi_a ^ chi_b)) & -(2 << u)).bit_count()
        for u, (adj_a, adj_b, und_a, und_b, chi_a, chi_b) in enumerate(rows)
    )


# -- Edge-list text format ---------------------------------------------------

def dag_to_text(dag: Dag) -> str:
    lines = [f"p={dag.p}"]
    lines.extend(f"{u} -> {v}" for u, v in sorted(dag.edges))
    return "\n".join(lines) + "\n"


def pdag_to_text(pdag: Pdag) -> str:
    """Header, then one line per adjacent pair in sorted pair order."""
    lines = [f"p={pdag.p}"]
    for (u, v), st in pdag.pair_states().items():
        if st == EdgeState.UNDIRECTED:
            lines.append(f"{u} -- {v}")
        else:
            a, b = (u, v) if st == EdgeState.FORWARD else (v, u)
            lines.append(f"{a} -> {b}")
    return "\n".join(lines) + "\n"


def _edge_lines(text: str) -> tuple[int, list[tuple[str, list[str]]]]:
    """The count of the 'p=<count>' header line, then each later non-blank line, stripped, with its fields."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines or not lines[0].startswith("p="):
        raise ValueError("edge list must start with a 'p=<count>' header line")
    return int(lines[0][2:]), [(ln, ln.split()) for ln in lines[1:]]


def _parse_edge_lines(text: str) -> tuple[int, list[tuple[int, int, str]]]:
    p, lines = _edge_lines(text)
    triples = []
    for ln, parts in lines:
        if len(parts) != 3 or parts[1] not in ("->", "--"):
            raise ValueError(f"unrecognized edge line: {ln!r}")
        triples.append((int(parts[0]), int(parts[2]), parts[1]))
    return p, triples


def dag_from_text(text: str) -> Dag:
    p, triples = _parse_edge_lines(text)
    edges = []
    for u, v, mark in triples:
        if mark != "->":
            raise ValueError(f"undirected edge {u} -- {v} not allowed in a DAG")
        edges.append((u, v))
    return Dag(p, edges)


def pdag_from_text(text: str) -> Pdag:
    p, triples = _parse_edge_lines(text)
    states: dict[tuple[int, int], EdgeState] = {}
    for u, v, mark in triples:
        key = (u, v) if u < v else (v, u)
        if key in states:
            raise ValueError(f"pair ({key[0]}, {key[1]}) listed twice")
        if mark == "--":
            states[key] = EdgeState.UNDIRECTED
        else:
            states[key] = EdgeState.FORWARD if u < v else EdgeState.BACKWARD
    return Pdag(p, states)
