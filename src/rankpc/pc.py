"""The PC structure-learning algorithm over an abstract independence decider.

Level-wise skeleton search followed by collider orientation and the
orientation closure.  With a d-separation oracle the output is exactly the
equivalence class of the data-generating DAG, and no query conditions on
more than max-degree-many variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .citest import CiDecider
from .graph import EdgeState, Pdag, _meek_fixpoint

__all__ = [
    "SkeletonResult",
    "PcResult",
    "pc_skeleton",
    "orient_colliders",
    "run_pc",
    "pc_result_to_text",
]


@dataclass
class SkeletonResult:
    """Undirected adjacencies plus the separating sets found for removed pairs."""

    p: int
    edges: set[tuple[int, int]]
    sepsets: dict[tuple[int, int], tuple[int, ...]]
    tests_run: int
    max_cond_used: int  # largest |S| queried; -1 when nothing was queried


@dataclass
class PcResult:
    """Learned graph with search diagnostics."""

    pdag: Pdag
    sepsets: dict[tuple[int, int], tuple[int, ...]]
    tests_run: int
    max_cond_used: int
    warnings: list[str] = field(default_factory=list)


def pc_skeleton(
    decider: CiDecider,
    p: int,
    max_cond: int | None = None,
    stable: bool = False,
) -> SkeletonResult:
    """Prune a complete graph by level-wise independence queries.

    At level l, each still-adjacent pair (u, v) is tested against every
    size-l subset of adj(u) - {v}, then of adj(v) - {u}, until some query
    reports independence; the first separating set found is recorded.  Each
    (pair, direction, level) is one ``decider.first_independent`` call, and
    ``tests_run`` counts the subsets up to the first independent one.  Pairs
    are processed in lexicographic order and candidate subsets in
    lexicographic order over the sorted neighbor list, so runs are
    deterministic.  By default adjacency sets shrink as edges fall during a
    level (the classic order-dependent behavior); ``stable=True`` freezes the
    neighbor lists at the start of each level instead.

    The level ceiling is the smallest of ``max_cond`` and the decider's own
    ``max_cond_size``, when given.
    """
    if p < 1:
        raise ValueError(f"node count must be positive, got {p}")
    if max_cond is not None and max_cond < 0:
        raise ValueError(f"max_cond must be nonnegative, got {max_cond}")
    adj: list[set[int]] = [set(range(p)) - {i} for i in range(p)]
    sepsets: dict[tuple[int, int], tuple[int, ...]] = {}
    tests_run = 0
    max_used = -1
    level = 0
    while True:
        if max_cond is not None and level > max_cond:
            break
        if decider.max_cond_size is not None and level > decider.max_cond_size:
            break
        pairs = sorted((u, v) for u in range(p) for v in adj[u] if u < v)
        if not any(
            len(adj[u]) - 1 >= level or len(adj[v]) - 1 >= level for u, v in pairs
        ):
            break
        frozen = [sorted(adj[i]) for i in range(p)] if stable else None
        for u, v in pairs:
            if v not in adj[u]:
                continue  # dropped earlier in this level
            for a, b in ((u, v), (v, u)):
                nbrs = frozen[a] if stable else sorted(adj[a])
                cands = [x for x in nbrs if x != b]
                if len(cands) < level:
                    continue
                subsets = list(combinations(cands, level))
                max_used = max(max_used, level)
                i = decider.first_independent(u, v, subsets)
                if i is None:
                    tests_run += len(subsets)
                    continue
                tests_run += i + 1
                adj[u].discard(v)
                adj[v].discard(u)
                sepsets[(u, v)] = subsets[i]
                break
        level += 1
    edges = {(u, v) for u in range(p) for v in adj[u] if u < v}
    return SkeletonResult(p, edges, sepsets, tests_run, max_used)


def _force_arrow(states: dict, a: int, b: int, warnings: list[str]) -> None:
    key = (a, b) if a < b else (b, a)
    want = EdgeState.FORWARD if a < b else EdgeState.BACKWARD
    current = states[key]
    if current not in (EdgeState.UNDIRECTED, want):
        warnings.append(
            f"orientation conflict on pair ({key[0]}, {key[1]}): overwriting with {a} -> {b}"
        )
    states[key] = want


def orient_colliders(
    edges: set[tuple[int, int]],
    sepsets: dict[tuple[int, int], tuple[int, ...]],
    p: int,
) -> tuple[dict[tuple[int, int], EdgeState], list[str]]:
    """Turn unshielded triples into colliders when the middle node separated nothing.

    For each nonadjacent pair (u, w) with a recorded separating set and each
    common neighbor v: orient u -> v <- w exactly when v is outside the set.
    Conflicting orientations are overwritten last-write-wins and noted in the
    returned warnings.
    """
    states = {pair: EdgeState.UNDIRECTED for pair in edges}
    nbrs: list[set[int]] = [set() for _ in range(p)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    warnings: list[str] = []
    for u, w in sorted(sepsets):
        if (u, w) in states:
            continue
        sep = set(sepsets[(u, w)])
        for v in sorted(nbrs[u] & nbrs[w]):
            if v not in sep:
                _force_arrow(states, u, v, warnings)
                _force_arrow(states, w, v, warnings)
    return states, warnings


def run_pc(
    decider: CiDecider,
    p: int,
    max_cond: int | None = None,
    stable: bool = False,
) -> PcResult:
    """Full PC: skeleton search, collider orientation, orientation closure."""
    start = len(decider.warnings)
    skel = pc_skeleton(decider, p, max_cond=max_cond, stable=stable)
    states, orient_warnings = orient_colliders(skel.edges, skel.sepsets, p)
    _meek_fixpoint(states, p)
    warnings = list(decider.warnings[start:]) + orient_warnings
    return PcResult(
        pdag=Pdag(p, states),
        sepsets=dict(skel.sepsets),
        tests_run=skel.tests_run,
        max_cond_used=skel.max_cond_used,
        warnings=warnings,
    )


def pc_result_to_text(result: PcResult) -> str:
    """Edge list followed by a key-value diagnostics block."""
    from .graph import pdag_to_text

    lines = [pdag_to_text(result.pdag).rstrip("\n"), ""]
    lines.append(f"tests_run={result.tests_run}")
    lines.append(f"max_cond_used={result.max_cond_used}")
    lines.append(f"warnings={len(result.warnings)}")
    lines.extend(f"warning={w}" for w in result.warnings)
    return "\n".join(lines) + "\n"
