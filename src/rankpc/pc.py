"""The PC structure-learning algorithm over an abstract independence decider.

Level-wise skeleton search followed by collider orientation and the
orientation closure, both of which read per-node adjacency bitmasks.  With
a d-separation oracle the output is exactly the equivalence class of the
data-generating DAG, and no query conditions on more than max-degree-many
variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .citest import CiDecider
from .graph import (
    EdgeState,
    Pdag,
    _arrow_in,
    _meek_fixpoint,
    _set_arrow,
    pdag_to_text,
)

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

    Level 0 tests every pair marginally in one
    ``decider.marginally_independent`` call; it needs no conditioning set,
    so its answers do not depend on the order of the pairs.  A pair that
    stays adjacent counts as asked from both sides, so it adds 2 to
    ``tests_run`` and a removed pair adds 1.

    At level l >= 1, each still-adjacent pair (u, v) is tested against every
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
    caps = [c for c in (max_cond, decider.max_cond_size) if c is not None]
    ceiling = min(caps) if caps else None
    pairs = list(combinations(range(p), 2))
    if not pairs or (ceiling is not None and ceiling < 0):
        return SkeletonResult(p, set(pairs), {}, 0, -1)
    # nbrs[x] is the sorted list of x's neighbours: the pairs are visited in
    # lexicographic order, so each list is appended to in increasing order.
    nbrs: list[list[int]] = [[] for _ in range(p)]
    sepsets: dict[tuple[int, int], tuple[int, ...]] = {}
    tests_run = 0
    for (u, v), independent in zip(pairs, decider.marginally_independent(pairs)):
        if independent:
            tests_run += 1
            sepsets[(u, v)] = ()
        else:
            tests_run += 2
            nbrs[u].append(v)
            nbrs[v].append(u)
    max_used = 0
    level = 1
    while ceiling is None or level <= ceiling:
        if max(map(len, nbrs)) <= level:
            break
        pairs = [(u, v) for u in range(p) for v in nbrs[u] if u < v]
        frozen = [list(x) for x in nbrs] if stable else nbrs
        for u, v in pairs:
            if v not in nbrs[u]:
                continue  # dropped earlier in this level
            for a, b in ((u, v), (v, u)):
                if len(frozen[a]) <= level:
                    continue
                cands = frozen[a].copy()  # b is in it, whether frozen or not
                cands.remove(b)
                subsets = list(combinations(cands, level))
                max_used = level
                i = decider.first_independent(u, v, subsets)
                if i is None:
                    tests_run += len(subsets)
                    continue
                tests_run += i + 1
                nbrs[u].remove(v)
                nbrs[v].remove(u)
                sepsets[(u, v)] = subsets[i]
                break
        level += 1
    edges = {(u, v) for u in range(p) for v in nbrs[u] if u < v}
    return SkeletonResult(p, edges, sepsets, tests_run, max_used)


def orient_colliders(
    edges: set[tuple[int, int]],
    sepsets: dict[tuple[int, int], tuple[int, ...]],
    p: int,
) -> tuple[dict[tuple[int, int], EdgeState], list[str]]:
    """Turn unshielded triples into colliders when the middle node separated nothing.

    For each nonadjacent pair (u, w) with a recorded separating set and each
    common neighbor v: orient u -> v <- w exactly when v is outside the set.
    The common neighbors are the bits of ``adj[u] & adj[w]``, with the set's
    bits cleared, visited from the lowest up.  Conflicting orientations are
    overwritten last-write-wins and noted in the returned warnings.
    """
    states = {pair: EdgeState.UNDIRECTED for pair in edges}
    adj = [0] * p
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    warnings: list[str] = []
    for (u, w), sep in sorted(sepsets.items()):
        if (u, w) in states:
            continue
        common = adj[u] & adj[w]
        for x in sep:
            common &= ~(1 << x)
        while common:
            low = common & -common
            common ^= low
            v = low.bit_length() - 1
            for a in (u, w):  # u -> v, then w -> v
                if _arrow_in(states, v, a):
                    warnings.append(
                        f"orientation conflict on pair {min(a, v), max(a, v)}: "
                        f"overwriting with {a} -> {v}"
                    )
                _set_arrow(states, a, v)
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
    warnings = decider.warnings[start:] + orient_warnings
    return PcResult(
        pdag=Pdag(p, states),
        sepsets=skel.sepsets,
        tests_run=skel.tests_run,
        max_cond_used=skel.max_cond_used,
        warnings=warnings,
    )


def pc_result_to_text(result: PcResult) -> str:
    """Edge list followed by a key-value diagnostics block."""
    lines = [pdag_to_text(result.pdag).rstrip("\n"), ""]
    lines.append(f"tests_run={result.tests_run}")
    lines.append(f"max_cond_used={result.max_cond_used}")
    lines.append(f"warnings={len(result.warnings)}")
    lines.extend(f"warning={w}" for w in result.warnings)
    return "\n".join(lines) + "\n"
