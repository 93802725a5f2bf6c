"""The PC structure-learning algorithm over an abstract independence decider.

Level-wise skeleton search followed by collider orientation and the
orientation closure.  Both work on one orientation state, per-node bitmasks
of adjacent nodes (the search's own), parents, children and undirected
neighbours: colliders and the closure write arrows into it, and the learned
:class:`Pdag` takes it over as its own storage, so no fit builds a pair
dict.  With a d-separation oracle the output is exactly the equivalence
class of the data-generating DAG, and no query conditions on more than
max-degree-many variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import not_

from .citest import CiDecider
from .graph import EdgeState, Pdag, _bits, _meek_fixpoint, _orient, _pairs, _union, pdag_to_text

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
    """Undirected adjacencies, as per-node bitmasks, plus the separating sets found for removed pairs."""

    p: int
    adj: list[int]  # bit v of adj[u] and bit u of adj[v]: u and v stay adjacent
    sepsets: dict[tuple[int, int], tuple[int, ...]]
    tests_run: int
    max_cond_used: int  # largest |S| queried; -1 when nothing was queried

    @property
    def edges(self) -> set[tuple[int, int]]:
        """The adjacent pairs u < v."""
        return {(u, v) for u, m in enumerate(self.adj) for v in _bits(m & -(2 << u))}


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
    reports independence; the first separating set found is recorded, and
    ``tests_run`` counts the subsets up to the first independent one.  Pairs
    are processed in lexicographic order and candidate subsets in
    lexicographic order over the sorted neighbor list, so runs are
    deterministic.  By default adjacency sets shrink as edges fall during a
    level (the classic order-dependent behavior); ``stable=True`` freezes the
    neighbor lists at the start of each level instead.  Adjacency is one
    bitmask per node, and one loop walks every level from 1 up, asking
    ``decider.separator_finder(adj, level)`` to answer each direction.  At
    level 1 the decider may instead answer every pair at the start of the
    level, as bitmasks from ``level_one_masks(pairs)``, which the loop reads
    inline; the non-PD candidates walked past are passed to ``warn_nonpd``.

    The level ceiling is the smallest of ``max_cond`` and the decider's own
    ``max_cond_size``, when given; no walk passes level p - 2 anyway.
    """
    if p < 1:
        raise ValueError(f"node count must be positive, got {p}")
    if max_cond is not None and max_cond < 0:
        raise ValueError(f"max_cond must be nonnegative, got {max_cond}")
    ceiling = min((c for c in (max_cond, decider.max_cond_size) if c is not None), default=p)
    pairs = _pairs(p)
    if not pairs or ceiling < 0:
        return SkeletonResult(p, [((1 << p) - 1) ^ (1 << u) for u in range(p)], {}, 0, -1)
    independent = decider.marginally_independent(p)
    sepsets: dict[tuple[int, int], tuple[int, ...]] = dict.fromkeys(compress(pairs, independent), ())
    pairs = list(compress(pairs, map(not_, independent)))  # the adjacent pairs, after each level too
    adj = [0] * p
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    tests_run = len(sepsets) + 2 * len(pairs)
    max_used = 0
    level = 1
    while level <= ceiling and max(map(int.bit_count, adj)) > level:
        max_used = level  # the first direction with a candidate to spare asks before any edge falls
        frozen = adj.copy() if stable else adj
        masks = decider.level_one_masks(pairs) if level == 1 else None
        find = None if masks else decider.separator_finder(frozen, level)
        for k, (u, v) in enumerate(pairs):
            for a, b in ((u, v), (v, u)):
                cand = frozen[a] & ~(1 << b)  # b is in frozen[a], whether frozen or not
                if cand.bit_count() < level:
                    continue
                if find:
                    asked, sep = find(a, b, cand)
                else:  # c in cand from the lowest up: the separator is the lowest bit of hits & cand
                    hits, nonpd = masks[k]
                    low = hits & cand & -(hits & cand)
                    passed = cand & (low - 1)  # every candidate when there is no hit
                    if nonpd & passed:
                        decider.warn_nonpd(u, v, nonpd & passed)
                    asked, sep = passed.bit_count() + (low != 0), (low.bit_length() - 1,) if low else None
                tests_run += asked
                if sep is not None:
                    adj[u] ^= 1 << v
                    adj[v] ^= 1 << u
                    sepsets[(u, v)] = sep
                    break
        pairs = [(u, v) for u, v in pairs if adj[u] >> v & 1]
        level += 1
    return SkeletonResult(p, adj, sepsets, tests_run, max_used)


def orient_colliders(
    edges: set[tuple[int, int]],
    sepsets: dict[tuple[int, int], tuple[int, ...]],
    p: int,
) -> tuple[dict[tuple[int, int], EdgeState], list[str]]:
    """Turn unshielded triples into colliders when the middle node separated nothing.

    For each nonadjacent pair (u, w) with a recorded separating set and each
    common neighbor v: orient u -> v <- w exactly when v is outside the set.
    Triples are visited by u, then w, then v, each from the lowest up.
    Conflicting orientations are overwritten last-write-wins and noted in the
    returned warnings.  The states are keyed in lexicographic pair order.
    """
    adj = [0] * p
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    masks, warnings = _collider_masks(adj, sepsets)
    return Pdag._adopt(p, masks).pair_states(), warnings


def _collider_masks(adj: list[int], sepsets: dict) -> tuple[tuple[list[int], ...], list[str]]:
    """:func:`orient_colliders` from the adjacency bitmasks ``adj``: the masks ``adj, par, chi,
    und``, returned with the warnings.  Writing a -> v over v -> a warns."""
    p = len(adj)
    par, chi, und = [0] * p, [0] * p, adj.copy()
    warnings: list[str] = []
    for u in range(p):
        reach = _union(adj, adj[u])
        for w in _bits(reach & ~adj[u] & -(2 << u)):  # nonadjacent w > u with a common neighbour
            sep = sepsets.get((u, w))
            if sep is None:
                continue
            common = adj[u] & adj[w]
            for x in sep:
                common &= ~(1 << x)
            while common:
                v = (common & -common).bit_length() - 1
                common &= common - 1
                for a in (u, w):  # u -> v, then w -> v
                    if _orient(par, chi, und, a, v):
                        warnings.append(
                            f"orientation conflict on pair {min(a, v), max(a, v)}: "
                            f"overwriting with {a} -> {v}"
                        )
    return (adj, par, chi, und), warnings


def run_pc(
    decider: CiDecider,
    p: int,
    max_cond: int | None = None,
    stable: bool = False,
) -> PcResult:
    """Full PC: skeleton search, collider orientation, orientation closure."""
    start = len(decider.warnings)
    skel = pc_skeleton(decider, p, max_cond=max_cond, stable=stable)
    masks, orient_warnings = _collider_masks(skel.adj, skel.sepsets)
    _meek_fixpoint(*masks)
    warnings = decider.warnings[start:] + orient_warnings
    return PcResult(
        pdag=Pdag._adopt(p, masks),
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
