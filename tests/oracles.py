"""Independent reference implementations used to cross-check the package.

Everything here trades speed for obviousness: quadratic pair enumeration,
explicit path enumeration, brute force over node orderings.  None of it
shares code paths with the library routines it validates.
"""

import math
from collections import deque
from itertools import combinations, permutations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtri

from rankpc.citest import CiDecider
from rankpc.correlation import TieError
from rankpc.graph import Dag, EdgeState, Pdag
from rankpc.pc import SkeletonResult


def naive_kendall(x, y) -> float:
    """Concordance statistic by explicit sign enumeration over all pairs.

    Keeps the numerator in exact integer arithmetic so agreement with the
    fast routine can be checked for bitwise equality.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    sx = np.sign(np.subtract.outer(x, x)).astype(np.int64)
    sy = np.sign(np.subtract.outer(y, y)).astype(np.int64)
    iu = np.triu_indices(n, 1)
    num = 2 * int((sx[iu] * sy[iu]).sum())
    return num / (n * (n - 1))


def naive_ranks(x) -> np.ndarray:
    """Ranks 1..n via double argsort; valid only for tie-free input."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x)
    out = np.empty(x.shape[0], dtype=np.int64)
    out[order] = np.arange(1, x.shape[0] + 1)
    return out


def naive_rank_columns(values) -> np.ndarray:
    """Ranks 1..n of each column, one stable argsort per column.

    The first tied column raises TieError with the smallest tied value,
    taken at its first occurrence in the input.
    """
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    cols = np.empty((n, p), dtype=np.int64)
    for j in range(p):
        order = np.argsort(values[:, j], kind="stable")
        xs = values[order, j]
        dup = np.nonzero(xs[1:] == xs[:-1])[0]
        if dup.size:
            raise TieError(float(xs[dup[0]]), f"column {j}")
        cols[order, j] = np.arange(1, n + 1)
    return cols


def spearman_ratio(x, y) -> float:
    """Rank correlation as a plain covariance-over-deviations ratio."""
    rx = naive_ranks(x).astype(float)
    ry = naive_ranks(y).astype(float)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    return float(np.dot(dx, dy) / np.sqrt(np.dot(dx, dx) * np.dot(dy, dy)))


def dsep_by_paths(dag: Dag, x: int, y: int, s) -> bool:
    """Separation by enumerating every simple path and testing blockage.

    A path is blocked by s when some interior non-collider lies in s, or
    some interior collider has no descendant (itself included) in s.
    """
    s = set(s)
    p = dag.p
    children = {u: {b for a, b in dag.edges if a == u} for u in range(p)}
    nbrs = {u: children[u] | {a for a, b in dag.edges if b == u} for u in range(p)}

    descendants = {}
    for u in range(p):
        out, stack = {u}, [u]
        while stack:
            w = stack.pop()
            for c in children[w]:
                if c not in out:
                    out.add(c)
                    stack.append(c)
        descendants[u] = out

    def path_active(path):
        for i in range(1, len(path) - 1):
            a, b, c = path[i - 1], path[i], path[i + 1]
            collider = b in children[a] and b in children[c]
            if collider:
                if not (descendants[b] & s):
                    return False
            elif b in s:
                return False
        return True

    stack = [(x, [x])]
    while stack:
        node, path = stack.pop()
        if node == y:
            if path_active(path):
                return False
            continue
        for w in nbrs[node]:
            if w not in path:
                stack.append((w, path + [w]))
    return True


def kahn_order_by_lists(dag: Dag) -> list[int]:
    """Kahn's topological order from child lists built off ``dag.edges``.

    A FIFO queue started with the sources in ascending order, and each
    node's children, sorted ascending, released in turn: the order that
    ``Dag.topological_order`` reports and ``sample_sem`` and the bench
    digests depend on.
    """
    children: list[list[int]] = [[] for _ in range(dag.p)]
    indeg = [0] * dag.p
    for u, v in sorted(dag.edges):
        children[u].append(v)
        indeg[v] += 1
    queue = deque(v for v in range(dag.p) if indeg[v] == 0)
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for w in children[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return order


def _collider_triples(p: int, edges) -> frozenset:
    """Unshielded colliders of a DAG given as an edge set, computed locally."""
    edges = set(edges)
    adj = {frozenset(e) for e in edges}
    out = set()
    for v in range(p):
        pa = sorted(u for u in range(p) if (u, v) in edges)
        for u, w in combinations(pa, 2):
            if frozenset((u, w)) not in adj:
                out.add((u, v, w))
    return frozenset(out)


def _orients_acyclically(p, skeleton_pairs, order):
    """Orient each skeleton edge along the node order; always a DAG."""
    position = {node: i for i, node in enumerate(order)}
    return {
        (u, v) if position[u] < position[v] else (v, u)
        for u, v in skeleton_pairs
    }


def cpdag_by_enumeration(dag: Dag) -> Pdag:
    """Equivalence-class representative by brute force over node orderings.

    Every total order of the nodes induces one orientation of the skeleton;
    the orders whose orientation reproduces the unshielded colliders span
    exactly the Markov equivalence class.  Arrows shared by all members
    stay directed, the rest become undirected.  Feasible up to p = 7.
    """
    p = dag.p
    skel = {(u, v) if u < v else (v, u) for u, v in dag.edges}
    target = _collider_triples(p, dag.edges)
    seen_forward = {pair: False for pair in skel}
    seen_backward = {pair: False for pair in skel}
    members = 0
    for order in permutations(range(p)):
        oriented = _orients_acyclically(p, skel, order)
        if _collider_triples(p, oriented) != target:
            continue
        members += 1
        for u, v in oriented:
            if u < v:
                seen_forward[(u, v)] = True
            else:
                seen_backward[(v, u)] = True
    if members == 0:
        raise AssertionError("the true DAG itself must appear in the class")
    states = {}
    for pair in skel:
        fwd, bwd = seen_forward[pair], seen_backward[pair]
        if fwd and bwd:
            states[pair] = EdgeState.UNDIRECTED
        elif fwd:
            states[pair] = EdgeState.FORWARD
        else:
            states[pair] = EdgeState.BACKWARD
    return Pdag(p, states)


def cyclic_by_permutations(states: dict, p: int) -> bool:
    """Do the arrows of the pair states close a directed cycle on p nodes?  True when no node
    order puts them all forward.

    Reads the arrows off a raw ``{pair: EdgeState}`` dict, so it shares no
    decoding with the Pdag methods.  Feasible up to p = 7.
    """
    arrows = [
        (u, v) if st == EdgeState.FORWARD else (v, u)
        for (u, v), st in states.items()
        if st in (EdgeState.FORWARD, EdgeState.BACKWARD)
    ]
    for order in permutations(range(p)):
        position = {node: i for i, node in enumerate(order)}
        if all(position[a] < position[b] for a, b in arrows):
            return False
    return True


def shd_by_pairs(sa: dict, sb: dict) -> int:
    """Structural Hamming distance of two ``{pair: EdgeState}`` dicts: the pairs whose state
    differs, a missing pair counting as ABSENT.  The dict-based definition the bitmask
    ``shd`` replaced."""
    dist = 0
    for key in set(sa) | set(sb):
        if sa.get(key, EdgeState.ABSENT) != sb.get(key, EdgeState.ABSENT):
            dist += 1
    return dist


def random_correlation(rng: np.random.Generator, p: int, extra: int = 5) -> np.ndarray:
    """Random positive definite correlation matrix via a normalized Gram matrix."""
    g = rng.standard_normal((p, p + extra))
    cov = g @ g.T
    d = np.sqrt(np.diag(cov))
    corr = cov / np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    return (corr + corr.T) / 2.0


def bivariate_normal_sample(rng: np.random.Generator, rho: float, n: int) -> tuple:
    """Draw n pairs with exact latent correlation rho."""
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    return z1, rho * z1 + np.sqrt(1.0 - rho * rho) * z2


def random_dag_edges(rng: np.random.Generator, p: int, s: float) -> Dag:
    """Random DAG with independent edge coin flips, oriented low-to-high."""
    edges = [(u, v) for u, v in combinations(range(p), 2) if rng.random() < s]
    return Dag(p, edges)


def comprehension_random_dag(p: int, s: float, rng: np.random.Generator) -> Dag:
    """``random_dag`` as a comprehension over every pair u < v and its own uniform draw."""
    pairs = list(combinations(range(p), 2))
    draws = rng.random(len(pairs))
    return Dag(p, [pair for pair, t in zip(pairs, draws) if t < s])


def triangular_raw_covariance(model) -> np.ndarray:
    """Covariance of a SEM's solved system under unit-variance noise.

    In topological order I - W is unit upper triangular, so B = (I - W)^-1
    comes from one triangular solve; the covariance is B^T B, put back in
    node order.
    """
    p = model.dag.p
    order = list(model.dag.topological_order())
    w_topo = model.weights[np.ix_(order, order)]
    binv = solve_triangular(np.eye(p) - w_topo, np.eye(p), lower=False, unit_diagonal=True)
    cov = np.empty((p, p))
    cov[np.ix_(order, order)] = binv.T @ binv
    return cov


# Skeleton search with one ``decide`` call per subset, level 0 included: a
# kept pair's marginal query is asked from both of its sides.
def naive_pc_skeleton(
    decider: CiDecider,
    p: int,
    max_cond: int | None = None,
    stable: bool = False,
) -> SkeletonResult:
    """Prune a complete graph by level-wise independence queries.

    At level l, each still-adjacent pair (u, v) is tested against every
    size-l subset of adj(u) - {v}, then of adj(v) - {u}, until some query
    reports independence; the first separating set found is recorded.  Each
    subset is one ``decider.decide`` call, and ``tests_run`` counts the
    subsets up to the first independent one.  Pairs are processed in
    lexicographic order and candidate subsets in lexicographic order over
    the sorted neighbor list, so runs are deterministic.  By default adjacency sets shrink as edges fall during a
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
                max_used = max(max_used, level)
                sep = None
                for s in combinations(cands, level):
                    tests_run += 1
                    if decider.decide(u, v, s):
                        sep = s
                        break
                if sep is None:
                    continue
                adj[u].discard(v)
                adj[v].discard(u)
                sepsets[(u, v)] = sep
                break
        level += 1
    return SkeletonResult(p, [sum(1 << v for v in adj[u]) for u in range(p)], sepsets, tests_run, max_used)


# The stacked-Cholesky kernel that ``partial_corr_batch`` replaced, verbatim
# apart from its name: a failed stacked factorization is retried on each half
# of the batch until the failing rows are single, and those come back NaN.
def halving_partial_corr_batch(mat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """r(a, b | S) for every row S + (a, b) of ``idx``, one stacked Cholesky for all.

    ``mat`` is a validated correlation matrix and ``idx`` a (k, |S| + 2)
    integer array without repeats in a row.  With L the Cholesky factor of a
    row's submatrix, L[-1, -2] / hypot(L[-1, -2], L[-1, -1]) is its partial
    correlation.  Rows whose submatrix is not positive definite give NaN: when
    the stacked factorization fails, each half of the batch is redone on its
    own until the failing rows are single.
    """
    try:
        chol = np.linalg.cholesky(mat[idx[:, :, None], idx[:, None, :]])
    except np.linalg.LinAlgError:
        if len(idx) == 1:
            return np.array([math.nan])
        half = len(idx) // 2
        return np.concatenate([halving_partial_corr_batch(mat, idx[:half]), halving_partial_corr_batch(mat, idx[half:])])
    x, y = chol[:, -1, -2], chol[:, -1, -1]
    return x / np.hypot(x, y)


DENOM_TOL = 1e-12


class DegenerateCorrelationError(ArithmeticError):
    """A recursion denominator vanished: some intermediate correlation is +-1."""


def partial_corr_recursive(sigma, u: int, v: int, s=()) -> float:
    """Partial correlation by eliminating conditioning variables one at a time.

    Each step removes the smallest remaining index w via

        r(u,v|S) = (r(u,v|S') - r(u,w|S') r(v,w|S')) / sqrt((1-r(u,w|S')^2)(1-r(v,w|S')^2))

    with S' = S without w.  Raises :class:`DegenerateCorrelationError` when a
    denominator factor drops to the tolerance.  Indices are not validated.
    """
    mat = np.asarray(sigma, dtype=float)
    memo: dict[tuple, float] = {}

    def rec(a: int, b: int, ss: tuple[int, ...]) -> float:
        key = (a, b, ss) if a < b else (b, a, ss)
        val = memo.get(key)
        if val is not None:
            return val
        if not ss:
            val = float(mat[a, b])
        else:
            w, rest = ss[0], ss[1:]
            r_ab = rec(a, b, rest)
            r_aw = rec(a, w, rest)
            r_bw = rec(b, w, rest)
            da = 1.0 - r_aw * r_aw
            db = 1.0 - r_bw * r_bw
            if da <= DENOM_TOL or db <= DENOM_TOL:
                raise DegenerateCorrelationError(
                    f"denominator vanished eliminating {w} for ({a}, {b} | {ss})"
                )
            val = (r_ab - r_aw * r_bw) / math.sqrt(da * db)
        memo[key] = val
        return val

    return rec(u, v, tuple(sorted(s)))


def fisher_z_decide(rho_hat: float, n: int, s_size: int, alpha: float) -> bool:
    """z-transform test: independent when the standardized statistic is small.

    Compares sqrt(n - |S| - 3) * |0.5 log((1+r)/(1-r))| against the upper
    alpha/2 normal quantile.  Requires n - s_size - 3 >= 1 and |rho_hat| < 1.
    """
    if not math.isfinite(rho_hat) or abs(rho_hat) >= 1.0:
        raise ValueError(f"need |rho_hat| < 1, got {rho_hat}")
    if s_size < 0:
        raise ValueError(f"conditioning size must be nonnegative, got {s_size}")
    m = n - s_size - 3
    if m < 1:
        raise ValueError(f"need n - s_size - 3 >= 1, got n={n}, s_size={s_size}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    stat = math.sqrt(m) * abs(0.5 * math.log((1.0 + rho_hat) / (1.0 - rho_hat)))
    return stat <= float(ndtri(1.0 - alpha / 2.0))


# The orientation-closure loop that rebuilt its neighbor map and re-sorted the
# pairs on every pass, verbatim apart from its name, with the helpers it calls.
def _arrow_in(states: dict, a: int, b: int) -> bool:
    if a < b:
        return states.get((a, b)) == EdgeState.FORWARD
    return states.get((b, a)) == EdgeState.BACKWARD


def _undirected_in(states: dict, a: int, b: int) -> bool:
    key = (a, b) if a < b else (b, a)
    return states.get(key) == EdgeState.UNDIRECTED


def _adjacent_in(states: dict, a: int, b: int) -> bool:
    key = (a, b) if a < b else (b, a)
    return key in states


def _set_arrow(states: dict, a: int, b: int) -> None:
    if a < b:
        states[(a, b)] = EdgeState.FORWARD
    else:
        states[(b, a)] = EdgeState.BACKWARD


def _neighbor_map(states: dict, p: int) -> list[list[int]]:
    nbrs: list[list[int]] = [[] for _ in range(p)]
    for u, v in states:
        nbrs[u].append(v)
        nbrs[v].append(u)
    for xs in nbrs:
        xs.sort()
    return nbrs


def rebuilding_meek_fixpoint(states: dict, p: int) -> None:
    """Orient undirected edges compelled by the three closure rules, in place.

    Rule 1 orients b - c into b -> c when a -> b exists with a, c nonadjacent
    (avoids a new collider).  Rule 2 orients a - c into a -> c when a directed
    path a -> b -> c exists (avoids a cycle).  Rule 3 orients a - b into
    a -> b when two nonadjacent nodes c, d are undirected neighbors of a and
    both point at b.
    """
    changed = True
    while changed:
        changed = False
        nbrs = _neighbor_map(states, p)
        for (u, v), st in sorted(states.items()):
            if st != EdgeState.UNDIRECTED:
                continue
            for a, b in ((u, v), (v, u)):
                # rule 1: some c -> a with c, b nonadjacent
                fired = False
                for c in nbrs[a]:
                    if c != b and _arrow_in(states, c, a) and not _adjacent_in(states, c, b):
                        _set_arrow(states, a, b)
                        changed = True
                        fired = True
                        break
                if fired:
                    break
                # rule 2: a -> c -> b for some common neighbor c
                for c in nbrs[a]:
                    if c != b and _arrow_in(states, a, c) and _arrow_in(states, c, b):
                        _set_arrow(states, a, b)
                        changed = True
                        fired = True
                        break
                if fired:
                    break
                # rule 3: c, d nonadjacent, a - c, a - d undirected, c -> b, d -> b
                cands = [
                    c
                    for c in nbrs[a]
                    if c != b and _undirected_in(states, a, c) and _arrow_in(states, c, b)
                ]
                for i in range(len(cands)):
                    for j in range(i + 1, len(cands)):
                        if not _adjacent_in(states, cands[i], cands[j]):
                            _set_arrow(states, a, b)
                            changed = True
                            fired = True
                            break
                    if fired:
                        break
                if fired:
                    break


# Collider orientation over neighbour sets, verbatim apart from its name, with
# the conflict helper it calls; the sets it reads are what the bitmask
# version replaced.
def _force_arrow(states: dict, a: int, b: int, warnings: list[str]) -> None:
    if not (_undirected_in(states, a, b) or _arrow_in(states, a, b)):
        warnings.append(
            f"orientation conflict on pair ({min(a, b)}, {max(a, b)}): overwriting with {a} -> {b}"
        )
    _set_arrow(states, a, b)


def set_orient_colliders(
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
