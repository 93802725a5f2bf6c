"""Independent reference implementations used to cross-check the package.

Everything here trades speed for obviousness: quadratic pair enumeration,
explicit path enumeration, brute force over node orderings.  None of it
shares code paths with the library routines it validates.
"""

import math
from itertools import combinations, permutations

import numpy as np

from rankpc.citest import CiDecider
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
    children = {u: set(dag.children(u)) for u in range(p)}
    nbrs = {u: set(dag.neighbors(u)) for u in range(p)}

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


# Skeleton search with one ``first_independent`` call per (pair, direction,
# level), level 0 included: a kept pair's marginal query is asked from both
# of its sides.
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
