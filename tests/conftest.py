from dataclasses import dataclass

import numpy as np
import pytest
from scipy import special

from sparselocal.coupling import _COUPLE_TAG, poisson_icdf
from sparselocal.explore import is_tree, to_rooted_tree
from sparselocal.graph import _GEN_TAG, WeightedGraph, _unrank_triangle
from sparselocal.limit_trees import _RDE_TAG as RDE_TAG
from sparselocal.limit_trees import (DEFAULT_NODE_BUDGET, TreeBudgetExceeded,
                                     grow_intermediate)
from sparselocal.matching import _edge_list, _exact_matching
from sparselocal.rng import stream_rng
from sparselocal.trees import RootedWeightedTree
from sparselocal.weights import (_GAMMA_SERIES, _GAMMA_START, _SPLITTER, WeightSpec,
                                 _capped_cdf, _cbrt, _horner, _wasserstein_steps)

# The purpose tags that the seeded sampler tests key their generators with,
# so that each test keeps the draws its bounds and tolerances were set on.
LIMIT_TAG = 21         # sample_limit_tree, below
INTERMEDIATE_TAG = 22  # sample_intermediate_tree, below
REPAIR_TAG = 32        # coupling.repair_independence


def stage1_rng(graph, root):
    """The per-root generator that the stage-1 tests key from the graph."""
    return stream_rng(graph.seed, graph.stream, _COUPLE_TAG, root)


def _brute_force_matching(n, edges):
    """Maximum weight matching by enumerating every matching; tiny n only."""
    best = 0.0

    def rec(idx, used, acc):
        nonlocal best
        best = max(best, acc)
        for i in range(idx, len(edges)):
            u, v, w = edges[i]
            if not (used >> u & 1) and not (used >> v & 1):
                rec(i + 1, used | 1 << u | 1 << v, acc + w)

    rec(0, 0, 0.0)
    return best


@pytest.fixture
def brute_force_matching():
    """The oracle the exact matchers are checked against."""
    return _brute_force_matching


class WholeGraphMatcher:
    """The remove-or-match recursion on the whole graph and its original labels.

    It always removes the lowest remaining vertex, so its value is the right
    fold of the matched weights in sorted edge order, maximised over all
    matchings; the per-component solver must return the same bits.
    """

    def __init__(self, n, edges):
        self.adj = [[] for _ in range(n)]
        for u, v, w in edges:
            self.adj[u].append((v, float(w)))
            self.adj[v].append((u, float(w)))
        self._memo = {}

    def value(self, mask):
        cached = self._memo.get(mask)
        if cached is not None:
            return cached
        if mask == 0:
            return 0.0
        v = (mask & -mask).bit_length() - 1
        best = self.value(mask & ~(1 << v))
        for u, w in self.adj[v]:
            if mask >> u & 1:
                cand = w + self.value(mask & ~(1 << v) & ~(1 << u))
                if cand > best:
                    best = cand
        self._memo[mask] = best
        return best

    def witness(self, mask):
        out = []
        while mask:
            v = (mask & -mask).bit_length() - 1
            rest = mask & ~(1 << v)
            best = self.value(rest)
            pick = None
            for u, w in self.adj[v]:
                if mask >> u & 1:
                    cand = w + self.value(rest & ~(1 << u))
                    if cand > best + 1e-12:
                        best = cand
                        pick = u
            if pick is None:
                mask = rest
            else:
                out.append((min(v, pick), max(v, pick)))
                mask = rest & ~(1 << pick)
        return out


@pytest.fixture
def whole_graph_matcher():
    """The oracle of the per-component solver."""
    return WholeGraphMatcher


# ---- the matching sandwich: the oracle of ROADMAP item 7b ---------------------------


def matching_value(n, edges, exclude=frozenset()):
    """M(G - exclude) for an explicit edge list; exact."""
    kept = [e for e in edges if e[0] not in exclude and e[1] not in exclude]
    return _exact_matching(n, kept).value


def h_value(obj, v, edges=None):
    """h(G, v) = M(G) - M(G - v); nonnegative.

    Accepts a WeightedGraph with an edge-weight law or an explicit
    (n, edges) pair.
    """
    if isinstance(obj, WeightedGraph):
        n, edges = obj.n, _edge_list(obj)
    else:
        n, edges = int(obj), edges or []
    return matching_value(n, edges) - matching_value(n, edges, frozenset({v}))


def truncate(tree, depth):
    """A copy of the subtree of all nodes at depth <= depth."""
    out = RootedWeightedTree(tree.type_w[0], depth, tree.vertex_w[0], tree.labels[0])
    mapping = {0: 0}
    for node in range(1, tree.node_count):  # parents precede children by construction
        p = mapping.get(tree.parent[node])
        if p is None or tree.node_depth[node] > depth:
            continue
        mapping[node] = out.add_child(p, tree.type_w[node], tree.edge_w[node],
                                      tree.vertex_w[node], tree.labels[node])
    return out


def _bottom_up(tree):
    """Leaves first, per node u: h_u = max(0, max_c (w_c - h_c)) and
    M(T_u) = sum_c M(T_c) + h_u."""
    h = np.zeros(tree.node_count)
    m = np.zeros(tree.node_count)
    for node in range(tree.node_count - 1, -1, -1):
        best, total = 0.0, 0.0
        for c in tree.children[node]:
            total += m[c]
            best = max(best, tree.edge_w[c] - h[c])
        h[node] = best
        m[node] = total + best
    return h, m


def tree_matching(tree):
    """M(T) by the linear-time bottom-up recursion."""
    return float(_bottom_up(tree)[1][0])


def h_k(tree, k):
    """Finite-depth matching recursion at the root of the depth-k cut.

    Nodes at depth k (and genuine leaves) start at zero; each internal node
    takes max(0, max over children of edge weight minus the child's value).
    """
    h, _ = _bottom_up(truncate(tree, min(k, tree.depth)))
    return float(h[0])


@dataclass
class SandwichResult:
    gL: float
    gU: float
    kL: int
    kU: int

    def __post_init__(self):
        if self.gL > self.gU + 1e-12:
            raise ValueError("sandwich is inverted")


def matching_sandwich(nb, k, graph):
    """h_{kL} and h_{kU} on the ball, kU the largest odd <= k, kL = kU - 1.

    For tree-shaped balls these bracket the matching increment of the root,
    h_{kL} <= h(G, v) <= h_{kU}: even depths from below, odd depths from above.
    """
    if k < 1:
        raise ValueError("sandwich needs k >= 1")
    if not is_tree(nb):
        raise ValueError("sandwich requires a tree-shaped neighbourhood")
    kU = k if k % 2 == 1 else k - 1
    kL = kU - 1
    tree = to_rooted_tree(nb, graph.weights, edge_weight=graph.edge_weight)
    return SandwichResult(gL=h_k(tree, kL), gU=h_k(tree, kU), kL=kL, kU=kU)


def _couple_bernoulli_poisson(p_prime, u):
    """Comonotone (X, Z) from one shared uniform per site.

    X = 1{u > 1 - min(p', 1)} is Bernoulli(min(p', 1)), Z the Poisson(p')
    quantile at the same u.  Routing both through the intermediate
    Poisson(min(p', 1)) quantile shows P(X != Z) <= p'^2 + p' 1{p' >= 1}.
    """
    p_prime = np.asarray(p_prime, dtype=float)
    u = np.asarray(u, dtype=float)
    pe = np.minimum(p_prime, 1.0)
    x = (u > 1.0 - pe).astype(np.int64)
    z = poisson_icdf(p_prime, u)
    if x.ndim == 0:
        return int(x), int(z)
    return x, z


@pytest.fixture
def couple_bernoulli_poisson():
    """The site coupling of one Bernoulli and one Poisson through a shared uniform."""
    return _couple_bernoulli_poisson


def _bernoulli_positions(gen, total, p):
    """Positions of successes of a Bernoulli(p) process on [0, total)."""
    if total <= 0 or p <= 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    out = []
    pos = -1
    while True:
        expect = (total - pos) * p
        block = int(expect + 10.0 * np.sqrt(expect + 1.0) + 16)
        gaps = np.minimum(gen.geometric(p, size=block), total + 1)
        positions = pos + np.cumsum(gaps)
        inside = positions < total
        out.append(positions[inside])
        if not inside.all():
            break
        pos = int(positions[-1])
    return np.concatenate(out).astype(np.int64)


def _per_pair_sample_graph(weights, seed, stream=0, mu_v=None, mu_e=None):
    """The bucketed skip sampler that partitions, maps and thins one bucket pair at a time.

    It recomputes the power-of-two buckets on every call and draws, per
    bucket pair, the geometric gaps and then one thinning uniform per
    candidate.  ``graph.sample_graph`` must consume the same draws in the
    same order and realize the same edges.
    """
    W = weights.W
    n, theta = weights.n, weights.theta
    gen = stream_rng(seed, stream, _GEN_TAG)
    if n == 1:
        return WeightedGraph(weights, seed, stream,
                             np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                             mu_v=mu_v, mu_e=mu_e)

    # floor(log2 W), made exact where the rounding of log2 lands on the wrong
    # side of a power of two
    bucket = np.floor(np.log2(W))
    bucket -= np.ldexp(1.0, bucket.astype(np.int64)) > W
    bucket += np.ldexp(1.0, bucket.astype(np.int64) + 1) <= W
    bucket = bucket.astype(np.int64)
    labels = np.unique(bucket)
    members = {b: np.flatnonzero(bucket == b) for b in labels}
    wmax = {b: float(W[members[b]].max()) for b in labels}

    all_u, all_v = [], []
    for ai, a in enumerate(labels):
        ia = members[a]
        for b in labels[ai:]:
            ib = members[b]
            pmax = min(wmax[a] * wmax[b] / (n * theta), 1.0)
            if a == b:
                m = ia.size
                total = m * (m - 1) // 2
            else:
                total = ia.size * ib.size
            pos = _bernoulli_positions(gen, total, pmax)
            if pos.size == 0:
                continue
            if a == b:
                i, j = _unrank_triangle(pos, ia.size)
                cu, cv = ia[i], ia[j]
            else:
                cu = ia[pos // ib.size]
                cv = ib[pos % ib.size]
            accept = gen.random(pos.size) * pmax < np.minimum(
                W[cu] * W[cv] / (n * theta), 1.0)
            if np.any(accept):
                all_u.append(np.minimum(cu[accept], cv[accept]))
                all_v.append(np.maximum(cu[accept], cv[accept]))

    if all_u:
        edge_u = np.concatenate(all_u)
        edge_v = np.concatenate(all_v)
    else:
        edge_u = np.empty(0, dtype=np.int64)
        edge_v = np.empty(0, dtype=np.int64)
    return WeightedGraph(weights, seed, stream, edge_u, edge_v, mu_v=mu_v, mu_e=mu_e)


@pytest.fixture
def per_pair_sample_graph():
    """The oracle of the bucket-plan sampler."""
    return _per_pair_sample_graph


def _size_biased_intervals(W):
    """Each vertex's size-biased CDF interval (lo, hi], from one stable argsort.

    Vertex order[r] owns (upper[r - 1], upper[r]] of the cumulative table of
    the weights in stable ascending order, which ends at exactly 1.
    ``EmpiricalSizeBiased.interval`` must return the same bits per label.
    """
    W = np.asarray(W, dtype=float)
    order = np.argsort(W, kind="stable")
    upper = np.cumsum(W[order] / W.sum())
    upper[-1] = 1.0
    lo = np.empty(W.size)
    hi = np.empty(W.size)
    hi[order] = upper
    lo[order[0]] = 0.0
    lo[order[1:]] = upper[:-1]
    return lo, hi


@pytest.fixture
def size_biased_intervals():
    """The oracle of the per-label size-biased intervals."""
    return _size_biased_intervals


def _all_points_w1(s, masses, spec):
    """The weighted-sample W1 with the spec's CDF taken at every sorted point.

    The same telescoped sum as ``weights._wasserstein_steps``, with
    c = clip(F(s), lo, hi) from all n values of F and the linear part
    s ((c - lo) - (hi - c)) at every step; the blocked CDF and the fused
    linear part must give the same bits.
    """
    hi = np.minimum(np.cumsum(masses), 1.0)
    hi[-1] = 1.0
    lo = np.concatenate(([0.0], hi[:-1]))
    if spec.family == "constant":
        return float(np.dot(hi - lo, np.abs(s - spec.c)))
    c = np.clip(spec.cdf(s), lo, hi)
    linear = s * ((c - lo) - (hi - c))
    up = c == hi
    sign = up.view(np.int8) - ((c == lo) & ~up).view(np.int8)
    starts = np.flatnonzero(np.concatenate(([True], (sign[1:] != sign[:-1]) | (sign[1:] == 0))))
    run_sign = sign[starts]
    g = spec.partial_quantile_integral(
        np.concatenate((lo[starts], [1.0], c[sign == 0])))
    g_start, g_end, g_c = g[:starts.size], g[1:starts.size + 1], g[starts.size + 1:]
    g_part = np.where(run_sign > 0, g_start - g_end, g_end - g_start)
    flat = run_sign == 0
    g_part[flat] = (g_start[flat] - g_c) + (g_end[flat] - g_c)
    return float((np.add.reduceat(linear, starts) + g_part).sum())


@pytest.fixture
def all_points_w1():
    """The oracle of the W1 that evaluates the CDF only near crossings."""
    return _all_points_w1


def weighted_sample_w1(s, masses, spec):
    """W1 between the law with ``masses`` on the ascending values ``s`` and a
    spec: ``weights._wasserstein_steps`` on the capped cumulative masses."""
    return _wasserstein_steps(s, _capped_cdf(np.array(masses, dtype=float)), spec)


# ---- the integer-shape gamma quantile, both branches everywhere ----------------------


def where_integer_gamma_block(k, u):
    """Quantile of gamma(k, 1) for k in {1, 2, 3}: the one-pass form, which takes
    T(x) from both its series and expm1 at every value and picks with np.where.

    The oracle of ``weights._integer_gamma_quantile``, which evaluates each
    branch only on its own values in long calls: both must give the same bits.
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = 1.0 - u
        w = v - 1.0
        c = (w + u) / np.maximum(v, 0.5)
        L = c - special.log1p(w)
        if k == 1:
            return L
        split, series = _GAMMA_SERIES[k]
        s = np.sqrt(L + L) if k == 2 else _cbrt(6.0 * L)
        x = s * _horner(_GAMMA_START[k], s)
        g = x * _SPLITTER
        x = g - (g - x)
        g = u * _SPLITTER
        uh = g - (g - u)
        ul = u - uh
        xx = x * x
        if k == 2:
            e1, xk, hx = x, xx, x
        else:
            e1, xk, hx = x + 0.5 * xx, xx * x, 0.5 * xx
        e = 1.0 + e1
        tv = np.where(x < split,
                      xk * (series[-1] * v + (x * _horner(series[:-1], x)) * v),
                      (special.expm1(x) - e1) * v)
        f = special.log1p(((((tv - u) - uh * e1) - ul * e1) - tv * c) / e)
        r = f * e / hx
        a = 0.5 / e if k == 2 else 1.0 - 0.5 * x * (1.0 + x) / e
        x = x - r * (1.0 + r / x * a)
        return np.fmax(x, L)


# ---- the limiting objects, drawn directly ------------------------------------------


def _maybe_weight(spec, rng):
    return float(spec.quantile(rng.random())) if spec is not None else np.nan


def sample_limit_tree(W, spec, mu_e, mu_v, depth, rng, max_nodes=DEFAULT_NODE_BUDGET):
    """Draw the depth-``depth`` cut of the delayed Galton-Watson tree.

    The root of type W has Poi(W) children; every other individual draws its
    type What from the size-biased law and then has Poi(What) children.  The
    oracle of the limit law that coupling stage 3 redraws into.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    biased = spec.size_biased()
    tree = RootedWeightedTree(W, depth, _maybe_weight(mu_v, rng))
    frontier = [(0, float(W))]  # (node id, offspring mean)
    for d in range(depth):
        nxt = []
        for node, mean in frontier:
            k = rng.poisson(mean)
            if tree.node_count + k > max_nodes:
                raise TreeBudgetExceeded(f"limit tree exceeded {max_nodes} nodes")
            for _ in range(k):
                what = float(biased.quantile(rng.random()))
                child = tree.add_child(node, what, _maybe_weight(mu_e, rng),
                                       _maybe_weight(mu_v, rng))
                nxt.append((child, what))
        frontier = nxt
    return tree


def sample_intermediate_tree(weights, v, depth, rng, max_nodes=DEFAULT_NODE_BUDGET):
    """Draw the n-type intermediate tree rooted at vertex v.

    Node labels are the graph vertex ids the types came from.  The tree grows
    with ``limit_trees.grow_intermediate``, the grower that coupling stage 1
    uses for what it leaves detached.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    tree = RootedWeightedTree(weights.W[v], depth, root_label=int(v))
    grow_intermediate(tree, [0], weights.size_biased, rng, max_nodes)
    return tree


# ---- exact 1-Wasserstein distances ---------------------------------------------------


def wasserstein_1d(a, b):
    """Exact 1-Wasserstein distance via the inverse-CDF coupling.

    ``a`` is either a 1-d sample (uniform empirical masses), which goes
    through ``weights._wasserstein_steps``, or a WeightSpec.
    Discrete/discrete pairs are summed exactly over merged CDF breakpoints;
    pairs involving a gamma law integrate |F_a - F_b| by adaptive quadrature.
    """
    if not isinstance(b, WeightSpec):
        raise ValueError(f"unsupported Wasserstein combination: second argument "
                         f"must be a WeightSpec, got {type(b).__name__}")
    if isinstance(a, WeightSpec):
        return _wasserstein_spec_spec(a, b)
    sample = np.asarray(a, dtype=float)
    if sample.ndim != 1 or sample.size == 0:
        raise ValueError("sample must be a non-empty 1-d array")
    masses = np.full(sample.size, 1.0 / sample.size)
    return weighted_sample_w1(np.sort(sample), masses, b)


def _as_discrete(spec):
    """(atoms, masses) of a constant or finite law."""
    if spec.family == "constant":
        return np.array([spec.c]), np.array([1.0])
    return np.asarray(spec.values), np.asarray(spec.probs)


def _wasserstein_spec_spec(a, b):
    discrete = {"constant", "finite"}
    if a.family in discrete and b.family in discrete:
        va, pa = _as_discrete(a)
        vb, pb = _as_discrete(b)
        # merge the CDF breakpoints of both laws and sum |Qa - Qb| segment-wise
        cuts = np.unique(np.concatenate((np.cumsum(pa), np.cumsum(pb), [0.0, 1.0])))
        cuts = cuts[(cuts >= 0.0) & (cuts <= 1.0)]
        mid = (cuts[:-1] + cuts[1:]) / 2.0
        qa = a.quantile(mid)
        qb = b.quantile(mid)
        return float(np.sum(np.abs(qa - qb) * np.diff(cuts)))
    if a.family == "gamma" or b.family == "gamma":
        from scipy.integrate import quad

        top = max(_upper_support(a), _upper_support(b))
        val, _ = quad(lambda x: abs(float(a.cdf(x)) - float(b.cdf(x))), 0.0, top,
                      limit=200)
        return float(val)
    raise ValueError(f"unsupported Wasserstein combination: {a.family}/{b.family}")


def _upper_support(spec):
    if spec.family == "constant":
        return spec.c
    if spec.family == "finite":
        return max(spec.values)
    return float(spec.quantile(1.0 - 1e-13))
