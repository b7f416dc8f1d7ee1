from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pytest
from scipy import special

from sparselocal import rng as srng
from sparselocal.bounds import (BoundParams, VertexSetSummary, epsilon_rho_sequences,
                                excess_weight_bound, mean_pweight_bound)
from sparselocal.coupling import _COUPLE_TAG, poisson_icdf
from sparselocal.explore import Neighbourhood
from sparselocal.graph import _GEN_TAG, WeightedGraph, _unrank_triangle, sample_graph
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


# ---- whole graphs: their rows, and the perturbation G^F of ROADMAP item 7a ----------


class WholeGraph(WeightedGraph):
    """A whole graph with its rows and, for a perturbation G^F, its flips.

    The rows are built on first use from ``edge_u``/``edge_v``: ``arcs``
    stores each edge twice, as the keys u*n + v and v*n + u, sorted, and the
    row of v is the run of keys in [v*n, (v + 1)*n), found by two binary
    searches, so it comes out ascending.  ``flipped_edges``/
    ``flipped_vertices`` record the sites of a perturbation G^F: flipped edge
    indicators are already baked into the edge list, flipped weight sites
    transparently read the replacement stream.  With no flip and no
    ``replacement``, the weights are the package's own site functions.
    """

    def __init__(self, weights, seed, stream, edge_u, edge_v, mu_v=None, mu_e=None,
                 flipped_edges=frozenset(), flipped_vertices=frozenset()):
        super().__init__(weights, seed, stream, edge_u, edge_v, mu_v=mu_v, mu_e=mu_e)
        self.flipped_edges = flipped_edges
        self.flipped_vertices = flipped_vertices

    @classmethod
    def of(cls, graph):
        """The same graph, with rows."""
        return cls(graph.weights, graph.seed, graph.stream, graph.edge_u, graph.edge_v,
                   mu_v=graph.mu_v, mu_e=graph.mu_e)

    @cached_property
    def arcs(self):
        """Both arcs of each edge, the keys u*n + v and v*n + u, sorted: the rows."""
        n = self.n
        arcs = np.concatenate((self.edge_u * n + self.edge_v, self.edge_v * n + self.edge_u))
        arcs.sort()
        return arcs

    def _check_vertex(self, v):
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range [0, {self.n})")

    def _row(self, v):
        """Where the arcs of v start and end."""
        self._check_vertex(v)
        first = v * self.n
        return (int(self.arcs.searchsorted(first)),
                int(self.arcs.searchsorted(first + self.n)))

    def neighbors(self, v):
        start, stop = self._row(v)
        return self.arcs[start:stop] - v * self.n

    def degree(self, v):
        start, stop = self._row(v)
        return stop - start

    def edge_indicator(self, u, v):
        """X_{uv}: 1 when {u, v} is an edge, else 0 (always 0 at u == v, as the
        graph has no self-loops)."""
        self._check_vertex(u)
        self._check_vertex(v)
        key = u * self.n + v
        i = int(self.arcs.searchsorted(key))
        return int(i < self.arcs.size and self.arcs[i] == key)

    def replacement_edge_indicator(self, u, v):
        """X'_{uv} = 1{U' < p_uv}, a pure site function; vectorized."""
        u_arr = np.asarray(u, dtype=np.int64)
        v_arr = np.asarray(v, dtype=np.int64)
        uni = self._sites.edge_uniform(srng.KIND_EDGE_REPL, u_arr, v_arr)
        p = np.minimum(self.p_prime(u_arr, v_arr), 1.0)
        out = (uni < p) & (u_arr != v_arr)
        return out.astype(np.int64) if out.ndim else int(out)

    def vertex_weight(self, v, replacement=False):
        if not (replacement or self.flipped_vertices):
            return super().vertex_weight(v)
        spec = self._needs(self.mu_v, "vertex weight")
        v_arr = np.asarray(v, dtype=np.int64)
        flag = self._vertex_flag(v_arr, replacement)
        out = spec.quantile(self._sites.uniform(srng.KIND_VERTEX_WEIGHT, v_arr, 0, flag))
        return out if out.ndim else float(out)

    def edge_weight(self, u, v, replacement=False):
        if not (replacement or self.flipped_edges):
            return super().edge_weight(u, v)
        spec = self._needs(self.mu_e, "edge weight")
        u_arr = np.asarray(u, dtype=np.int64)
        v_arr = np.asarray(v, dtype=np.int64)
        flag = self._edge_flag(u_arr, v_arr, replacement)
        out = spec.quantile(self._sites.edge_uniform(srng.KIND_EDGE_WEIGHT, u_arr, v_arr,
                                                     flag))
        return out if out.ndim else float(out)

    def _vertex_flag(self, v_arr, replacement):
        """The site flag of each vertex: REPLACEMENT where it is flipped xor
        ``replacement``.  With no flipped vertex it is one flag for all."""
        if not self.flipped_vertices:
            return srng.REPLACEMENT if replacement else srng.PRIMARY
        table = np.zeros(self.n, dtype=bool)
        table[list(self.flipped_vertices)] = True
        return np.where(table[v_arr] ^ replacement, srng.REPLACEMENT, srng.PRIMARY)

    def _edge_flag(self, u_arr, v_arr, replacement):
        """The site flag of each edge, as :meth:`_vertex_flag` gives it for vertices."""
        if not self.flipped_edges:
            return srng.REPLACEMENT if replacement else srng.PRIMARY
        lo = np.minimum(u_arr, v_arr)
        hi = np.maximum(u_arr, v_arr)
        flipped = self.flipped_edges
        mask = np.asarray([(int(a), int(b)) in flipped for a, b in
                           zip(np.atleast_1d(lo), np.atleast_1d(hi))]).reshape(np.shape(lo))
        return np.where(mask ^ replacement, srng.REPLACEMENT, srng.PRIMARY)


def whole_graph(weights, seed, stream=0, mu_v=None, mu_e=None):
    """``graph.sample_graph``'s graph, with rows."""
    return WholeGraph.of(sample_graph(weights, seed, stream, mu_v=mu_v, mu_e=mu_e))


@dataclass(frozen=True)
class PerturbationSet:
    """A set of resampling sites: vertex ids and unordered vertex pairs."""

    vertices: frozenset = frozenset()
    edges: frozenset = frozenset()

    def __post_init__(self):
        canon = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError("edge sites need distinct endpoints")
            canon.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(canon))

    def validate(self, n):
        for v in self.vertices:
            if not 0 <= v < n:
                raise IndexError(f"vertex site {v} out of range")
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexError(f"edge site {(u, v)} out of range")


def perturb(graph, sites):
    """The resampled graph G^F: X_e -> X'_e and w_z -> w'_z exactly on F.

    Deterministic given (seed, stream): the replacement values come from the
    replacement site stream, so G^emptyset is G site-by-site and the full
    flip is an independent copy.  Perturbations always start from the base
    graph, matching how G^F is defined.
    """
    if graph.flipped_edges or graph.flipped_vertices:
        raise ValueError("perturb must be applied to the base graph")
    sites.validate(graph.n)
    keep = [(int(u), int(v)) for u, v in zip(graph.edge_u, graph.edge_v)
            if (int(u), int(v)) not in sites.edges]
    added = []
    for u, v in sorted(sites.edges):
        if graph.replacement_edge_indicator(u, v):
            added.append((u, v))
    edges = keep + added
    return WholeGraph(graph.weights, graph.seed, graph.stream,
                      [u for u, _ in edges], [v for _, v in edges],
                      mu_v=graph.mu_v, mu_e=graph.mu_e,
                      flipped_edges=frozenset(sites.edges),
                      flipped_vertices=frozenset(sites.vertices))


def delta_N(graph, site):
    """Closed-form change of N when one site is resampled.

    site is ("edge", (u, v)) or ("vertex", v):
      edge:   (w_v + w_u) (X_e - X'_e)
      vertex: |D_1(v)| (w_v - w'_v)
    """
    kind, where = site
    if kind == "edge":
        u, v = where
        x = graph.edge_indicator(u, v)
        x_new = graph.replacement_edge_indicator(u, v)
        return float((graph.vertex_weight(u) + graph.vertex_weight(v)) * (x - x_new))
    if kind == "vertex":
        v = where
        return float(graph.degree(v)
                     * (graph.vertex_weight(v) - graph.vertex_weight(v, replacement=True)))
    raise ValueError(f"unknown site kind {kind!r}")


def envelope_bound(application, graph, site):
    """The closed-form dominating envelope for |Delta_site f|.

    matching:  edge sites are bounded by 1{max(X, X') = 1} max(w_e, w'_e);
               vertex sites do not enter (no vertex weights).
    edge-sum:  edge sites by 1{max(X, X') = 1}(w_v + w_u), vertex sites by
               |D_1(v)| (w_v + w'_v).
    """
    kind, where = site
    if application == "matching":
        if kind == "vertex":
            return 0.0
        u, v = where
        present = max(graph.edge_indicator(u, v), graph.replacement_edge_indicator(u, v))
        return float(present * max(graph.edge_weight(u, v),
                                   graph.edge_weight(u, v, replacement=True)))
    if application == "edge-sum":
        if kind == "edge":
            u, v = where
            present = max(graph.edge_indicator(u, v), graph.replacement_edge_indicator(u, v))
            return float(present * (graph.vertex_weight(u) + graph.vertex_weight(v)))
        v = where
        return float(graph.degree(v)
                     * (graph.vertex_weight(v) + graph.vertex_weight(v, replacement=True)))
    raise ValueError(f"unknown application {application!r}")


def clt_bound(p: BoundParams, sigma2, me_delta, mv_delta, chi, J):
    """Kolmogorov-distance bound for the standardized functional.

    me_delta and mv_delta are the products M^E_n delta^E_k and
    M^V_n delta^V_k of the local-approximation moments and gaps at level
    k = ell; chi is the degree-moment average and J the envelope-moment
    constant.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    eps, rho = epsilon_rho_sequences(p)
    ratio = p.n / sigma2
    lead = (ratio ** 0.5
            * (p.theta ** 0.5 + p.G(2) + chi ** 0.5) ** 2
            * (max(me_delta, 0.0) ** 0.125 + max(mv_delta, 0.0) ** 0.125
               + eps ** (1.0 / 16.0) + rho ** (1.0 / 16.0)))
    tail = ratio ** 0.75 * (p.theta * p.G(1) + chi ** 0.5) / p.n ** 0.25
    return p.C0 * J ** 0.25 * (lead + tail)


# ---- the per-stage coupling bounds of ROADMAP item 8 ---------------------------------


def intermediate_coupling_bound(p: BoundParams, Wv):
    """Single-root bound for the ball/intermediate-tree coupling, with the
    expected neighbourhood norms replaced by their closed-form bounds."""
    kn = p.k_n
    return (mean_pweight_bound(p, Wv, 2) * p.G(2) / p.ntheta
            + excess_weight_bound(p, Wv) * p.G(1)
            + mean_pweight_bound(p, Wv, 1) * (p.K(1) + 1.0 / kn + kn / p.ntheta))


def repeat_probability_bound(p: BoundParams, vs: VertexSetSummary):
    """Probability that the independence repair touches any tree."""
    lam = p.moments.lambda_n
    return (p.k_n ** 2 / lam
            + (vs.count
               + vs.weight * p.G(1) * (p.G(2) + 1.0) ** (p.ell - 1)
               + vs.weight * (p.G(2) + 1.0) ** p.ell) / p.k_n)


# ---- tree-shaped balls and their codes, ROADMAP items 7 and 9 ------------------------


def edge_count(nb: Neighbourhood):
    """The edges of an explored ball: its tree edges and its extra edges."""
    return nb.vertex_count - 1 + len(nb.extra_edges)


def is_tree(nb: Neighbourhood):
    """True iff the explored ball is acyclic (no extra edges were found)."""
    return not nb.extra_edges


def to_rooted_tree(nb: Neighbourhood, weights, vertex_weight=None, edge_weight=None):
    """Ulam-Harris tree for a tree-shaped ball; types are the W_v.

    ``vertex_weight`` and ``edge_weight`` are optional accessors (v) -> w and
    (u, v) -> w, typically bound to the graph's lazy weight streams.
    """
    if not is_tree(nb):
        raise ValueError("neighbourhood is not a tree")
    W = weights.W

    def vw(v):
        return np.nan if vertex_weight is None else float(vertex_weight(v))

    def ew(u, v):
        return np.nan if edge_weight is None else float(edge_weight(u, v))

    tree = RootedWeightedTree(W[nb.root], nb.depth, vw(nb.root), root_label=nb.root)
    ids = {nb.root: 0}
    for p in nb.vertices():
        for u in nb.children[p]:
            ids[u] = tree.add_child(ids[p], W[u], ew(p, u), vw(u), label=u)
    return tree


def height(tree: RootedWeightedTree):
    return max(tree.node_depth)


def address(tree: RootedWeightedTree, node):
    """Ulam-Harris address (1-based child indices along the root path)."""
    path = []
    while node != 0:
        p = tree.parent[node]
        path.append(tree.children[p].index(node) + 1)
        node = p
    return tuple(reversed(path))


def canonical_code(tree: RootedWeightedTree, with_types=True):
    """AHU canonical form; equal codes iff rooted-isomorphic with equal weights.

    Weights enter as raw float64 bit patterns, so comparisons are exact and
    transitive.  Child blocks are sorted lexicographically, which makes the
    code invariant under any permutation of children.  It can ignore the
    connectivity types: coupled objects on the two sides of a Wasserstein
    redraw share structure and decorative weights but not types.
    """

    def scalar(x):
        return np.float64(x).tobytes()

    n = tree.node_count
    code = [None] * n
    # children always have larger ids, so a reverse sweep is post-order
    for node in range(n - 1, -1, -1):
        blocks = sorted(scalar(tree.edge_w[c]) + code[c] for c in tree.children[node])
        head = scalar(tree.type_w[node]) if with_types else b""
        code[node] = b"(" + head + scalar(tree.vertex_w[node]) + b"".join(blocks) + b")"
    return code[0]


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


def _per_pair_sample_graph(weights, seed, stream=0, mu_v=None, mu_e=None, gen=None):
    """The bucketed skip sampler that partitions, maps and thins one bucket pair at a time.

    It recomputes the power-of-two buckets on every call and draws, per
    bucket pair, the geometric gaps and then one thinning uniform per
    candidate.  ``graph.sample_graph`` must consume the same draws in the
    same order and realize the same edges.  ``gen`` stands in for the
    generator of (seed, stream), as it does for ``sample_graph``.
    """
    W = weights.W
    n, theta = weights.n, weights.theta
    if gen is None:
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
