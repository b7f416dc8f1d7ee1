"""The two concrete graph functionals: dependent edge-weight sums and
maximum weight matching.

The edge-weight sum N(G) adds, over realized edges, the decorative weights
of the two endpoints; its perturbation effects have exact closed forms.

Maximum weight matching is solved exactly: on trees by the linear-time
bottom-up recursion, on general graphs at desk scale (<= 24 vertices) one
connected component at a time.  The edge weights come from one vectorised
site hash; each component is relabelled in breadth-first order and solved by
the memoized remove-or-match recursion over vertex bitmasks

    M(G) = max( M(G - v), max_u w_{vu} + M(G - {v, u}) ),

and M(G) is the right fold w_1 + (w_2 + (... + w_k)) over the matched edges
in sorted order, the same sum the recursion on the whole graph returns.

The finite-depth recursion h_k on a rooted tree brackets the matching
increment h(G, v) = M(G) - M(G - v) between consecutive even and odd
depths, which is what the sandwich evaluator returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .explore import Neighbourhood, is_tree, to_rooted_tree
from .graph import WeightedGraph
from .trees import RootedWeightedTree

EXACT_SOLVER_LIMIT = 24


@dataclass
class Matching:
    """A witness matching: vertex-disjoint edges and their total weight."""

    edges: list[tuple[int, int]]
    value: float

    def __post_init__(self):
        used = set()
        for u, v in self.edges:
            if u in used or v in used or u == v:
                raise ValueError("matching edges must be vertex-disjoint")
            used.update((u, v))


@dataclass
class SandwichResult:
    gL: float
    gU: float
    kL: int
    kU: int

    def __post_init__(self):
        if self.gL > self.gU + 1e-12:
            raise ValueError("sandwich is inverted")


# ---- exact solver on small general graphs -------------------------------------------


class _ExactMatcher:
    """Memoized remove-or-match recursion over the vertex bitmasks of one
    component, given as neighbour lists of (vertex, weight) on labels 0..k-1."""

    def __init__(self, adj: list[list[tuple[int, float]]]):
        self.adj = adj
        self._memo: dict[int, float] = {}

    def value(self, mask: int) -> float:
        memo = self._memo
        cached = memo.get(mask)
        if cached is not None:
            return cached
        if mask == 0:
            return 0.0
        v = (mask & -mask).bit_length() - 1
        best = self.value(mask & ~(1 << v))  # leave v unmatched
        for u, w in self.adj[v]:
            if mask >> u & 1:
                cand = w + self.value(mask & ~(1 << v) & ~(1 << u))
                if cand > best:
                    best = cand
        memo[mask] = best
        return best

    def witness(self, mask: int) -> list[tuple[int, int]]:
        """The matching ``value`` chose: the same comparisons, so its weights,
        folded from the right in label order, give value(mask) bit for bit."""
        out = []
        while mask:
            v = (mask & -mask).bit_length() - 1
            rest = mask & ~(1 << v)
            best = self.value(rest)
            pick = None
            for u, w in self.adj[v]:
                if mask >> u & 1:
                    cand = w + self.value(rest & ~(1 << u))
                    if cand > best:
                        best = cand
                        pick = u
            if pick is None:
                mask = rest
            else:
                out.append((v, pick))
                mask = rest & ~(1 << pick)
        return out


def _exact_matching(n: int, edges: list[tuple[int, int, float]]) -> Matching:
    """Exact maximum weight matching of an explicit graph on n <= 24 vertices.

    Each connected component is relabelled in breadth-first order from its
    lowest vertex and solved on its own; a component's bitmask recursion then
    eliminates vertices along the search frontier and memoizes few states.
    The value is the right fold w_1 + (w_2 + (... + w_k)) over the matched
    edges sorted by endpoints, which is the sum the whole-graph recursion on
    the original labels returns.  The two agree bit for bit unless two
    matchings tie in weight (exactly or to rounding); on a tie either may be
    the witness, and the values can then differ in the last bits.
    """
    if n > EXACT_SOLVER_LIMIT:
        raise ValueError(f"exact matching limited to {EXACT_SOLVER_LIMIT} vertices")
    adj: list[dict[int, float]] = [{} for _ in range(n)]
    for u, v, w in edges:
        if u == v:
            raise ValueError("self loops are not allowed")
        if w < 0:
            raise ValueError("matching requires nonnegative edge weights")
        if v in adj[u]:
            raise ValueError("duplicate edge")
        adj[u][v] = adj[v][u] = float(w)
    seen = [False] * n
    matched = []
    for root in range(n):
        if seen[root] or not adj[root]:
            continue
        seen[root] = True
        order = [root]
        for x in order:  # breadth first: order grows while it is read
            for y in sorted(adj[x]):
                if not seen[y]:
                    seen[y] = True
                    order.append(y)
        label = {x: i for i, x in enumerate(order)}
        solver = _ExactMatcher([[(label[y], w) for y, w in adj[x].items()] for x in order])
        for a, b in solver.witness((1 << len(order)) - 1):
            u, v = sorted((order[a], order[b]))
            matched.append((u, v, adj[u][v]))
    matched.sort()
    total = 0.0
    for _, _, w in reversed(matched):
        total = w + total
    return Matching(edges=[(u, v) for u, v, _ in matched], value=total)


def _edge_list(graph: WeightedGraph) -> list[tuple[int, int, float]]:
    """(u, v, w_uv) for every realized edge; the weights come from one hash call."""
    w = graph.edge_weight(graph.edge_u, graph.edge_v)
    return list(zip(graph.edge_u.tolist(), graph.edge_v.tolist(), w.tolist()))


def matching_value(n: int, edges: list[tuple[int, int, float]],
                   exclude: frozenset[int] = frozenset()) -> float:
    """M(G - exclude) for an explicit edge list; exact."""
    kept = [e for e in edges if e[0] not in exclude and e[1] not in exclude]
    return _exact_matching(n, kept).value


def max_weight_matching(obj, edges: list[tuple[int, int, float]] | None = None) -> Matching:
    """Exact maximum weight matching.

    Accepts a RootedWeightedTree (linear-time recursion), a WeightedGraph
    with an edge-weight law (desk-scale exact search), or an explicit
    (n, edges) pair.  Sizes beyond the exact-solver limit raise; there is no
    heuristic fallback.  On general graphs the witness and the value come
    from the per-component search of ``_exact_matching``, which says how
    weight ties are settled.
    """
    if isinstance(obj, RootedWeightedTree):
        value, matched = _tree_matching(obj)
        return Matching(edges=matched, value=value)
    if isinstance(obj, WeightedGraph):
        return _exact_matching(obj.n, _edge_list(obj))
    return _exact_matching(int(obj), edges or [])


def _bottom_up(tree: RootedWeightedTree) -> tuple[np.ndarray, np.ndarray, list[int | None]]:
    """Leaves first, per node u: h_u = max(0, max_c (w_c - h_c)), the best
    such child c (None when h_u = 0) and M(T_u) = sum_c M(T_c) + h_u."""
    n = tree.node_count
    h = np.zeros(n)
    m = np.zeros(n)
    pick: list[int | None] = [None] * n
    for node in range(n - 1, -1, -1):
        best, arg, total = 0.0, None, 0.0
        for c in tree.children[node]:
            total += m[c]
            gain = tree.edge_w[c] - h[c]
            if gain > best:
                best, arg = gain, c
        h[node] = best
        m[node] = total + best
        pick[node] = arg
    return h, m, pick


def _tree_matching(tree: RootedWeightedTree) -> tuple[float, list[tuple[int, int]]]:
    """Bottom-up: M(T_u) = sum_c M(T_c) + max(0, max_c (w_c - h_c))."""
    h, m, pick = _bottom_up(tree)
    # reconstruct a witness top-down: a free node takes its best child edge
    matched: list[tuple[int, int]] = []
    used = np.zeros(tree.node_count, dtype=bool)
    for node in range(tree.node_count):  # parents precede children
        c = pick[node]
        if c is not None and h[node] > 0 and not used[node]:
            matched.append((node, c))
            used[node] = used[c] = True
    return float(m[0]), matched


def h_value(obj, v: int, edges: list[tuple[int, int, float]] | None = None) -> float:
    """h(G, v) = M(G) - M(G - v); nonnegative.

    Accepts a WeightedGraph with an edge-weight law or an explicit
    (n, edges) pair.
    """
    if isinstance(obj, WeightedGraph):
        n, edges = obj.n, _edge_list(obj)
    else:
        n, edges = int(obj), edges or []
    return _exact_matching(n, edges).value - matching_value(n, edges, frozenset({v}))


def h_k(tree: RootedWeightedTree, k: int) -> float:
    """Finite-depth matching recursion at the root of the depth-k cut.

    Nodes at depth k (and genuine leaves) start at zero; each internal node
    takes max(0, max over children of edge weight minus the child's value).
    """
    h, _, _ = _bottom_up(tree.truncate(min(k, tree.depth)))
    return float(h[0])


def matching_sandwich(nb: Neighbourhood, k: int, graph: WeightedGraph) -> SandwichResult:
    """h_{kL} and h_{kU} on the ball, kU the largest odd <= k, kL = kU - 1.

    For tree-shaped balls these bracket the matching increment of the root:
    even depths from below, odd depths from above.
    """
    if k < 1:
        raise ValueError("sandwich needs k >= 1")
    if not is_tree(nb):
        raise ValueError("sandwich requires a tree-shaped neighbourhood")
    kU = k if k % 2 == 1 else k - 1
    kL = kU - 1
    tree = to_rooted_tree(nb, graph.weights, edge_weight=graph.edge_weight)
    return SandwichResult(gL=h_k(tree, kL), gU=h_k(tree, kU), kL=kL, kU=kU)


# ---- dependent edge-weight sum -------------------------------------------------------


def dependent_edge_sum(graph: WeightedGraph) -> float:
    """N(G): sum over realized edges of the endpoint vertex weights."""
    if graph.mu_v is None:
        raise ValueError("dependent edge sum needs vertex weights")
    if graph.num_edges == 0:
        return 0.0
    # one hash and quantile per vertex, gathered by endpoint
    w = graph.vertex_weight(np.arange(graph.n))
    return float(np.sum(w[graph.edge_u]) + np.sum(w[graph.edge_v]))


def delta_N(graph: WeightedGraph, site) -> float:
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


# ---- envelope functions (the simple perturbation bounds) -----------------------------


def envelope_bound(application: str, graph: WeightedGraph, site) -> float:
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
