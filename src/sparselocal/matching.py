"""The two concrete graph functionals: dependent edge-weight sums and
maximum weight matching.

The edge-weight sum N(G) adds, over realized edges, the decorative weights
of the two endpoints.

Maximum weight matching is solved exactly at desk scale (<= 24 vertices),
one connected component at a time.  An edge weight is a pure function of
(seed, stream, u, v), the same at every n, so the edge weights of one
replica stream's graphs come from one vectorised site hash over their
joined edge lists; each component is relabelled in breadth-first order
and solved by the memoized remove-or-match recursion over vertex bitmasks

    M(G) = max( M(G - v), max_u w_{vu} + M(G - {v, u}) ),

with v the highest label left: leaf first, as the highest breadth-first
labels lie on the far side of the component, so on trees few vertex sets
are reached.  M(G) is the right fold w_1 + (w_2 + (... + w_k)) over the
matched edges in sorted order, the same sum the recursion on the whole
graph returns.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph

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


# ---- exact solver on small general graphs -------------------------------------------


class _ExactMatcher:
    """Memoized remove-or-match recursion over the vertex bitmasks of one
    component on labels 0..k-1.  Each state removes its highest label v: in
    breadth-first labels that is a vertex on the far side of the component,
    often a leaf.  Every other vertex left is below v, so ``adj[v]`` lists
    only the neighbours u < v, as (1 << u, u, weight)."""

    def __init__(self, adj: list[list[tuple[int, int, float]]]):
        self.adj = adj
        self._memo: dict[int, float] = {0: 0.0}
        self._pick: dict[int, int | None] = {}  # per mask: the highest vertex's partner

    def value(self, mask: int) -> float:
        memo = self._memo
        cached = memo.get(mask)
        if cached is not None:
            return cached
        v = mask.bit_length() - 1
        rest = mask ^ (1 << v)
        best = memo.get(rest)  # leave v unmatched
        if best is None:
            best = self.value(rest)
        pick = None
        for bit, u, w in self.adj[v]:
            if mask & bit:
                sub = memo.get(rest ^ bit)
                cand = w + (self.value(rest ^ bit) if sub is None else sub)
                if cand > best:
                    best, pick = cand, u
        memo[mask] = best
        self._pick[mask] = pick
        return best

    def witness(self, mask: int) -> list[tuple[int, int]]:
        """The matching ``value`` chose, read from its recorded picks: its
        weights, folded from the right from the highest label down, give
        value(mask) bit for bit."""
        self.value(mask)
        out = []
        while mask:
            v = mask.bit_length() - 1
            pick = self._pick[mask]
            mask ^= 1 << v
            if pick is not None:
                out.append((v, pick))
                mask ^= 1 << pick
        return out


def _exact_matching(n: int, edges: list[tuple[int, int, float]]) -> Matching:
    """Exact maximum weight matching of an explicit graph on n <= 24 vertices.

    Each connected component is relabelled in breadth-first order from its
    lowest vertex and solved on its own; a component's bitmask recursion then
    eliminates the highest label first, leaf first, and memoizes few states
    (47 vertex sets on a 24-vertex star, 441 on a complete binary tree).
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
    label: dict[int, int] = {}  # vertex -> its label in its component
    matched = []
    for root in range(n):
        if root in label or not adj[root]:
            continue
        label[root] = 0
        order = [root]
        for x in order:  # breadth first: order grows while it is read
            for y in sorted(adj[x]):
                if y not in label:
                    label[y] = len(order)
                    order.append(y)
        solver = _ExactMatcher([[(1 << label[y], label[y], w) for y, w in adj[x].items()
                                 if label[y] < i] for i, x in enumerate(order)])
        for a, b in solver.witness((1 << len(order)) - 1):
            u, v = sorted((order[a], order[b]))
            matched.append((u, v, adj[u][v]))
    matched.sort()
    total = 0.0
    for _, _, w in reversed(matched):
        total = w + total
    return Matching(edges=[(u, v) for u, v, _ in matched], value=total)


def _edge_list(graph: WeightedGraph, w: np.ndarray | None = None
               ) -> list[tuple[int, int, float]]:
    """(u, v, w_uv) for every realized edge; the weights ``w`` in edge-list
    order, or from one hash call when not given."""
    if w is None:
        w = graph.edge_weight(graph.edge_u, graph.edge_v)
    return list(zip(graph.edge_u.tolist(), graph.edge_v.tolist(), w.tolist()))


def max_weight_matching(graph: WeightedGraph, edge_weights: np.ndarray | None = None
                        ) -> Matching:
    """Exact maximum weight matching of a graph with an edge-weight law.

    The graph must have at most 24 vertices; larger graphs raise, and there
    is no heuristic fallback.  The witness and the value come from the
    per-component search of ``_exact_matching``, which says how weight ties
    are settled.  ``edge_weights`` are the graph's edge weights in edge-list
    order when already drawn (:func:`max_weight_matchings` draws them for a
    whole stream); else they are drawn here.
    """
    return _exact_matching(graph.n, _edge_list(graph, edge_weights))


def max_weight_matchings(graphs: Sequence[WeightedGraph]) -> list[Matching]:
    """:func:`max_weight_matching` of each graph of one replica stream, in order.

    An edge weight is a pure function of (seed, stream, u, v), the same at
    every n, so the graphs must share seed, stream and ``mu_e``.  The
    weights of all their edges, the edge lists joined, come from one hash
    and quantile call; a stream with no edge draws none.
    """
    first = graphs[0]
    if first.mu_e is None:
        raise ValueError("matching needs edge weights")
    for g in graphs[1:]:
        if (g.seed, g.stream, g.mu_e) != (first.seed, first.stream, first.mu_e):
            raise ValueError("the graphs of one matching stream must share seed, stream "
                             "and mu_e")
    w = np.empty(0)
    if any(g.num_edges for g in graphs):
        w = first.edge_weight(np.concatenate([g.edge_u for g in graphs]),
                              np.concatenate([g.edge_v for g in graphs]))
    out, start = [], 0
    for g in graphs:
        out.append(max_weight_matching(g, w[start:start + g.num_edges]))
        start += g.num_edges
    return out


# ---- dependent edge-weight sum -------------------------------------------------------


def dependent_edge_sum(graphs: Sequence[WeightedGraph]) -> list[float]:
    """N(G) of each graph of one replica stream, in order: the sum over
    realized edges of the endpoint vertex weights.

    A vertex weight is a pure function of (seed, stream, v), the same at
    every n, so the graphs must share seed, stream and ``mu_v``.  The
    weights of the vertices that some edge touches, in any of the graphs,
    come from one hash and quantile call and are gathered by endpoint;
    graphs with no edge draw none.
    """
    first = graphs[0]
    if first.mu_v is None:
        raise ValueError("dependent edge sum needs vertex weights")
    for g in graphs[1:]:
        if (g.seed, g.stream, g.mu_v) != (first.seed, first.stream, first.mu_v):
            raise ValueError("the graphs of one edge sum must share seed, stream and mu_v")
    touched = np.zeros(max(g.n for g in graphs), dtype=bool)
    for g in graphs:
        touched[g.edge_u] = True
        touched[g.edge_v] = True
    w = np.zeros(touched.size)
    touched = touched.nonzero()[0]
    if touched.size:
        w[touched] = first.vertex_weight(touched)
    return [float(np.sum(w[g.edge_u]) + np.sum(w[g.edge_v])) for g in graphs]
