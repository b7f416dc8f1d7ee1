"""Breadth-first neighbourhood exploration and tree detection.

The exploration discovers the ball B_l(v) level by level, visiting vertices
in the order they were first added to the active set and enumerating
neighbours in ascending vertex label.  Edges are recorded once, from the
side of the earlier-explored endpoint: parent/child edges build the levels,
everything else (an edge into the active set) is an extra edge and witnesses
that the ball is not a tree.  Vertices on the last level are never expanded,
so edges between two level-l vertices are not part of B_l(v).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph
from .trees import RootedWeightedTree
from .weights import EmpiricalWeights


@dataclass
class Neighbourhood:
    """The explored ball around ``root`` up to ``depth`` levels."""

    root: int
    depth: int
    levels: list[list[int]]                      # D_0 .. D_depth in discovery order
    extra_edges: list[tuple[int, int, int]]      # (explored vertex, active vertex, level)
    children: dict[int, list[int]]               # tree children in discovery order

    @property
    def vertex_count(self) -> int:
        return sum(len(d) for d in self.levels)

    @property
    def edge_count(self) -> int:
        return self.vertex_count - 1 + len(self.extra_edges)

    def vertices(self) -> list[int]:
        return [v for level in self.levels for v in level]


def explore(graph: WeightedGraph, v: int, depth: int) -> Neighbourhood:
    """Explore B_depth(v); vertices appear in first-discovery (BFS) order."""
    if not 0 <= v < graph.n:
        raise IndexError(f"vertex {v} out of range")
    if depth < 0:
        raise ValueError("depth must be non-negative")

    discovered = {v}
    completed: set[int] = set()
    levels: list[list[int]] = [[v]]
    extra_edges: list[tuple[int, int, int]] = []
    children: dict[int, list[int]] = {v: []}

    frontier = [v]
    for r in range(depth):
        nxt: list[int] = []
        for vj in frontier:
            for u in graph.neighbors(vj):
                u = int(u)
                if u in completed:
                    continue  # edge already recorded from u's side
                if u not in discovered:
                    discovered.add(u)
                    children[vj].append(u)
                    children[u] = []
                    nxt.append(u)
                else:
                    extra_edges.append((vj, u, r))
            completed.add(vj)
        if not nxt:
            levels.extend([[]] * (depth - r))
            break
        levels.append(nxt)
        frontier = nxt
    return Neighbourhood(root=v, depth=depth, levels=levels, extra_edges=extra_edges,
                         children=children)


def is_tree(nb: Neighbourhood) -> bool:
    """True iff the explored ball is acyclic (no extra edges were found)."""
    return not nb.extra_edges


def to_rooted_tree(nb: Neighbourhood, weights: EmpiricalWeights,
                   vertex_weight=None, edge_weight=None) -> RootedWeightedTree:
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
