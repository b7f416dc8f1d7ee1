"""Breadth-first neighbourhood exploration.

The exploration discovers the ball B_l(v) level by level, visiting vertices
in the order they were first added to the active set and enumerating
neighbours in ascending vertex label.  Edges are recorded once, from the
side of the earlier-explored endpoint: parent/child edges build the levels,
everything else (an edge into the active set) is an extra edge and witnesses
that the ball is not a tree.  Vertices on the last level are never expanded,
so edges between two level-l vertices are not part of B_l(v).  The graph
needs ``n`` and ``neighbors(v)``, ascending: a :class:`LazyGraph` draws each
row as the exploration first reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import LazyGraph


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

    def vertices(self) -> list[int]:
        return [v for level in self.levels for v in level]


def explore(graph: LazyGraph, v: int, depth: int) -> Neighbourhood:
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
