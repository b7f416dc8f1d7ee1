"""Finite rooted trees with connectivity types and vertex/edge weights.

Nodes are integer ids; node 0 is the root.  Each node carries the
connectivity type (the W of the individual), an optional decorative vertex
weight and the weight of the edge towards its parent.  Children are ordered,
Ulam-Harris style: the address of child j of node ``i`` is ``address(i) + (j,)``.

:func:`canonical_code` produces an AHU-style byte string whose equality is
exactly rooted isomorphism with bit-level weight equality; it can include or
ignore the connectivity types (coupled objects on the two sides of a
Wasserstein redraw share structure and decorative weights but not types).
"""

from __future__ import annotations

import numpy as np


class RootedWeightedTree:
    """Mutable builder/container for a rooted weighted tree."""

    __slots__ = ("depth", "parent", "children", "type_w", "vertex_w", "edge_w",
                 "node_depth", "labels")

    def __init__(self, root_type: float, depth: int, root_vertex_weight: float = np.nan,
                 root_label=None):
        self.depth = int(depth)
        self.parent = [-1]
        self.children: list[list[int]] = [[]]
        self.type_w = [float(root_type)]
        self.vertex_w = [float(root_vertex_weight)]
        self.edge_w = [np.nan]
        self.node_depth = [0]
        self.labels = [root_label]

    def add_child(self, parent: int, node_type: float, edge_weight: float = np.nan,
                  vertex_weight: float = np.nan, label=None) -> int:
        d = self.node_depth[parent] + 1
        if d > self.depth:
            raise ValueError("child would exceed the declared depth")
        node = len(self.parent)
        self.parent.append(parent)
        self.children.append([])
        self.children[parent].append(node)
        self.type_w.append(float(node_type))
        self.vertex_w.append(float(vertex_weight))
        self.edge_w.append(float(edge_weight))
        self.node_depth.append(d)
        self.labels.append(label)
        return node

    # ---- simple queries ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.parent)

    @property
    def height(self) -> int:
        return max(self.node_depth)

    def address(self, node: int) -> tuple[int, ...]:
        """Ulam-Harris address (1-based child indices along the root path)."""
        path = []
        while node != 0:
            p = self.parent[node]
            path.append(self.children[p].index(node) + 1)
            node = p
        return tuple(reversed(path))

    def __repr__(self):
        return (f"RootedWeightedTree(nodes={self.node_count}, depth={self.depth}, "
                f"height={self.height})")


def canonical_code(tree: RootedWeightedTree, with_types: bool = True) -> bytes:
    """AHU canonical form; equal codes iff rooted-isomorphic with equal weights.

    Weights enter as raw float64 bit patterns, so comparisons are exact and
    transitive.  Child blocks are sorted lexicographically, which makes the
    code invariant under any permutation of children.
    """

    def scalar(x: float) -> bytes:
        return np.float64(x).tobytes()

    n = tree.node_count
    code: list[bytes | None] = [None] * n
    # children always have larger ids, so a reverse sweep is post-order
    for node in range(n - 1, -1, -1):
        blocks = sorted(scalar(tree.edge_w[c]) + code[c] for c in tree.children[node])
        head = scalar(tree.type_w[node]) if with_types else b""
        code[node] = b"(" + head + scalar(tree.vertex_w[node]) + b"".join(blocks) + b")"
    return code[0]
