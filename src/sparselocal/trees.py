"""Finite rooted trees with connectivity types and vertex/edge weights.

Nodes are integer ids; node 0 is the root.  Each node carries the
connectivity type (the W of the individual), an optional decorative vertex
weight and the weight of the edge towards its parent.  Children are ordered,
Ulam-Harris style, and each node keeps its depth; children always have
larger ids than their parent.
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

    def __repr__(self):
        return (f"RootedWeightedTree(nodes={self.node_count}, depth={self.depth}, "
                f"height={max(self.node_depth)})")
