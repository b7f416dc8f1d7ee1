import itertools

import numpy as np
import pytest

from conftest import (WholeGraph, address, canonical_code, edge_count, is_tree,
                      to_rooted_tree, whole_graph)
from sparselocal.explore import explore
from sparselocal.weights import EmpiricalWeights, WeightSpec, sample_empirical_weights

SEED = (99, 1)


def restricted_degree(graph, v, ignore):
    """D_1^(U)(v): neighbours of v outside ``ignore``."""
    if v in ignore:
        raise ValueError("v must not be in the ignored set")
    return {int(u) for u in graph.neighbors(v)} - set(ignore)


def edge_list_text(nb):
    """Plain edge-list dump of an explored ball."""
    lines = [f"# root {nb.root} depth {nb.depth}"]
    lines += [f"{p} {c}" for p in nb.vertices() for c in nb.children[p]]
    lines += [f"{u} {v} extra" for u, v, _ in nb.extra_edges]
    return "\n".join(lines) + "\n"


def build_graph(n, edges, W=None, theta=1.0, **kw):
    w = EmpiricalWeights(n=n, W=np.full(n, 1.0) if W is None else np.asarray(W, float),
                         theta=theta)
    eu = np.array([min(e) for e in edges], dtype=np.int64)
    ev = np.array([max(e) for e in edges], dtype=np.int64)
    return WholeGraph(w, SEED, 0, eu, ev, **kw)


def floyd_warshall(n, edges):
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0)
    for u, v in edges:
        d[u, v] = d[v, u] = 1
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


def test_isolated_vertex():
    g = build_graph(3, [(1, 2)])
    nb = explore(g, 0, 4)
    assert nb.vertex_count == 1 and edge_count(nb) == 0
    assert is_tree(nb)


def test_path_levels():
    g = build_graph(3, [(0, 1), (1, 2)])
    nb1 = explore(g, 0, 1)
    assert nb1.levels[1] == [1] and len(nb1.levels) == 2
    nb2 = explore(g, 0, 2)
    assert nb2.levels[2] == [2]


def test_errors():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(IndexError):
        explore(g, 7, 1)
    with pytest.raises(ValueError):
        explore(g, 0, -1)


def test_ball_matches_shortest_path_oracle():
    rng = np.random.default_rng(12)
    for trial in range(60):
        n = int(rng.integers(2, 13))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.3]
        g = build_graph(n, edges)
        d = floyd_warshall(n, edges)
        for v in range(n):
            for ell in range(4):
                nb = explore(g, v, ell)
                ball = {u for u in range(n) if d[v, u] <= ell}
                assert set(nb.vertices()) == ball
                for r, level in enumerate(nb.levels):
                    for u in level:
                        assert d[v, u] == r  # level correctness


def test_exploration_order_is_bfs_discovery_order():
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = int(rng.integers(3, 13))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.35]
        g = build_graph(n, edges)
        nb = explore(g, 0, n)
        # independent replay: plain BFS queue with ascending-label neighbours
        seen = {0}
        queue = [0]
        order = []
        while queue:
            x = queue.pop(0)
            order.append(x)
            for u in sorted(int(y) for y in g.neighbors(x)):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        assert nb.vertices() == order


def test_last_level_edges_excluded():
    # triangle hanging off a path: the D_l/D_l edge is not part of B_l
    g = build_graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    nb = explore(g, 0, 2)
    assert nb.vertex_count == 4
    # the (2,3) edge joins two level-2 vertices: not in the ball
    assert edge_count(nb) == 3
    assert is_tree(nb)
    nb3 = explore(g, 0, 3)
    assert edge_count(nb3) == 4
    assert not is_tree(nb3)


def test_is_tree_examples():
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    # at depth 1 the closing edge joins two last-level vertices and is not
    # on any path of length <= 1 from the root, so the ball is still a tree
    assert is_tree(explore(tri, 0, 1))
    assert not is_tree(explore(tri, 0, 2))
    star = build_graph(6, [(0, i) for i in range(1, 6)])
    assert is_tree(explore(star, 0, 1))


def test_to_rooted_tree_single_vertex():
    g = build_graph(2, [])
    t = to_rooted_tree(explore(g, 0, 2), g.weights)
    assert t.node_count == 1 and not t.children[0]


def test_to_rooted_tree_edge_weight():
    g = build_graph(2, [(0, 1)])
    t = to_rooted_tree(explore(g, 0, 1), g.weights, edge_weight=lambda u, v: 0.7)
    assert t.node_count == 2
    assert t.edge_w[1] == 0.7


def test_to_rooted_tree_requires_tree():
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        to_rooted_tree(explore(tri, 0, 2), tri.weights)


def test_canonical_code_invariant_under_relabeling():
    rng = np.random.default_rng(3)
    for trial in range(25):
        n = int(rng.integers(3, 10))
        # random tree via random parent links
        edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
        W = rng.gamma(2.0, 1.0, n)
        g = build_graph(n, edges, W=W)
        perm = rng.permutation(n)
        p_edges = [(int(perm[u]), int(perm[v])) for u, v in edges]
        gp = build_graph(n, p_edges, W=W[np.argsort(perm)])
        t = to_rooted_tree(explore(g, 0, n), g.weights)
        tp = to_rooted_tree(explore(gp, int(perm[0]), n), gp.weights)
        assert canonical_code(t) == canonical_code(tp)


def test_restricted_degree():
    g = build_graph(5, [(0, 1), (0, 2), (0, 3)])
    assert restricted_degree(g, 0, set()) == {1, 2, 3}
    assert restricted_degree(g, 0, {1, 2, 3, 4}) == set()
    with pytest.raises(ValueError):
        restricted_degree(g, 0, {0})


def test_restricted_degree_inequality_exhaustive():
    rng = np.random.default_rng(8)
    for trial in range(20):
        n = int(rng.integers(2, 11))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = build_graph(n, edges)
        for v in range(n):
            others = [u for u in range(n) if u != v]
            for r in range(len(others) + 1):
                for ignore in itertools.combinations(others, min(r, 3)):
                    full = len(g.neighbors(v))
                    restricted = len(restricted_degree(g, v, set(ignore)))
                    assert full <= restricted + len(ignore)
                if r >= 3:
                    break


def test_mean_level_weight_bound_mc():
    # MC mean of the explored connectivity weight, one-sided against the bound
    spec = WeightSpec("constant", c=1.5)
    n, reps = 2000, 800
    w = sample_empirical_weights(spec, n, SEED)
    from sparselocal.bounds import BoundParams, default_k_n, mean_pweight_bound
    from sparselocal.weights import moments

    summ = moments(w, spec)
    for ell in (1, 2):
        vals = []
        for t in range(reps):
            g = whole_graph(w, SEED, t)
            nb = explore(g, 0, ell)
            vals.append(sum(w.W[v] for v in nb.vertices()))
        params = BoundParams.from_summary(n, ell, summ, spec, k_n=default_k_n(n))
        bound = mean_pweight_bound(params, float(w.W[0]), 1)
        se = np.std(vals, ddof=1) / np.sqrt(reps)
        assert np.mean(vals) <= bound + 3 * se


def test_edge_list_text_dump():
    g = build_graph(3, [(0, 1), (1, 2)])
    text = edge_list_text(explore(g, 0, 2))
    assert "0 1" in text and "1 2" in text


def test_ulam_map():
    g = build_graph(5, [(0, 2), (0, 4), (2, 1)])
    tree = to_rooted_tree(explore(g, 0, 2), g.weights)
    mapping = {address(tree, node): tree.labels[node] for node in range(tree.node_count)}
    assert mapping[()] == 0
    assert mapping[(1,)] == 2  # children enumerated in ascending label order
    assert mapping[(2,)] == 4
    assert mapping[(1, 1)] == 1
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        to_rooted_tree(explore(tri, 0, 2), tri.weights)
