import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import (PerturbationSet, WholeGraph, delta_N, envelope_bound, h_k, h_value,
                      matching_sandwich, matching_value, perturb, to_rooted_tree,
                      tree_matching, truncate, whole_graph)
from sparselocal import matching
from sparselocal.explore import explore
from sparselocal.graph import WeightedGraph, sample_graph
from sparselocal.matching import (EXACT_SOLVER_LIMIT, Matching, dependent_edge_sum,
                                  max_weight_matching, max_weight_matchings)
from sparselocal.rng import SiteRandom
from sparselocal.trees import RootedWeightedTree
from sparselocal.weights import EmpiricalWeights, WeightSpec, sample_empirical_weights

SEED = (1234, 5678)
EXP1 = WeightSpec("gamma", shape=1.0, scale=1.0)


def random_instance(rng, n_max=8, p=0.5):
    n = int(rng.integers(1, n_max + 1))
    edges = [(u, v, float(rng.exponential())) for u in range(n)
             for v in range(u + 1, n) if rng.random() < p]
    return n, edges


def test_single_edge():
    m = matching._exact_matching(2, [(0, 1, 0.8)])
    assert m.value == pytest.approx(0.8)
    assert m.edges == [(0, 1)]


def test_triangle():
    m = matching._exact_matching(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
    assert m.value == pytest.approx(3.0)


def test_path_2_3_2():
    m = matching._exact_matching(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 2.0)])
    assert m.value == pytest.approx(4.0)
    assert sorted(m.edges) == [(0, 1), (2, 3)]


def test_solver_limit():
    n = EXACT_SOLVER_LIMIT + 1
    w = EmpiricalWeights(n=n, W=np.full(n, 1.0), theta=1.0)
    g = WeightedGraph(w, SEED, 0, np.arange(n - 1), np.arange(1, n), mu_e=EXP1)
    with pytest.raises(ValueError):
        max_weight_matching(g)
    with pytest.raises(ValueError):
        matching._exact_matching(n, [])


def test_matching_invariant():
    with pytest.raises(ValueError):
        Matching(edges=[(0, 1), (1, 2)], value=2.0)


def test_against_brute_force(brute_force_matching):
    rng = np.random.default_rng(5)
    for _ in range(150):
        n, edges = random_instance(rng)
        got = matching._exact_matching(n, edges)
        assert got.value == pytest.approx(brute_force_matching(n, edges), abs=1e-9)
        # the witness realizes the value
        assert sum(w for u, v, w in edges if (min(u, v), max(u, v))
                   in {tuple(sorted(e)) for e in got.edges}) == pytest.approx(got.value)


def test_remove_or_match_recursion():
    rng = np.random.default_rng(6)
    for _ in range(150):
        n, edges = random_instance(rng, n_max=10, p=0.45)
        if n < 2:
            continue
        v = int(rng.integers(0, n))
        m_g = matching_value(n, edges)
        m_without = matching_value(n, edges, exclude=frozenset({v}))
        best_match = max((w + matching_value(n, edges, exclude=frozenset({v, u}))
                          for u, uu, w in _incident(edges, v)), default=-np.inf)
        assert m_g == pytest.approx(max(m_without, best_match)
                                    if best_match > -np.inf else m_without, abs=1e-9)


def _incident(edges, v):
    for u, uu, w in edges:
        if u == v:
            yield uu, u, w
        elif uu == v:
            yield u, uu, w


def test_h_recursion_identity():
    rng = np.random.default_rng(7)
    for _ in range(120):
        n, edges = random_instance(rng, n_max=10, p=0.45)
        if n < 2:
            continue
        v = int(rng.integers(0, n))
        lhs = matching_value(n, edges) - matching_value(n, edges, frozenset({v}))
        rhs = max([0.0] + [w - _h_of(n, edges, v, u) for u, _, w in _incident(edges, v)])
        assert lhs == pytest.approx(rhs, abs=1e-9)
        assert lhs >= -1e-12


def _h_of(n, edges, v, u):
    # h(G - v, u)
    without_v = [e for e in edges if v not in e[:2]]
    return (matching_value(n, without_v, frozenset({v}))
            - matching_value(n, without_v, frozenset({v, u})))


@st.composite
def small_graphs(draw, dyadic):
    """A graph on n <= 24 vertices with at most 30 edges, in random edge order.

    Dyadic weights k/4 make every sum exact, so equal-weight matchings tie
    exactly and often; otherwise the weights are Exp(1) draws, which tie with
    probability zero.
    """
    n = draw(st.integers(0, EXACT_SOLVER_LIMIT))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)) if pairs else []
    if dyadic:
        w = [k / 4 for k in draw(st.lists(st.integers(0, 32), min_size=len(chosen),
                                          max_size=len(chosen)))]
    else:
        w = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).exponential(
            size=len(chosen)).tolist()
    return n, [(u, v, x) for (u, v), x in zip(chosen, w)]


def _check_against_whole_graph(n, edges, oracle):
    got = matching._exact_matching(n, edges)
    assert got.value == oracle(n, edges).value((1 << n) - 1)
    # the witness is a matching on realized edges, listed in sorted order,
    # whose weights folded from the right give the value bit for bit
    weight = {(u, v): w for u, v, w in edges}
    assert got.edges == sorted(got.edges)
    total = 0.0
    for e in reversed(got.edges):
        total = weight[e] + total
    assert total == got.value
    return got


_EXAMPLES = [
    (0, []),
    (7, []),  # no edges, every vertex isolated
    (6, [(0, 3, 1.0), (1, 4, 2.0), (2, 5, 0.5)]),  # three components
    (9, [(0, 1, 1.0), (1, 2, 1.0), (4, 6, 2.0), (6, 8, 2.0)]),  # ties, isolated 3, 5, 7
    (24, [(i, i + 12, 1.0 + i / 4) for i in range(12)]),
]


# 24-vertex shapes whose memo the elimination order sets: as the solver
# labels them (breadth first from 0), a star and a complete binary tree have
# their leaves on the highest labels
_SHAPES = {
    "star": [(0, v) for v in range(1, EXACT_SOLVER_LIMIT)],
    "binary tree": [((v - 1) // 2, v) for v in range(1, EXACT_SOLVER_LIMIT)],
    "path": [(v, v + 1) for v in range(EXACT_SOLVER_LIMIT - 1)],
    "cycle": [(0, EXACT_SOLVER_LIMIT - 1)]
             + [(v, v + 1) for v in range(EXACT_SOLVER_LIMIT - 1)],
}


def _shape(name, dyadic):
    """A shape of ``_SHAPES`` with dyadic weights that tie, or with Exp(1) weights."""
    edges = _SHAPES[name]
    if dyadic:
        w = [((3 * u + v) % 8) / 4 for u, v in edges]
    else:
        w = np.random.default_rng(list(_SHAPES).index(name)).exponential(size=len(edges))
    return EXACT_SOLVER_LIMIT, [(u, v, float(x)) for (u, v), x in zip(edges, w)]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph=small_graphs(dyadic=True))
@example(graph=_EXAMPLES[0])
@example(graph=_EXAMPLES[1])
@example(graph=_EXAMPLES[2])
@example(graph=_EXAMPLES[3])
@example(graph=_EXAMPLES[4])
@example(graph=_shape("star", dyadic=True))
@example(graph=_shape("binary tree", dyadic=True))
@example(graph=_shape("path", dyadic=True))
@example(graph=_shape("cycle", dyadic=True))
def test_per_component_solve_equals_whole_graph_on_exact_sums(whole_graph_matcher, graph):
    _check_against_whole_graph(*graph, whole_graph_matcher)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph=small_graphs(dyadic=False))
@example(graph=_shape("star", dyadic=False))
@example(graph=_shape("binary tree", dyadic=False))
@example(graph=_shape("path", dyadic=False))
@example(graph=_shape("cycle", dyadic=False))
def test_per_component_solve_equals_whole_graph_on_generic_weights(whole_graph_matcher,
                                                                   graph):
    n, edges = graph
    got = _check_against_whole_graph(n, edges, whole_graph_matcher)
    # without ties the optimum is unique, so the witness is the oracle's too
    assert got.edges == sorted(whole_graph_matcher(n, edges).witness((1 << n) - 1))


def test_graph_edge_weights_take_one_hash_call(monkeypatch):
    calls = []
    uniform = SiteRandom.uniform

    def counted(self, *args, **kwargs):
        calls.append(1)
        return uniform(self, *args, **kwargs)

    monkeypatch.setattr(SiteRandom, "uniform", counted)
    rng = np.random.default_rng(22)
    for _ in range(5):
        g = _desk_graph(rng, n=16)
        assert g.num_edges > 1
        calls.clear()
        max_weight_matching(g)
        assert len(calls) == 1


def test_disjoint_edges_are_solved_one_component_at_a_time(monkeypatch):
    calls = []
    value = matching._ExactMatcher.value

    def counted(self, mask):
        calls.append(mask)
        return value(self, mask)

    monkeypatch.setattr(matching._ExactMatcher, "value", counted)
    n, edges = _EXAMPLES[4]
    got = matching._exact_matching(n, edges)
    assert got.edges == [(i, i + 12) for i in range(12)]
    assert got.value == sum(1.0 + i / 4 for i in range(12))
    assert len(calls) <= 60


@pytest.mark.parametrize("shape, bound", [
    ("star", 2 * EXACT_SOLVER_LIMIT),
    ("binary tree", 20 * EXACT_SOLVER_LIMIT),
    ("path", 2 * EXACT_SOLVER_LIMIT),
    ("cycle", 2 * EXACT_SOLVER_LIMIT),
])
def test_leaf_first_elimination_keeps_the_memo_small(monkeypatch, shape, bound):
    # removing the highest label first memoizes 47, 441, 25 and 47 masks;
    # removing the lowest first took 277 on the star and 2,305 on the tree
    solvers = []

    class Recorded(matching._ExactMatcher):
        def __init__(self, adj):
            super().__init__(adj)
            solvers.append(self)

    monkeypatch.setattr(matching, "_ExactMatcher", Recorded)
    matching._exact_matching(*_shape(shape, dyadic=False))
    assert len(solvers) == 1
    assert len(solvers[0]._memo) <= bound


def test_h_value_basic():
    assert h_value(3, 2, [(0, 1, 1.0)]) == pytest.approx(0.0)  # isolated vertex
    assert h_value(2, 0, [(0, 1, 0.9)]) == pytest.approx(0.9)  # single edge


def test_h_value_on_graph_object():
    rng = np.random.default_rng(21)
    g = _desk_graph(rng, n=9)
    edges = [(int(u), int(v), float(g.edge_weight(int(u), int(v))))
             for u, v in zip(g.edge_u, g.edge_v)]
    for v in range(9):
        assert h_value(g, v) == pytest.approx(h_value(9, v, edges))
        assert h_value(g, v) >= -1e-12


def test_monotone_under_vertex_deletion():
    rng = np.random.default_rng(8)
    for _ in range(60):
        n, edges = random_instance(rng)
        m = matching_value(n, edges)
        for v in range(n):
            assert m >= matching_value(n, edges, frozenset({v})) - 1e-12


# ---- tree recursion ---------------------------------------------------------------------


def random_tree(rng, n, depth=10):
    t = RootedWeightedTree(1.0, depth)
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        if t.node_depth[parent] >= depth:
            parent = 0
        t.add_child(parent, 1.0, float(rng.exponential()))
    return t


def test_h_k_base_cases():
    t = RootedWeightedTree(1.0, 3)
    assert h_k(t, 2) == 0.0
    t.add_child(0, 1.0, 0.6)
    t.add_child(0, 1.0, 1.4)
    assert h_k(t, 1) == pytest.approx(1.4)  # max{0, a, b}
    assert h_k(t, 5) == pytest.approx(1.4)


def test_h_k_even_odd_monotone():
    rng = np.random.default_rng(9)
    for _ in range(200):
        t = random_tree(rng, int(rng.integers(2, 30)), depth=8)
        values = [h_k(t, k) for k in range(0, 9)]
        evens = values[0::2]
        odds = values[1::2]
        assert all(b >= a - 1e-12 for a, b in zip(evens, evens[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(odds, odds[1:]))
        for k in range(0, 8, 2):
            assert values[k] <= values[k + 1] + 1e-12


def test_h_k_depends_only_on_depth_k_subtree():
    rng = np.random.default_rng(10)
    for _ in range(50):
        t = random_tree(rng, 25, depth=7)
        for k in (1, 2, 3):
            assert h_k(t, k) == h_k(truncate(t, k), k)


def random_forest(rng, n):
    """Random trees of 1 to 8 vertices on shuffled labels, as one graph on n
    vertices with Exp(1) edge weights; the trees of one vertex are isolated
    vertices.  Returns the graph and one vertex of each tree."""
    labels = rng.permutation(n).tolist()
    roots, eu, ev = [], [], []
    while labels:
        size = int(rng.integers(1, 9))
        part, labels = labels[:size], labels[size:]
        roots.append(part[0])
        for i in range(1, len(part)):
            a, b = part[int(rng.integers(0, i))], part[i]
            eu.append(min(a, b))
            ev.append(max(a, b))
    w = EmpiricalWeights(n=n, W=np.full(n, 1.0), theta=1.0)
    g = WholeGraph(w, (int(rng.integers(1 << 30)), 7), 0, np.array(eu, dtype=np.int64),
                   np.array(ev, dtype=np.int64), mu_e=EXP1)
    return g, roots


def test_tree_matching_equals_exact_solver():
    rng = np.random.default_rng(11)
    for _ in range(80):
        n = int(rng.integers(1, 16))
        t = random_tree(rng, n)
        edges = [(int(t.parent[c]), c, float(t.edge_w[c]))
                 for c in range(1, t.node_count)]
        assert tree_matching(t) == pytest.approx(matching_value(t.node_count, edges),
                                                 abs=1e-9)
    # forests through the graph path that clt runs, one tree recursion per
    # component; the two fold the matched weights in different orders
    for _ in range(80):
        g, roots = random_forest(rng, int(rng.integers(1, EXACT_SOLVER_LIMIT + 1)))
        by_tree = sum(tree_matching(_nb_tree(explore(g, r, g.n), g)) for r in roots)
        assert max_weight_matching(g).value == pytest.approx(by_tree, abs=1e-9)


# ---- the sandwich ----------------------------------------------------------------------


def tree_shaped_graph(rng, n, mu_e=None):
    parents = [int(rng.integers(0, v)) for v in range(1, n)]
    edges = list(zip(parents, range(1, n)))
    w = EmpiricalWeights(n=n, W=np.full(n, 1.0), theta=1.0)
    eu = np.array([min(e) for e in edges], dtype=np.int64)
    ev = np.array([max(e) for e in edges], dtype=np.int64)
    return WholeGraph(w, (int(rng.integers(1 << 30)), 7), 0, eu, ev,
                      mu_e=mu_e or EXP1)


def test_sandwich_root_only():
    rng = np.random.default_rng(12)
    g = tree_shaped_graph(rng, 1)
    nb = explore(g, 0, 5)
    s = matching_sandwich(nb, 3, g)
    assert (s.gL, s.gU) == (0.0, 0.0)


def test_sandwich_star():
    # star from the center: gU = h_1 = max edge weight; gL = h_0 = 0 at k=2,
    # and gL = h_2 = max edge weight once the depth budget reaches 3
    w = EmpiricalWeights(n=5, W=np.full(5, 1.0), theta=1.0)
    eu = np.zeros(4, dtype=np.int64)
    ev = np.arange(1, 5, dtype=np.int64)
    g = WholeGraph(w, SEED, 0, eu, ev, mu_e=EXP1)
    nb = explore(g, 0, 4)
    wmax = max(g.edge_weight(0, v) for v in range(1, 5))
    s2 = matching_sandwich(nb, 2, g)
    assert (s2.kL, s2.kU) == (0, 1)
    assert s2.gL == 0.0 and s2.gU == pytest.approx(wmax)
    s3 = matching_sandwich(nb, 3, g)
    assert (s3.kL, s3.kU) == (2, 3)
    assert s3.gL == pytest.approx(wmax) and s3.gU == pytest.approx(wmax)


def test_sandwich_brackets_exact_increment():
    rng = np.random.default_rng(13)
    for _ in range(120):
        n = int(rng.integers(2, 21))
        g = tree_shaped_graph(rng, n)
        edges = [(int(u), int(v), float(g.edge_weight(int(u), int(v))))
                 for u, v in zip(g.edge_u, g.edge_v)]
        v = int(rng.integers(0, n))
        h_exact = (matching_value(n, edges)
                   - matching_value(n, edges, frozenset({v})))
        nb = explore(g, v, 2 * 3 + 1)
        for k in (1, 2, 3):
            gL = h_k(_nb_tree(nb, g), 2 * k)
            gU = h_k(_nb_tree(nb, g), 2 * k + 1)
            assert gL - 1e-9 <= h_exact <= gU + 1e-9


def _nb_tree(nb, g):
    return to_rooted_tree(nb, g.weights, edge_weight=g.edge_weight)


def test_sandwich_requires_tree():
    w = EmpiricalWeights(n=3, W=np.full(3, 1.0), theta=1.0)
    g = WholeGraph(w, SEED, 0, np.array([0, 0, 1]), np.array([1, 2, 2]),
                   mu_e=EXP1)
    with pytest.raises(ValueError):
        matching_sandwich(explore(g, 0, 3), 3, g)
    nb_ok = explore(g, 0, 1)
    with pytest.raises(ValueError):
        matching_sandwich(nb_ok, 0, g)


# ---- envelopes -------------------------------------------------------------------------


def _desk_graph(rng, n=12):
    spec = WeightSpec("gamma", shape=2.0, scale=1.0)
    w = sample_empirical_weights(spec, n, (int(rng.integers(1 << 30)), 3))
    return whole_graph(w, (int(rng.integers(1 << 30)), 5), 0,
                       mu_v=WeightSpec("gamma", shape=2.0, scale=1.0),
                       mu_e=EXP1)


def test_matching_envelope_dominates_exact_delta():
    rng = np.random.default_rng(14)
    checked_present = 0
    for _ in range(150):
        g = _desk_graph(rng, n=10)
        edges = [(int(u), int(v), float(g.edge_weight(int(u), int(v))))
                 for u, v in zip(g.edge_u, g.edge_v)]
        u, v = int(rng.integers(0, 10)), int(rng.integers(0, 10))
        if u == v:
            continue
        site = ("edge", (u, v))
        other = [e for e in edges if {e[0], e[1]} != {u, v}]
        x, x_new = g.edge_indicator(u, v), g.replacement_edge_indicator(u, v)
        before = matching_value(10, other + ([(u, v, g.edge_weight(u, v))] if x else []))
        after = matching_value(10, other + (
            [(u, v, g.edge_weight(u, v, replacement=True))] if x_new else []))
        delta = before - after
        env = envelope_bound("matching", g, site)
        assert abs(delta) <= env + 1e-9
        if max(x, x_new):
            checked_present += 1
        else:
            assert env == 0.0  # edge absent in both copies
    assert checked_present > 10


def test_edge_sum_envelopes_exact():
    rng = np.random.default_rng(15)
    for _ in range(50):
        g = _desk_graph(rng)
        v = int(rng.integers(0, g.n))
        env = envelope_bound("edge-sum", g, ("vertex", v))
        assert env == pytest.approx(
            g.degree(v) * (g.vertex_weight(v) + g.vertex_weight(v, replacement=True)))
        assert abs(delta_N(g, ("vertex", v))) <= env + 1e-12


def test_envelope_unknown_application():
    rng = np.random.default_rng(16)
    with pytest.raises(ValueError):
        envelope_bound("tsp", _desk_graph(rng), ("vertex", 0))


def test_exp_max_sixth_moment():
    # E[max(A,B)^6] for iid Exp(1): quadrature oracle vs the closed form
    oracle, _ = quad(lambda x: x ** 6 * 2 * np.exp(-x) * (1 - np.exp(-x)), 0, 200,
                     limit=200)
    closed = 720.0 * (2 - 2.0 ** -6)
    assert oracle == pytest.approx(closed, rel=1e-10)
    # MC sixth moment is noisy; confirm it brackets the exact value
    rng = np.random.default_rng(17)
    draws = np.maximum(rng.exponential(size=400_000), rng.exponential(size=400_000))
    mc = np.mean(draws ** 6)
    se = np.std(draws ** 6, ddof=1) / np.sqrt(draws.size)
    assert abs(mc - oracle) <= 4 * se


# ---- dependent edge sum ------------------------------------------------------------------


def test_dependent_sum_no_edges():
    w = EmpiricalWeights(n=3, W=np.full(3, 1.0), theta=1.0)
    g = WeightedGraph(w, SEED, 0, np.empty(0, dtype=np.int64),
                      np.empty(0, dtype=np.int64),
                      mu_v=WeightSpec("constant", c=1.0))
    assert dependent_edge_sum([g]) == [0.0]


def test_dependent_sum_single_edge():
    w = EmpiricalWeights(n=2, W=np.full(2, 1.0), theta=1.0)
    g = WeightedGraph(w, SEED, 0, np.array([0]), np.array([1]),
                      mu_v=WeightSpec("gamma", shape=2.0, scale=1.0))
    assert dependent_edge_sum([g])[0] == pytest.approx(
        g.vertex_weight(0) + g.vertex_weight(1))


def dependent_edge_sum_by_degree(graph):
    """N(G) written as sum_v deg(v) w_v: the oracle for dependent_edge_sum."""
    deg = np.array([graph.degree(v) for v in range(graph.n)])
    live = np.flatnonzero(deg)
    if live.size == 0:
        return 0.0
    return float(np.sum(deg[live] * graph.vertex_weight(live)))


def test_both_formulas_agree():
    rng = np.random.default_rng(18)
    for _ in range(60):
        g = _desk_graph(rng, n=int(rng.integers(2, 51)))
        assert dependent_edge_sum([g])[0] == pytest.approx(
            dependent_edge_sum_by_degree(g), rel=1e-12, abs=1e-12)


def test_dependent_sum_equals_per_edge_hashing():
    # hashing each vertex once and gathering by endpoint keeps every bit
    rng = np.random.default_rng(20)
    for _ in range(20):
        g = _desk_graph(rng, n=int(rng.integers(2, 51)))
        if g.num_edges:
            per_edge = float(np.sum(g.vertex_weight(g.edge_u))
                             + np.sum(g.vertex_weight(g.edge_v)))
            assert dependent_edge_sum([g]) == [per_edge]


def _stream_graphs(spec, n_grid, seed, stream, mu_v, mu_e=None):
    """The graphs of one replica stream at the grid points, as clt samples them."""
    return [sample_graph(sample_empirical_weights(spec, n, seed, stream=n), seed, stream,
                         mu_v=mu_v, mu_e=mu_e) for n in n_grid]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=st.sampled_from([WeightSpec("constant", c=0.02), WeightSpec("constant", c=2.0),
                             WeightSpec("gamma", shape=0.5, scale=2.0)]),
       n_grid=st.lists(st.integers(1, 400), min_size=1, max_size=4),
       stream=st.integers(0, 2**40),
       mu_v=st.sampled_from([WeightSpec("gamma", shape=2.0, scale=1.0),
                             WeightSpec("gamma", shape=1.5, scale=1.0),
                             WeightSpec("finite", values=(0.5, 2.0), probs=(0.6, 0.4))]))
# long grids: the one draw and the one-graph draws take their quantile in
# passes of different lengths, on both sides of _MASKED_FROM
@example(spec=WeightSpec("constant", c=2.0), n_grid=[9000, 5000, 9000, 3000], stream=3,
         mu_v=WeightSpec("gamma", shape=2.0, scale=1.0))
@example(spec=WeightSpec("constant", c=2.0), n_grid=[20_000, 14_000], stream=4,
         mu_v=WeightSpec("gamma", shape=3.0, scale=1.0))
def test_stream_edge_sum_equals_one_graph_calls(spec, n_grid, stream, mu_v):
    # unsorted and duplicated grids too: one draw over the union of the
    # touched vertices gives every graph's sum bit for bit
    graphs = _stream_graphs(spec, n_grid, SEED, stream, mu_v)
    alone = [dependent_edge_sum([g])[0] for g in graphs]
    assert np.array(dependent_edge_sum(graphs)).tobytes() == np.array(alone).tobytes()


def test_stream_edge_sum_draws_once_and_never_for_no_edge(monkeypatch):
    calls = []
    original = WeightedGraph.vertex_weight

    def counted(self, v):
        calls.append(np.size(v))
        return original(self, v)

    monkeypatch.setattr(WeightedGraph, "vertex_weight", counted)
    mu_v = WeightSpec("gamma", shape=2.0, scale=1.0)
    graphs = _stream_graphs(WeightSpec("constant", c=2.0), [500, 2000, 800], SEED, 9, mu_v)
    dependent_edge_sum(graphs)
    touched = np.unique(np.concatenate([np.r_[g.edge_u, g.edge_v] for g in graphs]))
    assert calls == [touched.size]
    calls.clear()
    w = EmpiricalWeights(n=4, W=np.full(4, 1.0), theta=1.0)
    empty = [WeightedGraph(w, SEED, 9, [], [], mu_v=mu_v)] * 2
    assert dependent_edge_sum(empty) == [0.0, 0.0]
    assert calls == []


def test_stream_edge_sum_refuses_graphs_of_other_streams_or_laws():
    mu_v = WeightSpec("gamma", shape=2.0, scale=1.0)
    spec = WeightSpec("constant", c=2.0)
    base = _stream_graphs(spec, [50], SEED, 1, mu_v)
    for other in (_stream_graphs(spec, [60], (SEED[0] + 1, SEED[1]), 1, mu_v),
                  _stream_graphs(spec, [60], SEED, 2, mu_v),
                  _stream_graphs(spec, [60], SEED, 1, WeightSpec("gamma", shape=3.0,
                                                                 scale=1.0))):
        with pytest.raises(ValueError, match="share seed, stream and mu_v"):
            dependent_edge_sum(base + other)
    no_law = _stream_graphs(spec, [50], SEED, 1, None)
    with pytest.raises(ValueError, match="needs vertex weights"):
        dependent_edge_sum(no_law)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=st.sampled_from([WeightSpec("constant", c=0.02), WeightSpec("constant", c=2.0),
                             WeightSpec("gamma", shape=2.0, scale=1.0)]),
       n_grid=st.lists(st.integers(1, EXACT_SOLVER_LIMIT), min_size=1, max_size=4),
       stream=st.integers(0, 2**40),
       mu_e=st.sampled_from([EXP1, WeightSpec("gamma", shape=2.0, scale=1.0),
                             WeightSpec("gamma", shape=0.5, scale=1.0),
                             WeightSpec("finite", values=(0.5, 2.0), probs=(0.6, 0.4))]))
@example(spec=WeightSpec("gamma", shape=2.0, scale=1.0), n_grid=[24, 16, 24, 20], stream=3,
         mu_e=EXP1)
@example(spec=WeightSpec("constant", c=0.02), n_grid=[1, 5, 24], stream=0, mu_e=EXP1)
def test_stream_matchings_equal_one_graph_calls(spec, n_grid, stream, mu_e):
    # unsorted and duplicated grids and edgeless graphs too: one draw over
    # the joined edge lists gives every graph's weights, so its matching, bit
    # for bit
    graphs = _stream_graphs(spec, n_grid, SEED, stream, None, mu_e)
    alone = [max_weight_matching(g) for g in graphs]
    got = max_weight_matchings(graphs)
    assert [m.edges for m in got] == [m.edges for m in alone]
    assert np.array([m.value for m in got]).tobytes() == \
        np.array([m.value for m in alone]).tobytes()


def test_stream_matchings_draw_once_and_never_for_no_edge(monkeypatch):
    calls = []
    original = WeightedGraph.edge_weight

    def counted(self, u, v):
        calls.append(np.size(u))
        return original(self, u, v)

    monkeypatch.setattr(WeightedGraph, "edge_weight", counted)
    graphs = _stream_graphs(WeightSpec("gamma", shape=2.0, scale=1.0), [16, 24, 20], SEED, 9,
                            None, EXP1)
    max_weight_matchings(graphs)
    assert calls == [sum(g.num_edges for g in graphs)] and calls[0] > 0
    calls.clear()
    w = EmpiricalWeights(n=4, W=np.full(4, 1.0), theta=1.0)
    empty = [WeightedGraph(w, SEED, 9, [], [], mu_e=EXP1)] * 2
    assert [m.value for m in max_weight_matchings(empty)] == [0.0, 0.0]
    assert calls == []


def test_stream_matchings_refuse_graphs_of_other_streams_or_laws():
    spec = WeightSpec("gamma", shape=2.0, scale=1.0)
    base = _stream_graphs(spec, [16], SEED, 1, None, EXP1)
    for other in (_stream_graphs(spec, [20], (SEED[0] + 1, SEED[1]), 1, None, EXP1),
                  _stream_graphs(spec, [20], SEED, 2, None, EXP1),
                  _stream_graphs(spec, [20], SEED, 1, None,
                                 WeightSpec("gamma", shape=2.0, scale=1.0))):
        with pytest.raises(ValueError, match="share seed, stream and mu_e"):
            max_weight_matchings(base + other)
    no_law = _stream_graphs(spec, [16], SEED, 1, None)
    with pytest.raises(ValueError, match="needs edge weights"):
        max_weight_matchings(no_law)


def test_delta_n_trivial_cases():
    rng = np.random.default_rng(19)
    found_same = found_isolated = False
    for _ in range(300):
        g = _desk_graph(rng, n=8)
        for u in range(8):
            for v in range(u + 1, 8):
                if g.edge_indicator(u, v) == g.replacement_edge_indicator(u, v) \
                        and g.edge_indicator(u, v) == 0:
                    assert delta_N(g, ("edge", (u, v))) == 0.0
                    found_same = True
        isolated = [v for v in range(8) if g.degree(v) == 0]
        for v in isolated:
            assert delta_N(g, ("vertex", v)) == 0.0
            found_isolated = True
        if found_same and found_isolated:
            break
    assert found_same and found_isolated


def test_delta_n_matches_recomputation():
    rng = np.random.default_rng(20)
    for _ in range(100):
        g = _desk_graph(rng, n=15)
        if rng.random() < 0.5:
            u, v = sorted(rng.choice(15, size=2, replace=False).tolist())
            site = ("edge", (int(u), int(v)))
            pset = PerturbationSet(edges=frozenset({(int(u), int(v))}))
        else:
            v = int(rng.integers(0, 15))
            site = ("vertex", v)
            pset = PerturbationSet(vertices=frozenset({v}))
        direct = delta_N(g, site)
        recomputed = dependent_edge_sum([g])[0] - dependent_edge_sum([perturb(g, pset)])[0]
        assert direct == pytest.approx(recomputed, abs=1e-9)
