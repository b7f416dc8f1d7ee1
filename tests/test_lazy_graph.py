"""The lazy rows of ``LazyGraph``: their exact law, and the structure of one replica.

``couple`` explores the balls of a replica on a :class:`LazyGraph`, which
draws a vertex's row when a ball first reads it.  These tests check that the
balls it gives have the law of balls of whole graphs: exactly at n <= 5,
against every edge set; through a root's degree at n = 300, against its
Poisson-binomial law; and through ball statistics at n = 50 and 400,
against balls of :func:`sample_graph` graphs.
"""

import itertools
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from conftest import WholeGraph, whole_graph
from sparselocal.explore import explore
from sparselocal.graph import LazyGraph, sample_graph
from sparselocal.weights import EmpiricalWeights, WeightSpec, sample_empirical_weights

SEED = (0x1A2B, 0x3C4D)
GAMMA = WeightSpec("gamma", shape=2.0, scale=1.0)
ALPHA = 1e-3  # the family-wise level of each law test


def recorded_edges(nb):
    """The edges ``explore`` records: tree edges and extra edges, as sorted pairs."""
    edges = [(p, u) for p, kids in nb.children.items() for u in kids]
    edges += [(vj, u) for vj, u, _ in nb.extra_edges]
    return tuple(sorted((min(a, b), max(a, b)) for a, b in edges))


def harness_balls(graph, roots=(0, 1), depths=(1, 2)):
    """The balls of every (depth, root), read in the order ``couple`` reads them."""
    return [explore(graph, r, d) for d in depths for r in roots]


def pooled_g_test(observed: dict, expected: dict, total: int) -> float:
    """G-test p-value of counts against cell probabilities.

    Cells of expected count below 5 are pooled into one; a pooled cell that
    still expects less than 5 joins the smallest kept cell.
    """
    assert set(observed) <= set(expected), "a cell of probability 0 was observed"
    keys = sorted(expected, key=expected.get)
    exp = np.array([expected[k] * total for k in keys])
    obs = np.array([observed.get(k, 0) for k in keys], dtype=float)
    small = exp < 5
    cells_e = list(exp[~small]) + [exp[small].sum()]
    cells_o = list(obs[~small]) + [obs[small].sum()]
    if cells_e[-1] < 5:
        cells_e[0] += cells_e.pop()
        cells_o[0] += cells_o.pop()
    e, o = np.array(cells_e), np.array(cells_o)
    assert e.size >= 2
    g = 2.0 * np.sum(o[o > 0] * np.log(o[o > 0] / e[o > 0]))
    return float(stats.chi2.sf(g, e.size - 1))


def pooled_two_sample(a: list, b: list) -> float:
    """χ² p-value that two samples of hashable values share one law.

    Values seen fewer than 10 times in both samples together are pooled.
    """
    ca, cb = Counter(a), Counter(b)
    rare = [0, 0]
    table = []
    for x in set(ca) | set(cb):
        row = [ca[x], cb[x]]
        if sum(row) < 10:
            rare = [rare[0] + row[0], rare[1] + row[1]]
        else:
            table.append(row)
    if sum(rare) >= 10 or not table:
        table.append(rare)
    else:
        table[0] = [table[0][0] + rare[0], table[0][1] + rare[1]]
    if len(table) < 2:
        return 1.0
    return float(stats.chi2_contingency(np.array(table).T, correction=False).pvalue)


# ---- exact law at n <= 5 -------------------------------------------------------------

# n = 5: three power-of-two buckets, p_uv from 0.12 to a clipped 1.2;
# n = 4: one bucket of equal weights
SMALL = {
    "five": EmpiricalWeights(n=5, W=np.array([2.0, 1.5, 1.0, 0.6, 3.0]), theta=1.0),
    "four": EmpiricalWeights(n=4, W=np.full(4, 1.2), theta=1.0),
}


def enumerated_law(weights):
    """Each key of ``harness_balls``' recorded edges, with its exact probability."""
    n = weights.n
    pairs = list(itertools.combinations(range(n), 2))
    p = {(u, v): min(weights.W[u] * weights.W[v] / (n * weights.theta), 1.0)
         for u, v in pairs}
    law = {}
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        prob = 1.0
        for x, e in zip(bits, pairs):
            prob *= p[e] if x else 1.0 - p[e]
        if prob == 0.0:
            continue
        edges = [e for x, e in zip(bits, pairs) if x]
        graph = WholeGraph(weights, SEED, 0, [e[0] for e in edges], [e[1] for e in edges])
        key = tuple(recorded_edges(nb) for nb in harness_balls(graph))
        law[key] = law.get(key, 0.0) + prob
    return law


@pytest.mark.parametrize("case", sorted(SMALL))
def test_lazy_balls_match_enumerated_law(case):
    # the joint law of the edges explore records from roots 0 and 1 at
    # depths 1 and 2, read in couple's order from one lazy replica, against
    # the exact law over all 2^(n choose 2) edge sets
    weights = SMALL[case]
    law = enumerated_law(weights)
    assert sum(law.values()) == pytest.approx(1.0)
    replicas = 20_000
    counts = Counter(
        tuple(recorded_edges(nb) for nb in harness_balls(LazyGraph(weights, SEED, t)))
        for t in range(replicas))
    assert pooled_g_test(counts, law, replicas) > ALPHA


# ---- a root's degree at n = 300 ------------------------------------------------------


def poisson_binomial(ps):
    pmf = np.ones(1)
    for p in ps:
        pmf = np.append(pmf * (1.0 - p), 0.0) + np.append(0.0, pmf * p)
    return pmf


def test_root_degree_matches_poisson_binomial():
    # vertex 0's row drawn first, from fresh draws only, and vertex 1's row
    # drawn second, from the edge 0 recorded and fresh draws over the rest
    n = 300
    weights = sample_empirical_weights(GAMMA, n, SEED)
    W = weights.W
    replicas = 20_000
    degrees = {0: Counter(), 1: Counter()}
    for t in range(replicas):
        graph = LazyGraph(weights, SEED, t)
        for v in (0, 1):
            degrees[v][int(graph.neighbors(v).size)] += 1
    for v in (0, 1):
        p = np.minimum(W[v] * np.delete(W, v) / (n * weights.theta), 1.0)
        law = dict(enumerate(poisson_binomial(p)))
        assert pooled_g_test(degrees[v], law, replicas) > ALPHA / 2


# ---- ball statistics against whole graphs at n = 50 and 400 --------------------------


def ball_statistics(nb):
    return len(nb.levels[1]), len(nb.levels[2]), len(nb.extra_edges)


@pytest.mark.parametrize("n", [50, 400])
def test_ball_statistics_match_whole_graphs(n):
    # (|D1|, |D2|, extra-edge count) of the depth-2 balls of roots 0 and 1,
    # on 10 weight seeds: lazy replicas, read in couple's order, against
    # explorations of whole graphs; Bonferroni over seeds and roots
    replicas = 1000
    pvalues = []
    for s in range(10):
        seed = (s, 0x5EED)
        weights = sample_empirical_weights(GAMMA, n, seed)
        lazy = {0: [], 1: []}
        whole = {0: [], 1: []}
        for t in range(replicas):
            balls = harness_balls(LazyGraph(weights, seed, t))
            graph = whole_graph(weights, seed, t)
            for i, root in enumerate((0, 1)):
                lazy[root].append(ball_statistics(balls[2 + i]))
                whole[root].append(ball_statistics(explore(graph, root, 2)))
        pvalues += [pooled_two_sample(lazy[r], whole[r]) for r in (0, 1)]
    assert min(pvalues) > ALPHA / len(pvalues), pvalues


# ---- the structure of one replica -----------------------------------------------------


def explored_replicas(n=200, replicas=30, depth=3):
    weights = sample_empirical_weights(GAMMA, n, SEED)
    for t in range(replicas):
        graph = LazyGraph(weights, SEED, t)
        for root in (0, 1, 2):
            explore(graph, root, depth)
        yield graph


def test_drawn_rows_are_symmetric():
    # among drawn rows u in row(v) iff v in row(u); a row is ascending, with
    # no repeat and no self-loop
    for graph in explored_replicas():
        drawn = {v: graph.neighbors(v).tolist() for v in list(graph._rows)}
        assert len(drawn) > 3
        for v, row in drawn.items():
            assert row == sorted(set(row)) and v not in row
            for u, other in drawn.items():
                assert (u in row) == (v in other)


def test_depth_one_ball_is_the_truncated_depth_two_ball():
    weights = sample_empirical_weights(GAMMA, 200, SEED)
    for t in range(30):
        graph = LazyGraph(weights, SEED, t)
        balls = harness_balls(graph, roots=(0, 1, 2))
        for shallow, deep in zip(balls[:3], balls[3:]):
            assert shallow.levels == deep.levels[:2]
            assert shallow.children[shallow.root] == deep.children[deep.root]
            assert shallow.extra_edges == [e for e in deep.extra_edges if e[2] < 1]


def test_lazy_rows_repeat_per_stream_and_share_the_site_functions():
    weights = sample_empirical_weights(GAMMA, 200, SEED)
    mu = WeightSpec("gamma", shape=1.0, scale=1.0)
    a = LazyGraph(weights, SEED, 4, mu_v=mu, mu_e=mu)
    b = LazyGraph(weights, SEED, 4, mu_v=mu, mu_e=mu)
    whole = sample_graph(weights, SEED, 4, mu_v=mu, mu_e=mu)
    for v in (3, 0, 7):
        assert np.array_equal(a.neighbors(v), b.neighbors(v))
        assert a.neighbors(v) is a.neighbors(v)  # memoized
        assert a.vertex_weight(v) == whole.vertex_weight(v)
        assert a.edge_weight(v, v + 1) == whole.edge_weight(v, v + 1)
        assert np.array_equal(a.coupling_uniform(v, np.arange(5)),
                              whole.coupling_uniform(v, np.arange(5)))
    for v in (-1, 200):
        with pytest.raises(IndexError):
            a.neighbors(v)
