import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from sparselocal.graph import PerturbationSet, WeightedGraph, perturb, sample_graph
from sparselocal.weights import EmpiricalWeights, WeightSpec, sample_empirical_weights

SEED = (314159, 271828)


def er_weights(n, lam=2.0):
    return EmpiricalWeights(n=n, W=np.full(n, lam), theta=lam)  # p_uv = lam/n


def test_single_vertex_no_edges():
    g = sample_graph(er_weights(1), SEED, 0)
    assert g.num_edges == 0


def test_no_self_loops_and_symmetry():
    w = sample_empirical_weights(WeightSpec("gamma", shape=2.0, scale=1.0), 300, SEED)
    g = sample_graph(w, SEED, 0)
    assert np.all(g.edge_u < g.edge_v)
    for u, v in zip(g.edge_u[:50], g.edge_v[:50]):
        assert g.has_edge(int(u), int(v)) and g.has_edge(int(v), int(u))


def test_determinism_same_stream():
    w = er_weights(500)
    g1 = sample_graph(w, SEED, 3)
    g2 = sample_graph(w, SEED, 3)
    assert np.array_equal(g1.edge_u, g2.edge_u) and np.array_equal(g1.edge_v, g2.edge_v)
    g3 = sample_graph(w, SEED, 4)
    assert not (np.array_equal(g1.edge_u, g3.edge_u)
                and np.array_equal(g1.edge_v, g3.edge_v))


def test_site_queries_repeatable_any_order():
    w = sample_empirical_weights(WeightSpec("gamma", shape=2.0, scale=1.0), 50, SEED)
    g = sample_graph(w, SEED, 0, mu_v=WeightSpec("gamma", shape=1.0, scale=1.0),
                     mu_e=WeightSpec("gamma", shape=1.0, scale=1.0))
    rng = np.random.default_rng(0)
    sites = [(int(a), int(b)) for a, b in rng.integers(0, 50, size=(40, 2)) if a != b]
    first = {s: (g.edge_weight(*s), g.edge_weight(*s, replacement=True),
                 g.replacement_edge_indicator(*s), g.vertex_weight(s[0])) for s in sites}
    for s in rng.permutation(len(sites)):
        s = sites[int(s)]
        again = (g.edge_weight(*s), g.edge_weight(*s, replacement=True),
                 g.replacement_edge_indicator(*s), g.vertex_weight(s[0]))
        assert again == first[s]
    # unordered-pair symmetry
    u, v = sites[0]
    assert g.edge_weight(u, v) == g.edge_weight(v, u)


def test_vectorized_weight_queries_match_scalar():
    w = sample_empirical_weights(WeightSpec("gamma", shape=2.0, scale=1.0), 30, SEED)
    g = sample_graph(w, SEED, 0, mu_v=WeightSpec("gamma", shape=2.0, scale=1.0))
    vs = np.arange(30)
    vec = g.vertex_weight(vs)
    assert np.array_equal(vec, np.array([g.vertex_weight(int(v)) for v in vs]))


def test_er_mean_degree():
    # lam = 2 embedding: over replicas the mean degree concentrates at 2(n-1)/n
    n, lam, reps = 2000, 2.0, 60
    w = er_weights(n, lam)
    degs = []
    for t in range(reps):
        g = sample_graph(w, SEED, t)
        degs.append(2 * g.num_edges / n)
    target = lam * (n - 1) / n
    se = np.std(degs, ddof=1) / np.sqrt(reps)
    assert abs(np.mean(degs) - target) <= 4 * se


def test_pairwise_edge_frequencies_small_n():
    # empirical per-pair frequency within a binomial CI of the exact p_uv
    n, reps = 6, 20_000
    w = EmpiricalWeights(n=n, W=np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]), theta=1.5)
    counts = np.zeros((n, n))
    for t in range(reps):
        g = sample_graph(w, SEED, t)
        for u, v in zip(g.edge_u, g.edge_v):
            counts[u, v] += 1
    for u in range(n):
        for v in range(u + 1, n):
            p = min(w.W[u] * w.W[v] / (n * w.theta), 1.0)
            se = np.sqrt(p * (1 - p) / reps)
            assert abs(counts[u, v] / reps - p) <= 4.5 * se + 1e-12, (u, v)


def test_pairwise_edge_independence():
    # correlation of indicators on disjoint pairs vanishes
    n, reps = 8, 30_000
    w = er_weights(n, 3.0)
    a = np.zeros(reps)
    b = np.zeros(reps)
    for t in range(reps):
        g = sample_graph(w, SEED, t)
        a[t] = g.edge_indicator(0, 1)
        b[t] = g.edge_indicator(2, 3)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 4 / np.sqrt(reps)


# ---- adjacency arrays -------------------------------------------------------------------


def _lexsort_csr(edge_u, edge_v, n):
    """indptr and indices from a lexsort of the 2m endpoints by (end, other)."""
    ends = np.concatenate((edge_u, edge_v))
    other = np.concatenate((edge_v, edge_u))
    order = np.lexsort((other, ends))
    counts = np.bincount(ends, minlength=n)
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int64), other[order]


def _assert_csr_matches_lexsort(g):
    indptr, indices = _lexsort_csr(g.edge_u, g.edge_v, g.n)
    assert g.indptr.dtype == indptr.dtype and g.indices.dtype == indices.dtype
    assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)


@st.composite
def _edge_lists(draw):
    n = draw(st.integers(1, 40))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]).map(lambda e: (min(e), max(e)))
    return n, draw(st.lists(pair, unique=True, max_size=80))


@settings(max_examples=200, deadline=None)
@given(_edge_lists())
@example((1, []))
@example((7, []))
@example((9, [(0, 8), (2, 8), (2, 5)]))  # isolated vertices 1, 3, 4, 6, 7
def test_csr_matches_lexsort_oracle(case):
    n, pairs = case
    edge_u = np.array([u for u, _ in pairs], dtype=np.int64)
    edge_v = np.array([v for _, v in pairs], dtype=np.int64)
    _assert_csr_matches_lexsort(WeightedGraph(er_weights(n), SEED, 0, edge_u, edge_v))


def test_csr_matches_lexsort_oracle_on_sampled_graphs():
    w = sample_empirical_weights(WeightSpec("gamma", shape=2.0, scale=1.0), 5000, SEED)
    for stream in range(3):
        _assert_csr_matches_lexsort(sample_graph(w, SEED, stream))
    _assert_csr_matches_lexsort(sample_graph(er_weights(1), SEED, 0))


def test_sample_graph_peak_memory_is_bounded_by_graph_size():
    # the build's temporaries stay below 1.6 times the arrays the graph keeps
    w = sample_empirical_weights(WeightSpec("gamma", shape=2.0, scale=1.0), 100_000, SEED)
    tracemalloc.start()
    try:
        g = sample_graph(w, SEED, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    resident = sum(a.nbytes for a in (g.edge_u, g.edge_v, g.indptr, g.indices))
    assert peak / resident <= 2.6



_CONSTANT = WeightSpec("constant", c=5.0)
_ONE_BUCKET = WeightSpec("finite", values=(2.0, 3.5), probs=(0.5, 0.5))  # all in [2, 4)
_GAMMA = WeightSpec("gamma", shape=2.0, scale=1.0)

_laws = st.one_of(
    st.floats(0.05, 20.0).map(lambda c: WeightSpec("constant", c=c)),
    st.tuples(st.floats(0.05, 50.0), st.floats(0.05, 50.0), st.floats(0.05, 0.95)).map(
        lambda t: WeightSpec("finite", values=t[:2], probs=(t[2], 1.0 - t[2]))),
    st.tuples(st.floats(0.2, 5.0), st.floats(0.1, 3.0)).map(
        lambda t: WeightSpec("gamma", shape=t[0], scale=t[1])),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_laws, n=st.integers(1, 3000), stream=st.integers(0, 2**31))
@example(spec=_GAMMA, n=1, stream=0)
@example(spec=_GAMMA, n=2, stream=3)
@example(spec=_CONSTANT, n=4, stream=1)  # every bucket pair has pmax >= 1
@example(spec=_ONE_BUCKET, n=500, stream=2)
@example(spec=_GAMMA, n=30_000, stream=5)  # many flushes of the candidate batch
def test_sample_graph_equals_per_pair_oracle(per_pair_sample_graph, spec, n, stream):
    w = sample_empirical_weights(spec, n, SEED, stream=stream)
    got = sample_graph(w, SEED, stream)
    want = per_pair_sample_graph(w, SEED, stream)
    for name in ("edge_u", "edge_v", "indptr", "indices"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# ---- perturbation ---------------------------------------------------------------------


def _graph_with_weights(n=12, stream=0):
    w = sample_empirical_weights(WeightSpec("gamma", shape=2.0, scale=1.0), n, SEED)
    return sample_graph(w, SEED, stream,
                        mu_v=WeightSpec("gamma", shape=2.0, scale=1.0),
                        mu_e=WeightSpec("gamma", shape=1.0, scale=1.0))


def test_perturb_empty_set_identity():
    g = _graph_with_weights()
    h = perturb(g, PerturbationSet())
    assert np.array_equal(g.edge_u, h.edge_u) and np.array_equal(g.edge_v, h.edge_v)
    for v in range(g.n):
        assert g.vertex_weight(v) == h.vertex_weight(v)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert g.edge_weight(u, v) == h.edge_weight(u, v)


def test_perturb_single_edge_site():
    g = _graph_with_weights()
    e = (2, 5)
    h = perturb(g, PerturbationSet(edges=frozenset({e})))
    assert h.edge_indicator(*e) == g.replacement_edge_indicator(*e)
    assert h.edge_weight(*e) == g.edge_weight(*e, replacement=True)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (u, v) == e:
                continue
            assert h.edge_indicator(u, v) == g.edge_indicator(u, v)
            assert h.edge_weight(u, v) == g.edge_weight(u, v)
    for v in range(g.n):
        assert h.vertex_weight(v) == g.vertex_weight(v)


def test_perturb_vertex_site():
    g = _graph_with_weights()
    h = perturb(g, PerturbationSet(vertices=frozenset({3})))
    assert h.vertex_weight(3) == g.vertex_weight(3, replacement=True)
    assert h.vertex_weight(4) == g.vertex_weight(4)
    assert np.array_equal(g.edge_u, h.edge_u)


def test_full_flip_is_independent_copy():
    # edge-count law of the fully resampled graph matches fresh samples
    n, reps = 16, 800
    w = er_weights(n, 2.0)
    full = PerturbationSet(vertices=frozenset(range(n)),
                           edges=frozenset(itertools.combinations(range(n), 2)))
    flipped_counts = []
    fresh_counts = []
    for t in range(reps):
        g = sample_graph(w, SEED, t)
        flipped_counts.append(perturb(g, full).num_edges)
        fresh_counts.append(sample_graph(w, SEED, 10_000 + t).num_edges)
    p = stats.ks_2samp(flipped_counts, fresh_counts).pvalue
    assert p > 0.01


def test_perturb_validation():
    g = _graph_with_weights()
    with pytest.raises(IndexError):
        perturb(g, PerturbationSet(vertices=frozenset({99})))
    with pytest.raises(ValueError):
        PerturbationSet(edges=frozenset({(1, 1)}))
    h = perturb(g, PerturbationSet(vertices=frozenset({1})))
    with pytest.raises(ValueError):
        perturb(h, PerturbationSet(vertices=frozenset({2})))


def test_triangle_unranking_exhaustive():
    from sparselocal.graph import _unrank_triangle

    for m in (2, 3, 5, 11, 40):
        total = m * (m - 1) // 2
        i, j = _unrank_triangle(np.arange(total), m)
        got = list(zip(i.tolist(), j.tolist()))
        want = [(a, b) for a in range(m) for b in range(a + 1, m)]
        assert got == want


def test_triangle_unranking_with_one_size_per_index():
    from sparselocal.graph import _unrank_triangle

    # indices near row boundaries of small and large triangles, interleaved
    L, m = [], []
    for size in (2, 3, 5, 11, 40, 1_000_003):
        total = size * (size - 1) // 2
        for idx in {0, 1 % total, total // 2, max(total - 2, 0), total - 1,
                    size - 1, size - 2, 2 * size - 4}:
            if 0 <= idx < total:
                L.append(idx)
                m.append(size)
    order = np.random.default_rng(0).permutation(len(L))
    L, m = np.array(L)[order], np.array(m)[order]
    i, j = _unrank_triangle(L, m)
    for a, b, idx, size in zip(i.tolist(), j.tolist(), L.tolist(), m.tolist()):
        assert 0 <= a < b < size
        assert a * (2 * size - a - 1) // 2 + (b - a - 1) == idx  # the lexicographic rank


def test_bernoulli_positions_law():
    from sparselocal.graph import _bernoulli_positions
    from sparselocal.rng import stream_rng

    gen = stream_rng(SEED, 0, 99)
    total, p, reps = 500, 0.04, 400
    counts = []
    first_slot = 0
    for _ in range(reps):
        pos = _bernoulli_positions(gen, total, p)
        assert pos.size == np.unique(pos).size  # distinct, sorted
        assert np.all((0 <= pos) & (pos < total))
        counts.append(pos.size)
        first_slot += int(0 in pos)
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / np.sqrt(reps)
    assert abs(mean - total * p) <= 4 * se
    assert abs(first_slot / reps - p) <= 4 * np.sqrt(p * (1 - p) / reps)
    assert _bernoulli_positions(gen, 7, 1.0).tolist() == list(range(7))
    assert _bernoulli_positions(gen, 7, 0.0).size == 0


def test_bernoulli_positions_tiny_p_stays_in_range():
    # below p ~ 1e-18 the geometric gaps saturate at the int64 maximum, and
    # their uncapped cumulative sum wrapped to negative positions
    from sparselocal.graph import _bernoulli_positions
    from sparselocal.rng import stream_rng

    gen = stream_rng(SEED, 0, 99)
    for p in (1e-17, 1e-19, 1e-25, 1e-300):
        for total in (1, 10, 10**11):
            pos = _bernoulli_positions(gen, total, p)
            assert np.all((0 <= pos) & (pos < total))
    w = sample_empirical_weights(WeightSpec("gamma", shape=0.21875, scale=1.0), 62, SEED,
                                 stream=19)
    g = sample_graph(w, SEED, 19)
    assert np.all((0 <= g.edge_u) & (g.edge_u < g.edge_v) & (g.edge_v < w.n))


def test_expected_edge_count_general_weights():
    n, reps = 40, 3000
    w = sample_empirical_weights(WeightSpec("gamma", shape=2.0, scale=1.0), n, SEED)
    expected = sum(min(w.W[u] * w.W[v] / (n * w.theta), 1.0)
                   for u in range(n) for v in range(u + 1, n))
    counts = [sample_graph(w, SEED, t).num_edges for t in range(reps)]
    se = np.std(counts, ddof=1) / np.sqrt(reps)
    assert abs(np.mean(counts) - expected) <= 4 * se
