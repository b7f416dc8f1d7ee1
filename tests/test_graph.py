import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import PerturbationSet, WholeGraph, perturb, whole_graph
from sparselocal.graph import sample_graph
from sparselocal.weights import EmpiricalWeights, WeightSpec, sample_empirical_weights

SEED = (314159, 271828)


def er_weights(n, lam=2.0):
    return EmpiricalWeights(n=n, W=np.full(n, lam), theta=lam)  # p_uv = lam/n


def test_single_vertex_no_edges():
    g = sample_graph(er_weights(1), SEED, 0)
    assert g.num_edges == 0


def test_no_self_loops_and_symmetry():
    w = sample_empirical_weights(WeightSpec("gamma", shape=2.0, scale=1.0), 300, SEED)
    g = whole_graph(w, SEED, 0)
    assert np.all(g.edge_u < g.edge_v)
    for u, v in zip(g.edge_u[:50], g.edge_v[:50]):
        assert g.edge_indicator(int(u), int(v)) == g.edge_indicator(int(v), int(u)) == 1
        assert g.edge_indicator(int(u), int(u)) == 0


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
    g = whole_graph(w, SEED, 0, mu_v=WeightSpec("gamma", shape=1.0, scale=1.0),
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
        g = whole_graph(w, SEED, t)
        a[t] = g.edge_indicator(0, 1)
        b[t] = g.edge_indicator(2, 3)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 4 / np.sqrt(reps)


# ---- the rows of a whole graph (the tests' WholeGraph) and its constructor ------------


def _lexsort_rows(edge_u, edge_v, n):
    """Each vertex's neighbours from a lexsort of the 2m endpoints by (end, other)."""
    ends = np.concatenate((edge_u, edge_v)).astype(np.int64)
    other = np.concatenate((edge_v, edge_u)).astype(np.int64)
    order = np.lexsort((other, ends))
    bounds = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=n))))
    other = other[order]
    return [other[bounds[v]:bounds[v + 1]] for v in range(n)]


def _assert_rows_match_lexsort(g, edge_u, edge_v, every_pair):
    """neighbors, degree and edge_indicator of every vertex against the oracle's rows;
    edge_indicator on every pair, or on each row and its gaps."""
    rows = _lexsort_rows(edge_u, edge_v, g.n)
    for v, row in enumerate(rows):
        got = g.neighbors(v)
        assert got.dtype == np.int64 and np.array_equal(got, row), v
        assert g.degree(v) == row.size
        if every_pair:
            probe = range(g.n)
        else:
            probe = {v, 0, g.n - 1, *row.tolist(), *(row - 1).tolist(), *(row + 1).tolist()}
        for u in probe:
            if 0 <= u < g.n:
                assert g.edge_indicator(v, u) == int(u in row), (v, u)
    assert g.num_edges == len(edge_u)
    assert g.arcs.size == 2 * g.num_edges and np.all(g.arcs[1:] > g.arcs[:-1])


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
def test_rows_match_lexsort_oracle(case):
    n, pairs = case
    edge_u = np.array([u for u, _ in pairs], dtype=np.int64)
    edge_v = np.array([v for _, v in pairs], dtype=np.int64)
    g = WholeGraph(er_weights(n), SEED, 0, edge_u, edge_v)
    _assert_rows_match_lexsort(g, edge_u, edge_v, every_pair=True)
    assert sorted(pairs) == list(zip(g.edge_u.tolist(), g.edge_v.tolist()))


@settings(max_examples=200, deadline=None)
@given(_edge_lists(), st.data())
def test_constructor_takes_endpoints_in_any_order_and_form(case, data):
    # shuffled, flipped, int32, int64 or lists, empty too: the same edge list
    # and arcs as sorted int64 input, and the arcs are the oracle's rows
    n, pairs = case
    order = data.draw(st.permutations(range(len(pairs))))
    flip = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    form = data.draw(st.sampled_from([np.int32, np.int64, list]))
    given_u = [pairs[i][flip[i]] for i in order]
    given_v = [pairs[i][not flip[i]] for i in order]
    if form is not list:
        given_u, given_v = np.array(given_u, dtype=form), np.array(given_v, dtype=form)
    g = WholeGraph(er_weights(n), SEED, 0, given_u, given_v)
    pairs = sorted(pairs)
    want_u = np.array([u for u, _ in pairs], dtype=np.int64)
    want_v = np.array([v for _, v in pairs], dtype=np.int64)
    want = WholeGraph(er_weights(n), SEED, 0, want_u, want_v)
    assert g.edge_u.dtype == g.edge_v.dtype == np.int64
    assert np.array_equal(g.edge_u, want_u) and np.array_equal(g.edge_v, want_v)
    assert np.all(g.edge_u < g.edge_v) and g.num_edges == len(pairs)
    assert np.array_equal(g.arcs, want.arcs)
    rows = _lexsort_rows(want_u, want_v, n)
    oracle = np.concatenate([v * n + row for v, row in enumerate(rows)])
    assert np.array_equal(g.arcs, oracle)


def test_rows_match_lexsort_oracle_on_sampled_graphs():
    w = sample_empirical_weights(WeightSpec("gamma", shape=2.0, scale=1.0), 5000, SEED)
    for stream in range(3):
        g = whole_graph(w, SEED, stream)
        _assert_rows_match_lexsort(g, g.edge_u, g.edge_v, every_pair=False)
    g = whole_graph(er_weights(1), SEED, 0)
    _assert_rows_match_lexsort(g, g.edge_u, g.edge_v, every_pair=True)


def test_vertex_outside_the_graph_raises():
    g = WholeGraph(er_weights(3), SEED, 0, np.array([0]), np.array([2]))
    for v in (-1, 3, -4):
        with pytest.raises(IndexError):
            g.neighbors(v)
        with pytest.raises(IndexError):
            g.degree(v)
        with pytest.raises(IndexError):
            g.edge_indicator(v, 0)
        with pytest.raises(IndexError):
            g.edge_indicator(0, v)
    assert g.neighbors(2).tolist() == [0] and g.neighbors(1).size == 0


def test_sample_graph_peak_memory_is_bounded_by_graph_size():
    # the build's temporaries, bucket plan included, stay below 1.6 times the
    # edge list the graph keeps, 2m int64
    w = sample_empirical_weights(WeightSpec("gamma", shape=2.0, scale=1.0), 100_000, SEED)
    tracemalloc.start()
    try:
        g = sample_graph(w, SEED, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (g.edge_u.nbytes + g.edge_v.nbytes) <= 2.6


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


class _UnitGaps:
    """The sampler's generator with every geometric gap made 1.

    It draws each gap block from the real generator, so the stream moves as
    it would, and returns gaps of 1: every slot of a pair is a candidate,
    and a pair whose first block is shorter than its slot count draws a
    second one, which a real draw does about never (it takes some ten
    standard deviations above the expected count).
    """

    def __init__(self, gen):
        self._gen = gen

    def geometric(self, p, size):
        self._gen.geometric(p, size=size)
        return np.ones(size, dtype=np.int64)

    def random(self, size):
        return self._gen.random(size)


_TWO_LEVEL = WeightSpec("finite", values=(0.5, 12.0), probs=(0.8, 0.2))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_laws, n=st.integers(1, 3000), stream=st.integers(0, 2**31),
       unit_gaps=st.just(False))
@example(spec=_GAMMA, n=1, stream=0, unit_gaps=False)
@example(spec=_GAMMA, n=2, stream=3, unit_gaps=False)
@example(spec=_CONSTANT, n=4, stream=1, unit_gaps=False)  # every bucket pair has pmax >= 1
@example(spec=_ONE_BUCKET, n=500, stream=2, unit_gaps=False)
# many flushes of the candidate batch
@example(spec=_GAMMA, n=30_000, stream=5, unit_gaps=False)
# the scalar side of the size switch: gamma(2,1) at n = 24, where every pair
# is walked and every candidate thinned in Python scalars
@example(spec=_GAMMA, n=24, stream=1, unit_gaps=False)
# the same plan with every first gap block of a small pair run out
@example(spec=_GAMMA, n=24, stream=1, unit_gaps=True)
# one walked pair whose 55 slots are all candidates
@example(spec=_ONE_BUCKET, n=11, stream=0, unit_gaps=True)
# pairs with pmax >= 1 and pmax < 1 in one scalar plan, and one pair with
# pmax = 1 that expects 190 candidates and takes the arrays
@example(spec=_TWO_LEVEL, n=6, stream=1, unit_gaps=False)
@example(spec=WeightSpec("constant", c=20.0), n=20, stream=0, unit_gaps=False)
# either side of _SCALAR_PLAN = 100: one constant(2) pair expecting 99 and
# exactly 100 candidates, and gamma(2,1) plans of 15 pairs expecting 99.94
# and of 20 pairs expecting 100.05
@example(spec=WeightSpec("constant", c=2.0), n=100, stream=0, unit_gaps=False)
@example(spec=WeightSpec("constant", c=2.0), n=101, stream=0, unit_gaps=False)
@example(spec=_GAMMA, n=46, stream=16, unit_gaps=False)
@example(spec=_GAMMA, n=49, stream=3, unit_gaps=False)
# two more scalar plans: one constant(2) pair expecting 41 candidates, and
# a gamma(2,1) plan of 14 pairs expecting 52
@example(spec=WeightSpec("constant", c=2.0), n=42, stream=0, unit_gaps=False)
@example(spec=_GAMMA, n=20, stream=16, unit_gaps=False)
def test_sample_graph_equals_per_pair_oracle(per_pair_sample_graph, spec, n, stream,
                                             unit_gaps):
    from sparselocal.graph import _GEN_TAG
    from sparselocal.rng import stream_rng

    w = sample_empirical_weights(spec, n, SEED, stream=stream)
    gens = [_UnitGaps(stream_rng(SEED, stream, _GEN_TAG)) if unit_gaps else None
            for _ in range(2)]
    got = sample_graph(w, SEED, stream, gen=gens[0])
    want = per_pair_sample_graph(w, SEED, stream, gen=gens[1])
    assert np.array_equal(got.edge_u, want.edge_u) and np.array_equal(got.edge_v, want.edge_v)
    got, want = WholeGraph.of(got), WholeGraph.of(want)
    assert np.array_equal(got.arcs, want.arcs)
    for v in range(n):
        assert np.array_equal(got.neighbors(v), want.neighbors(v)), v


def test_a_pair_that_fills_a_batch_is_mapped_alone(per_pair_sample_graph, monkeypatch):
    # the oracle test's n = 30,000 example: some bucket pair draws _FLUSH
    # candidates or more and takes the one-pair path of _map_and_thin
    from sparselocal import graph

    batches = []
    map_and_thin = graph._map_and_thin

    def spy(weights, pairs, positions, uniforms):
        batches.append([p.size for p in positions])
        return map_and_thin(weights, pairs, positions, uniforms)

    monkeypatch.setattr(graph, "_map_and_thin", spy)
    w = sample_empirical_weights(_GAMMA, 30_000, SEED, stream=5)
    got = sample_graph(w, SEED, 5)
    assert any(len(b) == 1 and b[0] >= graph._FLUSH for b in batches)
    assert any(len(b) > 1 for b in batches)
    want = per_pair_sample_graph(w, SEED, 5)
    assert np.array_equal(got.edge_u, want.edge_u) and np.array_equal(got.edge_v, want.edge_v)


def test_small_plans_run_in_scalars_only(per_pair_sample_graph, monkeypatch):
    # gamma(2,1) and constant(2) at n = 24 expect some 40 and 23 candidates
    # and are sampled in Python scalars; constant(2) at n = 500 expects 499
    # and takes the arrays
    from sparselocal import graph

    entered = []
    in_scalars = graph._sample_in_scalars

    def spy(weights, gen):
        entered.append(weights.n)
        return in_scalars(weights, gen)

    monkeypatch.setattr(graph, "_sample_in_scalars", spy)
    for spec, n, scalar in ((_GAMMA, 24, True), (WeightSpec("constant", c=2.0), 24, True),
                            (WeightSpec("constant", c=2.0), 500, False)):
        entered.clear()
        w = sample_empirical_weights(spec, n, SEED, stream=n)
        got = sample_graph(w, SEED, 7)
        assert entered == ([n] if scalar else []), (spec, n)
        want = per_pair_sample_graph(w, SEED, 7)
        assert np.array_equal(got.edge_u, want.edge_u)
        assert np.array_equal(got.edge_v, want.edge_v)


class _Gaps:
    """A generator whose first geometric block puts candidates at ``ranks``
    and then runs past the pair, and whose thinning uniforms are all 0."""

    def __init__(self, ranks):
        self._ranks = ranks

    def geometric(self, p, size):
        gaps = np.diff([-1] + self._ranks + [2**62])
        return np.concatenate((gaps, np.ones(size - gaps.size, dtype=np.int64)))

    def random(self, size):
        return np.zeros(size)


def test_scalar_path_corrects_the_float_root_of_a_huge_bucket():
    # one same-bucket pair of m = 2^27 + 5 slots, where b^2 = (2m - 1)^2 is
    # past 2^53: at the last ranks of rows 284 and 955 the float root lands
    # one row too high, and at the two other ranks one row too low; slot i
    # is vertex i
    from types import SimpleNamespace

    from sparselocal import graph
    from sparselocal.weights import BucketPlan

    m = 2**27 + 5
    ranks = [38252013149, 128311695301, 9007199273131025, 9007199339994833]
    total = m * (m - 1) // 2
    plan = BucketPlan(order=SimpleNamespace(item=lambda i: i),
                      weight=SimpleNamespace(item=lambda i: 1.0),
                      pairs=[(1e-15, total, 0, 0, m, True)], expected=1e-15 * total,
                      buckets=[(0, m)], wmax=np.ones(1))
    weights = SimpleNamespace(bucket_plan=plan, n=1, theta=1.0)
    u, v = graph._sample_in_scalars(weights, _Gaps(ranks))
    start = lambda i: i * (2 * m - 1 - i) // 2  # the rank of pair (i, i + 1)
    rows = [284, 955, 134183510, 134185523]
    assert all(start(i) <= L < start(i + 1) for i, L in zip(rows, ranks))
    want = [(i, L - start(i) + i + 1) for i, L in zip(rows, ranks)]
    assert list(zip(u.tolist(), v.tolist())) == want
    assert [tuple(x) for x in np.transpose(graph._unrank_triangle(ranks, m)).tolist()] == want


# ---- perturbation ---------------------------------------------------------------------


def _graph_with_weights(n=12, stream=0):
    w = sample_empirical_weights(WeightSpec("gamma", shape=2.0, scale=1.0), n, SEED)
    return whole_graph(w, SEED, stream,
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
        g = whole_graph(w, SEED, t)
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


def _plain_bernoulli_positions(gen, total, p):
    """The skip sampler without a shortcut: every block of gaps is capped,
    summed and searched, even when its first gap already passes total."""
    if total <= 0 or p <= 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    out = []
    pos = -1
    while True:
        expect = (total - pos) * p
        block = int(expect + 10.0 * np.sqrt(expect + 1.0) + 16)
        gaps = np.minimum(gen.geometric(p, size=block), total + 1)
        gaps[0] += pos
        positions = gaps.cumsum()
        inside = int(positions.searchsorted(total))
        out.append(positions[:inside])
        if inside < block:
            break
        pos = int(positions[-1])
    return np.concatenate(out)


@settings(max_examples=200, deadline=None)
@given(total=st.integers(0, 3000), p=st.floats(1e-6, 1.0), stream=st.integers(0, 2**31))
@example(total=10**11, p=1e-25, stream=0)  # the gaps saturate
@example(total=10**11, p=1e-9, stream=1)
@example(total=50, p=0.0, stream=2)
@example(total=38, p=0.01, stream=1)  # the first gap is 38: a success on the last slot
@example(total=37, p=0.01, stream=1)  # and one just past the end
def test_bernoulli_positions_equals_plain_skip_sampler(total, p, stream):
    from sparselocal.graph import _bernoulli_positions
    from sparselocal.rng import stream_rng

    gen, plain = stream_rng(SEED, stream, 99), stream_rng(SEED, stream, 99)
    got = _bernoulli_positions(gen, total, p)
    want = _plain_bernoulli_positions(plain, total, p)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    # both consumed the same draws, so the sampler's next draws are the same
    assert gen.random() == plain.random()


def test_expected_edge_count_general_weights():
    n, reps = 40, 3000
    w = sample_empirical_weights(WeightSpec("gamma", shape=2.0, scale=1.0), n, SEED)
    expected = sum(min(w.W[u] * w.W[v] / (n * w.theta), 1.0)
                   for u in range(n) for v in range(u + 1, n))
    counts = [sample_graph(w, SEED, t).num_edges for t in range(reps)]
    se = np.std(counts, ddof=1) / np.sqrt(reps)
    assert abs(np.mean(counts) - expected) <= 4 * se
