import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import (INTERMEDIATE_TAG, REPAIR_TAG, WholeGraph, canonical_code,
                      intermediate_coupling_bound, is_tree, repeat_probability_bound,
                      sample_intermediate_tree, sample_limit_tree, stage1_rng,
                      to_rooted_tree, whole_graph)
from sparselocal.bounds import BoundParams, VertexSetSummary, default_k_n, limit_redraw_bound
from sparselocal.coupling import (BREAK_ACTIVE, BREAK_COMPLETED, BREAK_OVERFLOW,
                                  BREAK_REPEAT, BREAK_X_NEQ_Z, CouplingConfig, couple_full,
                                  couple_intermediate_to_limit,
                                  couple_neighbourhood_to_intermediate,
                                  _poisson_cap, poisson_cdf_interval, poisson_icdf,
                                  repair_independence)
from sparselocal.explore import explore
from sparselocal.rng import stream_rng
from sparselocal.trees import RootedWeightedTree
from sparselocal.weights import (EmpiricalWeights, WeightSpec, moments,
                                 sample_empirical_weights)

SEED = (404, 202)
ER1 = WeightSpec("constant", c=1.0)
GAMMA = WeightSpec("gamma", shape=2.0, scale=1.0)
FINITE = WeightSpec("finite", values=(0.5, 2.0), probs=(0.6, 0.4))


def test_poisson_icdf_matches_scipy():
    rng = np.random.default_rng(1)
    lam = rng.uniform(0.01, 8.0, 300)
    u = rng.random(300)
    ours = poisson_icdf(lam, u)
    ref = stats.poisson.ppf(u, lam)
    assert np.array_equal(ours, ref.astype(np.int64))


def test_poisson_refuses_underflow_and_saturation():
    # exp(-800) underflows to 0, and exp(-720) and exp(-744.14) are subnormal,
    # whose summed CDF ends short of 1 (0.74 at 744.14, where the quantile at
    # 0.5 read 756); at lam = 2.5 the summed CDF never reaches the top
    # uniform, where the quantile used to return its cap
    for lam in (720.0, 744.14, 800.0):
        with pytest.raises(ValueError, match=f"lam={lam!r}"):
            poisson_icdf(lam, 0.5)
        with pytest.raises(ValueError, match=f"lam={lam!r}"):
            poisson_cdf_interval(800, lam)
    with pytest.raises(ValueError, match="lam=2.5, u=0.9999999999999999"):
        poisson_icdf(2.5, 1.0 - 2.0 ** -53)
    assert poisson_icdf(700.0, 0.5) == 700


def test_poisson_icdf_entry_ignores_its_companions():
    for lam, u in ((0.3, 1.0 - 2.0 ** -53), (0.3, 0.9), (4.0, 0.999), (1e-12, 0.5)):
        alone = int(poisson_icdf(lam, u))
        together = poisson_icdf([lam, 50.0], [u, 0.5])
        assert together[0] == alone and together[1] == 50


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-12, 100.0), st.data())
def test_a_uniform_inside_the_cdf_interval_inverts_back_to_k(lam, data):
    k = data.draw(st.integers(0, int(lam + 8.0 * math.sqrt(lam + 1.0))))
    lo, hi = poisson_cdf_interval(k, lam)
    if hi > lo:
        assert poisson_icdf(lam, hi) == k
        assert poisson_icdf(lam, math.nextafter(lo, 1.0)) == k
    else:  # the pmf of k rounds away against F(k - 1): no uniform draws k
        assert poisson_icdf(lam, hi) < k


class _Repeats:
    """A generator stub whose every uniform is r."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


def test_stage3_keeps_its_uniform_off_the_bottom_of_a_one_ulp_interval():
    # at lam = 2.8 the CDF interval of 26 children is one ulp wide, and
    # lo + (hi - lo) / 4 rounds onto lo, which inverts to 25: a break the
    # counts do not make.  Weights of one vertex give scale 1, so the limit
    # mean is lam too
    lam = 2.8000000000000003
    lo, hi = poisson_cdf_interval(26, lam)
    assert hi == math.nextafter(lo, 1.0) and lo + 0.25 * (hi - lo) == lo
    w = EmpiricalWeights(n=1, W=np.array([lam]), theta=lam)
    assert w.size_biased.scale == 1.0
    tree = RootedWeightedTree(lam, 1, root_label=0)
    for _ in range(26):
        tree.add_child(0, lam, label=0)
    out, level = couple_intermediate_to_limit(tree, w.size_biased,
                                              WeightSpec("constant", c=lam), _Repeats(0.25))
    assert level is None and len(out.children[0]) == 26


@settings(max_examples=300, deadline=None)
@given(lam_tilde=st.floats(1e-3, 60.0),
       ratio=st.one_of(st.just(1.0), st.floats(0.25, 4.0)),
       r=st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                   st.sampled_from([0.0, 0.25, 0.5, 1.0 - 2.0 ** -53])))
def test_stage3_count_in_the_top_cdf_interval(lam_tilde, ratio, r):
    # an intermediate root with k children, k the first count at which the
    # summed CDF of lam_tilde stops growing, so its interval (lo, hi] is the
    # top one and hi can reach or pass 1.0, where the limit mean's sum may
    # stop short: no count raises, and at the same mean every count is k.
    # The root's type t is the limit mean; weights of one vertex with
    # theta = t^2 / lam_tilde give the intermediate mean scale * t
    t = lam_tilde * ratio
    w = EmpiricalWeights(n=1, W=np.array([t]), theta=t if ratio == 1.0 else t * t / lam_tilde)
    lam_tilde = w.size_biased.scale * t  # as stage 3 computes it
    k = int(poisson_icdf(lam_tilde, poisson_cdf_interval(int(_poisson_cap(lam_tilde)),
                                                         lam_tilde)[1]))
    lo, hi = poisson_cdf_interval(k, lam_tilde)
    assert lo < hi
    tree = RootedWeightedTree(t, 1, root_label=0)
    for _ in range(k):
        tree.add_child(0, t, label=0)
    out, level = couple_intermediate_to_limit(tree, w.size_biased,
                                              WeightSpec("constant", c=t), _Repeats(r))
    if lam_tilde == t:
        assert level is None and len(out.children[0]) == k
    else:
        assert len(out.children[0]) <= _poisson_cap(t)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(1e-18, 1e2), st.sampled_from([1e-18, 1.0, 1e2])),
       st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                 st.sampled_from([1.0 - 2.0 ** -53, 0.5, 2.0 ** -54])))
def test_site_without_edge_has_no_poisson_child(p, aux):
    # X = 0 puts the shared uniform at aux (1 - p'_e) <= P(Z = 0), which is
    # why stage 1 evaluates only the realized neighbours' sites
    assert poisson_icdf(p, aux * (1.0 - min(p, 1.0))) == 0


def test_stage1_hashes_only_neighbour_sites():
    n = 10_000
    w = sample_empirical_weights(GAMMA, n, SEED)
    hashed = []
    for t in range(3):
        g = whole_graph(w, SEED, t)

        def counted(u, v, g=g):
            hashed.append((g.degree(int(u)), np.size(v)))
            return type(g).coupling_uniform(g, u, v)

        g.coupling_uniform = counted
        for root in (0, 1, 2):
            couple_neighbourhood_to_intermediate(g, root, CouplingConfig(k_n=1e9, depth=2),
                                                 stage1_rng(g, root))
    assert len(hashed) > 9
    assert all(sites <= deg for deg, sites in hashed)
    assert sum(sites for _, sites in hashed) > 0


def test_couple_bernoulli_poisson_degenerate_cases(couple_bernoulli_poisson):
    assert couple_bernoulli_poisson(0.0, 0.73) == (0, 0)
    for u in (0.01, 0.42, 0.97):
        x, _ = couple_bernoulli_poisson(1.7, u)
        assert x == 1  # capped Bernoulli is always 1


def test_couple_bernoulli_poisson_bound_and_marginals(couple_bernoulli_poisson):
    p = 0.1
    rng = np.random.default_rng(7)
    u = rng.random(200_000)
    x, z = couple_bernoulli_poisson(p, u)
    mismatch = float(np.mean(x != z))
    sig = np.sqrt(mismatch * (1 - mismatch) / u.size)
    assert mismatch <= p ** 2 + 3 * sig
    # Bernoulli marginal
    assert abs(x.mean() - p) <= 4 * np.sqrt(p * (1 - p) / u.size)
    # Poisson marginal via chi-square GOF at 1%
    kmax = int(z.max())
    observed = np.bincount(z, minlength=kmax + 1).astype(float)
    expected = stats.poisson.pmf(np.arange(kmax + 1), p) * u.size
    while expected[-1] < 5 and expected.size > 2:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    expected *= observed.sum() / expected.sum()
    assert stats.chisquare(observed, expected).pvalue > 0.01


def test_site_level_joint_law_through_graph_machinery():
    # the realized indicator plus the conditional auxiliary reproduce the
    # shared-uniform coupling: correct marginals and the mismatch bound
    n = 4
    w = EmpiricalWeights(n=n, W=np.array([2.0, 1.0, 1.0, 1.0]), theta=1.0)
    p_prime = 2.0 * 1.0 / (n * 1.0)  # pair (0, 1): 0.5
    reps = 30_000
    xs = np.empty(reps)
    zs = np.empty(reps, dtype=int)
    for t in range(reps):
        g = whole_graph(w, SEED, t)
        x = g.edge_indicator(0, 1)
        aux = float(g.coupling_uniform(0, 1))
        u = 1.0 - p_prime + aux * p_prime if x else aux * (1.0 - p_prime)
        xs[t] = x
        zs[t] = poisson_icdf(p_prime, u)
    assert abs(xs.mean() - p_prime) <= 4 * np.sqrt(p_prime * (1 - p_prime) / reps)
    assert abs(zs.mean() - p_prime) <= 4 * np.sqrt(p_prime / reps)
    mism = np.mean(xs != zs)
    bound = p_prime * (1 - np.exp(-p_prime))  # exact mismatch mass <= p'^2
    assert bound <= p_prime ** 2
    assert abs(mism - bound) <= 4 * np.sqrt(bound * (1 - bound) / reps)


def test_exhausted_component_deep_exploration():
    # the ball covers the whole vertex set before the depth budget runs out
    w = EmpiricalWeights(n=3, W=np.full(3, 0.2), theta=0.2)
    g = whole_graph(w, SEED, 0)
    for root in range(3):
        for depth in (2, 3, 5):
            out = couple_neighbourhood_to_intermediate(
                g, root, CouplingConfig(k_n=50, depth=depth), stage1_rng(g, root))
            nb = explore(g, root, depth)
            assert out.neighbourhood.levels == nb.levels
    # hand-built path graph, explored past its end from both sides
    w2 = EmpiricalWeights(n=2, W=np.full(2, 1e-6), theta=1e-6)
    g2 = WholeGraph(w2, SEED, 0, np.array([0]), np.array([1]))
    out = couple_neighbourhood_to_intermediate(g2, 0, CouplingConfig(k_n=50, depth=3),
                                               stage1_rng(g2, 0))
    assert out.neighbourhood.vertex_count == 2


# hand-built balls at n = 3, theta = 1, one per stage-1 break reason:
# (weights, edges, k_n, depth, reason, level)
STAGE1_BREAKS = {
    # both leaves of the triangle are active when vertex 1 is explored
    "active": ((1e-4, 1e-4, 1e-4), [(0, 1), (0, 2), (1, 2)], 10.0, 2, BREAK_ACTIVE, 2),
    # the root's own fresh copy Z* has mean 20^2 / 3
    "completed": ((20.0, 1e-4, 1e-4), [(0, 1)], 10.0, 1, BREAK_COMPLETED, 1),
    # the edge's Poisson Z has mean 10^2 / 3, so it is not 1
    "x-neq-z": ((10.0, 10.0, 1e-4), [(0, 1)], 100.0, 1, BREAK_X_NEQ_Z, 1),
    # the first level's weight 0.01 takes the ball past k_n
    "overflow": ((0.01, 0.01, 0.01), [(0, 1), (1, 2)], 0.015, 2, BREAK_OVERFLOW, 1),
}


@pytest.mark.parametrize("case", STAGE1_BREAKS)
def test_stage1_break_reason(case):
    W, edges, k_n, depth, reason, level = STAGE1_BREAKS[case]
    w = EmpiricalWeights(n=3, W=np.array(W), theta=1.0)
    g = WholeGraph(w, SEED, 0, np.array([u for u, _ in edges]),
                   np.array([v for _, v in edges]))
    out = couple_neighbourhood_to_intermediate(g, 0, CouplingConfig(k_n=k_n, depth=depth),
                                               stage1_rng(g, 0))
    assert not out.ok
    assert (out.break_reason, out.break_level) == (reason, level)
    assert out.flags == {reason}


def test_tiny_weights_give_root_only_coupling():
    w = EmpiricalWeights(n=5, W=np.full(5, 1e-8), theta=1e-8)
    g = whole_graph(w, SEED, 0)
    out = couple_neighbourhood_to_intermediate(g, 0, CouplingConfig(k_n=5, depth=3),
                                               stage1_rng(g, 0))
    assert out.ok
    assert out.neighbourhood.vertex_count == 1
    assert out.tree.node_count == 1


def test_graph_side_equals_plain_exploration():
    for spec, n in ((ER1, 800), (GAMMA, 600)):
        w = sample_empirical_weights(spec, n, SEED)
        for t in range(40):
            g = whole_graph(w, SEED, t)
            out = couple_neighbourhood_to_intermediate(
                g, t % n, CouplingConfig(k_n=default_k_n(n), depth=2), stage1_rng(g, t % n))
            nb = explore(g, t % n, 2)
            assert out.neighbourhood.levels == nb.levels
            assert out.neighbourhood.children == nb.children
            assert out.neighbourhood.extra_edges == nb.extra_edges


def test_ok_implies_isomorphic_with_types():
    w = sample_empirical_weights(GAMMA, 500, SEED)
    checked = 0
    for t in range(300):
        g = whole_graph(w, SEED, t)
        out = couple_neighbourhood_to_intermediate(
            g, 0, CouplingConfig(k_n=default_k_n(500), depth=2), stage1_rng(g, 0))
        if out.ok and is_tree(out.neighbourhood):
            a = canonical_code(to_rooted_tree(out.neighbourhood, w))
            b = canonical_code(out.tree)
            assert a == b
            checked += 1
    assert checked > 50


def test_marginal_law_of_tree_half():
    # pooled over replicas (break flags ignored) the tree half has exactly
    # the intermediate-tree law
    n, reps = 2000, 1500
    w = sample_empirical_weights(ER1, n, SEED)
    cfg = CouplingConfig(k_n=default_k_n(n), depth=2)
    coupled_deg, coupled_cnt, direct_deg, direct_cnt = [], [], [], []
    for t in range(reps):
        g = whole_graph(w, SEED, t)
        out = couple_neighbourhood_to_intermediate(g, 0, cfg, stage1_rng(g, 0))
        coupled_deg.append(len(out.tree.children[0]))
        coupled_cnt.append(out.tree.node_count)
        dt = sample_intermediate_tree(w, 0, 2, stream_rng(SEED, t, INTERMEDIATE_TAG))
        direct_deg.append(len(dt.children[0]))
        direct_cnt.append(dt.node_count)
    assert stats.ks_2samp(coupled_deg, direct_deg).pvalue > 0.01
    assert stats.ks_2samp(coupled_cnt, direct_cnt).pvalue > 0.01


def test_break_rate_below_intermediate_bound():
    n, reps, ell = 2000, 1200, 2
    w = sample_empirical_weights(ER1, n, SEED)
    summ = moments(w, ER1)
    cfg = CouplingConfig(k_n=default_k_n(n), depth=ell)
    graphs = (whole_graph(w, SEED, t) for t in range(reps))
    breaks = sum(0 if couple_neighbourhood_to_intermediate(g, 0, cfg, stage1_rng(g, 0)).ok
                 else 1 for g in graphs)
    rate = breaks / reps
    params = BoundParams.from_summary(n, ell, summ, ER1, k_n=cfg.k_n)
    bound = intermediate_coupling_bound(params, float(w.W[0]))
    # overflow accounting adds E||S_l||/k_n, included in the bound via 1/k_n
    sig = np.sqrt(max(rate * (1 - rate), 1e-9) / reps)
    assert rate <= bound + 3 * sig


def test_depth_zero_never_breaks():
    w = sample_empirical_weights(GAMMA, 200, SEED)
    for t in range(50):
        g = whole_graph(w, SEED, t)
        out = couple_neighbourhood_to_intermediate(g, 0, CouplingConfig(k_n=1e-9, depth=0),
                                                   stage1_rng(g, 0))
        assert out.ok and out.tree.node_count == 1


# ---- repair ---------------------------------------------------------------------------


def test_repair_single_root_unchanged():
    w = sample_empirical_weights(GAMMA, 300, SEED)
    g = whole_graph(w, SEED, 1)
    out = couple_neighbourhood_to_intermediate(
        g, 0, CouplingConfig(k_n=default_k_n(300), depth=2), stage1_rng(g, 0))
    fixed = repair_independence([out], w.size_biased, stream_rng(SEED, 0, REPAIR_TAG))
    assert len(fixed) == 1
    assert BREAK_REPEAT not in fixed[0].flags
    assert canonical_code(fixed[0].tree) == canonical_code(out.tree)


def test_repair_root_only_trees_unchanged():
    w = EmpiricalWeights(n=6, W=np.full(6, 1e-8), theta=1e-8)
    g = whole_graph(w, SEED, 0)
    cfg = CouplingConfig(k_n=5, depth=2)
    outs = [couple_neighbourhood_to_intermediate(g, r, cfg, stage1_rng(g, r)) for r in (0, 1)]
    fixed = repair_independence(outs, w.size_biased, stream_rng(SEED, 0, REPAIR_TAG))
    for f in fixed:
        assert f.tree.node_count == 1 and BREAK_REPEAT not in f.flags


def test_repair_distinct_roots_required():
    w = sample_empirical_weights(GAMMA, 100, SEED)
    g = whole_graph(w, SEED, 0)
    out = couple_neighbourhood_to_intermediate(
        g, 0, CouplingConfig(k_n=default_k_n(100), depth=1), stage1_rng(g, 0))
    with pytest.raises(ValueError):
        repair_independence([out, out], w.size_biased, stream_rng(SEED, 0, REPAIR_TAG))


def test_repair_detects_engineered_repeat():
    # trees built by hand: root 0 with a child of type 5 in both trees
    w = sample_empirical_weights(GAMMA, 50, SEED)
    from sparselocal.coupling import CouplingOutcome
    from sparselocal.trees import RootedWeightedTree

    def fake_outcome(root):
        t = RootedWeightedTree(w.W[root], 2, root_label=root)
        t.add_child(0, w.W[5], label=5)
        return CouplingOutcome(root=root, depth=2, neighbourhood=None, tree=t, ok=True)

    fixed = repair_independence([fake_outcome(0), fake_outcome(1)], w.size_biased,
                                stream_rng(SEED, 0, REPAIR_TAG))
    assert BREAK_REPEAT not in fixed[0].flags  # first occurrence kept
    assert BREAK_REPEAT in fixed[1].flags
    assert fixed[1].break_reason == BREAK_REPEAT
    assert fixed[1].tree.labels[1] != 5 or fixed[1].tree.node_count != 2


def test_repeat_rate_below_bound():
    n, reps, ell = 1000, 800, 2
    w = sample_empirical_weights(GAMMA, n, SEED)
    law = w.size_biased
    summ = moments(w, GAMMA)
    cfg = CouplingConfig(k_n=default_k_n(n), depth=ell)
    roots = [0, 1]
    hits = 0
    for t in range(reps):
        g = whole_graph(w, SEED, t)
        outs = [couple_neighbourhood_to_intermediate(g, r, cfg, stage1_rng(g, r))
                for r in roots]
        fixed = repair_independence(outs, law, stream_rng(SEED, t, REPAIR_TAG))
        if any(BREAK_REPEAT in f.flags for f in fixed):
            hits += 1
    rate = hits / reps
    params = BoundParams.from_summary(n, ell, summ, GAMMA, k_n=cfg.k_n)
    bound = repeat_probability_bound(params, VertexSetSummary.of(w, roots))
    sig = np.sqrt(max(rate * (1 - rate), 1e-9) / reps)
    assert rate <= bound + 3 * sig


# ---- limit redraw -----------------------------------------------------------------------


def test_constant_law_never_redraws():
    w = sample_empirical_weights(WeightSpec("constant", c=1.5), 400, SEED)
    law = w.size_biased
    rng = stream_rng(SEED, 0, 9)
    for t in range(150):
        it = sample_intermediate_tree(w, 3, 2, rng=rng)
        lt, lvl = couple_intermediate_to_limit(it, law, WeightSpec("constant", c=1.5),
                                               rng=rng)
        assert lvl is None
        assert lt.node_count == it.node_count


def test_root_type_preserved():
    w = sample_empirical_weights(GAMMA, 300, SEED)
    law = w.size_biased
    rng = stream_rng(SEED, 0, 10)
    for t in range(100):
        it = sample_intermediate_tree(w, 7, 2, rng=rng)
        lt, _ = couple_intermediate_to_limit(it, law, GAMMA, rng=rng)
        assert lt.type_w[0] == w.W[7]


def test_limit_redraw_rate_below_bound():
    n, reps, ell = 1000, 1000, 2
    w = sample_empirical_weights(GAMMA, n, SEED)
    law = w.size_biased
    summ = moments(w, GAMMA)
    rng = stream_rng(SEED, 0, 11)
    fails = 0
    for t in range(reps):
        it = sample_intermediate_tree(w, 3, ell, rng=rng)
        _, lvl = couple_intermediate_to_limit(it, law, GAMMA, rng=rng)
        fails += lvl is not None
    rate = fails / reps
    params = BoundParams.from_summary(n, ell, summ, GAMMA, k_n=default_k_n(n))
    bound = limit_redraw_bound(params, VertexSetSummary.of(w, [3]))
    sig = np.sqrt(max(rate * (1 - rate), 1e-9) / reps)
    assert rate <= bound + 3 * sig


def test_limit_tree_marginal_after_coupling():
    # the redraw output pooled over replicas is the limit tree law
    n, reps = 600, 2500
    w = sample_empirical_weights(GAMMA, n, SEED)
    law = w.size_biased
    rng = stream_rng(SEED, 0, 12)
    coupled, direct = [], []
    for t in range(reps):
        it = sample_intermediate_tree(w, 3, 2, rng=rng)
        lt, _ = couple_intermediate_to_limit(it, law, GAMMA, rng=rng)
        coupled.append(lt.node_count)
        direct.append(sample_limit_tree(float(w.W[3]), GAMMA, None, None, 2,
                                        rng=rng).node_count)
    assert stats.ks_2samp(coupled, direct).pvalue > 0.01


# ---- full pipeline ----------------------------------------------------------------------


def test_full_pipeline_shared_weights_isomorphic():
    n = 1500
    w = sample_empirical_weights(ER1, n, SEED)
    mu_e = WeightSpec("gamma", shape=1.0, scale=1.0)
    mu_v = WeightSpec("gamma", shape=2.0, scale=0.5)
    cfg = CouplingConfig(k_n=default_k_n(n), depth=2)
    ok_seen = 0
    for t in range(250):
        g = whole_graph(w, SEED, t, mu_v=mu_v, mu_e=mu_e)
        outs = couple_full(g, [0, 1], cfg, ER1)
        for o in outs:
            if o.ok and is_tree(o.neighbourhood):
                nb_tree = to_rooted_tree(o.neighbourhood, w,
                                         vertex_weight=g.vertex_weight,
                                         edge_weight=g.edge_weight)
                # types differ in law across the redraw, so compare without them
                assert (canonical_code(nb_tree, with_types=False)
                        == canonical_code(o.tree, with_types=False))
                ok_seen += 1
    assert ok_seen > 100


def test_full_pipeline_independence_chi_square():
    # joint canonical-code frequencies of the two coupled trees factorize
    n, reps = 2000, 1500
    w = sample_empirical_weights(ER1, n, SEED)
    cfg = CouplingConfig(k_n=default_k_n(n), depth=1)
    pairs = []
    for t in range(reps):
        g = whole_graph(w, SEED, t)
        outs = couple_full(g, [0, 1], cfg, ER1)
        pairs.append(tuple(canonical_code(o.tree, with_types=False) for o in outs))
    codes = [c for p in pairs for c in p]
    top = [c for c, _ in
           sorted(((c, codes.count(c)) for c in set(codes)), key=lambda x: -x[1])[:5]]
    idx = {c: i for i, c in enumerate(top)}
    table = np.zeros((len(top) + 1, len(top) + 1))
    for a, b in pairs:
        table[idx.get(a, len(top)), idx.get(b, len(top))] += 1
    assert stats.chi2_contingency(table + 0.0).pvalue > 0.01


def test_total_break_rate_below_epsilon_v():
    from sparselocal.bounds import epsilon_v_bound

    n, reps, ell = 1000, 600, 2
    w = sample_empirical_weights(GAMMA, n, SEED)
    summ = moments(w, GAMMA)
    cfg = CouplingConfig(k_n=default_k_n(n), depth=ell)
    bad = 0
    for t in range(reps):
        g = whole_graph(w, SEED, t)
        outs = couple_full(g, [0, 1], cfg, GAMMA)
        if not all(o.ok for o in outs):
            bad += 1
    rate = bad / reps
    params = BoundParams.from_summary(n, ell, summ, GAMMA, k_n=cfg.k_n)
    bound = epsilon_v_bound(params, VertexSetSummary.of(w, [0, 1]))
    sig = np.sqrt(max(rate * (1 - rate), 1e-9) / reps)
    assert rate <= bound + 3 * sig


@pytest.mark.parametrize("spec", [ER1, GAMMA, FINITE], ids=["er", "gamma", "finite"])
def test_fully_coupled_tree_carries_the_ball_labels(spec):
    # node i of a fully coupled tree stands for graph vertex labels[i], in
    # ball order, and the overlay gave it that vertex's weight and the weight
    # of the edge to its parent's vertex
    n = 400
    mu_e = WeightSpec("gamma", shape=1.0, scale=1.0)
    mu_v = WeightSpec("finite", values=(1.0, 2.0), probs=(0.5, 0.5))
    w = sample_empirical_weights(spec, n, SEED)
    checked = 0
    for ell in (1, 2):
        cfg = CouplingConfig(k_n=default_k_n(n), depth=ell)
        for t in range(40):
            g = whole_graph(w, SEED, t, mu_v=mu_v, mu_e=mu_e)
            for o in couple_full(g, [0, 1], cfg, spec):
                if not o.ok:
                    continue
                labels = o.tree.labels
                assert labels == o.neighbourhood.vertices()
                for i, v in enumerate(labels):
                    assert o.tree.vertex_w[i] == g.vertex_weight(v)
                    if i:
                        parent = labels[o.tree.parent[i]]
                        assert o.tree.edge_w[i] == g.edge_weight(parent, v)
                checked += 1
    assert checked >= 100


def test_monotone_improvement_in_n():
    # empirical union break rate at fixed depth does not grow with n
    rates = []
    for n in (500, 4000):
        w = sample_empirical_weights(ER1, n, SEED)
        cfg = CouplingConfig(k_n=default_k_n(n), depth=2)
        bad = 0
        reps = 500
        for t in range(reps):
            g = whole_graph(w, SEED, t)
            outs = couple_full(g, [0, 1], cfg, ER1)
            bad += 0 if all(o.ok for o in outs) else 1
        rates.append(bad / reps)
    noise = 2 * np.sqrt(max(rates[0] * (1 - rates[0]), 1e-9) / 500)
    assert rates[1] <= rates[0] + noise
