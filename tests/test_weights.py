import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import special

import sparselocal
from conftest import wasserstein_1d, weighted_sample_w1, where_integer_gamma_block
from sparselocal.weights import (_BLOCK, _GAMMA_SERIES, _MASKED_FROM, _W1_BLOCK, _W1_LEAF,
                                 EmpiricalWeights, WeightSpec, _integer_gamma_quantile, moments,
                                 sample_empirical_weights)

SEED = (2024, 7)


def edge_probability(Wu: float, Wv: float, n: int, theta: float) -> float:
    """min(Wu*Wv/(n*theta), 1), the rank-one edge probability; arguments positive."""
    if Wu <= 0 or Wv <= 0 or n <= 0 or theta <= 0:
        raise ValueError("edge_probability requires positive arguments")
    return min(Wu * Wv / (n * theta), 1.0)


def test_edge_probability_er_embedding():
    # constant weights sqrt(lam_n * lam) give exactly lam_n / n, and the graph
    # sampler's bound for their single bucket is that probability
    lam_n, lam, n = 2.5, 2.0, 100
    w = np.sqrt(lam_n * lam)
    assert edge_probability(w, w, n, lam) == pytest.approx(lam_n / n, abs=0, rel=1e-15)
    plan = EmpiricalWeights(n=n, W=np.full(n, w), theta=lam).bucket_plan
    assert [pmax for pmax, *_ in plan.pairs] == [edge_probability(w, w, n, lam)]
    assert plan.expected == sum(total * pmax for pmax, total, *_ in plan.pairs)


def test_bucket_plan_groups_by_the_exact_binary_exponent():
    # floor(log2 W) at powers of two, at the doubles next to them and at
    # subnormals, where a rounded log2 can land on the wrong side
    k = np.concatenate((np.arange(-1074, -1064), np.arange(-1026, -1020), np.arange(-3, 4),
                        np.arange(1019, 1024)))
    p = np.ldexp(1.0, k)
    W = np.concatenate((p, np.nextafter(p, np.inf), np.nextafter(p[1:], 0.0),
                        [3 * 5e-324, 1e-310, 2.2250738585072009e-308]))
    exponent = np.array([math.frexp(w)[1] - 1 for w in W.tolist()])
    with np.errstate(over="ignore"):  # pmax of the top buckets is inf before its cap
        plan = EmpiricalWeights(n=W.size, W=W, theta=1.0).bucket_plan
    groups = [set(exponent[plan.order[a:b]].tolist()) for a, b in plan.buckets]
    assert all(len(g) == 1 for g in groups)
    assert [g.pop() for g in groups] == sorted(set(exponent.tolist()))


@pytest.mark.parametrize("k", range(1, 65))
def test_bucket_pairs_equal_triu_indices(k):
    # k buckets of 1, 2 or 3 vertices, at weights 1.5 * 2^e: the plan lists
    # every pair a <= b in lexicographic order, as np.triu_indices(k) does,
    # less the same-bucket pairs of one-vertex buckets
    sizes = [1 + e % 3 for e in range(k)]
    W = np.repeat(np.ldexp(1.5, np.arange(k)), sizes)[::-1].copy()
    n, theta = W.size, 2.0
    plan = EmpiricalWeights(n=n, W=W, theta=theta).bucket_plan
    starts = np.cumsum(sizes) - sizes
    want = []
    for a in range(k):
        for b in range(a, k):
            total = sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b]
            if total:
                pmax = min(1.5 * 2.0 ** a * 1.5 * 2.0 ** b / (n * theta), 1.0)
                want.append((pmax, total, starts[a], starts[b], sizes[b], a == b))
    assert plan.pairs == want
    assert all(type(x) in (float, int, bool) for pair in plan.pairs for x in pair)


def test_edge_probability_cap_and_direct():
    assert edge_probability(1, 1, 1, 1) == 1.0
    assert edge_probability(1, 2, 4, 1) == 0.5


@pytest.mark.parametrize("bad", [(0, 1, 2, 1), (1, -1, 2, 1), (1, 1, 0, 1), (1, 1, 2, 0)])
def test_edge_probability_domain_errors(bad):
    with pytest.raises(ValueError):
        edge_probability(*bad)


def test_constant_weights():
    w = sample_empirical_weights(WeightSpec("constant", c=3.0), 5, SEED)
    assert np.all(w.W == 3.0)
    assert w.theta == 3.0


def test_finite_discrete_lln_mean():
    spec = WeightSpec("finite", values=(1.0, 3.0), probs=(0.5, 0.5))
    n = 40_000
    w = sample_empirical_weights(spec, n, SEED)
    sd = np.sqrt(spec.moment(2) - spec.mean() ** 2)
    assert abs(w.W.mean() - 2.0) <= 3 * sd / np.sqrt(n)
    assert w.theta == 2.0


def test_gamma_third_moment():
    spec = WeightSpec("gamma", shape=2.0, scale=1.0)
    assert spec.moment(3) == pytest.approx(24.0)  # 2*3*4
    n = 60_000
    w = sample_empirical_weights(spec, n, SEED)
    third = w.W ** 3
    assert abs(third.mean() - 24.0) <= 3 * third.std() / np.sqrt(n)


def test_moments_er_example():
    lam_n, lam, n = 2.5, 2.0, 50
    w = EmpiricalWeights(n=n, W=np.full(n, np.sqrt(lam_n * lam)), theta=lam)
    m = moments(w)
    assert m.gamma[2] == pytest.approx(lam_n, rel=1e-12)
    assert m.kappa == {1: 0.0, 2: 0.0}  # max weight below sqrt(n theta)


def test_moments_direct_arithmetic():
    w = EmpiricalWeights(n=3, W=np.array([1.0, 2.0, 3.0]), theta=2.0)
    m = moments(w)
    assert m.gamma[2] == pytest.approx(14.0 / 6.0, rel=1e-14)
    assert m.gamma[0] == pytest.approx(1.0 / 2.0)  # 1/theta
    assert m.gamma[1] == pytest.approx(m.lambda_n / (3 * 2.0), rel=1e-14)


def test_kappa_markov_holder_inequality():
    # kappa_p <= Gamma_3 (n theta)^{-(3-p)/2}, with excess triggered on purpose
    w = EmpiricalWeights(n=4, W=np.array([0.5, 0.5, 0.5, 10.0]), theta=1.0)
    m = moments(w)
    for p in (1, 2):
        assert m.kappa[p] <= m.gamma[p]
        assert m.kappa[p] <= m.gamma[3] * (4 * 1.0) ** (-(3 - p) / 2) + 1e-12


def test_size_biased_mean_identity():
    spec = WeightSpec("gamma", shape=2.0, scale=1.5)
    w = sample_empirical_weights(spec, 500, SEED)
    m = moments(w)
    # empirical size-biased mean: sum W^2 / Lambda = Gamma_2 / Gamma_1 exactly
    assert (w.W ** 2).sum() / w.lambda_n == pytest.approx(
        m.gamma[2] / m.gamma[1], rel=1e-12)


@pytest.mark.parametrize("W, last", [
    # the table in doubles ends at 1 - 2^-52: the top uniform fell past it
    ([1.1, 1.1, 1.1, 1.0], 3),
    # it passes 1 before the last entry, whose mass 1e-30 is below rounding
    ([0.2, 0.3, 0.2, 1e-30], 2),
], ids=["short", "past-one"])
def test_empirical_size_biased_maps_the_top_uniform_to_the_last_label(W, last):
    W = np.array(W)
    assert np.cumsum(W / W.sum())[-1] != 1.0  # the plain cumulative sum misses 1
    law = EmpiricalWeights(n=W.size, W=W, theta=1.0).size_biased
    assert law.cum[-1] == 1.0 and np.all(np.diff(law.cum) >= 0)

    class TopUniform:
        def random(self, size=None):
            top = 1.0 - 2.0 ** -53
            return top if size is None else np.full(size, top)

        def poisson(self, lam):
            return 2

    assert law.draw(TopUniform()) == last
    assert law.offspring(0, TopUniform()).tolist() == [last] * 2


_INTERVAL_LAWS = st.one_of(
    st.tuples(st.floats(0.2, 5.0), st.floats(0.1, 3.0)).map(
        lambda t: WeightSpec("gamma", shape=t[0], scale=t[1])),
    st.lists(st.floats(0.1, 5.0), min_size=1, max_size=4, unique=True).map(
        lambda v: WeightSpec("finite", values=tuple(v), probs=(1.0 / len(v),) * len(v))),
    st.floats(0.1, 5.0).map(lambda c: WeightSpec("constant", c=c)),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_INTERVAL_LAWS, n=st.integers(1, 400), stream=st.integers(0, 2**31))
@example(spec=WeightSpec("gamma", shape=2.0, scale=1.0), n=1, stream=0)
@example(spec=WeightSpec("gamma", shape=2.0, scale=1.0), n=2, stream=0)
@example(spec=WeightSpec("constant", c=1.0), n=1, stream=0)
@example(spec=WeightSpec("constant", c=1.0), n=2, stream=0)
@example(spec=WeightSpec("constant", c=0.3), n=257, stream=1)  # all ties
@example(spec=WeightSpec("finite", values=(0.5, 2.0), probs=(0.5, 0.5)), n=300, stream=2)
def test_size_biased_interval_equals_stable_argsort_oracle(size_biased_intervals, spec, n,
                                                           stream):
    w = sample_empirical_weights(spec, n, SEED, stream=stream)
    lo, hi = size_biased_intervals(w.W)
    law = w.size_biased
    for label in range(n):
        got_lo, got_hi = law.interval(label)
        assert got_lo == lo[label] and got_hi == hi[label], label


def test_size_biased_families():
    assert WeightSpec("constant", c=2.0).size_biased() == WeightSpec("constant", c=2.0)
    fd = WeightSpec("finite", values=(1.0, 3.0), probs=(0.5, 0.5)).size_biased()
    assert fd.values == (1.0, 3.0)
    assert fd.probs == pytest.approx((0.25, 0.75))
    g = WeightSpec("gamma", shape=2.0, scale=0.5).size_biased()
    assert (g.shape, g.scale) == (3.0, 0.5)
    # mean of the size-biased law is E[W^2]/E[W]
    base = WeightSpec("gamma", shape=2.0, scale=0.5)
    assert g.mean() == pytest.approx(base.moment(2) / base.mean())


# ---- Wasserstein -----------------------------------------------------------------------


def test_wasserstein_identical_laws():
    g = WeightSpec("gamma", shape=2.0, scale=1.0)
    assert wasserstein_1d(g, g) == pytest.approx(0.0, abs=1e-10)
    c = WeightSpec("constant", c=1.5)
    assert wasserstein_1d(c, c) == 0.0


def test_wasserstein_point_masses():
    a = WeightSpec("constant", c=1.0)
    b = WeightSpec("constant", c=3.5)
    assert wasserstein_1d(a, b) == pytest.approx(2.5)


def test_wasserstein_shifted_uniform():
    # quantile functions differ by exactly 1 everywhere
    a = WeightSpec("finite", values=(1.0, 2.0), probs=(0.5, 0.5))
    b = WeightSpec("finite", values=(2.0, 3.0), probs=(0.5, 0.5))
    assert wasserstein_1d(a, b) == pytest.approx(1.0)


def _grid_w1(a, b, k=200_001):
    # independent oracle: quantile coupling on a fine uniform grid
    u = (np.arange(k) + 0.5) / k
    return float(np.mean(np.abs(a.quantile(u) - b.quantile(u))))


def test_wasserstein_gamma_vs_gamma_quadrature():
    a = WeightSpec("gamma", shape=2.0, scale=1.0)
    b = WeightSpec("gamma", shape=3.0, scale=1.0)
    assert wasserstein_1d(a, b) == pytest.approx(_grid_w1(a, b), rel=1e-3)


def test_wasserstein_sample_vs_spec_matches_grid_oracle():
    rng = np.random.default_rng(5)
    sample = rng.gamma(2.0, 1.0, size=400)
    spec = WeightSpec("gamma", shape=2.0, scale=1.0)
    exact = wasserstein_1d(sample, spec)
    # oracle: empirical quantile vs spec quantile on a fine grid
    k = 400_000
    u = (np.arange(k) + 0.5) / k
    emp_q = np.sort(sample)[np.minimum((u * 400).astype(int), 399)]
    oracle = float(np.mean(np.abs(emp_q - spec.quantile(u))))
    assert exact == pytest.approx(oracle, rel=2e-3)


def test_wasserstein_sample_vs_finite_spec_exact():
    spec = WeightSpec("finite", values=(1.0, 2.0), probs=(0.5, 0.5))
    # hand-computable: sample {1, 2, 2, 2}; empirical quantile steps at 1/4
    sample = np.array([2.0, 1.0, 2.0, 2.0])
    # segments: [0,.25):|1-1|=0; [.25,.5):|2-1|=1; [.5,1):|2-2|=0
    assert wasserstein_1d(sample, spec) == pytest.approx(0.25)


def _wasserstein_three_calls(values, masses, spec):
    """The weighted-sample W1 with G evaluated on lo, c and hi at every point."""
    order = np.argsort(values)
    s = np.asarray(values, dtype=float)[order]
    m = np.asarray(masses, dtype=float)[order]
    hi = np.cumsum(m)
    hi[-1] = 1.0
    lo = np.concatenate(([0.0], hi[:-1]))
    c = np.clip(spec.cdf(s), lo, hi)
    g_lo = spec.partial_quantile_integral(lo)
    g_c = spec.partial_quantile_integral(c)
    g_hi = spec.partial_quantile_integral(hi)
    below = s * (c - lo) - (g_c - g_lo)
    above = (g_hi - g_c) - s * (hi - c)
    return float((below + above).sum())


def _forward_error_bound(values, masses, spec):
    """A bound on |computed W1 - reference W1| from rounding alone.

    Both forms evaluate, on the same doubles s_i, lo_i, c_i, hi_i and G
    values, sums whose exact values are one real number.  In the standard
    model fl(a op b) = (a op b)(1 + d), |d| <= u = 2^-53, a sum of signed
    monomials in which each monomial passes through at most k roundings is
    within gamma_k * (sum of the monomials' magnitudes) of its exact value,
    gamma_k = k u / (1 - k u) (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., Lemma 3.1), whatever the order of the sums.  Here
    the monomials are s_i lo_i, s_i c_i, s_i hi_i, G(lo_i), G(c_i) and
    G(hi_i), each with a coefficient of magnitude at most 2 (a run end
    G(hi_{i-1}) = G(lo_i) stands for the two step ends it replaces).  Each
    passes at most 4 roundings before it enters a sum and at most n + 1 in
    the sums, however the steps are grouped into them, so

        |computed - exact| <= gamma_{n+6} M,
        M = sum_i s_i (lo_i + 2 c_i + hi_i) + G(lo_i) + 2 G(c_i) + G(hi_i),

    for each form.  The closed form for a point mass also drops the rounding
    of G(u) = c u itself, at most u M.  So the two forms differ by at most
    2 gamma_{n+7} M.
    """
    order = np.argsort(values)
    s = np.asarray(values, dtype=float)[order]
    hi = np.cumsum(np.asarray(masses, dtype=float)[order])
    hi[-1] = 1.0
    lo = np.concatenate(([0.0], hi[:-1]))
    c = np.clip(spec.cdf(s), lo, hi)
    g = spec.partial_quantile_integral
    m = float((s * (lo + 2.0 * c + hi) + g(lo) + 2.0 * g(c) + g(hi)).sum())
    k = s.size + 7
    u = 2.0 ** -53
    return 2.0 * k * u / (1.0 - k * u) * m


def _w1(values, masses, spec):
    """The weighted-sample W1 on unsorted values, as the reference takes them."""
    order = np.argsort(values)
    return weighted_sample_w1(np.asarray(values, dtype=float)[order],
                              np.asarray(masses, dtype=float)[order], spec)


@pytest.mark.parametrize("spec", [WeightSpec("constant", c=2.0),
                                  WeightSpec("finite", values=(0.5, 1.0, 3.0),
                                             probs=(0.2, 0.5, 0.3)),
                                  WeightSpec("gamma", shape=2.0, scale=1.0)],
                         ids=["constant", "finite", "gamma"])
def test_weighted_sample_w1_matches_three_call_form(spec):
    # G runs only at the ends of runs of equal clipping; the value is the
    # reference's up to rounding
    rng = np.random.default_rng(11)
    for values in (rng.gamma(2.0, 1.0, size=997), spec.sample(rng, 500), np.array([1.5])):
        for masses in (np.full(values.size, 1.0 / values.size), values / values.sum()):
            for target in (spec, spec.size_biased()):
                assert (abs(_w1(values, masses, target)
                            - _wasserstein_three_calls(values, masses, target))
                        <= _forward_error_bound(values, masses, target))


_LAWS = st.one_of(
    st.floats(0.1, 5.0).map(lambda c: WeightSpec("constant", c=c)),
    st.lists(st.floats(0.1, 5.0), min_size=1, max_size=4, unique=True).flatmap(
        lambda v: st.lists(st.floats(0.05, 1.0), min_size=len(v), max_size=len(v)).map(
            lambda p: WeightSpec("finite", values=tuple(v),
                                 probs=tuple(np.asarray(p) / np.sum(p))))),
    st.tuples(st.floats(0.3, 5.0), st.floats(0.2, 3.0)).map(
        lambda a: WeightSpec("gamma", shape=a[0], scale=a[1])),
)


@settings(max_examples=150, deadline=None)
@given(_LAWS, st.integers(1, 400), st.integers(0, 2**32 - 1), st.booleans(),
       st.booleans(), st.booleans())
def test_weighted_sample_w1_agrees_with_all_points_form(spec, n, seed, from_law,
                                                        biased_masses, biased_target):
    rng = np.random.default_rng(seed)
    values = spec.sample(rng, n) if from_law else rng.gamma(2.0, 1.0, size=n)
    masses = values / values.sum() if biased_masses else np.full(n, 1.0 / n)
    target = spec.size_biased() if biased_target else spec
    assert (abs(_w1(values, masses, target) - _wasserstein_three_calls(values, masses, target))
            <= _forward_error_bound(values, masses, target))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 5.0), st.integers(1, 400), st.booleans())
def test_weighted_sample_w1_is_zero_on_constant_laws(c, n, biased_masses):
    spec = WeightSpec("constant", c=c)
    values = spec.sample(np.random.default_rng(0), n)
    masses = values / values.sum() if biased_masses else np.full(n, 1.0 / n)
    assert _w1(values, masses, spec) == 0.0
    assert wasserstein_1d(values, spec) == 0.0
    assert moments(EmpiricalWeights(n=n, W=values, theta=c), spec).alpha_n == 0.0


def _exact_w1(values, spec):
    """W1 between the uniform law on ``values`` and a finite spec, in fractions."""
    from fractions import Fraction

    s = sorted(Fraction(v) for v in values)
    emp_cuts = [Fraction(i + 1, len(s)) for i in range(len(s))]
    law_cuts = list(np.cumsum([Fraction(p) for p in spec.probs]))
    law_values = [Fraction(v) for v in spec.values]
    cuts = sorted(set(emp_cuts) | set(law_cuts) | {Fraction(0)})
    total = Fraction(0)
    for a, b in zip(cuts[:-1], cuts[1:]):
        # both quantile functions are constant on (a, b]
        qe = s[next(i for i, x in enumerate(emp_cuts) if x >= b)]
        ql = law_values[next(i for i, x in enumerate(law_cuts) if x >= b)]
        total += abs(qe - ql) * (b - a)
    return total


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 64), min_size=1, max_size=5, unique=True).flatmap(
           lambda v: st.lists(st.integers(1, 16), min_size=len(v), max_size=len(v)).map(
               lambda w: (v, w))),
       st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_weighted_sample_w1_exact_on_dyadic_laws(law, k, seed):
    # dyadic values, probabilities and masses 2^-k: every step of both forms
    # is exact in doubles, so both equal the W1 computed in fractions
    eighths, counts = law
    total = sum(counts)
    scale = 1 << (total - 1).bit_length()  # pad the last mass up to a power of two
    counts = counts[:-1] + [counts[-1] + scale - total]
    spec = WeightSpec("finite", values=tuple(v / 8 for v in eighths),
                      probs=tuple(w / scale for w in counts))
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 65, size=2 ** k) / 8
    masses = np.full(values.size, 1.0 / values.size)
    exact = _exact_w1(values, spec)
    assert _w1(values, masses, spec) == exact
    assert wasserstein_1d(values, spec) == exact
    assert _wasserstein_three_calls(values, masses, spec) == exact


def test_weighted_sample_w1_evaluates_g_at_run_ends_only(monkeypatch):
    # G runs at the ends of runs of steps clipped the same way (each unclipped
    # step a run of its own) and at the unclipped c: at most runs + 1 + unclipped
    # points, where the all-points form takes n + 1 + unclipped
    spec = WeightSpec("gamma", shape=2.0, scale=1.0)
    values = spec.sample(np.random.default_rng(5), 2000)
    n = values.size
    points = []
    original = WeightSpec.partial_quantile_integral

    def counted(self, u):
        points.append(np.size(u))
        return original(self, u)

    monkeypatch.setattr(WeightSpec, "partial_quantile_integral", counted)
    for masses, target in ((np.full(n, 1.0 / n), spec),
                           (values / values.sum(), spec.size_biased())):
        hi = np.cumsum(masses[np.argsort(values)])
        hi[-1] = 1.0
        lo = np.concatenate(([0.0], hi[:-1]))
        c = np.clip(target.cdf(np.sort(values)), lo, hi)
        state = np.where(c == hi, 1, np.where(c == lo, -1, 0))
        unclipped = int(np.count_nonzero(state == 0))
        runs = 1 + int(np.count_nonzero((state[1:] != state[:-1]) | (state[1:] == 0)))
        assert runs < n // 10
        points.clear()
        _w1(values, masses, target)
        assert sum(points) <= runs + 1 + unclipped


def _midpoint_sample(spec, n):
    """The spec's quantiles at the midpoints of n equal steps: F(s_i) sits
    inside step i, so nearly every step of the uniform masses is unclipped."""
    return spec.quantile((np.arange(n) + 0.5) / n)


@pytest.mark.parametrize("n", [1, 2, _W1_LEAF + 2, _W1_BLOCK - 1, _W1_BLOCK, _W1_BLOCK + 1,
                               _W1_BLOCK + 2, 2 * _W1_BLOCK + 1, 100_000])
@pytest.mark.parametrize("shape", [1.0, 2.0, 3.0, 2.5])
def test_weighted_sample_w1_equals_all_points_oracle(all_points_w1, shape, n):
    # the blocked CDF gives every bit of the all-points clip, on a sample from
    # the law, on one where most steps are unclipped (the blocks' worst case)
    # and on one from another law, which crosses the spec's quantile rarely
    spec = WeightSpec("gamma", shape=shape, scale=1.5)
    rng = np.random.default_rng(n + int(10 * shape))
    samples = {"law": np.sort(spec.sample(rng, n)),
               "midpoints": _midpoint_sample(spec, n),
               "other": np.sort(rng.gamma(0.5, 4.0, size=n))}
    for name, s in samples.items():
        for masses, target in ((np.full(n, 1.0 / n), spec),
                               (s / s.sum(), spec.size_biased())):
            assert weighted_sample_w1(s, masses, target) == \
                all_points_w1(s, masses, target), name


def test_weighted_sample_w1_midpoint_sample_leaves_most_steps_unclipped():
    # so that the oracle test's midpoint sample does take F at most points
    spec = WeightSpec("gamma", shape=2.5, scale=1.5)
    n = 100_000
    s = _midpoint_sample(spec, n)
    hi = np.cumsum(np.full(n, 1.0 / n))
    hi[-1] = 1.0
    lo = np.concatenate(([0.0], hi[:-1]))
    f = spec.cdf(s)
    assert np.count_nonzero((f > lo) & (f < hi)) > 0.9 * n


@pytest.mark.parametrize("spec", [WeightSpec("gamma", shape=2.0, scale=1.0),
                                  WeightSpec("finite", values=(0.5, 1.0, 3.0),
                                             probs=(0.2, 0.5, 0.3))],
                         ids=["gamma", "finite"])
def test_weighted_sample_w1_takes_the_cdf_near_crossings_only(all_points_w1, monkeypatch,
                                                              spec):
    values = np.sort(spec.sample(np.random.default_rng(9), 100_000))
    n = values.size
    points = []
    original = WeightSpec.cdf

    def counted(self, x):
        points.append(np.size(x))
        return original(self, x)

    monkeypatch.setattr(WeightSpec, "cdf", counted)
    for masses, target in ((np.full(n, 1.0 / n), spec),
                           (values / values.sum(), spec.size_biased())):
        points.clear()
        got = weighted_sample_w1(values, masses, target)
        assert sum(points) < n // 3
        assert got == all_points_w1(values, masses, target)


@pytest.mark.parametrize("spec", [WeightSpec("gamma", shape=2.0, scale=1.0),
                                  WeightSpec("finite", values=(1.5, 2.5), probs=(0.5, 0.5)),
                                  WeightSpec("constant", c=2.0)],
                         ids=["gamma", "finite", "constant"])
def test_weighted_sample_w1_clips_masses_that_pass_one_early(all_points_w1, spec):
    # rounding can carry the cumulative masses past 1 before the last step:
    # here they are (0.5, 1 + 2^-52, 1 + 2^-52); clipped at 1, the steps are
    # those of the masses (0.5, 0.5, 0), where a gamma law read nan unclipped
    s = np.array([1.0, 2.0, 3.0])
    over = np.array([0.5, 0.5 + 2.0 ** -52, 2.0 ** -60])
    assert np.cumsum(over)[1] > 1.0
    got = weighted_sample_w1(s, over, spec)
    assert np.isfinite(got)
    assert got == weighted_sample_w1(s, np.array([0.5, 0.5, 0.0]), spec)
    assert got == all_points_w1(s, over, spec)


_ALPHA_LAWS = [WeightSpec("gamma", shape=1.0, scale=1.5), WeightSpec("gamma", shape=2.0, scale=1.5),
               WeightSpec("gamma", shape=3.0, scale=1.5),
               WeightSpec("finite", values=(0.5, 1.0, 3.0), probs=(0.2, 0.5, 0.3))]


@pytest.mark.parametrize("n", [1, 2, _W1_BLOCK + 1, 1000, 100_000])
@pytest.mark.parametrize("spec", _ALPHA_LAWS, ids=["exp", "gamma2", "gamma3", "finite"])
def test_moments_alpha_equals_all_points_oracle(all_points_w1, spec, n):
    # alpha_n reads the size-biased law's cumulative table as the biased W1's
    # steps; both distances keep every bit of the all-points form, on a sample
    # from the law and on one from another law
    rng = np.random.default_rng(n)
    for W in (spec.sample(rng, n), rng.gamma(0.5, 4.0, size=n)):
        w = EmpiricalWeights(n=n, W=W, theta=spec.mean())
        s = np.sort(W)
        expected = max(all_points_w1(s, np.full(n, 1.0 / n), spec),
                       all_points_w1(s, s / W.sum(), spec.size_biased()))
        assert moments(w, spec).alpha_n == expected


@pytest.mark.parametrize("spec", [WeightSpec("gamma", shape=2.0, scale=1.0),
                                  WeightSpec("finite", values=(1.5, 2.5), probs=(0.5, 0.5))],
                         ids=["gamma", "finite"])
def test_weighted_sample_w1_steps_of_no_mass_in_blocks_clipped_down(all_points_w1, monkeypatch,
                                                                   spec):
    # F(s) is below every lo after the first step, so every block but the
    # first is clipped down; a step of no mass there still reads as clipped up
    # (c == hi is tested first), a run of its own, and so do runs of them, at
    # block ends and inside blocks
    n = 20 * _W1_BLOCK
    rng = np.random.default_rng(3)
    s = np.sort(rng.uniform(0.01, 0.02, n))
    masses = rng.uniform(0.5, 1.5, n) * np.geomspace(1.0, 1e3, n)
    gone = np.concatenate((np.arange(_W1_BLOCK, n, _W1_BLOCK), [40, 41, 42, 77, 300, n - 1],
                           rng.choice(np.arange(1, n), 60, replace=False)))
    masses[gone] = 0.0
    masses /= masses.sum()
    points = []
    original = WeightSpec.cdf

    def counted(self, x):
        points.append(np.size(x))
        return original(self, x)

    monkeypatch.setattr(WeightSpec, "cdf", counted)
    got = weighted_sample_w1(s, masses, spec)
    assert sum(points) < n // 4  # the blocks, not the points, decide the clips
    assert got == all_points_w1(s, masses, spec)


@pytest.mark.parametrize("spec", [WeightSpec("gamma", shape=2.0, scale=1.0),
                                  WeightSpec("finite", values=(1.5, 2.5), probs=(0.5, 0.5))],
                         ids=["gamma", "finite"])
def test_weighted_sample_w1_clips_masses_that_pass_one_long_before_the_end(all_points_w1, spec):
    # the cumulative masses pass 1 some three blocks before the last step and
    # are capped there: those steps have no mass
    n = 10 * _W1_BLOCK
    s = np.sort(spec.sample(np.random.default_rng(4), n))
    masses = np.full(n, 1.0 / (n - 3 * _W1_BLOCK - 0.5))
    assert np.cumsum(masses)[n - 3 * _W1_BLOCK - 1] > 1.0
    got = weighted_sample_w1(s, masses, spec)
    assert np.isfinite(got)
    assert got == all_points_w1(s, masses, spec)


def test_wasserstein_unsupported_pair():
    class Weird:
        pass

    with pytest.raises(ValueError, match="unsupported"):
        wasserstein_1d(WeightSpec("gamma", shape=1.0, scale=1.0), Weird())


def test_empirical_weights_validation():
    with pytest.raises(ValueError):
        EmpiricalWeights(n=2, W=np.array([1.0, -1.0]), theta=1.0)
    with pytest.raises(ValueError):
        EmpiricalWeights(n=3, W=np.array([1.0, 1.0]), theta=1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec("constant", c=0.0)
    with pytest.raises(ValueError):
        WeightSpec("finite", values=(1.0,), probs=(0.7,))
    with pytest.raises(ValueError):
        WeightSpec("gamma", shape=-1.0, scale=1.0)
    with pytest.raises(ValueError):
        WeightSpec("zeta")


def test_exponential_helper():
    e = WeightSpec("gamma", shape=1.0, scale=1.0)
    assert e.mean() == pytest.approx(1.0)
    assert e.moment(6) == pytest.approx(720.0)  # 6!


@settings(max_examples=40, deadline=None)
@given(st.floats(0.2, 5.0), st.floats(0.2, 4.0),
       st.lists(st.floats(0.01, 0.99), min_size=3, max_size=6))
@example(shape=1.5, scale=1.0, us=[0.5, 0.010000000000000002, 0.01])
def test_quantile_monotone_and_cdf_consistent(shape, scale, us):
    spec = WeightSpec("gamma", shape=shape, scale=scale)
    q = spec.quantile(np.sort(np.asarray(us)))
    assert np.all(np.diff(q) >= 0)
    assert np.allclose(spec.cdf(q), np.sort(us), atol=1e-9)


# ---- the integer-shape gamma quantile ----------------------------------------------

def _exact_gamma_quantile(mp, k, u, guess):
    """gamma(k, 1) quantile of the double u, by Newton on log P or log Q in mpmath.

    P = x^k e^-x / k! 1F1(1; k+1; x) and Q = e^-x e_{k-1}(x) are sums of positive
    terms, so both keep their relative precision in either tail.
    """
    with mp.workdps(50):
        um = mp.mpf(u)
        lower = u <= 0.5
        target = mp.log(um) if lower else mp.log(1 - um)
        x = mp.mpf(guess)
        for _ in range(8):
            dens = x ** (k - 1) * mp.exp(-x) / mp.factorial(k - 1)
            if lower:
                P = x ** k * mp.exp(-x) / mp.factorial(k) * mp.hyp1f1(1, k + 1, x)
                x -= (mp.log(P) - target) * P / dens
            else:
                Q = mp.exp(-x) * mp.fsum(x ** i / mp.factorial(i) for i in range(k))
                x += (mp.log(Q) - target) * Q / dens
        return x


# u from 1e-300 to 1/2, and from 1/2 to the largest double below 1
_BOTH_TAILS = st.one_of(st.floats(1e-300, 0.5), st.floats(0.5, 1.0 - 2.0 ** -53))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 3]), _BOTH_TAILS)
def test_integer_gamma_quantile_within_2_ulp(k, u):
    mp = pytest.importorskip("mpmath")
    x = float(WeightSpec("gamma", shape=float(k), scale=1.0).quantile(u))
    exact = _exact_gamma_quantile(mp, k, u, x)
    assert abs(mp.mpf(x) - exact) <= 2 * np.spacing(float(exact))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_integer_gamma_quantile_within_2_ulp_on_a_grid(k):
    # the vector path, on a log grid over both tails and a grid over the middle
    mp = pytest.importorskip("mpmath")
    u = np.concatenate([np.ldexp(1.0, -np.arange(1, 997, 9)),
                        np.linspace(0.01, 0.99, 99),
                        1.0 - np.ldexp(1.0, -np.arange(2, 54))])
    x = WeightSpec("gamma", shape=float(k), scale=1.0).quantile(u)
    for ui, xi in zip(u.tolist(), x.tolist()):
        exact = _exact_gamma_quantile(mp, k, ui, xi)
        assert abs(mp.mpf(xi) - exact) <= 2 * np.spacing(float(exact)), ui


@pytest.mark.parametrize("shape", [1.0, 2.0, 3.0])
def test_integer_gamma_quantile_endpoints_and_scalars(shape, recwarn):
    spec = WeightSpec("gamma", shape=shape, scale=2.0)
    assert spec.quantile(np.array([0.0, 1.0])).tolist() == [0.0, np.inf]
    assert spec.quantile(0.0) == 0.0 and spec.quantile(1.0) == np.inf
    assert spec.partial_quantile_integral(np.array([0.0, 1.0])).tolist() == [0.0, 2.0 * shape]
    assert not recwarn.list  # the nan the endpoints pass through raises no warning
    # a 0-d call is a scalar with the bits of the same u in a vector
    u = np.array([1e-300, 1e-12, 0.25, 0.5, 0.75, 1.0 - 2.0 ** -53])
    scalars = [spec.quantile(x) for x in u.tolist()]
    assert all(np.ndim(q) == 0 for q in scalars)
    assert [float(q) for q in scalars] == spec.quantile(u).tolist()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1.0, 2.0, 3.0]), st.floats(0.2, 4.0),
       st.lists(_BOTH_TAILS, min_size=2, max_size=8))
def test_integer_gamma_quantile_monotone_and_cdf_consistent(shape, scale, us):
    spec = WeightSpec("gamma", shape=shape, scale=scale)
    u = np.unique(us)
    # the quantile is within 2 ulp, so its order holds between u this far apart
    u = u[np.concatenate(([True], np.diff(u) > 1e-12 * u[1:]))]
    q = spec.quantile(u)
    assert np.all(np.diff(q) > 0)
    assert np.allclose(spec.cdf(q), u, rtol=1e-12, atol=0)


def test_non_integer_gamma_quantile_is_the_least_double_the_cdf_reaches():
    u = np.linspace(0.0, 1.0, 101)
    inner = u[1:-1]
    for shape in (0.5, 2.5, 1.0 + 2.0 ** -52):
        y = WeightSpec("gamma", shape=shape, scale=1.0).quantile(u)
        assert y[0] == 0.0 and y[-1] == np.inf
        x, below = y[1:-1], np.nextafter(y[1:-1], 0.0)
        lower = inner < 0.5
        # P(x) >= u > P(below) under the median, Q(x) <= 1 - u < Q(below) from it on
        assert np.all(special.gammainc(shape, x[lower]) >= inner[lower])
        assert np.all(special.gammainc(shape, below[lower]) < inner[lower])
        assert np.all(special.gammaincc(shape, x[~lower]) <= 1.0 - inner[~lower])
        assert np.all(special.gammaincc(shape, below[~lower]) > 1.0 - inner[~lower])
        assert np.allclose(x, special.gammaincinv(shape, inner), rtol=1e-13, atol=0)
        spec = WeightSpec("gamma", shape=shape, scale=1.5)
        assert np.array_equal(spec.quantile(u), 1.5 * y)


@pytest.mark.parametrize("shape", [0.2, 1.5, 2.5, 4.5])
def test_non_integer_gamma_quantile_is_monotone_over_adjacent_doubles(shape):
    # gammaincinv(1.5, .) and gammaincinv(0.2, .) fall from 0.01 to the next double
    centres = np.array([1e-300, 1e-12, 0.01, 0.3, 0.5, 0.7, 1.0 - 1e-12])
    bits = centres.view(np.int64)[:, None] + np.arange(-300, 300)
    u = np.sort(np.concatenate([bits.view(np.float64).ravel(), [0.0, 1.0]]))
    q = WeightSpec("gamma", shape=shape, scale=0.7).quantile(u)
    assert np.all(np.diff(q) >= 0)
    # 0-d calls give the bits of the same u in a vector
    assert [float(WeightSpec("gamma", shape=shape, scale=0.7).quantile(x))
            for x in u[::97].tolist()] == q[::97].tolist()


def _quantile_edge_points(k):
    """u at the ends of the quantile's range, at 1/2 (where the rounding
    error c of 1 - u turns 0), and in a band on both sides of the u whose
    quantile is the series split, so both branches of T run."""
    if k == 1:
        band = np.linspace(0.4, 0.6, 21)
    else:
        band = special.gammainc(k, _GAMMA_SERIES[k][0]) * (1.0 + np.linspace(-1e-4, 1e-4, 201))
    return np.concatenate(([0.0, 1.0, 1e-300, 0.5, 1.0 - 2.0 ** -53], band))


@pytest.mark.parametrize("k", [2, 3])
def test_quantile_edge_points_straddle_the_series_split(k):
    q = where_integer_gamma_block(k, _quantile_edge_points(k))
    split = _GAMMA_SERIES[k][0]
    assert np.any(q < split) and np.any(q[np.isfinite(q)] > split)


@pytest.mark.parametrize("size", [1, 20, _MASKED_FROM - 1, _MASKED_FROM, _BLOCK - 1, _BLOCK,
                                  _BLOCK + 1, 7157, 2 * _BLOCK + 1, 100_000])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_integer_gamma_quantile_equals_where_oracle(k, size):
    # a short call evaluates both branches of T everywhere; a long one each
    # branch on its own values; a longer one takes passes of equal length,
    # which may be short again: all keep the one-pass bits
    rng = np.random.default_rng(size + k)
    u = rng.random(size)
    edge = _quantile_edge_points(k)
    at = rng.choice(size, size=min(size, edge.size), replace=False)
    u[at] = edge[:at.size]
    assert _integer_gamma_quantile(k, u).tobytes() == where_integer_gamma_block(k, u).tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_integer_gamma_quantile_equals_where_oracle_at_0d_and_2d(k):
    edge = _quantile_edge_points(k)
    for x in edge.tolist():
        got = _integer_gamma_quantile(k, x)
        assert np.ndim(got) == 0
        assert got.tobytes() == where_integer_gamma_block(k, x).tobytes()
    u = np.random.default_rng(k).random((3, _BLOCK))
    u[1, :edge.size] = edge
    got = _integer_gamma_quantile(k, u)
    assert got.shape == u.shape
    assert got.tobytes() == where_integer_gamma_block(k, u).tobytes()


def _digests_under_dispatch(script):
    """The stdout of ``script`` run with the default SIMD dispatch, then without
    the top targets (AVX-512 on x86), then without any target above the
    baseline (AVX2 too)."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    targets = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    if not targets:
        pytest.skip("no SIMD target above the baseline to disable")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sparselocal.__file__)))
    digests = []
    for disabled in ("", " ".join(targets[1:]), " ".join(targets)):
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=dict(env, NPY_DISABLE_CPU_FEATURES=disabled), timeout=120)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    return digests


def test_integer_gamma_quantile_bits_do_not_follow_simd_dispatch():
    # numpy picks a SIMD code path per CPU for its own transcendental ufuncs,
    # and their bits follow it; the quantile must give the same bits on all
    script = (
        "import hashlib, numpy as np\n"
        "from sparselocal.weights import WeightSpec\n"
        "u = np.concatenate([np.ldexp(1.0, -np.arange(1, 1000)),\n"
        "                    (np.arange(4000) + 0.5) / 4000,\n"
        "                    1.0 - np.ldexp(1.0, -np.arange(2, 54)), [0.0, 1.0]])\n"
        "h = hashlib.sha256()\n"
        "for k in (1.0, 2.0, 3.0):\n"
        "    h.update(WeightSpec('gamma', shape=k, scale=1.0).quantile(u).tobytes())\n"
        "print(h.hexdigest())\n")
    assert len(set(_digests_under_dispatch(script))) == 1


def test_moments_bits_do_not_follow_simd_dispatch():
    # numpy's W ** 3 is a pow whose bits follow the dispatch, and a Gamma_3
    # taken from it differs on some of these seeds; every moment and alpha_n,
    # and a finite law's exact moments, must give the same bits on every path
    script = (
        "import hashlib, numpy as np\n"
        "from sparselocal.weights import WeightSpec, moments, sample_empirical_weights\n"
        "spec = WeightSpec('gamma', shape=2.0, scale=1.0)\n"
        "h = hashlib.sha256()\n"
        "for n in (20, 100, 1000):\n"
        "    for seed in range(300):\n"
        "        m = moments(sample_empirical_weights(spec, n, (seed, n)), spec)\n"
        "        h.update(np.array([*m.gamma.values(), *m.kappa.values(),\n"
        "                           m.alpha_n]).tobytes())\n"
        "rng = np.random.default_rng(7)\n"
        "for size in range(1, 9):\n"
        "    for _ in range(500):\n"
        "        values = rng.uniform(0.05, 20.0, size)\n"
        "        probs = np.full(size, 1.0 / size)\n"
        "        law = WeightSpec('finite', values=tuple(values), probs=tuple(probs))\n"
        "        h.update(np.array([law.moment(p) for p in (1.5, 2, 3, 8)]).tobytes())\n"
        "print(h.hexdigest())\n")
    assert len(set(_digests_under_dispatch(script))) == 1


def test_config_round_trip():
    for spec in (WeightSpec("constant", c=1.2),
                 WeightSpec("finite", values=(1.0, 2.0), probs=(0.4, 0.6)),
                 WeightSpec("gamma", shape=2.0, scale=0.7)):
        assert WeightSpec.from_config(spec.to_config()) == spec
