import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselocal.graph import edge_probability
from sparselocal.weights import (EmpiricalWeights, WeightSpec,
                                 _wasserstein_weighted_sample, moments,
                                 sample_empirical_weights, wasserstein_1d)

SEED = (2024, 7)


def test_edge_probability_er_embedding():
    # constant weights sqrt(lam_n * lam) give exactly lam_n / n
    lam_n, lam, n = 2.5, 2.0, 100
    w = np.sqrt(lam_n * lam)
    assert edge_probability(w, w, n, lam) == pytest.approx(lam_n / n, abs=0, rel=1e-15)


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
    return _wasserstein_weighted_sample(np.asarray(values, dtype=float)[order],
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
def test_quantile_monotone_and_cdf_consistent(shape, scale, us):
    spec = WeightSpec("gamma", shape=shape, scale=scale)
    q = spec.quantile(np.sort(np.asarray(us)))
    assert np.all(np.diff(q) >= 0)
    assert np.allclose(spec.cdf(q), np.sort(us), atol=1e-9)


def test_config_round_trip():
    for spec in (WeightSpec("constant", c=1.2),
                 WeightSpec("finite", values=(1.0, 2.0), probs=(0.4, 0.6)),
                 WeightSpec("gamma", shape=2.0, scale=0.7)):
        assert WeightSpec.from_config(spec.to_config()) == spec
