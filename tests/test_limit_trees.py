import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import (INTERMEDIATE_TAG, LIMIT_TAG, RDE_TAG, sample_intermediate_tree,
                      sample_limit_tree)
from sparselocal.limit_trees import (Population, TreeBudgetExceeded, population_w1,
                                     rde_apply, rde_fixed_point)
from sparselocal.rng import stream_rng
from sparselocal.weights import WeightSpec, sample_empirical_weights

SEED = (88, 11)
GAMMA = WeightSpec("gamma", shape=2.0, scale=1.0)


def test_limit_tree_depth_zero():
    t = sample_limit_tree(2.0, GAMMA, None, None, 0, stream_rng(SEED, 0, LIMIT_TAG))
    assert t.node_count == 1


def test_limit_tree_root_degree_mean():
    W, reps = 2.5, 4000
    rng = stream_rng(SEED, 0, 1)
    degs = np.array([len(sample_limit_tree(W, GAMMA, None, None, 1, rng=rng).children[0])
                     for _ in range(reps)])
    assert abs(degs.mean() - W) <= 3 * degs.std(ddof=1) / np.sqrt(reps)


def test_limit_tree_nonroot_offspring_mean():
    # size-biased mixed Poisson: mean E[W^2]/E[W] = 6/2 = 3 for Gamma(2,1)
    rng = stream_rng(SEED, 0, 2)
    counts = []
    for _ in range(2500):
        t = sample_limit_tree(2.0, GAMMA, None, None, 2, rng=rng)
        counts.extend(len(t.children[c]) for c in t.children[0])
    counts = np.asarray(counts, float)
    assert abs(counts.mean() - 3.0) <= 3 * counts.std(ddof=1) / np.sqrt(counts.size)


def test_limit_tree_weights_attached():
    mu = WeightSpec("constant", c=0.25)
    t = sample_limit_tree(3.0, GAMMA, mu, mu, 1, stream_rng(SEED, 0, LIMIT_TAG))
    assert t.vertex_w[0] == 0.25
    for c in t.children[0]:
        assert t.edge_w[c] == 0.25 and t.vertex_w[c] == 0.25


def test_intermediate_tree_depth_zero_and_root_type():
    w = sample_empirical_weights(GAMMA, 200, SEED)
    t = sample_intermediate_tree(w, 7, 0, stream_rng(SEED, 0, INTERMEDIATE_TAG))
    assert t.node_count == 1
    assert t.type_w[0] == w.W[7]
    assert t.labels[0] == 7


def test_intermediate_tree_root_degree_mean():
    w = sample_empirical_weights(GAMMA, 300, SEED)
    v = 3
    target = w.W[v] * w.lambda_n / (300 * w.theta)
    rng = stream_rng(SEED, 0, 3)
    degs = np.array([len(sample_intermediate_tree(w, v, 1, rng=rng).children[0])
                     for _ in range(4000)], float)
    assert abs(degs.mean() - target) <= 3 * degs.std(ddof=1) / np.sqrt(degs.size)


def test_intermediate_tree_nonroot_offspring_mean():
    # sum_i (W_i/Lambda)(Lambda W_i/(n theta)) = Gamma_{2,n}
    w = sample_empirical_weights(GAMMA, 300, SEED)
    from sparselocal.weights import moments

    g2 = moments(w).gamma[2]
    rng = stream_rng(SEED, 0, 4)
    counts = []
    for _ in range(2500):
        t = sample_intermediate_tree(w, 3, 2, rng=rng)
        counts.extend(len(t.children[c]) for c in t.children[0])
    counts = np.asarray(counts, float)
    assert abs(counts.mean() - g2) <= 3 * counts.std(ddof=1) / np.sqrt(counts.size)


def test_node_budget():
    with pytest.raises(TreeBudgetExceeded):
        sample_limit_tree(5.0, WeightSpec("constant", c=5.0), None, None, 10,
                          stream_rng(SEED, 0, LIMIT_TAG), max_nodes=50)


def test_intermediate_node_budget():
    # grow_intermediate is the grower of coupling stage 1: on a supercritical
    # law (Poi(5) children per node) a depth-10 tree passes 50 nodes
    w = sample_empirical_weights(WeightSpec("constant", c=5.0), 200, SEED)
    with pytest.raises(TreeBudgetExceeded, match="intermediate tree exceeded 50 nodes"):
        sample_intermediate_tree(w, 0, 10, stream_rng(SEED, 0, INTERMEDIATE_TAG),
                                 max_nodes=50)


def test_expected_node_count_bound():
    # MC mean node count <= 1 + W (Gamma_2 + 1)^l, one-sided
    W, ell, reps = 2.0, 2, 3000
    g2 = GAMMA.gamma_limit(2)
    rng = stream_rng(SEED, 0, 7)
    sizes = np.array([sample_limit_tree(W, GAMMA, None, None, ell, rng=rng).node_count
                      for _ in range(reps)], float)
    bound = 1 + W * (g2 + 1) ** ell
    assert sizes.mean() <= bound + 3 * sizes.std(ddof=1) / np.sqrt(reps)


def test_intermediate_vs_limit_root_degree_tv_trend():
    # exact Poisson TV between root-degree laws shrinks as n grows
    tvs = []
    for n in (100, 1000, 10_000):
        w = sample_empirical_weights(GAMMA, n, SEED)
        lam_emp = w.W[0] * w.lambda_n / (n * w.theta)
        lam_lim = w.W[0]
        ks = np.arange(0, 200)
        tvs.append(0.5 * np.abs(stats.poisson.pmf(ks, lam_emp)
                                - stats.poisson.pmf(ks, lam_lim)).sum())
    assert tvs[2] < tvs[0]


# ---- recursive distributional operator ---------------------------------------------


def test_rde_zero_population_void_probability():
    # starting from zeros the output is 0 exactly when N = 0
    spec = WeightSpec("constant", c=0.5)
    pop = Population(np.zeros(50_000))
    out = rde_apply(pop, spec, stream_rng(SEED, 0, RDE_TAG))
    p0 = np.mean(out.particles == 0.0)
    target = np.exp(-0.5)  # P(Poi(0.5) = 0); size-biasing fixes the point mass
    se = np.sqrt(target * (1 - target) / out.size)
    assert abs(p0 - target) <= 4 * se


def test_rde_zero_population_void_probability_general():
    # P(N=0) = E[exp(-What)] for the size-biased mixing law
    pop = Population(np.zeros(50_000))
    out = rde_apply(pop, GAMMA, stream_rng(SEED, 0, RDE_TAG))
    biased = GAMMA.size_biased()
    target = (1.0 + biased.scale) ** -biased.shape  # E[exp(-What)], What gamma
    p0 = np.mean(out.particles == 0.0)
    se = np.sqrt(target * (1 - target) / out.size)
    assert abs(p0 - target) <= 4 * se


def test_rde_first_iterate_law_gamma():
    # from delta_0 a particle is the max of N Exp(1) terms, N mixed Poisson over
    # What ~ gamma(a + 1, s): P(X <= t) = E[exp(-What e^-t)] = (1 + s e^-t)^-(a + 1),
    # the negative binomial NB(a + 1, 1 / (1 + s)) thinned to the terms above t
    out = rde_apply(Population(np.zeros(50_000)), GAMMA,
                    stream_rng(SEED, 0, RDE_TAG)).particles
    for t in (0.0, 0.5, 1.0, 2.0, 4.0):
        target = (1.0 + GAMMA.scale * np.exp(-t)) ** -(GAMMA.shape + 1.0)
        se = np.sqrt(target * (1 - target) / out.size)
        assert abs(np.mean(out <= t) - target) <= 4 * se


def rde_all_iterates(spec, pop_size, iterations, seed):
    """Population dynamics keeping every iterate, each type a quantile of a
    uniform: the reference the streaming rde_fixed_point must match bit for
    bit on constant and finite laws.  Returns (gaps, final even, final odd)."""
    pops = [np.zeros(pop_size)]
    for it in range(iterations):
        rng = stream_rng(seed, it, RDE_TAG)
        prev = np.sort(pops[-1])
        counts = rng.poisson(spec.size_biased().quantile(rng.random(pop_size)))
        out = np.zeros(pop_size)
        xi = rng.exponential(1.0, int(counts.sum()))
        xs = prev[rng.integers(0, pop_size, xi.size)]
        np.maximum.at(out, np.repeat(np.arange(pop_size), counts), xi - xs)
        pops.append(out)
    gaps = [float(np.mean(np.abs(np.sort(pops[2 * k]) - np.sort(pops[2 * k + 1]))))
            for k in range(len(pops) // 2)]
    last, before = pops[-1], pops[-2]
    return (gaps, last, before) if iterations % 2 == 0 else (gaps, before, last)


@pytest.mark.parametrize("spec", [WeightSpec("constant", c=0.5),
                                  WeightSpec("finite", values=(0.5, 2.0), probs=(0.7, 0.3))],
                         ids=["constant", "finite"])
@pytest.mark.parametrize("iterations", [1, 7, 8])
def test_rde_fixed_point_matches_all_iterates(spec, iterations):
    diag = rde_fixed_point(spec, 1500, iterations, SEED)
    gaps, even, odd = rde_all_iterates(spec, 1500, iterations, SEED)
    assert diag.gaps == gaps
    assert np.array_equal(diag.final_even.particles, even)
    assert np.array_equal(diag.final_odd.particles, odd)


@pytest.mark.parametrize("pop_size", [2000, 8000, 32000])
def test_rde_fixed_point_memory_is_two_iterates(pop_size):
    # two live iterates with their sorted copies hold 4 pop_size floats and one
    # step's per-term arrays a few E[N] pop_size more (E[N] = 3 for gamma(2, 1));
    # keeping all 41 iterates would hold at least 41 pop_size floats
    tracemalloc.start()
    try:
        rde_fixed_point(GAMMA, pop_size, 40, SEED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 8 * pop_size


def test_rde_antitone_in_input():
    spec = WeightSpec("constant", c=1.0)
    lo = Population(np.zeros(20_000))
    hi = Population(np.full(20_000, 2.0))
    out_lo = np.sort(rde_apply(lo, spec, stream_rng(SEED, 0, RDE_TAG)).particles)
    out_hi = np.sort(rde_apply(hi, spec, stream_rng(SEED, 0, RDE_TAG)).particles)
    assert np.all(out_lo >= out_hi)  # antitone under the shared-seed coupling


def test_rde_first_iterate_matches_apply():
    spec = WeightSpec("constant", c=0.5)
    diag = rde_fixed_point(spec, 2000, 2, SEED)
    direct = rde_apply(Population(np.zeros(2000)), spec, stream_rng(SEED, 0, RDE_TAG))
    assert np.array_equal(np.sort(diag.final_odd.particles),
                          np.sort(direct.particles))


def test_rde_gap_sequence():
    spec = WeightSpec("constant", c=0.5)
    diag = rde_fixed_point(spec, 10_000, 14, SEED)
    band = 2 * 2.0 / np.sqrt(10_000)
    running_min = diag.gaps[0]
    for g in diag.gaps[1:]:
        assert g <= running_min + band
        running_min = min(running_min, g)
    assert diag.gaps[-1] < 0.05
    assert diag.converged


def test_rde_population_validation():
    with pytest.raises(ValueError):
        Population(np.array([]))
    with pytest.raises(ValueError):
        Population(np.array([np.inf]))
    with pytest.raises(ValueError):
        rde_fixed_point(GAMMA, 10, 5, SEED)


def test_population_w1_and_csv(tmp_path):
    a = Population(np.array([0.0, 1.0]))
    b = Population(np.array([1.0, 2.0]))
    assert population_w1(a, b) == pytest.approx(1.0)
    path = tmp_path / "pop.csv"
    a.to_csv(path)
    assert np.array_equal(np.loadtxt(path), a.particles)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                max_size=50))
@example([0.0])
@example([5e-324, 2.2250738585072009e-308, 1e-310])  # subnormals
@example([1.0, 2.0, 3.0, 1e15, 2.0 ** 53])  # integers
@example([1e308, 1.7976931348623157e308])
@example(np.linspace(0.0, 7.0, (1 << 14) + 3).tolist())  # more than one write block
def test_population_csv_bytes_equal_savetxt(tmp_path, particles):
    pop = Population(np.array(particles))
    ours, theirs = tmp_path / "ours.csv", tmp_path / "savetxt.csv"
    pop.to_csv(ours)
    np.savetxt(theirs, pop.particles, fmt="%.17g")
    assert ours.read_bytes() == theirs.read_bytes()
