import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clt_bound
from sparselocal.bounds import (BoundParams, VertexSetSummary, default_k_n,
                                degree_moment_bound, epsilon_rho_sequences,
                                epsilon_v_bound, eta_bound, mean_pweight_bound,
                                mean_size_bound, not_tree_bound, structural_bounds,
                                vertex_in_ball_bound)
from sparselocal.weights import EmpiricalWeights, MomentSummary, WeightSpec, moments


def make_params(n=1000, ell=2, k_n=10.0, gamma=None, kappa=None, alpha=0.0,
                theta=1.0, g2_limit=None, tv_edge=0.0, tv_vertex=0.0, C=1.0, C0=1.0):
    gamma = gamma or {0: 1.0 / theta, 1: 1.0, 2: 2.0, 3: 5.0}
    kappa = kappa or {1: 0.0, 2: 0.0}
    summ = MomentSummary(gamma=gamma, kappa=kappa,
                         lambda_n=n * theta * gamma[1], alpha_n=alpha, theta=theta)
    glim = {1: gamma[1], 2: g2_limit if g2_limit is not None else gamma[2],
            3: gamma[3]}
    return BoundParams(n=n, ell=ell, k_n=k_n, moments=summ, gamma_limit=glim,
                       tv_edge=tv_edge, tv_vertex=tv_vertex, C=C, C0=C0)


def eta_by_terms(p, vs):
    """Independent re-evaluation of the six term groups of the display."""
    t1 = vs.weight_sq * p.G(2) / (p.n * p.theta)
    t2 = vs.weight_excess * p.G(1)
    t3 = vs.weight * (p.G(2) + 1) ** p.ell * (
        p.G(3) / (p.n * p.theta) + p.K(1) + p.K(2)
        + (2 + p.G(1)) / p.k_n + p.k_n / (p.n * p.theta))
    t4 = vs.count / p.k_n
    t5 = p.k_n ** 2 / (p.n * p.theta * p.G(1))
    t6 = vs.weight * p.alpha * (1 / p.theta + (p.gamma_limit[2] + 1) ** (p.ell - 1)
                                * (p.G(2) / (p.theta * p.G(1)) + 1))
    return t1 + t2 + t3 + t4 + t5 + t6


def test_eta_term_by_term():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = make_params(n=int(rng.integers(100, 10_000)), ell=int(rng.integers(0, 5)),
                        k_n=float(rng.uniform(2, 50)),
                        gamma={0: 1.0, 1: float(rng.uniform(0.5, 2)),
                               2: float(rng.uniform(0.5, 4)),
                               3: float(rng.uniform(0.5, 9))},
                        kappa={1: float(rng.uniform(0, 0.1)),
                               2: float(rng.uniform(0, 0.1))},
                        alpha=float(rng.uniform(0, 0.3)),
                        theta=float(rng.uniform(0.5, 3)))
        vs = VertexSetSummary(count=2, weight=float(rng.uniform(0.5, 5)),
                              weight_sq=float(rng.uniform(0.5, 9)),
                              weight_excess=float(rng.uniform(0, 0.5)))
        assert eta_bound(p, vs) == pytest.approx(eta_by_terms(p, vs), rel=1e-12)


def test_eta_er_reduction():
    # constant weights sqrt(lam_n lam): the display reduces to the ER shape
    lam_n, lam, n, ell, kn = 1.3, 1.0, 5000, 2, 17.0
    w = np.sqrt(lam_n * lam)
    gamma = {p: (lam_n * lam) ** (p / 2) / lam for p in (0, 1, 2, 3)}
    p = make_params(n=n, ell=ell, k_n=kn, gamma=gamma, alpha=abs(lam_n - lam),
                    theta=lam, g2_limit=lam)
    vs = VertexSetSummary(count=2, weight=2 * w, weight_sq=2 * w * w, weight_excess=0.0)
    # the k_n^2 repair term enters once for the whole vertex set
    expected = (2 * lam_n ** 2 / n
                + 2 * w * (lam_n + 1) ** ell * (lam_n ** 1.5 / (n * lam ** 0.5)
                                                + (2 + (lam_n / lam) ** 0.5) / kn
                                                + kn / (n * lam))
                + 2 / kn + kn ** 2 / (n * w)
                + 2 * w * abs(lam_n - lam)
                * (1 / lam + (lam + 1) ** (ell - 1) * ((lam_n / lam) ** 0.5 + 1)))
    assert eta_bound(p, vs) == pytest.approx(expected, rel=1e-12)


def test_eta_monotone_in_level():
    p0 = make_params()
    vs = VertexSetSummary(count=2, weight=2.0, weight_sq=2.0, weight_excess=0.0)
    vals = []
    for ell in range(0, 6):
        p = make_params(ell=ell)
        vals.append(eta_bound(p, vs))
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_epsilon_v_reduces_to_eta_without_tv():
    p = make_params()
    vs = VertexSetSummary(count=2, weight=2.0, weight_sq=2.0, weight_excess=0.0)
    assert epsilon_v_bound(p, vs) == eta_bound(p, vs)
    p_tv = make_params(tv_edge=0.05, tv_vertex=0.02)
    extra = (2 + 2.0 * (p_tv.gamma_limit[2] + 1) ** 2) * 0.07
    assert epsilon_v_bound(p_tv, vs) == pytest.approx(eta_bound(p_tv, vs) + extra)


def test_epsilon_v_empty_set():
    p = make_params()
    vs = VertexSetSummary(count=0, weight=0.0, weight_sq=0.0, weight_excess=0.0)
    assert epsilon_v_bound(p, vs) == pytest.approx(
        p.k_n ** 2 / (p.n * p.theta * p.G(1)))


def test_epsilon_v_grid_decreasing_in_n():
    vals = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        p = make_params(n=n, k_n=float(n) ** (1 / 3), alpha=float(n) ** -0.5)
        vs = VertexSetSummary(count=2, weight=2.0, weight_sq=2.0, weight_excess=0.0)
        vals.append(epsilon_v_bound(p, vs))
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_epsilon_sequence_matches_per_vertex_aggregation():
    # (1/n) sum_v epsilon({v}) equals the aggregated sequence (m = 1 case)
    spec = WeightSpec("gamma", shape=2.0, scale=1.0)
    from sparselocal.weights import sample_empirical_weights

    w = sample_empirical_weights(spec, 400, (3, 1))
    summ = moments(w, spec)
    p = BoundParams.from_summary(400, 2, summ, spec, k_n=default_k_n(400), tv_edge=0.01,
                                 tv_vertex=0.03)
    eps, _ = epsilon_rho_sequences(p)
    per_vertex = np.mean([epsilon_v_bound(p, VertexSetSummary.of(w, [v]))
                          for v in range(400)])
    assert eps == pytest.approx(per_vertex, rel=1e-10)


def test_rho_cap_and_range():
    p = make_params(n=10, gamma={0: 1.0, 1: 5.0, 2: 9.0, 3: 9.0})
    _, rho = epsilon_rho_sequences(p)
    assert rho == 1.0
    p2 = make_params(n=10 ** 9)
    _, rho2 = epsilon_rho_sequences(p2)
    assert 0.0 <= rho2 < 1.0


def test_epsilon_level_zero_finite():
    p = make_params(ell=0)
    eps, rho = epsilon_rho_sequences(p)
    assert np.isfinite(eps) and np.isfinite(rho)


def test_clt_bound_linearity_in_c0():
    p1 = make_params(C0=1.0)
    p2 = make_params(C0=2.0)
    b1 = clt_bound(p1, sigma2=500.0, me_delta=0.01, mv_delta=0.02, chi=3.0, J=2.0)
    b2 = clt_bound(p2, sigma2=500.0, me_delta=0.01, mv_delta=0.02, chi=3.0, J=2.0)
    assert b2 == pytest.approx(2 * b1)


def test_clt_bound_decomposition():
    # with vanishing local-approximation gaps the two displayed term groups
    # add up exactly
    p = make_params(n=10 ** 12, k_n=1e4, alpha=0.0)
    sigma2 = p.n / 25.0  # n / sigma^2 = 25 fixed
    full = clt_bound(p, sigma2, 0.0, 0.0, chi=4.0, J=1.0)
    tail = p.C0 * (p.n / sigma2) ** 0.75 * (p.theta * p.G(1) + 2.0) / p.n ** 0.25
    eps, rho = epsilon_rho_sequences(p)
    lead = (p.n / sigma2) ** 0.5 * (p.theta ** 0.5 + p.G(2) + 2.0) ** 2 \
        * (eps ** (1 / 16) + rho ** (1 / 16))
    assert full == pytest.approx(tail + lead, rel=1e-12)
    # the delta terms enter additively through their 1/8-th powers
    with_delta = clt_bound(p, sigma2, 1e-8, 0.0, chi=4.0, J=1.0)
    bump = (p.n / sigma2) ** 0.5 * (p.theta ** 0.5 + p.G(2) + 2.0) ** 2 * 1e-1
    assert with_delta == pytest.approx(full + bump, rel=1e-9)


def test_clt_bound_decreasing_grid():
    vals = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        p = make_params(n=n, k_n=float(n) ** (1 / 3), alpha=float(n) ** -0.5)
        vals.append(clt_bound(p, sigma2=0.04 * n, me_delta=1e-4, mv_delta=1e-4,
                              chi=3.0, J=2.0))
    assert vals[0] > vals[1] > vals[2]


def test_clt_bound_sigma_guard():
    with pytest.raises(ValueError):
        clt_bound(make_params(), sigma2=0.0, me_delta=0, mv_delta=0, chi=1, J=1)


def test_structural_bounds_special_cases():
    p0 = make_params(ell=0)
    assert mean_pweight_bound(p0, 1.7, 1) == pytest.approx(1.7)
    p1 = make_params(ell=1)
    assert vertex_in_ball_bound(p1, 2.0, 3.0) == pytest.approx(6.0 / (p1.n * p1.theta))
    # degree bound at l=1 and the size bound shapes
    assert degree_moment_bound(p1, 1.0, 2) == pytest.approx(4 * (p1.G(1) + 2) ** 2 / 4 * 4)
    assert mean_size_bound(p1, 2.0) == pytest.approx(1 + 2 * p1.G(1))
    table = structural_bounds(p1, 1.5)
    assert set(table) >= {"mean_weight", "mean_size", "not_tree", "degree_moment_4"}


def test_not_tree_bound_formula():
    p = make_params(ell=2, C=1.0)
    expected = (1 + p.G(2)) ** 5 * (p.G(3) + 1) * (1.5 + 1) ** 2 / (p.n * p.theta)
    assert not_tree_bound(p, 1.5) == pytest.approx(expected)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.3, 3.0), st.floats(0.3, 4.0), st.floats(0.3, 9.0),
       st.floats(0.0, 0.2), st.floats(0.0, 0.3), st.floats(0.0, 0.2),
       st.integers(1, 4))
def test_monotone_in_moment_arguments(g1, g2, g3, kap, alpha, tv, ell):
    # nondecreasing in Gamma_2, Gamma_3, kappa, alpha and d_TV for l >= 1;
    # Gamma_1 appears in denominators (k_n^2 repair term) and is exempt
    base = dict(gamma={0: 1.0, 1: g1, 2: g2, 3: g3}, kappa={1: kap, 2: kap},
                alpha=alpha, tv_edge=tv, tv_vertex=0.0, ell=ell)
    vs = VertexSetSummary(count=2, weight=2.5, weight_sq=4.0, weight_excess=0.05)
    p = make_params(**base)
    val = epsilon_v_bound(p, vs)
    bumps = [dict(gamma={0: 1.0, 1: g1, 2: g2 + 0.1, 3: g3}),
             dict(gamma={0: 1.0, 1: g1, 2: g2, 3: g3 + 0.1}),
             dict(kappa={1: kap + 0.05, 2: kap}),
             dict(alpha=alpha + 0.05),
             dict(tv_edge=tv + 0.05)]
    for bump in bumps:
        p_up = make_params(**{**base, **bump})
        assert epsilon_v_bound(p_up, vs) >= val - 1e-12
    _, rho = epsilon_rho_sequences(p)
    assert 0.0 <= rho <= 1.0


def test_params_validation_and_reporting():
    with pytest.raises(ValueError):
        make_params(C=0.0)
    p = make_params()
    assert p.C == 1.0 and p.C0 == 1.0


def test_vertex_set_summary_of():
    w = EmpiricalWeights(n=4, W=np.array([1.0, 2.0, 3.0, 50.0]), theta=1.0)
    vs = VertexSetSummary.of(w, [0, 3])
    assert vs.count == 2
    assert vs.weight == 51.0
    assert vs.weight_sq == 1.0 + 2500.0
    assert vs.weight_excess == 50.0  # 50 > sqrt(4)
