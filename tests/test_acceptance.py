"""Acceptance battery.

Each test implements one acceptance criterion at its stated scale and
tolerance and prints a single PASS/FAIL line (run with -s to see them all).
Universal constants are C = C0 = 1 throughout; every statistical check is
deterministic under the frozen seeds below.
"""

import json
import os
import time

import numpy as np
import pytest
from scipy import stats

from sparselocal.bounds import BoundParams, VertexSetSummary, epsilon_v_bound, \
    default_k_n, degree_moment_bound, mean_pweight_bound, not_tree_bound, vertex_in_ball_bound
from sparselocal.coupling import (CouplingConfig, couple_full,
                                  couple_neighbourhood_to_intermediate)
from sparselocal.explore import explore
from sparselocal.graph import PerturbationSet, perturb, sample_graph
from sparselocal.harness import ExperimentConfig, clt_experiment
from sparselocal.limit_trees import rde_fixed_point, sample_intermediate_tree
from sparselocal.matching import (delta_N, dependent_edge_sum, h_k, matching_value,
                                  max_weight_matching)
from sparselocal.rng import parse_seed
from sparselocal.trees import RootedWeightedTree
from sparselocal.weights import WeightSpec, moments, sample_empirical_weights

SEED = parse_seed("5ca1ab1e")
ER1 = WeightSpec("constant", c=1.0)
GAMMA21 = WeightSpec("gamma", shape=2.0, scale=1.0)


def report(num, name, ok, detail, elapsed, limit):
    line = (f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok and elapsed < limit else 'FAIL'}"
            f" ({detail}; {elapsed:.1f}s of {limit:.0f}s budget)")
    print(line)
    assert ok, line
    assert elapsed < limit, line


def random_edges(rng, n, p=0.5):
    return [(u, v, float(rng.exponential())) for u in range(n)
            for v in range(u + 1, n) if rng.random() < p]


def test_criterion_01_exact_matching_oracle(brute_force_matching):
    t0 = time.time()
    rng = np.random.default_rng(101)
    bad = 0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        edges = random_edges(rng, n)
        if max_weight_matching(n, edges).value != pytest.approx(
                brute_force_matching(n, edges), abs=1e-12):
            bad += 1
    report(1, "exact matching equals brute force", bad == 0,
           f"500 instances, {bad} disagreements", time.time() - t0, 60)


def test_criterion_02_recursion_identities():
    t0 = time.time()
    rng = np.random.default_rng(102)
    bad = 0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        edges = random_edges(rng, n, p=0.45)
        v = int(rng.integers(0, n))
        m_g = matching_value(n, edges)
        m_without = matching_value(n, edges, frozenset({v}))
        incident = [(u2 if u1 == v else u1, w) for u1, u2, w in edges if v in (u1, u2)]
        best = max((w + matching_value(n, edges, frozenset({v, u}))
                    for u, w in incident), default=None)
        target = m_without if best is None else max(m_without, best)
        if abs(m_g - target) > 1e-9:
            bad += 1
        # h identity: h(G, v) = max{0, max_u w_vu - h(G - v, u)}
        h_gv = m_g - m_without
        no_v = [e for e in edges if v not in e[:2]]
        rhs = max([0.0] + [w - (matching_value(n, no_v, frozenset({v}))
                               - matching_value(n, no_v, frozenset({v, u})))
                           for u, w in incident])
        if abs(h_gv - rhs) > 1e-9:
            bad += 1
    report(2, "remove-or-match and h recursions", bad == 0,
           f"1000 instances, {bad} defects", time.time() - t0, 60)


def test_criterion_03_sandwich():
    t0 = time.time()
    rng = np.random.default_rng(103)
    bad = 0
    for _ in range(500):
        n = int(rng.integers(2, 21))
        # random tree instance with Exp(1) edge weights
        parents = [int(rng.integers(0, v)) for v in range(1, n)]
        edges = [(p, v, float(rng.exponential())) for v, p in enumerate(parents, 1)]
        v = int(rng.integers(0, n))
        h_exact = (matching_value(n, edges) - matching_value(n, edges, frozenset({v})))
        tree = _rooted_at(n, edges, v)
        for k in (1, 2, 3):
            lo, hi = h_k(tree, 2 * k), h_k(tree, 2 * k + 1)
            if not (lo - 1e-9 <= h_exact <= hi + 1e-9):
                bad += 1
    report(3, "even/odd depth sandwich", bad == 0,
           f"500 tree instances x k in {{1,2,3}}, {bad} violations",
           time.time() - t0, 60)


def _rooted_at(n, edges, root):
    adj = {v: [] for v in range(n)}
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    tree = RootedWeightedTree(1.0, n, root_label=root)
    ids = {root: 0}
    queue = [root]
    while queue:
        x = queue.pop(0)
        for y, w in sorted(adj[x]):
            if y not in ids:
                ids[y] = tree.add_child(ids[x], 1.0, w, label=y)
                queue.append(y)
    return tree


def test_criterion_04_perturbation_closed_forms():
    t0 = time.time()
    rng = np.random.default_rng(104)
    bad = 0
    for trial in range(1000):
        n = int(rng.integers(2, 41))
        w = sample_empirical_weights(GAMMA21, n, (int(rng.integers(1 << 31)), 1))
        g = sample_graph(w, (int(rng.integers(1 << 31)), 2), 0,
                         mu_v=WeightSpec("gamma", shape=2.0, scale=1.0))
        if rng.random() < 0.5:
            u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
            site = ("edge", (int(u), int(v)))
            pset = PerturbationSet(edges=frozenset({(int(u), int(v))}))
        else:
            v = int(rng.integers(0, n))
            site = ("vertex", v)
            pset = PerturbationSet(vertices=frozenset({v}))
        direct = delta_N(g, site)
        recomputed = dependent_edge_sum(g) - dependent_edge_sum(perturb(g, pset))
        if abs(direct - recomputed) > 1e-9:
            bad += 1
    report(4, "delta-N closed forms match recomputation", bad == 0,
           f"1000 (graph, site) pairs, {bad} mismatches", time.time() - t0, 30)


def test_criterion_05_coupling_marginals():
    t0 = time.time()
    n, reps, ell = 10_000, 10_000, 2
    w = sample_empirical_weights(ER1, n, SEED)
    cfg = CouplingConfig(k_n=default_k_n(n), depth=ell)
    cdeg = np.empty(reps, dtype=int)
    ccnt = np.empty(reps, dtype=int)
    ddeg = np.empty(reps, dtype=int)
    dcnt = np.empty(reps, dtype=int)
    for t in range(reps):
        g = sample_graph(w, SEED, t)
        out = couple_neighbourhood_to_intermediate(g, 0, cfg)
        cdeg[t], ccnt[t] = out.tree.root_degree, out.tree.node_count
        dt = sample_intermediate_tree(w, 0, ell, SEED, stream=t)
        ddeg[t], dcnt[t] = dt.root_degree, dt.node_count
    p_deg = stats.ks_2samp(cdeg, ddeg).pvalue
    p_cnt = stats.ks_2samp(ccnt, dcnt).pvalue
    ok = p_deg > 0.01 and p_cnt > 0.01
    report(5, "coupled tree marginals match direct sampling", ok,
           f"n={n}, {reps} replicas: KS p-values degree {p_deg:.3f}, count {p_cnt:.3f}",
           time.time() - t0, 600)


def test_criterion_06_break_rate_dominated_by_epsilon():
    t0 = time.time()
    results = []
    for spec, label in ((ER1, "er"), (GAMMA21, "gamma")):
        for n in (1000, 10_000):
            w = sample_empirical_weights(spec, n, SEED)
            summ = moments(w, spec)
            reps = 2000 if n == 1000 else 1000
            for ell in (1, 2):
                cfg = CouplingConfig(k_n=default_k_n(n), depth=ell)
                bad = 0
                for t in range(reps):
                    g = sample_graph(w, SEED, t)
                    outs = couple_full(g, [0, 1], cfg, spec, None, None)
                    bad += 0 if all(o.ok for o in outs) else 1
                rate = bad / reps
                params = BoundParams.from_summary(n, ell, summ, spec, k_n=cfg.k_n)
                bound = epsilon_v_bound(params, VertexSetSummary.of(w, [0, 1]))
                sig = np.sqrt(max(rate * (1 - rate), 1e-9) / reps)
                results.append((label, n, ell, rate, bound, rate <= bound + 3 * sig))
    ok = all(r[-1] for r in results)
    worst = max(results, key=lambda r: r[3] - r[4])
    report(6, "total break rate below epsilon bound", ok,
           f"8 cells, worst {worst[0]} n={worst[1]} l={worst[2]}: "
           f"rate {worst[3]:.4f} vs bound {worst[4]:.3f}", time.time() - t0, 900)


def test_criterion_07_bernoulli_poisson_coupling(couple_bernoulli_poisson):
    t0 = time.time()
    rng = np.random.default_rng(107)
    draws = 1_000_000
    all_ok = True
    details = []
    for p in (0.01, 0.1, 0.5, 1.0, 1.5):
        u = rng.random(draws)
        x, z = couple_bernoulli_poisson(p, u)
        mism = float(np.mean(x != z))
        sig = np.sqrt(max(mism * (1 - mism), 1e-12) / draws)
        bound = p ** 2 + p * (p >= 1)
        ok_rate = mism <= bound + 3 * sig
        # marginals by chi-square GOF at 1%
        pe = min(p, 1.0)
        exp_x = np.array([(1 - pe) * draws, pe * draws])
        obs_x = np.array([draws - x.sum(), x.sum()], dtype=float)
        ok_x = pe in (0.0, 1.0) or stats.chisquare(obs_x, exp_x).pvalue > 0.01
        kmax = int(z.max())
        obs_z = np.bincount(z, minlength=kmax + 1).astype(float)
        exp_z = stats.poisson.pmf(np.arange(kmax + 1), p) * draws
        while exp_z[-1] < 5 and exp_z.size > 2:
            exp_z[-2] += exp_z[-1]
            obs_z[-2] += obs_z[-1]
            exp_z, obs_z = exp_z[:-1], obs_z[:-1]
        exp_z *= obs_z.sum() / exp_z.sum()
        ok_z = stats.chisquare(obs_z, exp_z).pvalue > 0.01
        all_ok &= ok_rate and ok_x and ok_z
        details.append(f"p'={p}: {mism:.4f}<={bound:.4f}")
    report(7, "Bernoulli-Poisson site coupling", all_ok,
           "; ".join(details), time.time() - t0, 120)


def test_criterion_08_structural_bound_battery():
    t0 = time.time()
    failures = []
    for spec, label in ((WeightSpec("constant", c=1.5), "er1.5"), (GAMMA21, "gamma")):
        for n in (1000, 10_000):
            reps = 3000 if n == 1000 else 1200
            w = sample_empirical_weights(spec, n, SEED)
            summ = moments(w, spec)
            u_big = int(np.argmax(w.W[1:]) + 1)  # high-weight target vertex
            Wv, Wu = float(w.W[0]), float(w.W[u_big])
            norm1 = {l: np.empty(reps) for l in (1, 2, 3)}
            norm2 = {l: np.empty(reps) for l in (1, 2, 3)}
            hit_u = {l: 0 for l in (1, 2, 3)}
            nontree = {l: 0 for l in (1, 2, 3)}
            deg = np.empty(reps)
            for t in range(reps):
                g = sample_graph(w, SEED, t)
                nb = explore(g, 0, 3)
                deg[t] = len(nb.levels[1])
                lv = nb.level_of()
                for l in (1, 2, 3):
                    verts = np.array([v for v, r in lv.items() if r <= l], dtype=int)
                    norm1[l][t] = w.W[verts].sum()
                    norm2[l][t] = (w.W[verts] ** 2).sum()
                    hit_u[l] += int(u_big in lv and lv[u_big] <= l)
                    nontree[l] += int(any(r <= l - 1 for _, _, r in nb.extra_edges))
            checks = []
            for l in (1, 2, 3):
                pr = BoundParams.from_summary(n, l, summ, spec)
                checks.append(("S_l weight", l, norm1[l].mean(),
                               mean_pweight_bound(pr, Wv, 1),
                               3 * norm1[l].std(ddof=1) / np.sqrt(reps)))
                checks.append(("S_l sq-weight", l, norm2[l].mean(),
                               mean_pweight_bound(pr, Wv, 2),
                               3 * norm2[l].std(ddof=1) / np.sqrt(reps)))
                rate_u = hit_u[l] / reps
                checks.append(("u in ball", l, rate_u,
                               vertex_in_ball_bound(pr, Wu, Wv),
                               3 * np.sqrt(max(rate_u * (1 - rate_u), 1e-9) / reps)))
                rate_nt = nontree[l] / reps
                checks.append(("not a tree", l, rate_nt, not_tree_bound(pr, Wv),
                               3 * np.sqrt(max(rate_nt * (1 - rate_nt), 1e-9) / reps)))
            pr1 = BoundParams.from_summary(n, 1, summ, spec)
            for k in (1, 2, 3, 4):
                mk = (deg ** k).mean()
                checks.append((f"degree^{k}", 1, mk, degree_moment_bound(pr1, Wv, k),
                               3 * (deg ** k).std(ddof=1) / np.sqrt(reps)))
            for name, l, est, bound, slack in checks:
                if est > bound + slack:
                    failures.append(f"{label} n={n} l={l} {name}: {est:.4g} > {bound:.4g}")
    report(8, "structural bound battery (C=1)", not failures,
           f"{'; '.join(failures) if failures else '2 specs x 2 n x 3 levels dominated'}",
           time.time() - t0, 600)


def test_criterion_09_clt_trend_edge_sum():
    t0 = time.time()
    cfg = ExperimentConfig(weights=WeightSpec("constant", c=2.0),
                           n_grid=[500, 2000, 8000], replicas=2000, seed=SEED,
                           vertex_weights=WeightSpec("gamma", shape=2.0, scale=1.0))
    rows = clt_experiment(cfg)
    ks = [r["ks"] for r in rows]
    band = 2 * 0.26 / np.sqrt(cfg.replicas)
    strictly_down = all(b < a + band for a, b in zip(ks, ks[1:]))
    small_final = ks[-1] < 0.05
    ratios = [r["n_over_sigma2"] for r in rows]
    stable = max(ratios) / min(ratios) - 1 < 0.25
    ok = strictly_down and small_final and stable
    report(9, "edge-sum CLT trend", ok,
           f"KS {['%.4f' % k for k in ks]}, n/sigma2 spread "
           f"{max(ratios) / min(ratios) - 1:.2%}", time.time() - t0, 1200)


def test_criterion_10_rde_gap_collapse():
    t0 = time.time()
    pop_size, iters = 100_000, 30
    _, diag = rde_fixed_point(WeightSpec("constant", c=0.5), pop_size, iters, SEED)
    band = 2 * 2.0 / np.sqrt(pop_size)
    running_min = diag.gaps[0]
    monotone = True
    for g in diag.gaps[1:]:
        if g > running_min + band:
            monotone = False
        running_min = min(running_min, g)
    final_small = diag.gaps[-1] < 0.02
    ok = monotone and final_small and diag.converged
    report(10, "even/odd population-dynamics gap", ok,
           f"final gap {diag.gaps[-1]:.4f} after {iters} iterations, "
           f"monotone within band {band:.4f}", time.time() - t0, 300)


def test_criterion_11_worker_determinism(tmp_path):
    t0 = time.time()
    from sparselocal.cli import main

    cfg = {
        "weights": {"family": "constant", "c": 1.5},
        "n_grid": [300, 600],
        "replicas": 300,
        "depth": 2,
        "seed": "5ca1ab1e",
        "vertex_weights": {"family": "gamma", "shape": 2.0, "scale": 1.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outputs = {}
    for workers in (1, 3):
        out = str(tmp_path / f"w{workers}")
        assert main(["clt", "--config", str(path), "--out-dir", out,
                     "--workers", str(workers)]) == 0
        assert main(["couple", "--config", str(path), "--out-dir", out,
                     "--workers", str(workers), "--replicas", "150"]) == 0
        outputs[workers] = (
            open(os.path.join(out, "clt_edge-sum.csv"), "rb").read(),
            open(os.path.join(out, "coupling.csv"), "rb").read(),
            open(os.path.join(out, "coupling_outcomes.csv"), "rb").read(),
        )
    ok = outputs[1] == outputs[3]
    report(11, "byte-identical CSVs across worker counts", ok,
           "clt + coupling CSVs compared", time.time() - t0, 300)
