import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from sparselocal.harness import (ExperimentConfig, bounds_grid,
                                 clt_experiment, coupling_experiment,
                                 estimate_variance, ks_to_normal)
from sparselocal.graph import LazyGraph
from sparselocal.rng import parse_seed
from sparselocal.weights import WeightSpec, sample_empirical_weights

SEED = parse_seed("feedface")


def small_config(**kw):
    base = dict(weights=WeightSpec("constant", c=2.0), n_grid=[120], replicas=80,
                seed=SEED, depth=2,
                vertex_weights=WeightSpec("gamma", shape=2.0, scale=1.0))
    base.update(kw)
    return ExperimentConfig(**base)


def test_ks_all_zeros():
    assert ks_to_normal(np.zeros(100)) == pytest.approx(0.5)


def test_ks_standard_normal_draws():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(100_000)
    # 99.9% null quantile of sqrt(n) D_n is about 1.95
    assert ks_to_normal(x) < 1.95 / np.sqrt(x.size)


def test_ks_location_shift():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(200_000) + 1.0
    # sup gap between N(1,1) and N(0,1) is 2 Phi(1/2) - 1
    target = 2 * ndtr(0.5) - 1
    assert ks_to_normal(x) == pytest.approx(target, abs=0.01)


def test_ks_affine_invariance():
    # standardizing and comparing to Phi equals comparing raw to N(m, s)
    rng = np.random.default_rng(5)
    x = rng.gamma(3.0, 2.0, 5000)
    m, s = x.mean(), x.std()
    d1 = ks_to_normal((x - m) / s)
    xs = np.sort(x)
    grid = np.arange(1, x.size + 1) / x.size
    phi = ndtr((xs - m) / s)
    d2 = max(np.max(grid - phi), np.max(phi - (grid - 1 / x.size)))
    assert d1 == pytest.approx(d2, abs=1e-15)


def test_ks_needs_samples():
    with pytest.raises(ValueError):
        ks_to_normal([1.0])


def test_variance_constant_and_pair():
    assert estimate_variance(np.full(10, 3.3)).value == pytest.approx(0.0)
    assert estimate_variance([0.0, 2.0]).value == pytest.approx(2.0)


def test_variance_normal_draws():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(100_000)
    est = estimate_variance(x)
    assert abs(est.value - 1.0) <= 3 * np.sqrt(2.0 / x.size)
    # jackknife SE close to the theoretical sd of the sample variance
    assert est.jackknife_se == pytest.approx(np.sqrt(2.0 / x.size), rel=0.1)


def test_variance_guard():
    with pytest.raises(ValueError):
        estimate_variance([1.0])


def test_clt_rows_and_determinism_across_workers():
    cfg = small_config()
    rows1 = clt_experiment(cfg)
    rows2 = clt_experiment(dataclasses.replace(cfg, workers=2))
    assert rows1 == rows2
    row = rows1[0]
    assert row["degenerate"] == 0
    assert 0 < row["ks"] < 1
    assert row["seed"] == "feedface".rjust(32, "0")


def test_clt_degenerate_flagged():
    # essentially edgeless graphs: N(G) is constant zero
    cfg = small_config(weights=WeightSpec("constant", c=1e-7), replicas=40)
    row = clt_experiment(cfg)[0]
    assert row["degenerate"] == 1
    assert np.isnan(row["ks"])


def test_coupling_rows():
    cfg = ExperimentConfig(weights=WeightSpec("constant", c=1.0), n_grid=[300],
                           replicas=120, seed=SEED, depth=2)
    rows, outcomes = coupling_experiment(cfg)
    assert [r["ell"] for r in rows] == [1, 2]
    for r in rows:
        assert 0 <= r["rate"] <= 1
        assert r["breaks"] == sum(v for k, v in r.items() if k.startswith("reason_"))
        assert r["violation"] == 0
        assert r["ci_low"] <= r["rate"] <= r["ci_high"]
    # per-replica outcome rows: one per (cell, replica, root)
    assert len(outcomes) == 2 * 120 * cfg.roots
    per_cell = [o for o in outcomes if o["ell"] == 2]
    assert sum(1 - o["ok"] for o in per_cell) >= rows[1]["breaks"]
    for o in outcomes:
        if o["ok"]:
            assert o["break_reason"] == "" and o["break_level"] == ""


def test_coupling_determinism_across_workers():
    cfg = ExperimentConfig(weights=WeightSpec("constant", c=1.0), n_grid=[200],
                           replicas=60, seed=SEED, depth=1)
    rows1 = coupling_experiment(cfg)
    rows2 = coupling_experiment(dataclasses.replace(cfg, workers=3))
    assert rows1 == rows2


def test_bounds_grid_rows():
    cfg = ExperimentConfig(weights=WeightSpec("gamma", shape=2.0, scale=1.0),
                           n_grid=[200, 400], replicas=10, seed=SEED, depth=2)
    rows = bounds_grid(cfg)
    assert len(rows) == 4  # two n, two levels
    for r in rows:
        assert 0.0 <= r["rho"] <= 1.0
        assert r["C"] == 1.0 and r["C0"] == 1.0
        assert r["epsilon"] > 0 and r["eta"] > 0


def test_config_hash_stable_and_seed_independent():
    a = small_config()
    b = small_config()
    assert a.config_hash() == b.config_hash()
    c = small_config(replicas=81)
    assert a.config_hash() != c.config_hash()
    # the hash covers the experiment definition, not the seed
    d = dataclasses.replace(a, seed=parse_seed("1"))
    assert a.config_hash() == d.config_hash()


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(replicas=0)
    with pytest.raises(ValueError):
        small_config(n_grid=[])
    with pytest.raises(ValueError):
        small_config(application="clique")
    for n_grid in ([0], [120, -1]):
        with pytest.raises(ValueError, match="at least 1"):
            small_config(n_grid=n_grid)
    for rule in ("sqrt", "7", -3, 0, float("nan"), float("inf"), True):
        with pytest.raises(ValueError, match="k_n_rule"):
            small_config(k_n_rule=rule)
    for kw in (dict(depth=0), dict(roots=121)):
        with pytest.raises(ValueError):
            small_config(**kw).check_coupling()
    small_config(depth=1, roots=120, k_n_rule=3).check_coupling()


def test_config_from_dict_round_trip():
    cfg = ExperimentConfig.from_dict({
        "weights": {"family": "constant", "c": 1.5},
        "n_grid": [16, 20],
        "replicas": 12,
        "seed": "ff",
        "k_n_rule": 7.0,
        "application": "matching",
        "edge_weights": {"family": "gamma", "shape": 1.0, "scale": 1.0},
    })
    assert cfg.k_n(1000) == 7.0
    assert cfg.application == "matching"
    assert cfg.edge_weights.shape == 1.0
    default = ExperimentConfig.from_dict({
        "weights": {"family": "constant", "c": 1.5}, "n_grid": [100], "seed": "0"})
    # an absent key takes the dataclass default
    assert default == ExperimentConfig(weights=WeightSpec("constant", c=1.5), n_grid=[100])
    assert default.k_n(1000) == pytest.approx(10.0)


def test_matching_mode_small_n_exact():
    cfg = ExperimentConfig(weights=WeightSpec("constant", c=1.5), n_grid=[16],
                           replicas=60, seed=SEED, depth=3, application="matching",
                           edge_weights=WeightSpec("gamma", shape=1.0, scale=1.0))
    row = clt_experiment(cfg)[0]
    assert row["mode"] == "exact"
    assert row["sigma2"] > 0


def test_matching_mode_large_n_diagnostic():
    # beyond the exact solver there is no matching value to report
    with pytest.raises(ValueError, match="n <= 24"):
        ExperimentConfig(weights=WeightSpec("constant", c=1.5), n_grid=[16, 60],
                         replicas=40, seed=SEED, depth=3, application="matching",
                         edge_weights=WeightSpec("gamma", shape=1.0, scale=1.0))


def test_replica_failure_carries_id():
    from sparselocal.harness import ReplicaFailure

    # matching without an edge-weight law fails inside the replica worker
    cfg = ExperimentConfig(weights=WeightSpec("constant", c=1.5), n_grid=[10],
                           replicas=3, seed=SEED, application="matching")
    with pytest.raises(ReplicaFailure, match=r"replica \d+:"):
        clt_experiment(cfg)


# ---- work counts --------------------------------------------------------------------


def test_one_process_pool_per_command(monkeypatch):
    from sparselocal import harness

    built = []

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    clt = small_config(n_grid=[60, 90], replicas=8, workers=2)
    assert clt_experiment(clt) == clt_experiment(dataclasses.replace(clt, workers=1))
    assert built == [2]
    couple = ExperimentConfig(weights=WeightSpec("constant", c=1.0), n_grid=[60, 90],
                              replicas=6, seed=SEED, depth=2, workers=2)
    assert (coupling_experiment(couple)
            == coupling_experiment(dataclasses.replace(couple, workers=1)))
    assert built == [2, 2]


def test_coupling_samples_each_replica_graph_once(monkeypatch):
    # one lazy graph per (n, replica), shared by every depth and root; no
    # whole graph is sampled
    from sparselocal import harness

    streams = []

    def counted(weights, seed, stream, **kw):
        streams.append((weights.n, stream))
        return LazyGraph(weights, seed, stream, **kw)

    def whole(*args, **kw):
        raise AssertionError("couple sampled a whole graph")

    monkeypatch.setattr(harness, "LazyGraph", counted)
    monkeypatch.setattr(harness, "sample_graph", whole)
    cfg = ExperimentConfig(weights=WeightSpec("gamma", shape=2.0, scale=1.0),
                           n_grid=[80, 120], replicas=5, seed=SEED, depth=3)
    rows, outcomes = coupling_experiment(cfg)
    assert streams == [(n, t) for n in (80, 120) for t in range(5)]
    assert [(r["n"], r["ell"]) for r in rows] == [(n, ell) for n in (80, 120)
                                                  for ell in (1, 2, 3)]
    assert [(o["n"], o["ell"], o["replica"], o["root"]) for o in outcomes] == [
        (n, ell, t, root) for n in (80, 120) for ell in (1, 2, 3) for t in range(5)
        for root in range(cfg.roots)]


def test_clt_draws_each_replica_vertex_weights_once(monkeypatch):
    # one task per replica stream across the grid: its edge sums take the
    # vertex weights from one call, and a replica with no edge at any n from none
    from sparselocal import harness
    from sparselocal.graph import WeightedGraph

    edges = {}
    sample = harness.sample_graph

    def counted_sample(weights, seed, stream, **kw):
        graph = sample(weights, seed, stream, **kw)
        edges[stream] = edges.get(stream, 0) + graph.num_edges
        return graph

    entered = []
    vertex_weight = WeightedGraph.vertex_weight

    def counted_weight(self, v):
        entered.append(self.stream)
        return vertex_weight(self, v)

    monkeypatch.setattr(harness, "sample_graph", counted_sample)
    monkeypatch.setattr(WeightedGraph, "vertex_weight", counted_weight)
    cfg = small_config(weights=WeightSpec("constant", c=0.01), n_grid=[60, 90, 120])
    clt_experiment(cfg)
    assert sorted(edges) == list(range(cfg.replicas))
    assert 0 in edges.values() and max(edges.values()) > 0
    assert entered == [t for t in range(cfg.replicas) if edges[t]]


def test_clt_draws_each_replica_edge_weights_and_generator_once(monkeypatch):
    # a matching stream's edge weights come from one call, none for a
    # replica with no edge at any n, and its graphs share one generator
    from sparselocal import graph, harness
    from sparselocal.graph import WeightedGraph

    edges = {}
    sample = harness.sample_graph

    def counted_sample(weights, seed, stream, **kw):
        g = sample(weights, seed, stream, **kw)
        edges[stream] = edges.get(stream, 0) + g.num_edges
        return g

    entered = []
    edge_weight = WeightedGraph.edge_weight

    def counted_weight(self, u, v):
        entered.append(self.stream)
        return edge_weight(self, u, v)

    built = []
    stream_rng = graph.stream_rng

    def counted_rng(seed, stream, *tags):
        built.append((stream, tags))
        return stream_rng(seed, stream, *tags)

    monkeypatch.setattr(harness, "sample_graph", counted_sample)
    monkeypatch.setattr(WeightedGraph, "edge_weight", counted_weight)
    monkeypatch.setattr(graph, "stream_rng", counted_rng)
    cfg = small_config(weights=WeightSpec("constant", c=0.3), n_grid=[8, 12, 16], replicas=40,
                       application="matching", vertex_weights=None,
                       edge_weights=WeightSpec("gamma", shape=1.0, scale=1.0))
    clt_experiment(cfg)
    assert sorted(edges) == list(range(cfg.replicas))
    assert 0 in edges.values() and max(edges.values()) > 0
    assert entered == [t for t in range(cfg.replicas) if edges[t]]
    assert built == [(t, (graph._GEN_TAG,)) for t in range(cfg.replicas)]


@settings(max_examples=30, deadline=None)
@given(spec=st.sampled_from([WeightSpec("constant", c=2.0),
                             WeightSpec("gamma", shape=2.0, scale=1.0)]),
       n_grid=st.lists(st.integers(1, 24), min_size=1, max_size=4),
       stream=st.integers(0, 2**40), application=st.sampled_from(["edge-sum", "matching"]))
def test_clt_replica_equals_one_graph_calls(spec, n_grid, stream, application):
    # the stream's one generator, set back before each n, gives each graph of
    # an unsorted or duplicated grid the bits of a freshly seeded sample_graph
    from sparselocal.graph import sample_graph
    from sparselocal.harness import _clt_replica
    from sparselocal.matching import dependent_edge_sum, max_weight_matching

    mu = WeightSpec("gamma", shape=1.0, scale=1.0)
    grid = [sample_empirical_weights(spec, n, SEED, stream=n) for n in n_grid]
    alone = [sample_graph(w, SEED, stream, mu_v=mu, mu_e=mu) for w in grid]
    if application == "edge-sum":
        want = [dependent_edge_sum([g])[0] for g in alone]
    else:
        want = [max_weight_matching(g).value for g in alone]
    got = _clt_replica(grid, SEED, application, mu, mu, stream)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_size_biased_law_built_once_per_n(monkeypatch):
    from test_golden import COUPLE_GAMMA

    from sparselocal import weights as weights_module

    built = []
    original = weights_module.EmpiricalSizeBiased

    def counted(**kw):
        built.append(kw["W"].size)
        return original(**kw)

    monkeypatch.setattr(weights_module, "EmpiricalSizeBiased", counted)
    cfg = ExperimentConfig.from_dict(COUPLE_GAMMA)
    assert cfg.workers == 1
    _, outcomes = coupling_experiment(cfg)
    # stage 1 breaks, so its detached growth runs, and it reuses the law of its n
    stage1 = {"XneqZ", "ActiveCollision", "CompletedCollision", "SizeOverflow"}
    assert any(o["break_reason"] in stage1 for o in outcomes)
    assert built == list(cfg.n_grid)


def _count_bucket_plans(monkeypatch):
    from sparselocal import weights as weights_module

    built = []
    original = weights_module.BucketPlan

    def counted(**kw):
        built.append(kw["order"].size)
        return original(**kw)

    monkeypatch.setattr(weights_module, "BucketPlan", counted)
    return built


def test_bucket_plan_built_once_per_n(monkeypatch):
    built = _count_bucket_plans(monkeypatch)
    cfg = small_config(weights=WeightSpec("gamma", shape=2.0, scale=1.0),
                       n_grid=[60, 90], replicas=12)
    assert cfg.workers == 1
    clt_experiment(cfg)
    assert built == [60, 90]


def test_parent_process_builds_no_bucket_plan(monkeypatch):
    # the weights travel to the workers with every task, so a plan built in
    # the parent would be pickled with them; the workers build their own
    built = _count_bucket_plans(monkeypatch)
    cfg = small_config(n_grid=[60, 90], replicas=8, workers=2)
    rows = clt_experiment(cfg)
    assert built == []
    assert rows == clt_experiment(dataclasses.replace(cfg, workers=1))
    assert built == [60, 90]


def test_coupling_pool_pickles_no_table_cached_by_moments(monkeypatch):
    # moments runs in the parent and caches the sorted weights on them; the
    # weights travel to the workers with every task, so that copy must not
    from sparselocal import harness

    sizes = []
    original = harness.moments

    def measured(weights, spec=None):
        before = len(pickle.dumps(weights))
        summary = original(weights, spec)
        assert set(vars(weights)) > {"n", "W", "theta"}  # something is cached
        sizes.append((before, len(pickle.dumps(weights))))
        return summary

    monkeypatch.setattr(harness, "moments", measured)
    built = _count_bucket_plans(monkeypatch)
    cfg = small_config(weights=WeightSpec("gamma", shape=2.0, scale=1.0), n_grid=[60, 90],
                       replicas=8, workers=2, roots=2)
    rows, outcomes = coupling_experiment(cfg)
    assert built == []
    assert len(sizes) == 2 and all(after <= before for before, after in sizes)
    assert (rows, outcomes) == coupling_experiment(dataclasses.replace(cfg, workers=1))
