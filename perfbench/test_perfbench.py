"""Tests of the benchmark's own machinery.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from sparselocal import cli  # noqa: E402


def _span(name, start, end, parent=-1, counts=None):
    return [name, start, end, parent, 0, counts]


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span("root", 0, 100),
        _span("a", 10, 30, parent=0),
        _span("a.inner", 12, 20, parent=1),
        _span("b", 25, 40, parent=0),   # overlaps a: the union 10..40 is covered once
        _span("c", 90, 120, parent=0),  # sticks out of the parent: only 90..100 counts
    ]
    assert spans.self_times(tree) == [100 - 30 - 10, 20 - 8, 8, 15, 30]


def test_layer_metrics_partition_the_traced_wall():
    tree = [
        _span("cli.main", 0, 1_000_000_000),
        _span("graph.sample_graph", 100_000_000, 600_000_000, parent=0),
        _span("graph.WeightedGraph.__init__", 400_000_000, 600_000_000, parent=1,
              counts={"edges": 1000}),
    ]
    m = spans.layer_metrics(tree, traced_wall_s=1.0, untraced_wall_s=0.8)
    assert m["cli.self_s"] == pytest.approx(0.5)
    assert m["graph.sample_s"] == pytest.approx(0.3)
    assert m["graph.csr_s"] == pytest.approx(0.2)
    assert m["graph.us_per_edge"] == pytest.approx(200.0)
    assert m["graph.calls"] == 1
    assert m["trace.coverage_share"] == pytest.approx(1.0)
    assert m["trace.overhead_share"] == pytest.approx(0.25)
    assert set(m) == set(spans.LAYER_METRICS)


def test_every_target_is_in_exactly_one_self_time_metric():
    listed = [s for names in spans.SELF_TIME_METRICS.values() for s in names]
    assert sorted(listed) == sorted(spans.TARGETS)


# Names the CLI looks a target up through besides its definition; install()
# finds them by scanning the modules, and this list pins them.
LOOKUP_SITES = (
    "harness.sample_empirical_weights", "cli.sample_empirical_weights",
    "harness.moments", "cli.moments",
    "harness.sample_graph", "harness.couple_full",
    "harness.epsilon_v_bound",
    "cli.coupling_experiment", "cli.clt_experiment", "cli.rde_fixed_point",
)


def coverage_gaps() -> list[str]:
    """Names in sparselocal modules still bound to an unwrapped target function."""
    modules = spans.package_modules()
    originals = set()
    for name in spans.TARGETS:
        mod, *path = name.split(".")
        if len(path) == 1:
            fn = getattr(modules[mod], path[0])
            originals.add(id(getattr(fn, "__wrapped__", fn)))
    return sorted(f"{mod}.{attr}" for mod, module in modules.items()
                  for attr, value in vars(module).items()
                  if id(value) in originals and not hasattr(value, "__perfbench_span__"))


def test_install_wraps_every_lookup_site_and_a_gap_is_reported():
    assert "harness.sample_graph" in coverage_gaps()
    recorder = spans.Recorder().install()
    try:
        assert coverage_gaps() == []
        for site in LOOKUP_SITES:
            mod, attr = site.split(".")
            value = getattr(sys.modules[f"sparselocal.{mod}"], attr)
            assert hasattr(value, "__perfbench_span__"), site
        harness = sys.modules["sparselocal.harness"]
        wrapped = harness.sample_graph
        harness.sample_graph = wrapped.__wrapped__
        try:
            assert coverage_gaps() == ["harness.sample_graph"]
        finally:
            harness.sample_graph = wrapped
    finally:
        recorder.uninstall()
    assert not hasattr(sys.modules["sparselocal.harness"].sample_graph,
                       "__perfbench_span__")


def _write_config(tmp_path, **cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg


def _run_cli(command, config_path, out_dir):
    assert cli.main([command, "--config", config_path, "--seed", "abc",
                     "--out-dir", str(out_dir)]) == 0


@pytest.fixture
def clt_output(tmp_path, capsys):
    path, cfg = _write_config(tmp_path, weights={"family": "constant", "c": 2.0},
                              vertex_weights={"family": "gamma", "shape": 2.0, "scale": 1.0},
                              n_grid=[50, 100], replicas=40, application="edge-sum")
    out = tmp_path / "out"
    _run_cli("clt", path, out)
    return cfg, out


def test_checker_accepts_real_output(clt_output):
    cfg, out = clt_output
    assert checks.check_outputs("clt", cfg, str(out)) is None


def test_checker_rejects_a_truncated_csv(clt_output):
    cfg, out = clt_output
    csv_path = out / "clt_edge-sum.csv"
    lines = csv_path.read_text().splitlines(keepends=True)
    csv_path.write_text("".join(lines[:-1]))
    assert "n grid" in checks.check_outputs("clt", cfg, str(out))
    csv_path.write_text("".join(lines[:-1]) + lines[-1][:20] + "\n")
    assert checks.check_outputs("clt", cfg, str(out)) is not None


@pytest.mark.parametrize("column, value", [("ks", "1.5"), ("mode", "tree-local-diagnostic"),
                                           ("sigma2", "nan"), ("sigma2", "-1.0")])
def test_checker_rejects_an_altered_csv(clt_output, column, value):
    cfg, out = clt_output
    csv_path = out / "clt_edge-sum.csv"
    header, *rows = csv_path.read_text().splitlines()
    cols = header.split(",")
    cells = rows[0].split(",")
    before = checks.digests("clt", cfg, str(out))
    cells[cols.index(column)] = value
    csv_path.write_text("\n".join([header, ",".join(cells), *rows[1:]]) + "\n")
    assert column in checks.check_outputs("clt", cfg, str(out))
    assert checks.digests("clt", cfg, str(out)) != before


def test_traced_cli_writes_the_same_csvs(tmp_path, capsys):
    path, cfg = _write_config(tmp_path, weights={"family": "gamma", "shape": 2.0, "scale": 1.0},
                              edge_weights={"family": "gamma", "shape": 1.0, "scale": 1.0},
                              n_grid=[2000], depth=2, roots=2, replicas=3)
    _run_cli("couple", path, tmp_path / "plain")
    recorder = spans.Recorder().install()
    try:
        _run_cli("couple", path, tmp_path / "traced")
    finally:
        recorder.uninstall()
    assert (checks.digests("couple", cfg, str(tmp_path / "plain"))
            == checks.digests("couple", cfg, str(tmp_path / "traced")))
    names = {s[0] for s in recorder.spans}
    assert {"cli.main", "harness.coupling_experiment", "graph.sample_graph",
            "coupling.couple_full", "coupling.couple_neighbourhood_to_intermediate",
            "coupling.repair_independence", "coupling.couple_intermediate_to_limit",
            "bounds.epsilon_v_bound"} <= names
    wall = sum((s[2] - s[1]) * 1e-9 for s in recorder.spans if s[3] == -1)
    m = spans.layer_metrics(recorder.spans, wall, wall)
    assert m["trace.coverage_share"] == pytest.approx(1.0)
    assert m["coupling.roots"] == 2 * 2 * 3
    assert m["graph.calls"] == 2 * 3


def test_benchmark_json_matches_the_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == run.benchmark_json()


def test_work_counts_follow_the_configs():
    counts = {name: w.work_counts() for name, w in workloads.WORKLOADS.items()}
    assert counts["couple-large"] == {"graph_replicas": 3 * 2, "coupled_roots": 3 * 2 * 2,
                                      "rde_particle_steps": 0}
    assert counts["clt-edge-sum"]["graph_replicas"] == 500 * 3
    assert counts["matching"] == {"graph_replicas": 5 * 3 * 256, "coupled_roots": 0,
                                  "rde_particle_steps": 200_000 * 30}


def test_cli_seeds_follow_the_benchmark_seed():
    w = workloads.WORKLOADS["matching"]
    calls = w.calls(7)
    assert [c for c, _ in calls] == ["clt"] * 256 + ["rde"]
    assert len({s for _, s in calls[:256]}) == 256
    assert calls == w.calls(7) and calls != w.calls(8)
