import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy

import sparselocal
from sparselocal.cli import main

CONFIG = {
    "weights": {"family": "constant", "c": 2.0},
    "n_grid": [80],
    "replicas": 40,
    "depth": 2,
    "seed": "c0ffee",
    "vertex_weights": {"family": "gamma", "shape": 2.0, "scale": 1.0},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_config_line_anchored(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "weights": oops\n}')
    assert main(["generate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert ":2:" in err  # line number of the defect


@pytest.mark.parametrize("command, change", [
    ("couple", {"roots": 8, "n_grid": [5]}),
    ("couple", {"depth": -1}),
    ("bounds", {"depth": -1}),
    ("couple", {"k_n_rule": "sqrt"}),
    ("couple", {"k_n_rule": -3}),
    ("couple", {"n_grid": [0]}),
], ids=["roots-above-n", "couple-depth", "bounds-depth", "k_n-sqrt", "k_n-negative",
        "n-zero"])
def test_invalid_config_value_exits_2(tmp_path, capsys, command, change):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(CONFIG, **change)))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out-dir", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()  # refused before any replica ran


def test_generate_deterministic(config_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["generate", "--config", config_path, "--out-dir", out]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "--config", config_path, "--out-dir", out]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("n 80\n")
    assert "gamma_2" in first
    # c = 2 gives mean degree about 2, so about n edges
    edges = int(first.splitlines()[1].split()[1])
    assert 40 <= edges <= 130


def test_generate_seed_override_changes_output(config_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    main(["generate", "--config", config_path, "--out-dir", out])
    base = capsys.readouterr().out
    main(["generate", "--config", config_path, "--out-dir", out, "--seed", "12345"])
    assert capsys.readouterr().out != base


def test_bounds_writes_grid_and_manifest(config_path, tmp_path, capsys):
    out = str(tmp_path / "outb")
    assert main(["bounds", "--config", config_path, "--out-dir", out]) == 0
    grid = os.path.join(out, "bounds_grid.csv")
    assert os.path.exists(grid)
    lines = open(grid).read().strip().splitlines()
    assert len(lines) == 1 + 2  # header + (1 n) x (2 levels)
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["outputs"] == ["bounds_grid.csv"]
    assert manifest["seed"] == "c0ffee".rjust(32, "0")
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["scipy"] == scipy.__version__
    assert manifest["workers"] == 1
    # bounds runs no replicas, so it records one process whatever --workers says
    assert main(["bounds", "--config", config_path, "--out-dir", out,
                 "--workers", "2"]) == 0
    assert json.load(open(os.path.join(out, "manifest.json")))["workers"] == 1


def test_manifest_records_merged_config(config_path, tmp_path):
    out = str(tmp_path / "outcfg")
    assert main(["bounds", "--config", config_path, "--out-dir", out,
                 "--replicas", "7", "--seed", "beef"]) == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    config = manifest["config"]
    assert config["replicas"] == 7  # the override, not the file's 40
    assert config["n_grid"] == CONFIG["n_grid"]
    assert config["weights"] == CONFIG["weights"]
    assert config["vertex_weights"] == CONFIG["vertex_weights"]
    assert manifest["seed"] == "beef".rjust(32, "0")
    body = json.dumps(config, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(body.encode()).hexdigest()[:16] == manifest["config_hash"]


def test_clt_writes_csv_with_trend(config_path, tmp_path):
    out = str(tmp_path / "outc")
    assert main(["clt", "--config", config_path, "--out-dir", out]) == 0
    path = os.path.join(out, "clt_edge-sum.csv")
    header = open(path).readline().strip().split(",")
    assert "trend_ok" in header and "ks" in header and "n_over_sigma2" in header


def test_couple_check_ok(tmp_path):
    cfg = dict(CONFIG, weights={"family": "constant", "c": 1.0}, replicas=60,
               depth=1, n_grid=[150])
    cfg.pop("vertex_weights")
    path = tmp_path / "cc.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "outk")
    assert main(["couple", "--config", str(path), "--out-dir", out, "--check"]) == 0
    assert os.path.exists(os.path.join(out, "coupling.csv"))
    assert os.path.exists(os.path.join(out, "coupling_outcomes.csv"))
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert set(manifest["outputs"]) == {"coupling.csv", "coupling_outcomes.csv"}


def test_rde_outputs(tmp_path):
    cfg = dict(CONFIG, weights={"family": "constant", "c": 0.5},
               rde_pop_size=2000, rde_iterations=8)
    path = tmp_path / "rde.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "outr")
    assert main(["rde", "--config", str(path), "--out-dir", out, "--check"]) == 0
    assert os.path.exists(os.path.join(out, "rde_gaps.csv"))
    assert os.path.exists(os.path.join(out, "rde_population.csv"))


def test_matching_oracle_check(config_path, tmp_path):
    out = str(tmp_path / "outm")
    assert main(["matching-oracle", "--config", config_path, "--out-dir", out,
                 "--check", "--replicas", "60"]) == 0


def test_workers_do_not_change_csv_bytes(config_path, tmp_path):
    out1, out2 = str(tmp_path / "w1"), str(tmp_path / "w2")
    assert main(["clt", "--config", config_path, "--out-dir", out1,
                 "--workers", "1"]) == 0
    assert main(["clt", "--config", config_path, "--out-dir", out2,
                 "--workers", "2"]) == 0
    a = open(os.path.join(out1, "clt_edge-sum.csv"), "rb").read()
    b = open(os.path.join(out2, "clt_edge-sum.csv"), "rb").read()
    assert a == b


def test_workers_under_spawn_start_method(tmp_path):
    # spawned workers inherit no module state: each task carries its replica context
    cfg = dict(CONFIG, weights={"family": "constant", "c": 1.0}, replicas=12,
               depth=1, n_grid=[150], edge_weights={"family": "gamma", "shape": 1.0,
                                                    "scale": 1.0})
    path = tmp_path / "spawn.json"
    path.write_text(json.dumps(cfg))
    script = ("import multiprocessing, sys\n"
              "multiprocessing.set_start_method('spawn')\n"
              "from sparselocal.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sparselocal.__file__)))
    outputs = []
    for command, name in (("couple", "coupling_outcomes.csv"), ("clt", "clt_edge-sum.csv")):
        for workers in ("1", "2"):
            out = str(tmp_path / f"{command}-w{workers}")
            run = subprocess.run([sys.executable, "-c", script, command, "--config",
                                  str(path), "--out-dir", out, "--workers", workers],
                                 env=env, capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            outputs.append(open(os.path.join(out, name), "rb").read())
            manifest = json.load(open(os.path.join(out, "manifest.json")))
            assert manifest["workers"] == int(workers)
    assert outputs[0] == outputs[1] and outputs[2] == outputs[3]


def test_app_flag_overrides_config(tmp_path):
    cfg = dict(CONFIG, n_grid=[14], replicas=30,
               edge_weights={"family": "gamma", "shape": 1.0, "scale": 1.0})
    path = tmp_path / "app.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "outa")
    assert main(["clt", "--config", str(path), "--out-dir", out,
                 "--app", "matching"]) == 0
    assert os.path.exists(os.path.join(out, "clt_matching.csv"))
    # matching is solved exactly, so sizes beyond the exact solver are a config error
    path.write_text(json.dumps(dict(cfg, n_grid=[14, 30])))
    assert main(["clt", "--config", str(path), "--out-dir", out,
                 "--app", "matching"]) == 2


def test_env_seed_override(config_path, tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "oute")
    main(["generate", "--config", config_path, "--out-dir", out])
    base = capsys.readouterr().out
    monkeypatch.setenv("SPARSELOCAL_SEED", "9999")
    main(["generate", "--config", config_path, "--out-dir", out])
    assert capsys.readouterr().out != base
    # explicit --seed wins over the environment
    main(["generate", "--config", config_path, "--out-dir", out, "--seed", "c0ffee"])
    assert capsys.readouterr().out == base


def test_runtime_error_is_flattened_unless_debug(config_path, tmp_path, capsys, monkeypatch):
    import sparselocal.cli as cli

    def broken(cfg, out_dir, check):
        raise RuntimeError("replica 3: boom")

    monkeypatch.setattr(cli, "cmd_generate", broken)
    out = str(tmp_path / "outd")
    assert main(["generate", "--config", config_path, "--out-dir", out]) == 1
    assert capsys.readouterr().err == "error: replica 3: boom\n"
    with pytest.raises(RuntimeError, match="replica 3: boom"):
        main(["generate", "--config", config_path, "--out-dir", out, "--debug"])
