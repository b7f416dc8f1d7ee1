import dataclasses
import hashlib
import json
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy

import sparselocal
from sparselocal.cli import COMMANDS, main
from sparselocal.harness import ExperimentConfig

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")

CONFIG = {
    "weights": {"family": "constant", "c": 2.0},
    "n_grid": [80],
    "replicas": 40,
    "depth": 2,
    "seed": "c0ffee",
    "vertex_weights": {"family": "gamma", "shape": 2.0, "scale": 1.0},
}
GAMMA_1_1 = {"family": "gamma", "shape": 1.0, "scale": 1.0}


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
    path.write_text("[]")
    assert main(["generate", "--config", str(path)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command, change", [
    ("couple", {"roots": 8, "n_grid": [5]}),
    ("couple", {"depth": -1}),
    ("bounds", {"depth": -1}),
    ("couple", {"k_n_rule": "sqrt"}),
    ("couple", {"k_n_rule": -3}),
    ("couple", {"n_grid": [0]}),
    ("rde", {"rde_iterations": 0}),
    ("rde", {"rde_iterations": -2}),
    ("rde", {"rde_pop_size": 10}),
    ("generate", {"depth": None}),
    ("generate", {"weights": "gamma"}),
    ("generate", {"weights": {"family": "constant", "c": None}}),
    ("generate", {"n_grid": 80}),
    ("generate", {"seed": 12}),
    ("couple", {"roots": 0}),
    ("clt", {"vertex_weights": None}),
    ("couple", {"workers": -3}),
    ("generate", {"weights": {"family": "finite", "values": "13", "probs": [0.5, 0.5]}}),
    ("generate", {"weights": {"family": "constant", "c": True}}),
    ("generate", {"weights": {"family": "gamma", "shape": "2", "scale": 1.0}}),
    ("generate", {"weights": {"family": "gamma", "shape": float("inf"), "scale": 1.0}}),
    ("generate", {"weights": {"family": "constant", "c": float("inf")}}),
    ("generate", {"weights": {"family": "constant", "c": 10 ** 400}}),
    ("clt", {"replica": 3, "depht": 9}),
    ("generate", {"weights": {"family": "gamma", "shape": 2.0, "scale": 1.0, "c": 1.0}}),
    ("generate", {"edge_weights": {}}),
    ("clt", {"replicas": 1}),
    ("clt", {"application": "matching", "n_grid": [14]}),
    ("clt", {"application": "matching", "n_grid": [14, 30], "edge_weights": GAMMA_1_1}),
], ids=["roots-above-n", "couple-depth", "bounds-depth", "k_n-sqrt", "k_n-negative",
        "n-zero", "rde-iterations-zero", "rde-iterations-negative", "rde-pop-size-small",
        "depth-null", "weights-string", "weight-parameter-null", "n_grid-number",
        "seed-number", "roots-zero", "edge-sum-without-vertex-weights",
        "workers-negative", "values-string", "c-bool", "shape-string", "shape-infinite",
        "c-infinite", "c-beyond-float", "unknown-key", "law-stray-parameter",
        "optional-law-empty", "clt-one-replica", "matching-without-edge-weights",
        "matching-above-exact-solver"])
def test_invalid_config_value_exits_2(tmp_path, capsys, command, change):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(CONFIG, **change)))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out-dir", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()  # refused before any replica ran


@pytest.mark.parametrize("config, message", [
    (dict(CONFIG, replica=3), "unknown key 'replica'"),
    ({k: v for k, v in CONFIG.items() if k != "n_grid"}, "missing key 'n_grid'"),
    (dict(CONFIG, weights={"family": "constant"}),
     "weights: missing key 'c' of the constant law"),
    (dict(CONFIG, edge_weights=dict(GAMMA_1_1, c=1.0)),
     "edge_weights: the gamma law takes no key 'c'"),
    (dict(CONFIG, vertex_weights={}),
     "vertex_weights: the family must be one of constant, finite, gamma; got None"),
    (dict(CONFIG, n_grid=[80, 1.5]), "n_grid: must be an integer; got 1.5"),
], ids=["unknown-key", "missing-key", "missing-law-parameter", "law-stray-parameter",
        "optional-law-empty", "n_grid-fraction"])
def test_config_error_names_the_key(tmp_path, capsys, config, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["generate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {path}: {message}\n"


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


def test_runtime_error_is_flattened_unless_debug(config_path, tmp_path, capsys, monkeypatch):
    import sparselocal.cli as cli

    def broken(cfg, out_dir, check):
        raise RuntimeError("replica 3: boom")

    monkeypatch.setitem(cli.COMMANDS, "generate", (broken, ()))
    out = str(tmp_path / "outd")
    assert main(["generate", "--config", config_path, "--out-dir", out]) == 1
    assert capsys.readouterr().err == "error: replica 3: boom\n"
    with pytest.raises(RuntimeError, match="replica 3: boom"):
        main(["generate", "--config", config_path, "--out-dir", out, "--debug"])


def test_readme_names_exactly_the_cli_commands():
    text = open(README).read()
    paragraph = text[text.index("Commands:"):].split("\n\n")[0]
    named = re.findall(r"`([a-z-]+)` \(", paragraph)
    assert sorted(named) == sorted(COMMANDS)


def test_readme_usage_names_exactly_the_cli_flags(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    text = open(README).read()
    block = text[text.index("sparselocal <command>"):].split("```")[0]
    assert set(re.findall(r"--[a-z-]+", block)) == set(re.findall(r"--[a-z-]+", usage))


def test_readme_config_table_names_exactly_the_config_fields():
    text = open(README).read()
    section = text[text.index("## Config schema"):].split("\n## ")[0]
    keys = re.findall(r"^\| `([a-z_]+)`", section, re.MULTILINE)
    assert keys == [f.name for f in dataclasses.fields(ExperimentConfig)]
