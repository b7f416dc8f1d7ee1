"""Command-line entry point.

Subcommands: generate | couple | clt | bounds | rde.
Exit codes: 0 success, 1 worker failure, 2 config error, 3 check violation
(with --check).  Outputs are CSV files plus one JSON run manifest per
invocation; identical (config, seed) produce byte-identical CSVs for any
worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
import time

import numpy as np
import scipy

from . import __version__
from .harness import ExperimentConfig, bounds_grid, clt_experiment, coupling_experiment
from .limit_trees import rde_fixed_point
from .rng import format_seed
from .weights import moments, sample_empirical_weights  # perfbench pins the second here


def _load_config(path: str, overrides: dict) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: the config must be a JSON object")
    data.update((key, value) for key, value in overrides.items() if value is not None)
    try:
        return ExperimentConfig.from_dict(data)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


class ConfigError(Exception):
    pass


def _write_csv(path: str, rows: list[dict]) -> None:
    if not rows:
        raise ValueError("no rows to write")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _write_manifest(out_dir: str, cfg: ExperimentConfig, outputs: list[str],
                    workers: int = 1) -> str:
    """``config`` is the hashed config body, with the command-line overrides
    applied; ``workers`` is the process count the command ran its replicas on."""
    manifest = {
        "config": json.loads(cfg.canonical_json()),
        "config_hash": cfg.config_hash(),
        "seed": format_seed(cfg.seed),
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workers": workers,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cmd_generate(cfg: ExperimentConfig, out_dir: str, check: bool) -> int:
    from .graph import sample_graph

    n = cfg.n_grid[0]
    weights = cfg.empirical_weights(n)
    graph = sample_graph(weights, cfg.seed, stream=0)
    summ = moments(weights, spec=cfg.weights)
    print(f"n {n}")
    print(f"edges {graph.num_edges}")
    print(f"theta {summ.theta:.12g}")
    print(f"lambda_n {summ.lambda_n:.12g}")
    for p in (0, 1, 2, 3):
        print(f"gamma_{p} {summ.gamma[p]:.12g}")
    for p in (1, 2):
        print(f"kappa_{p} {summ.kappa[p]:.12g}")
    print(f"alpha_n {summ.alpha_n:.12g}")
    return 0


def cmd_couple(cfg: ExperimentConfig, out_dir: str, check: bool) -> int:
    rows, outcome_rows = coupling_experiment(cfg)
    path = os.path.join(out_dir, "coupling.csv")
    _write_csv(path, rows)
    detail = os.path.join(out_dir, "coupling_outcomes.csv")
    _write_csv(detail, outcome_rows)
    _write_manifest(out_dir, cfg, [path, detail], workers=cfg.workers)
    print(f"wrote {path} ({len(rows)} rows) and {detail}")
    if check and any(r["violation"] for r in rows):
        print("check failed: empirical break rate exceeds the bound", file=sys.stderr)
        return 3
    return 0


def cmd_clt(cfg: ExperimentConfig, out_dir: str, check: bool) -> int:
    rows = clt_experiment(cfg)
    for i in range(len(rows)):
        band = 2.0 * 0.26 / np.sqrt(rows[i]["replicas"])
        prev = rows[i - 1]["ks"] if i else float("inf")
        rows[i]["trend_ok"] = int(rows[i]["degenerate"] == 0
                                  and (i == 0 or rows[i]["ks"] < prev + band))
    path = os.path.join(out_dir, f"clt_{cfg.application}.csv")
    _write_csv(path, rows)
    _write_manifest(out_dir, cfg, [path], workers=cfg.workers)
    print(f"wrote {path} ({len(rows)} rows)")
    if check and any(not r["trend_ok"] for r in rows):
        print("check failed: KS trend violated", file=sys.stderr)
        return 3
    return 0


def cmd_bounds(cfg: ExperimentConfig, out_dir: str, check: bool) -> int:
    rows = bounds_grid(cfg)
    path = os.path.join(out_dir, "bounds_grid.csv")
    _write_csv(path, rows)
    _write_manifest(out_dir, cfg, [path])
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_rde(cfg: ExperimentConfig, out_dir: str, check: bool) -> int:
    diag = rde_fixed_point(cfg.weights, cfg.rde_pop_size, cfg.rde_iterations, cfg.seed)
    rows = [{"k": k, "gap": g, "seed": format_seed(cfg.seed),
             "config": cfg.config_hash()} for k, g in enumerate(diag.gaps)]
    path = os.path.join(out_dir, "rde_gaps.csv")
    _write_csv(path, rows)
    pop_path = os.path.join(out_dir, "rde_population.csv")
    diag.final_even.to_csv(pop_path)
    _write_manifest(out_dir, cfg, [path, pop_path])
    print(f"wrote {path} (final gap {diag.gaps[-1]:.6g}, converged {diag.converged})")
    if check and not diag.converged:
        print("check failed: even/odd gap stalled", file=sys.stderr)
        return 3
    return 0


# per command: its handler and the config checks it needs beyond the loader's
COMMANDS = {
    "generate": (cmd_generate, ()),
    "couple": (cmd_couple, (ExperimentConfig.check_coupling,)),
    "clt": (cmd_clt, (ExperimentConfig.check_clt,)),
    "bounds": (cmd_bounds, (ExperimentConfig.check_coupling,)),
    "rde": (cmd_rde, (ExperimentConfig.check_rde,)),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="sparselocal",
                                     description="sparse random graph couplings and CLT checks")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--seed", help="128-bit hex seed (overrides the config)")
    parser.add_argument("--replicas", type=int)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--check", action="store_true",
                        help="exit 3 when an acceptance-style violation is detected")
    parser.add_argument("--debug", action="store_true",
                        help="re-raise runtime errors with their traceback")
    args = parser.parse_args(argv)

    handler, checks = COMMANDS[args.command]
    try:
        cfg = _load_config(args.config, {"seed": args.seed, "replicas": args.replicas,
                                         "workers": args.workers})
        for check in checks:
            check(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(args.out_dir, exist_ok=True)
    try:
        return handler(cfg, args.out_dir, args.check)
    except Exception as exc:  # worker/runtime failure
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
