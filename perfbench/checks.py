"""Structural checks and digests of the CLI's CSV outputs.

A command run counts as failed when its CSVs are missing, malformed, or
break an invariant the README states: one row per grid cell, rates in
[0, 1], a finite positive variance, a KS statistic in (0, 1), exact
matching mode, finite non-negative RDE gaps and particles.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

COUPLING_COLUMNS = ("n", "ell", "replicas", "breaks", "rate", "ci_low", "ci_high", "bound",
                    "violation", "seed", "config")
OUTCOME_COLUMNS = ("n", "ell", "replica", "root", "ok", "break_level", "break_reason")
CLT_COLUMNS = ("n", "replicas", "sigma2", "sigma2_se", "n_over_sigma2", "ks", "degenerate",
               "mode", "seed", "config", "trend_ok")
RDE_COLUMNS = ("k", "gap", "seed", "config")

OUTPUTS = {
    "couple": ("coupling.csv", "coupling_outcomes.csv"),
    "rde": ("rde_gaps.csv", "rde_population.csv"),
}


def output_files(command: str, config: dict) -> tuple[str, ...]:
    if command == "clt":
        return (f"clt_{config.get('application', 'edge-sum')}.csv",)
    return OUTPUTS[command]


def _rows(path: str, columns: tuple[str, ...]) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{os.path.basename(path)}: missing columns {missing}")
        rows = list(reader)
    for i, row in enumerate(rows):
        if None in row or any(v is None for v in row.values()):
            raise ValueError(f"{os.path.basename(path)}: row {i + 1} has the wrong width")
    return rows


def _num(row: dict, key: str) -> float:
    return float(row[key])


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _check_couple(out_dir: str, cfg: dict) -> None:
    rows = _rows(os.path.join(out_dir, "coupling.csv"), COUPLING_COLUMNS)
    cells = [(n, ell) for n in cfg["n_grid"] for ell in range(1, cfg["depth"] + 1)]
    _require([(int(r["n"]), int(r["ell"])) for r in rows] == cells,
             f"coupling.csv: cells {len(rows)} rows, expected {cells}")
    for r in rows:
        _require(int(r["replicas"]) == cfg["replicas"], "coupling.csv: replica count")
        for key in ("rate", "ci_low", "ci_high"):
            _require(0.0 <= _num(r, key) <= 1.0, f"coupling.csv: {key} outside [0, 1]")
        _require(math.isfinite(_num(r, "bound")) and _num(r, "bound") >= 0,
                 "coupling.csv: bound not finite and >= 0")
        _require(int(r["breaks"]) == round(_num(r, "rate") * cfg["replicas"]),
                 "coupling.csv: breaks disagree with rate")
    outcomes = _rows(os.path.join(out_dir, "coupling_outcomes.csv"), OUTCOME_COLUMNS)
    per_cell: dict[tuple[int, int], int] = {}
    for r in outcomes:
        key = (int(r["n"]), int(r["ell"]))
        per_cell[key] = per_cell.get(key, 0) + 1
        _require(r["ok"] in ("0", "1"), "coupling_outcomes.csv: ok not 0/1")
        _require((r["ok"] == "1") == (r["break_reason"] == ""),
                 "coupling_outcomes.csv: ok and break_reason disagree")
    expect = cfg["replicas"] * cfg["roots"]
    _require(per_cell == {c: expect for c in cells},
             f"coupling_outcomes.csv: rows per (n, ell) {per_cell}, expected {expect}")


def _check_clt(out_dir: str, cfg: dict) -> None:
    name = f"clt_{cfg.get('application', 'edge-sum')}.csv"
    rows = _rows(os.path.join(out_dir, name), CLT_COLUMNS)
    _require([int(r["n"]) for r in rows] == list(cfg["n_grid"]),
             f"{name}: rows do not follow the n grid")
    for r in rows:
        _require(int(r["replicas"]) == cfg["replicas"], f"{name}: replica count")
        sigma2 = _num(r, "sigma2")
        _require(math.isfinite(sigma2) and sigma2 > 0, f"{name}: sigma2 not finite and > 0")
        _require(0.0 < _num(r, "ks") < 1.0, f"{name}: ks outside (0, 1)")
        _require(r["mode"] == "exact", f"{name}: mode {r['mode']!r} is not exact")
        _require(r["degenerate"] == "0", f"{name}: degenerate cell")
        _require(r["trend_ok"] in ("0", "1"), f"{name}: trend_ok not 0/1")


def _check_rde(out_dir: str, cfg: dict) -> None:
    rows = _rows(os.path.join(out_dir, "rde_gaps.csv"), RDE_COLUMNS)
    _require(len(rows) == (cfg["rde_iterations"] + 1) // 2,
             f"rde_gaps.csv: {len(rows)} rows")
    for k, r in enumerate(rows):
        _require(int(r["k"]) == k, "rde_gaps.csv: k out of order")
        gap = _num(r, "gap")
        _require(math.isfinite(gap) and gap >= 0, "rde_gaps.csv: gap not finite and >= 0")
    with open(os.path.join(out_dir, "rde_population.csv")) as fh:
        particles = [float(line) for line in fh]
    _require(len(particles) == cfg["rde_pop_size"], "rde_population.csv: population size")
    _require(all(math.isfinite(x) and x >= 0 for x in particles),
             "rde_population.csv: particle not finite and >= 0")


CHECKS = {"couple": _check_couple, "clt": _check_clt, "rde": _check_rde}


def check_outputs(command: str, config: dict, out_dir: str) -> str | None:
    """None when the command's outputs pass, else the first problem found."""
    try:
        CHECKS[command](out_dir, config)
    except (OSError, ValueError, KeyError) as exc:
        return f"{command}: {exc}"
    return None


def digests(command: str, config: dict, out_dir: str) -> dict[str, str]:
    """sha256 of each CSV the command writes (the manifest holds a timestamp)."""
    out = {}
    for name in output_files(command, config):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out
