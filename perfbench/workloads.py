"""The benchmark's workloads: fixed CLI configs, seeded per run.

Each workload is one set of `sparselocal` CLI commands on one config.  The
config is fixed here; only the 128-bit CLI seeds come from the benchmark
seed, so the same seed always gives the same inputs.  The program receives
nothing but the written config file and `--seed`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

GAMMA_2_1 = {"family": "gamma", "shape": 2.0, "scale": 1.0}
GAMMA_1_1 = {"family": "gamma", "shape": 1.0, "scale": 1.0}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    commands: tuple[tuple[str, int], ...]  # (command, how many CLI seeds it runs on)
    replica_command: str  # the command whose replicas give replicas_per_s

    @property
    def workers(self) -> int:
        return int(self.config.get("workers", 1))

    def calls(self, seed: int) -> list[tuple[str, str]]:
        """(command, CLI seed) of every CLI call in one set, in order."""
        return [(cmd, cli_seed(self.name, seed, k))
                for cmd, seeds in self.commands for k in range(seeds)]

    def work_counts(self) -> dict[str, int]:
        """Work one set of the commands does, derived from the config."""
        c = self.config
        seeds = dict(self.commands)
        graphs = c["replicas"] * len(c["n_grid"]) * seeds[self.replica_command]
        roots = 0
        if self.replica_command == "couple":
            graphs *= c["depth"]
            roots = graphs * c["roots"]
        steps = c["rde_pop_size"] * c["rde_iterations"] * seeds["rde"] if "rde" in seeds else 0
        return {"graph_replicas": graphs, "coupled_roots": roots,
                "rde_particle_steps": steps}


# Why these three: couple-large is the only one where n is large enough for
# the O(n + m) graph build and the per-root O(n) coupling work to dominate;
# clt-edge-sum runs thousands of small replicas, so per-call overhead,
# vectorised site hashing and the process pool dominate; matching covers the
# exact bitmask matcher, scalar per-edge hashing and RDE population dynamics.
#
# The weights are drawn once per (n, CLI seed) and frozen across replicas.  At
# n <= 24 the drawn vector sets the edge density, and the exact matcher's cost
# moves by up to 2x between seeds, so matching runs clt on many CLI seeds with
# few replicas each: one seed is not representative of the workload.  Over
# ten benchmark seeds the quartile spread of the clt time was 6-7% with 64
# seeds x 20 replicas and 3.4% with 256 seeds x 5 replicas.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="couple-large",
        why="n = 1e6 coupling: the O(n + m) graph build, the per-root O(n) coupling "
            "stages and the O(n) moments dominate",
        config={"weights": GAMMA_2_1, "edge_weights": GAMMA_1_1, "n_grid": [1_000_000],
                "depth": 2, "roots": 2, "k_n_rule": "cbrt", "replicas": 3,
                "workers": 1},
        commands=(("couple", 1),),
        replica_command="couple"),
    Workload(
        name="clt-edge-sum",
        why="thousands of small edge-sum replicas on 2 pool workers: per-call graph "
            "overhead, bulk site hashing and gamma quantiles dominate",
        config={"weights": {"family": "constant", "c": 2.0}, "vertex_weights": GAMMA_2_1,
                "n_grid": [500, 2000, 8000], "replicas": 500,
                "application": "edge-sum", "workers": 2},
        commands=(("clt", 1),),
        replica_command="clt"),
    Workload(
        name="matching",
        why="n <= 24 on 256 seeds: the exact bitmask matcher, scalar per-edge weight "
            "hashing and RDE population dynamics, which no other workload runs",
        config={"weights": GAMMA_2_1, "edge_weights": GAMMA_1_1, "n_grid": [16, 20, 24],
                "replicas": 5, "application": "matching", "depth": 3,
                "rde_pop_size": 200_000, "rde_iterations": 30, "workers": 1},
        commands=(("clt", 256), ("rde", 1)),
        replica_command="clt"),
)}


def cli_seed(workload: str, seed: int, k: int = 0) -> str:
    """The k-th 128-bit hex CLI seed of one (workload, benchmark seed) pair."""
    return hashlib.sha256(f"{workload}:{seed}:{k}".encode()).hexdigest()[:32]


def write_config(workload: Workload, directory: str, workers: int | None = None) -> str:
    """Write the workload's config; returns its path.  The seed goes by --seed.

    ``workers`` overrides the configured worker count, for the one-worker
    runs the traced run and the worker-count check need.
    """
    cfg = dict(workload.config)
    suffix = ""
    if workers is not None:
        cfg["workers"] = workers
        suffix = f"-w{workers}"
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload.name}{suffix}.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
