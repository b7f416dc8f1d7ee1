"""Monte Carlo experiment drivers: replication, estimators, trend tables.

Replicas are embarrassingly parallel and keyed by their stream id, so
splitting a replica range across any number of workers reproduces the same
pooled results bit for bit; aggregation is a deterministic fold in replica
order.  A worker gets everything a replica needs with its task, so this
holds under any process start method.  Central-limit experiments condition
on a single realized weight vector per n (weights are drawn once per
(n, seed) and frozen across replicas).
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtr

from . import matching as app
from .bounds import (BoundParams, VertexSetSummary, default_k_n, epsilon_rho_sequences,
                     epsilon_v_bound, eta_bound, structural_bounds)
from .coupling import BREAK_REASONS, CouplingConfig, couple_full
from .graph import sample_graph
from .rng import format_seed, parse_seed
from .weights import EmpiricalWeights, WeightSpec, moments, sample_empirical_weights

_WEIGHTS_STREAM = 1_000_003


@dataclass
class ExperimentConfig:
    """One experiment; the defaults here are the defaults of a config file."""

    weights: WeightSpec
    n_grid: list[int]
    replicas: int = 1000
    seed: tuple[int, int] = (0, 0)
    depth: int = 2
    k_n_rule: str | float = "cbrt"
    application: str = "edge-sum"
    roots: int = 2
    vertex_weights: WeightSpec | None = None
    edge_weights: WeightSpec | None = None
    rde_pop_size: int = 100_000
    rde_iterations: int = 30
    workers: int = 1

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if not self.n_grid:
            raise ValueError("n grid must be non-empty")
        if min(self.n_grid) < 1:
            raise ValueError(f"every n must be at least 1; got n = {min(self.n_grid)}")
        rule = self.k_n_rule
        numeric = isinstance(rule, (int, float)) and not isinstance(rule, bool)
        if rule != "cbrt" and not (numeric and 0 < rule < math.inf):
            raise ValueError(f'k_n_rule must be "cbrt" or a positive finite number; '
                             f"got {rule!r}")
        if self.application not in ("edge-sum", "matching"):
            raise ValueError(f"unknown application {self.application!r}")
        if self.application == "matching" and max(self.n_grid) > app.EXACT_SOLVER_LIMIT:
            raise ValueError(f"matching is solved exactly, which needs every n <= "
                             f"{app.EXACT_SOLVER_LIMIT}; got n = {max(self.n_grid)}")

    def check_coupling(self) -> None:
        """The checks of the commands that couple balls: ``couple`` and ``bounds``."""
        if self.depth < 1:
            raise ValueError(f"depth must be at least 1; got {self.depth}")
        if self.roots > min(self.n_grid):
            raise ValueError(f"roots ({self.roots}) must not exceed the smallest n "
                             f"({min(self.n_grid)})")

    def k_n(self, n: int) -> float:
        return default_k_n(n) if self.k_n_rule == "cbrt" else float(self.k_n_rule)

    def empirical_weights(self, n: int) -> EmpiricalWeights:
        """The weight vector of grid point n, drawn once and frozen across replicas."""
        return sample_empirical_weights(self.weights, n, self.seed, stream=_WEIGHTS_STREAM + n)

    def canonical_json(self) -> str:
        body = {
            "weights": self.weights.to_config(),
            "n_grid": list(self.n_grid),
            "replicas": self.replicas,
            "depth": self.depth,
            "k_n_rule": self.k_n_rule,
            "application": self.application,
            "roots": self.roots,
            "vertex_weights": self.vertex_weights.to_config() if self.vertex_weights else None,
            "edge_weights": self.edge_weights.to_config() if self.edge_weights else None,
            "rde_pop_size": self.rde_pop_size,
            "rde_iterations": self.rde_iterations,
        }
        return json.dumps(body, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    @staticmethod
    def from_dict(cfg: dict) -> "ExperimentConfig":
        """Build from a parsed config file; an absent key takes the field default."""
        kw = {k: cfg[k] for k in ("k_n_rule", "application") if k in cfg}
        kw.update((k, int(cfg[k])) for k in ("replicas", "depth", "roots", "rde_pop_size",
                                               "rde_iterations", "workers") if k in cfg)
        kw.update((k, WeightSpec.from_config(cfg[k]))
                  for k in ("vertex_weights", "edge_weights") if cfg.get(k))
        if "seed" in cfg:
            kw["seed"] = parse_seed(cfg["seed"])
        return ExperimentConfig(weights=WeightSpec.from_config(cfg["weights"]),
                                n_grid=[int(n) for n in cfg["n_grid"]], **kw)


# ---- estimators -----------------------------------------------------------------------


@dataclass
class KSReport:
    statistic: float
    sample_size: int


def ks_to_normal(samples) -> KSReport:
    """Exact one-sample Kolmogorov statistic against the standard normal.

    Both one-sided gaps are evaluated at the sorted sample; the normal CDF
    comes from the complementary error function (absolute error far below
    1e-10 in double precision).
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    grid = np.arange(1, n + 1) / n
    phi = ndtr(x)
    d_plus = float(np.max(grid - phi))
    d_minus = float(np.max(phi - (grid - 1.0 / n)))
    return KSReport(statistic=max(d_plus, d_minus), sample_size=n)


@dataclass
class VarianceEstimate:
    value: float
    jackknife_se: float


def estimate_variance(samples) -> VarianceEstimate:
    """Unbiased sample variance with its jackknife standard error."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("variance needs at least two samples")
    m = x.mean()
    m2 = float(np.sum((x - m) ** 2))
    var = m2 / (n - 1)
    if n == 2:
        return VarianceEstimate(value=var, jackknife_se=float("nan"))
    loo = (m2 - (x - m) ** 2 * n / (n - 1)) / (n - 2)
    se = float(np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))
    return VarianceEstimate(value=var, jackknife_se=se)


# ---- replica workers -------------------------------------------------------------------
# A replica receives its stream id; everything else is bound to the worker
# function with functools.partial and travels with the task.  Results are
# folded in replica order, which makes pooled output independent of the
# worker count.


class ReplicaFailure(RuntimeError):
    """A replica worker raised; the message carries the replica id."""


def _clt_replica(weights, seed, application, mu_v, mu_e, stream: int) -> float:
    try:
        graph = sample_graph(weights, seed, stream, mu_v=mu_v, mu_e=mu_e)
        if application == "edge-sum":
            return app.dependent_edge_sum(graph)
        return app.max_weight_matching(graph).value
    except Exception as exc:
        raise ReplicaFailure(f"replica {stream}: {exc}") from exc


def _coupling_replica(weights, seed, couplings, spec, mu_v, mu_e, roots, stream: int
                      ) -> list[list[tuple[int, bool, int | None, str | None]]]:
    """Per depth, one (root, ok, break level, reason) tuple per root.

    The graph depends only on (seed, stream), so it is sampled once and
    coupled at every depth.
    """
    try:
        graph = sample_graph(weights, seed, stream, mu_v=mu_v, mu_e=mu_e)
        return [[(o.root, o.ok, o.break_level, o.break_reason)
                 for o in couple_full(graph, list(roots), cfg, spec, mu_e, mu_v)]
                for cfg in couplings]
    except Exception as exc:
        raise ReplicaFailure(f"replica {stream}: {exc}") from exc


@contextmanager
def _replica_map(workers: int, n_replicas: int):
    """The map over replica streams for a whole command.

    Below two workers it is the builtin ``map``; else one process pool
    serves every grid point of the command.
    """
    if workers <= 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield partial(pool.map, chunksize=max(1, n_replicas // (4 * workers)))


# ---- experiments ------------------------------------------------------------------------


def clt_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Standardize f(G_n) over replicas, per n: sigma^2, KS to normal, trend."""
    rows = []
    chash = cfg.config_hash()
    with _replica_map(cfg.workers, cfg.replicas) as map_replicas:
        for n in cfg.n_grid:
            weights = cfg.empirical_weights(n)
            replica = partial(_clt_replica, weights, cfg.seed, cfg.application,
                              cfg.vertex_weights, cfg.edge_weights)
            values = np.asarray(list(map_replicas(replica, range(cfg.replicas))))
            est = estimate_variance(values)
            scale = max(1.0, float(np.mean(values)) ** 2)
            degenerate = est.value <= 1e-12 * scale
            row = {
                "n": n,
                "replicas": cfg.replicas,
                "sigma2": est.value,
                "sigma2_se": est.jackknife_se,
                "n_over_sigma2": n / est.value if not degenerate else float("nan"),
                "ks": float("nan"),
                "degenerate": int(degenerate),
                "mode": "exact",
                "seed": format_seed(cfg.seed),
                "config": chash,
            }
            if not degenerate:
                z = (values - values.mean()) / np.sqrt(est.value)
                row["ks"] = ks_to_normal(z).statistic
            rows.append(row)
    return rows


def coupling_experiment(cfg: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    """Empirical break rates of the full coupling against the failure bound.

    Returns (summary rows, per-replica outcome rows); a replica breaks when
    any root's coupling fails, which is the union event of the bound.  Each
    replica graph is coupled at every depth, and the rows are folded in
    (n, ell, replica, root) order.
    """
    rows = []
    outcome_rows = []
    chash = cfg.config_hash()
    roots = tuple(range(cfg.roots))
    depths = range(1, cfg.depth + 1)
    with _replica_map(cfg.workers, cfg.replicas) as map_replicas:
        for n in cfg.n_grid:
            weights = cfg.empirical_weights(n)
            summ = moments(weights, spec=cfg.weights)
            couplings = [CouplingConfig(k_n=cfg.k_n(n), depth=ell) for ell in depths]
            replica = partial(_coupling_replica, weights, cfg.seed, couplings, cfg.weights,
                              cfg.vertex_weights, cfg.edge_weights, roots)
            results = list(map_replicas(replica, range(cfg.replicas)))
            for ell, per_replica in zip(depths, zip(*results)):
                breaks = 0
                hist = {r: 0 for r in BREAK_REASONS}
                for t, per_root in enumerate(per_replica):
                    replica_bad = False
                    for root, ok, lvl, reason in per_root:
                        outcome_rows.append({
                            "n": n, "ell": ell, "replica": t, "root": root, "ok": int(ok),
                            "break_level": "" if lvl is None else lvl,
                            "break_reason": reason or "",
                        })
                        if not ok:
                            if not replica_bad:
                                hist[reason] += 1
                            replica_bad = True
                    breaks += int(replica_bad)
                params = BoundParams.from_summary(n, ell, summ, cfg.weights, k_n=cfg.k_n(n))
                bound = epsilon_v_bound(params, VertexSetSummary.of(weights, roots))
                rate = breaks / cfg.replicas
                half = float(3.0 * np.sqrt(max(rate * (1.0 - rate), 1e-12) / cfg.replicas))
                rows.append({
                    "n": n, "ell": ell, "replicas": cfg.replicas, "breaks": breaks,
                    "rate": rate, "ci_low": max(rate - half, 0.0),
                    "ci_high": min(rate + half, 1.0), "bound": float(bound),
                    "violation": int(max(rate - half, 0.0) > bound),
                    **{f"reason_{r}": hist[r] for r in BREAK_REASONS},
                    "seed": format_seed(cfg.seed), "config": chash,
                })
    return rows, outcome_rows


def bounds_grid(cfg: ExperimentConfig) -> list[dict]:
    """Closed-form bound table over the (n, ell) grid."""
    rows = []
    chash = cfg.config_hash()
    for n in cfg.n_grid:
        weights = cfg.empirical_weights(n)
        summ = moments(weights, spec=cfg.weights)
        for ell in range(1, cfg.depth + 1):
            params = BoundParams.from_summary(n, ell, summ, cfg.weights, k_n=cfg.k_n(n))
            eps, rho = epsilon_rho_sequences(params)
            vs = VertexSetSummary.of(weights, range(cfg.roots))
            row = {"n": n, "ell": ell, "k_n": cfg.k_n(n), "alpha_n": summ.alpha_n,
                   "eta": eta_bound(params, vs),
                   "epsilon_v": epsilon_v_bound(params, vs),
                   "epsilon": eps, "rho": rho, "C": params.C, "C0": params.C0,
                   "seed": format_seed(cfg.seed), "config": chash}
            row.update({f"b_{k}": v for k, v in
                        structural_bounds(params, float(weights.W[0])).items()})
            rows.append(row)
    return rows
