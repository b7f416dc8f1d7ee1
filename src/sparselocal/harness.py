"""Monte Carlo experiment drivers: replication, estimators, trend tables.

Replicas are embarrassingly parallel and keyed by their stream id, so
splitting a replica range across any number of workers reproduces the same
pooled results bit for bit; aggregation is a deterministic fold in replica
order.  A worker gets everything a replica needs with its task, so this
holds under any process start method.  Central-limit experiments condition
on a single realized weight vector per n (weights are drawn once per
(n, seed) and frozen across replicas).  There one task is one replica
stream across the whole n grid: it samples the stream's graph at every n
from one generator, seeded once and set back to its initial state before
each n, and its edge sums draw their vertex weights, or its
matchings their edge weights, which depend on the stream alone, once for
all of them.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from functools import partial

import numpy as np
from scipy.special import ndtr

from . import matching as app
from .bounds import (BoundParams, VertexSetSummary, default_k_n, epsilon_rho_sequences,
                     epsilon_v_bound, eta_bound, structural_bounds)
from .coupling import BREAK_REASONS, CouplingConfig, couple_full
from .graph import LazyGraph, sample_graph, sampler_rng
from .limit_trees import RDE_MIN_POP_SIZE
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
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1; got {self.workers}")
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
        if self.roots < 1:
            raise ValueError(f"roots must be at least 1; got {self.roots}")
        if self.roots > min(self.n_grid):
            raise ValueError(f"roots ({self.roots}) must not exceed the smallest n "
                             f"({min(self.n_grid)})")

    def check_clt(self) -> None:
        """The checks of the ``clt`` command."""
        if self.replicas < 2:
            raise ValueError(f"clt needs at least 2 replicas; got {self.replicas}")
        if self.application == "edge-sum" and self.vertex_weights is None:
            raise ValueError("the edge-sum application needs vertex_weights")
        if self.application == "matching" and self.edge_weights is None:
            raise ValueError("the matching application needs edge_weights")

    def check_rde(self) -> None:
        """The checks of the ``rde`` command."""
        if self.rde_iterations < 1:
            raise ValueError(f"rde_iterations must be at least 1; got {self.rde_iterations}")
        if self.rde_pop_size < RDE_MIN_POP_SIZE:
            raise ValueError(f"rde_pop_size must be at least {RDE_MIN_POP_SIZE}; "
                             f"got {self.rde_pop_size}")

    def k_n(self, n: int) -> float:
        return default_k_n(n) if self.k_n_rule == "cbrt" else float(self.k_n_rule)

    def empirical_weights(self, n: int) -> EmpiricalWeights:
        """The weight vector of grid point n, drawn once and frozen across replicas."""
        return sample_empirical_weights(self.weights, n, self.seed, stream=_WEIGHTS_STREAM + n)

    def canonical_json(self) -> str:
        """The hashed config body: every field but ``seed`` and ``workers``."""
        body = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("seed", "workers")}
        return json.dumps(body, sort_keys=True, separators=(",", ":"),
                          default=WeightSpec.to_config)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    @staticmethod
    def from_dict(cfg: dict) -> "ExperimentConfig":
        """Build from a parsed config file, whose keys are the field names.

        An unknown key, a missing key of a field without default, or a value
        of the wrong JSON type is a ValueError that names the key; ``null``
        stands for an absent optional law only.
        """
        known = {f.name: f for f in fields(ExperimentConfig)}
        kw = {}
        for key, value in cfg.items():
            if key not in known:
                raise ValueError(f"unknown key {key!r}")
            try:
                kw[key] = _PARSERS[known[key].type](value)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from exc
        for f in known.values():
            if f.default is MISSING and f.name not in cfg:
                raise ValueError(f"missing key {f.name!r}")
        return ExperimentConfig(**kw)


def _integer(value) -> int:
    """A config count: a JSON number with an integral value."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ValueError(f"must be an integer; got {value!r}")
    return int(value)


def _integers(value) -> list[int]:
    if not isinstance(value, list):
        raise ValueError(f"must be a list of integers; got {value!r}")
    return [_integer(x) for x in value]


# the parser of a config value, by its field's annotation (a string, as this module
# postpones annotations); ExperimentConfig checks what the values must satisfy together
_PARSERS = {
    "WeightSpec": WeightSpec.from_config,
    "WeightSpec | None": lambda value: None if value is None else WeightSpec.from_config(value),
    "list[int]": _integers,
    "int": _integer,
    "tuple[int, int]": parse_seed,
    "str": lambda value: value,
    "str | float": lambda value: value,
}


# ---- estimators -----------------------------------------------------------------------


def ks_to_normal(samples) -> float:
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
    return max(d_plus, d_minus)


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


def _clt_replica(grid, seed, application, mu_v, mu_e, stream: int) -> list[float]:
    """f(G) of one replica stream's graph at every grid point, in grid order.

    The graphs share one generator, seeded once and set back to its
    initial state before each graph.  The edge sums of all grid
    points take their vertex weights, and the matchings their edge
    weights, which depend on (seed, stream) alone, from one draw; the
    matchings are then solved one graph at a time.
    """
    try:
        gen = sampler_rng(seed, stream)
        start = gen.bit_generator.state
        graphs = []
        for weights in grid:
            gen.bit_generator.state = start
            graphs.append(sample_graph(weights, seed, stream, mu_v=mu_v, mu_e=mu_e, gen=gen))
        if application == "edge-sum":
            return app.dependent_edge_sum(graphs)
        return [m.value for m in app.max_weight_matchings(graphs)]
    except Exception as exc:
        raise ReplicaFailure(f"replica {stream}: {exc}") from exc


def _coupling_replica(weights, seed, couplings, spec, mu_v, mu_e, roots, stream: int
                      ) -> list[list[tuple[int, bool, int | None, str | None]]]:
    """Per depth, one (root, ok, break level, reason) tuple per root.

    The replica's graph is a :class:`LazyGraph` on (seed, stream): it draws
    the row of a vertex when a ball first reads it and keeps it, so every
    root and every depth explores the same graph, and the depth-l ball is
    the depth-(l + 1) ball cut at level l.  A root costs O(its ball), not
    O(n + m); what a replica shares with the others of its n (the bucket
    plan, the size-biased law) is built once per n, on the first replica.
    """
    try:
        graph = LazyGraph(weights, seed, stream, mu_v=mu_v, mu_e=mu_e)
        return [[(o.root, o.ok, o.break_level, o.break_reason)
                 for o in couple_full(graph, list(roots), cfg, spec)]
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
    """Standardize f(G_n) over replicas, per n: sigma^2, KS to normal, trend.

    One task is one replica stream across the whole grid; each n's values
    are then folded in replica order from their own column.
    """
    rows = []
    chash = cfg.config_hash()
    grid = [cfg.empirical_weights(n) for n in cfg.n_grid]
    replica = partial(_clt_replica, grid, cfg.seed, cfg.application,
                      cfg.vertex_weights, cfg.edge_weights)
    with _replica_map(cfg.workers, cfg.replicas) as map_replicas:
        table = np.array(list(map_replicas(replica, range(cfg.replicas))))
    for n, column in zip(cfg.n_grid, table.T):
        values = np.ascontiguousarray(column)
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
            row["ks"] = ks_to_normal(z)
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
            vs = VertexSetSummary.of(weights, roots)
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
                bound = epsilon_v_bound(params, vs)
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
        vs = VertexSetSummary.of(weights, range(cfg.roots))
        for ell in range(1, cfg.depth + 1):
            params = BoundParams.from_summary(n, ell, summ, cfg.weights, k_n=cfg.k_n(n))
            eps, rho = epsilon_rho_sequences(params)
            row = {"n": n, "ell": ell, "k_n": cfg.k_n(n), "alpha_n": summ.alpha_n,
                   "eta": eta_bound(params, vs),
                   "epsilon_v": epsilon_v_bound(params, vs),
                   "epsilon": eps, "rho": rho, "C": params.C, "C0": params.C0,
                   "seed": format_seed(cfg.seed), "config": chash}
            row.update({f"b_{k}": v for k, v in
                        structural_bounds(params, float(weights.W[0])).items()})
            rows.append(row)
    return rows
