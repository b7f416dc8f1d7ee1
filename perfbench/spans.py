"""Timing spans around the public calls of each sparselocal layer.

The traced run installs wrappers from here, so no program source changes.
A wrapper records one span per call: name, start, end, parent span, run id
and counts taken from the arguments and the return value.  Spans stay in
memory and are written out once, when the traced process ends.

Each wrapper replaces the function at every name it can be looked up
through: the defining module and every name in a loaded sparselocal module
bound to it (for example ``harness.sample_graph`` and
``cli.rde_fixed_point``), so a refactor that moves an import is still
traced.  Methods are replaced on their class.  Two gaps are deliberate:
``explore.explore`` runs in no workload (stage 1 does its own breadth-first
search), and ``trees.add_child`` is too fine-grained to wrap, so tree sizes
come from the coupling outcomes instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

PACKAGE = "sparselocal"


def _size(x) -> int:
    return int(np.size(x))


def _couple_counts(args, kwargs, result) -> dict:
    return {"roots": len(result),
            "ball_vertices": sum(o.neighbourhood.vertex_count for o in result),
            "tree_nodes": sum(o.tree.node_count for o in result),
            "ok": sum(int(o.ok) for o in result)}


# span name (the definition's dotted path) -> counts taken from one call
TARGETS = {
    "weights.sample_empirical_weights": None,
    "weights.moments": None,
    "weights.WeightSpec.quantile": lambda a, k, r: {"values": _size(r)},
    "graph.sample_graph": None,
    "graph.WeightedGraph.__init__": lambda a, k, r: {"edges": a[0].num_edges},
    "graph.WeightedGraph.vertex_weight": lambda a, k, r: {"values": _size(r)},
    "graph.WeightedGraph.edge_weight": lambda a, k, r: {"values": _size(r)},
    "rng.SiteRandom.uniform": lambda a, k, r: {"values": _size(r)},
    "coupling.couple_full": _couple_counts,
    "coupling.couple_neighbourhood_to_intermediate": None,
    "coupling.repair_independence": None,
    "coupling.couple_intermediate_to_limit": None,
    "coupling.poisson_icdf": None,
    "coupling.poisson_cdf_interval": None,
    "matching.max_weight_matching": None,
    "matching.dependent_edge_sum": None,
    "limit_trees.rde_fixed_point": None,
    "limit_trees.rde_apply": lambda a, k, r: {"particles": a[0].size},
    "limit_trees.population_w1": None,
    "bounds.BoundParams.from_summary": None,
    "bounds.epsilon_v_bound": None,
    "bounds.eta_bound": None,
    "harness.coupling_experiment": None,
    "harness.clt_experiment": None,
    "harness.estimate_variance": None,
    "harness.ks_to_normal": None,
    "cli.main": None,
}

# per-layer self-time metric -> the spans whose self time it sums; every
# span name is in exactly one, so the sums partition the traced wall time
SELF_TIME_METRICS = {
    "weights.sample_s": ("weights.sample_empirical_weights",),
    "weights.moments_s": ("weights.moments",),
    "weights.quantile_s": ("weights.WeightSpec.quantile",),
    "graph.sample_s": ("graph.sample_graph",),
    "graph.csr_s": ("graph.WeightedGraph.__init__",),
    "graph.site_weight_s": ("graph.WeightedGraph.vertex_weight",
                            "graph.WeightedGraph.edge_weight"),
    "rng.uniform_s": ("rng.SiteRandom.uniform",),
    "coupling.stage1_s": ("coupling.couple_neighbourhood_to_intermediate",),
    "coupling.stage2_s": ("coupling.repair_independence",),
    "coupling.stage3_s": ("coupling.couple_intermediate_to_limit",),
    "coupling.overlay_s": ("coupling.couple_full",),
    "coupling.poisson_s": ("coupling.poisson_icdf", "coupling.poisson_cdf_interval"),
    "matching.exact_s": ("matching.max_weight_matching",),
    "matching.edge_sum_s": ("matching.dependent_edge_sum",),
    "limit_trees.rde_s": ("limit_trees.rde_apply", "limit_trees.rde_fixed_point"),
    "limit_trees.w1_s": ("limit_trees.population_w1",),
    "bounds.eval_s": ("bounds.BoundParams.from_summary", "bounds.epsilon_v_bound",
                      "bounds.eta_bound"),
    "harness.self_s": ("harness.coupling_experiment", "harness.clt_experiment"),
    "harness.estimators_s": ("harness.estimate_variance", "harness.ks_to_normal"),
    "cli.self_s": ("cli.main",),
}

COUNT_METRICS = (
    "weights.quantile_values", "graph.calls", "graph.edges", "graph.us_per_edge",
    "graph.site_weight_values", "rng.uniform_calls", "rng.uniform_values",
    "coupling.poisson_calls", "coupling.roots", "coupling.ball_vertices",
    "coupling.tree_nodes", "coupling.ok_share", "coupling.stage1_us_per_ball_vertex",
    "matching.exact_calls", "limit_trees.rde_particle_steps",
    "trace.overhead_share", "trace.coverage_share",
)

UNITS = {name: "s" for name in SELF_TIME_METRICS}
UNITS.update({name: "count" for name in COUNT_METRICS})
UNITS.update({"graph.us_per_edge": "us", "coupling.stage1_us_per_ball_vertex": "us",
              "coupling.ok_share": "ratio", "trace.overhead_share": "ratio",
              "trace.coverage_share": "ratio"})
LAYER_METRICS = tuple(SELF_TIME_METRICS) + COUNT_METRICS


def _raw(owner, attr: str):
    """The attribute as stored: a class's staticmethod object, not its function."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Recorder:
    """In-memory span list; a span is [name, start_ns, end_ns, parent, run, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.run, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        wrapper.__perfbench_span__ = name
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, _raw(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Recorder":
        """Wrap every target at its definition and at every module name bound to it."""
        for name in TARGETS:
            importlib.import_module(f"{PACKAGE}.{name.split('.')[0]}")
        modules = package_modules()
        for name, count in TARGETS.items():
            mod, *path = name.split(".")
            owner = modules[mod]
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            raw = _raw(owner, attr)
            is_static = isinstance(raw, staticmethod)
            original = raw.__func__ if is_static else raw
            wrapper = self.wrap(original, name, count)
            self._patch(owner, attr, staticmethod(wrapper) if is_static else wrapper)
            if isinstance(owner, type):
                continue
            for other in modules.values():
                for alias in [a for a, v in vars(other).items() if v is original]:
                    self._patch(other, alias, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def package_modules() -> dict:
    """Loaded sparselocal modules by short name; the package itself is ``""``."""
    return {name[len(PACKAGE) + 1:]: module for name, module in list(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))}


# ---- analysis ---------------------------------------------------------------------


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, run, counts in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, run, counts) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list[list], traced_wall_s: float,
                  untraced_wall_s: float) -> dict[str, float]:
    """The per-layer table of one traced run, from its spans."""
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, dict[str, int]] = {}
    for span, own in zip(spans, selfs):
        name = span[0]
        by_name[name] = by_name.get(name, 0.0) + own * 1e-9
        calls[name] = calls.get(name, 0) + 1
        for key, value in (span[5] or {}).items():
            bucket = counts.setdefault(name, {})
            bucket[key] = bucket.get(key, 0) + value

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    out = {metric: sum(by_name.get(s, 0.0) for s in names)
           for metric, names in SELF_TIME_METRICS.items()}
    edges = count("graph.WeightedGraph.__init__", "edges")
    roots = count("coupling.couple_full", "roots")
    ball = count("coupling.couple_full", "ball_vertices")
    out.update({
        "weights.quantile_values": count("weights.WeightSpec.quantile", "values"),
        "graph.calls": calls.get("graph.sample_graph", 0),
        "graph.edges": edges,
        "graph.us_per_edge": out["graph.csr_s"] * 1e6 / edges if edges else 0.0,
        "graph.site_weight_values": (count("graph.WeightedGraph.vertex_weight", "values")
                                     + count("graph.WeightedGraph.edge_weight", "values")),
        "rng.uniform_calls": calls.get("rng.SiteRandom.uniform", 0),
        "rng.uniform_values": count("rng.SiteRandom.uniform", "values"),
        "coupling.poisson_calls": (calls.get("coupling.poisson_icdf", 0)
                                   + calls.get("coupling.poisson_cdf_interval", 0)),
        "coupling.roots": roots,
        "coupling.ball_vertices": ball,
        "coupling.tree_nodes": count("coupling.couple_full", "tree_nodes"),
        "coupling.ok_share": count("coupling.couple_full", "ok") / roots if roots else 0.0,
        "coupling.stage1_us_per_ball_vertex": (out["coupling.stage1_s"] * 1e6 / ball
                                               if ball else 0.0),
        "matching.exact_calls": calls.get("matching.max_weight_matching", 0),
        "limit_trees.rde_particle_steps": count("limit_trees.rde_apply", "particles"),
        "trace.overhead_share": traced_wall_s / untraced_wall_s - 1.0,
        "trace.coverage_share": sum(out[m] for m in SELF_TIME_METRICS) / traced_wall_s,
    })
    return out
