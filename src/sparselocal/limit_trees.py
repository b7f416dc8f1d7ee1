"""Samplers for the limiting objects and the matching recursion's operator.

Two tree laws appear downstream:

* the delayed Galton-Watson limit tree: the root has Poi(W) children, every
  other individual draws its type What from the size-biased law and then has
  Poi(What) children;
* the intermediate tree built from the empirical weights: the root of type
  W_v has Poi(W_v Lambda_n/(n theta)) children, non-root individuals pick a
  graph vertex with probability W_i/Lambda_n and have
  Poi(Lambda_n W_i/(n theta)) children.

The distributional operator of the matching recursion maps a particle
population to max(0, max_i (xi_i - X_i)) with a mixed-Poisson number of
terms; iterating it (population dynamics) approximates the fixed point of
its square, tracking even and odd iterates separately because the recursion
oscillates between levels.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .rng import stream_rng
from .trees import RootedWeightedTree
from .weights import EmpiricalSizeBiased, EmpiricalWeights, WeightSpec

_LIMIT_TAG = 21
_IMT_TAG = 22
_RDE_TAG = 23

DEFAULT_NODE_BUDGET = 1_000_000


class TreeBudgetExceeded(RuntimeError):
    """Raised when a sampled tree grows past the node budget."""


def _maybe_weight(spec: WeightSpec | None, rng) -> float:
    return float(spec.quantile(rng.random())) if spec is not None else np.nan


def sample_limit_tree(W: float, spec: WeightSpec, mu_e: WeightSpec | None,
                      mu_v: WeightSpec | None, depth: int,
                      seed: tuple[int, int] | None = None, stream: int = 0,
                      rng: np.random.Generator | None = None,
                      max_nodes: int = DEFAULT_NODE_BUDGET) -> RootedWeightedTree:
    """Draw the depth-``depth`` cut of the delayed Galton-Watson tree."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if rng is None:
        rng = stream_rng(seed, stream, _LIMIT_TAG)
    biased = spec.size_biased()
    tree = RootedWeightedTree(W, depth, _maybe_weight(mu_v, rng))
    frontier = [(0, float(W))]  # (node id, offspring mean)
    for d in range(depth):
        nxt = []
        for node, mean in frontier:
            k = rng.poisson(mean)
            if tree.node_count + k > max_nodes:
                raise TreeBudgetExceeded(f"limit tree exceeded {max_nodes} nodes")
            for _ in range(k):
                what = float(biased.quantile(rng.random()))
                child = tree.add_child(node, what, _maybe_weight(mu_e, rng),
                                       _maybe_weight(mu_v, rng))
                nxt.append((child, what))
        frontier = nxt
    return tree


def sample_intermediate_tree(weights: EmpiricalWeights, v: int, depth: int,
                             seed: tuple[int, int] | None = None, stream: int = 0,
                             rng: np.random.Generator | None = None,
                             max_nodes: int = DEFAULT_NODE_BUDGET) -> RootedWeightedTree:
    """Draw the n-type intermediate tree rooted at vertex v.

    Node labels are the graph vertex ids the types came from; the coupling
    and the independence repair rely on them.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if rng is None:
        rng = stream_rng(seed, stream, _IMT_TAG)
    tree = RootedWeightedTree(weights.W[v], depth, root_label=int(v))
    grow_intermediate(tree, [0], weights.size_biased, rng, max_nodes)
    return tree


def grow_intermediate(tree: RootedWeightedTree, frontier: list[int],
                      law: EmpiricalSizeBiased, rng: np.random.Generator,
                      max_nodes: int) -> None:
    """Grow the frontier nodes breadth first to the tree's depth with the
    intermediate law: every node draws its children from ``law``."""
    queue = deque(frontier)
    while queue:
        node = queue.popleft()
        if tree.node_depth[node] >= tree.depth:
            continue
        picks = law.offspring(tree.labels[node], rng)
        if tree.node_count + picks.size > max_nodes:
            raise TreeBudgetExceeded(f"intermediate tree exceeded {max_nodes} nodes")
        for j in picks:
            queue.append(tree.add_child(node, law.W[j], label=int(j)))


# ---- population dynamics for the matching recursion -------------------------------


@dataclass
class Population:
    """Particle approximation of a distribution on [0, inf)."""

    particles: np.ndarray

    def __post_init__(self):
        self.particles = np.asarray(self.particles, dtype=float)
        if self.particles.ndim != 1 or self.particles.size == 0:
            raise ValueError("population must be a non-empty vector")
        if not np.all(np.isfinite(self.particles)):
            raise ValueError("population particles must be finite")

    @property
    def size(self) -> int:
        return int(self.particles.size)

    def sorted(self) -> np.ndarray:
        return np.sort(self.particles)

    def to_csv(self, path) -> None:
        """One particle per line as %.17g: the bytes of ``np.savetxt``, a block per write.

        Blocks of 2^14 particles keep the formatted text from adding to the
        peak memory of a large population.
        """
        with open(path, "w") as fh:
            for start in range(0, self.size, 1 << 14):
                block = self.particles[start:start + (1 << 14)].tolist()
                fh.write("".join(["%.17g\n" % x for x in block]))


def population_w1(a: Population, b: Population) -> float:
    """W1 between two equal-size particle populations (sorted coupling)."""
    if a.size != b.size:
        raise ValueError("populations must have equal size")
    return float(np.mean(np.abs(a.sorted() - b.sorted())))


def rde_apply(pop: Population, spec: WeightSpec,
              seed: tuple[int, int] | None = None, stream: int = 0,
              rng: np.random.Generator | None = None) -> Population:
    """One application of the distributional operator.

    Each output particle is max(0, max_{i<=N} (xi_i - X_i)) with
    N mixed-Poisson over the size-biased law, xi_i ~ Exp(1) and X_i drawn
    uniformly from the (sorted) input population.
    """
    if rng is None:
        rng = stream_rng(seed, stream, _RDE_TAG)
    m = pop.size
    biased = spec.size_biased()
    what = biased.quantile(rng.random(m))
    counts = rng.poisson(what)
    total = int(counts.sum())
    out = np.zeros(m)
    if total:
        xi = rng.exponential(1.0, total)
        xs = pop.sorted()[rng.integers(0, m, total)]
        np.maximum.at(out, np.repeat(np.arange(m), counts), xi - xs)
    return Population(out)


@dataclass
class RdeDiagnostics:
    gaps: list[float]                 # W1(T^{2k} delta_0, T^{2k+1} delta_0) per k
    iterations: int
    converged: bool
    final_even: Population
    final_odd: Population


def rde_fixed_point(spec: WeightSpec, pop_size: int, iterations: int,
                    seed: tuple[int, int], stream: int = 0) -> tuple[Population, RdeDiagnostics]:
    """Population dynamics from delta_0, tracking even/odd iterates.

    The recursion oscillates between even and odd levels, so convergence is
    reported as the W1 gap between consecutive even/odd iterates.  A stalled
    gap (no decrease over the last five pairs) flags non-convergence rather
    than being silently accepted.
    """
    if pop_size < 1000:
        raise ValueError("population dynamics needs pop_size >= 1000")
    pops = [Population(np.zeros(pop_size))]
    for it in range(iterations):
        pops.append(rde_apply(pops[-1], spec, seed, stream=stream * 100003 + it))
    gaps = [population_w1(pops[2 * k], pops[2 * k + 1])
            for k in range(len(pops) // 2)]
    # stalled means: the last five gaps all sit above the best earlier gap by
    # more than the W1 sampling-noise scale of the particle populations
    noise = 2.0 / np.sqrt(pop_size)
    converged = True
    if len(gaps) >= 6:
        converged = min(gaps[-5:]) <= min(gaps[:-5]) + noise
    evens = pops[-1] if (len(pops) - 1) % 2 == 0 else pops[-2]
    odds = pops[-1] if (len(pops) - 1) % 2 == 1 else pops[-2]
    return evens, RdeDiagnostics(gaps=gaps, iterations=iterations, converged=converged,
                                 final_even=evens, final_odd=odds)
