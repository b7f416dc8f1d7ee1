"""The intermediate tree's grower and the matching recursion's operator.

The intermediate tree is built from the empirical weights: the root of type
W_v has Poi(W_v Lambda_n/(n theta)) children, non-root individuals pick a
graph vertex with probability W_i/Lambda_n and have
Poi(Lambda_n W_i/(n theta)) children.  Stage 1 of the coupling grows what it
leaves detached with this law; stage 3 redraws the tree into the delayed
Galton-Watson limit, where the root has Poi(W) children and every other
individual draws its type What from the size-biased law and then has
Poi(What) children.

The distributional operator of the matching recursion maps a particle
population to max(0, max_i (xi_i - X_i)) with a mixed-Poisson number of
terms; iterating it (population dynamics) approximates the fixed point of
its square, tracking even and odd iterates separately because the recursion
oscillates between levels.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .rng import stream_rng
from .trees import RootedWeightedTree
from .weights import EmpiricalSizeBiased, WeightSpec

_RDE_TAG = 23

DEFAULT_NODE_BUDGET = 1_000_000
RDE_MIN_POP_SIZE = 1000


class TreeBudgetExceeded(RuntimeError):
    """Raised when a sampled tree grows past the node budget."""


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
    """Particle approximation of a distribution on [0, inf).

    ``particles`` is read-only once built: :meth:`sorted` keeps the copy it
    sorts.
    """

    particles: np.ndarray
    _ascending: np.ndarray | None = field(default=None, init=False, repr=False,
                                          compare=False)

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
        """The particles in ascending order, sorted on the first call and kept.

        :func:`rde_apply` samples from this copy and :func:`population_w1`
        couples through it, so an iterate of :func:`rde_fixed_point` is
        sorted once.
        """
        if self._ascending is None:
            self._ascending = np.sort(self.particles)
        return self._ascending

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


def rde_apply(pop: Population, spec: WeightSpec, rng: np.random.Generator) -> Population:
    """One application of the distributional operator.

    Each output particle is max(0, max_{i<=N} (xi_i - X_i)) with
    N mixed-Poisson over the size-biased law, xi_i ~ Exp(1) and X_i drawn
    uniformly from the (sorted) input population.

    The size-biased type of each particle is drawn per family: a gamma law
    (the size bias of gamma(a, s) is gamma(a + 1, s)) by the generator's
    own gamma sampler, a constant or finite law by its quantile at one
    uniform per particle.  Both give the same law; the gamma sampler spares
    an inverse incomplete gamma function per particle.
    """
    m = pop.size
    biased = spec.size_biased()
    if biased.family == "gamma":
        what = rng.gamma(biased.shape, biased.scale, m)
    else:
        what = biased.quantile(rng.random(m))
    counts = rng.poisson(what)
    total = int(counts.sum())
    out = np.zeros(m)
    if total:
        terms = rng.exponential(1.0, total)
        terms -= pop.sorted()[rng.integers(0, m, total)]
        np.maximum.at(out, np.repeat(np.arange(m), counts), terms)
    return Population(out)


@dataclass
class RdeDiagnostics:
    gaps: list[float]                 # W1(T^{2k} delta_0, T^{2k+1} delta_0) per k
    converged: bool
    final_even: Population
    final_odd: Population


def rde_fixed_point(spec: WeightSpec, pop_size: int, iterations: int,
                    seed: tuple[int, int]) -> RdeDiagnostics:
    """Population dynamics from delta_0, tracking even/odd iterates.

    The recursion oscillates between even and odd levels, so convergence is
    reported as the W1 gap between consecutive even/odd iterates.  A stalled
    gap (no decrease over the last five pairs) flags non-convergence rather
    than being silently accepted.  The diagnostics carry the last even and
    odd iterates; the ``rde`` command writes the even one.

    Only the previous and the current iterate are alive at any time: the
    gap W1(T^{2k} delta_0, T^{2k+1} delta_0) is taken as each odd iterate
    lands.  Each live iterate holds its particles and its sorted copy, so
    the memory held is a few times ``pop_size`` floats (plus the operator's
    per-term arrays, E[N] per particle), whatever ``iterations`` is.
    """
    if pop_size < RDE_MIN_POP_SIZE:
        raise ValueError(f"population dynamics needs pop_size >= {RDE_MIN_POP_SIZE}")
    if iterations < 1:
        raise ValueError("population dynamics needs at least one iteration")
    cur = Population(np.zeros(pop_size))
    gaps = []
    for it in range(iterations):
        prev = cur  # drops the iterate before it
        cur = rde_apply(prev, spec, stream_rng(seed, it, _RDE_TAG))
        if it % 2 == 0:  # cur is T^{it+1} delta_0, an odd iterate
            gaps.append(population_w1(prev, cur))
    # stalled means: the last five gaps all sit above the best earlier gap by
    # more than the W1 sampling-noise scale of the particle populations
    noise = 2.0 / np.sqrt(pop_size)
    converged = True
    if len(gaps) >= 6:
        converged = min(gaps[-5:]) <= min(gaps[:-5]) + noise
    evens, odds = (cur, prev) if iterations % 2 == 0 else (prev, cur)
    return RdeDiagnostics(gaps=gaps, converged=converged, final_even=evens, final_odd=odds)
