"""Explicit couplings between graph neighbourhoods and limiting trees.

The pipeline has three stages with per-stage break accounting:

1. joint exploration: the ball around a root is explored (``explore``) and
   the intermediate tree is emitted alongside it from Bernoulli/Poisson-
   coupled edge sites, of which only the realized neighbours' can be
   nonzero; the coupling breaks at the first level where a coupled pair
   disagrees, a Poisson child points back into the active set, a fresh
   Poisson copy points into the completed set, or the explored
   connectivity weight exceeds the size threshold k_n;
2. independence repair across roots: a joint breadth-first pass replaces
   repeated vertex types by fresh subtrees so the trees are independent;
3. redraw to the limit: per node, the empirical type is coupled to the
   limiting size-biased law through a shared uniform (the Wasserstein
   optimal coupling) and child counts through maximally coupled Poissons.

Every stage preserves the marginal laws on both sides even when it breaks:
after a break the tree simply keeps growing from fresh randomness, so pooled
tree statistics stay exactly distributed as direct sampling.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .explore import Neighbourhood, explore
from .graph import LazyGraph, WeightedGraph
from .limit_trees import DEFAULT_NODE_BUDGET, grow_intermediate
from .rng import stream_rng
from .trees import RootedWeightedTree
from .weights import EmpiricalSizeBiased, WeightSpec

_COUPLE_TAG = 31

BREAK_X_NEQ_Z = "XneqZ"
BREAK_ACTIVE = "ActiveCollision"
BREAK_COMPLETED = "CompletedCollision"
BREAK_OVERFLOW = "SizeOverflow"
BREAK_REPEAT = "TypeRepeat"
BREAK_REDRAW = "WassersteinRedraw"
BREAK_REASONS = (BREAK_X_NEQ_Z, BREAK_ACTIVE, BREAK_COMPLETED, BREAK_OVERFLOW,
                 BREAK_REPEAT, BREAK_REDRAW)


@dataclass(frozen=True)
class CouplingConfig:
    k_n: float
    depth: int

    def __post_init__(self):
        if not self.k_n > 0:
            raise ValueError("k_n must be positive")
        if self.depth < 0:
            raise ValueError("depth must be non-negative")


@dataclass
class CouplingOutcome:
    root: int
    depth: int
    neighbourhood: Neighbourhood
    tree: RootedWeightedTree
    ok: bool
    break_level: int | None = None
    break_reason: str | None = None
    flags: set = field(default_factory=set)

    def record_break(self, level: int, reason: str) -> None:
        self.flags.add(reason)
        if self.ok:
            self.ok = False
            self.break_level = level
            self.break_reason = reason


# ---- Poisson quantiles --------------------------------------------------------------


# the summed CDF of lam reaches every u up to _SURELY_REACHED: exp(-lam) is
# a normal double, as _poisson_p0 refuses the rest, so its sum to the cap is
# off by less than 1e-12
_SURELY_REACHED = 1.0 - 2.0 ** -30


def _poisson_p0(lam: np.ndarray) -> np.ndarray:
    """P(Poisson(lam) = 0), refusing lam where exp(-lam) is not a normal
    double (lam above about 708.396): a subnormal keeps too few digits for
    the summed CDF to reach 1, and 0 none.

    The exp is libm's, per element, as the arrays are ball-sized: numpy's
    exp returns bits that follow its SIMD dispatch.
    """
    p0 = np.array([math.exp(-x) for x in lam.ravel().tolist()]).reshape(lam.shape)
    gone = p0 < sys.float_info.min
    if np.any(gone):
        raise ValueError(f"Poisson pmf underflows at lam={float(lam[gone][0])!r}")
    return p0


def poisson_icdf(lam, u):
    """Inverse CDF of Poisson(lam) at u; vectorized, exact summation.

    Each entry is summed up to its own cap lam + 40 sqrt(lam + 1) + 60; an
    entry whose u the summed CDF has not reached by then raises ValueError,
    as does a lam so large that exp(-lam) is subnormal or 0.
    """
    lam = np.asarray(lam, dtype=float)
    u = np.asarray(u, dtype=float)
    lam, u = np.broadcast_arrays(lam, u)
    out = np.zeros(lam.shape, dtype=np.int64)
    pmf = _poisson_p0(lam)
    cdf = pmf.copy()
    unresolved = u > cdf
    cap = _poisson_cap(lam)
    k = 0
    while unresolved.any():
        stuck = unresolved & (k >= cap)
        if np.any(stuck):
            raise ValueError(f"Poisson quantile unresolved after {k} terms at "
                             f"lam={float(lam[stuck][0])!r}, u={float(u[stuck][0])!r}")
        k += 1
        pmf = pmf * lam / k
        cdf = cdf + pmf
        out[unresolved & (u <= cdf)] = k
        unresolved = u > cdf
    return out


def _poisson_cap(lam):
    """The last term that :func:`poisson_icdf` sums for lam."""
    return np.floor(lam + 40.0 * np.sqrt(lam + 1.0) + 60.0)


def _poisson_top_quantile(lam: float, u: float) -> int:
    """:func:`poisson_icdf` at u, or at the top of its summed CDF where u is above it."""
    if u > _SURELY_REACHED:
        u = min(u, poisson_cdf_interval(int(_poisson_cap(lam)), lam)[1])
    return int(poisson_icdf(lam, u))


def poisson_cdf_interval(k: int, lam: float) -> tuple[float, float]:
    """(F(k-1), F(k)) for Poisson(lam), summed exactly like poisson_icdf.

    Sharing the summation with the inverse guarantees that a uniform drawn
    inside this interval inverts back to k bit-for-bit.
    """
    pmf = _poisson_p0(np.asarray(lam, dtype=float))
    cdf = pmf
    lo = 0.0
    for j in range(1, k + 1):
        lo = cdf
        pmf = pmf * lam / j
        cdf = cdf + pmf
    return lo, cdf


# ---- stage 1: neighbourhood to intermediate tree -----------------------------------


def couple_neighbourhood_to_intermediate(graph: LazyGraph, root: int,
                                         cfg: CouplingConfig, rng: np.random.Generator
                                         ) -> CouplingOutcome:
    """Explore the ball and emit the coupled intermediate tree alongside it.

    The graph side is the plain breadth-first exploration of the realized
    ball.  The tree side visits the ball's vertices v_j in the same order
    and, while the coupling holds, gives v_j the coupled Poisson Z for every
    unexplored or active type and fresh copies Z* for the completed types
    and the diagonal, so it is distributed as the intermediate tree whether
    or not the coupling breaks.  Breaks are data, not errors.

    Only the sites of v_j's realized, not yet completed neighbours are
    evaluated.  At any other unexplored or active site X = 0, so the shared
    uniform is aux (1 - p'_e) <= 1 - p'_e <= exp(-p'), which is P(Z = 0): its
    Z is 0, agrees with X and names no child.  Hence the coupling breaks
    with XneqZ when some neighbour site has Z != 1, else with
    ActiveCollision when a neighbour of v_j is already active, else with
    CompletedCollision when some Z* > 0.  On a break v_j's children are its
    Z and Z* types in random order, and the unfinished part of the tree
    grows on from fresh randomness with the empirical size-biased law of
    the graph's weights.
    """
    nb = explore(graph, root, cfg.depth)
    W = graph.weights.W
    position = {v: i for i, v in enumerate(nb.vertices())}
    tree = RootedWeightedTree(W[root], cfg.depth, root_label=int(root))
    outcome = CouplingOutcome(root=root, depth=cfg.depth, neighbourhood=nb, tree=tree,
                              ok=True)
    completed: list[int] = []  # ascending
    weight_seen = float(W[root])
    tree_level = [0]
    detached: list[int] = []

    for r in range(cfg.depth):
        tree_next: list[int] = []
        for i, vj in enumerate(nb.levels[r]):
            sites = np.array([u for u in graph.neighbors(vj).tolist()
                              if position[u] > position[vj]], dtype=np.int64)
            pprime = graph.p_prime(vj, sites)
            pe = np.minimum(pprime, 1.0)
            z = poisson_icdf(pprime, 1.0 - pe + graph.coupling_uniform(vj, sites) * pe)
            stars = np.append(np.array(completed, dtype=np.int64), vj)
            zstar = poisson_icdf(graph.p_prime(vj, stars),
                                 graph.zstar_uniform(root, vj, stars))
            if np.any(z != 1):
                reason = BREAK_X_NEQ_Z
            elif sites.size > len(nb.children[vj]):
                reason = BREAK_ACTIVE
            elif np.any(zstar > 0):
                reason = BREAK_COMPLETED
            else:
                tree_next.extend(tree.add_child(tree_level[i], W[u], label=u)
                                 for u in nb.children[vj])
                bisect.insort(completed, vj)
                continue
            types = np.concatenate((np.repeat(sites, z), np.repeat(stars, zstar)))
            kids = [tree.add_child(tree_level[i], W[u], label=int(u))
                    for u in rng.permutation(types)]
            outcome.record_break(r + 1, reason)
            detached = tree_level[i + 1:] + tree_next + kids
            break
        if not outcome.ok:
            break
        for u in nb.levels[r + 1]:
            weight_seen += float(W[u])
        if weight_seen > cfg.k_n:
            outcome.record_break(r + 1, BREAK_OVERFLOW)
            detached = tree_next
            break
        tree_level = tree_next

    if detached:
        grow_intermediate(tree, detached, graph.weights.size_biased, rng,
                          DEFAULT_NODE_BUDGET)
    return outcome


# ---- stage 2: independence repair across roots --------------------------------------


def repair_independence(outcomes: list[CouplingOutcome], law: EmpiricalSizeBiased,
                        rng: np.random.Generator) -> list[CouplingOutcome]:
    """Replace repeated vertex types by fresh subtrees, level by level.

    The joint breadth-first pass keeps the first occurrence of every type;
    later occurrences (across or within trees) are replaced by independent
    subtrees of the remaining height with the empirical size-biased
    offspring law.  A replaced node flags its outcome as a type repeat.
    """
    roots = [o.root for o in outcomes]
    if len(set(roots)) != len(roots):
        raise ValueError("roots must be pairwise distinct")
    seen: set[int] = set(int(r) for r in roots)

    depth = max((o.tree.depth for o in outcomes), default=0)
    rebuilt = [RootedWeightedTree(o.tree.type_w[0], o.tree.depth,
                                  o.tree.vertex_w[0], o.tree.labels[0])
               for o in outcomes]
    # per outcome: map new node -> (source node in old tree | None if fresh)
    frontier = [{0: 0} for _ in outcomes]
    repeated = [None] * len(outcomes)

    for r in range(1, depth + 1):
        new_frontier: list[dict[int, int | None]] = [dict() for _ in outcomes]
        for t, out in enumerate(outcomes):
            old = out.tree
            new = rebuilt[t]
            if r > old.depth:
                continue
            for new_node, src in frontier[t].items():
                if src is not None:
                    kids = old.children[src]
                    kid_types = [(old.labels[c], c) for c in kids]
                else:
                    kid_types = [(int(j), None)
                                 for j in law.offspring(new.labels[new_node], rng)]
                for label, old_child in kid_types:
                    label = int(label)
                    if label in seen and old_child is not None:
                        if repeated[t] is None:
                            repeated[t] = r
                        label = law.draw(rng)
                        old_child = None
                    seen.add(label)
                    child = new.add_child(new_node, law.W[label], label=label)
                    new_frontier[t][child] = old_child
        frontier = new_frontier

    result = []
    for t, out in enumerate(outcomes):
        new_out = replace(out, tree=rebuilt[t], flags=set(out.flags))
        if repeated[t] is not None:
            new_out.record_break(repeated[t], BREAK_REPEAT)
        result.append(new_out)
    return result


# ---- stage 3: intermediate tree to limit tree ---------------------------------------


def couple_intermediate_to_limit(tree: RootedWeightedTree, law: EmpiricalSizeBiased,
                                 spec: WeightSpec, rng: np.random.Generator
                                 ) -> tuple[RootedWeightedTree, int | None]:
    """Redraw the empirical tree into the limit law, node by node.

    Types are coupled through a shared uniform positioned inside the
    empirical size-biased CDF interval of the node's type (the 1-Wasserstein
    optimal coupling); child counts through comonotone Poisson quantiles.
    A matched child keeps its source node's label, the graph vertex it
    stands for; a fresh one has none.  The first node whose count differs
    breaks the coupling; the limit tree still grows to full depth with fresh
    draws so its law is exact.  Returns the limit tree and the break level,
    None when every count matched.
    """
    biased = spec.size_biased()

    root_w = tree.type_w[0]
    out = RootedWeightedTree(root_w, tree.depth, root_label=tree.labels[0])
    break_level: int | None = None

    # queue of (limit node, matched intermediate node or None, offspring mean)
    queue = deque([(0, 0, float(root_w))])
    while queue:
        new_node, src, mean = queue.popleft()
        d = out.node_depth[new_node]
        if d >= tree.depth:
            continue
        if src is None:
            count = int(rng.poisson(mean))
            matched_children: list[int | None] = [None] * count
        else:
            lam_tilde = law.scale * tree.type_w[src]
            n_tilde = len(tree.children[src])
            lo, hi = poisson_cdf_interval(n_tilde, lam_tilde)
            # u stays in (lo, hi], which inverts to n_tilde at lam_tilde:
            # lo + r (hi - lo) rounds onto lo when the interval is a few ulps
            # wide, and lo inverts to n_tilde - 1.  Near the top the summed
            # CDFs stop short of 1 or pass it, so u can pass 1, and the limit
            # mean's sum can stop below u: its count is then its top one
            u = min(max(lo + rng.random() * (hi - lo), math.nextafter(lo, math.inf)), hi)
            count = _poisson_top_quantile(mean, u)
            if count != n_tilde and break_level is None:
                break_level = d + 1
            matched_children = [tree.children[src][t] if t < n_tilde else None
                                for t in range(count)]
        for child_src in matched_children:
            label = None
            if child_src is not None:
                label = tree.labels[child_src]
                ilo, ihi = law.interval(label)
                u = ilo + rng.random() * (ihi - ilo)
                what = float(biased.quantile(min(max(u, 1e-300), 1.0 - 1e-16)))
            else:
                what = float(biased.quantile(rng.random()))
            child = out.add_child(new_node, what, label=label)
            queue.append((child, child_src, what))
    return out, break_level


# ---- weight overlay and the full pipeline -------------------------------------------


def couple_full(graph: LazyGraph, roots: list[int], cfg: CouplingConfig,
                spec: WeightSpec) -> list[CouplingOutcome]:
    """Full pipeline: joint exploration, repair, limit redraw, weight overlay.

    Every stage draws from one generator keyed from the graph's (seed, stream).
    The overlay takes the weight laws mu_e and mu_v the graph was sampled with.
    """
    rng = stream_rng(graph.seed, graph.stream, _COUPLE_TAG)
    stage1 = [couple_neighbourhood_to_intermediate(graph, r, cfg, rng) for r in roots]
    law = graph.weights.size_biased
    repaired = repair_independence(stage1, law, rng)
    final: list[CouplingOutcome] = []
    for out in repaired:
        limit, level = couple_intermediate_to_limit(out.tree, law, spec, rng)
        res = replace(out, tree=limit, flags=set(out.flags))
        if level is not None:
            res.record_break(level, BREAK_REDRAW)
        _overlay_weights(res, graph, rng)
        final.append(res)
    return final


def _overlay_weights(outcome: CouplingOutcome, graph: WeightedGraph,
                     rng: np.random.Generator) -> None:
    """Copy graph weights onto the tree where the coupling holds end to end.

    A fully coupled tree is the ball node for node, and each node's label is
    the graph vertex it stands for, so its shared sites receive exactly the
    graph's weights; otherwise the tree gets fresh i.i.d. weights, keeping
    its marginal law intact.  A law the graph lacks draws nothing.
    """
    tree = outcome.tree
    labels = tree.labels
    mu_v, mu_e = graph.mu_v, graph.mu_e
    for node in range(tree.node_count):
        if mu_v is not None:
            tree.vertex_w[node] = (graph.vertex_weight(labels[node]) if outcome.ok
                                   else float(mu_v.quantile(rng.random())))
        if node != 0 and mu_e is not None:
            tree.edge_w[node] = (graph.edge_weight(labels[tree.parent[node]], labels[node])
                                 if outcome.ok else float(mu_e.quantile(rng.random())))
