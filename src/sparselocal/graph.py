"""Sparse weighted rank-one inhomogeneous random graphs.

An edge between u and v is present independently with probability

    p_uv = min(W_u W_v / (n theta), 1).

Generation never touches all n^2 pairs: vertices are grouped into
power-of-two weight buckets, candidate pairs inside a bucket pair are drawn
by geometric skip sampling at the bucket's uniform probability bound, and
each candidate is then thinned to its exact p_uv.  The expected cost is
O(n + edges).  The buckets depend on the weights alone, so their plan is
built once per n (``weights.bucket_plan``), with the vertex order by bucket
and the weights in that order.  A graph then spends per bucket pair just
the two generator calls the stream needs, the geometric gaps and one
thinning uniform per candidate (a long run takes a few more gap blocks).
Candidates of consecutive pairs are batched and handled in one vectorised
pass once the batch holds ``_FLUSH`` candidates; a pair that draws that
many alone is its own batch and is unranked with its scalar offsets, no
per-candidate gathers.  Each candidate is unranked to its two slots of the
bucket order and thinned on the weights there, whose gathers run nearly in
order, and only the kept ones, about half at n = 1e6, are mapped to
vertices.  The many tiny pairs of a small graph cost one pass, and the
temporaries of a large graph are those of one batch, not of all
candidates.  The batches keep their edges as int32 vertex pairs, and the
graph sorts them once into the edge list it keeps, its one representation:
no command reads a whole graph's rows.

Below n of a few dozen a numpy call's fixed cost, some microseconds, is
what a graph costs, not its O(n + edges) work.  So a bucket pair that
expects fewer than ``_SCALAR_PAIR`` candidates walks its gap block as
Python ints, and a last batch of fewer than ``_SCALAR_BATCH`` candidates is
unranked and thinned one candidate at a time in Python ints and floats.
Both draw what the arrays draw and take the same IEEE operations, so every
edge is the same; the thresholds are where the two paths cost the same.
The sampler's generator (:func:`sampler_rng`) does not depend on n, so
``clt`` seeds it once per replica stream and sets it back before each n.

``couple`` needs only a few balls per replica, so it samples no whole graph.
A :class:`LazyGraph` draws the row of a vertex when a ball first reads it,
with the same bucket plan: per weight bucket, geometric skips at the
bucket's bound for that vertex, then thinning to the exact p_uv.  A row
costs O(degree + number of buckets), so a coupled root costs O(its ball),
not O(n + edges); the plan is built once per n, on the first row.

Everything that is not the realized edge set -- the decorative vertex and
edge weights and the coupling auxiliaries -- is a pure function of (seed,
stream, site) through :mod:`sparselocal.rng`, so lazy weights on all
possible edges need no storage.
Nor does a graph hold the empirical size-biased law the coupling draws types
from: it depends on the weights alone, so it lives with the weights of one n
(``graph.weights.size_biased``) and every replica graph of that n shares it.
"""

from __future__ import annotations

import math

import numpy as np

from . import rng as srng
from .rng import SiteRandom, stream_rng
from .weights import EmpiricalWeights, WeightSpec

_GEN_TAG = 12
_ROW_TAG = 13  # the lazy rows' generator
_FLUSH = 4096  # candidates mapped and thinned per vectorised pass
_SCALAR_PAIR = 40  # a bucket pair expecting fewer candidates walks its gaps in Python ints
_SCALAR_BATCH = 48  # a last batch of fewer candidates is thinned in Python floats


class WeightedGraph:
    """A realized sparse graph, kept as its edge list, with deterministic lazy
    access to all sites.

    Immutable after construction; replicate-level parallelism uses distinct
    stream ids.  The graph keeps one representation, its edge list:
    ``edge_u``/``edge_v``, the endpoints u < v of each edge, in (u, v)
    order.  The constructor takes the endpoints in any order and
    orientation, as int32 or int64 arrays or as lists, forms the keys
    min*n + max and sorts those m keys once.  The commands read the edge
    list whole (the edge sum, the matching), never a row, so the graph
    builds none.  The site functions -- decorative weights, the coupling
    auxiliaries and p'_uv -- are pure functions of (seed, stream, site) and
    of the weights, shared by every graph of one replica.
    """

    def __init__(self, weights: EmpiricalWeights, seed: tuple[int, int], stream: int,
                 edge_u: np.ndarray | list, edge_v: np.ndarray | list,
                 mu_v: WeightSpec | None = None, mu_e: WeightSpec | None = None):
        self._set_sites(weights, seed, stream, mu_v, mu_e)
        n = self.n
        # int32 pairs are widened as they are added, with no int64 copy; a
        # list is read as int64, but [] as float64, hence the unsafe cast
        keys = np.minimum(edge_u, edge_v).astype(np.int64)
        keys *= n
        np.add(keys, np.maximum(edge_u, edge_v), out=keys, casting="unsafe")
        keys.sort()
        self.edge_v = keys % n
        keys //= n
        self.edge_u = keys

    def _set_sites(self, weights: EmpiricalWeights, seed: tuple[int, int], stream: int,
                   mu_v: WeightSpec | None, mu_e: WeightSpec | None) -> None:
        """What the site functions read: the weights, (seed, stream) and the laws."""
        self.weights = weights
        self.n = weights.n
        self.theta = weights.theta
        self.seed = seed
        self.stream = stream
        self.mu_v = mu_v
        self.mu_e = mu_e
        self._sites = SiteRandom(seed, stream)

    @property
    def num_edges(self) -> int:
        return self.edge_u.size

    def p_prime(self, u, v):
        """Uncapped connection intensity W_u W_v / (n theta); vectorized."""
        W = self.weights.W
        return W[np.asarray(u)] * W[np.asarray(v)] / (self.n * self.theta)

    # ---- decorative weights -----------------------------------------------------

    def _needs(self, spec, what):
        if spec is None:
            raise ValueError(f"graph carries no {what} distribution")
        return spec

    def vertex_weight(self, v):
        spec = self._needs(self.mu_v, "vertex weight")
        v_arr = np.asarray(v, dtype=np.int64)
        out = spec.quantile(self._sites.uniform(srng.KIND_VERTEX_WEIGHT, v_arr, 0,
                                                srng.PRIMARY))
        return out if out.ndim else float(out)

    def edge_weight(self, u, v):
        spec = self._needs(self.mu_e, "edge weight")
        u_arr = np.asarray(u, dtype=np.int64)
        v_arr = np.asarray(v, dtype=np.int64)
        out = spec.quantile(self._sites.edge_uniform(srng.KIND_EDGE_WEIGHT, u_arr, v_arr,
                                                     srng.PRIMARY))
        return out if out.ndim else float(out)

    def coupling_uniform(self, u, v):
        """Auxiliary site uniform for the Bernoulli/Poisson coupling."""
        return self._sites.edge_uniform(srng.KIND_COUPLING_AUX, u, v)

    def zstar_uniform(self, root: int, explored: int, u):
        """Uniform for the fresh Z* copies, keyed per (root, explored vertex)."""
        u_arr = np.asarray(u, dtype=np.uint64)
        key = (np.uint64(root) << np.uint64(32)) | np.uint64(explored)
        return self._sites.uniform(srng.KIND_ZSTAR, key, u_arr)


class LazyGraph(WeightedGraph):
    """A graph whose rows are drawn when first read: the ball sampler of ``couple``.

    It has the site functions of :class:`WeightedGraph` (the same (seed,
    stream) gives the same site uniforms and decorative weights) but no
    edge list, so of what it inherits only ``num_edges`` does not apply; it
    adds ``neighbors``, which is all :func:`explore` reads.  The first call
    of ``neighbors(v)`` draws v's whole row and keeps it.  The pairs {v, u}
    with u's row already drawn were decided then; of those, the edges are
    the ones u recorded.  Every other pair is decided now: per weight bucket,
    geometric skips at the bucket's bound min(W_v wmax / (n theta), 1), each
    candidate thinned to its exact p_vu, then u = v and the already drawn u
    dropped.  So each pair is decided once, independently of every other,
    and the drawn rows are those of one graph with the law of
    :func:`sample_graph`, though not its realization: the draws come from
    their own generator, in the order the rows are read.  A row costs
    O(deg v + number of buckets), so a ball costs O(its size), whatever n.
    Every root and depth that reads the same object explores the same graph.
    """

    def __init__(self, weights: EmpiricalWeights, seed: tuple[int, int], stream: int,
                 mu_v: WeightSpec | None = None, mu_e: WeightSpec | None = None):
        self._set_sites(weights, seed, stream, mu_v, mu_e)
        self._gen = stream_rng(seed, stream, _ROW_TAG)
        self._rows: dict[int, np.ndarray] = {}  # the drawn rows, ascending
        self._found: dict[int, list[int]] = {}  # undrawn u -> drawn rows that hold u

    def neighbors(self, v: int) -> np.ndarray:
        row = self._rows.get(v)
        if row is None:
            row = self._rows[v] = self._draw_row(v)
        return row

    def _draw_row(self, v: int) -> np.ndarray:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range [0, {self.n})")
        plan = self.weights.bucket_plan
        scale = self.n * self.theta
        w = self.weights.W[v]
        bounds = np.minimum(w * plan.wmax / scale, 1.0)
        slots, caps = [], []
        for (start, stop), q in zip(plan.buckets, bounds.tolist()):
            pos = _bernoulli_positions(self._gen, stop - start, q)
            if pos.size:
                slots.append(pos + start)
                caps.append(np.full(pos.size, q))
        fresh = []
        if slots:
            slots = np.concatenate(slots)
            r = self._gen.random(slots.size) * np.concatenate(caps)
            p = np.minimum(w * plan.weight[slots] / scale, 1.0)
            drawn = self._rows
            fresh = [u for u in plan.order[slots[r < p]].tolist()
                     if u != v and u not in drawn]
        for u in fresh:
            self._found.setdefault(u, []).append(v)
        row = np.array(self._found.pop(v, []) + fresh, dtype=np.int64)
        row.sort()
        return row


def _bernoulli_positions(gen: np.random.Generator, total: int, p: float) -> np.ndarray:
    """Positions of successes of a Bernoulli(p) process on [0, total)."""
    if total <= 0 or p <= 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    out = []
    pos = -1
    while True:
        expect = (total - pos) * p
        block = int(expect + 10.0 * math.sqrt(expect + 1.0) + 16)
        gaps = gen.geometric(p, size=block)
        if gaps[0] >= total - pos:  # the next success is past total: none is left
            break
        # a gap past total ends the run either way; capping it keeps the
        # cumulative sum inside int64 when p is tiny (geometric saturates
        # at the int64 maximum below p ~ 1e-18)
        np.minimum(gaps, total + 1, out=gaps)
        gaps[0] += pos  # so the cumulative sum is pos + cumsum(gaps)
        positions = gaps.cumsum(out=gaps)
        inside = int(positions.searchsorted(total))  # the positions increase
        out.append(positions[:inside])
        if inside < block:
            break
        pos = int(positions[-1])
    if not out:
        return np.empty(0, dtype=np.int64)
    return out[0] if len(out) == 1 else np.concatenate(out)


def _unrank_triangle(L: np.ndarray, m) -> tuple[np.ndarray, np.ndarray]:
    """Map linear indices to pairs (i, j), i < j < m, in lexicographic order.

    ``m`` is one size or one size per index.  Row i starts at
    i (2m - i - 1) / 2; the float root can miss the row by one near its
    boundaries, so it is corrected both ways.
    """
    L = np.asarray(L, dtype=np.int64)
    b = 2 * np.asarray(m, dtype=np.int64) - 1
    i = ((b - np.sqrt(b * b - 8.0 * L)) / 2.0).astype(np.int64)
    i -= i * (b - i) // 2 > L
    i += (i + 1) * (b - i - 1) // 2 <= L
    j = L - i * (b - i) // 2 + i + 1
    return i, j


def _bernoulli_walk(gen: np.random.Generator, total: int, p: float) -> list[int]:
    """:func:`_bernoulli_positions` as a list, its gaps walked as Python ints.

    It draws the same gap blocks, so it leaves the generator where the
    array form does; a position is the same integer sum either way, and the
    walk stops at the first one past ``total``, so no gap needs a cap.
    """
    if total <= 0 or p <= 0:
        return []
    if p >= 1.0:
        return list(range(total))
    out = []
    pos = -1
    while True:
        expect = (total - pos) * p
        block = int(expect + 10.0 * math.sqrt(expect + 1.0) + 16)
        for gap in gen.geometric(p, size=block).tolist():
            pos += gap
            if pos >= total:
                return out
            out.append(pos)


def sample_graph(weights: EmpiricalWeights, seed: tuple[int, int], stream: int = 0,
                 mu_v: WeightSpec | None = None, mu_e: WeightSpec | None = None,
                 gen: np.random.Generator | None = None) -> WeightedGraph:
    """Realize the edge set; expected O(n + edges) work, never n^2 memory.

    ``gen`` is :func:`sampler_rng` of (seed, stream) in its initial state,
    built here when not given.
    """
    plan = weights.bucket_plan
    if gen is None:
        gen = sampler_rng(seed, stream)
    # the kept vertex pairs of each batch, after an empty pair of arrays, so
    # a graph with no batch still joins to an int32 edge list
    nothing = np.empty(0, dtype=np.int32)
    edges = [(nothing, nothing)]
    pairs, positions, uniforms = [], [], []
    pending = 0
    for k, (pmax, total) in enumerate(plan.draws):
        # the expected count sets the path: a list from Python ints below
        # _SCALAR_PAIR, the arrays above
        if total * pmax < _SCALAR_PAIR:
            pos = _bernoulli_walk(gen, total, pmax)
            if not pos:
                continue
        else:
            pos = _bernoulli_positions(gen, total, pmax)
            if pos.size >= _FLUSH:
                # a pair that fills a batch alone is mapped on its own; the
                # batch holds the only reference to its positions, so they
                # are freed once unranked
                batch = [k], [pos], [gen.random(pos.size)]
                del pos
                edges.append(_map_and_thin(weights, *batch))
                continue
            if not pos.size:
                continue
        pairs.append(k)
        positions.append(pos)
        uniforms.append(gen.random(len(pos)))
        pending += len(pos)
        if pending >= _FLUSH:
            edges.append(_map_and_thin(weights, pairs, positions, uniforms))
            pending = 0
    if pending:
        small = pending < _SCALAR_BATCH
        edges.append((_map_and_thin_small if small else _map_and_thin)(
            weights, pairs, positions, uniforms))
    # the kept pairs of all batches, joined, and the batches freed before the
    # graph sorts the pairs into its edge list
    edge_u = np.concatenate([u for u, _ in edges])
    edge_v = np.concatenate([v for _, v in edges])
    del edges
    return WeightedGraph(weights, seed, stream, edge_u, edge_v, mu_v=mu_v, mu_e=mu_e)


def sampler_rng(seed: tuple[int, int], stream: int) -> np.random.Generator:
    """The generator :func:`sample_graph` draws from for (seed, stream), in its
    initial state.  It does not depend on n, so ``clt`` builds it once per
    replica stream and passes it, set back to this state, to each graph."""
    return stream_rng(seed, stream, _GEN_TAG)


def _map_and_thin(weights: EmpiricalWeights, pairs: list[int], positions: list,
                  uniforms: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Keep each candidate of a batch with p_uv / pmax and map the kept ones to vertex pairs.

    ``positions[i]`` indexes the slot pairs of bucket pair ``pairs[i]``:
    the strict upper triangle in lexicographic order inside one bucket,
    row-major across two; it is an array, or a list from a walked pair.
    ``uniforms[i]`` are its thinning draws.  A batch
    of one pair is unranked with that pair's scalar offsets and bound; a
    batch of many gathers them per candidate.  A candidate is thinned on
    its two slots of the bucket order, and only the kept ones are mapped
    through ``plan.order``.  The three lists are emptied once concatenated,
    which frees the per-pair arrays.  Returns the endpoints of the kept
    edges, as int32 vertex ids in no particular order within a pair.
    """
    plan = weights.bucket_plan
    if len(pairs) == 1:
        pair = pairs[0]
        pos, r = positions[0], uniforms[0]
        if plan.same[pair]:
            cu, cv = _unrank_triangle(pos, plan.size_b[pair])
        else:
            cu, cv = np.divmod(pos, plan.size_b[pair])
        cu += plan.start_a[pair]
        cv += plan.start_b[pair]
    else:
        pair = np.repeat(pairs, [len(p) for p in positions])
        pos = np.concatenate(positions)
        r = np.concatenate(uniforms)
        size = plan.size_b[pair]  # a same-bucket pair's one size
        cu, cv = np.divmod(pos, size)  # row-major, right for the cross pairs
        same = plan.same[pair].nonzero()[0]
        cu[same], cv[same] = _unrank_triangle(pos[same], size[same])
        cu += plan.start_a[pair]
        cv += plan.start_b[pair]
    del pairs[:], positions[:], uniforms[:], pos
    # thin on the slots, where the weight gathers run nearly in order, and
    # map only the kept candidates to vertices
    r *= plan.pmax[pair]
    p = plan.weight[cu]
    p *= plan.weight[cv]
    p /= weights.n * weights.theta
    # r pmax < 1, so comparing with p keeps what comparing with min(p, 1)
    # keeps; the indices of the kept candidates, not a boolean mask: a mask
    # that keeps about half at random makes each masked copy mispredict its
    # branches
    keep = (r < p).nonzero()[0]
    return plan.order[cu[keep]], plan.order[cv[keep]]


def _map_and_thin_small(weights: EmpiricalWeights, pairs: list[int], positions: list,
                        uniforms: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_map_and_thin` of a small batch, one candidate at a time in
    Python ints and floats.

    Each candidate takes the operations the arrays take: the triangle's
    float root and its two corrections, or the row-major divmod, then
    r pmax < W_u W_v / (n theta) on the same doubles.  The plan's per-pair
    values come from its lists and the slot weights and vertex ids one item
    at a time, so no O(n) list is built.
    """
    plan = weights.bucket_plan
    weight, order = plan.weight.item, plan.order.item
    scale = weights.n * weights.theta
    kept_u, kept_v = [], []
    for pair, pos, r in zip(pairs, positions, uniforms):
        if isinstance(pos, np.ndarray):  # a pair that expected more candidates
            pos = pos.tolist()
        pmax = plan.draws[pair][0]
        start_a, start_b, size, same = plan.slots[pair]
        b = 2 * size - 1
        for L, u in zip(pos, r.tolist()):
            if same:
                i = int((b - math.sqrt(b * b - 8.0 * L)) / 2.0)
                i -= i * (b - i) // 2 > L
                i += (i + 1) * (b - i - 1) // 2 <= L
                j = L - i * (b - i) // 2 + i + 1
            else:
                i, j = divmod(L, size)
            i += start_a
            j += start_b
            if u * pmax < weight(i) * weight(j) / scale:
                kept_u.append(order(i))
                kept_v.append(order(j))
    del pairs[:], positions[:], uniforms[:]
    return np.array(kept_u, dtype=np.int32), np.array(kept_v, dtype=np.int32)
