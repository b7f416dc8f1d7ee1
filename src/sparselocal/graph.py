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
pass once the batch holds ``_FLUSH`` candidates: each candidate is unranked
to its two slots of the bucket order and thinned on the weights there,
whose gathers run nearly in order, and only the kept ones, about half at
n = 1e6, are mapped to vertices.  The many tiny pairs of a small graph cost
one pass, and the temporaries of a large graph are those of one batch, not
of all candidates.  The kept edges travel as packed keys u*n + v, one sort
puts them in order, and the graph keeps the sorted endpoints it is handed,
so no unsorted copy of the edge list lives through the CSR build.

Everything that is not the realized edge set -- replacement indicators X',
decorative vertex/edge weights w, w' and the coupling auxiliaries -- is a
pure function of (seed, stream, site) through :mod:`sparselocal.rng`, so the
resampled graphs G^F and lazy weights on all possible edges need no storage.
Nor does a graph hold the empirical size-biased law the coupling draws types
from: it depends on the weights alone, so it lives with the weights of one n
(``graph.weights.size_biased``) and every replica graph of that n shares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as srng
from .rng import SiteRandom, stream_rng
from .weights import EmpiricalWeights, WeightSpec

_GEN_TAG = 12
_FLUSH = 4096  # candidates mapped and thinned per vectorised pass


@dataclass(frozen=True)
class PerturbationSet:
    """A set of resampling sites: vertex ids and unordered vertex pairs."""

    vertices: frozenset[int] = frozenset()
    edges: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        canon = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError("edge sites need distinct endpoints")
            canon.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(canon))

    def validate(self, n: int) -> None:
        for v in self.vertices:
            if not 0 <= v < n:
                raise IndexError(f"vertex site {v} out of range")
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexError(f"edge site {(u, v)} out of range")


class WeightedGraph:
    """Realized sparse graph plus deterministic lazy access to all sites.

    Immutable after construction; replicate-level parallelism uses distinct
    stream ids.  ``edge_u``/``edge_v`` hold the endpoints u < v of each edge
    in any order; int64 arrays already sorted by (u, v) are kept, not
    copied, so the caller must not write to them afterwards.
    ``flipped_edges``/``flipped_vertices`` record the sites of a
    perturbation G^F: flipped edge indicators are already baked into the
    adjacency, flipped weight sites transparently read the replacement
    stream.
    """

    def __init__(self, weights: EmpiricalWeights, seed: tuple[int, int], stream: int,
                 edge_u: np.ndarray, edge_v: np.ndarray,
                 mu_v: WeightSpec | None = None, mu_e: WeightSpec | None = None,
                 flipped_edges: frozenset = frozenset(),
                 flipped_vertices: frozenset = frozenset()):
        self.weights = weights
        self.n = weights.n
        self.theta = weights.theta
        self.seed = seed
        self.stream = stream
        self.mu_v = mu_v
        self.mu_e = mu_e
        self.flipped_edges = flipped_edges
        self.flipped_vertices = flipped_vertices
        self._sites = SiteRandom(seed, stream)
        n = np.int64(weights.n)
        edge_u = np.asarray(edge_u, dtype=np.int64)
        edge_v = np.asarray(edge_v, dtype=np.int64)
        keys = edge_u * n
        keys += edge_v
        if np.all(keys[1:] > keys[:-1]):
            # already in order, as sample_graph hands them over: keep them
            self.edge_u, self.edge_v = edge_u, edge_v
        else:
            keys.sort()
            self.edge_u, self.edge_v = np.divmod(keys, n)
        del keys, edge_u, edge_v  # before the CSR build allocates its 2m keys
        self._build_adjacency()

    def _build_adjacency(self):
        n = np.int64(self.n)
        m = self.edge_u.size
        counts = np.bincount(self.edge_u, minlength=self.n)
        counts += np.bincount(self.edge_v, minlength=self.n)
        self.indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        del counts
        # one sort of the packed keys end*n + other orders the 2m endpoints by
        # (end, other), so each row of indices comes out ascending
        keys = np.empty(2 * m, dtype=np.int64)
        np.multiply(self.edge_u, n, out=keys[:m])
        keys[:m] += self.edge_v
        np.multiply(self.edge_v, n, out=keys[m:])
        keys[m:] += self.edge_u
        keys.sort()
        self.indices = np.remainder(keys, n, out=keys)

    # ---- structure ------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.size)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def edge_indicator(self, u: int, v: int) -> int:
        """X_{uv}: 1 when {u, v} is an edge, else 0 (always 0 at u == v, as the
        graph has no self-loops)."""
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return int(i < row.size and row[i] == v)

    def replacement_edge_indicator(self, u, v):
        """X'_{uv} = 1{U' < p_uv}, a pure site function; vectorized."""
        u_arr = np.asarray(u, dtype=np.int64)
        v_arr = np.asarray(v, dtype=np.int64)
        uni = self._sites.edge_uniform(srng.KIND_EDGE_REPL, u_arr, v_arr)
        p = np.minimum(self.p_prime(u_arr, v_arr), 1.0)
        out = (uni < p) & (u_arr != v_arr)
        return out.astype(np.int64) if out.ndim else int(out)

    def p_prime(self, u, v):
        """Uncapped connection intensity W_u W_v / (n theta); vectorized."""
        W = self.weights.W
        return W[np.asarray(u)] * W[np.asarray(v)] / (self.n * self.theta)

    # ---- decorative weights -----------------------------------------------------

    def _needs(self, spec, what):
        if spec is None:
            raise ValueError(f"graph carries no {what} distribution")
        return spec

    def vertex_weight(self, v, replacement: bool = False):
        spec = self._needs(self.mu_v, "vertex weight")
        v_arr = np.asarray(v, dtype=np.int64)
        flag = np.where(self._flipped_vertex_mask(v_arr) ^ replacement,
                        srng.REPLACEMENT, srng.PRIMARY)
        out = spec.quantile(self._sites.uniform(srng.KIND_VERTEX_WEIGHT, v_arr, 0, flag))
        return out if out.ndim else float(out)

    def edge_weight(self, u, v, replacement: bool = False):
        spec = self._needs(self.mu_e, "edge weight")
        u_arr = np.asarray(u, dtype=np.int64)
        v_arr = np.asarray(v, dtype=np.int64)
        flag = np.where(self._flipped_edge_mask(u_arr, v_arr) ^ replacement,
                        srng.REPLACEMENT, srng.PRIMARY)
        out = spec.quantile(self._sites.edge_uniform(srng.KIND_EDGE_WEIGHT, u_arr, v_arr,
                                                     flag))
        return out if out.ndim else float(out)

    def coupling_uniform(self, u, v):
        """Auxiliary site uniform for the Bernoulli/Poisson coupling."""
        return self._sites.edge_uniform(srng.KIND_COUPLING_AUX, u, v)

    def zstar_uniform(self, root: int, explored: int, u):
        """Uniform for the fresh Z* copies, keyed per (root, explored vertex)."""
        u_arr = np.asarray(u, dtype=np.uint64)
        key = (np.uint64(root) << np.uint64(32)) | np.uint64(explored)
        return self._sites.uniform(srng.KIND_ZSTAR, key, u_arr)

    def _flipped_vertex_mask(self, v_arr):
        if not self.flipped_vertices:
            return np.zeros(np.shape(v_arr), dtype=bool)
        table = np.zeros(self.n, dtype=bool)
        table[list(self.flipped_vertices)] = True
        return table[v_arr]

    def _flipped_edge_mask(self, u_arr, v_arr):
        if not self.flipped_edges:
            return np.zeros(np.broadcast(u_arr, v_arr).shape, dtype=bool)
        lo = np.minimum(u_arr, v_arr)
        hi = np.maximum(u_arr, v_arr)
        flipped = self.flipped_edges
        return np.asarray([(int(a), int(b)) in flipped for a, b in
                           zip(np.atleast_1d(lo), np.atleast_1d(hi))]
                          ).reshape(np.shape(lo))


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
        # a gap past total ends the run either way; capping it keeps the
        # cumulative sum inside int64 when p is tiny (geometric saturates
        # at the int64 maximum below p ~ 1e-18)
        gaps = np.minimum(gen.geometric(p, size=block), total + 1)
        gaps[0] += pos  # so the cumulative sum is pos + cumsum(gaps)
        positions = gaps.cumsum()
        inside = int(positions.searchsorted(total))  # the positions increase
        out.append(positions[:inside])
        if inside < block:
            break
        pos = int(positions[-1])
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


def sample_graph(weights: EmpiricalWeights, seed: tuple[int, int], stream: int = 0,
                 mu_v: WeightSpec | None = None,
                 mu_e: WeightSpec | None = None) -> WeightedGraph:
    """Realize the edge set; expected O(n + edges) work, never n^2 memory."""
    plan = weights.bucket_plan
    gen = stream_rng(seed, stream, _GEN_TAG)
    edges = [np.empty(0, dtype=np.int64)]  # so that the keys always concatenate
    pairs, positions, uniforms = [], [], []
    pending = 0
    for k, (pmax, total) in enumerate(plan.draws):
        pos = _bernoulli_positions(gen, total, pmax)
        if pos.size:
            pairs.append(k)
            positions.append(pos)
            uniforms.append(gen.random(pos.size))
            pending += pos.size
            if pending >= _FLUSH:
                edges.append(_map_and_thin(weights, pairs, positions, uniforms))
                pending = 0
    if pending:
        edges.append(_map_and_thin(weights, pairs, positions, uniforms))
    # the edges as packed keys u*n + v, sorted here, so that the graph keeps
    # the endpoints it is given and no unsorted copy outlives this call
    keys = np.concatenate(edges)
    del edges
    keys.sort()
    edge_u, edge_v = np.divmod(keys, np.int64(weights.n))
    del keys
    return WeightedGraph(weights, seed, stream, edge_u, edge_v, mu_v=mu_v, mu_e=mu_e)


def _map_and_thin(weights: EmpiricalWeights, pairs: list[int], positions: list[np.ndarray],
                  uniforms: list[np.ndarray]) -> np.ndarray:
    """Keep each candidate of a batch with p_uv / pmax and map the kept ones to vertex pairs.

    ``positions[i]`` indexes the slot pairs of bucket pair ``pairs[i]``:
    the strict upper triangle in lexicographic order inside one bucket,
    row-major across two; ``uniforms[i]`` are its thinning draws.  A
    candidate is thinned on its two slots of the bucket order, and only the
    kept ones are mapped through ``plan.order``.  The three lists are emptied
    once concatenated, which frees the per-pair arrays.  Returns the kept
    edges u < v as packed keys u*n + v.
    """
    plan = weights.bucket_plan
    pair = np.repeat(pairs, [p.size for p in positions])
    pos = np.concatenate(positions)
    r = np.concatenate(uniforms)
    del pairs[:], positions[:], uniforms[:]
    cu = plan.start_a[pair]
    cv = plan.start_b[pair]
    same = plan.same[pair]
    cross = ~same
    rows, cols = np.divmod(pos[cross], plan.size_b[pair[cross]])
    cu[cross] += rows
    cv[cross] += cols
    i, j = _unrank_triangle(pos[same], plan.size_a[pair[same]])
    cu[same] += i
    cv[same] += j
    del pos
    # thin on the slots, where the weight gathers run nearly in order, and
    # map only the kept candidates to vertices
    W = plan.weight
    r *= plan.pmax[pair]
    accept = r < np.minimum(W[cu] * W[cv] / (weights.n * weights.theta), 1.0)
    cu = plan.order[cu[accept]]
    cv = plan.order[cv[accept]]
    keys = np.minimum(cu, cv)
    keys *= np.int64(weights.n)
    keys += np.maximum(cu, cv)
    return keys


def perturb(graph: WeightedGraph, sites: PerturbationSet) -> WeightedGraph:
    """The resampled graph G^F: X_e -> X'_e and w_z -> w'_z exactly on F.

    Deterministic given (seed, stream): the replacement values come from the
    replacement site stream, so G^emptyset is G site-by-site and the full
    flip is an independent copy.  Perturbations always start from the base
    graph, matching how G^F is defined.
    """
    if graph.flipped_edges or graph.flipped_vertices:
        raise ValueError("perturb must be applied to the base graph")
    sites.validate(graph.n)
    keep = [(int(u), int(v)) for u, v in zip(graph.edge_u, graph.edge_v)
            if (int(u), int(v)) not in sites.edges]
    added = []
    for u, v in sorted(sites.edges):
        if graph.replacement_edge_indicator(u, v):
            added.append((u, v))
    edges = keep + added
    if edges:
        edge_u = np.asarray([e[0] for e in edges], dtype=np.int64)
        edge_v = np.asarray([e[1] for e in edges], dtype=np.int64)
    else:
        edge_u = np.empty(0, dtype=np.int64)
        edge_v = np.empty(0, dtype=np.int64)
    return WeightedGraph(graph.weights, graph.seed, graph.stream, edge_u, edge_v,
                         mu_v=graph.mu_v, mu_e=graph.mu_e,
                         flipped_edges=frozenset(sites.edges),
                         flipped_vertices=frozenset(sites.vertices))
