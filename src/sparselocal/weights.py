"""Connectivity-weight laws and their empirical summaries.

A :class:`WeightSpec` is a parametric law for the per-vertex connectivity
weights W_v with closed-form moments, Laplace transform and quantile
function.  Only three families are supported (constant, finite discrete,
gamma); all of them have finite third moments and exact quantiles, which is
what the downstream Wasserstein couplings and bound evaluators require.

The empirical side lives in :class:`EmpiricalWeights` (a realized weight
vector together with the model constant theta = E[W]) and
:class:`MomentSummary`, which carries the normalized moments

    Gamma_{p,n} = (n theta)^{-1} sum_v W_v^p
    kappa_{p,n} = (n theta)^{-1} sum_v W_v^p 1{W_v > sqrt(n theta)}

and the 1-Wasserstein distances between the empirical laws and their limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import special

from .rng import stream_rng

_WEIGHT_TAG = 11


@dataclass(frozen=True)
class WeightSpec:
    """Parametric connectivity-weight law.

    family is one of "constant", "finite" and "gamma":

    * constant: point mass at ``c``
    * finite:   finitely supported law with ``values``/``probs``
    * gamma:    Gamma(shape, scale); Exp(1) is gamma(1, 1)
    """

    family: str
    c: float = 0.0
    values: tuple[float, ...] = ()
    probs: tuple[float, ...] = ()
    shape: float = 0.0
    scale: float = 0.0

    def __post_init__(self):
        if self.family == "constant":
            if not self.c > 0:
                raise ValueError("constant weight must be positive")
        elif self.family == "finite":
            v = np.asarray(self.values, dtype=float)
            p = np.asarray(self.probs, dtype=float)
            if v.size == 0 or v.size != p.size:
                raise ValueError("values and probs must be non-empty and equally long")
            if np.any(v <= 0) or np.any(p < 0) or not np.isclose(p.sum(), 1.0):
                raise ValueError("finite law needs positive values and probabilities summing to 1")
            order = np.argsort(v)
            object.__setattr__(self, "values", tuple(v[order]))
            object.__setattr__(self, "probs", tuple(p[order]))
        elif self.family == "gamma":
            if not (self.shape > 0 and self.scale > 0):
                raise ValueError("gamma parameters must be positive")
        else:
            raise ValueError(f"unknown weight family {self.family!r}")

    # ---- closed-form functionals -------------------------------------------------

    def moment(self, p: float) -> float:
        """E[W^p], exact."""
        if self.family == "constant":
            return self.c ** p
        if self.family == "finite":
            return float(np.dot(np.asarray(self.probs), np.asarray(self.values) ** p))
        return self.scale ** p * float(np.exp(special.gammaln(self.shape + p) - special.gammaln(self.shape)))

    def mean(self) -> float:
        return self.moment(1)

    def gamma_limit(self, p: float) -> float:
        """Gamma_p of the law: E[W^p] / E[W]."""
        return self.moment(p) / self.mean()

    def laplace(self, t: float = 1.0) -> float:
        """E[exp(-t W)], exact."""
        if self.family == "constant":
            return float(np.exp(-t * self.c))
        if self.family == "finite":
            return float(np.dot(np.asarray(self.probs), np.exp(-t * np.asarray(self.values))))
        return (1.0 + t * self.scale) ** (-self.shape)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "constant":
            return (x >= self.c).astype(float)
        if self.family == "finite":
            v = np.asarray(self.values)
            cum = np.cumsum(self.probs)
            idx = np.searchsorted(v, x, side="right")
            out = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
            return out
        return special.gammainc(self.shape, x / self.scale)

    def quantile(self, u):
        """Inverse CDF, valid for u in (0,1); vectorized."""
        u = np.asarray(u, dtype=float)
        if self.family == "constant":
            return np.full_like(u, self.c)
        if self.family == "finite":
            cum = np.cumsum(self.probs)
            idx = np.searchsorted(cum, u, side="left")
            return np.asarray(self.values)[np.minimum(idx, len(self.values) - 1)]
        return self.scale * special.gammaincinv(self.shape, u)

    def partial_quantile_integral(self, u):
        """G(u) = integral of the quantile function over (0, u], exact.

        For the gamma family this is the partial expectation
        E[W 1{F(W) <= u}] = shape*scale*P(shape+1, Q(u)/scale).
        """
        u = np.asarray(u, dtype=float)
        if self.family == "constant":
            return self.c * u
        if self.family == "finite":
            v = np.asarray(self.values)
            p = np.asarray(self.probs)
            lower = np.concatenate(([0.0], np.cumsum(p)[:-1]))
            # overlap of (0, u] with each quantile step
            seg = np.clip(u[..., None] - lower[None, :], 0.0, p[None, :])
            return (seg * v[None, :]).sum(axis=-1)
        q = self.quantile(u)
        return self.shape * self.scale * special.gammainc(self.shape + 1.0, q / self.scale)

    def sample(self, rng: np.random.Generator, size: int):
        return self.quantile(rng.random(size))

    # ---- derived laws --------------------------------------------------------------

    def size_biased(self) -> "WeightSpec":
        """The law with density proportional to w dnu(w); exact per family."""
        if self.family == "constant":
            return self
        if self.family == "finite":
            v = np.asarray(self.values)
            p = np.asarray(self.probs) * v
            p = p / p.sum()
            return WeightSpec("finite", values=tuple(v), probs=tuple(p))
        return WeightSpec("gamma", shape=self.shape + 1.0, scale=self.scale)

    # ---- config round-trip -----------------------------------------------------------

    def to_config(self) -> dict:
        if self.family == "constant":
            return {"family": "constant", "c": self.c}
        if self.family == "finite":
            return {"family": "finite", "values": list(self.values), "probs": list(self.probs)}
        return {"family": "gamma", "shape": self.shape, "scale": self.scale}

    @staticmethod
    def from_config(cfg: dict) -> "WeightSpec":
        family = cfg.get("family")
        if family == "constant":
            return WeightSpec("constant", c=float(cfg["c"]))
        if family == "finite":
            return WeightSpec("finite", values=tuple(float(v) for v in cfg["values"]),
                              probs=tuple(float(p) for p in cfg["probs"]))
        if family == "gamma":
            return WeightSpec("gamma", shape=float(cfg["shape"]), scale=float(cfg["scale"]))
        raise ValueError(f"unknown weight family in config: {family!r}")


def exponential(rate: float = 1.0) -> WeightSpec:
    """Exp(rate) as a gamma spec (shape 1, scale 1/rate)."""
    return WeightSpec("gamma", shape=1.0, scale=1.0 / rate)


@dataclass
class EmpiricalWeights:
    """A realized connectivity-weight vector and the model constant theta."""

    n: int
    W: np.ndarray
    theta: float

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        if self.n != self.W.size or self.n < 1:
            raise ValueError("n must match the number of weights")
        if np.any(self.W <= 0):
            raise ValueError("connectivity weights must be positive")
        if not self.theta > 0:
            raise ValueError("theta must be positive")

    @property
    def lambda_n(self) -> float:
        return float(self.W.sum())

    @cached_property
    def size_biased(self) -> "EmpiricalSizeBiased":
        """The empirical size-biased law, built on first use and kept with the weights.

        Mirrors :meth:`WeightSpec.size_biased`.  The weights of one n are
        frozen across replicas, so every replica graph of that n (at every
        depth, and in stage 1's detached growth) reads this one law.
        """
        lam = self.lambda_n
        order = np.argsort(self.W, kind="stable")
        upper = np.cumsum(self.W[order] / lam)
        upper[-1] = 1.0
        lo = np.empty(self.n)
        hi = np.empty(self.n)
        hi[order] = upper
        lo[order[0]] = 0.0
        lo[order[1:]] = upper[:-1]
        # rounding can leave the cumulative table short of 1, or past 1 before
        # its last entry; capped and ending at 1, it maps every uniform in (0, 1)
        # to a label
        cum = np.minimum(np.cumsum(self.W / lam), 1.0)
        cum[-1] = 1.0
        return EmpiricalSizeBiased(W=self.W, scale=lam / (self.n * self.theta),
                                   cum=cum, lo=lo, hi=hi)

    @cached_property
    def bucket_plan(self) -> "BucketPlan":
        """The graph sampler's bucket pairs, built on first use and kept with the weights.

        Vertices are grouped by floor(log2 W) into power-of-two buckets.  For
        each pair of buckets a <= b that has a vertex pair, the plan keeps
        where both buckets start in the vertex order, their sizes, whether
        a == b, the probability bound pmax = min(wmax_a wmax_b / (n theta), 1)
        and the number of vertex pairs.  All of it depends on the weights
        alone, so every replica graph of one n reads this one plan and spends
        per bucket pair only its generator draws.
        """
        # floor(log2 W) lies in [-1074, 1023] for a positive double, so int16
        # holds it, and numpy's stable argsort of int16 is an O(n) radix sort
        bucket = np.floor(np.log2(self.W)).astype(np.int16)
        order = np.argsort(bucket, kind="stable")
        sizes = np.bincount(bucket - bucket.min())
        sizes = sizes[sizes > 0]
        starts = np.cumsum(sizes) - sizes
        wmax = np.maximum.reduceat(self.W[order], starts)
        a, b = np.triu_indices(starts.size)  # bucket pairs in lexicographic order
        same = a == b
        total = np.where(same, sizes[a] * (sizes[a] - 1) // 2, sizes[a] * sizes[b])
        keep = total > 0  # a bucket of one vertex has no pair with itself
        a, b, same, total = a[keep], b[keep], same[keep], total[keep]
        pmax = np.minimum(wmax[a] * wmax[b] / (self.n * self.theta), 1.0)
        return BucketPlan(order=order, start_a=starts[a], start_b=starts[b],
                          size_a=sizes[a], size_b=sizes[b], same=same, pmax=pmax,
                          draws=list(zip(pmax.tolist(), total.tolist())))


@dataclass(frozen=True, eq=False)
class BucketPlan:
    """Bucket pairs of one weight vector, in the order the graph sampler visits them.

    ``order`` lists the vertices bucket by bucket, ascending inside each
    bucket.  Pair k covers the vertices ``order[start_a[k]:][:size_a[k]]``
    against ``order[start_b[k]:][:size_b[k]]`` (the strict upper triangle
    when ``same[k]``).  ``draws[k]`` is its (pmax, total) as Python numbers,
    which the per-pair loop hands to the generator; the arrays are gathered
    per candidate when candidates are mapped and thinned.
    """

    order: np.ndarray
    start_a: np.ndarray
    start_b: np.ndarray
    size_a: np.ndarray
    size_b: np.ndarray
    same: np.ndarray
    pmax: np.ndarray
    draws: list[tuple[float, int]]


@dataclass(frozen=True, eq=False)
class EmpiricalSizeBiased:
    """Vertex i with probability W_i / Lambda_n: the intermediate tree's type law.

    An individual of type W_i has Poi(W_i * scale) children, with
    scale = Lambda_n / (n theta).  ``cum`` is the cumulative table in vertex
    order, which label draws invert; ``lo``/``hi`` give each vertex its CDF
    interval in weight order, which the quantile coupling to the limiting
    size-biased law needs.  The tables are O(n) and depend on the weights
    alone, so the law lives with the :class:`EmpiricalWeights` of one n
    (:attr:`EmpiricalWeights.size_biased`), not with one graph: every replica
    graph of that n shares it, at every depth and in stage 1's detached
    growth.
    """

    W: np.ndarray
    scale: float
    cum: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def offspring(self, label: int, rng: np.random.Generator) -> np.ndarray:
        """Labels of a type-W_label individual's children: Poisson count, i.i.d. labels."""
        k = rng.poisson(self.W[label] * self.scale)
        if not k:
            return np.empty(0, dtype=np.int64)
        return np.searchsorted(self.cum, rng.random(k), side="left")

    def draw(self, rng: np.random.Generator) -> int:
        """One label."""
        return int(np.searchsorted(self.cum, rng.random(), side="left"))

    def interval(self, label: int) -> tuple[float, float]:
        """The CDF interval (lo, hi] of ``label`` in weight order."""
        return self.lo[label], self.hi[label]


@dataclass
class MomentSummary:
    """Normalized empirical moments used by every bound evaluator."""

    gamma: dict[int, float]
    kappa: dict[int, float]
    lambda_n: float
    alpha_n: float
    theta: float
    n: int = field(default=0)


def sample_empirical_weights(spec: WeightSpec, n: int, seed: tuple[int, int],
                             stream: int = 0) -> EmpiricalWeights:
    """Draw W_1..W_n i.i.d. from spec; theta is the closed-form mean."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = stream_rng(seed, stream, _WEIGHT_TAG)
    return EmpiricalWeights(n=n, W=spec.sample(rng, n), theta=spec.mean())


def moments(weights: EmpiricalWeights, spec: WeightSpec | None = None) -> MomentSummary:
    """Gamma_{p,n} for p in {0,1,2,3}, kappa_{p,n} for p in {1,2}, Lambda_n.

    When spec is given, alpha_n is the larger of the exact 1-Wasserstein
    distances W1(nu_n, nu) and W1(nu_hat_n, nu_hat); otherwise 0.  W is
    sorted once for both: nu_n puts mass 1/n and nu_hat_n mass W_v / Lambda_n
    on each sorted weight.  Each distance costs O(n) arithmetic plus the
    spec's quantile at the few points where the empirical and limiting
    quantile functions cross (see :func:`_wasserstein_weighted_sample`).
    """
    W = weights.W
    n, theta = weights.n, weights.theta
    norm = n * theta
    excess = W > np.sqrt(norm)
    gamma = {p: float((W ** p).sum() / norm) for p in (0, 1, 2, 3)}
    kappa = {p: float((W[excess] ** p).sum() / norm) for p in (1, 2)}
    alpha = 0.0
    if spec is not None:
        s = np.sort(W)
        a_plain = _wasserstein_weighted_sample(s, np.full(n, 1.0 / n), spec)
        a_biased = _wasserstein_weighted_sample(s, s / W.sum(), spec.size_biased())
        alpha = max(a_plain, a_biased)
    return MomentSummary(gamma=gamma, kappa=kappa, lambda_n=weights.lambda_n,
                         alpha_n=alpha, theta=theta, n=n)


# ---- exact 1-Wasserstein distances ---------------------------------------------------


def _wasserstein_weighted_sample(s: np.ndarray, masses: np.ndarray,
                                 spec: WeightSpec) -> float:
    """W1 between a weighted empirical law and a spec, by quantile coupling.

    ``s`` holds the empirical values in ascending order and ``masses`` their
    masses.  The empirical quantile function is s_i on the step (lo_i, hi_i]
    of the cumulative masses.  Split each step at c_i = clip(F(s_i), lo_i,
    hi_i), where the spec's quantile Q crosses s_i; with G the spec's partial
    quantile integral, the step adds

        s_i ((c_i - lo_i) - (hi_i - c_i)) + G(lo_i) + G(hi_i) - 2 G(c_i).

    Where c_i == hi_i the G part is G(lo_i) - G(hi_i), where c_i == lo_i it is
    G(hi_i) - G(lo_i), and lo_i = hi_{i-1}.  So over a run of steps clipped
    the same way the G parts telescope to the G values at the run's two ends.
    Each unclipped step is a run of its own.  The O(n) part is plain
    arithmetic; G runs only at the run ends and the unclipped c_i, O(crossings)
    points (one to two thousand at n = 1e6 for a sample from the spec), and
    each run's linear sum and G part nearly cancel, so nothing large is summed.
    """
    hi = np.cumsum(masses)
    hi[-1] = 1.0
    lo = np.concatenate(([0.0], hi[:-1]))
    if spec.family == "constant":
        # G(u) = c u, so each step adds (hi - lo)|s - c|: exactly 0 on a constant sample
        return float(np.dot(hi - lo, np.abs(s - spec.c)))
    c = np.clip(spec.cdf(s), lo, hi)
    linear = s * ((c - lo) - (hi - c))
    up = c == hi
    sign = up.view(np.int8) - ((c == lo) & ~up).view(np.int8)  # +1 hi, -1 lo, 0 unclipped
    starts = np.flatnonzero(np.concatenate(([True], (sign[1:] != sign[:-1]) | (sign[1:] == 0))))
    run_sign = sign[starts]
    g = spec.partial_quantile_integral(
        np.concatenate((lo[starts], [1.0], c[sign == 0])))
    g_start, g_end, g_c = g[:starts.size], g[1:starts.size + 1], g[starts.size + 1:]
    g_part = np.where(run_sign > 0, g_start - g_end, g_end - g_start)
    flat = run_sign == 0
    g_part[flat] = (g_start[flat] - g_c) + (g_end[flat] - g_c)
    return float((np.add.reduceat(linear, starts) + g_part).sum())


def wasserstein_1d(a, b: WeightSpec) -> float:
    """Exact 1-Wasserstein distance via the inverse-CDF coupling.

    ``a`` is either a 1-d sample (uniform empirical masses) or a WeightSpec.
    Discrete/discrete pairs are summed exactly over merged CDF breakpoints;
    pairs involving a gamma law integrate |F_a - F_b| by adaptive quadrature.
    """
    if not isinstance(b, WeightSpec):
        raise ValueError(f"unsupported Wasserstein combination: second argument "
                         f"must be a WeightSpec, got {type(b).__name__}")
    if isinstance(a, WeightSpec):
        return _wasserstein_spec_spec(a, b)
    sample = np.asarray(a, dtype=float)
    if sample.ndim != 1 or sample.size == 0:
        raise ValueError("sample must be a non-empty 1-d array")
    masses = np.full(sample.size, 1.0 / sample.size)
    return _wasserstein_weighted_sample(np.sort(sample), masses, b)


def _wasserstein_spec_spec(a: WeightSpec, b: WeightSpec) -> float:
    discrete = {"constant", "finite"}
    if a.family in discrete and b.family in discrete:
        va, pa = _as_discrete(a)
        vb, pb = _as_discrete(b)
        # merge the CDF breakpoints of both laws and sum |Qa - Qb| segment-wise
        cuts = np.unique(np.concatenate((np.cumsum(pa), np.cumsum(pb), [0.0, 1.0])))
        cuts = cuts[(cuts >= 0.0) & (cuts <= 1.0)]
        mid = (cuts[:-1] + cuts[1:]) / 2.0
        qa = a.quantile(mid)
        qb = b.quantile(mid)
        return float(np.sum(np.abs(qa - qb) * np.diff(cuts)))
    if a.family == "gamma" or b.family == "gamma":
        from scipy.integrate import quad

        top = max(_upper_support(a), _upper_support(b))
        val, _ = quad(lambda x: abs(float(a.cdf(x)) - float(b.cdf(x))), 0.0, top,
                      limit=200)
        return float(val)
    raise ValueError(f"unsupported Wasserstein combination: {a.family}/{b.family}")


def _as_discrete(spec: WeightSpec):
    if spec.family == "constant":
        return np.array([spec.c]), np.array([1.0])
    return np.asarray(spec.values), np.asarray(spec.probs)


def _upper_support(spec: WeightSpec) -> float:
    if spec.family == "constant":
        return spec.c
    if spec.family == "finite":
        return max(spec.values)
    return float(spec.quantile(1.0 - 1e-13))
