"""Connectivity-weight laws and their empirical summaries.

A :class:`WeightSpec` is a parametric law for the per-vertex connectivity
weights W_v with closed-form moments and quantile function.  Only three
families are supported (constant, finite discrete, gamma); all of them have
finite third moments and exact quantiles, which is what the downstream
Wasserstein couplings and bound evaluators require.

Every weight is drawn by inverse CDF, so the gamma quantile sets the bits of
graph weights, edge sums, couplings and W1 distances alike.  Shapes 1, 2 and 3
(the shipped laws and their size-biased laws) are solved here, within 2 ulp,
from IEEE arithmetic, sqrt, frexp/ldexp and scipy.special's log1p/expm1 only:
numpy's exp, log, log2, log1p, expm1 and ``**`` return bits that follow the
SIMD code path numpy dispatches to on the CPU.  The moments and the weight
buckets keep to the same operations.  Other shapes bisect gammainc, so that
their quantile is non-decreasing in u (gammaincinv's bits are not).

The empirical side lives in :class:`EmpiricalWeights` (a realized weight
vector together with the model constant theta = E[W]) and
:class:`MomentSummary`, which carries the normalized moments

    Gamma_{p,n} = (n theta)^{-1} sum_v W_v^p
    kappa_{p,n} = (n theta)^{-1} sum_v W_v^p 1{W_v > sqrt(n theta)}

and the 1-Wasserstein distances between the empirical laws and their limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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
            if not 0 < self.c < np.inf:
                raise ValueError(f"constant weight must be positive and finite; got {self.c!r}")
        elif self.family == "finite":
            v = np.asarray(self.values, dtype=float)
            p = np.asarray(self.probs, dtype=float)
            if v.size == 0 or v.size != p.size:
                raise ValueError("values and probs must be non-empty and equally long")
            if not (np.all((v > 0) & (v < np.inf)) and np.all(p >= 0)
                    and np.isclose(p.sum(), 1.0)):
                raise ValueError("finite law needs positive finite values and probabilities "
                                 "summing to 1")
            order = np.argsort(v)
            object.__setattr__(self, "values", tuple(v[order]))
            object.__setattr__(self, "probs", tuple(p[order]))
        elif self.family == "gamma":
            if not (0 < self.shape < np.inf and 0 < self.scale < np.inf):
                raise ValueError(f"gamma parameters must be positive and finite; got shape "
                                 f"{self.shape!r}, scale {self.scale!r}")
        else:
            raise ValueError(f"unknown weight family {self.family!r}")

    # ---- closed-form functionals -------------------------------------------------

    def moment(self, p: float) -> float:
        """E[W^p], exact."""
        if self.family == "constant":
            return self.c ** p
        # libm's pow and exp: numpy's return bits that follow its SIMD dispatch
        if self.family == "finite":
            return float(np.dot(np.asarray(self.probs),
                                [math.pow(v, p) for v in self.values]))
        return self.scale ** p * math.exp(special.gammaln(self.shape + p)
                                          - special.gammaln(self.shape))

    def mean(self) -> float:
        return self.moment(1)

    def gamma_limit(self, p: float) -> float:
        """Gamma_p of the law: E[W^p] / E[W]."""
        return self.moment(p) / self.mean()

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
        """Inverse CDF on [0, 1]; vectorized, and 0-d input is accepted.

        A gamma law of shape 1, 2 or 3 takes :func:`_integer_gamma_quantile`:
        within 2 ulp of the exact quantile for u from 1e-300 up to 1 - 2^-53,
        0 at u = 0 and inf at u = 1, built only from operations whose bits do
        not depend on the CPU.  Within 2 ulp is not monotone: at shapes 2 and
        3 the value can fall by an ulp as u grows to the next double.  Any
        other shape takes :func:`_bisected_gamma_quantile`, the least double
        the CDF reaches u at, which is non-decreasing in u by construction.
        """
        u = np.asarray(u, dtype=float)
        if self.family == "constant":
            return np.full_like(u, self.c)
        if self.family == "finite":
            cum = np.cumsum(self.probs)
            idx = np.searchsorted(cum, u, side="left")
            return np.asarray(self.values)[np.minimum(idx, len(self.values) - 1)]
        if self.shape in (1.0, 2.0, 3.0):
            return self.scale * _integer_gamma_quantile(int(self.shape), u)
        return self.scale * _bisected_gamma_quantile(self.shape, u)

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
        return {"family": self.family, **{key: getattr(self, key)
                                          for key in _CONFIG_PARAMS[self.family]}}

    @staticmethod
    def from_config(cfg: dict) -> "WeightSpec":
        """The law of a config object: ``family`` and exactly the parameters
        of that family, JSON numbers (not booleans or strings), and
        ``values`` and ``probs`` lists of them."""
        if not isinstance(cfg, dict):
            raise ValueError(f"a weight law must be an object with a family; got {cfg!r}")
        family = cfg.get("family")
        if not isinstance(family, str) or family not in _CONFIG_PARAMS:
            raise ValueError(f"the family must be one of {', '.join(_CONFIG_PARAMS)}; "
                             f"got {family!r}")
        params = _CONFIG_PARAMS[family]
        for key in cfg:
            if key != "family" and key not in params:
                raise ValueError(f"the {family} law takes no key {key!r}")
        for key in params:
            if key not in cfg:
                raise ValueError(f"missing key {key!r} of the {family} law")
        return WeightSpec(family, **{key: _config_param(key, cfg[key]) for key in params})


# the parameters of each family, in config files and in WeightSpec alike
_CONFIG_PARAMS = {"constant": ("c",), "finite": ("values", "probs"),
                  "gamma": ("shape", "scale")}


def _config_param(key: str, value):
    """A law parameter from a config: a number, or a tuple for ``values`` and ``probs``."""
    if key in ("values", "probs"):
        if not isinstance(value, (list, tuple)):  # to_config gives tuples, JSON lists
            raise ValueError(f"{key} must be a list of numbers; got {value!r}")
        return tuple(_config_param(f"each {key} entry", x) for x in value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number; got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError(f"{key} must be finite; got {value!r}") from None


# ---- integer-shape gamma quantiles ---------------------------------------------------

# Per shape k: the start x = s P(s) with s = (k! L)^(1/k), L = -log(1 - u),
# the split point, and S(x) = (e^x - e_{k-1}(x)) / x^k on [0, split], where
# e_{k-1} is the exponential series cut after k terms.  Both are near-minimax
# polynomials (mpmath.chebyfit; highest power first): P is within 1.2e-6 of x / s
# for u up to 1 - 2^-53, and S within 4e-18 of the series.
_GAMMA_START = {
    2: (5.368006044921933e-10, -2.1891780177178035e-08, 3.4245822673847713e-07,
        -1.945065475807255e-06, -1.4206883752338045e-05, 0.00037457045729787634,
        -0.003872580885028742, 0.02788342238334306, 0.3333066934375541,
        1.0000011503307418),
    3: (1.8028830714590437e-07, -5.7027985827370356e-06, 7.564241249669531e-05,
        -0.0005108646666186591, 0.0012793199700356092, 0.007289277713732565,
        0.08748234353034622, 0.25000634555668383, 0.9999997435973591),
}
_GAMMA_SERIES = {
    2: (2.0, (1.1726961171603088e-13, 2.2431651955532125e-13, 1.379465479661597e-11,
              1.5416331743976784e-10, 2.099881167618875e-09, 2.5035692323658033e-08,
              2.755890129392721e-07, 2.755721021493963e-06, 2.480159259225868e-05,
              0.00019841269665615247, 0.0013888888892688149, 0.008333333333283921,
              0.04166666666667003, 0.16666666666666657, 0.5)),
    3: (3.0, (5.700215654193955e-16, -2.664133124355838e-15, 8.706386628237284e-14,
              5.837257138548956e-13, 1.2047289321630625e-11, 1.5927490745241114e-10,
              2.089861106642248e-09, 2.5049456540822852e-08, 2.755755250461044e-07,
              2.7557304619655388e-06, 2.480158793182696e-05, 0.00019841269823451377,
              0.001388888888919303, 0.008333333333330611, 0.04166666666666676,
              0.16666666666666666)),
}
_SPLITTER = 134217729.0  # 2^27 + 1: a * _SPLITTER - (a * _SPLITTER - a) keeps 26 bits of a
_LN2 = 0.6931471805599453
# Values per pass.  A pass holds some twenty temporaries of its length, so a
# million-value draw in one pass would hold some 160 MB; and a pass makes some
# ninety numpy calls, so short passes pay per call.  From 8192 values per pass
# on, glibc's malloc also hands the freed temporaries back to the kernel and
# maps them again, pass after pass: in a fresh process on a 2-core x86 VM, a
# draw of 10^6 shape-2 values took some 22,000 page faults at 8192 values per
# pass and some 500 at 4096 and 6144, and a median of 118 ms at 8192 in the
# one-pass form of T below against 95 and 83 ms at 4096 and 6144 (10 runs
# each).
_BLOCK = 6144
# From this many values on, a pass evaluates each branch of T only on its own
# values, which it gathers and scatters back: 83 against 91 ms for that draw at
# 6144 values per pass.  A shorter call (a tree node's weight, a few dozen edge
# weights, a small graph's vertex weights) pays per numpy call more than per
# value, and evaluates both branches everywhere: in-process, both forms took
# about 250 us at 2000 values and 305 us at 3000, and the gathering form 9%
# more at 500 values.
_MASKED_FROM = 4096
_INF_BITS = int(np.float64(np.inf).view(np.int64))  # above the pattern of every finite double


def _bisected_gamma_quantile(shape: float, u):
    """Quantile of gamma(shape, 1) at u in [0, 1], non-decreasing in u.

    The bit patterns of the doubles in [0, inf] are ordered as the doubles are,
    and :func:`_bisect_bits` bisects them.  Below u = 1/2 the answer is the
    least y with P(shape, y) >= u, from 0 up to the median m; from 1/2 on it is
    the least y with Q(shape, y) <= 1 - u (exact there), so the upper tail keeps
    its relative precision, from 0 up to inf, and y = m at u = 1/2.  Within
    either half every u halves the same bracket, and where two u first take
    different halves the smaller u takes the lower one; so y is non-decreasing
    in u whatever the rounding of P and Q, which gammaincinv does not give (at
    shape 1.5 its value at 0.01 exceeds its value at the next double).
    """
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1)
    out = np.full(flat.shape, np.nan)
    out[flat == 1.0] = np.inf
    lower = (flat >= 0.0) & (flat < 0.5)
    upper = (flat >= 0.5) & (flat < 1.0)
    ul, uu = flat[lower], 1.0 - flat[upper]
    out[lower] = _bisect_bits(lambda x: special.gammainc(shape, x) >= ul,
                              np.full(ul.shape, _gamma_median_bits(shape)))
    out[upper] = _bisect_bits(lambda x: special.gammaincc(shape, x) <= uu,
                              np.full(uu.shape, _INF_BITS))
    return out.reshape(u.shape)


@lru_cache(maxsize=64)
def _gamma_median_bits(shape: float) -> int:
    """Bit pattern of the quantile of gamma(shape, 1) at u = 1/2."""
    return int(_bisect_bits(lambda x: special.gammaincc(shape, x) <= 0.5,
                            np.array([_INF_BITS])).view(np.int64)[0])


def _bisect_bits(test, hi):
    """A double x >= 0 where test turns true, by bisecting the bit patterns up to hi.

    test is taken as true at the pattern hi and false at -1, one below the
    pattern of 0 (it reads as nan, on which a comparison is false).  The result
    passes test and the double below it does not, or it is 0; where test is
    monotone it is the least double that passes.
    """
    lo = np.full(hi.shape, -1, dtype=np.int64)
    # a bracket holds fewer than 2^63 patterns, so 63 halvings leave one
    for _ in range(63):
        mid = lo + (hi - lo) // 2
        take = test(mid.view(np.float64))
        hi = np.where(take, mid, hi)
        lo = np.where(take, lo, mid)
    return hi.view(np.float64)


def _horner(coeffs, x):
    acc = coeffs[0] * x
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= x
        acc += c
    return acc


def _cbrt(a):
    """a^(1/3) to about 1e-16, from frexp, log1p and expm1."""
    m, e = np.frexp(a)
    q, r = np.divmod(e, 3)
    return np.ldexp(special.expm1((special.log1p(m - 1.0) + r * _LN2) / 3.0) + 1.0, q)


def _series_tv(series, x, xk, v):
    """T v below the split: T = x^k (S_0 + x S_1(x)), with S_0 v (exact for
    k = 2) kept apart from the smaller part."""
    return xk * (series[-1] * v + (x * _horner(series[:-1], x)) * v)


def _integer_gamma_quantile(k: int, u):
    """Quantile of gamma(k, 1) for k in {1, 2, 3} at u in [0, 1], in passes.

    A call of more than ``_BLOCK`` values takes ceil(size / _BLOCK) passes of
    equal length (to one value), so no pass is a short tail that pays per
    numpy call.  Every value takes the same operations in any pass.
    """
    u = np.asarray(u, dtype=float)
    passes = -(-u.size // _BLOCK)
    if passes <= 1:
        return _integer_gamma_block(k, u)
    out = np.empty(u.shape)
    flat_u, flat_out = u.reshape(-1), out.reshape(-1)
    ends = [i * u.size // passes for i in range(passes + 1)]
    for lo, hi in zip(ends, ends[1:]):
        flat_out[lo:hi] = _integer_gamma_block(k, flat_u[lo:hi])
    return out


def _integer_gamma_block(k: int, u: np.ndarray):
    """Quantile of gamma(k, 1) for k in {1, 2, 3} at u in [0, 1].

    Shape 1 is L = -log(1 - u).  For k >= 2 the quantile solves
    D(x) = L with D(x) = -log Q(k, x) = x - log e_{k-1}(x), whose derivative is
    the hazard D' = x^(k-1) / ((k-1)! e_{k-1}(x)).  A polynomial start within
    1.2e-6 takes one third-order (Chebyshev) step; the error left is the
    residual's rounding, under 2 ulp.  The residual is formed in odds:
    D(x) - L = log1p(O(x) (1 - u) - u), O = T / e_{k-1}, T = e^x - e_{k-1}(x),
    with T from its series below the split point and from expm1 above it,
    so nothing cancels.  The start keeps 26 bits, so that x^2 is exact and so
    is 1 + x above 2^-27, and 1 - u and u (1 + x) are carried with their
    rounding errors.

    Every operation is IEEE arithmetic, sqrt, frexp/ldexp or scipy.special's
    log1p/expm1: numpy's own transcendental ufuncs return bits that follow the
    SIMD code path the CPU selects, and these do not.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        v = 1.0 - u
        w = v - 1.0                       # exact
        c = (w + u) / np.maximum(v, 0.5)  # 1 - u = v (1 - c); c = 0 for u >= 1/2
        L = c - special.log1p(w)
        if k == 1:
            return L
        split, series = _GAMMA_SERIES[k]
        s = np.sqrt(L + L) if k == 2 else _cbrt(6.0 * L)
        x = s * _horner(_GAMMA_START[k], s)
        g = x * _SPLITTER
        x = g - (g - x)
        g = u * _SPLITTER
        uh = g - (g - u)
        ul = u - uh                       # u = uh + ul, uh with 26 bits
        xx = x * x
        if k == 2:
            e1, xk, hx = x, xx, x         # e_{k-1} - 1, x^k, x^(k-1) / (k-1)!
        else:
            e1, xk, hx = x + 0.5 * xx, xx * x, 0.5 * xx
        e = 1.0 + e1
        # T (1 - u) / (1 - c) = T v, from the series below the split and from
        # expm1 above it; either way each value takes the same operations
        below = x < split
        if u.size < _MASKED_FROM:
            tv = np.where(below, _series_tv(series, x, xk, v), (special.expm1(x) - e1) * v)
        else:
            tv = np.empty_like(x)
            i, j = np.flatnonzero(below), np.flatnonzero(~below)
            tv[i] = _series_tv(series, x[i], xk[i], v[i])
            tv[j] = (special.expm1(x[j]) - e1[j]) * v[j]
        f = special.log1p(((((tv - u) - uh * e1) - ul * e1) - tv * c) / e)
        r = f * e / hx                    # Newton step f / D'
        # D'' / (2 D') x = (k - 1 - x e_{k-2} / e_{k-1}) / 2
        a = 0.5 / e if k == 2 else 1.0 - 0.5 * x * (1.0 + x) / e
        x = x - r * (1.0 + r / x * a)
        # at u = 0 and u = 1 the step is nan; there the quantile is L = 0 or inf,
        # and elsewhere it exceeds L
        return np.fmax(x, L)


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

    @cached_property
    def lambda_n(self) -> float:
        """Lambda_n = sum_v W_v, summed once per n."""
        return float(self.W.sum())

    def __getstate__(self):
        # the cached tables below are O(n) each and depend on W alone, so a
        # pickled copy (a pool task) carries only the weights and rebuilds
        # what it reads
        return {"n": self.n, "W": self.W, "theta": self.theta}

    @cached_property
    def ascending(self) -> np.ndarray:
        """W in ascending order, sorted once per n for :func:`moments` and
        :attr:`size_biased`."""
        return np.sort(self.W)

    @cached_property
    def size_biased(self) -> "EmpiricalSizeBiased":
        """The empirical size-biased law, built on first use and kept with the weights.

        Mirrors :meth:`WeightSpec.size_biased`.  The weights of one n are
        frozen across replicas, so every replica graph of that n (at every
        depth, and in stage 1's detached growth) reads this one law.
        """
        lam = self.lambda_n
        upper = _capped_cdf(np.divide(self.ascending, lam))
        cum = _capped_cdf(np.divide(self.W, lam))
        return EmpiricalSizeBiased(W=self.W, scale=lam / (self.n * self.theta),
                                   cum=cum, ascending=self.ascending, upper=upper)

    @cached_property
    def bucket_plan(self) -> "BucketPlan":
        """The graph samplers' buckets and bucket pairs, built on first use and kept
        with the weights.

        Vertices are grouped by floor(log2 W) into power-of-two buckets.  For
        each pair of buckets a <= b that has a vertex pair, the plan keeps
        the probability bound pmax = min(wmax_a wmax_b / (n theta), 1), the
        number of vertex pairs, where both buckets start in the vertex order,
        the size of b and whether a == b, as one tuple of Python numbers, and
        the candidates a graph expects over all pairs; for each bucket, where
        it starts and stops and its largest weight.  All of it depends on the
        weights alone, so every replica graph of one n reads this one plan
        and spends per bucket pair (or, for a lazy row, per bucket) only its
        generator draws.
        """
        # floor(log2 W) is frexp's exponent less one: exact for every positive
        # double, subnormals too, where np.log2's bits follow the SIMD dispatch.
        # It lies in [-1074, 1023], so int16 holds it, and numpy's stable
        # argsort of int16 is an O(n) radix sort
        bucket = (np.frexp(self.W)[1] - 1).astype(np.int16)
        # int32 vertex ids halve what the sampler keeps per edge until the
        # graph sorts the edges into its list
        if self.n > np.iinfo(np.int32).max:
            raise ValueError("the graph sampler needs n below 2^31")
        order = np.argsort(bucket, kind="stable").astype(np.int32)
        sizes = np.bincount(bucket - bucket.min())
        sizes = sizes[sizes > 0]
        starts = np.cumsum(sizes) - sizes
        weight = self.W[order]
        wmax = np.maximum.reduceat(weight, starts)
        a, b = np.triu_indices(starts.size)
        same = a == b
        total = np.where(same, sizes[a] * (sizes[a] - 1) // 2, sizes[a] * sizes[b])
        keep = total > 0  # a bucket of one vertex has no pair with itself
        a, b, same, total = a[keep], b[keep], same[keep], total[keep]
        pmax = np.minimum(wmax[a] * wmax[b] / (self.n * self.theta), 1.0)
        pairs = list(zip(pmax.tolist(), total.tolist(), starts[a].tolist(), starts[b].tolist(),
                         sizes[b].tolist(), same.tolist()))
        return BucketPlan(order=order, weight=weight, pairs=pairs,
                          expected=sum(p * t for p, t, *_ in pairs),
                          buckets=list(zip(starts.tolist(), (starts + sizes).tolist())),
                          wmax=wmax)


@dataclass(frozen=True, eq=False)
class BucketPlan:
    """Bucket pairs of one weight vector, in the order the graph sampler visits them.

    ``order`` lists the vertices (int32) bucket by bucket, ascending inside
    each bucket, and ``weight`` their weights in that order.  ``pairs[k]``
    is bucket pair k as Python numbers, (pmax, total, start_a, start_b,
    size_b, same): its probability bound and number of vertex pairs, which
    the sampler hands to the generator, and where its candidates land, the
    slots of bucket a from ``start_a`` against the ``size_b`` slots of
    bucket b from ``start_b`` (the strict upper triangle when ``same``,
    where a is b); total bounds the candidates, so bucket a's size is not
    needed.  ``expected`` is the number of candidates a graph draws on
    average, the sum of total * pmax, which picks the sampler's path.
    ``buckets[b]`` is where bucket b starts and stops in that order, as
    Python ints, and ``wmax[b]`` its largest weight: the lazy rows of
    :class:`~sparselocal.graph.LazyGraph` skip over one bucket at a time.
    """

    order: np.ndarray
    weight: np.ndarray
    pairs: list[tuple[float, int, int, int, int, bool]]
    expected: float
    buckets: list[tuple[int, int]]
    wmax: np.ndarray


@dataclass(frozen=True, eq=False)
class EmpiricalSizeBiased:
    """Vertex i with probability W_i / Lambda_n: the intermediate tree's type law.

    An individual of type W_i has Poi(W_i * scale) children, with
    scale = Lambda_n / (n theta).  ``cum`` is the cumulative table in vertex
    order, which label draws invert.  The quantile coupling to the limiting
    size-biased law needs each vertex's CDF interval in weight order instead:
    ``ascending`` is W sorted (the copy :func:`moments` sorts too) and
    ``upper`` its cumulative table, so a vertex of stable rank r in weight
    order has the interval (upper[r - 1], upper[r]].  Both tables cost one
    O(n log n) sort and two O(n) sums, and an interval one binary search, or
    two for a tied weight (:meth:`interval`).  They depend on the weights alone, so the law lives
    with the :class:`EmpiricalWeights` of one n
    (:attr:`EmpiricalWeights.size_biased`), not with one graph: every replica
    graph of that n shares it, at every depth and in stage 1's detached
    growth.
    """

    W: np.ndarray
    scale: float
    cum: np.ndarray
    ascending: np.ndarray
    upper: np.ndarray
    ties: dict = field(default_factory=dict, repr=False)  # tied weight -> its labels

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
        """The CDF interval (lo, hi] of ``label`` in weight order.

        Equal weights are ranked by label, as a stable sort ranks them.  The
        rank is the first place of W_label in ``ascending``, plus, when the
        weight is tied, the number of equal weights at lower labels, read
        from the ascending labels of that weight.  Those are found once per
        tied value, O(n), and kept; every call after that is O(log n).
        """
        w = self.W[label]
        rank = int(np.searchsorted(self.ascending, w))
        if rank + 1 < self.ascending.size and self.ascending[rank + 1] == w:
            group = self.ties.get(w)
            if group is None:
                group = self.ties[w] = np.flatnonzero(self.W == w)
            rank += int(np.searchsorted(group, label))
        return (self.upper[rank - 1] if rank else 0.0), self.upper[rank]


@dataclass
class MomentSummary:
    """Normalized empirical moments used by every bound evaluator."""

    gamma: dict[int, float]
    kappa: dict[int, float]
    lambda_n: float
    alpha_n: float
    theta: float


def sample_empirical_weights(spec: WeightSpec, n: int, seed: tuple[int, int],
                             stream: int = 0) -> EmpiricalWeights:
    """Draw W_1..W_n i.i.d. from spec; theta is the closed-form mean."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = stream_rng(seed, stream, _WEIGHT_TAG)
    return EmpiricalWeights(n=n, W=spec.sample(rng, n), theta=spec.mean())


def moments(weights: EmpiricalWeights, spec: WeightSpec | None = None) -> MomentSummary:
    """Gamma_{p,n} for p in {0,1,2,3}, kappa_{p,n} for p in {1,2}, Lambda_n.

    The powers are products, W^2 = W W and W^3 = W^2 W, whose bits are the
    same on every CPU: numpy's ``W ** 3`` is a pow whose bits follow the SIMD
    dispatch.  Gamma_1 is Lambda_n, summed once per n
    (:attr:`EmpiricalWeights.lambda_n`).

    When spec is given, alpha_n is the larger of the exact 1-Wasserstein
    distances W1(nu_n, nu) and W1(nu_hat_n, nu_hat); otherwise 0.  Both read
    the one ascending copy of W that the weights keep
    (:attr:`EmpiricalWeights.ascending`): nu_n puts mass 1/n and nu_hat_n
    mass W_v / Lambda_n on each sorted weight, and the cumulative table of
    the latter is the size-biased law's ``upper``
    (:attr:`EmpiricalWeights.size_biased`), built once per n.  Each distance
    costs a few O(n) passes of arithmetic, plus the spec's CDF at the ends of
    blocks of sorted weights and inside the blocks where the empirical and
    limiting quantile functions may cross, and its partial quantile integral
    at O(crossings) points (see :func:`_wasserstein_steps`).
    """
    W = weights.W
    n, theta = weights.n, weights.theta
    alpha = 0.0
    if spec is not None:
        # the plain table is dropped before the size-biased law, built here on
        # first use, adds its two
        s = weights.ascending
        alpha = _wasserstein_steps(s, _capped_cdf(np.full(n, 1.0 / n)), spec)
        alpha = max(alpha, _wasserstein_steps(s, weights.size_biased.upper, spec.size_biased()))
    norm = n * theta
    lam = weights.lambda_n
    power = W * W
    excess = W > np.sqrt(norm)
    kappa = {1: float(W[excess].sum() / norm), 2: float(power[excess].sum() / norm)}
    gamma = {0: n / norm, 1: lam / norm, 2: float(power.sum() / norm)}
    power *= W
    gamma[3] = float(power.sum() / norm)
    return MomentSummary(gamma=gamma, kappa=kappa, lambda_n=lam, alpha_n=alpha, theta=theta)


# ---- exact 1-Wasserstein distances ---------------------------------------------------


def _capped_cdf(masses: np.ndarray) -> np.ndarray:
    """Cumulative sum of the float array ``masses``, in place, capped at 1 and
    ending at 1: rounding can leave it short of 1, or past 1 too early."""
    np.cumsum(masses, out=masses)
    np.minimum(masses, 1.0, out=masses)
    masses[-1] = 1.0
    return masses


def _wasserstein_steps(s: np.ndarray, hi: np.ndarray, spec: WeightSpec) -> float:
    """W1 between a weighted empirical law and a spec, by quantile coupling.

    ``s`` holds the empirical values (non-negative) in ascending order and
    ``hi`` the cumulative masses of their steps, capped at 1 and ending at
    exactly 1 (:func:`_capped_cdf`): rounding can carry a partial sum past 1
    before the last step, and G is defined on [0, 1] only.  ``hi`` is read,
    not written.  The empirical quantile function is s_i on the step
    (lo_i, hi_i], lo_i = hi_{i-1} and lo_0 = 0.  Split each step at
    c_i = clip(F(s_i), lo_i, hi_i), where the spec's quantile Q crosses s_i;
    with G the spec's partial quantile integral, the step adds

        s_i ((c_i - lo_i) - (hi_i - c_i)) + G(lo_i) + G(hi_i) - 2 G(c_i).

    Where c_i == hi_i the G part is G(lo_i) - G(hi_i), where c_i == lo_i it is
    G(hi_i) - G(lo_i), and lo_i = hi_{i-1}.  So over a run of steps clipped
    the same way the G parts telescope to the G values at the run's two ends.
    Each unclipped step is a run of its own.  G runs only at the run ends and
    the unclipped c_i, O(crossings) points (one to two thousand at n = 1e6
    for a sample from the spec), and each run's linear sum and G part nearly
    cancel, so nothing large is summed.

    The linear part of a clipped step is +-s_i (hi_i - lo_i): where c_i ==
    hi_i, (c_i - lo_i) - (hi_i - c_i) is (hi_i - lo_i) - 0, and where c_i ==
    lo_i < hi_i it is 0 - (hi_i - lo_i), both exact.  So the step masses
    times s, each negated where the step is clipped down, are the linear
    parts of every clipped step, bit for bit, in two passes; a step of no
    mass reads as clipped up (c_i == hi_i is tested first).  Only the steps
    of the leaves below that may hold a crossing take c_i and the formula.

    F itself is evaluated only near the crossings.  The steps are cut into
    blocks of ``_W1_BLOCK`` + 1, each block's last step the next one's first,
    and F is taken at the block ends a and b (:func:`_block_clips`).  If
    F(s_a) and F(s_b) are both at least the block's top hi_b, every step of
    the block is clipped up; if both are at most lo_a, every step is clipped
    down or has no mass.  The other blocks are cut the same way into leaves
    of ``_W1_LEAF`` + 1 steps and F is taken at their ends, and only the
    leaves that their ends do not decide take F point by point.  At n = 1e6,
    on gamma(2, 1) samples from three seeds, a distance took F at 38,000 to
    107,000 points in all, where blocks of 32 without shared ends or leaves
    took 83,000 to 254,000.  The ends are exact.  An interior step i of a
    block or leaf from a to b has hi_i <= hi_{b-1} and lo_i >= lo_{a+1}, so
    it sits a step mass inside the end values, and masses do not fall along
    the sorted sample (1/n, or s_i / Lambda_n), so a step's mass is at least
    1/n of the cumulative mass at its end.  The clip of every interior step
    is therefore the one F(s_i) itself gives as long as the computed F is
    monotone in s up to a relative error below 1/n.  F is a step function
    for a finite law, and scipy's gammainc is monotone to a few ulp.  So each
    c_i, and the sum, keep every bit of the all-points clip.
    """
    linear = np.empty(s.size)  # the step masses hi - lo, then the linear parts
    linear[0] = hi[0]
    np.subtract(hi[1:], hi[:-1], out=linear[1:])
    if spec.family == "constant":
        # G(u) = c u, so each step adds (hi - lo)|s - c|: exactly 0 on a constant sample
        return float(np.dot(linear, np.abs(s - spec.c)))
    sign, near = _block_clips(s, hi, spec)
    sign[linear == 0.0] = 1
    np.multiply(linear, s, out=linear)
    linear *= sign
    lo, top = np.where(near > 0, hi[near - 1], 0.0), hi[near]
    c = np.clip(spec.cdf(s[near]), lo, top)
    up = c == top
    near_sign = up.view(np.int8) - ((c == lo) & ~up).view(np.int8)  # +1 hi, -1 lo, 0 unclipped
    sign[near] = near_sign
    linear[near] = s[near] * ((c - lo) - (top - c))
    unclipped = near_sign == 0
    # a run starts at step 0, where the clip changes, and at each unclipped step
    starts = np.union1d(np.flatnonzero(sign[1:] != sign[:-1]) + 1,
                        np.append(near[unclipped], 0))
    run_sign = sign[starts]
    g = spec.partial_quantile_integral(
        np.concatenate((np.where(starts > 0, hi[starts - 1], 0.0), [1.0], c[unclipped])))
    g_start, g_end, g_c = g[:starts.size], g[1:starts.size + 1], g[starts.size + 1:]
    g_part = np.where(run_sign > 0, g_start - g_end, g_end - g_start)
    flat = run_sign == 0
    g_part[flat] = (g_start[flat] - g_c) + (g_end[flat] - g_c)
    return float((np.add.reduceat(linear, starts) + g_part).sum())


_W1_BLOCK = 32  # steps from one block end to the next
_W1_LEAF = 8    # steps from one leaf end to the next, within a block


def _block_clips(s, hi, spec):
    """The clips that block and leaf ends decide, and the steps of the leaves they do not.

    Leaf j runs from step j * ``_W1_LEAF`` to the next leaf's first step
    (the last leaf to step n - 1), and each block is ``_W1_BLOCK`` /
    ``_W1_LEAF`` leaves.  F is taken once at each block end, and at the leaf
    ends of the blocks whose ends do not decide their clip.  Returns
    ``sign``, int8 per step: +1 in a leaf clipped up and -1 in one clipped
    down (which a step of no mass there does not follow), an end that two
    leaves share taking the clip of the leaf it starts; and ``near``, the
    ascending steps of the leaves whose ends do not decide their clip, both
    ends included, which ``sign`` does not give.
    """
    n = s.size
    ends = np.append(np.arange(0, max(n - 1, 1), _W1_LEAF), n - 1)
    f = np.full(ends.size, np.nan)
    outer = np.append(np.arange(0, ends.size - 1, _W1_BLOCK // _W1_LEAF), ends.size - 1)
    f[outer] = spec.cdf(s[ends[outer]])
    clip = np.repeat(_end_clips(ends, f, hi, outer[:-1], outer[1:]), np.diff(outer))
    open_leaves = np.flatnonzero(clip == 0)
    inner = open_leaves[np.isnan(f[open_leaves])]
    f[inner] = spec.cdf(s[ends[inner]])
    clip[open_leaves] = _end_clips(ends, f, hi, open_leaves, open_leaves + 1)
    sizes = np.diff(ends)
    sizes[-1] += 1
    sign = np.repeat(np.where(clip > 0, 1, -1).astype(np.int8), sizes)
    near = (ends[:-1][clip == 0, None] + np.arange(_W1_LEAF + 1)).ravel()
    near = near[near < n]
    return sign, near[np.diff(near, prepend=-1) > 0]  # an end two such leaves share, once


def _end_clips(ends, f, hi, a, b):
    """+1 where F at ends a and b clips every step from ends[a] to ends[b] up,
    -1 where it clips them down, 0 where it does not decide."""
    top = hi[ends[b]]
    bottom = np.where(ends[a] > 0, hi[ends[a] - 1], 0.0)
    up = (f[a] >= top) & (f[b] >= top)
    down = (f[a] <= bottom) & (f[b] <= bottom) & ~up
    return up.view(np.int8) - down.view(np.int8)
