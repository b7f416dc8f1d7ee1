"""Closed-form evaluators for the coupling-failure and CLT bounds.

Every formula is parameterized by a :class:`MomentSummary` (the empirical
normalized moments), the limiting normalized moments of the weight law, the
size threshold k_n, total-variation distances of the decorative weight laws
and the two unspecified universal constants C and C0 (both default 1 and are
reported alongside every bound).  The evaluators are used as one-sided
Monte Carlo acceptance thresholds and for bound-versus-n trend tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .weights import EmpiricalWeights, MomentSummary, WeightSpec


def default_k_n(n: int) -> float:
    """The size threshold k_n = ceil(n^(1/3)) used unless a config sets one."""
    return float(np.ceil(n ** (1.0 / 3.0)))


@dataclass
class VertexSetSummary:
    """(|V|, |V|_1, |V|_2, |V|_+): size and connectivity-weight norms."""

    count: float
    weight: float
    weight_sq: float
    weight_excess: float

    @staticmethod
    def of(weights: EmpiricalWeights, roots) -> "VertexSetSummary":
        W = weights.W[np.asarray(list(roots), dtype=np.int64)]
        excess = W > np.sqrt(weights.n * weights.theta)
        return VertexSetSummary(count=float(len(roots)), weight=float(W.sum()),
                                weight_sq=float((W ** 2).sum()),
                                weight_excess=float(W[excess].sum()))


@dataclass
class BoundParams:
    n: int
    ell: int
    k_n: float
    moments: MomentSummary
    gamma_limit: dict[int, float]
    tv_edge: float = 0.0
    tv_vertex: float = 0.0
    C: float = 1.0
    C0: float = 1.0

    def __post_init__(self):
        if self.C <= 0 or self.C0 <= 0:
            raise ValueError("constants must be positive")

    @staticmethod
    def from_summary(n: int, ell: int, moments: MomentSummary, spec: WeightSpec,
                     k_n: float | None = None, **kw) -> "BoundParams":
        if k_n is None:
            k_n = default_k_n(n)
        gamma_limit = {p: spec.gamma_limit(p) for p in (1, 2, 3)}
        return BoundParams(n=n, ell=ell, k_n=k_n, moments=moments,
                           gamma_limit=gamma_limit, **kw)

    # shorthands used throughout the displays
    @property
    def theta(self) -> float:
        return self.moments.theta

    def G(self, p: int) -> float:
        return self.moments.gamma[p]

    def K(self, p: int) -> float:
        return self.moments.kappa[p]

    @property
    def alpha(self) -> float:
        return self.moments.alpha_n

    @property
    def ntheta(self) -> float:
        return self.n * self.theta


# ---- coupling bounds -----------------------------------------------------------------


def eta_bound(p: BoundParams, vs: VertexSetSummary) -> float:
    """Failure bound for coupling the balls around a vertex set to
    independent limiting trees (no decorative weights)."""
    ell, kn = p.ell, p.k_n
    g2lim = p.gamma_limit[2]
    main = (vs.weight_sq * p.G(2) / p.ntheta
            + vs.weight_excess * p.G(1)
            + vs.weight * (p.G(2) + 1.0) ** ell
            * (p.G(3) / p.ntheta + p.K(1) + p.K(2)
               + (2.0 + p.G(1)) / kn + kn / p.ntheta))
    tail = (vs.count / kn
            + kn ** 2 / (p.ntheta * p.G(1))
            + vs.weight * p.alpha
            * (1.0 / p.theta + (g2lim + 1.0) ** (ell - 1)
               * (p.G(2) / (p.theta * p.G(1)) + 1.0)))
    return main + tail


def epsilon_v_bound(p: BoundParams, vs: VertexSetSummary) -> float:
    """eta plus the total-variation cost of coupling the decorative weights."""
    g2lim = p.gamma_limit[2]
    extra = (vs.count + vs.weight * (g2lim + 1.0) ** p.ell) * (p.tv_edge + p.tv_vertex)
    return eta_bound(p, vs) + extra


def epsilon_rho_sequences(p: BoundParams) -> tuple[float, float]:
    """The aggregated per-vertex sequences entering the CLT bound.

    epsilon is the vertex-set bound after substituting the norm sums by
    their averages (|V|_q -> theta Gamma_{q,n} per vertex); rho absorbs the
    neighbourhood correlation terms and is capped at 1.
    """
    ell, kn = p.ell, p.k_n
    g2lim = p.gamma_limit[2]
    eps = (p.G(2) ** 2 / p.n
           + p.theta * p.K(1) * p.G(1)
           + p.G(1) * p.theta * (p.G(2) + 1.0) ** ell
           * (p.G(3) / p.ntheta + p.K(1) + p.K(2)
              + (2.0 + p.G(1)) / kn + kn / p.ntheta)
           + 1.0 / kn
           + kn ** 2 / (p.ntheta * p.G(1))
           + p.alpha * (p.G(1) + (g2lim + 1.0) ** (ell - 1)
                        * (p.G(2) + p.theta * p.G(1)))
           + (1.0 + p.G(1) * p.theta * (g2lim + 1.0) ** ell)
           * (p.tv_edge + p.tv_vertex))
    rho = min((p.theta * p.G(2) + p.theta * p.G(1) + 1.0) / p.ntheta
              * (p.G(1) + 1.0) ** 2
              * (p.G(2) + p.C) ** (2 * ell + 1)
              * (p.G(3) + 1.0) ** 2,
              1.0)
    return eps, rho


def intermediate_coupling_bound(p: BoundParams, Wv: float) -> float:
    """Single-root bound for the ball/intermediate-tree coupling, with the
    expected neighbourhood norms replaced by their closed-form bounds."""
    ell, kn = p.ell, p.k_n
    mean_sq = Wv ** 2 + Wv * (p.G(2) + 1.0) ** (ell - 1) * p.G(3)
    sqrt_nt = np.sqrt(p.ntheta)
    mean_excess = Wv * (Wv > sqrt_nt) + Wv * (p.G(2) + 1.0) ** (ell - 1) * p.K(2)
    mean_weight = Wv * (p.G(2) + 1.0) ** ell
    return (mean_sq * p.G(2) / p.ntheta
            + mean_excess * p.G(1)
            + mean_weight * (p.K(1) + 1.0 / kn + kn / p.ntheta))


def repeat_probability_bound(p: BoundParams, vs: VertexSetSummary) -> float:
    """Probability that the independence repair touches any tree."""
    lam = p.moments.lambda_n
    return (p.k_n ** 2 / lam
            + (vs.count
               + vs.weight * p.G(1) * (p.G(2) + 1.0) ** (p.ell - 1)
               + vs.weight * (p.G(2) + 1.0) ** p.ell) / p.k_n)


def limit_redraw_bound(p: BoundParams, vs: VertexSetSummary) -> float:
    """Probability that the redraw from empirical to limiting types breaks."""
    g2lim = p.gamma_limit[2]
    return vs.weight * p.alpha * (1.0 / p.theta
                                  + (g2lim + 1.0) ** (p.ell - 1)
                                  * (p.G(2) / (p.theta * p.G(1)) + 1.0))


# ---- CLT bound -----------------------------------------------------------------------


def clt_bound(p: BoundParams, sigma2: float, me_delta: float, mv_delta: float,
              chi: float, J: float) -> float:
    """Kolmogorov-distance bound for the standardized functional.

    me_delta and mv_delta are the products M^E_n delta^E_k and
    M^V_n delta^V_k of the local-approximation moments and gaps at level
    k = ell; chi is the degree-moment average and J the envelope-moment
    constant.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    eps, rho = epsilon_rho_sequences(p)
    ratio = p.n / sigma2
    lead = (ratio ** 0.5
            * (p.theta ** 0.5 + p.G(2) + chi ** 0.5) ** 2
            * (max(me_delta, 0.0) ** 0.125 + max(mv_delta, 0.0) ** 0.125
               + eps ** (1.0 / 16.0) + rho ** (1.0 / 16.0)))
    tail = ratio ** 0.75 * (p.theta * p.G(1) + chi ** 0.5) / p.n ** 0.25
    return p.C0 * J ** 0.25 * (lead + tail)


# ---- structural bounds ---------------------------------------------------------------


def mean_pweight_bound(p: BoundParams, Wv: float, q: int) -> float:
    """Upper bound for E |ball|_q (total q-th power of connectivity weights)."""
    if q == 1:
        return Wv * (p.G(2) + 1.0) ** p.ell
    return Wv ** q + Wv * (p.G(2) + 1.0) ** (p.ell - 1) * p.G(q + 1)


def mean_size_bound(p: BoundParams, Wv: float) -> float:
    return 1.0 + Wv * p.G(1) * (p.G(2) + 1.0) ** (p.ell - 1)


def excess_weight_bound(p: BoundParams, Wv: float) -> float:
    hot = Wv * (Wv > np.sqrt(p.ntheta))
    return hot + Wv * (p.G(2) + 1.0) ** (p.ell - 1) * p.K(2)


def size_squared_bound(p: BoundParams, Wv: float) -> float:
    return (p.C * (Wv + 1.0) ** 2 * (p.G(1) + 1.0) ** 2
            * (p.G(2) + 2.0) ** (2 * p.ell) * (p.G(3) + 1.0))


def weight_squared_bound(p: BoundParams, Wv: float) -> float:
    return p.C * (Wv + 1.0) ** 2 * (p.G(2) + 2.0) ** (2 * p.ell) * (p.G(3) + 1.0)


def vertex_in_ball_bound(p: BoundParams, Wu: float, Wv: float) -> float:
    return Wu * Wv / p.ntheta * (p.G(2) + 1.0) ** (p.ell - 1)


def not_tree_bound(p: BoundParams, Wv: float) -> float:
    return (p.C * (1.0 + p.G(2)) ** (2 * p.ell + 1) * (p.G(3) + 1.0)
            * (Wv + 1.0) ** 2 / p.ntheta)


def degree_moment_bound(p: BoundParams, Wv: float, k: int) -> float:
    """Simplified k-th degree moment bound (Stirling form folded in)."""
    return (Wv + 1.0) ** k * (p.G(1) + k) ** k


def structural_bounds(p: BoundParams, Wv: float) -> dict[str, float]:
    """All structural evaluators at a common parameter point, by name."""
    out = {
        "mean_weight": mean_pweight_bound(p, Wv, 1),
        "mean_weight_sq_norm": mean_pweight_bound(p, Wv, 2),
        "mean_size": mean_size_bound(p, Wv),
        "excess_weight": excess_weight_bound(p, Wv),
        "size_squared": size_squared_bound(p, Wv),
        "weight_squared": weight_squared_bound(p, Wv),
        "vertex_in_ball": vertex_in_ball_bound(p, Wv, Wv),
        "not_tree": not_tree_bound(p, Wv),
    }
    for k in (1, 2, 3, 4):
        out[f"degree_moment_{k}"] = degree_moment_bound(p, Wv, k)
    return out
