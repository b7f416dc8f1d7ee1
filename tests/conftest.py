import numpy as np
import pytest

from sparselocal.coupling import poisson_icdf


def _brute_force_matching(n, edges):
    """Maximum weight matching by enumerating every matching; tiny n only."""
    best = 0.0

    def rec(idx, used, acc):
        nonlocal best
        best = max(best, acc)
        for i in range(idx, len(edges)):
            u, v, w = edges[i]
            if not (used >> u & 1) and not (used >> v & 1):
                rec(i + 1, used | 1 << u | 1 << v, acc + w)

    rec(0, 0, 0.0)
    return best


@pytest.fixture
def brute_force_matching():
    """The oracle the exact matchers are checked against."""
    return _brute_force_matching


class WholeGraphMatcher:
    """The remove-or-match recursion on the whole graph and its original labels.

    It always removes the lowest remaining vertex, so its value is the right
    fold of the matched weights in sorted edge order, maximised over all
    matchings; the per-component solver must return the same bits.
    """

    def __init__(self, n, edges):
        self.adj = [[] for _ in range(n)]
        for u, v, w in edges:
            self.adj[u].append((v, float(w)))
            self.adj[v].append((u, float(w)))
        self._memo = {}

    def value(self, mask):
        cached = self._memo.get(mask)
        if cached is not None:
            return cached
        if mask == 0:
            return 0.0
        v = (mask & -mask).bit_length() - 1
        best = self.value(mask & ~(1 << v))
        for u, w in self.adj[v]:
            if mask >> u & 1:
                cand = w + self.value(mask & ~(1 << v) & ~(1 << u))
                if cand > best:
                    best = cand
        self._memo[mask] = best
        return best

    def witness(self, mask):
        out = []
        while mask:
            v = (mask & -mask).bit_length() - 1
            rest = mask & ~(1 << v)
            best = self.value(rest)
            pick = None
            for u, w in self.adj[v]:
                if mask >> u & 1:
                    cand = w + self.value(rest & ~(1 << u))
                    if cand > best + 1e-12:
                        best = cand
                        pick = u
            if pick is None:
                mask = rest
            else:
                out.append((min(v, pick), max(v, pick)))
                mask = rest & ~(1 << pick)
        return out


@pytest.fixture
def whole_graph_matcher():
    """The oracle of the per-component solver."""
    return WholeGraphMatcher


def _couple_bernoulli_poisson(p_prime, u):
    """Comonotone (X, Z) from one shared uniform per site.

    X = 1{u > 1 - min(p', 1)} is Bernoulli(min(p', 1)), Z the Poisson(p')
    quantile at the same u.  Routing both through the intermediate
    Poisson(min(p', 1)) quantile shows P(X != Z) <= p'^2 + p' 1{p' >= 1}.
    """
    p_prime = np.asarray(p_prime, dtype=float)
    u = np.asarray(u, dtype=float)
    pe = np.minimum(p_prime, 1.0)
    x = (u > 1.0 - pe).astype(np.int64)
    z = poisson_icdf(p_prime, u)
    if x.ndim == 0:
        return int(x), int(z)
    return x, z


@pytest.fixture
def couple_bernoulli_poisson():
    """The site coupling of one Bernoulli and one Poisson through a shared uniform."""
    return _couple_bernoulli_poisson
