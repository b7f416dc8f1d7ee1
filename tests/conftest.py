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
