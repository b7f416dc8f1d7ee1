import pytest


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
