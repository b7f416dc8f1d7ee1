import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import address, canonical_code, height, truncate
from sparselocal.trees import RootedWeightedTree


def code_hex(code: bytes) -> str:
    """Short hex digest of a canonical code for debug dumps."""
    return hashlib.sha256(code).hexdigest()[:16]


def tree_from_parents(parents, types=None, vws=None, ews=None):
    n = len(parents) + 1
    types = types or [1.0] * n
    vws = vws or [float("nan")] * n
    ews = ews or [float("nan")] * n
    t = RootedWeightedTree(types[0], depth=n, root_vertex_weight=vws[0])
    for i, p in enumerate(parents, start=1):
        t.add_child(p, types[i], ews[i], vws[i])
    return t


def brute_force_isomorphic(a, b, x=0, y=0):
    """Backtracking matcher for rooted trees (types and weights exact)."""
    if (a.type_w[x] != b.type_w[y]
            or (a.vertex_w[x] != b.vertex_w[y]
                and not (np.isnan(a.vertex_w[x]) and np.isnan(b.vertex_w[y])))):
        return False
    ca, cb = a.children[x], b.children[y]
    if len(ca) != len(cb):
        return False
    for perm in itertools.permutations(cb):
        if all(_edge_eq(a, c1, b, c2) and brute_force_isomorphic(a, b, c1, c2)
               for c1, c2 in zip(ca, perm)):
            return True
    return not ca


def _edge_eq(a, c1, b, c2):
    return (a.edge_w[c1] == b.edge_w[c2]
            or (np.isnan(a.edge_w[c1]) and np.isnan(b.edge_w[c2])))


def all_rooted_trees(n):
    """All rooted trees on n nodes via parent arrays (covers every shape)."""
    if n == 1:
        return [tree_from_parents([])]
    out = []
    for parents in itertools.product(*[range(k) for k in range(1, n)]):
        out.append(tree_from_parents(list(parents)))
    return out


def test_child_permutation_invariance():
    a = tree_from_parents([0, 0, 1, 1], ews=[np.nan, 0.1, 0.2, 0.3, 0.4])
    # same tree with the children of the root added in the other order
    b = RootedWeightedTree(1.0, depth=5)
    c2 = b.add_child(0, 1.0, 0.2)
    c1 = b.add_child(0, 1.0, 0.1)
    b.add_child(c1, 1.0, 0.3)
    b.add_child(c1, 1.0, 0.4)
    assert canonical_code(a) == canonical_code(b)


def test_path_vs_cherry_distinct():
    path = tree_from_parents([0, 1])      # root - child - grandchild
    cherry = tree_from_parents([0, 0])    # root with two children
    assert canonical_code(path) != canonical_code(cherry)


def test_exhaustive_code_equality_matches_brute_force():
    trees = []
    for n in range(1, 6):
        trees.extend(all_rooted_trees(n))
    codes = [canonical_code(t) for t in trees]
    for i in range(len(trees)):
        for j in range(i, len(trees)):
            same_code = codes[i] == codes[j]
            same_iso = brute_force_isomorphic(trees[i], trees[j])
            assert same_code == same_iso, (i, j)


def test_weights_compared_exactly():
    a = tree_from_parents([0], ews=[np.nan, 0.1 + 0.2])
    b = tree_from_parents([0], ews=[np.nan, 0.3])
    assert canonical_code(a) != canonical_code(b)  # bit patterns differ


def test_type_sensitivity_and_type_agnostic_mode():
    a = tree_from_parents([0], types=[1.0, 2.0])
    b = tree_from_parents([0], types=[1.0, 3.0])
    assert canonical_code(a) != canonical_code(b)
    assert canonical_code(a, with_types=False) == canonical_code(b, with_types=False)


def test_truncate_and_height():
    t = tree_from_parents([0, 1, 2])  # a path of depth 3
    assert height(t) == 3
    cut = truncate(t, 2)
    assert height(cut) == 2 and cut.node_count == 3
    assert cut.depth == 2


def test_depth_guard():
    t = RootedWeightedTree(1.0, depth=1)
    c = t.add_child(0, 1.0)
    with pytest.raises(ValueError):
        t.add_child(c, 1.0)


def test_ulam_harris_addresses():
    t = tree_from_parents([0, 0, 1])
    assert address(t, 0) == ()
    assert address(t, 1) == (1,)
    assert address(t, 2) == (2,)
    assert address(t, 3) == (1, 1)


def test_repr_names_nodes_depth_and_height():
    t = tree_from_parents([0, 1])  # a path of two edges, declared depth 3
    assert repr(t) == "RootedWeightedTree(nodes=3, depth=3, height=2)"


def test_code_hex_stable():
    t = tree_from_parents([0, 0])
    assert code_hex(canonical_code(t)) == code_hex(canonical_code(t))
    assert len(code_hex(canonical_code(t))) == 16


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_random_relabeling_keeps_code(n, seed):
    rng = np.random.default_rng(seed)
    parents = [int(rng.integers(0, i)) for i in range(1, n)]
    types = rng.gamma(2.0, 1.0, n).tolist()
    ews = [float("nan")] + rng.exponential(1.0, n - 1).tolist()
    t = tree_from_parents(parents, types=types, ews=ews)
    # rebuild with children of one random node reversed
    t2 = tree_from_parents(parents, types=types, ews=ews)
    node = int(rng.integers(0, n))
    t2.children[node] = list(reversed(t2.children[node]))
    assert canonical_code(t) == canonical_code(t2)
