"""Counter-based randomness keyed by (seed, stream, site).

Every random quantity attached to a *site* of the graph (an edge slot, a
vertex slot, a replacement copy, a coupling auxiliary) is derived by hashing
the 128-bit base seed, the replicate stream id and a canonical site key
through a splitmix64-style mixer.  Re-querying a site therefore always
returns the same value, which is what makes lazy "weights on all possible
edges" work without quadratic storage.  The replacement copies
(``KIND_EDGE_REPL`` and the ``REPLACEMENT`` flag) serve the resampled
graphs G^F, which only the tests build today.

Sequential randomness (bulk graph generation, tree sampling, experiment
drivers) uses numpy Generators seeded from the same key material via
``SeedSequence`` so that replicas are independent and reproducible.
"""

from __future__ import annotations

import numpy as np

# site kinds (the "purpose" word of a site key)
KIND_EDGE_REPL = 1      # replacement edge indicator X'_e
KIND_EDGE_WEIGHT = 2    # edge weight w_e
KIND_VERTEX_WEIGHT = 3  # vertex weight w_v
KIND_COUPLING_AUX = 4   # conditional uniform for the Bernoulli/Poisson coupling
KIND_ZSTAR = 5          # fresh Poisson copies Z* used during joint exploration

PRIMARY = 0
REPLACEMENT = 1

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_M64 = 0xFFFFFFFFFFFFFFFF
_U64 = np.uint64
_BELOW_ONE = np.float64(1.0 - 2.0 ** -53)  # the largest double below 1


def _mix(h):
    """splitmix64 finalizer on uint64 scalars or arrays.  It wraps, as
    intended, so callers silence numpy's overflow warnings around it."""
    h = (h ^ (h >> _U64(30))) * _MIX1
    h = (h ^ (h >> _U64(27))) * _MIX2
    return h ^ (h >> _U64(31))


def _absorb(h, word):
    return _mix((h + _GOLDEN) ^ np.asarray(word, dtype=np.uint64))


def _absorb_int(h: int, word: int) -> int:
    """:func:`_absorb` on Python ints, for the scalar prefix of a site key."""
    h = ((h + int(_GOLDEN)) & _M64) ^ word
    h = ((h ^ (h >> 30)) * int(_MIX1)) & _M64
    h = ((h ^ (h >> 27)) * int(_MIX2)) & _M64
    return h ^ (h >> 31)


class SiteRandom:
    """Pure-function uniforms for the sites of one (seed, stream) replicate."""

    def __init__(self, seed: tuple[int, int], stream: int):
        self.seed = (int(seed[0]) & _M64, int(seed[1]) & _M64)
        self.stream = int(stream)
        self._base = _absorb_int(_absorb_int(self.seed[0], self.seed[1]), self.stream & _M64)

    def _hash_words(self, kind, a, b, flag):
        h = np.uint64(_absorb_int(self._base, int(kind)))
        with np.errstate(over="ignore"):
            h = _absorb(h, a)
            h = _absorb(h, b)
            return _absorb(h, flag)

    def uniform(self, kind: int, a, b=0, flag=PRIMARY):
        """Uniform(0,1) for site (kind, a, b, flag); broadcasts over a, b and flag.

        Unordered pair sites must be canonicalized (a <= b) by the caller.
        The value is strictly inside (0,1) so it can feed quantile functions.
        """
        return _unit_interval(self._hash_words(kind, a, b, flag))

    def edge_uniform(self, kind: int, u, v, flag=PRIMARY):
        """Uniform for an unordered pair site; orders the endpoints itself."""
        u = np.asarray(u, dtype=np.uint64)
        v = np.asarray(v, dtype=np.uint64)
        return self.uniform(kind, np.minimum(u, v), np.maximum(u, v), flag)


def _unit_interval(h):
    """Map 64-bit hashes to the midpoints of 2^53 equal cells of (0,1).

    Above 2^52 the midpoint (j + 0.5) 2^-53 is not representable and rounds
    to even; for the top cell that is 1.0, so the result is capped at the
    largest double below 1.
    """
    u = (np.asarray(h >> np.uint64(11), dtype=np.float64) + 0.5) * 2.0 ** -53
    return np.minimum(u, _BELOW_ONE)


def parse_seed(text: str) -> tuple[int, int]:
    """Parse a 128-bit hex seed into (lo, hi) words. Short hex is allowed."""
    if not isinstance(text, str):
        raise ValueError(f"must be a hex string; got {text!r}")
    value = int(text, 16)
    if value < 0 or value >= 1 << 128:
        raise ValueError(f"must be a non-negative 128-bit hex value; got {text!r}")
    return value & 0xFFFFFFFFFFFFFFFF, value >> 64


def format_seed(seed: tuple[int, int]) -> str:
    return f"{(seed[1] << 64) | seed[0]:032x}"


def stream_rng(seed: tuple[int, int], stream: int, *tags: int) -> np.random.Generator:
    """Sequential generator for (seed, stream) and a purpose tag tuple."""
    entropy = [seed[0], seed[1], stream & _M64, *[t & _M64 for t in tags]]
    # default_rng(SeedSequence(entropy))'s stream, built directly
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
