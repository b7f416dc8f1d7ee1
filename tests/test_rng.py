import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sparselocal import rng as srng
from sparselocal.rng import SiteRandom, format_seed, parse_seed, stream_rng


def test_seed_parse_format_round_trip():
    for text in ("0", "ff", "deadbeef", "f" * 32):
        seed = parse_seed(text)
        assert parse_seed(format_seed(seed)) == seed
    assert format_seed(parse_seed("ff")) == "ff".rjust(32, "0")


def test_seed_validation():
    with pytest.raises(ValueError):
        parse_seed("f" * 33)
    with pytest.raises(ValueError):
        parse_seed("zz")
    with pytest.raises(ValueError, match="hex string"):
        parse_seed(12)


def test_site_uniform_deterministic_and_in_open_interval():
    s = SiteRandom((123, 456), 7)
    u1 = s.uniform(srng.KIND_EDGE_WEIGHT, 10, 20)
    u2 = SiteRandom((123, 456), 7).uniform(srng.KIND_EDGE_WEIGHT, 10, 20)
    assert u1 == u2
    assert 0.0 < u1 < 1.0


def test_unit_interval_top_hash_stays_below_one():
    # (2^53 - 1) + 0.5 rounds to 2^53, so the top hash would map to exactly 1.0
    top = srng._unit_interval(np.uint64(2 ** 64 - 1))
    assert top == 1.0 - 2.0 ** -53
    assert 0.0 < top < 1.0
    # every other hash keeps the midpoint conversion bit for bit
    cells = np.array([0, 1, 2 ** 52, 2 ** 53 - 2], dtype=np.uint64)
    u = srng._unit_interval(cells << np.uint64(11))
    assert np.array_equal(u, (cells.astype(np.float64) + 0.5) * 2.0 ** -53)
    assert np.all((0.0 < u) & (u < 1.0))


def test_site_uniform_varies_with_every_key_part():
    s = SiteRandom((1, 2), 0)
    base = s.uniform(srng.KIND_EDGE_WEIGHT, 10, 20, srng.PRIMARY)
    assert base != s.uniform(srng.KIND_EDGE_WEIGHT, 10, 21, srng.PRIMARY)
    assert base != s.uniform(srng.KIND_EDGE_WEIGHT, 11, 20, srng.PRIMARY)
    assert base != s.uniform(srng.KIND_EDGE_REPL, 10, 20, srng.PRIMARY)
    assert base != s.uniform(srng.KIND_EDGE_WEIGHT, 10, 20, srng.REPLACEMENT)
    assert base != SiteRandom((1, 2), 1).uniform(srng.KIND_EDGE_WEIGHT, 10, 20)
    assert base != SiteRandom((1, 3), 0).uniform(srng.KIND_EDGE_WEIGHT, 10, 20)


def test_vectorized_matches_scalar():
    s = SiteRandom((9, 9), 3)
    a = np.arange(50, dtype=np.uint64)
    vec = s.uniform(srng.KIND_VERTEX_WEIGHT, a)
    sca = np.array([s.uniform(srng.KIND_VERTEX_WEIGHT, int(x)) for x in a])
    assert np.array_equal(vec, sca)


_U64_WORDS = st.integers(0, 2**64 - 1)


def _numpy_site_hash(seed, stream, kind, a, b, flag):
    """The site hash as every word through numpy uint64 splitmix64: the reference
    that SiteRandom's Python-int prefix must reproduce bit for bit."""
    golden = np.uint64(0x9E3779B97F4A7C15)
    mix1, mix2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)

    def absorb(h, word):
        h = (h + golden) ^ np.asarray(word, dtype=np.uint64)
        h = (h ^ (h >> np.uint64(30))) * mix1
        h = (h ^ (h >> np.uint64(27))) * mix2
        return h ^ (h >> np.uint64(31))

    with np.errstate(over="ignore"):
        h = np.uint64(seed[0])
        for word in (seed[1], stream, kind, a, b, flag):
            h = absorb(h, word)
    return srng._unit_interval(h)


@settings(max_examples=300, deadline=None)
@given(seed=st.tuples(_U64_WORDS, _U64_WORDS), stream=_U64_WORDS, kind=_U64_WORDS,
       a=st.lists(_U64_WORDS, min_size=1, max_size=5), b=_U64_WORDS,
       flag=st.sampled_from([srng.PRIMARY, srng.REPLACEMENT]))
def test_site_uniform_bits_equal_numpy_hash(seed, stream, kind, a, b, flag):
    s = SiteRandom(seed, stream)
    a = np.array(a, dtype=np.uint64)
    got = s.uniform(kind, a, b, flag)
    assert np.array_equal(got, _numpy_site_hash(seed, stream, kind, a, b, flag))
    scalar = s.uniform(kind, int(a[0]), b, flag)
    want = _numpy_site_hash(seed, stream, kind, int(a[0]), b, flag)
    assert type(scalar) is type(want) and scalar == want


def test_edge_uniform_symmetric():
    s = SiteRandom((4, 4), 0)
    assert s.edge_uniform(srng.KIND_EDGE_WEIGHT, 3, 8) == \
        s.edge_uniform(srng.KIND_EDGE_WEIGHT, 8, 3)


def test_site_uniform_distribution():
    s = SiteRandom((2024, 1), 0)
    u = s.uniform(srng.KIND_COUPLING_AUX, np.arange(200_000, dtype=np.uint64))
    assert stats.kstest(u, "uniform").pvalue > 0.01
    # adjacent keys are uncorrelated
    assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < 4 / np.sqrt(u.size)


@pytest.mark.parametrize("seed, stream, tags", [
    ((5, 6), 2, (11,)),
    ((0, 0), 0, ()),
    ((2**64 - 1, 2**63), 2**40, (12, 0, 2**64 - 1)),
    ((123, 456), -1, (-3, 13)),
])
def test_stream_rng_is_default_rng_of_its_seed_sequence(seed, stream, tags):
    # every sequential draw in the package comes from this stream, so it
    # must stay default_rng(SeedSequence(entropy)) however it is built
    m = 2**64 - 1
    entropy = [seed[0], seed[1], stream & m, *[t & m for t in tags]]
    want = np.random.default_rng(np.random.SeedSequence(entropy))
    got = stream_rng(seed, stream, *tags)
    assert np.array_equal(got.random(8), want.random(8))
    assert np.array_equal(got.geometric(0.05, size=8), want.geometric(0.05, size=8))
    assert got.bit_generator.state == want.bit_generator.state


def test_stream_rng_deterministic_and_tag_sensitive():
    a = stream_rng((5, 6), 2, 11).random(4)
    b = stream_rng((5, 6), 2, 11).random(4)
    c = stream_rng((5, 6), 2, 12).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
