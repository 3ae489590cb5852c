"""Deterministic-randomness contracts: hashing, streams, site fields."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangelab import rng
from rangelab.laws import lattice_at_sites, rademacher
from rangelab.rng import (RngStream, _finalize_vec, _mix64_vec, _word_rows, as_generator,
                          mix64, site_hash)


def keyed_uniform(keys, sites):
    """Uniform [0, 1) variates with a 53-bit mantissa from (key, site) pairs,
    keys broadcasting against sites: the float reading of a site field's
    words, which the package decodes without forming the float."""
    z = _finalize_vec(np.asarray(sites, dtype=np.int64).view(np.uint64)
                      ^ np.asarray(keys, dtype=np.uint64))
    z >>= np.uint64(11)
    return z * 2.0**-53

# splitmix64 golden values; a change here would silently re-randomize
# every experiment in the package, so they are pinned hard
GOLDEN = {
    (): 0x243F6A8885A308D3,
    (0,): 0x2CB0F69F4ABEA221,
    (1, 2): 0xC7D360A7E6CCD4B8,
    (2, 1): 0x09A538F355D4488F,
    (-1,): 0x4E68389F0748AA13,
}


def test_mix64_golden_values():
    for args, want in GOLDEN.items():
        assert mix64(*args) == want


def test_mix64_is_order_sensitive():
    assert mix64(1, 2) != mix64(2, 1)


def test_mix64_negative_inputs_fold_to_two_complement():
    assert mix64(-1) == mix64((1 << 64) - 1)


@given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=6))
def test_mix64_stays_in_64_bits(words):
    assert 0 <= mix64(*words) < 1 << 64


def test_site_hash_scalar_matches_vector():
    sites = np.array([0, 1, -1, 2**40, -(2**40)], dtype=np.int64)
    vec = site_hash(123, sites, counter=7)
    for i, s in enumerate(sites):
        assert site_hash(123, [int(s)], counter=7)[0] == vec[i]
        assert site_hash(123, int(s), counter=7) == vec[i] == mix64(123, 7, int(s))


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1,
                max_size=5))
@settings(max_examples=50)
def test_vector_mix64_and_stacked_streams_match_the_scalar_ones(seed, words):
    arr = np.array(words, dtype=np.uint64)
    mixed = _mix64_vec(seed, arr, 17)
    assert [int(v) for v in mixed] == [mix64(seed, w, 17) for w in words]
    rows = _word_rows(mixed, 9)
    assert rows.dtype == np.uint64
    for row, s in zip(rows, mixed):
        assert (row == RngStream(int(s), 0).generator().bit_generator.random_raw(9)).all()
        # the words under the uniforms Generator.random gives
        assert ((row >> np.uint64(11)) * 2.0**-53
                == RngStream(int(s), 0).generator().random(9)).all()


def test_word_rows_start_mid_stream():
    # a column chunk reads the words the one-shot row holds there, from
    # inside a Philox block of four, past a whole number of them and across
    # the slices a long row is filled in
    seeds = _mix64_vec(3, np.arange(3, dtype=np.uint64))
    whole = _word_rows(seeds, rng._RAW_SLICE + 9)
    for row, s in zip(whole, seeds):
        assert (row == RngStream(int(s), 0).generator().bit_generator.random_raw(
            rng._RAW_SLICE + 9)).all()
    for start in (1, 3, 5, 4097, rng._RAW_SLICE - 3):
        assert (_word_rows(seeds, 9, start) == whole[:, start:start + 9]).all()


def test_a_long_row_of_words_is_held_once():
    import tracemalloc
    tracemalloc.start()
    try:
        _word_rows(np.array([7], dtype=np.uint64), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6 + 16 * rng._RAW_SLICE


def test_site_hash_golden():
    got = site_hash(0, [0, 1, -1])
    assert [int(v) for v in got] == [0xEA23449128F3064A, 0x1AFCEA55E98CC906,
                                     0xEB20210D5326475E]


@given(st.integers(min_value=0, max_value=2**63),
       st.permutations(list(range(-5, 6))))
@settings(max_examples=50)
def test_site_hash_is_a_pure_function_of_the_site(seed, sites):
    arr = np.array(sites, dtype=np.int64)
    base = site_hash(seed, np.arange(-5, 6))
    lookup = {s: int(v) for s, v in zip(range(-5, 6), base)}
    assert [int(v) for v in site_hash(seed, arr)] == [lookup[s] for s in sites]


def test_site_uniform_range_and_determinism():
    u = keyed_uniform(mix64(42, 0), np.arange(100_000))
    assert ((0.0 <= u) & (u < 1.0)).all()
    again = keyed_uniform(mix64(42, 0), np.arange(100_000))
    assert (u == again).all()
    # the top 53 bits of the site hash under counter 0
    assert (u == (site_hash(42, np.arange(100_000)) >> np.uint64(11)) * 2.0**-53).all()


def test_site_uniform_is_uniform():
    # 16-bin chi-square at N = 1e5: 4-sigma band on each bin would be
    # far looser than this aggregate check
    from scipy.stats import chisquare
    u = keyed_uniform(mix64(7, 0), np.arange(100_000))
    counts = np.histogram(u, bins=16, range=(0.0, 1.0))[0]
    assert chisquare(counts).pvalue > 1e-3


def test_site_sign_values_and_balance():
    # a rademacher field reads the top hash bit: one balanced sign per site
    s = lattice_at_sites(rademacher(), 11, np.arange(100_000))
    assert set(np.unique(s)) <= {-1, 1}
    assert abs(s.mean()) < 4.0 / np.sqrt(100_000)


def test_different_counters_decorrelate():
    sites = np.arange(10_000)
    a = keyed_uniform(mix64(3, 0), sites)
    b = keyed_uniform(mix64(3, 1), sites)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_stream_is_reproducible():
    a = RngStream(5, 9).generator().random(32)
    b = RngStream(5, 9).generator().random(32)
    assert (a == b).all()


def test_distinct_stream_ids_differ():
    a = RngStream(5, 0).generator().random(8)
    b = RngStream(5, 1).generator().random(8)
    assert not (a == b).all()


def test_child_streams_differ_by_tag():
    root = RngStream(5, 0)
    a = root.child(1).generator().random(8)
    b = root.child(2).generator().random(8)
    assert not (a == b).all()
    assert root.child(1) == root.child(1)


def test_as_generator_accepts_both_kinds():
    g = as_generator(RngStream(1, 0))
    assert isinstance(g, np.random.Generator)
    assert as_generator(g) is g
    with pytest.raises(TypeError):
        as_generator(42)
