"""The profile DP against plain brute-force enumeration on tiny horizons."""

import itertools
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangelab.enumeration import marked_sum_law, profile_states, value_distribution


def brute_marked_sum_law(steps, n, mark_moves, site_values):
    """Enumerate every step sequence and every site-value assignment."""
    out = defaultdict(float)
    for seq in itertools.product(steps, repeat=n):
        w = 1.0
        pos = 0
        marks = defaultdict(int)
        for delta, q in seq:
            w *= q
            pos += delta
            if mark_moves or delta == 0:
                marks[pos] += 1
        sites = sorted(marks)
        for assign in itertools.product(site_values, repeat=len(sites)):
            total = sum(v * marks[s] for s, (v, _) in zip(sites, assign))
            wa = w
            for _, q in assign:
                wa *= q
            out[(total, pos)] += wa
    return dict(out)


LAZY = ((0, 0.5), (1, 0.25), (-1, 0.25))
SIMPLE = ((1, 0.5), (-1, 0.5))
SIGNS = ((-1, 0.5), (1, 0.5))
TERN = ((-1, 0.25), (0, 0.5), (1, 0.25))
JUMPY = ((2, 0.3), (-1, 0.3), (0, 0.4))  # leaves unmarked sites inside the hull


def symmetric(steps):
    return dict(steps) == {-d: q for d, q in steps}


@pytest.mark.parametrize("steps,mark_moves,values,n", [
    (LAZY, False, SIGNS, 4),
    (LAZY, False, SIGNS, 5),
    (SIMPLE, True, SIGNS, 5),
    (SIMPLE, True, TERN, 4),
    (LAZY, True, TERN, 3),
    # asymmetric steps: profiles are not merged with their mirror images
    (JUMPY, False, SIGNS, 4),
    (JUMPY, True, TERN, 4),
])
def test_dp_agrees_with_brute_force(steps, mark_moves, values, n):
    got = marked_sum_law(steps, n, mark_moves, values)
    want = brute_marked_sum_law(steps, n, mark_moves, values)
    assert set(got) == set(want)
    for key in want:
        assert got[key] == pytest.approx(want[key], abs=1e-12)


def test_zero_steps_is_a_point_mass():
    assert profile_states(LAZY, 0, False) == {(0, 0, ()): 1.0}
    assert marked_sum_law(SIMPLE, 0, True, SIGNS) == {(0, 0): 1.0}


@given(st.integers(min_value=1, max_value=7), st.booleans())
@settings(max_examples=20, deadline=None)
def test_profile_mass_and_structure(n, mark_moves):
    states = profile_states(LAZY, n, mark_moves)
    assert sum(states.values()) == pytest.approx(1.0)
    for (pos, lo, counts), w in states.items():
        assert w > 0
        assert all(c >= 0 for c in counts)
        # the interval is the hull of the marked sites
        assert counts == () and lo == 0 or counts[0] >= 1 and counts[-1] >= 1
        if mark_moves:
            # every step marks its arrival site
            assert sum(counts) == n


def brute_profiles(steps, n, mark_moves):
    """Every step sequence's (position, {site: marks}) with its weight."""
    out = defaultdict(float)
    for seq in itertools.product(steps, repeat=n):
        w = 1.0
        pos = 0
        marks = defaultdict(int)
        for delta, q in seq:
            w *= q
            pos += delta
            if mark_moves or delta == 0:
                marks[pos] += 1
        out[(pos, tuple(sorted(marks.items())))] += w
    return out


def mirror(key):
    """The mirror image of a (position, marks) profile."""
    pos, marks = key
    return -pos, tuple(sorted((-site, c) for site, c in marks))


@pytest.mark.parametrize("steps", [LAZY, JUMPY])
@pytest.mark.parametrize("mark_moves", [False, True])
def test_profiles_match_brute_force_marks(steps, mark_moves):
    n = 6
    states = profile_states(steps, n, mark_moves)
    got = defaultdict(float)
    for (pos, lo, counts), w in states.items():
        key = (pos, tuple((lo + i, c) for i, c in enumerate(counts) if c))
        if symmetric(steps):
            # a kept state stands for itself and its mirror image
            got[key] += w / 2
            got[mirror(key)] += w / 2
        else:
            got[key] += w
    want = brute_profiles(steps, n, mark_moves)
    # the hull form is canonical: one state per (position, marks), or per
    # mirror pair of them when the steps are symmetric
    pairs = {frozenset((key, mirror(key))) for key in want}
    assert len(states) == (len(pairs) if symmetric(steps) else len(want))
    assert set(got) == set(want)
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=1e-12)


@pytest.mark.parametrize("steps,mark_moves,values,n", [
    (LAZY, False, SIGNS, 9),
    (SIMPLE, True, TERN, 8),
    (((0, 0.37), (1, 0.315), (-1, 0.315)), False, SIGNS, 10),
])
def test_symmetric_steps_give_a_mirror_symmetric_law(steps, mark_moves, values, n):
    law = marked_sum_law(steps, n, mark_moves, values)
    assert any(pos for _, pos in law)
    for (val, pos), w in law.items():
        assert law[(val, -pos)] == w


def test_value_distribution_convolves():
    # two sites with counts 1 and 2 under fair signs: sum in {-3,-1,1,3}
    dist = value_distribution((1, 2), SIGNS)
    assert dist == pytest.approx({-3: 0.25, -1: 0.25, 1: 0.25, 3: 0.25})
    assert value_distribution((), SIGNS) == {0: 1.0}


def profile_marked_sum_law(steps, n, mark_moves, site_values):
    """marked_sum_law by the mark-profile DP alone: the grouped profile
    convolution, applied to hold marks as well as to move marks."""
    steps, site_values = tuple(steps), tuple(site_values)
    signs = (1, -1) if symmetric(steps) else (1,)
    groups = defaultdict(float)
    for (pos, _, counts), w in profile_states(steps, n, mark_moves).items():
        key = tuple(sorted(c for c in counts if c))
        for sign in signs:
            groups[(sign * pos, key)] += w / len(signs)
    out = defaultdict(float)
    for (pos, counts), w in groups.items():
        for val, q in value_distribution(counts, site_values).items():
            out[(val, pos)] += w * q
    return dict(out)


def lazy(p):
    return ((0, p), (1, (1 - p) / 2), (-1, (1 - p) / 2))


@pytest.mark.parametrize("p", [0.2, 0.37, 0.5, 0.83])
def test_hold_route_matches_the_profile_dp(p):
    for n in range(11):
        got = marked_sum_law(lazy(p), n, False, SIGNS)
        want = profile_marked_sum_law(lazy(p), n, False, SIGNS)
        assert set(got) == set(want)
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-13, abs=0)


@pytest.mark.parametrize("steps,values,n", [
    (lazy(0.3), TERN, 7),
    (JUMPY, SIGNS, 7),
    (JUMPY, TERN, 6),
    (((0, 0.2), (1, 0.5), (-2, 0.3)), ((3, 0.6), (-1, 0.4)), 7),
    (SIMPLE, SIGNS, 5),  # no holds: every sum is 0
])
def test_hold_route_for_other_step_and_site_laws(steps, values, n):
    got = marked_sum_law(steps, n, False, values)
    want = profile_marked_sum_law(steps, n, False, values)
    assert set(got) == set(want)
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=1e-13, abs=0)


@pytest.mark.parametrize("n", [10, 12, 13])
def test_hold_route_at_one_half_is_the_profile_dp_exactly(n):
    # every weight is a dyadic rational that float64 holds exactly
    assert marked_sum_law(lazy(0.5), n, False, SIGNS) == \
        profile_marked_sum_law(lazy(0.5), n, False, SIGNS)
