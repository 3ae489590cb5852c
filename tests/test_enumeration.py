"""The profile DP against plain brute-force enumeration on tiny horizons,
and the no-return DP against each model's own DP."""

import itertools
from bisect import bisect
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangelab.enumeration import (marked_sum_law, no_return_probability, profile_states,
                                  value_distribution)
from rangelab.laws import (lattice_support, lazy_vertical, rademacher, simple_symmetric,
                          ternary)


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


def mask_no_return_probability(p, horizon):
    """The oriented walk's no-return probability by its own DP: the row y,
    the sorted rows that have hosted a horizontal step, and the set of
    surviving (mask, x) pairs, a mask giving each hosting row a sign bit
    (bit i to the i-th smallest row) with probability 2^-#rows."""
    pv = (1.0 - p) / 2.0
    total = 0.0
    states = {(0, (), frozenset({(0, 0)})): 1.0}
    for left in range(horizon - 1, -1, -1):
        nxt = defaultdict(float)
        for (y, rows, pairs), w in states.items():
            if y in rows:
                bit = 1 << rows.index(y)
                moved = [(m, x + 1 if m & bit else x - 1) for m, x in pairs]
                hosts = rows
            else:
                # row y joins the hosts as the j-th smallest: the bits of
                # the rows above it move up one, and each pair splits on
                # row y's sign
                j = bisect(rows, y)
                low = (1 << j) - 1
                moved = []
                for m, x in pairs:
                    m = (m & low) | ((m & ~low) << 1)
                    moved += ((m | (1 << j), x + 1), (m, x - 1))
                hosts = rows[:j] + (y,) + rows[j:]
            total += settle(nxt, y, hosts, moved, w * p, left)
            total += settle(nxt, y + 1, rows, pairs, w * pv, left)
            total += settle(nxt, y - 1, rows, pairs, w * pv, left)
        states = nxt
    return total


def settle(states, y, rows, pairs, w, left):
    """Add the state (y, rows, pairs) with weight w to states, less the
    pairs at the origin (returned) and those out of reach of it with
    left steps to go; returns the probability of the latter."""
    kept = []
    gone = 0
    for m, x in pairs:
        d = abs(x) + abs(y)
        if d > left:
            gone += 1
        elif d:
            kept.append((m, x))
    if kept:
        states[(y, rows, frozenset(kept))] += w
    return w * gone / (1 << len(rows))


def interval_no_return_z(steps, scen, horizon):
    """The RWRS no-return probability by its own DP: the scenery values
    vals on the visited interval, trimmed to the sites within reach, the
    walker's index i into it, and Z up to sign."""
    top = max(abs(v) for v, _ in scen)
    total = 0.0
    states = {(0, (), 0): 1.0}
    for left in range(horizon - 1, -1, -1):
        nxt = defaultdict(float)
        for (i, vals, z), w in states.items():
            for d, pw in steps:
                j = i + d
                if 0 <= j < len(vals):
                    moves = ((j, vals, vals[j], pw),)
                elif j < 0:
                    moves = [(0, (v,) + vals, v, pw * pv) for v, pv in scen]
                else:
                    moves = [(len(vals), vals + (v,), v, pw * pv) for v, pv in scen]
                for k, vs, v, q in moves:
                    z2 = z + v
                    if abs(z2) > left * top:
                        total += w * q
                        continue
                    a = max(0, k - left)  # drop the sites out of reach
                    vs, k = vs[a:k + left + 1], k - a
                    if z2:
                        key = (k, vs, z2) if z2 > 0 else (k, tuple(-u for u in vs), -z2)
                        nxt[key] += w * q
        states = nxt
    return total


def rwrs_case(walk, scenery, rel):
    steps, scen = lattice_support(walk), lattice_support(scenery)
    return (steps, True, scen, False, lambda L: interval_no_return_z(steps, scen, L),
            range(1, 13), rel)


def cp_case(p, horizons, rel):
    return (lazy(p), False, SIGNS, True, lambda L: mask_no_return_probability(p, L),
            horizons, rel)


@pytest.mark.parametrize("steps,mark_moves,values,at_origin,reference,horizons,rel", [
    # dyadic weights: every sum is exact, so the two DPs agree bit for bit
    cp_case(0.5, range(1, 17), 0),
    cp_case(0.2, range(1, 13), 1e-13),
    cp_case(0.37, range(1, 13), 1e-13),
    cp_case(0.83, range(1, 13), 1e-13),
    rwrs_case(simple_symmetric(), rademacher(), 0),
    rwrs_case(simple_symmetric(), ternary(0.3), 1e-13),
    rwrs_case(lazy_vertical(0.4), ternary(0.6), 1e-13),
    rwrs_case(lazy_vertical(0.5), rademacher(), 1e-13),
], ids=["cp-0.5", "cp-0.2", "cp-0.37", "cp-0.83", "simple-rademacher",
        "simple-ternary", "lazy-ternary", "lazy-rademacher"])
def test_no_return_dp_matches_each_models_own_dp(steps, mark_moves, values, at_origin,
                                                 reference, horizons, rel):
    for L in horizons:
        got = no_return_probability(steps, L, mark_moves, values, at_origin)
        want = reference(L)
        assert abs(got - want) <= rel * want, L


def test_no_return_dp_inputs():
    assert no_return_probability(LAZY, 0, False, SIGNS, True) == 1.0
    with pytest.raises(ValueError):
        no_return_probability(JUMPY, 4, True, SIGNS, False)
    with pytest.raises(ValueError):
        no_return_probability(SIMPLE, 4, True, ((3, 0.6), (-1, 0.4)), False)
