"""Scenery-walk functionals against hand enumeration and quadratic oracles."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from rangelab import laws
from rangelab.laws import (lattice_at_sites, lattice_support, lazy_vertical,
                           pareto_tail, rademacher, sample_lattice, simple_symmetric,
                           ternary)
from rangelab.rng import RngStream, _mix64_vec, mix64
from rangelab.rwrs import (_SCENERY_TAG, _WALK_TAG, LocalTimeMap, RwrsModel,
                           _trial_block, exact_no_return_z,
                           exact_rwrs_law, no_return_z_count, range_z,
                           rwrs_range_stats, scaling_exponent,
                           self_intersections, simulate_rwrs, z_spread)

SIMPLE_RAD = RwrsModel(simple_symmetric(), rademacher())
LAZY_RAD = RwrsModel(lazy_vertical(0.5), rademacher())
SIMPLE_TERN = RwrsModel(simple_symmetric(), ternary(0.5))


# ---------------------------------------------------------------------------
# exact oracles


def test_law_at_zero_and_one_step():
    assert exact_rwrs_law(SIMPLE_RAD, 0) == {0: 1.0}
    law = exact_rwrs_law(SIMPLE_RAD, 1)
    assert law == pytest.approx({-1: 0.5, 1: 0.5})


def test_two_step_law_simple_walk():
    # S2 != S1 always, so Z2 is a sum of two independent signs
    law = exact_rwrs_law(SIMPLE_RAD, 2)
    assert law == pytest.approx({-2: 0.25, 0: 0.5, 2: 0.25})


def test_two_step_law_lazy_walk_feels_repeated_sites():
    # holding or backtracking reuses a site: sequences (0,0), (1,0), (-1,0)
    # carry weight 1/2 in total and force Z2 = 2 xi = +-2, killing mass at 0
    law = exact_rwrs_law(LAZY_RAD, 2)
    assert law == pytest.approx({-2: 0.375, 0: 0.25, 2: 0.375})


@pytest.mark.parametrize("model,n", [(SIMPLE_RAD, 6), (LAZY_RAD, 5),
                                     (SIMPLE_TERN, 6)])
def test_exact_law_mass_and_symmetry(model, n):
    law = exact_rwrs_law(model, n)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    for z, w in law.items():
        assert law[-z] == pytest.approx(w)


def test_no_return_hand_values_and_monotonicity():
    assert exact_no_return_z(SIMPLE_RAD, 1) == pytest.approx(1.0)
    # Z2 = 0 iff the fresh second site draws the opposite sign
    assert exact_no_return_z(SIMPLE_RAD, 2) == pytest.approx(0.5)
    assert exact_no_return_z(SIMPLE_TERN, 1) == pytest.approx(0.5)
    qs = [exact_no_return_z(SIMPLE_RAD, L) for L in range(1, 9)]
    assert all(a >= b - 1e-12 for a, b in zip(qs, qs[1:]))


def fraction_no_return_z(model, horizon):
    """q_1..q_horizon of P(Z_j != 0, j = 1..k) in exact rationals of the
    float laws.

    Depth-first search over walk steps and the scenery values of newly
    visited sites, which are frozen on first use.  Every float
    probability here is a multiple of 2^-64, so the weights at depth k
    are integers over 2^(128 k).
    """
    e = 64

    def scaled(law):
        out = [(v, Fraction(q) * 2 ** e) for v, q in lattice_support(law)]
        assert all(q.denominator == 1 for _, q in out)
        return [(v, int(q)) for v, q in out]

    steps, scen = scaled(model.walk_law), scaled(model.scenery_law)
    alive = [0] * (horizon + 1)
    seen = {}

    def descend(k, pos, z, w):
        alive[k] += w
        if k == horizon:
            return
        for d, pw in steps:
            site = pos + d
            known = seen.get(site)
            for v, pv in scen if known is None else [(known, 1 << e)]:
                if z + v == 0:
                    continue
                seen[site] = v
                descend(k + 1, site, z + v, w * pw * pv)
                if known is None:
                    del seen[site]

    descend(0, 0, 0, 1)
    return [Fraction(w, 1 << 2 * e * k) for k, w in enumerate(alive)][1:]


@pytest.mark.parametrize("model", [SIMPLE_RAD,
                                   RwrsModel(simple_symmetric(), ternary(0.3)),
                                   RwrsModel(lazy_vertical(0.4), ternary(0.6))])
def test_no_return_matches_exact_rationals(model):
    # the rationals take the float laws as they are, so only the DP's own
    # rounding separates the two
    for L, want in enumerate(fraction_no_return_z(model, 8), start=1):
        got = exact_no_return_z(model, L)
        assert abs(Fraction(got) - want) <= Fraction(1, 10 ** 13) * want


# q_L for the simple walk on fair signs, L = 1..12; the weights are dyadic,
# so the float values are exact
Q_RAD = (1.0, 0.5, 0.5, 0.46875, 0.46875, 0.44140625, 0.44140625,
         0.4227294921875, 0.4227294921875, 0.4068756103515625,
         0.4068756103515625, 0.39391422271728516)


def test_no_return_on_fair_signs_is_exact():
    qs = [exact_no_return_z(SIMPLE_RAD, L) for L in range(1, 13)]
    assert qs == list(Q_RAD)
    # with +-1 scenery Z_k has the parity of k, so odd times never return
    assert all(qs[2 * k] == qs[2 * k - 1] for k in range(1, 6))


def test_exact_caps():
    with pytest.raises(ValueError):
        exact_rwrs_law(SIMPLE_RAD, 13)
    with pytest.raises(ValueError):
        exact_no_return_z(SIMPLE_RAD, 0)
    with pytest.raises(ValueError):
        exact_rwrs_law(RwrsModel(simple_symmetric(), pareto_tail(1.5)), 4)


def test_model_validation():
    with pytest.raises(ValueError):
        RwrsModel(simple_symmetric(), pareto_tail(1.0))
    with pytest.raises(ValueError):
        RwrsModel(simple_symmetric(), rademacher(), alpha=1.5)
    m = RwrsModel(pareto_tail(0.8), pareto_tail(1.5))
    assert (m.alpha, m.beta) == (0.8, 1.5)


@pytest.mark.parametrize("model", [RwrsModel(simple_symmetric(), ternary(0.3)),
                                   RwrsModel(lazy_vertical(0.4), ternary(0.6))])
def test_mean_z_range_is_one_plus_the_escape_curve(model):
    # E[#distinct Z_0..Z_n] = 1 + sum_{k=1..n} P(Z_j != 0, j = 1..k), as for
    # the oriented walk; brute force over every walk path of length 6 and
    # every scenery value of its sites gives the left side, n = 1..6, from
    # the paths' prefixes
    n = 6
    steps = lattice_support(model.walk_law)
    scen = lattice_support(model.scenery_law)
    mean = [0.0] * (n + 1)

    def descend(k, pos, z, levels, scenery, w):
        mean[k] += w * len(levels)
        if k == n:
            return
        for d, pw in steps:
            site = pos + d
            known = scenery.get(site)
            for v, pv in scen if known is None else [(known, 1.0)]:
                descend(k + 1, site, z + v, levels | {z + v},
                        {**scenery, site: v}, w * pw * pv)

    descend(0, 0, 0, frozenset({0}), {}, 1.0)
    for k in range(1, n + 1):
        want = 1.0 + sum(exact_no_return_z(model, j) for j in range(1, k + 1))
        assert mean[k] == pytest.approx(want, rel=1e-12)


def test_mean_z_range_matches_first_returns_by_monte_carlo():
    # E[R_n] = 1 + sum_{k=1..n} q_k = 1 + E[min(T - 1, n)], T the first
    # return of Z to 0 (n + 1 when there is none): the mean range of 4,000
    # walks against the first returns of 4,000 independent ones, n = 1024
    model, n = RwrsModel(simple_symmetric(), ternary(0.3)), 1024
    seeds = _mix64_vec(23, np.arange(8000, dtype=np.uint64))
    blocks = [_trial_block(model, n, seeds[i:i + 1000], n) for i in range(0, 8000, 1000)]
    z_range = np.concatenate([b[3] for b in blocks[:4]])
    first = np.concatenate([b[-1] for b in blocks[4:]])
    escape = 1 + np.minimum(np.where(first > 0, first, n + 1) - 1, n)
    sigma = math.sqrt(z_range.var(ddof=1) / z_range.size + escape.var(ddof=1) / escape.size)
    assert abs(z_range.mean() - escape.mean()) <= 4.0 * sigma


# ---------------------------------------------------------------------------
# simulation against the oracles


def test_zero_steps():
    zp = simulate_rwrs(SIMPLE_RAD, 0, 3)
    assert zp.values.tolist() == [0]
    assert range_z(zp) == 1


def test_one_step_law_empirical():
    trials = 20_000
    plus = sum(simulate_rwrs(SIMPLE_RAD, 1, seed).values[1] == 1
               for seed in range(trials))
    assert abs(plus / trials - 0.5) < 4.0 * math.sqrt(0.25 / trials)


@pytest.mark.parametrize("model", [SIMPLE_RAD, LAZY_RAD, SIMPLE_TERN])
def test_endpoint_law_matches_enumeration(model):
    n, trials = 4, 30_000
    law = exact_rwrs_law(model, n)
    counts = Counter(int(simulate_rwrs(model, n, seed).values[-1])
                     for seed in range(trials))
    support = sorted(law)
    assert set(counts) <= set(support)
    expected = np.array([law[z] for z in support]) * trials
    observed = np.array([counts.get(z, 0) for z in support])
    assert chisquare(observed, expected).pvalue > 1e-3
    tv = 0.5 * sum(abs(counts.get(z, 0) / trials - law[z]) for z in support)
    assert tv < 0.02


def test_no_return_count_matches_exact():
    trials = 200_000
    q = exact_no_return_z(SIMPLE_RAD, 4)
    hits = no_return_z_count(SIMPLE_RAD, 4, trials, 7)
    assert abs(hits / trials - q) < 4.0 * math.sqrt(q * (1 - q) / trials)


def test_no_return_count_is_deterministic():
    a = no_return_z_count(SIMPLE_TERN, 6, 5000, 9)
    b = no_return_z_count(SIMPLE_TERN, 6, 5000, 9)
    assert a == b


# ---------------------------------------------------------------------------
# functionals and identities


def quadratic_self_intersections(walk):
    s = walk[1:]
    return sum(1 for i in range(len(s)) for j in range(len(s)) if s[i] == s[j])


@pytest.mark.parametrize("model", [SIMPLE_RAD, LAZY_RAD, SIMPLE_TERN])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_identities_on_simulated_paths(model, seed):
    n = 300
    zp = simulate_rwrs(model, n, seed)
    lt = zp.local_time
    assert sum(lt.counts.values()) == n
    assert all(c >= 1 for c in lt.counts.values())
    # local times recomputed independently
    assert lt.counts == dict(Counter(zp.walk[1:].tolist()))
    # Z_n as scenery integrated against local times
    assert zp.values[-1] == sum(zp.scenery[y] * c for y, c in lt.counts.items())
    # full path recomputed from the realized scenery
    rebuilt = np.concatenate(
        [[0], np.cumsum([zp.scenery[int(y)] for y in zp.walk[1:]])])
    assert (zp.values == rebuilt).all()
    assert self_intersections(lt) == quadratic_self_intersections(zp.walk.tolist())
    assert range_z(zp) <= n + 1
    # Cauchy-Schwarz over the levels of Z_1..Z_n, all of them in the range
    levels = Counter(zp.values[1:].tolist()).values()
    assert n * n <= range_z(zp) * sum(c * c for c in levels)


def test_ternary_scenery_range_identity():
    for seed in range(10):
        zp = simulate_rwrs(SIMPLE_TERN, 500, seed)
        assert range_z(zp) == z_spread(zp) + 1


def test_level_counts_hold_no_inverse():
    # Z's levels are counted through one array of offsets as large as the
    # path (8 MB per 10^6 steps); an inverse index as large as the path
    # would double that
    import tracemalloc
    zp = simulate_rwrs(SIMPLE_RAD, 10**6, 4)
    tracemalloc.start()
    try:
        got = range_z(zp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == np.unique(zp.values).size and peak < 12e6


def test_local_time_edge_cases():
    lt = LocalTimeMap(counts={0: 5}, steps=5)
    assert self_intersections(lt) == 25
    distinct = LocalTimeMap(counts={y: 1 for y in range(7)}, steps=7)
    assert self_intersections(distinct) == 7


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_scenery_revisits_are_consistent(seed):
    zp = simulate_rwrs(LAZY_RAD, 60, seed)
    walked = zp.walk[1:].tolist()
    z = 0
    for k, y in enumerate(walked, start=1):
        z += zp.scenery[y]
        assert zp.values[k] == z


# ---------------------------------------------------------------------------
# scaling exponent


def test_exponent_values():
    assert scaling_exponent(2.0, 2.0) == pytest.approx(0.75)
    assert scaling_exponent(1.0, 1.0) == pytest.approx(1.0)
    assert scaling_exponent(2.0, 1.0) == pytest.approx(1.0)
    assert scaling_exponent(1.5, 1.5) == pytest.approx(1.0 - 1/1.5 + 1/2.25)
    with pytest.raises(ValueError):
        scaling_exponent(2.5, 2.0)


# ---------------------------------------------------------------------------
# transient regime (heavy-tailed scenery)


def test_transient_range_fraction_decreases_and_concentrates():
    model = RwrsModel(simple_symmetric(), pareto_tail(0.8))
    sizes = (200, 1600)
    stats = {}
    for n in sizes:
        frac = np.array([range_z(simulate_rwrs(model, n, 1000 * n + t)) / n
                         for t in range(200)])
        stats[n] = (frac.mean(), frac.std(ddof=1) / math.sqrt(len(frac)))
    m0, se0 = stats[200]
    m1, se1 = stats[1600]
    assert m1 <= m0 + 3.0 * (se0 + se1)
    assert 0.0 < m1 <= 1.0


def test_trial_block_chunks_do_not_change_results():
    # several walks read in column chunks that split the rows anywhere,
    # against one chunk; the heavy-tailed walk reads each step's second
    # uniform n steps further on, and the lazy walk on a heavy-tailed
    # scenery carries holds and an int64 field across the seams
    seeds = _mix64_vec(4, np.arange(6, dtype=np.uint64))
    heavy = RwrsModel(pareto_tail(1.5), rademacher())
    lazy_heavy = RwrsModel(lazy_vertical(0.3), pareto_tail(0.8))
    for model, n in ((SIMPLE_TERN, 300), (heavy, 2003), (lazy_heavy, 500)):
        want = _trial_block(model, n, seeds, 1 << 20)
        for chunk in (1, 7, n - 1):
            got = _trial_block(model, n, seeds, chunk)
            for a, b in zip(got, want):
                assert (a == b).all()


@pytest.mark.parametrize("batch", [1, 7, 1000])
def test_trial_block_tiles_do_not_change_results(monkeypatch, batch):
    # the kernel walks tiles of batch trial-steps: one step, seven steps of
    # one row, or a few whole rows of the shorter walks and 1000-step
    # pieces of the longest; each model has a walk whose first return falls
    # on the first or last step of a seven-step tile
    seeds = _mix64_vec(4, np.arange(16, dtype=np.uint64))
    heavy = RwrsModel(pareto_tail(1.5), rademacher())
    lazy_heavy = RwrsModel(lazy_vertical(0.3), pareto_tail(0.8))
    for model, n in ((SIMPLE_TERN, 300), (heavy, 2003), (lazy_heavy, 500)):
        monkeypatch.setattr(laws, "_BATCH_STEPS", 1 << 15)
        want = _trial_block(model, n, seeds, 1 << 20)
        first = want[-1]
        assert ((first > 7) & (first % 7 <= 1)).any()
        monkeypatch.setattr(laws, "_BATCH_STEPS", batch)
        for chunk in (1 << 20, n - 1):
            got = _trial_block(model, n, seeds, chunk)
            for a, b in zip(got, want):
                assert (a == b).all()


def test_paths_across_tiles_match_a_brute_force_walk():
    # 2 * 2^15 + 3 steps: three tiles, the last of three steps.  The pareto
    # walks read each step's second word from a second generator past the
    # first n words; the index-1.5 one is counted by the offset table, the
    # index-0.6 one spreads over more than 2n sites and by the sort
    n, seed = 2 * (1 << 15) + 3, 5
    wide = []
    for model in (SIMPLE_RAD, RwrsModel(pareto_tail(1.5), ternary(0.3)),
                  RwrsModel(pareto_tail(0.6), rademacher())):
        steps = sample_lattice(model.walk_law, RngStream(mix64(seed, _WALK_TAG), 0), n)
        walk = np.concatenate([[0], np.cumsum(steps)])
        marks = lattice_at_sites(model.scenery_law, mix64(seed, _SCENERY_TAG), walk[1:])
        zp = simulate_rwrs(model, n, seed)
        assert (zp.walk == walk).all()
        assert (zp.values == np.concatenate([[0], np.cumsum(marks)])).all()
        visits = Counter(walk[1:].tolist())
        assert zp.local_time.counts == visits
        assert list(zp.local_time.counts) == list(zp.scenery) == sorted(visits)
        assert zp.scenery == dict(zip(walk[1:].tolist(), marks.tolist()))
        items = [*zp.scenery.items(), *zp.local_time.counts.items()]
        assert {type(x) for pair in items for x in pair} == {int}
        wide.append(int(np.ptp(walk[1:])) > 2 * n)
    assert wide == [False, False, True]


def test_range_stats_reject_bad_steps_and_chunks():
    # not a walk of no steps labelled with n steps
    for n, chunk in ((-3, 1 << 20), (1000, 0), (1000, -5)):
        with pytest.raises(ValueError):
            rwrs_range_stats(SIMPLE_RAD, n, 7, chunk=chunk)


def test_streaming_stats_match_the_path_at_any_bit_offset():
    # a simple walk's steps are bits, 64 to a word: chunks of 7, 100 and
    # 2^15 + 1 steps start mid-word, and the path's tiles end on a word's
    # edge, yet the streamed statistics are the path's
    n = (1 << 15) + 200
    zp = simulate_rwrs(SIMPLE_RAD, n, 31)
    hits = np.flatnonzero(zp.values[1:] == 0)
    want = [int(zp.values.min()), int(zp.values.max()), int(zp.values[-1]), range_z(zp),
            self_intersections(zp.local_time), hits[0] + 1 if hits.size else 0]
    for chunk in (7, 100, (1 << 15) + 1):
        s = rwrs_range_stats(SIMPLE_RAD, n, 31, chunk=chunk)
        assert [s.z_min, s.z_max, s.z_final, s.distinct_z, s.self_intersections,
                s.first_return] == want


def test_streaming_stats_match_simulation():
    # the heavy-tailed walk also reads each step's second uniform; 2003 is
    # not a multiple of the 4 uniforms in a Philox block
    heavy = RwrsModel(pareto_tail(1.5), rademacher())
    for model, n in ((SIMPLE_TERN, 2000), (heavy, 2003)):
        zp = simulate_rwrs(model, n, 77)
        hits = np.flatnonzero(zp.values[1:] == 0)
        # one term at a time in the local-time order: sum() compensates
        # from Python 3.12 on
        vbeta = 0.0
        for c in zp.local_time.counts.values():
            vbeta += c ** model.beta
        levels = Counter(zp.values[1:].tolist()).values()
        for chunk in (1 << 20, 1, 7, 1001):  # one chunk, then many to merge
            summary = rwrs_range_stats(model, n, 77, chunk=chunk)
            assert summary.z_min == int(zp.values.min())
            assert summary.z_max == int(zp.values.max())
            assert summary.z_final == int(zp.values[-1])
            assert summary.distinct_z == range_z(zp)
            assert summary.self_intersections == self_intersections(zp.local_time)
            assert summary.returned == bool((zp.values[1:] == 0).any())
            assert summary.first_return == (hits[0] + 1 if hits.size else 0)
            assert summary.vbeta == vbeta
            assert summary.zv == sum(c * c for c in levels)
