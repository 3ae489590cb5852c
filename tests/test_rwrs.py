"""Scenery-walk functionals against hand enumeration and quadratic oracles."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from rangelab.laws import (lazy_vertical, pareto_tail, rademacher,
                           simple_symmetric, ternary)
from rangelab.rwrs import (LocalTimeMap, RwrsModel, exact_no_return_z,
                           exact_rwrs_law, no_return_z_count, range_z,
                           rwrs_range_stats, scaling_exponent,
                           scaling_normalizer, self_intersections,
                           simulate_rwrs, v_beta, z_self_intersections,
                           z_spread)

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
    assert v_beta(lt, 2.0) == self_intersections(lt)
    assert v_beta(lt, 1.0) == pytest.approx(n)
    assert range_z(zp) <= n + 1
    assert n * n <= range_z(zp) * z_self_intersections(zp)


def test_ternary_scenery_range_identity():
    for seed in range(10):
        zp = simulate_rwrs(SIMPLE_TERN, 500, seed)
        assert range_z(zp) == z_spread(zp) + 1


def test_local_time_edge_cases():
    lt = LocalTimeMap(counts={0: 5}, steps=5)
    assert self_intersections(lt) == 25
    assert v_beta(lt, 0.5) == pytest.approx(math.sqrt(5))
    distinct = LocalTimeMap(counts={y: 1 for y in range(7)}, steps=7)
    assert self_intersections(distinct) == 7
    assert v_beta(distinct, 1.7) == pytest.approx(7.0)
    with pytest.raises(ValueError):
        v_beta(lt, 0.0)


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
# normalizers


def test_exponent_values():
    assert scaling_exponent(2.0, 2.0) == pytest.approx(0.75)
    assert scaling_exponent(1.0, 1.0) == pytest.approx(1.0)
    assert scaling_exponent(2.0, 1.0) == pytest.approx(1.0)
    assert scaling_exponent(1.5, 1.5) == pytest.approx(1.0 - 1/1.5 + 1/2.25)


def test_normalizer_three_cases():
    assert scaling_normalizer(2.0, 2.0, 16) == pytest.approx(8.0)
    assert scaling_normalizer(0.5, 2.0, 100) == pytest.approx(10.0)
    n = 100
    assert scaling_normalizer(1.0, 2.0, n) == pytest.approx(
        math.sqrt(n * math.log(n)))
    with pytest.raises(ValueError):
        scaling_normalizer(1.0, 2.0, 1)
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


def test_streaming_stats_match_simulation():
    # the heavy-tailed walk also reads each step's second uniform; 2003 is
    # not a multiple of the 4 uniforms in a Philox block
    heavy = RwrsModel(pareto_tail(1.5), rademacher())
    for model, n in ((SIMPLE_TERN, 2000), (heavy, 2003)):
        zp = simulate_rwrs(model, n, 77)
        for chunk in (1 << 20, 7, 1001):  # one chunk, then many to merge
            summary = rwrs_range_stats(model, n, 77, chunk=chunk)
            assert summary.z_min == int(zp.values.min())
            assert summary.z_max == int(zp.values.max())
            assert summary.z_final == int(zp.values[-1])
            assert summary.distinct_z == range_z(zp)
            assert summary.self_intersections == self_intersections(zp.local_time)
            assert summary.returned == bool((zp.values[1:] == 0).any())
