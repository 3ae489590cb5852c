"""Oriented-lattice walk: simulators vs exact enumeration, path identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from rangelab.oriented import (DOWN, H, UP, Environment, LatticePath,
                               annealed_endpoints, annealed_environment,
                               annealed_range_stats, exact_annealed_law,
                               exact_no_return_probability,
                               exact_return_probability,
                               first_coordinate_decomposition,
                               first_coordinate_spread, horizontal_local_time,
                               no_return_count, range_first_coordinate,
                               range_sites, simulate_annealed,
                               simulate_quenched, skew_product_endpoints,
                               skew_product_environment, skew_product_path,
                               validate_path)
from rangelab.rng import RngStream


def make_path(p, xs, ys, types):
    return LatticePath(p=p, x=np.array(xs), y=np.array(ys),
                       step_types=np.array(types, dtype=np.uint8))


def quadratic_range(path):
    """Distinct-site count as 1 + #{k < n : site k never revisited later}."""
    pts = path.positions()
    n = len(pts) - 1
    fresh = sum(1 for k in range(n) if pts[k] not in pts[k + 1:])
    return 1 + fresh


def quenched_law_two_steps(env, p):
    """Exact quenched endpoint law of the two-step walk, by brute force."""
    law = {}
    for s1 in (H, UP, DOWN):
        for s2 in (H, UP, DOWN):
            w = 1.0
            x = y = 0
            for s in (s1, s2):
                if s == H:
                    w *= p
                    x += env.orientation(y)
                else:
                    w *= (1.0 - p) / 2.0
                    y += 1 if s == UP else -1
            law[(x, y)] = law.get((x, y), 0.0) + w
    return law


# ---------------------------------------------------------------------------
# exact oracles


def test_one_step_law_from_hand_expansion():
    for p in (0.3, 0.5, 0.7):
        want = {(1, 0): p / 2, (-1, 0): p / 2,
                (0, 1): (1 - p) / 2, (0, -1): (1 - p) / 2}
        got = exact_annealed_law(p, 1)
        assert set(got) == set(want)
        for k in want:
            assert got[k] == pytest.approx(want[k])


def test_two_step_return_mass():
    # only UD and DU come back: H-moves on row 0 share a direction, so
    # HH lands at x = +-2
    law = exact_annealed_law(0.5, 2)
    assert law[(0, 0)] == pytest.approx(0.125)
    assert (2, 0) in law and (1, 0) not in law


@pytest.mark.parametrize("p,n", [(0.5, 4), (0.3, 6), (0.7, 9)])
def test_exact_law_normalizes_and_is_x_symmetric(p, n):
    law = exact_annealed_law(p, n)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    for (x, y), w in law.items():
        assert law[(-x, y)] == pytest.approx(w)


def test_exact_law_y_marginal_is_the_lazy_walk():
    # integrating out the orientations leaves the vertical coordinate a
    # lazy walk; its law comes from an independent 1-d convolution
    p, n = 0.4, 6
    law = exact_annealed_law(p, n)
    marg = {}
    for (x, y), w in law.items():
        marg[y] = marg.get(y, 0.0) + w
    lazy = {0: 1.0}
    for _ in range(n):
        nxt = {}
        for y, w in lazy.items():
            for dy, q in ((0, p), (1, (1 - p) / 2), (-1, (1 - p) / 2)):
                nxt[y + dy] = nxt.get(y + dy, 0.0) + w * q
        lazy = nxt
    assert set(marg) == {y for y, w in lazy.items() if w > 0}
    for y in marg:
        assert marg[y] == pytest.approx(lazy[y], abs=1e-12)


def test_no_return_values_and_monotonicity():
    assert exact_no_return_probability(0.5, 1) == pytest.approx(1.0)
    for p in (0.3, 0.5, 0.7):
        assert exact_no_return_probability(p, 2) == pytest.approx(
            1.0 - (1.0 - p) ** 2 / 2.0)
    qs = [exact_no_return_probability(0.5, L) for L in range(1, 9)]
    assert all(a >= b - 1e-12 for a, b in zip(qs, qs[1:]))


def test_return_probability_parity_and_decay():
    assert exact_return_probability(0.5, 3) == 0.0
    assert exact_return_probability(0.5, 5) == 0.0
    assert exact_return_probability(0.5, 2) == pytest.approx(0.125)
    assert exact_return_probability(0.5, 4) < exact_return_probability(0.5, 2)


def test_return_probability_log_slope_is_steeply_negative():
    ns = np.array([2, 4, 6, 8, 10, 12, 14], dtype=float)
    ps = np.array([exact_return_probability(0.5, int(n)) for n in ns])
    slope = np.polyfit(np.log(ns), np.log(ps), 1)[0]
    assert slope < -0.8


def test_caps_and_validation():
    with pytest.raises(ValueError):
        exact_annealed_law(0.5, 15)
    with pytest.raises(ValueError):
        exact_no_return_probability(0.5, 0)
    with pytest.raises(ValueError):
        simulate_annealed(0.0, 5, 1)
    with pytest.raises(ValueError):
        simulate_annealed(1.0, 5, 1)


# ---------------------------------------------------------------------------
# simulators against the oracles


def test_zero_steps_path():
    path = simulate_annealed(0.5, 0, 7)
    assert path.positions() == [(0, 0)]
    assert range_sites(path) == 1


def test_annealed_step_one_is_horizontal_with_probability_p():
    n_trials = 100_000
    hor = sum(simulate_annealed(0.5, 1, seed).step_types[0] == H
              for seed in range(2000))
    assert abs(hor / 2000 - 0.5) < 4.0 * np.sqrt(0.25 / 2000)
    xs, ys = annealed_endpoints(0.5, 1, n_trials, 42)
    assert abs((ys == 0).mean() - 0.5) < 4.0 * np.sqrt(0.25 / n_trials)


def test_annealed_return_frequency_matches_exact():
    n = 100_000
    xs, ys = annealed_endpoints(0.5, 2, n, 11)
    freq = ((xs == 0) & (ys == 0)).mean()
    sigma = np.sqrt(0.125 * 0.875 / n)
    assert abs(freq - 0.125) < 4.0 * sigma


@pytest.mark.parametrize("sampler", [annealed_endpoints, skew_product_endpoints])
def test_endpoint_law_matches_enumeration(sampler):
    p, n, trials = 0.5, 4, 100_000
    law = exact_annealed_law(p, n)
    xs, ys = sampler(p, n, trials, 3)
    keys = sorted(law)
    index = {k: i for i, k in enumerate(keys)}
    counts = np.zeros(len(keys))
    for x, y in zip(xs, ys):
        counts[index[(int(x), int(y))]] += 1
    expected = np.array([law[k] for k in keys]) * trials
    assert chisquare(counts, expected).pvalue > 1e-3


def test_skew_product_four_step_total_variation():
    p, n, trials = 0.5, 4, 1_000_000
    law = exact_annealed_law(p, n)
    xs, ys = skew_product_endpoints(p, n, trials, 5)
    emp = {}
    for x, y in zip(xs.tolist(), ys.tolist()):
        emp[(x, y)] = emp.get((x, y), 0) + 1
    tv = 0.5 * sum(abs(emp.get(k, 0) / trials - law.get(k, 0.0))
                   for k in set(law) | set(emp))
    assert tv < 0.02


def test_skew_one_step_increments():
    # direct expansion of the shift-map increment: (e0, 0) on a hold,
    # (0, w0) otherwise
    p, trials = 0.3, 200_000
    xs, ys = skew_product_endpoints(p, 1, trials, 9)
    want = {(1, 0): p / 2, (-1, 0): p / 2, (0, 1): (1 - p) / 2,
            (0, -1): (1 - p) / 2}
    for (x, y), q in want.items():
        freq = ((xs == x) & (ys == y)).mean()
        assert abs(freq - q) < 4.0 * np.sqrt(q * (1 - q) / trials)


def test_quenched_average_over_environments_approximates_annealed():
    p = 0.5
    law = exact_annealed_law(p, 2)
    acc = {}
    n_env = 1000
    for seed in range(n_env):
        for k, w in quenched_law_two_steps(Environment(seed), p).items():
            acc[k] = acc.get(k, 0.0) + w / n_env
    tv = 0.5 * sum(abs(acc.get(k, 0.0) - law.get(k, 0.0))
                   for k in set(acc) | set(law))
    assert tv < 0.05


def test_quenched_all_plus_rows_near_p_one():
    env = Environment(0, overrides={y: 1 for y in range(-2, 3)})
    path = simulate_quenched(env, 1 - 1e-12, 100, RngStream(1, 0))
    assert (path.step_types == H).all()
    assert path.x.tolist() == list(range(101))
    assert (path.y == 0).all()


@pytest.mark.parametrize("rows", [
    np.array([0, 3, 3, -5, 12, 40, 0, -100, 12, 3, 1000, -5]),  # sparse: sort route
    np.concatenate([[40, -5, 3], np.cumsum(np.resize([1, 1, -1, 0, 1], 4000))]),
    np.array([], dtype=np.int64),
])
def test_vectorised_orientations_match_the_scalar_lookup(rows):
    plain = Environment(77)
    # overrides that flip the hashed sign, so a skipped override shows
    env = Environment(77, overrides={r: -plain.orientation(r) for r in (3, -5, 40)})
    got = env.orientations(rows)
    assert got.dtype == np.int64 and got.shape == rows.shape
    assert got.tolist() == [env.orientation(r) for r in rows]
    assert plain.orientations(rows).tolist() == [plain.orientation(r) for r in rows]


def test_quenched_determinism():
    env = Environment(77)
    a = simulate_quenched(env, 0.4, 500, RngStream(8, 0))
    b = simulate_quenched(env, 0.4, 500, RngStream(8, 0))
    assert (a.x == b.x).all() and (a.y == b.y).all()
    assert (a.step_types == b.step_types).all()


def test_simulated_paths_validate_against_their_environments():
    env = annealed_environment(13)
    path = simulate_annealed(0.5, 300, 13)
    validate_path(path, env)
    rng = RngStream(14, 0)
    spath = skew_product_path(0.5, 300, rng)
    validate_path(spath, skew_product_environment(rng))


def test_validate_rejects_mixed_directions_on_a_row():
    bad = make_path(0.5, [0, 1, 0], [0, 0, 0], [H, H])
    with pytest.raises(ValueError, match="both directions"):
        validate_path(bad)
    # rows 0 and 1 both disagree with the environment: the lower one is named
    env = Environment(5, overrides={0: -1, 1: 1})
    wrong = make_path(0.5, [0, 1, 1, 0], [0, 0, 1, 1], [H, UP, H])
    with pytest.raises(ValueError, match="row 0 direction contradicts"):
        validate_path(wrong, env)
    validate_path(wrong, Environment(5, overrides={0: 1, 1: -1}))


def test_no_return_count_matches_exact_at_horizon_two():
    trials = 20_000
    hits = no_return_count(0.5, 2, trials, 21)
    q = 0.875
    assert abs(hits / trials - q) < 4.0 * np.sqrt(q * (1 - q) / trials)


# ---------------------------------------------------------------------------
# path functionals and identities


def test_range_on_tiny_paths():
    assert range_sites(make_path(0.5, [0], [0], [])) == 1
    back = make_path(0.5, [0, 1, 0], [0, 0, 0], [H, H])
    assert range_sites(back) == 2
    assert quadratic_range(back) == 2


def test_first_range_hand_cases():
    vertical = make_path(0.5, [0, 0, 0], [0, 1, 2], [UP, UP])
    assert range_first_coordinate(vertical) == 1
    assert first_coordinate_spread(vertical) == 0
    wander = make_path(0.5, [0, 1, 1, 0, -1], [0, 0, 1, 1, 1],
                       [H, UP, H, H])
    assert range_first_coordinate(wander) == 3


def test_decomposition_hand_case():
    env = Environment(0, overrides={0: 1})
    path = make_path(0.9, [0, 1, 2, 2], [0, 0, 0, 1], [H, H, UP])
    lt = horizontal_local_time(path)
    assert lt.counts == {0: 2}
    assert first_coordinate_decomposition(path, env) == 2 == path.x[-1]


def test_decomposition_rejects_inconsistent_pairs():
    env = Environment(0, overrides={0: -1})
    path = make_path(0.9, [0, 1], [0, 0], [H])
    with pytest.raises(ValueError, match="disagree"):
        first_coordinate_decomposition(path, env)


@pytest.mark.parametrize("seed", range(20))
def test_identities_on_simulated_paths(seed):
    p = 0.3 + 0.05 * (seed % 9)
    path = simulate_annealed(p, 400, seed)
    env = annealed_environment(seed)
    assert range_sites(path) == len(set(path.positions()))
    assert range_sites(path) == quadratic_range(path)
    assert range_sites(path) <= 400 + 1
    assert range_first_coordinate(path) == len(set(path.x.tolist()))
    assert first_coordinate_decomposition(path, env) == path.x[-1]
    lt = horizontal_local_time(path)
    assert sum(lt.counts.values()) == int((path.step_types == H).sum())


def test_identities_on_skew_paths():
    for seed in range(10):
        rng = RngStream(seed, 3)
        path = skew_product_path(0.6, 300, rng)
        assert range_first_coordinate(path) == len(set(path.x.tolist()))
        assert range_sites(path) == quadratic_range(path)


def test_range_is_nondecreasing_along_a_path():
    path = simulate_annealed(0.5, 200, 99)
    prev = 0
    for k in range(0, 201, 20):
        prefix = LatticePath(p=0.5, x=path.x[:k + 1], y=path.y[:k + 1],
                             step_types=path.step_types[:k])
        r = range_sites(prefix)
        assert r >= prev
        prev = r


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=120))
@settings(max_examples=30, deadline=None)
def test_identities_hold_for_arbitrary_seeds(seed, n):
    path = simulate_annealed(0.45, n, seed)
    assert len(path.x) == n + 1
    assert range_sites(path) == len(set(path.positions()))
    assert range_sites(path) <= n + 1
    assert range_first_coordinate(path) == int(path.x.max() - path.x.min() + 1)


# ---------------------------------------------------------------------------
# streaming route


def test_streaming_stats_match_path_functionals():
    p, n, seed = 0.5, 5000, 31
    summary = annealed_range_stats(p, n, seed)
    path = simulate_annealed(p, n, seed)
    assert summary.sites == range_sites(path)
    assert summary.first_range == range_first_coordinate(path)
    assert summary.x_final == path.x[-1] and summary.y_final == path.y[-1]
    origin_hits = ((path.x[1:] == 0) & (path.y[1:] == 0)).any()
    assert summary.returned == bool(origin_hits)


def test_streaming_chunking_does_not_change_results():
    b = annealed_range_stats(0.5, 3000, 17, chunk=1 << 20)
    for chunk in (1, 7, 256):  # many sorted runs to merge
        a = annealed_range_stats(0.5, 3000, 17, chunk=chunk)
        assert a == b
