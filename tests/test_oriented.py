"""Oriented-lattice walk: simulators vs exact enumeration, path identities."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from rangelab import laws
from rangelab.oriented import (DOWN, ESCAPE_CAP, H, UP, Environment,
                               LatticePath, _trial_block,
                               annealed_endpoints, annealed_environment,
                               annealed_range_stats, exact_annealed_law,
                               exact_no_return_probability,
                               first_coordinate_decomposition,
                               horizontal_local_time, no_return_count,
                               range_sites, simulate_annealed,
                               simulate_quenched, skew_product_endpoints,
                               skew_product_environment, skew_product_path)
from rangelab.rng import RngStream, _mix64_vec


def make_path(p, xs, ys, types):
    return LatticePath(p=p, x=np.array(xs), y=np.array(ys),
                       step_types=np.array(types, dtype=np.uint8))


def positions(path):
    """The sites (x_k, y_k), k = 0..n, of a path."""
    return list(zip(path.x.tolist(), path.y.tolist()))


def quadratic_range(path):
    """Distinct-site count as 1 + #{k < n : site k never revisited later}."""
    pts = positions(path)
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
    for p in (0.3, 0.5, 0.7):
        qs = [exact_no_return_probability(p, L) for L in range(1, 13)]
        assert all(a >= b for a, b in zip(qs, qs[1:]))
        # no return is possible at an odd time
        assert all(qs[2 * k] == qs[2 * k - 1] for k in range(1, 6))


def fraction_no_return(p, horizon):
    """P(no return to the origin at times 1..horizon) in exact rationals.

    Depth-first search over step-type sequences, carrying the sign
    bitmasks of the rows that have hosted a horizontal step (bit i for
    the i-th row to host one) and the first coordinate under each.
    """
    pv = (1 - p) / 2
    total = Fraction(0)

    def descend(k, y, active, masks, xs, w):
        nonlocal total
        if k == horizon:
            total += w * len(masks) / 2 ** len(active)
            return
        i = active.get(y)
        if i is None:
            bit = 1 << len(active)
            nm = [m | b for m in masks for b in (bit, 0)]
            nx = [v + d for v in xs for d in (1, -1)]
            act = {**active, y: len(active)}
        else:
            nm = masks
            nx = [v + 1 if (m >> i) & 1 else v - 1 for m, v in zip(masks, xs)]
            act = active
        if y == 0:
            kept = [(m, v) for m, v in zip(nm, nx) if v != 0]
            nm = [m for m, _ in kept]
            nx = [v for _, v in kept]
        if nm:
            descend(k + 1, y, act, nm, nx, w * p)
        for y2 in (y + 1, y - 1):
            kept = [(m, v) for m, v in zip(masks, xs) if y2 != 0 or v != 0]
            if kept:
                descend(k + 1, y2, active, [m for m, _ in kept],
                        [v for _, v in kept], w * pv)

    descend(0, 0, {}, [0], [0], Fraction(1))
    return total


# q_L at p = 1/2, L = 1..18: up to 12 from fraction_no_return, then from
# the mask/pair reference DP in test_enumeration.py with no horizon cap
Q_HALF = tuple(Fraction(a, b) for a, b in (
    (1, 1), (7, 8), (7, 8), (107, 128), (107, 128), (415, 512), (415, 512),
    (25955, 32768), (25955, 32768), (101955, 131072), (101955, 131072),
    (3214703, 4194304), (3214703, 4194304), (12700691, 16777216),
    (12700691, 16777216), (1608582723, 2147483648), (1608582723, 2147483648),
    (6375439937, 8589934592)))


@pytest.mark.parametrize("p", [0.2, 0.37, 0.73])
def test_no_return_matches_exact_rationals(p):
    # the rationals take the float p as it is, so only the DP's own
    # rounding separates the two
    for L in range(1, 10):
        want = fraction_no_return(Fraction(p), L)
        got = exact_no_return_probability(p, L)
        assert abs(Fraction(got) - want) <= Fraction(1, 10 ** 13) * want


def test_no_return_at_one_half_is_exact():
    for L in range(1, 8):
        assert fraction_no_return(Fraction(1, 2), L) == Q_HALF[L - 1]
    qs = [exact_no_return_probability(0.5, L) for L in range(1, 19)]
    assert [Fraction(q) for q in qs] == list(Q_HALF)
    # no return is possible at an odd time
    assert all(qs[2 * k] == qs[2 * k - 1] for k in range(1, 9))


def test_mean_range_is_one_plus_the_escape_curve():
    # E[R_n] = 1 + sum_{k=1..n} q_k holds for a walk with stationary,
    # reversible increments; brute force over every step-type sequence of
    # length 7 and every sign of its hosting rows gives E[R_n], n = 1..7,
    # from the sequences' prefixes
    p, n = 0.3, 7
    pv = (1 - p) / 2
    mean = [0.0] * (n + 1)
    for labels in itertools.product((H, UP, DOWN), repeat=n):
        ys = [0]
        for t in labels:
            ys.append(ys[-1] + (t == UP) - (t == DOWN))
        hosts = sorted({y for y, t in zip(ys, labels) if t == H})
        w = p ** labels.count(H) * pv ** (n - labels.count(H)) / 2 ** len(hosts)
        for signs in itertools.product((-1, 1), repeat=len(hosts)):
            eps = dict(zip(hosts, signs))
            x = 0
            seen = {(0, 0)}
            for k, (y, t) in enumerate(zip(ys, labels), start=1):
                x += eps[y] if t == H else 0
                seen.add((x, ys[k]))
                mean[k] += w * len(seen)
    for k in range(1, n + 1):
        want = 1.0 + sum(exact_no_return_probability(p, j) for j in range(1, k + 1))
        assert mean[k] == pytest.approx(want, rel=1e-12)


def return_probability(n):
    return exact_annealed_law(0.5, n).get((0, 0), 0.0)


def test_return_probability_parity_and_decay():
    assert return_probability(3) == 0.0
    assert return_probability(5) == 0.0
    assert return_probability(2) == pytest.approx(0.125)
    assert return_probability(4) < return_probability(2)


def test_return_probability_log_slope_is_steeply_negative():
    ns = np.array([2, 4, 6, 8, 10, 12, 14], dtype=float)
    ps = np.array([return_probability(int(n)) for n in ns])
    slope = np.polyfit(np.log(ns), np.log(ps), 1)[0]
    assert slope < -0.8


def test_caps_and_validation():
    with pytest.raises(ValueError):
        exact_annealed_law(0.5, 15)
    with pytest.raises(ValueError):
        exact_no_return_probability(0.5, 0)
    with pytest.raises(ValueError):
        exact_no_return_probability(0.5, ESCAPE_CAP + 1)
    with pytest.raises(ValueError):
        simulate_annealed(0.0, 5, 1)
    with pytest.raises(ValueError):
        simulate_annealed(1.0, 5, 1)


# ---------------------------------------------------------------------------
# simulators against the oracles


def test_zero_steps_path():
    path = simulate_annealed(0.5, 0, 7)
    assert positions(path) == [(0, 0)]
    assert range_sites(path) == 1


def test_batch_samplers_at_zero_steps_and_negative_sizes():
    # walks of no steps end where simulate_annealed(p, 0, seed) does
    for sampler in (annealed_endpoints, skew_product_endpoints):
        xs, ys = sampler(0.5, 0, 5, 1)
        assert xs.tolist() == ys.tolist() == [0] * 5
        for n, trials in ((-1, 5), (3, -1)):
            with pytest.raises(ValueError):
                sampler(0.5, n, trials, 1)
    from rangelab.laws import rademacher, simple_symmetric
    from rangelab.rwrs import RwrsModel, no_return_z_count
    model = RwrsModel(simple_symmetric(), rademacher())
    for count, law in ((no_return_count, 0.5), (no_return_z_count, model)):
        with pytest.raises(ValueError):
            count(law, 3, -1, 1)


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
    rng = RngStream(14, 0)
    walks = [(simulate_annealed(0.5, 300, 13), annealed_environment(13)),
             (skew_product_path(0.5, 300, rng), skew_product_environment(rng))]
    for path, env in walks:
        assert path.x[0] == path.y[0] == 0 and path.step_types.size == 300
        dx, dy = np.diff(path.x), np.diff(path.y)
        types = path.step_types
        assert (np.abs(dx) + np.abs(dy) == 1).all()
        assert ((dx != 0) == (types == H)).all()
        assert (dy[types == UP] == 1).all() and (dy[types == DOWN] == -1).all()
        # raises unless every horizontal move follows its row's orientation
        assert first_coordinate_decomposition(path, env) == path.x[-1]


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
    assert range_sites(path) == len(set(positions(path)))
    assert range_sites(path) == quadratic_range(path)
    assert range_sites(path) <= 400 + 1
    assert len(set(path.x.tolist())) == path.x.max() - path.x.min() + 1
    assert first_coordinate_decomposition(path, env) == path.x[-1]
    lt = horizontal_local_time(path)
    assert sum(lt.counts.values()) == int((path.step_types == H).sum())


def test_identities_on_skew_paths():
    for seed in range(10):
        rng = RngStream(seed, 3)
        path = skew_product_path(0.6, 300, rng)
        assert len(set(path.x.tolist())) == path.x.max() - path.x.min() + 1
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
    assert range_sites(path) == len(set(positions(path)))
    assert range_sites(path) <= n + 1
    assert len(set(path.x.tolist())) == path.x.max() - path.x.min() + 1


# ---------------------------------------------------------------------------
# streaming route


def test_streaming_stats_match_path_functionals():
    # the walk of seed 31 never returns to the origin (first_return 0), the
    # walk of seed 32 first does at step 1526
    p, n = 0.5, 5000
    for seed in (31, 32):
        summary = annealed_range_stats(p, n, seed)
        path = simulate_annealed(p, n, seed)
        assert summary.sites == range_sites(path)
        assert summary.first_range == len(set(path.x.tolist()))
        assert summary.x_final == path.x[-1] and summary.y_final == path.y[-1]
        hits = np.flatnonzero((path.x[1:] == 0) & (path.y[1:] == 0))
        assert summary.returned == bool(hits.size)
        assert summary.first_return == (hits[0] + 1 if hits.size else 0)


def test_mean_range_matches_first_returns_by_monte_carlo():
    # E[R_n] = 1 + sum_{k=1..n} q_k = 1 + E[min(T - 1, n)], T the first
    # return to the origin (n + 1 when there is none): the mean range of
    # 4,000 walks against the first returns of 4,000 independent ones
    n = 1024
    seeds = _mix64_vec(21, np.arange(8000, dtype=np.uint64))
    blocks = [_trial_block(0.5, n, seeds[i:i + 1000], i < 4000, n)
              for i in range(0, 8000, 1000)]
    sites = np.concatenate([b[0] for b in blocks[:4]])
    first = np.concatenate([b[-1] for b in blocks[4:]])
    escape = 1 + np.minimum(np.where(first > 0, first, n + 1) - 1, n)
    sigma = np.sqrt(sites.var(ddof=1) / sites.size + escape.var(ddof=1) / escape.size)
    assert abs(sites.mean() - escape.mean()) <= 4.0 * sigma


def test_trial_block_chunks_do_not_change_results():
    # 39 walks of 500 steps, read in column chunks that split the rows
    # anywhere, against one chunk
    seeds = _mix64_vec(9, np.arange(39, dtype=np.uint64))
    n = 500
    want = _trial_block(0.5, n, seeds, True, 1 << 20)
    assert want[-1].any() and not want[-1].all()  # some walks come back
    for chunk in (1, 7, n - 1):
        got = _trial_block(0.5, n, seeds, True, chunk)
        for a, b in zip(got, want):
            assert (a == b).all()


@pytest.mark.parametrize("batch", [1, 7, 1000])
def test_trial_block_tiles_do_not_change_results(monkeypatch, batch):
    # the kernel walks tiles of batch trial-steps: one step, seven steps of
    # one row, or two whole rows.  Some first return lands on the first step
    # of a seven-step tile (steps 7j + 1), and some on the last (steps 7j):
    # these 39 walks first return at steps 8, 22 and 106, and at 84
    seeds = _mix64_vec(10, np.arange(39, dtype=np.uint64))
    n = 500
    want = _trial_block(0.5, n, seeds, True, 1 << 20)
    returns = set(want[-1].tolist()) - {0}
    assert any(t % 7 == 1 for t in returns) and any(t % 7 == 0 for t in returns)
    monkeypatch.setattr(laws, "_BATCH_STEPS", batch)
    for chunk in (1 << 20, n - 1):
        got = _trial_block(0.5, n, seeds, True, chunk)
        for a, b in zip(got, want):
            assert (a == b).all()


def test_range_stats_reject_bad_steps_and_chunks():
    # not a walk of no steps labelled with n steps
    for n, chunk in ((-3, 1 << 20), (1000, 0), (1000, -5)):
        with pytest.raises(ValueError):
            annealed_range_stats(0.5, n, 7, chunk=chunk)


def test_streaming_chunking_does_not_change_results():
    # the first walk never returns to the origin, the second does at step 1526
    for n, seed in ((3000, 31), (5000, 32)):
        b = annealed_range_stats(0.5, n, seed, chunk=1 << 20)
        for chunk in (1, 7, 256):  # many sorted runs to merge
            a = annealed_range_stats(0.5, n, seed, chunk=chunk)
            assert a == b
