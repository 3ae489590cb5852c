"""Discretized limit objects: stable paths, local time, field integrals."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from rangelab.laws import StableLaw
from rangelab.limit import (LimitGrid, PathFunctionals, build_limit_grid,
                            estimate_local_time, first_coordinate_scale,
                            integrate_field, path_functionals,
                            sample_scenery_integral, sample_stable_path)
from rangelab.rng import RngStream

BROWNIAN = StableLaw(2.0, 0.5)  # variance 2*a1 = 1, i.e. standard


def sample_deltas(walk, scenery, m, h, n_paths, seed, t_grid=None):
    return np.array([
        sample_scenery_integral(walk, scenery, m, h, RngStream(seed, i),
                                t_grid=t_grid)
        for i in range(n_paths)])


# ---------------------------------------------------------------------------
# path functionals and the lattice-to-limit constant


def test_functionals_of_flat_path_vanish():
    f = path_functionals(np.zeros(17))
    assert (f.sup, f.inf, f.spread) == (0.0, 0.0, 0.0)


def test_functionals_of_monotone_path():
    f = path_functionals([0.0, 0.1, 0.5, 2.0])
    assert f.inf == 0.0
    assert f.sup == 2.0
    assert f.spread == 2.0


def test_functionals_hand_case():
    f = path_functionals([0.0, 1.0, -2.0, 0.5])
    assert f == PathFunctionals(sup=1.0, inf=-2.0, spread=3.0)


def test_functionals_require_zero_start():
    with pytest.raises(ValueError):
        path_functionals([1.0, 2.0])
    with pytest.raises(ValueError):
        path_functionals([])


def test_first_coordinate_scale_frozen_values():
    assert first_coordinate_scale(0.5) == pytest.approx(2.0 ** -0.75)
    assert first_coordinate_scale(0.5) == pytest.approx(0.5946035575, abs=1e-9)
    assert first_coordinate_scale(0.75) == pytest.approx(1.0606601718, abs=1e-9)


def test_first_coordinate_scale_rejects_degenerate_p():
    for p in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            first_coordinate_scale(p)


# ---------------------------------------------------------------------------
# stable path sampling


def test_path_starts_at_zero_and_has_full_mesh():
    y = sample_stable_path(StableLaw(1.5, 1.0), 64, RngStream(1, 0))
    assert y.shape == (65,)
    assert y[0] == 0.0


def test_path_sampling_is_deterministic():
    a = sample_stable_path(BROWNIAN, 32, RngStream(5, 3))
    b = sample_stable_path(BROWNIAN, 32, RngStream(5, 3))
    assert np.array_equal(a, b)


def test_path_rejects_empty_mesh():
    with pytest.raises(ValueError):
        sample_stable_path(BROWNIAN, 0, RngStream(1, 0))


def test_gaussian_endpoint_variance_matches_the_law():
    # increments scale like m^(-1/2), so Y(1) keeps variance 2*a1 = 1
    n, m = 4000, 64
    ends = np.array([sample_stable_path(BROWNIAN, m, RngStream(7, i))[-1]
                     for i in range(n)])
    est = ends.var(ddof=1)
    band = 4.0 * 1.0 * math.sqrt(2.0 / (n - 1))
    assert abs(est - 1.0) < band


def test_self_similarity_of_the_halfway_marginal():
    # Y(1/2) must match 2^(-1/index) * Y(1) in law; independent batches
    # keep the two-sample test honest
    law = StableLaw(1.5, 1.0, 0.3)
    n, m = 4000, 256
    half = np.array([sample_stable_path(law, m, RngStream(11, i))[m // 2]
                     for i in range(n)])
    scaled = np.array([
        2.0 ** (-1.0 / 1.5)
        * sample_stable_path(law, m, RngStream(12, i))[-1]
        for i in range(n)])
    assert ks_2samp(half, scaled).pvalue > 1e-3


# ---------------------------------------------------------------------------
# local time


def test_constant_path_concentrates_local_time_in_cell_zero():
    m, h = 128, 0.25
    flat = np.zeros(m + 1)
    assert estimate_local_time(flat, h, 1.0, 2.0) == {0: 1.0 / h}
    # halving the window halves the count but not the density
    assert estimate_local_time(flat, h, 0.5, 2.0) == {0: 0.5 / h}


def test_local_time_validation():
    flat = np.zeros(9)
    with pytest.raises(ValueError):
        estimate_local_time(flat, 0.25, 1.0, 1.0)  # index must exceed 1
    with pytest.raises(ValueError):
        estimate_local_time(flat, 0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        estimate_local_time(flat, 0.25, 0.0, 2.0)
    with pytest.raises(ValueError):
        estimate_local_time(flat, 0.25, 1.5, 2.0)


def test_occupation_identity_is_exact_at_time_one():
    # every step lands in exactly one cell, so h * sum(L) telescopes to 1
    m, h = 512, 1.0 / 16.0
    for i in range(5):
        y = sample_stable_path(BROWNIAN, m, RngStream(23, i))
        local = estimate_local_time(y, h, 1.0, 2.0)
        total = h * sum(local.values())
        assert total == pytest.approx(1.0, abs=1e-12)
        assert abs(total - 1.0) <= 2.0 / math.sqrt(m)


def test_occupation_identity_at_partial_time():
    m, h = 512, 0.125
    y = sample_stable_path(BROWNIAN, m, RngStream(29, 0))
    local = estimate_local_time(y, h, 0.5, 2.0)
    assert h * sum(local.values()) == pytest.approx(0.5, abs=1e-12)


def test_origin_local_time_is_stable_under_mesh_refinement():
    # mean density in the origin cell, coarse versus (m*10, h/4)
    n = 1000

    def mean_origin(m, h, seed):
        vals = [estimate_local_time(
            sample_stable_path(BROWNIAN, m, RngStream(seed, i)),
            h, 1.0, 2.0).get(0, 0.0) for i in range(n)]
        return float(np.mean(vals))

    coarse = mean_origin(2048, 1.0 / 16.0, 31)
    fine = mean_origin(20480, 1.0 / 64.0, 37)
    assert abs(coarse - fine) / fine < 0.10


# ---------------------------------------------------------------------------
# the local-time integral against the field


def test_zero_field_integrates_to_zero():
    m, h = 256, 0.125
    y = sample_stable_path(BROWNIAN, m, RngStream(41, 0))
    cells = np.floor(y[1:] / h).astype(np.int64)
    field = (np.unique(cells), np.zeros(np.unique(cells).size))
    delta = integrate_field(cells, field, m, h)
    assert delta.shape == (m + 1,)
    assert np.all(delta == 0.0)
    assert path_functionals(delta) == PathFunctionals(0.0, 0.0, 0.0)


def test_missing_cell_is_rejected():
    m, h = 64, 0.25
    y = sample_stable_path(BROWNIAN, m, RngStream(43, 0))
    cells = np.floor(y[1:] / h).astype(np.int64)
    uniq = np.unique(cells)
    with pytest.raises(ValueError):
        integrate_field(cells, (uniq[:-1], np.ones(uniq.size - 1)), m, h)


def test_time_grid_picks_floor_indices():
    m, h = 200, 0.125
    full = sample_scenery_integral(BROWNIAN, BROWNIAN, m, h, RngStream(47, 0))
    at = sample_scenery_integral(BROWNIAN, BROWNIAN, m, h, RngStream(47, 0),
                                 t_grid=[0.0, 0.25, 0.503, 1.0])
    assert np.array_equal(at, full[[0, 50, 100, 200]])
    with pytest.raises(ValueError):
        sample_scenery_integral(BROWNIAN, BROWNIAN, m, h, RngStream(47, 0),
                                t_grid=[0.0, 1.2])


def test_integral_rejects_heavy_walk_and_bad_width():
    with pytest.raises(ValueError):
        sample_scenery_integral(StableLaw(1.0, 1.0), BROWNIAN, 32, 0.25,
                                RngStream(1, 0))
    with pytest.raises(ValueError):
        sample_scenery_integral(BROWNIAN, BROWNIAN, 32, 0.0, RngStream(1, 0))


def test_grid_reconstructs_the_same_integral_sample():
    # same stream key, same draw order: the inspectable grid and the
    # plain sample describe one realization
    m, h = 128, 0.125
    grid = build_limit_grid(BROWNIAN, StableLaw(1.5, 1.0), m, h,
                            RngStream(53, 9))
    delta = sample_scenery_integral(BROWNIAN, StableLaw(1.5, 1.0), m, h,
                                    RngStream(53, 9))
    cells = np.floor(grid.y_path[1:] / h).astype(np.int64)
    rebuilt = np.concatenate(
        [[0.0], np.cumsum([grid.u_increments[int(c)] for c in cells])]) / (m * h)
    assert np.allclose(rebuilt, delta, atol=1e-12)


@pytest.mark.parametrize("m, h", [(4096, 1.0 / 64), (256, 1e-4)])
def test_sampled_integral_equals_integrate_field_on_its_draws(m, h):
    # the sampler reads each step's dU through its cells' local-time
    # inverse, integrate_field looks every cell up again; narrow and wide
    # cell spans take the bincount and the sort route to that inverse
    scenery = StableLaw(1.5, 1.0)
    grid = build_limit_grid(BROWNIAN, scenery, m, h, RngStream(67, m))
    cells = np.floor(grid.y_path[1:] / h).astype(np.int64)
    uniq = np.array(sorted(grid.u_increments), dtype=np.int64)
    field = (uniq, np.array([grid.u_increments[int(c)] for c in uniq]))
    t = [0.0, 0.3, 1.0]
    for t_grid in (None, t):
        delta = sample_scenery_integral(BROWNIAN, scenery, m, h,
                                        RngStream(67, m), t_grid=t_grid)
        assert np.array_equal(delta, integrate_field(cells, field, m, h, t_grid))


def test_grid_bookkeeping_invariants():
    m, h = 256, 0.0625
    grid = build_limit_grid(BROWNIAN, BROWNIAN, m, h, RngStream(59, 2))
    assert isinstance(grid, LimitGrid)
    assert grid.space_mesh == h
    assert grid.y_path.shape == (m + 1,)
    assert np.array_equal(grid.time_mesh, np.arange(m + 1) / m)
    assert set(grid.local_time) == set(grid.u_increments)
    assert h * sum(grid.local_time.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(v > 0.0 for v in grid.local_time.values())


def test_integral_mean_is_centered_for_symmetric_field():
    n, m, h = 2500, 1024, 0.125
    d1 = sample_deltas(BROWNIAN, BROWNIAN, m, h, n, 61, t_grid=[1.0])[:, 0]
    se = d1.std(ddof=1) / math.sqrt(n)
    assert abs(d1.mean()) < 4.0 * se


def test_integral_variance_is_stable_under_mesh_refinement():
    n = 2500
    a = sample_deltas(BROWNIAN, BROWNIAN, 1024, 0.125, n, 67,
                      t_grid=[1.0])[:, 0]
    b = sample_deltas(BROWNIAN, BROWNIAN, 4096, 0.0625, n, 71,
                      t_grid=[1.0])[:, 0]
    va, vb = a.var(ddof=1), b.var(ddof=1)
    assert abs(va - vb) / vb < 0.10


def test_spread_converges_along_dyadic_meshes():
    # successive mesh refinements move the mean spread by less and less
    n = 1200

    def mean_spread(m, h, seed):
        d = sample_deltas(BROWNIAN, BROWNIAN, m, h, n, seed)
        return float(np.mean(d.max(axis=1) - d.min(axis=1)))

    s1 = mean_spread(256, 0.25, 73)
    s2 = mean_spread(1024, 0.125, 79)
    s3 = mean_spread(4096, 0.0625, 83)
    assert abs(s3 - s2) < abs(s2 - s1)


def test_sup_and_negated_inf_share_a_law():
    # symmetric walk and scenery: reflecting the field negates the
    # integral path, so sup and -inf must agree in law; disjoint halves
    # keep the samples independent
    n, m, h = 3000, 512, 0.125
    d = sample_deltas(BROWNIAN, BROWNIAN, m, h, n, 89)
    sups = d[:n // 2].max(axis=1)
    neg_infs = -d[n // 2:].min(axis=1)
    assert ks_2samp(sups, neg_infs).pvalue > 1e-3


def test_brownian_sup_mean_matches_the_reflection_value():
    # E[sup of standard Brownian motion on [0,1]] = sqrt(2/pi)
    n, m = 2500, 4096
    sups = np.array([sample_stable_path(BROWNIAN, m, RngStream(97, i)).max()
                     for i in range(n)])
    want = math.sqrt(2.0 / math.pi)
    assert abs(sups.mean() - want) / want < 0.03
