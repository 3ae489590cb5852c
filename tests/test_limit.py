"""Discretized limit objects: stable paths and field integrals."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from rangelab.laws import StableLaw
from rangelab.limit import (PathFunctionals, _draw_components,
                            first_coordinate_scale, path_functionals,
                            sample_scenery_integral, sample_stable_path)
from rangelab.rng import RngStream

BROWNIAN = StableLaw(2.0, 0.5)  # variance 2*a1 = 1, i.e. standard


def sample_deltas(walk, scenery, m, h, n_paths, seed):
    return np.array([
        sample_scenery_integral(walk, scenery, m, h, RngStream(seed, i))
        for i in range(n_paths)])


def final_deltas(walk, scenery, m, h, n_paths, seed):
    """Delta(1) of each path of sample_deltas, without keeping the paths."""
    return np.array([
        sample_scenery_integral(walk, scenery, m, h, RngStream(seed, i))[-1]
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
# the local-time integral against the field


def test_integral_rejects_heavy_walk_and_bad_width():
    with pytest.raises(ValueError):
        sample_scenery_integral(StableLaw(1.0, 1.0), BROWNIAN, 32, 0.25,
                                RngStream(1, 0))
    with pytest.raises(ValueError):
        sample_scenery_integral(BROWNIAN, BROWNIAN, 32, 0.0, RngStream(1, 0))


@pytest.mark.parametrize("m, h", [(4096, 1.0 / 64), (256, 1e-4)])
def test_sampled_integral_adds_each_steps_cell_draw(m, h):
    # the sampler reads each step's dU through the local-time inverse of
    # its cells; here each step's cell is looked up in the sorted cells
    # again.  Narrow and wide cell spans take the bincount and the sort
    # route to that inverse
    scenery = StableLaw(1.5, 1.0)
    y, (uniq, cnt, _), du = _draw_components(BROWNIAN, scenery, m, h,
                                             RngStream(67, m).generator())
    assert y.shape == (m + 1,) and y[0] == 0.0
    assert (np.diff(uniq) > 0).all() and (cnt > 0).all() and cnt.sum() == m
    assert du.shape == uniq.shape
    cells = np.floor(y[1:] / h).astype(np.int64)
    idx = np.searchsorted(uniq, cells)
    assert np.array_equal(uniq[idx], cells)
    path = np.concatenate([[0.0], np.cumsum(du[idx])]) / (m * h)
    delta = sample_scenery_integral(BROWNIAN, scenery, m, h, RngStream(67, m))
    assert np.array_equal(delta, path)


def test_integral_mean_is_centered_for_symmetric_field():
    n, m, h = 2500, 1024, 0.125
    d1 = final_deltas(BROWNIAN, BROWNIAN, m, h, n, 61)
    se = d1.std(ddof=1) / math.sqrt(n)
    assert abs(d1.mean()) < 4.0 * se


def test_integral_variance_is_stable_under_mesh_refinement():
    n = 2500
    a = final_deltas(BROWNIAN, BROWNIAN, 1024, 0.125, n, 67)
    b = final_deltas(BROWNIAN, BROWNIAN, 4096, 0.0625, n, 71)
    va, vb = a.var(ddof=1), b.var(ddof=1)
    assert abs(va - vb) / vb < 0.10


def test_spread_converges_along_dyadic_meshes():
    # each refinement quarters the time step and halves the cell width,
    # and must move the mean spread (about 1) by under 15 %.  Over 100
    # seed triples of 2400 paths a mesh the two relative moves had means
    # 0.074 and 0.044 and SDs 0.015 and 0.015, so a correct sampler sits
    # 4.9 SDs inside the bound.  A field scaled by h in place of h^(1/2)
    # moved the spread by -0.24 and -0.27, 6.5 SDs outside it
    n = 2400

    def mean_spread(m, h, seed):
        return float(np.mean([path_functionals(sample_scenery_integral(
            BROWNIAN, BROWNIAN, m, h, RngStream(seed, i))).spread
            for i in range(n)]))

    s1 = mean_spread(256, 0.25, 73)
    s2 = mean_spread(1024, 0.125, 79)
    s3 = mean_spread(4096, 0.0625, 83)
    assert abs(s2 / s1 - 1.0) < 0.15 and abs(s3 / s2 - 1.0) < 0.15


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
