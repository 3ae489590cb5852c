"""Stable and lattice law contracts, checked against closed-form cases."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import zeta as hurwitz_zeta
from scipy.stats import cauchy, chisquare, kstest, norm

from rangelab.laws import (LatticeLaw, StableLaw, gaussian_limit,
                           lattice_at_sites, lattice_pmf, lattice_support,
                           lattice_tail, lattice_variance, lazy_vertical,
                           pareto_tail, rademacher, sample_lattice,
                           sample_stable, simple_symmetric, stable_cf,
                           stable_index, ternary)
from rangelab.laws import _distinct, _local_times, _pareto_magnitudes
from rangelab.oriented import _encode_sites
from rangelab.rng import RngStream

# ---------------------------------------------------------------------------
# stable laws


def test_cf_formula_matches_direct_evaluation():
    law = StableLaw(1.5, 1.0, 0.5)
    for u in (-2.0, -0.3, 0.7, 3.0):
        mag = abs(u) ** 1.5
        want = complex(math.e) ** complex(-mag, -0.5 * mag * math.copysign(1, u))
        assert stable_cf(law, u) == pytest.approx(want)


def test_cf_at_zero_is_one():
    assert stable_cf(StableLaw(0.8, 2.0, 1.0), 0.0) == 1.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        StableLaw(2.5, 1.0)
    with pytest.raises(ValueError):
        StableLaw(1.5, 0.0)
    with pytest.raises(ValueError):
        StableLaw(1.0, 1.0, 0.3)  # asymmetric index 1 unsupported
    with pytest.raises(ValueError):
        StableLaw(2.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        # |a2/a1| above |tan(pi*0.75)| = 1
        StableLaw(1.5, 1.0, 1.5)
    StableLaw(1.5, 1.0, 1.0)  # boundary is admissible


def test_index_one_samples_are_standard_cauchy():
    # exp(-|u|) is the standard Cauchy cf, so scipy's cdf is an
    # independent oracle for the sampler
    x = sample_stable(StableLaw(1.0, 1.0), RngStream(101, 0), size=200_000)
    assert kstest(x, cauchy.cdf).pvalue > 1e-3


def test_index_two_samples_are_gaussian_variance_two_a1():
    x = sample_stable(StableLaw(2.0, 0.5), RngStream(102, 0), size=200_000)
    assert kstest(x, norm(scale=1.0).cdf).pvalue > 1e-3


def test_scale_acts_as_power_of_a1():
    # X with weight a1 equals a1^(1/index) times the weight-1 variate
    law1 = StableLaw(1.3, 1.0)
    law2 = StableLaw(1.3, 3.0)
    x1 = sample_stable(law1, RngStream(103, 0), size=50_000)
    x2 = sample_stable(law2, RngStream(103, 0), size=50_000)
    assert np.allclose(x2, x1 * 3.0 ** (1.0 / 1.3))


@pytest.mark.parametrize("law", [
    StableLaw(1.5, 1.0, 0.5),
    StableLaw(0.8, 1.0, 0.3),
    StableLaw(1.9, 2.0, -0.3),  # near the shrinking skew bound at index 2
])
def test_empirical_cf_matches_exact(law):
    n = 200_000
    x = sample_stable(law, RngStream(104, 0), size=n)
    for u in (0.3, 1.0, 3.0):
        ecf = np.exp(1j * u * x).mean()
        assert abs(ecf - stable_cf(law, u)) < 4.0 / math.sqrt(n)


def test_scalar_draw_is_a_reproducible_float():
    a = sample_stable(StableLaw(1.5, 1.0), RngStream(105, 0))
    b = sample_stable(StableLaw(1.5, 1.0), RngStream(105, 0))
    assert isinstance(a, float) and a == b


# ---------------------------------------------------------------------------
# lattice laws


FINITE_LAWS = [rademacher(), simple_symmetric(), ternary(0.5), ternary(0.0),
               lazy_vertical(0.3)]


@pytest.mark.parametrize("law", FINITE_LAWS)
def test_finite_support_sums_to_one(law):
    support = lattice_support(law)
    assert sum(w for _, w in support) == pytest.approx(1.0)
    for k, w in support:
        assert lattice_pmf(law, k) == pytest.approx(w)


@given(st.floats(min_value=0.0, max_value=0.99))
def test_ternary_mass_splits_evenly(zero_mass):
    law = ternary(zero_mass)
    assert lattice_pmf(law, 1) == lattice_pmf(law, -1)
    total = lattice_pmf(law, -1) + lattice_pmf(law, 0) + lattice_pmf(law, 1)
    assert total == pytest.approx(1.0)


def test_zero_mass_one_is_rejected():
    with pytest.raises(ValueError):
        ternary(1.0)
    with pytest.raises(ValueError):
        lazy_vertical(1.0)


def test_pareto_pmf_and_tail_are_consistent():
    law = pareto_tail(1.5)
    # default tail constant puts exactly half the mass at 0
    assert lattice_pmf(law, 0) == pytest.approx(0.5)
    assert lattice_tail(law, 0) == pytest.approx(0.5)
    for t in (1, 2, 5, 50):
        drop = lattice_tail(law, t - 1) - lattice_tail(law, t)
        assert drop == pytest.approx(lattice_pmf(law, t) + lattice_pmf(law, -t))
    # raw tail formula against an independent zeta evaluation
    c = law.tail_constant
    assert lattice_tail(law, 10) == pytest.approx(
        2.0 * c * float(hurwitz_zeta(2.5, 11.0)))


def test_pareto_rejects_bad_parameters():
    with pytest.raises(ValueError):
        pareto_tail(2.0)
    with pytest.raises(ValueError):
        pareto_tail(0.0)
    with pytest.raises(ValueError):
        LatticeLaw("pareto_tail", index=1.5, tail_constant=10.0)
    with pytest.raises(ValueError):
        lattice_support(pareto_tail(1.5))


def test_pareto_magnitude_inversion_deep_tail():
    # drive the inversion past the tabulated cut and verify against the
    # exact magnitude cdf F(k) = 1 - zeta(1+a, k+1)/zeta(1+a)
    law = pareto_tail(0.8)
    z = float(hurwitz_zeta(1.8, 1.0))

    def magnitude_cdf(k):
        return 1.0 - float(hurwitz_zeta(1.8, k + 1.0)) / z

    for u in (0.5, 0.99, 0.999999, 1.0 - 1e-9):
        k = int(_pareto_magnitudes(law, np.array([u]))[0])
        assert magnitude_cdf(k) >= u
        assert k == 1 or magnitude_cdf(k - 1) < u
    assert int(_pareto_magnitudes(law, np.array([1.0 - 1e-9]))[0]) > 4096


def test_variance_and_indices():
    assert lattice_variance(rademacher()) == 1.0
    assert lattice_variance(ternary(0.5)) == 0.5
    assert lattice_variance(lazy_vertical(0.3)) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        lattice_variance(pareto_tail(1.5))
    assert stable_index(pareto_tail(1.5)) == 1.5
    assert stable_index(rademacher()) == 2.0


def test_gaussian_limit_weights():
    assert gaussian_limit(rademacher()) == StableLaw(2.0, 0.5, 0.0)
    assert gaussian_limit(ternary(0.5)) == StableLaw(2.0, 0.25, 0.0)
    assert gaussian_limit(simple_symmetric()) == StableLaw(2.0, 0.5, 0.0)


@pytest.mark.parametrize("law", [rademacher(), ternary(0.4), lazy_vertical(0.25)])
def test_sampler_matches_pmf(law):
    n = 100_000
    x = sample_lattice(law, RngStream(106, 0), size=n)
    values, counts = np.unique(x, return_counts=True)
    expected = np.array([lattice_pmf(law, int(v)) for v in values]) * n
    assert expected.sum() == pytest.approx(n)  # support fully covered
    assert chisquare(counts, expected).pvalue > 1e-3


def test_pareto_sampler_matches_pmf_with_tail_bucket():
    law = pareto_tail(1.5)
    n = 200_000
    x = sample_lattice(law, RngStream(107, 0), size=n)
    cut = 5
    bins = list(range(-cut, cut + 1))
    counts = [(x == k).sum() for k in bins] + [(np.abs(x) > cut).sum()]
    expected = [lattice_pmf(law, k) * n for k in bins] + [lattice_tail(law, cut) * n]
    assert chisquare(counts, expected).pvalue > 1e-3


def test_lattice_at_sites_is_lazy_and_consistent():
    law = ternary(0.5)
    sites = np.array([5, -3, 17, 5, 0])
    vals = lattice_at_sites(law, 99, sites)
    # revisits agree no matter where in the query they sit
    assert vals[0] == vals[3]
    perm = np.array([4, 2, 0, 1, 3])
    assert (lattice_at_sites(law, 99, sites[perm]) == vals[perm]).all()
    assert (lattice_at_sites(law, 99, sites) == vals).all()


def test_lattice_at_sites_marginal_law():
    law = ternary(0.3)
    vals = lattice_at_sites(law, 5, np.arange(100_000))
    values, counts = np.unique(vals, return_counts=True)
    expected = np.array([lattice_pmf(law, int(v)) for v in values]) * vals.size
    assert chisquare(counts, expected).pvalue > 1e-3


def test_keyed_route_reproduces_the_scalar_seed_route():
    from rangelab.laws import lattice_at_keyed_sites
    from rangelab.rng import mix64
    law = pareto_tail(1.2)
    sites = np.arange(-50, 50)
    direct = lattice_at_sites(law, 31, sites)
    keyed = lattice_at_keyed_sites(law, mix64(31, 0), mix64(31, 1), sites)
    assert (direct == keyed).all()
    # batched keys give one independent field per row
    k0 = np.array([[mix64(31, 0)], [mix64(32, 0)]], dtype=np.uint64)
    k1 = np.array([[mix64(31, 1)], [mix64(32, 1)]], dtype=np.uint64)
    both = lattice_at_keyed_sites(law, k0, k1, np.broadcast_to(sites, (2, 100)))
    assert (both[0] == direct).all()
    assert (both[1] == lattice_at_sites(law, 32, sites)).all()


def test_lattice_at_sites_differs_across_seeds():
    sites = np.arange(1000)
    a = lattice_at_sites(rademacher(), 1, sites)
    b = lattice_at_sites(rademacher(), 2, sites)
    assert (a != b).any()


# ---------------------------------------------------------------------------
# distinct values and local times, against numpy's unique as the reference

_COORD = st.integers(min_value=-2**31 + 1, max_value=2**31 - 1)
_INT_ARRAYS = st.one_of(
    # narrow span: the offset-bincount branch once the list is long enough
    st.lists(st.integers(min_value=-40, max_value=40), max_size=300),
    # encoded (x, y) sites: the sort branch
    st.lists(st.tuples(_COORD, _COORD), max_size=300).map(
        lambda xy: _encode_sites(np.array([x for x, _ in xy], dtype=np.int64),
                                 np.array([y for _, y in xy], dtype=np.int64))),
    # spans up to the whole int64 range, where max - min would wrap
    st.lists(st.integers(min_value=-2**63, max_value=2**63 - 1), max_size=50),
).map(lambda v: np.asarray(v, dtype=np.int64))


@given(_INT_ARRAYS)
@example(np.array([], dtype=np.int64))
@example(np.array([-7], dtype=np.int64))
@example(np.arange(-500, 500) // 3)
@example(np.array([-2**63, 2**63 - 1, 0, -2**63], dtype=np.int64))
@settings(max_examples=300, deadline=None)
def test_distinct_and_local_times_equal_numpy_unique(a):
    values, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
    got = _distinct(a)
    assert got.dtype == np.int64 and np.array_equal(got, values)
    v, c, inv = _local_times(a)
    assert v.dtype == np.int64 and np.array_equal(v, values)
    assert np.array_equal(c, counts)
    assert np.array_equal(inv, inverse.reshape(-1))
