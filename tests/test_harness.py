"""Experiment harness: exact statistics, determinism, fits, intervals."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangelab import harness
from rangelab.harness import (_MODEL_OUTPUTS, _SIZE_TAG, MAX_TOTAL_STEPS,
                              MAX_TRIAL_STEPS, ConfigError, ExperimentSpec,
                              ResourceCapError, ScalingFit, TrialStats,
                              estimate_escape, expected_exponent,
                              parse_lattice_law, run_experiment, scaling_fit)
from rangelab.laws import pareto_tail, rademacher, simple_symmetric, ternary
from rangelab.oriented import (exact_no_return_probability, range_sites,
                               simulate_annealed)
from rangelab.rng import mix64
from rangelab.rwrs import (RwrsModel, range_z, self_intersections,
                           simulate_rwrs, z_spread)

# ---------------------------------------------------------------------------
# exact statistics


def test_stats_hand_values():
    s = TrialStats.from_values([1.0, 2.0, 3.0])
    assert s.count == 3
    assert s.mean == 2.0
    assert s.total_sq == 14
    assert s.sample_variance == 1.0


def test_indicator_stats_match_bernoulli_formulas():
    s = TrialStats.from_indicator(10, 3)
    assert s.mean == 0.3
    assert s.sample_variance == pytest.approx(0.3 * 0.7 * 10 / 9)
    assert s.total == s.total_sq == Fraction(3)


def test_single_trial_has_no_interval():
    assert TrialStats.from_values([0.4]).ci_half() is None
    assert TrialStats.from_indicator(1, 1).ci_half() is None


def test_empty_stats_refuse_to_summarize():
    with pytest.raises(ValueError):
        TrialStats().mean
    with pytest.raises(ValueError):
        TrialStats.from_values([1.0]).sample_variance


def test_interval_uses_the_normal_quantile():
    s = TrialStats.from_values([0.0, 1.0, 0.0, 1.0])
    assert s.ci_half() == harness._Z99 * math.sqrt(s.sample_variance / s.count)
    assert TrialStats.from_values([5.0, 5.0, 5.0]).ci_half() == 0.0


def test_normal_quantile_is_scipys_bit_for_bit():
    # the upper quantile: -ndtri(0.005) is one unit in the last place off
    from scipy.special import ndtri
    from scipy.stats import norm

    def bits(x):
        return np.float64(x).view(np.uint64)

    assert bits(harness._Z99) == bits(ndtri(0.995)) == bits(norm.ppf(0.995))


def fraction_stats(values) -> TrialStats:
    """The accumulator TrialStats used before: every value as a Fraction."""
    total = total_sq = Fraction(0)
    for v in values:
        f = Fraction(float(v))
        total += f
        total_sq += f * f
    return TrialStats(count=len(values), total=total, total_sq=total_sq)


def split_stats(values) -> TrialStats:
    """The accumulator from_values ran before: ints for the integral values,
    a Fraction per value for the others."""
    total = total_sq = 0
    for v in map(float, values):
        f = int(v) if v.is_integer() else Fraction(v)
        total += f
        total_sq += f * f
    return TrialStats(count=len(values), total=total, total_sq=total_sq)


def test_dyadic_sums_equal_the_fraction_loop_at_the_float_extremes():
    huge = [1.7976931348623157e308, -1e300, 2.0 ** 52 + 0.5, -(2.0 ** 51 + 0.25)]
    tiny = [5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-300, 3.0e-17]
    plain = [-0.1, 2.5, -7.0, 0.0, 1.0 / 3.0]
    for values in (huge + tiny + plain, tiny, plain[:1], huge[2:] + tiny[:1],
                   [0.5, 0.5], [0.25, -0.25]):
        got, want = TrialStats.from_values(values), split_stats(values)
        assert got == want
        assert type(got.total) is type(want.total)
        assert type(got.total_sq) is type(want.total_sq)
    with pytest.raises(ValueError):
        TrialStats.from_values([0.5, math.nan])
    with pytest.raises(OverflowError):
        TrialStats.from_values([0.5, math.inf])


_NEAR_2_53 = st.sampled_from([2.0 ** 53, 2.0 ** 53 - 1, 2.0 ** 53 + 2,
                              -(2.0 ** 53), 2.0 ** 54 + 4, -0.0, 0.0, 9e14])
_INTEGRAL = st.one_of(st.integers(-2 ** 60, 2 ** 60).map(float), _NEAR_2_53)
_ANY_FLOAT = st.one_of(_INTEGRAL, st.floats(allow_nan=False, allow_infinity=False,
                                            min_value=-1e100, max_value=1e100))


@given(st.one_of(st.lists(_INTEGRAL, max_size=20), st.lists(_ANY_FLOAT, max_size=20)))
@settings(max_examples=200, deadline=None)
def test_int_and_fraction_sums_equal_the_fraction_accumulator(values):
    want = fraction_stats(values)
    for got in (TrialStats.from_values(values),
                TrialStats.from_values(np.array(values, dtype=float)),
                TrialStats.from_values(iter(values))):
        assert got == want
        if values:
            assert got.mean == want.mean
            assert got.ci_half() == want.ci_half()
    if all(float(v).is_integer() for v in values):
        assert isinstance(TrialStats.from_values(values).total, int)


# ---------------------------------------------------------------------------
# spec validation


def orient_spec(**kw):
    base = dict(model="oriented", params={"p": 0.5}, sizes=[100, 200],
                trials=4, outputs=["range"])
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_canonicalizes_sizes():
    assert orient_spec(sizes=[10.0, 20]).sizes == (10, 20)


def test_spec_rejects_malformed_descriptions():
    with pytest.raises(ConfigError):
        orient_spec(model="diffusion")
    with pytest.raises(ConfigError):
        orient_spec(sizes=[])
    with pytest.raises(ConfigError):
        orient_spec(sizes=[100, 100])
    with pytest.raises(ConfigError):
        orient_spec(sizes=[0, 10])
    with pytest.raises(ConfigError):
        orient_spec(trials=0)
    with pytest.raises(ConfigError):
        orient_spec(outputs=[])
    with pytest.raises(ConfigError):
        orient_spec(outputs=["zrange"])  # belongs to the scenery model
    with pytest.raises(ConfigError):
        orient_spec(params={"p": 1.5})
    with pytest.raises(ConfigError):
        orient_spec(params={"p": 0.5, "q": 1})
    with pytest.raises(ConfigError):
        orient_spec(params={})
    with pytest.raises(ConfigError):
        orient_spec(threads=0)
    with pytest.raises(ConfigError):
        orient_spec(horizon=0)


STABLE = {"index": 2, "a1": 0.5}


@pytest.mark.parametrize("call", [
    pytest.param(lambda: orient_spec(params={"p": "abc"}), id="p-abc"),
    pytest.param(lambda: orient_spec(params={"p": None}), id="p-null"),
    pytest.param(lambda: ExperimentSpec(
        model="limit", params={"walk": STABLE, "scenery": STABLE, "h": "x"},
        sizes=[64], trials=2, outputs=["sup"]), id="h-x"),
    pytest.param(lambda: ExperimentSpec(
        model="rwrs", params={"walk": "simple", "scenery": "ternary:x"},
        sizes=[8], trials=2, outputs=["zrange"]), id="scenery-ternary-x"),
    pytest.param(lambda: estimate_escape("oriented", {"p": 1.5}, 10, 10, 0),
                 id="escape-p-1.5"),
    pytest.param(lambda: expected_exponent("rwrs", "zrange", {"walk": "simple"}),
                 id="exponent-no-scenery"),
])
def test_malformed_model_parameters_are_config_errors(call):
    with pytest.raises(ConfigError):
        call()


def test_spec_rejects_unsupported_scenery_model():
    with pytest.raises(ConfigError):
        ExperimentSpec(model="rwrs",
                       params={"walk": "simple", "scenery": "pareto:1.0"},
                       sizes=[10], trials=2, outputs=["zrange"])


def test_budget_cap_raises_the_resource_error():
    with pytest.raises(ResourceCapError):
        orient_spec(sizes=[MAX_TOTAL_STEPS], trials=3)


def test_per_trial_cap_rejects_before_anything_runs(monkeypatch):
    def boom(*args):
        raise AssertionError("the batch should not start")
    monkeypatch.setattr(harness.oriented, "no_return_count", boom)
    monkeypatch.setattr(harness.rwrs, "no_return_z_count", boom)
    stable = {"index": 2, "a1": 0.5}
    models = (("oriented", {"p": 0.5}, "range"),
              ("rwrs", {"walk": "simple", "scenery": "rademacher"}, "zrange"),
              ("limit", {"walk": stable, "scenery": stable, "h": 0.25}, "sup"))
    for model, params, output in models:
        spec = dict(model=model, params=params, trials=1, outputs=[output])
        ExperimentSpec(sizes=[MAX_TRIAL_STEPS], **spec)  # built, never run
        for sizes in ([10 ** 9], [10, MAX_TRIAL_STEPS + 1]):
            assert sum(sizes) <= MAX_TOTAL_STEPS  # one trial: only the trial cap binds
            with pytest.raises(ResourceCapError):
                ExperimentSpec(sizes=sizes, **spec)
        if model != "limit":
            with pytest.raises(ResourceCapError):
                estimate_escape(model, params, MAX_TRIAL_STEPS + 1, 1, 0)
    # trials that each fit can still exceed the total budget together
    with pytest.raises(ResourceCapError):
        orient_spec(sizes=[MAX_TRIAL_STEPS],
                    trials=MAX_TOTAL_STEPS // MAX_TRIAL_STEPS + 1)


def test_limit_spec_validation():
    good = dict(model="limit",
                params={"walk": {"index": 2, "a1": 0.5},
                        "scenery": {"index": 2, "a1": 0.5}, "h": 0.125},
                sizes=[64], trials=2, outputs=["spread"])
    ExperimentSpec(**good)
    for h in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            ExperimentSpec(**{**good, "params": {**good["params"], "h": h}})
    with pytest.raises(ConfigError):
        ExperimentSpec(**{
            **good,
            "params": {**good["params"], "walk": {"index": 1, "a1": 1}}})


def test_law_descriptions_parse_to_the_factory_laws():
    assert parse_lattice_law("rademacher") == rademacher()
    assert parse_lattice_law("ternary:0.5") == ternary(0.5)
    assert parse_lattice_law("simple") == simple_symmetric()
    assert parse_lattice_law({"kind": "ternary", "zero_mass": 0.5}) == \
        ternary(0.5)
    assert parse_lattice_law("pareto:1.5:0.25") == pareto_tail(1.5, 0.25)


def test_bad_law_descriptions_are_config_errors():
    with pytest.raises(ConfigError):
        parse_lattice_law("poisson")
    with pytest.raises(ConfigError):
        parse_lattice_law("ternary:1.5")
    with pytest.raises(ConfigError):
        parse_lattice_law("rademacher:0.5")


# ---------------------------------------------------------------------------
# running experiments


def test_same_spec_gives_identical_results():
    spec = orient_spec(sizes=[50, 120], trials=16, outputs=["range", "escape"],
                       master_seed=5)
    assert run_experiment(spec) == run_experiment(spec)


def test_worker_count_does_not_touch_the_numbers():
    serial = orient_spec(sizes=[80], trials=24, outputs=["range", "first_range"],
                         master_seed=9)
    pooled = orient_spec(sizes=[80], trials=24, outputs=["range", "first_range"],
                         master_seed=9, threads=4)
    assert run_experiment(serial) == run_experiment(pooled)
    # 2^20 trial-steps hold 64 walks of 2^14 steps: 150 trials make three
    # blocks, the last one partial, which the workers share
    for model, params in (("oriented", {"p": 0.5}),
                          ("rwrs", {"walk": "simple", "scenery": "rademacher"})):
        runs = [run_experiment(ExperimentSpec(
                    model=model, params=params, sizes=[1 << 14], trials=150,
                    outputs=_MODEL_OUTPUTS[model], master_seed=9, threads=t))
                for t in (1, 3)]
        assert runs[0] == runs[1]


def test_result_structure_follows_the_spec():
    spec = orient_spec(sizes=[30, 60], trials=7, outputs=["first_spread"])
    res = run_experiment(spec)
    assert set(res) == {30, 60}
    assert set(res[30]) == {"first_spread"}
    assert res[60]["first_spread"].count == 7


def test_single_trial_runs_but_reports_no_interval():
    res = run_experiment(orient_spec(sizes=[40], trials=1))
    assert res[40]["range"].count == 1
    assert res[40]["range"].ci_half() is None


def test_escape_within_one_step_is_certain():
    res = run_experiment(orient_spec(sizes=[50], trials=32,
                                     outputs=["escape"], horizon=1))
    assert res[50]["escape"].mean == 1.0


def test_mean_site_count_obeys_the_truncation_bound():
    # E[sites]/n = (1 + sum of fresh-site probabilities)/n, and the
    # summands fall below the exact 12-step no-return value beyond step
    # 12, giving the rigorous bound q_12 + 13/n; means also decrease in
    # n because they average a decreasing sequence
    q12 = exact_no_return_probability(0.5, 12)
    res = run_experiment(orient_spec(sizes=[1000, 10_000], trials=200,
                                     master_seed=77))
    small = res[1000]["range"]
    big = res[10_000]["range"]
    for n, stats in ((1000, small), (10_000, big)):
        mean = stats.mean / n
        ci = stats.ci_half() / n
        assert mean < q12 + (13.0 / n) + 4.0 * ci
        assert mean > 0.5  # crude floor: over half the steps break fresh ground
    assert small.mean / 1000 - big.mean / 10_000 > \
        -(small.ci_half() / 1000 + big.ci_half() / 10_000)


def test_scenery_model_outputs_run_end_to_end():
    spec = ExperimentSpec(model="rwrs",
                          params={"walk": "simple", "scenery": "rademacher"},
                          sizes=[64], trials=12,
                          outputs=["zrange", "vn", "escape"], master_seed=3)
    res = run_experiment(spec)
    assert res[64]["vn"].count == 12
    assert res[64]["vn"].mean >= 64  # every path has at least n self-pairs


def test_limit_model_outputs_run_end_to_end():
    spec = ExperimentSpec(model="limit",
                          params={"walk": {"index": 2, "a1": 0.5},
                                  "scenery": {"index": 2, "a1": 0.5},
                                  "h": 0.25},
                          sizes=[32, 64], trials=10,
                          outputs=["sup", "inf", "spread", "y_spread"],
                          master_seed=1)
    res = run_experiment(spec)
    for m in (32, 64):
        assert res[m]["sup"].mean >= 0.0
        assert res[m]["inf"].mean <= 0.0
        assert res[m]["spread"].mean >= res[m]["sup"].mean
        assert res[m]["y_spread"].count == 10


def reference_trial(model, params, n, seed, horizon):
    """One trial's outputs read off the whole path, as the harness computed
    them before its trials streamed."""
    t = min(horizon or n, n)
    if model == "oriented":
        path = simulate_annealed(params["p"], n, seed)
        hit = ((path.x[1:t + 1] == 0) & (path.y[1:t + 1] == 0)).any()
        return {"range": range_sites(path),
                "first_range": len(set(path.x.tolist())),
                "first_spread": int(path.x.max() - path.x.min()),
                "escape": 0 if hit else 1}
    m = RwrsModel(parse_lattice_law(params["walk"]),
                  parse_lattice_law(params["scenery"]))
    zp = simulate_rwrs(m, n, seed)
    # one term at a time in the local-time order: sum() compensates from
    # Python 3.12 on
    vbeta = 0.0
    for c in zp.local_time.counts.values():
        vbeta += c ** m.beta
    levels = Counter(zp.values[1:].tolist()).values()
    return {"zrange": range_z(zp), "zspread": z_spread(zp),
            "vn": self_intersections(zp.local_time), "vbeta": vbeta,
            "zv": sum(c * c for c in levels),
            "escape": 0 if (zp.values[1:t + 1] == 0).any() else 1}


@pytest.mark.parametrize("model, params, horizon", [
    ("oriented", {"p": 0.5}, None),
    ("oriented", {"p": 0.3}, 7),             # horizon below n
    ("oriented", {"p": 0.7}, 10 ** 6),       # horizon above n
    ("rwrs", {"walk": "simple", "scenery": "rademacher"}, None),
    ("rwrs", {"walk": "pareto:1.5", "scenery": "pareto:0.8"}, 9),
    ("rwrs", {"walk": "lazy:0.3", "scenery": "ternary:0.3"}, 10 ** 6),
])
def test_streamed_trials_match_the_path_holding_reference(model, params, horizon):
    outputs = _MODEL_OUTPUTS[model]
    spec = ExperimentSpec(model=model, params=params, sizes=[40, 301],
                          trials=12, outputs=outputs, master_seed=21,
                          horizon=horizon)
    res = run_experiment(spec)
    for n in spec.sizes:
        size_seed = mix64(21, _SIZE_TAG, n)
        trials = [reference_trial(model, params, n, mix64(size_seed, i), horizon)
                  for i in range(spec.trials)]
        for stat in outputs:
            assert res[n][stat] == TrialStats.from_values(t[stat] for t in trials)


# ---------------------------------------------------------------------------
# escape estimation


def test_escape_horizon_one_is_exactly_one():
    s = estimate_escape("oriented", {"p": 0.5}, 1, 500, 11)
    assert s.mean == 1.0
    r = estimate_escape("rwrs", {"walk": "simple", "scenery": "rademacher"},
                        1, 500, 11)
    assert r.mean == 1.0


def test_escape_horizon_two_matches_the_exact_value():
    trials = 20_000
    s = estimate_escape("oriented", {"p": 0.5}, 2, trials, 13)
    sigma = math.sqrt(0.875 * 0.125 / trials)
    assert abs(s.mean - 0.875) < 4.0 * sigma


def test_escape_estimates_fall_with_the_horizon():
    prev = None
    for t in (2, 32, 256):
        s = estimate_escape("oriented", {"p": 0.5}, t, 20_000, 17)
        if prev is not None:
            assert s.mean <= prev.mean + 2.0 * (prev.ci_half() + s.ci_half())
        prev = s


def test_escape_validation_and_cap():
    with pytest.raises(ConfigError):
        estimate_escape("oriented", {"p": 0.5}, 0, 10, 0)
    with pytest.raises(ConfigError):
        estimate_escape("oriented", {"p": 0.5}, 10, 0, 0)
    with pytest.raises(ConfigError):
        estimate_escape("limit", {}, 10, 10, 0)
    with pytest.raises(ConfigError):
        estimate_escape("rwrs", {"walk": "simple", "scenery": "pareto:1.0"},
                        4, 10, 0)
    with pytest.raises(ResourceCapError):
        estimate_escape("oriented", {"p": 0.5}, 10 ** 8, 10 ** 3, 0)


# ---------------------------------------------------------------------------
# fits and intervals


def test_fit_recovers_an_exact_power_law():
    sizes = [2 ** k for k in range(10, 16)]
    fit = scaling_fit(sizes, [n ** 0.75 for n in sizes])
    assert fit.slope == pytest.approx(0.75, abs=1e-12)
    assert fit.residual_norm < 1e-10
    lo, hi = fit.slope_ci()
    assert lo <= 0.75 <= hi


def test_fit_recovers_a_linear_law_with_prefactor():
    sizes = [10, 100, 1000, 10_000]
    fit = scaling_fit(sizes, [3.0 * n for n in sizes])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)


def test_fit_input_validation():
    with pytest.raises(ValueError):
        scaling_fit([10, 20], [1.0, 2.0])
    with pytest.raises(ValueError):
        scaling_fit([10, 20, 30], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        scaling_fit([0, 20, 30], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        scaling_fit([10, 20, 30], [1.0, 2.0])


def test_interval_coverage_on_fair_coin_flips():
    # nominal 99% normal-approximation intervals on 400 flips; coverage
    # over 1000 repetitions must land in [0.97, 1.0]
    gen = np.random.default_rng(2026)
    covered = 0
    for _ in range(1000):
        s = TrialStats.from_indicator(400, int(gen.binomial(400, 0.5)))
        half = s.ci_half()
        if half is not None and abs(s.mean - 0.5) <= half:
            covered += 1
    assert 0.97 <= covered / 1000 <= 1.0


@given(st.sampled_from(["simple", "lazy:0.3", "ternary:0.5"])
       | st.floats(0.3, 1.9).map(lambda a: f"pareto:{a}"),
       st.sampled_from(["rademacher", "ternary:0.3"])
       | st.floats(0.3, 1.9).filter(lambda b: b != 1.0).map(lambda b: f"pareto:{b}"))
@settings(max_examples=60, deadline=None)
def test_no_predicted_range_exponent_exceeds_one(walk, scenery):
    # a range holds at most n + 1 sites or levels
    for stat in ("range", "first_range"):
        assert expected_exponent("oriented", stat, {"p": 0.5}) <= 1.0
    params = {"walk": walk, "scenery": scenery}
    assert expected_exponent("rwrs", "zrange", params) <= 1.0


def test_expected_exponents_for_the_lattice_models():
    assert expected_exponent("oriented", "range", {"p": 0.5}) == 1.0
    assert expected_exponent("oriented", "first_range", {"p": 0.5}) == 0.75
    assert expected_exponent("oriented", "first_spread", {"p": 0.5}) == 0.75
    assert expected_exponent("oriented", "escape", {"p": 0.5}) == 0.0
    assert expected_exponent("oriented", "mystery", {"p": 0.5}) is None

    srad = {"walk": "simple", "scenery": "rademacher"}
    assert expected_exponent("rwrs", "zrange", srad) == pytest.approx(0.75)
    assert expected_exponent("rwrs", "vn", srad) == pytest.approx(1.5)
    assert expected_exponent("rwrs", "escape", srad) == 0.0
    heavy = {"walk": "pareto:0.8", "scenery": "rademacher"}
    assert expected_exponent("rwrs", "zrange", heavy) == pytest.approx(0.5)
    assert expected_exponent("limit", "spread", {}) is None
