"""Monte Carlo experiment harness: validated specs, exact statistics,
deterministic parallel trials, batch escape estimates and scaling fits.

Determinism contract: trial i of size n draws from the stream
(mix of master seed and n, i), so results are a pure function of the
experiment spec.  Walk trials run through their model's trial kernel in
blocks of consecutive trials, one row per trial and at most 2^20
trial-steps at a time (a longer walk is a row of its own, streamed in
column chunks): each row draws from its own trial's stream and reads its
own hashed field, and only the work after the draws is batched.  Blocks
may be executed by any number of workers in any order; per-trial outputs
land in trial-indexed slots, and TrialStats sums each size's slots
exactly (integral values as Python ints, the others as Fractions), so
results do not depend on the thread count, bit for bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import limit, oriented, rwrs
from .laws import _BLOCK_STEPS, ResourceCapError, StableLaw
from .rng import RngStream, _mix64_vec, mix64

MAX_TOTAL_STEPS = 20_000_000_000
# Largest walk horizon, limit mesh or escape horizon of one trial.  Peak
# memory (tracemalloc, sizes up to 2^23) is at most 30 MB plus 58 B per
# step, for an rwrs escape row with pareto laws, so no trial passes 2 GB.
MAX_TRIAL_STEPS = 30_000_000

_SIZE_TAG = 401


class ConfigError(ValueError):
    """The experiment description is malformed; exit code 2 territory."""


# ---------------------------------------------------------------------------
# exact statistics

# the standard normal quantile at 0.995, scipy.special.ndtri(0.995) bit for bit
_Z99 = 2.5758293035489004


@dataclass(frozen=True)
class TrialStats:
    """Count, sum and sum of squares, accumulated exactly.

    Integral values are summed as Python ints, the others as Fractions
    (each float is a dyadic rational, summed exactly over a common power
    of two), so the sums do not depend on the order of the values; mean
    and CI are materialized as floats only on read.
    """

    count: int = 0
    total: int | Fraction = 0
    total_sq: int | Fraction = 0

    @classmethod
    def from_values(cls, values) -> "TrialStats":
        v = np.asarray(values if isinstance(values, np.ndarray)
                       else [float(x) for x in values], dtype=float).ravel()
        # infinities count as integral, and int() refuses them as Fraction() does
        whole = v == np.floor(v)
        ints = [int(x) for x in v[whole].tolist()]
        total = sum(ints)
        total_sq = sum(x * x for x in ints)
        ratios = [x.as_integer_ratio() for x in v[~whole].tolist()]
        if ratios:
            # every denominator is a power of two: put the numerators over
            # the largest, 2^k, and sum them as ints
            k = max(d for _, d in ratios).bit_length() - 1
            nums = [n << (k + 1 - d.bit_length()) for n, d in ratios]
            total += Fraction(sum(nums), 1 << k)
            total_sq += Fraction(sum(n * n for n in nums), 1 << (2 * k))
        return cls(count=v.size, total=total, total_sq=total_sq)

    @classmethod
    def from_indicator(cls, count: int, successes: int) -> "TrialStats":
        # 0/1 outcomes: the sum and the sum of squares coincide
        return cls(count=count, total=successes, total_sq=successes)

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("no trials recorded")
        return float(self.total / self.count)

    @property
    def sample_variance(self) -> float:
        if self.count < 2:
            raise ValueError("variance needs at least two trials")
        num = self.total_sq - Fraction(self.total) * self.total / self.count
        return max(0.0, float(num / (self.count - 1)))

    def ci_half(self) -> float | None:
        """99 % normal-approximation half-width; None when one trial cannot say."""
        if self.count < 2:
            return None
        return _Z99 * (self.sample_variance / self.count) ** 0.5


# ---------------------------------------------------------------------------
# experiment specification

_MODEL_OUTPUTS = {
    "oriented": ("range", "first_range", "first_spread", "escape"),
    "rwrs": ("zrange", "zspread", "vn", "vbeta", "zv", "escape"),
    "limit": ("sup", "inf", "spread", "y_sup", "y_spread"),
}
_MODEL_PARAMS = {"oriented": {"p"}, "rwrs": {"walk", "scenery"},
                 "limit": {"walk", "scenery", "h"}}


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, validated description of one Monte Carlo experiment.

    sizes are walk horizons (or mesh sizes for the limit model), strictly
    increasing; trials applies per size; outputs name the statistics to
    collect; horizon optionally truncates the escape indicator.
    """

    model: str
    params: dict
    sizes: tuple
    trials: int
    outputs: tuple
    master_seed: int = 0
    horizon: int | None = None
    threads: int = 1

    def __post_init__(self):
        _parse_model(self.model, self.params)
        sizes = tuple(int(n) for n in self.sizes)
        if not sizes or any(n < 1 for n in sizes):
            raise ConfigError("sizes must be a nonempty list of positive integers")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ConfigError("sizes must be strictly increasing")
        object.__setattr__(self, "sizes", sizes)
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        outputs = tuple(self.outputs)
        if not outputs:
            raise ConfigError("outputs must name at least one statistic")
        allowed = _MODEL_OUTPUTS[self.model]
        for o in outputs:
            if o not in allowed:
                raise ConfigError(f"output {o!r} not available for model "
                                  f"{self.model!r}; expected subset of {allowed}")
        object.__setattr__(self, "outputs", outputs)
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
        if self.horizon is not None and self.horizon < 1:
            raise ConfigError("horizon must be positive when given")
        budget = self.trials * sum(sizes)
        if budget > MAX_TOTAL_STEPS:
            raise ResourceCapError(
                f"trials * sum(sizes) = {budget} exceeds the cap of "
                f"{MAX_TOTAL_STEPS}")
        if max(sizes) > MAX_TRIAL_STEPS:
            raise ResourceCapError(f"size {max(sizes)} exceeds the per-trial "
                                   f"cap of {MAX_TRIAL_STEPS} steps")


def parse_lattice_law(text):
    """Parse 'kind' or 'kind:arg' law descriptions used in configs."""
    from .laws import lazy_vertical, pareto_tail, rademacher, simple_symmetric, ternary
    if isinstance(text, dict):
        kind = text.get("kind")
        args = [text[k] for k in sorted(text) if k != "kind"]
    else:
        parts = str(text).split(":")
        kind, args = parts[0], [float(a) for a in parts[1:]]
    makers = {"rademacher": rademacher, "ternary": ternary,
              "lazy": lazy_vertical, "lazy_vertical": lazy_vertical,
              "simple": simple_symmetric, "simple_symmetric": simple_symmetric,
              "pareto": pareto_tail, "pareto_tail": pareto_tail}
    if kind not in makers:
        raise ConfigError(f"unknown lattice law {kind!r}")
    try:
        return makers[kind](*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad lattice law {text!r}: {exc}") from exc


def _parse_model(model: str, params):
    """Validate a model's params and return the model they describe: p for
    the oriented walk, an RwrsModel for rwrs, and (walk law, scenery law,
    h) for the limit model.  Every bad value is a ConfigError."""
    if model not in _MODEL_PARAMS:
        raise ConfigError(f"unknown model {model!r}; "
                          f"expected one of {sorted(_MODEL_PARAMS)}")
    if not isinstance(params, dict) or set(params) != _MODEL_PARAMS[model]:
        raise ConfigError(f"{model} parameters must be an object with the keys "
                          f"{sorted(_MODEL_PARAMS[model])}, got {params!r}")
    try:
        if model == "oriented":
            p = float(params["p"])
            if not 0.0 < p < 1.0:
                raise ValueError(f"p must lie in (0, 1), got {p}")
            return p
        if model == "rwrs":
            return rwrs.RwrsModel(parse_lattice_law(params["walk"]),
                                  parse_lattice_law(params["scenery"]))
        # a stable law is an object with the fields index, a1 and optional a2
        walk, scenery = (StableLaw(**{k: float(v) for k, v in params[name].items()})
                         for name in ("walk", "scenery"))
        h = float(params["h"])
        if not 0.0 < h < math.inf:
            raise ValueError(f"cell width h must be positive and finite, got {h}")
        if walk.index <= 1.0:
            raise ValueError("the walk law needs an index above 1")
        return walk, scenery, h
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {model} parameters: {exc}") from exc


def _oriented_trials(p: float, n: int, seeds, outputs, horizon) -> dict:
    sites, x_min, x_max, _, _, first_return = oriented._trial_block(
        p, n, seeds, "range" in outputs, _BLOCK_STEPS)
    return {"range": sites, "first_range": x_max - x_min + 1,
            "first_spread": x_max - x_min,
            "escape": _escapes(first_return, horizon or n)}


def _rwrs_trials(model, n: int, seeds, outputs, horizon) -> dict:
    z_min, z_max, _, distinct_z, vn, vbeta, zv, first_return = \
        rwrs._trial_block(model, n, seeds, _BLOCK_STEPS)
    return {"zrange": distinct_z, "zspread": z_max - z_min, "vn": vn,
            "vbeta": vbeta, "zv": zv,
            "escape": _escapes(first_return, horizon or n)}


def _limit_trials(model, m: int, seeds, outputs, horizon) -> dict:
    # sizes are mesh step counts; a trial draws Delta from its stream 0
    # and Y from its stream 1, each only when an output needs it
    walk_law, scenery_law, h = model
    out = {stat: [] for stat in outputs}
    for seed in seeds.tolist():
        f = {}
        if {"sup", "inf", "spread"} & set(outputs):
            d = limit.path_functionals(limit.sample_scenery_integral(
                walk_law, scenery_law, m, h, RngStream(seed, 0)))
            f.update(sup=d.sup, inf=d.inf, spread=d.spread)
        if {"y_sup", "y_spread"} & set(outputs):
            y = limit.path_functionals(
                limit.sample_stable_path(walk_law, m, RngStream(seed, 1)))
            f.update(y_sup=y.sup, y_spread=y.spread)
        for stat in outputs:
            out[stat].append(f[stat])
    return out


# f(parsed model, size, seeds, outputs, horizon) -> {statistic: values},
# one value per trial seed of the uint64 array seeds
_TRIALS = {"oriented": _oriented_trials, "rwrs": _rwrs_trials,
           "limit": _limit_trials}


def _escapes(first_return, horizon):
    # 1 for a walk that has not come back by the horizon
    return np.where((first_return > 0) & (first_return <= horizon), 0, 1)


# ---------------------------------------------------------------------------
# running experiments


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute the experiment; returns {size: {statistic: TrialStats}}.

    Trial i of size n uses the stream derived from (master_seed, n, i)
    regardless of worker count or completion order, and per-trial values
    land in trial-indexed slots before reduction, so two runs of the
    same spec agree exactly.  Walk trials run as blocks of consecutive
    trials, at most _BLOCK_STEPS trial-steps in all or a single longer
    walk, and limit trials run one at a time.
    """
    model = _parse_model(spec.model, spec.params)
    results: dict = {}
    for n in spec.sizes:
        size_seed = mix64(spec.master_seed, _SIZE_TAG, n)
        rows = 1 if spec.model == "limit" else max(1, _BLOCK_STEPS // n)
        slots = {stat: np.empty(spec.trials) for stat in spec.outputs}

        def block(i0: int) -> None:
            i1 = min(i0 + rows, spec.trials)
            # trial i's seed is mix64(size_seed, i)
            seeds = _mix64_vec(size_seed, np.arange(i0, i1, dtype=np.uint64))
            out = _TRIALS[spec.model](model, n, seeds, spec.outputs, spec.horizon)
            for stat in spec.outputs:
                slots[stat][i0:i1] = out[stat]

        starts = range(0, spec.trials, rows)
        if spec.threads > 1:
            with ThreadPoolExecutor(max_workers=spec.threads) as pool:
                list(pool.map(block, starts))
        else:
            for i0 in starts:
                block(i0)
        results[n] = {stat: TrialStats.from_values(slots[stat])
                      for stat in spec.outputs}
    return results


def estimate_escape(model: str, params: dict, horizon: int, trials: int,
                    master_seed: int) -> TrialStats:
    """Probability of avoiding 0 through the truncation horizon.

    Truncation can only overestimate the infinite-horizon escape
    probability, so estimates at growing horizons decrease toward it.
    """
    if horizon < 1:
        raise ConfigError("horizon must be at least 1")
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    if horizon * trials > MAX_TOTAL_STEPS:
        raise ResourceCapError(f"horizon * trials = {horizon * trials} exceeds "
                               f"the cap of {MAX_TOTAL_STEPS}")
    if horizon > MAX_TRIAL_STEPS:
        raise ResourceCapError(f"horizon {horizon} exceeds the per-trial cap "
                               f"of {MAX_TRIAL_STEPS} steps")
    if model not in ("oriented", "rwrs"):
        raise ConfigError(f"escape estimation is defined for walk models, "
                          f"not {model!r}")
    count = oriented.no_return_count if model == "oriented" else rwrs.no_return_z_count
    return TrialStats.from_indicator(
        trials, count(_parse_model(model, params), horizon, trials, master_seed))


# ---------------------------------------------------------------------------
# scaling fits


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line through (log n, log value) with residual summary."""

    slope: float
    intercept: float
    residual_norm: float
    slope_stderr: float

    def slope_ci(self) -> tuple[float, float]:
        """The slope plus and minus 2.576 standard errors."""
        return (self.slope - 2.576 * self.slope_stderr,
                self.slope + 2.576 * self.slope_stderr)


def scaling_fit(sizes, values) -> ScalingFit:
    """Fit log(value) = slope * log(size) + intercept.

    Exactly log-linear inputs are reproduced up to rounding: the
    residual norm is then numerically zero.
    """
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    if sizes.size != values.size or sizes.size < 3:
        raise ValueError("need at least three (size, value) pairs")
    if (sizes <= 0).any() or (values <= 0).any():
        raise ValueError("sizes and values must be positive")
    x = np.log(sizes)
    y = np.log(values)
    dm = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(dm, y, rcond=None)
    resid = y - dm @ coef
    rss = float(resid @ resid)
    dof = x.size - 2
    sxx = float(((x - x.mean()) ** 2).sum())
    stderr = (rss / dof / sxx) ** 0.5 if dof > 0 else 0.0
    return ScalingFit(slope=float(coef[0]), intercept=float(coef[1]),
                      residual_norm=rss ** 0.5, slope_stderr=stderr)


def expected_exponent(model: str, stat: str, params: dict) -> float | None:
    """Growth exponent predicted for log-log fits, when one is established."""
    if model == "oriented":
        return {"range": 1.0, "first_range": 0.75, "first_spread": 0.75,
                "escape": 0.0}.get(stat)
    if model == "rwrs":
        m = _parse_model(model, params)
        a, b = m.alpha, m.beta
        if stat in ("zrange", "zspread"):
            grow = rwrs.scaling_exponent(a, b) if a > 1.0 else 1.0 / b
            # a range holds at most n + 1 values
            return min(1.0, grow) if stat == "zrange" else grow
        if stat == "vn":
            return 2.0 - 1.0 / a if a >= 1.0 else 1.0
        if stat == "escape":
            return 0.0
    return None
