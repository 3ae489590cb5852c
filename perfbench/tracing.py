"""Spans around rangelab's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function and method of each
layer module with a wrapper that records a span: name, start, end,
parent span and task id.  The replacement is made under every name the
function is reachable by, including where a sibling module imported it,
so calls between modules are traced as well.  Nothing under ``src/``
changes, and ``uninstall`` restores the originals.

Spans live in flat in-memory arrays until ``write`` saves them.  A
layer's self time is its spans' time minus the time of their direct
child spans.  A few wrapped names also count the work they did (items
hashed, rows looked up, states built), so that ratios are taken where the
work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("rng", "laws", "enumeration", "oriented", "rwrs", "limit",
          "harness", "cli")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _rows(args, kwargs, result):
    rows = np.asarray(_arg(args, kwargs, 1, "rows"))
    distinct = int(rows.max() - rows.min() + 1) if rows.size else 0
    return {"rows_requested": rows.size, "rows_distinct": distinct}


def _size(key):
    return lambda args, kwargs, result: {key: int(np.size(result))}


def _trial_steps(args, kwargs, result):
    return {"trial_steps": _arg(args, kwargs, 1, "horizon")
            * _arg(args, kwargs, 2, "trials")}


# counters taken at a wrapped name: (args, kwargs, result) -> {counter: amount}
COUNTERS = {
    "rng.site_hash": _size("items"),
    "laws.lattice_at_sites": _size("items"),
    "laws.sample_lattice": _size("draws"),
    "laws.sample_stable": _size("draws"),
    "oriented.Environment.orientations": _rows,
    "oriented.annealed_range_stats": lambda a, k, r: {"sites": r.sites,
                                                      "steps": r.steps},
    "oriented.range_sites": lambda a, k, r: {
        "steps": _arg(a, k, 0, "path").steps},
    "oriented.no_return_count": _trial_steps,
    "rwrs.no_return_z_count": _trial_steps,
    "enumeration.profile_states": lambda a, k, r: {"states": len(r)},
    "harness.run_experiment": lambda a, k, r: {
        "trials": _arg(a, k, 0, "spec").trials * len(_arg(a, k, 0, "spec").sizes)},
    "harness.TrialStats.from_values": lambda a, k, r: {"values": r.count},
}

# wrapped names the per-layer metrics read besides the layer totals
NEEDED = ("rng.RngStream.generator", "enumeration.value_distribution",
          "oriented.exact_no_return_probability", "rwrs.simulate_rwrs",
          "limit.sample_scenery_integral", *COUNTERS)


class Tracer:
    """In-memory span recorder for the thread that created it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.task = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict = defaultdict(int)
        self.counter_errors: set = set()
        self.stack: list[int] = []
        self.task_id = -1
        self.active = False
        self.thread = threading.get_ident()
        self.missing_layers: list[str] = []
        self._undo: list = []

    # -- installation -------------------------------------------------------

    def install(self, package: str = "rangelab") -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{package}.{layer}")
            except ModuleNotFoundError:
                self.missing_layers.append(layer)
        everywhere = [importlib.import_module(package), *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{attr}")
                    for other in everywhere:
                        for key, value in list(vars(other).items()):
                            if value is obj:
                                self._patch(other, key, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{attr}")

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name))

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _wrap(self, fn, name: str):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        sid = self._ids[name]
        counter = COUNTERS.get(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.active or threading.get_ident() != tr.thread:
                return fn(*args, **kwargs)
            idx = len(tr.start)
            tr.name_id.append(sid)
            tr.task.append(tr.task_id)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.end.append(0.0)
            tr.stack.append(idx)
            tr.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = perf_counter()
                tr.stack.pop()
            if counter is not None:
                try:
                    for key, amount in counter(args, kwargs, result).items():
                        tr.counts[f"{name}:{key}"] += amount
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # a later signature change shows up as an absent count
                    tr.counter_errors.add(name)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def absent(self) -> list[str]:
        """Names the metrics read that this version of the package lacks."""
        have = set(self.names)
        return sorted([f"{layer} (module)" for layer in self.missing_layers]
                      + [n for n in NEEDED if n not in have]
                      + [f"{n} (counter)" for n in self.counter_errors])

    def _arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def totals(self) -> dict:
        """name -> (calls, inclusive seconds, self seconds), over all spans."""
        ids, parent, start, end = self._arrays()
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        excl = np.bincount(ids, weights=own, minlength=k)
        return {name: (int(calls[i]), float(incl[i]), float(excl[i]))
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        ids, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=ids,
                            task=np.frombuffer(self.task, dtype=np.int32),
                            parent=parent, start=start, end=end)

    def layer_metrics(self, tasks: int) -> dict:
        """Per-layer metrics, per task, as {name: (value, unit)}."""
        tot = self.totals()
        cnt = self.counts

        def calls(name):
            return tot.get(name, (0, 0.0, 0.0))[0]

        def incl(name):
            return tot.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return tot.get(name, (0, 0.0, 0.0))[2]

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        m = {}
        for layer in LAYERS:
            names = [n for n in tot if n.split(".", 1)[0] == layer]
            m[f"{layer}.self_ms"] = (ratio(sum(own(n) for n in names), tasks, 1e3), "ms")
            m[f"{layer}.calls"] = (ratio(sum(calls(n) for n in names), tasks), "count")
        gen = "rng.RngStream.generator"
        rows_req = cnt["oriented.Environment.orientations:rows_requested"]
        rows_dis = cnt["oriented.Environment.orientations:rows_distinct"]
        m.update({
            "rng.site_hash.ns_per_item": (ratio(
                incl("rng.site_hash"), cnt["rng.site_hash:items"], 1e9), "ns"),
            "rng.generator.builds": (ratio(calls(gen), tasks), "count"),
            "rng.generator.us_per_build": (ratio(incl(gen), calls(gen), 1e6), "us"),
            "laws.lattice_at_sites.items": (ratio(
                cnt["laws.lattice_at_sites:items"], tasks), "count"),
            "laws.sample_lattice.ns_per_draw": (ratio(
                incl("laws.sample_lattice"), cnt["laws.sample_lattice:draws"], 1e9), "ns"),
            "laws.sample_stable.ns_per_draw": (ratio(
                incl("laws.sample_stable"), cnt["laws.sample_stable:draws"], 1e9), "ns"),
            "oriented.orientations.rows_requested": (ratio(rows_req, tasks), "count"),
            "oriented.orientations.rows_distinct": (ratio(rows_dis, tasks), "count"),
            "oriented.orientations.useful_ratio": (ratio(rows_dis, rows_req), "ratio"),
            "oriented.annealed_range_stats.self_ms": (ratio(
                own("oriented.annealed_range_stats"), tasks, 1e3), "ms"),
            "oriented.distinct_sites_per_step": (ratio(
                cnt["oriented.annealed_range_stats:sites"],
                cnt["oriented.annealed_range_stats:steps"]), "ratio"),
            "oriented.range_sites.ns_per_step": (ratio(
                incl("oriented.range_sites"), cnt["oriented.range_sites:steps"], 1e9), "ns"),
            "oriented.batch.ns_per_trial_step": (ratio(
                incl("oriented.no_return_count"),
                cnt["oriented.no_return_count:trial_steps"], 1e9), "ns"),
            "rwrs.simulate_rwrs.self_ms": (ratio(
                own("rwrs.simulate_rwrs"), tasks, 1e3), "ms"),
            "rwrs.no_return_z_count.ns_per_trial_step": (ratio(
                incl("rwrs.no_return_z_count"),
                cnt["rwrs.no_return_z_count:trial_steps"], 1e9), "ns"),
            "limit.sample_scenery_integral.self_ms": (ratio(
                own("limit.sample_scenery_integral"), tasks, 1e3), "ms"),
            "enumeration.profile_states.states": (ratio(
                cnt["enumeration.profile_states:states"], tasks), "count"),
            "enumeration.value_distribution.calls": (ratio(
                calls("enumeration.value_distribution"), tasks), "count"),
            "oriented.exact_no_return_probability.self_ms": (ratio(
                own("oriented.exact_no_return_probability"), tasks, 1e3), "ms"),
            "harness.us_per_trial": (ratio(
                incl("harness.run_experiment"), cnt["harness.run_experiment:trials"],
                1e6), "us"),
            "harness.TrialStats.us_per_value": (ratio(
                incl("harness.TrialStats.from_values"),
                cnt["harness.TrialStats.from_values:values"], 1e6), "us"),
        })
        return m
