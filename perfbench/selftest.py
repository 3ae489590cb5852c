"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its format, that every run prints
exactly the metrics BENCHMARK.json names, each with its unit, that a
traced run covers all eight layers, and that a planted wrong output is
counted as a failed task.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import re
import sys

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec: dict, notes: dict, problems: list) -> None:
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(spec)}")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    for name in names:
        if not NAME.fullmatch(name):
            problems.append(f"bad name {name!r}")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"bad workload entry {w['name']}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"bad unit or direction on {m['name']}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"bad end-to-end entry {m['name']}")
    if {"name": "setup_s", "unit": "s", "better": "lower"}.items() - \
            next((m for m in spec["end_to_end"] if m["name"] == "setup_s"), {}).items():
        problems.append("setup_s is missing or malformed")
    if notes.get("claim", 0) is not None:
        problems.append("metrics.json must make no claim")
    known = set(names)
    for row in notes["layer_map"]:
        for name in row["layer_metrics"] + [row["moves"]] + row["on"]:
            if name is not None and name not in known:
                problems.append(f"metrics.json names unknown {name!r}")


def check_result(result: dict, wanted: dict, what: str, problems: list) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: result keys {sorted(result)}")
    if set(result["metrics"]) != set(wanted):
        missing = set(wanted) - set(result["metrics"])
        extra = set(result["metrics"]) - set(wanted)
        problems.append(f"{what}: missing {sorted(missing)}, extra {sorted(extra)}")
    for name, m in result["metrics"].items():
        if name in wanted and m.get("unit") != wanted[name]["unit"]:
            problems.append(f"{what}: {name} has unit {m.get('unit')!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{what}: {name} is not a finite number")
        if "bound" in wanted.get(name, {}) and not m["value"] > 0:
            problems.append(f"{what}: end-to-end {name} reads {m['value']}")


# each corrupts the raw result of one task so that a check must catch it
def _bad_spread(wl, inp, raw):
    stats, zp, spread, paths, funcs = raw
    return stats, zp, spread + 1, paths, funcs


def _bad_csv(wl, inp, raw):
    with open(inp["runs"][0][2] / "results.csv", "a") as fh:
        fh.write("64,range,1.0,0.1,8\n")
    return raw


def _bad_probability(wl, inp, raw):
    return (*raw[:3], 1.5)


# layers each workload calls into directly, so spans must show them
LAYERS_USED = {"long_walks": ["rng", "laws", "oriented", "rwrs", "limit"],
               "short_trials": ["rng", "oriented", "rwrs", "harness", "cli"],
               "exact_oracles": ["enumeration", "oriented", "rwrs", "cli"]}

PLANTS = {"long_walks": _bad_spread, "short_trials": _bad_csv,
          "exact_oracles": _bad_probability}


def main() -> int:
    problems: list = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    notes = json.loads((run.ROOT / "perfbench" / "metrics.json").read_text())
    check_spec(spec, notes, problems)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    run.import_rangelab()
    import tracing
    import workloads

    for w in spec["workloads"]:
        name = w["name"]
        plain, plain_report = run.measure(name, 3, 0.3, False, "tiny", probes=1)
        check_result(plain, e2e, f"{name} trace 0", problems)
        traced, report = run.measure(name, 3, 0.3, True, "tiny")
        check_result(traced, layer, f"{name} trace 1", problems)
        for res, what, least in ((plain, "trace 0", run.MIN_TASKS),
                                 (traced, "trace 1", 2 * run.TRACE_MIN_TASKS)):
            if not res["correct"] or res["failed"] or res["attempted"] < least:
                problems.append(f"{name} {what}: {res['failed']} of {res['attempted']} "
                                f"failed: {plain_report['problems'] + report['problems']}")
        idle = [lay for lay in LAYERS_USED[name]
                if not traced["metrics"][f"{lay}.calls"]["value"] > 0]
        if idle:
            problems.append(f"{name}: no spans in layers {idle}")
        if report["absent"]:
            problems.append(f"{name}: absent names {report['absent']}")
        if plain_report["output_digest"] != report["output_digest"]:
            problems.append(f"{name}: the same tasks gave different digests")
        if not (run.ROOT / report["spans_file"]).is_file():
            problems.append(f"{name}: no spans written")
        for key in ("rangelab", "numpy", "scipy", "python", "nproc",
                    "cgroup_cpu_max", "caches", "workload_seed", "git_commit"):
            if key not in plain_report["provenance"]:
                problems.append(f"{name}: provenance lacks {key}")

        cls = workloads.WORKLOADS[name]
        honest = cls.run

        def planted(self, inp, _honest=honest, _plant=PLANTS[name]):
            raw = _honest(self, inp)
            return _plant(self, inp, raw) if inp["index"] == 1 else raw

        cls.run = planted
        try:
            bad, _ = run.measure(name, 3, 0.3, False, "tiny", probes=0)
            bad_traced, _ = run.measure(name, 3, 0.3, True, "tiny")
        finally:
            cls.run = honest
        if bad["correct"] or bad["failed"] != 1:
            problems.append(f"{name}: planted fault gave failed={bad['failed']}")
        if not bad_traced["metrics"]["failed_ratio"]["value"] > 0:
            problems.append(f"{name}: planted fault not in failed_ratio")
        print(f"{name}: checked", file=sys.stderr)

    for lay in tracing.LAYERS:
        if not {f"{lay}.self_ms", f"{lay}.calls"} <= set(layer):
            problems.append(f"layer {lay} lacks self_ms or calls")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
