"""Command-line front end: run experiments from JSON configs, print exact
oracle tables, fit growth exponents.

Config schema (JSON object; unknown keys rejected):

    model    "oriented" | "rwrs" | "limit"          required
    params   model parameters (object)              required
    sizes    strictly increasing positive ints      required
    trials   trials per size                        required
    outputs  statistics to collect                  required
    seed     master seed (int)                      default 0
    horizon  escape truncation (int or null)        default null
    threads  worker threads                         default 1
    out      output directory                       default "results"
    format   "csv" (the only table format)          default "csv"

Exit codes: 0 success, 1 runtime failure, 2 config error, 3 resource cap.
The CSV (header n,statistic,mean,ci_half,trials) is a pure function of
the resolved config minus ``threads`` and ``out``, so reruns diff clean.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import harness, oriented, rwrs
from .harness import ConfigError, ExperimentSpec, ResourceCapError

_DEFAULTS = {"seed": 0, "horizon": None, "threads": 1,
             "out": "results", "format": "csv"}
_REQUIRED = ("model", "params", "sizes", "trials", "outputs")


# ---------------------------------------------------------------------------
# config plumbing


def resolve_config(raw: dict) -> dict:
    """Fill defaults and normalize; idempotent on its own output."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = set(_REQUIRED) | set(_DEFAULTS)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in _REQUIRED if k not in raw]
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    cfg = {**_DEFAULTS, **raw}
    if cfg["format"] != "csv":
        raise ConfigError(f"unsupported format {cfg['format']!r}")
    if not isinstance(cfg["params"], dict):
        raise ConfigError("params must be an object")
    if not isinstance(cfg["sizes"], list):
        raise ConfigError(f"sizes must be a list, got {cfg['sizes']!r}")
    try:
        cfg["sizes"] = [_integer(n) for n in cfg["sizes"]]
        cfg["trials"] = _integer(cfg["trials"])
        cfg["outputs"] = [str(s) for s in cfg["outputs"]]
        cfg["seed"] = _integer(cfg["seed"])
        cfg["threads"] = _integer(cfg["threads"])
        if cfg["horizon"] is not None:
            cfg["horizon"] = _integer(cfg["horizon"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc
    return cfg


def _integer(value) -> int:
    # an int, a whole float or a decimal string; int() alone would read
    # True as 1 and truncate 64.9 to 64
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def spec_from_config(cfg: dict) -> ExperimentSpec:
    return ExperimentSpec(model=cfg["model"], params=cfg["params"],
                          sizes=tuple(cfg["sizes"]), trials=cfg["trials"],
                          outputs=tuple(cfg["outputs"]),
                          master_seed=cfg["seed"], horizon=cfg["horizon"],
                          threads=cfg["threads"])


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    # checked before the command-line overrides index into it
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return raw


def _apply_overrides(raw: dict, args) -> dict:
    for item in args.set or ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value  # bare strings stay strings
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses a non-object")
        node[parts[-1]] = parsed
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "threads", None) is not None:
        raw["threads"] = args.threads
    if getattr(args, "out", None) is not None:
        raw["out"] = args.out
    return raw


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args) -> int:
    cfg = resolve_config(_apply_overrides(_load_config(args.config), args))
    spec = spec_from_config(cfg)
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    results = harness.run_experiment(spec)

    # each mean and interval once, for both files: each costs Fraction arithmetic
    rows = [(n, stat, st.mean, st.ci_half(), st.count) for n in spec.sizes
            for stat in spec.outputs for st in (results[n][stat],)]
    csv_path = out_dir / "results.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "statistic", "mean", "ci_half", "trials"])
        writer.writerows([n, stat, _fmt(mean), _fmt(ci), count]
                         for n, stat, mean, ci, count in rows)

    summary = {"config": cfg, "master_seed": cfg["seed"],
               "files": {"csv": csv_path.name}, "provenance": _provenance(),
               "results": {str(n): {} for n in spec.sizes}}
    for n, stat, mean, ci, count in rows:
        summary["results"][str(n)][stat] = {"mean": mean, "ci_half": ci,
                                            "trials": count}
    (out_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"wrote {csv_path} and {out_dir / 'summary.json'}", file=sys.stderr)
    return 0


def _provenance() -> dict:
    # what made the numbers: the package (its version names the streams),
    # numpy and Python versions and the cores; no git call, so run stays cheap
    from . import __version__
    return {"rangelab": __version__, "numpy": np.__version__,
            "python": platform.python_version(), "cpu_count": os.cpu_count()}


def cmd_scaling(args) -> int:
    cfg = resolve_config(_apply_overrides(_load_config(args.config), args))
    if len(cfg["sizes"]) < 3:
        raise ConfigError("scaling fits need at least three sizes")
    spec = spec_from_config(cfg)
    results = harness.run_experiment(spec)

    report = {"config": cfg, "master_seed": cfg["seed"], "fits": {}}
    for stat in spec.outputs:
        means = [results[n][stat].mean for n in spec.sizes]
        if min(means) <= 0:
            raise ValueError(f"cannot fit {stat}: nonpositive mean encountered")
        fit = harness.scaling_fit(spec.sizes, means)
        lo, hi = fit.slope_ci()
        report["fits"][stat] = {
            "sizes": list(spec.sizes),
            "means": means,
            "slope": fit.slope,
            "slope_ci": [lo, hi],
            "intercept": fit.intercept,
            "residual_norm": fit.residual_norm,
            "expected_exponent": harness.expected_exponent(
                spec.model, stat, dict(spec.params)),
        }
    text = json.dumps(report, sort_keys=True, indent=2)
    print(text)
    if getattr(args, "out", None) is not None:
        out_dir = Path(cfg["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "scaling.json").write_text(text + "\n")
    return 0


def _check_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise ResourceCapError(f"{what} horizon {n} exceeds the exact-"
                               f"enumeration cap of {cap}")


def cmd_exact(args) -> int:
    try:
        return _run_exact(args)
    except ValueError as exc:
        # caps were checked above, so a ValueError here is a bad parameter
        raise ConfigError(str(exc)) from exc


def _run_exact(args) -> int:
    if args.table == "cp-law":
        _check_cap(args.n, oriented.ENUMERATION_CAP, "cp-law")
        law = oriented.exact_annealed_law(args.p, args.n)
        print("x y probability")
        for (x, y) in sorted(law):
            print(f"{x} {y} {law[(x, y)]:.15g}")
    elif args.table == "cp-escape":
        _check_cap(args.L, oriented.ESCAPE_CAP, "cp-escape")
        q = oriented.exact_no_return_probability(args.p, args.L)
        print(f"{q:.15g}")
    elif args.table == "rwrs-law":
        _check_cap(args.n, rwrs.ENUMERATION_CAP, "rwrs-law")
        model = harness._parse_model("rwrs", {"walk": args.walk,
                                              "scenery": args.scenery})
        law = rwrs.exact_rwrs_law(model, args.n)
        print("z probability")
        for z in sorted(law):
            print(f"{z} {law[z]:.15g}")
    else:  # unreachable behind argparse choices
        raise ConfigError(f"unknown exact table {args.table!r}")
    return 0


# ---------------------------------------------------------------------------
# entry point


@lru_cache(maxsize=None)  # one parser per process: parse_args leaves it as built
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rangelab",
        description="Monte Carlo lab for oriented-lattice walks, scenery "
                    "sums and their stable limit processes.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (dotted paths allowed)")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--threads", type=int, help="override worker threads")

    run_p = sub.add_parser("run", help="run an experiment, write CSV + JSON")
    common(run_p)
    run_p.set_defaults(fn=cmd_run)

    sc_p = sub.add_parser("scaling", help="run and fit log-log growth")
    common(sc_p)
    sc_p.set_defaults(fn=cmd_scaling)

    ex_p = sub.add_parser("exact", help="print exact small-horizon tables")
    ex_sub = ex_p.add_subparsers(dest="table", required=True)
    law_p = ex_sub.add_parser("cp-law", help="endpoint law of the oriented walk")
    law_p.add_argument("--p", type=float, required=True)
    law_p.add_argument("--n", type=int, required=True)
    esc_p = ex_sub.add_parser("cp-escape", help="no-return probability")
    esc_p.add_argument("--p", type=float, required=True)
    esc_p.add_argument("--L", type=int, required=True)
    zlaw_p = ex_sub.add_parser("rwrs-law", help="law of the scenery sum")
    zlaw_p.add_argument("--walk", default="simple")
    zlaw_p.add_argument("--scenery", default="rademacher")
    zlaw_p.add_argument("--n", type=int, required=True)
    for p in (law_p, esc_p, zlaw_p):
        p.set_defaults(fn=cmd_exact)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 -- the contract is an exit code
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
