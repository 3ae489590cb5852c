"""Command-line behavior: configs, outputs, exit codes, exact tables."""

import ast
import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rangelab
from rangelab import cli
from rangelab.cli import main, resolve_config
from rangelab.harness import _MODEL_OUTPUTS, MAX_TRIAL_STEPS, ConfigError

BASE = {"model": "oriented", "params": {"p": 0.5}, "sizes": [8, 16],
        "trials": 4, "outputs": ["range", "escape"]}


@pytest.fixture
def config_path(tmp_path):
    def write(overrides=None, **extra):
        cfg = {**BASE, **(overrides or {}), **extra}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)
    return write


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# config resolution


def test_package_exposes_version_and_submodules():
    import rangelab
    assert isinstance(rangelab.__version__, str)
    for name in ("rng", "laws", "enumeration", "oriented", "rwrs", "limit",
                 "harness", "cli"):
        assert getattr(rangelab, name).__name__ == f"rangelab.{name}"


_COLD_START = """
import json, sys
from rangelab import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

report = {"import": scipy_modules()}
report["exact"] = [cli.main(argv) for argv in (
    ["exact", "cp-law", "--p", "0.5", "--n", "4"],
    ["exact", "cp-escape", "--p", "0.37", "--L", "6"],
    ["exact", "rwrs-law", "--walk", "lazy:0.3", "--scenery", "ternary:0.4",
     "--n", "4"])]
report["after_exact"] = scipy_modules()
report["run"] = cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
report["after_run"] = scipy_modules()
print(json.dumps(report))
"""


def cold_start(tmp_path, cfg):
    """Run _COLD_START on the config cfg in a fresh process; return its
    report and the rows of the results.csv it wrote."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    src = str(Path(rangelab.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _COLD_START, str(config),
                          str(tmp_path / "res")], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    with open(tmp_path / "res" / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    return json.loads(out.stdout.splitlines()[-1]), rows


def test_scipy_waits_for_a_heavy_tail_or_an_interval(tmp_path):
    # a fresh process: importing the package and the exact tables on bounded
    # laws load numpy alone; a pareto law needs the Hurwitz zeta, so its run
    # loads scipy.special, never scipy.stats
    report, rows = cold_start(tmp_path, {
        "model": "rwrs", "params": {"walk": "simple", "scenery": "pareto:0.8"},
        "sizes": [16, 64], "trials": 5, "outputs": ["zrange", "escape"]})
    assert report["import"] == []
    assert report["exact"] == [0, 0, 0]
    assert report["after_exact"] == []
    assert report["run"] == 0
    assert "scipy.special" in report["after_run"]
    assert "scipy.stats" not in report["after_run"]
    assert len(rows) == 1 + 2 * 2
    assert all(math.isfinite(float(r[3])) for r in rows[1:])


@pytest.mark.parametrize("model, params", [
    ("oriented", {"p": 0.5}),
    ("rwrs", {"walk": "simple", "scenery": "rademacher"})])
def test_bounded_laws_get_intervals_without_scipy(tmp_path, model, params):
    # the normal quantile is computed in the package, so a run on bounded
    # laws writes every interval and never loads scipy
    outputs = list(_MODEL_OUTPUTS[model])
    report, rows = cold_start(tmp_path, {
        "model": model, "params": params, "sizes": [16, 64], "trials": 5,
        "outputs": outputs, "horizon": 10})
    assert report["run"] == 0
    assert report["import"] == report["after_exact"] == report["after_run"] == []
    assert len(rows) == 1 + 2 * len(outputs)
    assert all(math.isfinite(float(r[3])) for r in rows[1:])


def test_defaults_fill_in_and_resolution_is_idempotent():
    cfg = resolve_config(dict(BASE))
    assert cfg["seed"] == 0
    assert cfg["horizon"] is None
    assert cfg["threads"] == 1
    assert cfg["out"] == "results"
    assert cfg["format"] == "csv"
    assert resolve_config(cfg) == cfg


def test_config_values_are_coerced():
    cfg = resolve_config({**BASE, "trials": "7", "sizes": ["4", 8.0],
                          "seed": "3"})
    assert cfg["trials"] == 7
    assert cfg["sizes"] == [4, 8]
    assert cfg["seed"] == 3


def test_malformed_configs_are_rejected():
    with pytest.raises(ConfigError):
        resolve_config([])
    with pytest.raises(ConfigError):
        resolve_config({**BASE, "typo": 1})
    with pytest.raises(ConfigError):
        resolve_config({k: v for k, v in BASE.items() if k != "trials"})
    with pytest.raises(ConfigError):
        resolve_config({**BASE, "format": "parquet"})
    with pytest.raises(ConfigError):
        resolve_config({**BASE, "params": "p=0.5"})
    with pytest.raises(ConfigError):
        resolve_config({**BASE, "trials": "many"})
    # int() would split a string of digits, truncate a fraction and read
    # True as 1
    for bad in ({"sizes": "123"}, {"sizes": [64.9]}, {"trials": 2.5},
                {"horizon": 3.9}, {"seed": 1.7}, {"threads": 1.5},
                {"trials": True}, {"sizes": [True, 2]}, {"seed": False},
                {"trials": float("inf")}, {"sizes": {"8": 1}}):
        with pytest.raises(ConfigError):
            resolve_config({**BASE, **bad})


# ---------------------------------------------------------------------------
# run subcommand


def test_run_writes_table_and_summary(tmp_path, config_path):
    out = tmp_path / "res"
    assert run_cli("run", "--config", config_path(), "--out", str(out)) == 0

    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "statistic", "mean", "ci_half", "trials"]
    assert len(rows) == 1 + len(BASE["sizes"]) * len(BASE["outputs"])
    assert {r[0] for r in rows[1:]} == {"8", "16"}
    for r in rows[1:]:
        float(r[2])  # means parse back
        assert r[4] == "4"

    summary = json.loads((out / "summary.json").read_text())
    assert summary["master_seed"] == 0
    assert set(summary["results"]) == {"8", "16"}
    assert summary["files"]["csv"] == "results.csv"
    # the stored config is fully resolved: feeding it back is a no-op
    assert resolve_config(summary["config"]) == summary["config"]


def test_summary_records_its_provenance(tmp_path, config_path):
    # the versions that made the numbers (the package's names its streams)
    # and the core count, in summary.json only
    import platform

    import numpy as np
    out = tmp_path / "res"
    assert run_cli("run", "--config", config_path(), "--out", str(out)) == 0
    prov = json.loads((out / "summary.json").read_text())["provenance"]
    assert {k: type(v) for k, v in prov.items()} == {
        "rangelab": str, "numpy": str, "python": str, "cpu_count": int}
    assert prov == {"rangelab": rangelab.__version__, "numpy": np.__version__,
                    "python": platform.python_version(), "cpu_count": os.cpu_count()}
    assert b"provenance" not in (out / "results.csv").read_bytes()


def test_rerun_is_byte_identical(tmp_path, config_path):
    cfg = config_path()
    run_cli("run", "--config", cfg, "--out", str(tmp_path / "a"))
    run_cli("run", "--config", cfg, "--out", str(tmp_path / "b"))
    assert (tmp_path / "a/results.csv").read_bytes() == \
        (tmp_path / "b/results.csv").read_bytes()


def test_thread_count_leaves_the_table_unchanged(tmp_path, config_path):
    cfg = config_path()
    run_cli("run", "--config", cfg, "--out", str(tmp_path / "a"))
    run_cli("run", "--config", cfg, "--out", str(tmp_path / "b"),
            "--threads", "4")
    assert (tmp_path / "a/results.csv").read_bytes() == \
        (tmp_path / "b/results.csv").read_bytes()


def test_seed_override_changes_the_numbers(tmp_path, config_path):
    cfg = config_path()
    run_cli("run", "--config", cfg, "--out", str(tmp_path / "a"))
    run_cli("run", "--config", cfg, "--out", str(tmp_path / "b"),
            "--seed", "99")
    assert (tmp_path / "a/results.csv").read_bytes() != \
        (tmp_path / "b/results.csv").read_bytes()
    summary = json.loads((tmp_path / "b/summary.json").read_text())
    assert summary["master_seed"] == 99


def test_dotted_set_overrides_reach_the_config(tmp_path, config_path):
    out = tmp_path / "res"
    code = run_cli("run", "--config", config_path(), "--out", str(out),
                   "--set", "params.p=0.7",
                   "--set", "trials=2",
                   "--set", "sizes=[4,8,12]")
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["params"]["p"] == 0.7
    assert summary["config"]["trials"] == 2
    assert summary["config"]["sizes"] == [4, 8, 12]


def test_exit_codes_for_broken_inputs(tmp_path, config_path):
    assert run_cli("run", "--config", str(tmp_path / "missing.json")) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("run", "--config", str(bad)) == 2
    assert run_cli("run", "--config", config_path({"typo": 1})) == 2
    assert run_cli("run", "--config", config_path(params={"p": 2.0})) == 2
    assert run_cli("run", "--config", config_path(),
                   "--set", "params.p") == 2  # not key=value


@pytest.mark.parametrize("command", ["run", "scaling"])
@pytest.mark.parametrize("override", [["--out", "r"], ["--seed", "3"],
                                      ["--set", "trials=2"]])
def test_non_object_config_exits_two_under_overrides(tmp_path, monkeypatch,
                                                     command, override):
    monkeypatch.chdir(tmp_path)
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert run_cli(command, "--config", str(listed), *override) == 2


STABLE = {"index": 2, "a1": 0.5}


@pytest.mark.parametrize("overrides", [
    {"params": {"p": "abc"}},
    {"params": {"p": None}},
    {"model": "limit", "outputs": ["sup"],
     "params": {"walk": STABLE, "scenery": STABLE, "h": "x"}},
    {"model": "rwrs", "outputs": ["zrange"],
     "params": {"walk": "simple", "scenery": "ternary:x"}},
])
def test_malformed_model_parameters_exit_two(tmp_path, config_path, overrides):
    assert run_cli("run", "--config", config_path(overrides),
                   "--out", str(tmp_path / "r")) == 2


def test_budget_cap_exits_three(config_path):
    big = config_path(sizes=[20_000_000_001], trials=1, outputs=["range"])
    assert run_cli("run", "--config", big) == 3


def test_per_trial_cap_exits_three_before_running(config_path, monkeypatch):
    def boom(spec):
        raise RuntimeError("the experiment should not start")
    monkeypatch.setattr(cli.harness, "run_experiment", boom)
    # within the total budget, but one trial would take too much memory
    big = config_path(sizes=[10, MAX_TRIAL_STEPS + 1], trials=1)
    assert run_cli("run", "--config", big) == 3


def test_pareto_magnitude_past_int64_exits_three(tmp_path, config_path, capsys):
    # at tail index 0.1 a step passes 2^63 with probability near 0.006, so
    # two walks of 1000 steps reach a magnitude no int64 holds
    cfg = config_path(model="rwrs", params={"walk": "pareto:0.1", "scenery": "rademacher"},
                      sizes=[1000], trials=2, outputs=["zrange"], seed=1)
    assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "r")) == 3
    assert "pareto magnitude beyond the int64 range" in capsys.readouterr().err


def test_runtime_failure_exits_one(tmp_path, config_path, monkeypatch):
    def boom(spec):
        raise RuntimeError("worker died")
    monkeypatch.setattr(cli.harness, "run_experiment", boom)
    assert run_cli("run", "--config", config_path(),
                   "--out", str(tmp_path / "r")) == 1


# ---------------------------------------------------------------------------
# scaling subcommand


def test_scaling_reports_fits_with_expected_exponents(tmp_path, config_path,
                                                      capsys):
    cfg = config_path(sizes=[16, 32, 64], trials=6, outputs=["first_range"])
    out = tmp_path / "sc"
    assert run_cli("scaling", "--config", cfg, "--out", str(out)) == 0
    report = json.loads(capsys.readouterr().out)
    fit = report["fits"]["first_range"]
    assert fit["expected_exponent"] == 0.75
    assert fit["sizes"] == [16, 32, 64]
    assert len(fit["means"]) == 3
    assert fit["slope_ci"][0] <= fit["slope"] <= fit["slope_ci"][1]
    on_disk = json.loads((out / "scaling.json").read_text())
    assert on_disk == report


def test_scaling_needs_three_sizes(config_path):
    assert run_cli("scaling", "--config", config_path(sizes=[8, 16])) == 2


# ---------------------------------------------------------------------------
# exact tables


def test_exact_endpoint_table_for_one_step(capsys):
    assert run_cli("exact", "cp-law", "--p", "0.5", "--n", "1") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x y probability"
    got = {}
    for line in lines[1:]:
        x, y, prob = line.split()
        got[(int(x), int(y))] = float(prob)
    assert got == {(-1, 0): 0.25, (1, 0): 0.25, (0, -1): 0.25, (0, 1): 0.25}


def test_exact_escape_value(capsys):
    assert run_cli("exact", "cp-escape", "--p", "0.5", "--L", "2") == 0
    assert float(capsys.readouterr().out) == 0.875
    assert run_cli("exact", "cp-escape", "--p", "0.5", "--L", "1") == 0
    assert float(capsys.readouterr().out) == 1.0


def test_exact_escape_cap(capsys):
    assert run_cli("exact", "cp-escape", "--p", "0.5", "--L", "19") == 3
    assert capsys.readouterr().out == ""
    assert run_cli("exact", "cp-escape", "--p", "0.5", "--L", "18") == 0
    assert 0.0 < float(capsys.readouterr().out) <= 1.0


def test_exact_scenery_sum_table(capsys):
    assert run_cli("exact", "rwrs-law", "--n", "0") == 0
    assert capsys.readouterr().out.strip().splitlines() == \
        ["z probability", "0 1"]
    assert run_cli("exact", "rwrs-law", "--walk", "simple",
                   "--scenery", "rademacher", "--n", "2") == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    got = {int(z): float(p) for z, p in (ln.split() for ln in lines)}
    assert got == {-2: 0.25, 0: 0.5, 2: 0.25}


def test_exact_caps_and_bad_parameters(capsys):
    assert run_cli("exact", "cp-law", "--p", "0.5", "--n", "15") == 3
    assert run_cli("exact", "rwrs-law", "--n", "13") == 3
    assert run_cli("exact", "cp-law", "--p", "1.5", "--n", "2") == 2
    assert run_cli("exact", "rwrs-law", "--walk", "poisson", "--n", "2") == 2
    capsys.readouterr()  # drop partial output


def test_calls_in_one_process_answer_as_separate_processes(tmp_path, capsys):
    # the parser is built once per process; a call must not leak into the next
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**BASE, "typo": 1}))
    calls = [["exact", "rwrs-law", "--walk", "lazy:0.3", "--n", "3"],
             ["run", "--config", str(bad)],
             ["exact", "rwrs-law", "--n", "3"]]
    here = []
    for argv in calls:
        code = main(argv)
        here.append((code, capsys.readouterr().out))
    src = str(Path(rangelab.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    apart = [subprocess.run([sys.executable, "-m", "rangelab", *argv],
                            capture_output=True, text=True, env=env) for argv in calls]
    assert [code for code, _ in here] == [0, 2, 0]
    assert here == [(out.returncode, out.stdout) for out in apart]
    assert here[0][1] != here[2][1]  # the second call fell back to the simple walk
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.skipif(shutil.which("rangelab") is None,
                    reason="console script not on PATH")
def test_installed_script_answers():
    out = subprocess.run(["rangelab", "exact", "cp-escape", "--p", "0.5",
                          "--L", "2"], capture_output=True, text=True)
    assert out.returncode == 0
    assert float(out.stdout) == 0.875


def test_module_entry_point_answers():
    # python -m rangelab needs no installed script; the child imports the
    # package from wherever this process found it
    src = str(Path(rangelab.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-m", "rangelab", "exact", "cp-escape",
                          "--p", "0.5", "--L", "2"], capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert float(out.stdout) == 0.875


# ---------------------------------------------------------------------------
# package hygiene


PACKAGE = sorted(Path(rangelab.__file__).parent.glob("*.py"))


def _reads(node):
    # every name the node loads, bare or as an attribute
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def _definitions(node):
    # the names a top-level statement defines, an import not counting
    targets = ([node] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               else node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n for t in targets if (n := getattr(t, "name", getattr(t, "id", None)))]


def test_every_private_name_is_used_in_the_package():
    # a helper a refactor left behind fails here: each top-level private
    # name must be read somewhere in the package, an import not counting
    trees = [ast.parse(p.read_text()) for p in PACKAGE]
    used = set().union(*map(_reads, trees))
    orphans = {n for tree in trees for node in tree.body for n in _definitions(node)
               if n.startswith("_") and not n.startswith("__")} - used
    assert not orphans, sorted(orphans)


def test_every_public_name_has_a_reader():
    # a public name that only unit tests call fails here.  Its readers are
    # the package, the benchmark and the two end-to-end test files; a name
    # read only by definitions that have no reader has none either.  Each
    # module-level import must be read in its module; __init__'s imports
    # are the package's interface
    repo = Path(__file__).resolve().parents[1]
    readers = [*sorted((repo / "perfbench").glob("*.py")),
               repo / "tests" / "test_acceptance.py", repo / "tests" / "test_streams.py"]
    live = set().union(*(_reads(ast.parse(p.read_text())) for p in readers))
    deps, unread_imports = {}, []
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        module_reads = _reads(tree)
        for node in tree.body:
            names = _definitions(node)
            for name in names:
                deps.setdefault(name, set()).update(_reads(node))
            if not names:
                live |= _reads(node)
            if (isinstance(node, (ast.Import, ast.ImportFrom)) and path.stem != "__init__"
                    and getattr(node, "module", None) != "__future__"):
                bound = (a.asname or a.name.split(".")[0] for a in node.names)
                unread_imports += [f"{path.stem}.{b}" for b in bound if b not in module_reads]
    todo = list(live)
    while todo:
        for name in deps.pop(todo.pop(), ()):
            if name not in live:
                live.add(name)
                todo.append(name)
    unread = sorted(n for n in deps if not n.startswith("_"))
    assert not unread and not unread_imports, f"names {unread}, imports {unread_imports}"


def _units(tree):
    # (owner, node) for each top-level statement, and for each statement of
    # a class body apart, owned by Class.name
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                yield f"{node.name}.{getattr(sub, 'name', '')}", sub
        else:
            yield getattr(node, "name", None), node


def _calls(node):
    # the node's calls as (callee name, positional count, keywords, splat),
    # and the names it loads other than as a callee
    calls, callees = [], set()
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            callees.add(id(n.func))
            splat = (any(isinstance(a, ast.Starred) for a in n.args)
                     or any(k.arg is None for k in n.keywords))
            calls.append((getattr(n.func, "id", getattr(n.func, "attr", None)),
                          len(n.args), {k.arg for k in n.keywords}, splat))
    loaded = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)
              if id(n) not in callees and (isinstance(n, ast.Attribute) or (
                  isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)))}
    return calls, loaded


def _bindings(node):
    # every name the node binds: definitions, parameters and assignments
    return {n.name if isinstance(n, (ast.FunctionDef, ast.ClassDef))
            else n.arg if isinstance(n, ast.arg) else n.id
            for n in ast.walk(node)
            if isinstance(n, (ast.FunctionDef, ast.ClassDef, ast.arg))
            or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))}


# The members whose names the readers also bind for something else (a
# variable, a parameter, another class's member), so that a read of the name
# alone does not show the member is read, each with the read that uses it.
# A new member whose name collides fails the guard below until it is listed
_SHARED_MEMBER_NAMES = {
    "LatticePath.steps": "perfbench/workloads.py records path.steps",
    "RngStream.child": "oriented.skew_product_environment calls rng.child",
    "ScenerySummary.returned": "tests/test_streams.py digests the rwrs summary's returned",
    "TrialStats.mean": "cli.cmd_run writes st.mean and fits the means",
    "WalkSummary.returned": "perfbench/workloads.py records stats.returned",
}


def test_every_member_and_option_has_a_reader():
    # a method, a property or an optional parameter that only unit tests use
    # fails here.  The readers are those of the public names, each package
    # definition outside its own body.  A member is read when its name is,
    # and a name that other code binds as well is listed in
    # _SHARED_MEMBER_NAMES; an option is passed by a call whose callee has
    # the function's name, by keyword, by position or through a splat.  A
    # function named other than as a callee (a table of law makers) counts
    # as passing them all
    repo = Path(__file__).resolve().parents[1]
    readers = [*sorted((repo / "perfbench").glob("*.py")),
               repo / "tests" / "test_acceptance.py", repo / "tests" / "test_streams.py"]
    units = [(None, ast.parse(p.read_text())) for p in readers]
    units += [u for path in PACKAGE for u in _units(ast.parse(path.read_text()))]
    uses = [(owner, _reads(node), *_calls(node)) for owner, node in units]
    bound = [(owner, _bindings(node)) for owner, node in units]
    unread, shared, members = [], [], set()
    for owner, fn in units:
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
            continue
        others = [u for u in uses if u[0] != owner]
        method = "." in owner
        if method:
            members.add(owner)
            shared += [owner] * (any(fn.name in names for o, names in bound if o != owner)
                                 != (owner in _SHARED_MEMBER_NAMES))
        if method and not any(fn.name in reads for _, reads, _, _ in others):
            unread.append(owner)
            continue
        if any(fn.name in loaded for *_, loaded in others):
            continue
        calls = [c for _, _, cs, _ in others for c in cs if c[0] == fn.name]
        # (index among the arguments a call passes, name); self is not passed
        a = fn.args
        first = len(a.args) - len(a.defaults)
        options = [(i - method, arg.arg) for i, arg in enumerate(a.args) if i >= first]
        options += [(math.inf, arg.arg) for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                    if default is not None]
        unread += [f"{owner}({name})" for i, name in options
                   if not any(splat or name in keywords or count > i
                              for _, count, keywords, splat in calls)]
    assert not unread, sorted(unread)
    # a member to list or to strike from the table
    assert not shared and set(_SHARED_MEMBER_NAMES) <= members, \
        sorted(shared + list(set(_SHARED_MEMBER_NAMES) - members))
