"""The benchmark's three workloads: inputs, the timed call, and output checks.

A task is one unit of work.  ``run`` is the only part that is timed; it
calls rangelab's public API and returns the raw results.  ``record`` runs
after the clock stops: it checks the raw results and reduces them to a
JSON-able output that feeds the workload's output digest.  ``once`` holds
the checks that are too costly to repeat for every task; the runner calls
it on task 0 only, also outside the timed window.

Every task input (seeds, and ``p`` where it varies) is a pure function of
the workload seed and the task index, so one seed always yields the same
tasks.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import time
from pathlib import Path

from rangelab import cli, harness, limit, oriented, rwrs
from rangelab.laws import StableLaw, rademacher, simple_symmetric
from rangelab.rng import RngStream

# Sizes per scale.  "full" is what the benchmark measures; "tiny" exists
# for the self-test, which runs every code path in a few seconds.
SCALES = {
    "full": {
        "walk_n": 10 ** 6, "limit_m": 1 << 16, "limit_paths": 10,
        "trial_sizes": [64, 256, 1024], "trials": 256,
        # escape_trials sizes the batch path (no_return_count and
        # no_return_z_count) to about 40% of a task's time, so that a
        # regression of that path alone can move task_p50_ref past its bound
        "escape_horizon": 64, "escape_trials": 40_000,
        "law_n": 12, "escape_L": 11, "zlaw_n": 12, "z_horizon": 12,
        "pinned_L": 10,
    },
    "tiny": {
        "walk_n": 10 ** 4, "limit_m": 1 << 10, "limit_paths": 2,
        "trial_sizes": [16, 32, 64], "trials": 8,
        "escape_horizon": 16, "escape_trials": 100,
        "law_n": 5, "escape_L": 5, "zlaw_n": 5, "z_horizon": 5,
        "pinned_L": 6,
    },
}

# Exact no-return probabilities q_L at p = 0.5, L = 1..10, as the seed
# version of rangelab computes them.  Later versions may reorder the
# float arithmetic, hence the 1e-12 tolerance rather than equality.
PINNED_Q_HALF = (1.0, 0.875, 0.875, 0.8359375, 0.8359375, 0.810546875,
                 0.810546875, 0.792083740234375, 0.792083740234375,
                 0.7778549194335938)

MASS_TOL = 1e-12
BROWNIAN = StableLaw(2.0, 0.5)


def derive(seed: int, *tags) -> int:
    """A 63-bit integer that is a pure function of the seed and the tags."""
    text = ":".join(str(t) for t in (seed, *tags))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def unit_float(seed: int, *tags) -> float:
    return derive(seed, *tags) / float(1 << 63)


def call_cli(argv) -> tuple[int, str]:
    """Run ``rangelab.cli.main`` in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


class Workload:
    """Shared shape of a workload; subclasses fill in the four hooks."""

    name = ""

    def __init__(self, seed: int, scale: str, work_dir: Path):
        self.seed = seed
        self.size = SCALES[scale]
        self.work_dir = work_dir

    def validate(self) -> None:
        """Config and spec validation that a user of the package pays once."""

    def task_input(self, index: int) -> dict:
        raise NotImplementedError

    def run(self, inp: dict):
        raise NotImplementedError

    def record(self, inp: dict, raw) -> tuple[dict, list]:
        raise NotImplementedError

    def once(self, inp: dict, output: dict) -> tuple[list, dict]:
        """Per-run checks on task 0; returns (problems, extra facts)."""
        return [], {}

    def counts(self, inp: dict) -> dict:
        """Work done by one task: steps, trials and oracle calls."""
        return {}


# ---------------------------------------------------------------------------


class LongWalks(Workload):
    name = "long_walks"

    def validate(self):
        self.model = rwrs.RwrsModel(simple_symmetric(), rademacher())
        self.h = 1.0 / 64.0

    def task_input(self, index):
        return {"index": index,
                "walk_seed": derive(self.seed, self.name, "walk", index),
                "rwrs_seed": derive(self.seed, self.name, "rwrs", index),
                "limit_seed": derive(self.seed, self.name, "limit", index)}

    def run(self, inp):
        n = self.size["walk_n"]
        stats = oriented.annealed_range_stats(0.5, n, inp["walk_seed"])
        zp = rwrs.simulate_rwrs(self.model, n, inp["rwrs_seed"])
        spread = rwrs.z_spread(zp)
        paths = [limit.sample_scenery_integral(
                     BROWNIAN, BROWNIAN, self.size["limit_m"], self.h,
                     RngStream(inp["limit_seed"], j))
                 for j in range(self.size["limit_paths"])]
        funcs = [limit.path_functionals(d) for d in paths]
        return stats, zp, spread, paths, funcs

    def record(self, inp, raw):
        stats, zp, spread, paths, funcs = raw
        n = self.size["walk_n"]
        problems = []
        if not stats.sites <= n + 1:
            problems.append(f"sites {stats.sites} > n+1")
        if stats.first_range != stats.x_max - stats.x_min + 1:
            problems.append("first_range != x_max - x_min + 1")
        if rwrs.range_z(zp) != spread + 1:
            problems.append("range_z != z_spread + 1")
        for d, f in zip(paths, funcs):
            if d[0] != 0.0 or not f.sup >= 0.0 >= f.inf:
                problems.append("limit path does not start at 0 "
                                "or breaks sup >= 0 >= inf")
        output = {"walk": [stats.steps, stats.sites, stats.x_min, stats.x_max,
                           stats.x_final, stats.y_final, bool(stats.returned)],
                  "z_spread": spread, "z_final": int(zp.values[-1]),
                  "limit": [[f.sup, f.inf] for f in funcs]}
        return output, problems

    def once(self, inp, output):
        problems = []
        again, _ = self.record(inp, self.run(inp))
        if again != output:
            problems.append("rerun of task 0 differs")
        # n fits in one chunk, so the streamed stats must match the path
        path = oriented.simulate_annealed(0.5, self.size["walk_n"], inp["walk_seed"])
        walk = [path.steps, oriented.range_sites(path), int(path.x.min()),
                int(path.x.max()), int(path.x[-1]), int(path.y[-1])]
        if walk != output["walk"][:6]:
            problems.append("annealed_range_stats != range_sites(simulate_annealed)")
        return problems, {}

    def counts(self, inp):
        s = self.size
        return {"steps": 2 * s["walk_n"] + s["limit_paths"] * s["limit_m"]}


# ---------------------------------------------------------------------------


SHORT_MODELS = {
    "oriented": {"params": {"p": 0.5},
                 "outputs": ["range", "first_range", "first_spread", "escape"]},
    "rwrs": {"params": {"walk": "simple", "scenery": "rademacher"},
             "outputs": ["zrange", "zspread", "vn", "vbeta", "zv", "escape"]},
}
CSV_HEADER = ["n", "statistic", "mean", "ci_half", "trials"]


class ShortTrials(Workload):
    name = "short_trials"

    def validate(self):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        for model in SHORT_MODELS:
            cli.spec_from_config(cli.resolve_config(self._config(model, 0)))

    def _config(self, model, seed, threads=1):
        spec = SHORT_MODELS[model]
        return {"model": model, "params": spec["params"],
                "sizes": self.size["trial_sizes"], "trials": self.size["trials"],
                "outputs": spec["outputs"], "seed": seed, "threads": threads}

    def _write_configs(self, index, seeds, threads, tag):
        runs = []
        for model in SHORT_MODELS:
            base = self.work_dir / f"{tag}-{index}-{model}"
            base.mkdir(parents=True, exist_ok=True)
            cfg_path = base / "config.json"
            cfg_path.write_text(json.dumps(self._config(model, seeds[model], threads)))
            runs.append((model, cfg_path, base / "out"))
        return runs

    def task_input(self, index):
        seeds = {m: derive(self.seed, self.name, m, index) for m in SHORT_MODELS}
        return {"index": index, "seeds": seeds,
                "escape_seeds": {m: derive(self.seed, self.name, "escape", m, index)
                                 for m in SHORT_MODELS},
                "runs": self._write_configs(index, seeds, 1, "t")}

    @staticmethod
    def _run_cli(runs):
        return [call_cli(["run", "--config", cfg, "--out", out])[0]
                for _, cfg, out in runs]

    def run(self, inp):
        codes = self._run_cli(inp["runs"])
        horizon, trials = self.size["escape_horizon"], self.size["escape_trials"]
        escapes = [harness.estimate_escape(model, SHORT_MODELS[model]["params"],
                                           horizon, trials, inp["escape_seeds"][model])
                   for model in SHORT_MODELS]
        return codes, escapes

    def _check_csv(self, model, text):
        rows = list(csv.reader(io.StringIO(text)))
        outputs = SHORT_MODELS[model]["outputs"]
        want = [(n, o) for n in self.size["trial_sizes"] for o in outputs]
        if not rows or rows[0] != CSV_HEADER:
            return [f"{model}: bad CSV header"]
        body = rows[1:]
        if any(len(r) != 5 for r in body) or [(int(r[0]), r[1]) for r in body] != want:
            return [f"{model}: CSV rows do not match sizes x outputs"]
        problems = []
        for r in body:
            if int(r[4]) != self.size["trials"]:
                problems.append(f"{model}: trial count {r[4]} in CSV")
            if not math.isfinite(float(r[2])) or (r[3] and float(r[3]) < 0.0):
                problems.append(f"{model}: bad mean or ci_half {r[2:4]}")
        return problems

    def _read_outputs(self, runs):
        texts = {}
        for model, _, out in runs:
            path = out / "results.csv"
            texts[model] = path.read_bytes().decode() if path.is_file() else ""
        return texts

    def record(self, inp, raw):
        codes, escapes = raw
        problems = [f"cli run exited {c}" for c in codes if c != 0]
        texts = self._read_outputs(inp["runs"])
        for model, text in texts.items():
            try:
                problems += self._check_csv(model, text)
            except ValueError as exc:
                problems.append(f"{model}: malformed CSV: {exc}")
        for model, st in zip(SHORT_MODELS, escapes):
            if st.count != self.size["escape_trials"] or not 0 <= st.total <= st.count:
                problems.append(f"{model}: escape stats out of range")
        output = {"csv": texts, "escape": [str(st.total) for st in escapes]}
        self._clean(inp["runs"])
        return output, problems

    def _clean(self, runs):
        for _, cfg, _ in runs:
            shutil.rmtree(cfg.parent, ignore_errors=True)

    def replay(self, inp, threads, tag):
        """Rerun task ``inp``'s CLI calls at ``threads``; returns (CSV texts, wall s)."""
        runs = self._write_configs(inp["index"], inp["seeds"], threads, tag)
        t0 = time.perf_counter()
        self._run_cli(runs)
        wall = time.perf_counter() - t0
        texts = self._read_outputs(runs)
        self._clean(runs)
        return texts, wall

    def once(self, inp, output):
        problems = []
        two, wall2 = self.replay(inp, 2, "r2")
        one, wall1 = self.replay(inp, 1, "r1")
        if one != output["csv"]:
            problems.append("rerun of task 0 gives a different CSV")
        if two != output["csv"]:
            problems.append("threads=2 gives a different CSV than threads=1")
        return problems, {"thread_speedup": wall1 / wall2}

    def counts(self, inp):
        s = self.size
        models = len(SHORT_MODELS)
        return {"trials": (s["trials"] * len(s["trial_sizes"]) + s["escape_trials"]) * models,
                "steps": (s["trials"] * sum(s["trial_sizes"])
                          + s["escape_trials"] * s["escape_horizon"]) * models}


# ---------------------------------------------------------------------------


def _parse_table(text, header):
    lines = text.strip().splitlines()
    if not lines or lines[0].split() != header:
        raise ValueError(f"expected header {header}")
    table = {}
    for line in lines[1:]:
        *key, prob = line.split()
        table[tuple(int(k) for k in key)] = float(prob)
    return table


def lazy_marginal(p: float, n: int) -> dict:
    """Closed-form law of y_n for the lazy walk: hold p, up/down (1-p)/2."""
    q = (1.0 - p) / 2.0
    law = {}
    for up in range(n + 1):
        for down in range(n - up + 1):
            w = (math.factorial(n) // (math.factorial(up) * math.factorial(down)
                                       * math.factorial(n - up - down)))
            law[up - down] = law.get(up - down, 0.0) \
                + w * q ** (up + down) * p ** (n - up - down)
    return law


class ExactOracles(Workload):
    name = "exact_oracles"

    def validate(self):
        self.z_model = rwrs.RwrsModel(harness.parse_lattice_law("simple"),
                                      harness.parse_lattice_law("rademacher"))
        rwrs.RwrsModel(harness.parse_lattice_law("simple"),
                       harness.parse_lattice_law("ternary:0.3"))

    def task_input(self, index):
        # a fresh p per call keeps the per-(p, n) memo out of timed calls
        return {"index": index,
                "law_p": 0.2 + 0.6 * unit_float(self.seed, self.name, "law", index),
                "escape_p": 0.2 + 0.6 * unit_float(self.seed, self.name, "esc", index)}

    def run(self, inp):
        s = self.size
        law = call_cli(["exact", "cp-law", "--p", repr(inp["law_p"]), "--n", s["law_n"]])
        esc = call_cli(["exact", "cp-escape", "--p", repr(inp["escape_p"]),
                        "--L", s["escape_L"]])
        zlaw = call_cli(["exact", "rwrs-law", "--scenery", "ternary:0.3",
                         "--n", s["zlaw_n"]])
        qz = rwrs.exact_no_return_z(self.z_model, s["z_horizon"])
        return law, esc, zlaw, qz

    def record(self, inp, raw):
        (c1, law_text), (c2, esc_text), (c3, zlaw_text), qz = raw
        problems = [f"exact exited {c}" for c in (c1, c2, c3) if c != 0]
        try:
            law = _parse_table(law_text, ["x", "y", "probability"])
            if abs(sum(law.values()) - 1.0) > MASS_TOL:
                problems.append("cp-law mass is not 1")
            marg = {}
            for (_, y), w in law.items():
                marg[y] = marg.get(y, 0.0) + w
            want = lazy_marginal(inp["law_p"], self.size["law_n"])
            if set(marg) != set(want) or any(abs(marg[y] - want[y]) > MASS_TOL
                                             for y in want):
                problems.append("cp-law y-marginal differs from the lazy walk")
            zlaw = {k[0]: w for k, w in _parse_table(zlaw_text, ["z", "probability"]).items()}
            if abs(sum(zlaw.values()) - 1.0) > MASS_TOL:
                problems.append("rwrs-law mass is not 1")
            if any(abs(w - zlaw.get(-z, 0.0)) > MASS_TOL for z, w in zlaw.items()):
                problems.append("rwrs-law is not symmetric")
            q = float(esc_text)
            if not 0.0 < q <= 1.0:
                problems.append(f"cp-escape {q} outside (0, 1]")
        except ValueError as exc:
            problems.append(f"malformed exact output: {exc}")
        if not 0.0 < qz <= 1.0:
            problems.append(f"exact_no_return_z {qz} outside (0, 1]")
        output = {"cp_law": law_text, "cp_escape": esc_text,
                  "rwrs_law": zlaw_text, "no_return_z": qz}
        return output, problems

    def once(self, inp, output):
        problems = []
        for L, want in enumerate(PINNED_Q_HALF[:self.size["pinned_L"]], start=1):
            got = oriented.exact_no_return_probability(0.5, L)
            if abs(got - want) > MASS_TOL:
                problems.append(f"q_{L} at p = 0.5 is {got!r}, pinned {want!r}")
        return problems, {}

    def counts(self, inp):
        return {"oracles": 4}


WORKLOADS = {w.name: w for w in (LongWalks, ShortTrials, ExactOracles)}
