"""Benchmark for rangelab: one workload per run, timed, checked and reported.

    python3 perfbench/run.py --workload long_walks --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from ``src/`` beside this
directory, and the run exits with code 2 when that source tree is absent.
Workloads, their tasks and their output checks are in ``workloads.py``.

``--trace 0`` times tasks for ``--seconds``, and at least 30 tasks, with
tracing off and reports the end-to-end metrics.  Each task is timed
beside ``reference_work()``, and task and set-up times are reported
relative to it, so that the drift of a shared host's speed cancels.

``--trace 1`` runs tasks untraced for half the time, then as many fresh
tasks with spans on (``tracing.py``), and reports the per-layer metrics,
per task, and the tracing overhead.  Both modes check every task's
output outside the timed window, once per run check task 0 more deeply,
and count a task with any wrong output as failed.

The last line of stdout is the result object; the line before it holds
the report (output digest, provenance, tail percentile and task counts),
which is also written to ``.perfbench_out/`` with the spans of a traced
run.  Only one thread runs timed work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

TAIL_PCT = 66         # fixed, so that every run reports the same percentile
MIN_TASKS = 30        # timed tasks per run at least, so 10 lie beyond TAIL_PCT
TRACE_MIN_TASKS = 4   # untraced tasks per traced run at least
DIGEST_TASKS = 8      # the first tasks of every run, whatever its length
SETUP_PROBES = 2      # fresh processes timed besides the measuring one
REFERENCE_S = 0.05    # reference_work() seconds that setup_s is scaled to
WALL_LIMIT_S = 120.0  # start no task after this much wall time in a run
PROBE_TIMEOUT_S = 60.0


class MissingSource(RuntimeError):
    """The checkout has no rangelab source tree to benchmark."""


def import_rangelab():
    package = SRC / "rangelab"
    if not (package / "__init__.py").is_file():
        raise MissingSource(f"no rangelab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rangelab
    if Path(rangelab.__file__).resolve().parent != package.resolve():
        raise MissingSource(f"imported rangelab from {rangelab.__file__}, "
                            f"not from {package}")
    return rangelab


def set_up(name: str, seed: int, scale: str, work_dir: Path):
    """Import, validate and run one warm-up task; returns the workload, the
    set-up seconds and the reference seconds measured right after."""
    t0 = time.perf_counter()
    import_rangelab()
    import workloads
    wl = workloads.WORKLOADS[name](seed, scale, work_dir)
    wl.validate()
    warm = wl.task_input(-1)
    wl.record(warm, wl.run(warm))
    seconds = time.perf_counter() - t0
    return wl, seconds, statistics.median(reference_work() for _ in range(3))


def probe_setup(name: str, seed: int, scale: str) -> tuple[float, float]:
    """Set-up and reference seconds of a fresh process, as it measures them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed), "--scale", scale]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return float(probe["setup_s"]), float(probe["reference_s"])


@dataclass
class TaskRecord:
    index: int
    seconds: float   # timed wall time of the task
    reference: float # wall time of reference_work() just before the task
    output: dict     # checked output, the input of the digest
    problems: list   # failed checks; empty when the task is correct
    counts: dict     # work done: steps, trials, oracle calls


def reference_work() -> float:
    """Wall time of fixed work that calls no rangelab code: Philox draws,
    a sort and a binary search over 16 MB, more than an L2 cache holds.
    Timed beside every task, it tracks the speed of the host, which on a
    shared machine drifts by half within minutes.  Of the references tried
    (Python loops over small and large dicts, numpy over 2 MB and 16 MB),
    this one followed the drift of all three workloads' tasks most closely."""
    import numpy as np
    t0 = time.perf_counter()
    draws = np.random.Generator(np.random.Philox(3)).integers(0, 1 << 40, 1 << 21)
    draws.sort()
    np.searchsorted(draws, draws[::64])
    return time.perf_counter() - t0


def run_task(wl, index: int, tracer=None) -> tuple[TaskRecord, dict]:
    """Time one task, then check it; returns the record and the task input."""
    inp = wl.task_input(index)
    reference = reference_work()
    if tracer is not None:
        tracer.task_id = index
        tracer.active = True
    error = None
    t0 = time.perf_counter()
    try:
        raw = wl.run(inp)
    except Exception as exc:  # noqa: BLE001 -- a failed task is counted, not fatal
        error = exc
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if error is None:
        try:
            output, problems = wl.record(inp, raw)
        except Exception as exc:  # noqa: BLE001
            output, problems = {"error": repr(exc)}, [f"check raised {exc!r}"]
        del raw
    else:
        output, problems = {"error": repr(error)}, [f"task raised {error!r}"]
    return TaskRecord(index, seconds, reference, output, problems,
                      wl.counts(inp)), inp


def timed_pass(wl, seconds: float, deadline: float,
               min_tasks: int = MIN_TASKS) -> tuple[list, dict]:
    """Run tasks 0, 1, ... until ``seconds`` of task time and ``min_tasks``
    tasks, starting none after ``deadline``; returns the records and task
    0's input."""
    records, first = [], None
    busy = 0.0
    while (busy < seconds or len(records) < min_tasks) \
            and time.perf_counter() < deadline:
        rec, inp = run_task(wl, len(records))
        if not records:
            first = inp
        records.append(rec)
        busy += rec.seconds
    return records, first


def check_once(wl, inp, records) -> dict:
    """Deeper per-run checks on task 0; problems are charged to task 0."""
    try:
        problems, extra = wl.once(inp, records[0].output)
    except Exception as exc:  # noqa: BLE001
        problems, extra = [f"per-run check raised {exc!r}"], {}
    records[0].problems.extend(problems)
    return extra


def tail(values: list) -> float:
    """The TAIL_PCT percentile, nearest rank.  With MIN_TASKS values it is the
    highest whole percentile that has 10 values beyond it."""
    rank = max(1, math.ceil(TAIL_PCT / 100.0 * len(values)))
    return sorted(values)[rank - 1]


def digest(records) -> str:
    blob = json.dumps([r.output for r in records[:DIGEST_TASKS]], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def throughput(records) -> dict:
    busy = sum(r.seconds for r in records)
    work = {}
    for r in records:
        for key, amount in r.counts.items():
            work[key] = work.get(key, 0) + amount
    return {f"{key}_per_s": work.get(key, 0) / busy
            for key in ("steps", "trials", "oracles")}


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(index / "size")
    return out


def provenance(seed: int) -> dict:
    import numpy
    import rangelab
    import scipy
    return {"rangelab": getattr(rangelab, "__version__", None),
            "git_commit": _git_commit(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cgroup_cpu_max": _read("/sys/fs/cgroup/cpu.max"),
            "caches": _caches(), "workload_seed": seed}


def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, report)."""
    started = time.perf_counter()
    work_dir = OUT / f"work-{os.getpid()}"
    try:
        wl, *own_setup = set_up(name, seed, scale, work_dir)
        report = {"workload": name, "seed": seed, "trace": int(trace),
                  "scale": scale, "claim": None}
        if trace:
            metrics, records = _traced(wl, seconds, started, report)
        else:
            setups = [tuple(own_setup)] + [probe_setup(name, seed, scale)
                                           for _ in range(probes)]
            records, first = timed_pass(wl, seconds, started + WALL_LIMIT_S)
            # before the per-run check, whose own work must not set the peak
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            check_once(wl, first, records)
            rel = [r.seconds / r.reference for r in records]
            metrics = {
                "setup_s": (statistics.median(s / r for s, r in setups) * REFERENCE_S,
                            "s"),
                "task_p50_ref": (statistics.median(rel), "ref"),
                "task_tail_ref": (tail(rel), "ref"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
            report.update(setup_samples_s=[s for s, _ in setups],
                          setup_reference_s=[r for _, r in setups],
                          task_ref=rel, task_tail_percentile=TAIL_PCT,
                          task_ms=[r.seconds * 1e3 for r in records],
                          reference_ms=[r.reference * 1e3 for r in records],
                          throughput=throughput(records))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = [r.index for r in records if r.problems]
    report.update(tasks=len(records), failed_tasks=failed,
                  problems=sorted({p for r in records for p in r.problems})[:20],
                  output_digest=digest(records),
                  digest_tasks=min(DIGEST_TASKS, len(records)),
                  provenance=provenance(seed))
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, report


def _traced(wl, seconds: float, started: float, report: dict) -> tuple[dict, list]:
    """Untraced pass, then as many fresh tasks traced; per-layer metrics per task.

    The traced tasks are new ones rather than replays, so that no memo
    filled by the untraced pass answers a traced call.
    """
    from tracing import Tracer
    plain, first = timed_pass(wl, seconds / 2.0, started + WALL_LIMIT_S / 2.0,
                              TRACE_MIN_TASKS)
    extra = check_once(wl, first, plain)
    traced = []
    tracer = Tracer()
    tracer.install()
    try:
        while len(traced) < len(plain) and time.perf_counter() < started + WALL_LIMIT_S:
            traced.append(run_task(wl, len(plain) + len(traced), tracer)[0])
    finally:
        tracer.uninstall()
    records = plain + traced
    overhead = (statistics.median(r.seconds / r.reference for r in traced)
                / statistics.median(r.seconds / r.reference for r in plain) - 1.0)
    rates = throughput(plain)
    metrics = tracer.layer_metrics(len(traced))
    metrics.update({
        "harness.thread_speedup": (extra.get("thread_speedup", 0.0), "ratio"),
        "trace_overhead_ratio": (overhead, "ratio"),
        "steps_per_s": (rates["steps_per_s"], "steps/s"),
        "trials_per_s": (rates["trials_per_s"], "trials/s"),
        "oracles_per_s": (rates["oracles_per_s"], "calls/s"),
        "failed_ratio": (sum(1 for r in records if r.problems) / len(records), "ratio"),
        "task_ms_p50": (statistics.median(r.seconds for r in plain) * 1e3, "ms"),
        "reference_ms": (statistics.median(r.reference for r in plain) * 1e3, "ms"),
    })
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{report['workload']}-{report['seed']}.npz"
    tracer.write(spans)
    report.update(spans_file=str(spans.relative_to(ROOT)), spans=len(tracer.start),
                  absent=tracer.absent(), throughput=rates)
    return metrics, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["long_walks", "short_trials", "exact_oracles"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny sizes are for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        if args.setup_probe:
            work_dir = OUT / f"probe-{os.getpid()}"
            try:
                _, seconds, reference = set_up(args.workload, args.seed,
                                               args.scale, work_dir)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            print(json.dumps({"setup_s": seconds, "reference_s": reference}))
            return 0
        result, report = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.scale)
    except MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    name = f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
