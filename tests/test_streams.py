"""Pinned random streams: sha256 digests of every sampler's exact output.

The digests were computed once and must never change.  A refactor of a
sampler that changes even one value of any stream below fails here; a
deliberate stream change must update the digest and say so in
CHANGES.md.  Every case uses fresh streams, so the cases are independent.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from rangelab.cli import main
from rangelab.harness import _MODEL_OUTPUTS, ExperimentSpec, run_experiment
from rangelab.laws import (StableLaw, lazy_vertical, pareto_tail, rademacher,
                           sample_lattice, sample_stable, simple_symmetric,
                           ternary)
from rangelab.limit import sample_scenery_integral, sample_stable_path
from rangelab.oriented import (Environment, annealed_endpoints,
                               annealed_range_stats, no_return_count,
                               simulate_annealed, simulate_quenched,
                               skew_product_endpoints, skew_product_path)
from rangelab.rng import RngStream, as_generator
from rangelab.rwrs import (RwrsModel, no_return_z_count, rwrs_range_stats,
                           simulate_rwrs)

SEEDS = (7, 11, 12345)
SIZES = (0, 1, 5, 1000)
PS = (0.2, 0.5, 0.9)
LAWS = (rademacher(), simple_symmetric(), ternary(0.3), lazy_vertical(0.5),
        ternary(0.0), pareto_tail(1.5), pareto_tail(0.7))
# per index class: scales a1 and, off the symmetric indexes, both signs of a2
STABLE_LAWS = {
    "index2": (StableLaw(2.0, 0.5), StableLaw(2.0, 1.0), StableLaw(2.0, 3.7)),
    "index1": (StableLaw(1.0, 0.5), StableLaw(1.0, 1.0), StableLaw(1.0, 3.7)),
    "skewed_1_2": (StableLaw(1.5, 1.0, 0.4), StableLaw(1.5, 2.0, -1.2),
                   StableLaw(1.7, 0.5)),
    "below_1": (StableLaw(0.7, 1.0, -0.9), StableLaw(0.7, 0.3),
                StableLaw(0.4, 2.0, 0.5)),
}
MODELS = (RwrsModel(simple_symmetric(), rademacher()),
          RwrsModel(lazy_vertical(0.3), ternary(0.3)),
          RwrsModel(ternary(0.0), pareto_tail(1.5)),
          RwrsModel(pareto_tail(1.5), rademacher()),
          RwrsModel(pareto_tail(0.7), pareto_tail(0.8)))


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        a = np.asarray(part)
        if a.dtype.kind in "biu":
            a = a.astype(np.int64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def walk_parts(path):
    return [path.x, path.y, path.step_types]


def walk_summary_parts(s):
    return [[s.steps, s.sites, s.x_min, s.x_max, s.x_final, s.y_final,
             s.returned]]


def scenery_summary_parts(s):
    return [[s.steps, s.z_min, s.z_max, s.z_final, s.distinct_z,
             s.self_intersections, s.returned]]


def simulate_annealed_parts():
    for seed in SEEDS:
        for p in PS:
            for n in SIZES:
                yield from walk_parts(simulate_annealed(p, n, seed))


def simulate_quenched_parts():
    overrides = {0: -1, 1: 1, -1: 1, 2: -1, -3: -1}
    for seed in SEEDS:
        env = Environment(seed ^ 0x5A5A, overrides=overrides)
        for p in PS:
            for n in SIZES:
                yield from walk_parts(simulate_quenched(env, p, n,
                                                        RngStream(seed, 3)))
                gen = np.random.default_rng(seed)
                yield from walk_parts(simulate_quenched(env, p, n, gen))


def skew_product_path_parts():
    for seed in SEEDS:
        for p in PS:
            for n in SIZES:
                yield from walk_parts(skew_product_path(p, n, RngStream(seed, 1)))


def annealed_range_stats_parts():
    for seed in SEEDS:
        for p in PS:
            for n in SIZES:
                for chunk in (1 << 20, 7):
                    yield from walk_summary_parts(
                        annealed_range_stats(p, n, seed, chunk=chunk))


def annealed_endpoints_parts():
    for seed in SEEDS:
        for p in PS:
            for n in (1, 5, 1000):
                yield from annealed_endpoints(p, n, 50, seed)
    yield from annealed_endpoints(0.5, 3, 70_000, 99)  # crosses a chunk


def skew_product_endpoints_parts():
    for seed in SEEDS:
        for p in PS:
            for n in (1, 5, 1000):
                yield from skew_product_endpoints(p, n, 50, seed)
    yield from skew_product_endpoints(0.5, 3, 70_000, 99)


def no_return_count_parts():
    for seed in SEEDS:
        for p in PS:
            for horizon in (1, 5, 1000):
                yield no_return_count(p, horizon, 200, seed)
    yield no_return_count(0.5, 1000, 5000, 99)  # crosses a chunk


def simulate_rwrs_parts():
    for seed in SEEDS:
        for model in MODELS:
            for n in SIZES:
                zp = simulate_rwrs(model, n, seed)
                yield from (zp.walk, zp.values,
                            sorted(zp.scenery.items()),
                            sorted(zp.local_time.counts.items()),
                            zp.local_time.steps)


def rwrs_range_stats_parts():
    for seed in SEEDS:
        for model in MODELS:
            for n in SIZES:
                for chunk in (1 << 20, 7):
                    yield from scenery_summary_parts(
                        rwrs_range_stats(model, n, seed, chunk=chunk))


def no_return_z_count_parts():
    for seed in SEEDS:
        for model in MODELS:
            for horizon in (1, 5, 1000):
                yield no_return_z_count(model, horizon, 200, seed)
    yield no_return_z_count(MODELS[0], 1000, 5000, 99)  # crosses a chunk


def escape_count_parts():
    # no_return_count at the extreme p values; no_return_z_count with a
    # lazy walk under a pareto scenery.  The last two of each cross a chunk.
    lazy_pareto = RwrsModel(lazy_vertical(0.3), pareto_tail(0.8))
    for seed in SEEDS:
        for horizon in (7, 64, 1000):
            for p in (0.2, 0.83):
                yield no_return_count(p, horizon, 300, seed)
            yield no_return_z_count(lazy_pareto, horizon, 300, seed)
    yield no_return_count(0.83, 64, 70_000, 99)
    yield no_return_count(0.2, 1000, 5000, 99)
    yield no_return_z_count(lazy_pareto, 64, 70_000, 99)
    yield no_return_z_count(lazy_pareto, 1000, 5000, 99)


WALK_PAIRS = ({"walk": "simple", "scenery": "rademacher"},
              {"walk": "lazy:0.3", "scenery": "ternary:0.3"},
              {"walk": "pareto:1.5", "scenery": "pareto:0.8"},
              # numpy's power and Python's ** disagree in the last bit at
              # some scenery indices, 1.5 among them, which vbeta would show
              {"walk": "simple", "scenery": "pareto:1.5"})
# (params, sizes, trials, horizon): horizon None, below n and above n;
# 1, 7 and 1100 trials (1100 walks of 1000 steps leave a partial block of
# 2^20 trial-steps); walks of 2^20 steps fill a block alone, longer ones
# stream a single trial at a time
HARNESS_RUNS = {
    "oriented": [({"p": 0.5}, (1, 5, 300), 7, None),
                 ({"p": 0.3}, (1, 5, 300), 1, 4),
                 ({"p": 0.8}, (1000,), 1100, 10 ** 6),
                 ({"p": 0.5}, (1 << 20, (1 << 20) + 1), 2, 100)],
    "rwrs": [*((pair, (1, 5, 300), trials, horizon)
               for pair in WALK_PAIRS
               for trials, horizon in ((7, None), (1, 4), (7, 10 ** 6))),
             (WALK_PAIRS[0], (1000,), 1100, 50),
             (WALK_PAIRS[2], (1000,), 1100, None),
             (WALK_PAIRS[3], (1000,), 1100, 10 ** 6),
             (WALK_PAIRS[1], (1 << 20, (1 << 20) + 1), 1, 3),
             (WALK_PAIRS[2], (1 << 20, (1 << 20) + 1), 1, None)],
    # walk and scenery laws as objects; sizes are mesh step counts
    "limit": [({"walk": {"index": 2.0, "a1": 0.5},
                "scenery": {"index": 2.0, "a1": 0.5}, "h": 0.125},
               (1, 5, 300), 7, None),
              ({"walk": {"index": 1.5, "a1": 1.0, "a2": 0.4},
                "scenery": {"index": 1.0, "a1": 2.0}, "h": 0.5},
               (1, 5, 300), 3, None),
              ({"walk": {"index": 2.0, "a1": 1.0},
                "scenery": {"index": 0.7, "a1": 1.0, "a2": -0.9}, "h": 0.25},
               (1, 300), 3, None)],
}


def harness_parts(model):
    for params, sizes, trials, horizon in HARNESS_RUNS[model]:
        spec = ExperimentSpec(model=model, params=params, sizes=sizes,
                              trials=trials, outputs=_MODEL_OUTPUTS[model],
                              master_seed=trials + len(sizes), horizon=horizon)
        for n, stats in run_experiment(spec).items():
            for stat, st in stats.items():
                # the exact sums as text: "p/q", or "p" when integral
                line = f"{n} {stat} {st.count} {st.total} {st.total_sq}"
                yield np.frombuffer(line.encode(), dtype=np.uint8)


# (model, params, sizes, trials, horizon) of the runs whose results.csv
# bytes, every mean and ci_half repr among them, are pinned
CSV_RUNS = (("oriented", {"p": 0.37}, (8, 64, 300), 40, 20),
            ("rwrs", WALK_PAIRS[1], (8, 64, 300), 40, None),
            ("rwrs", {"walk": "simple", "scenery": "pareto:0.8"}, (8, 64, 300),
             40, 30))


def results_csv_parts():
    with tempfile.TemporaryDirectory() as tmp:
        for k, (model, params, sizes, trials, horizon) in enumerate(CSV_RUNS):
            config, out = Path(tmp, f"{k}.json"), Path(tmp, str(k))
            config.write_text(json.dumps({
                "model": model, "params": params, "sizes": sizes,
                "trials": trials, "outputs": _MODEL_OUTPUTS[model],
                "seed": 1500 + k, "horizon": horizon}))
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            yield np.frombuffer((out / "results.csv").read_bytes(), dtype=np.uint8)


def sample_stable_parts(laws):
    # the draw after each call pins how far the call moved the stream
    for seed in SEEDS:
        for law in laws:
            for size in (None, 0, 1, 5, 1000):
                for gen in (as_generator(RngStream(seed, 2)),
                            np.random.default_rng(seed)):
                    yield sample_stable(law, gen, size=size)
                    yield gen.random()


LIMIT_LAWS = (StableLaw(2.0, 0.5), StableLaw(1.5, 1.0, 0.4), StableLaw(1.0, 1.0),
              StableLaw(0.7, 1.0, -0.9))


def sample_stable_path_parts():
    for seed in SEEDS:
        for law in LIMIT_LAWS:
            for m in (1, 5, 1000):
                yield sample_stable_path(law, m, RngStream(seed, 4))


def sample_scenery_integral_parts():
    for seed in SEEDS:
        for walk in LIMIT_LAWS[:2]:
            for scenery in LIMIT_LAWS:
                for m, h in ((1, 1.0), (5, 0.5), (1000, 1.0 / 16.0)):
                    yield sample_scenery_integral(walk, scenery, m, h,
                                                  RngStream(seed, 5))


def sample_lattice_parts():
    for seed in SEEDS:
        for law in LAWS:
            yield sample_lattice(law, RngStream(seed, 0))
            for n in SIZES + (4097,):
                yield sample_lattice(law, RngStream(seed, 0), size=n)
                yield sample_lattice(law, np.random.default_rng(seed), size=n)


CASES = {
    "escape_counts": (
        escape_count_parts,
        "9f634e713f274a31052ea203d662562766ab15bba3fbb25762ec9fb1edbfd184"),
    "harness_oriented": (
        lambda: harness_parts("oriented"),
        "bedd1b279362d37b9842c5f10ca013201f23c3e74c8322589dfc7bdda2648ecf"),
    "harness_rwrs": (
        lambda: harness_parts("rwrs"),
        "a8cfb85206211a388620a4c055775c3dac987d25630de8eee8e28e1d563656d5"),
    "harness_limit": (
        lambda: harness_parts("limit"),
        "7b46614a551289ea23431e8bc4c52a1a6583115939eb0f24558199a33fb2d992"),
    "annealed_endpoints": (
        annealed_endpoints_parts,
        "ec0a923c7f07ec125bf209b3600e3d6a5cbc3b5dda8a811182a0434b37fcafb4"),
    "annealed_range_stats": (
        annealed_range_stats_parts,
        "1b09b64e62858f74248091552a2e0247c0ff0d418b16fc96b0890b7aa9b8f493"),
    "no_return_count": (
        no_return_count_parts,
        "6e6da16e5bdb97c3d225fb08742929c7810b35beab44aa0b3f926f50b0c58412"),
    "no_return_z_count": (
        no_return_z_count_parts,
        "d060cc7aff448707d2eb328f1c2b748100476e36f679a7c7bda55fd1323ce953"),
    "rwrs_range_stats": (
        rwrs_range_stats_parts,
        "44ff9c59926a4e02216be3e6fa971d164ed7388399ec29a395d42ab94ba86a41"),
    "results_csv": (
        results_csv_parts,
        "d4bbfced4b34677cd9d1a74f09f48533b47a184e502de5dc55ef7e6b58ca9e79"),
    "sample_lattice": (
        sample_lattice_parts,
        "de3e767ad36368ad8feda0969a24430b966e7fcd64d21980350f35ddf8af5b7c"),
    "sample_scenery_integral": (
        sample_scenery_integral_parts,
        "c0a553b22c69547ef5eb10ad15a8eac02263e5a0e4151d3661f8ff96b6bade8f"),
    "sample_stable_below_1": (
        lambda: sample_stable_parts(STABLE_LAWS["below_1"]),
        "df6beeffb6413197ec3d148f3d2eb74a9c3a5bf401e2933133973191275dcb5b"),
    "sample_stable_index1": (
        lambda: sample_stable_parts(STABLE_LAWS["index1"]),
        "2c99ed071a27c255f0e95ed9c33a0bb116e0dda19e2e4786c23c05f794934187"),
    "sample_stable_index2": (
        lambda: sample_stable_parts(STABLE_LAWS["index2"]),
        "d61f6fc16f78954ed5bfe4323fc9fd2a5f5f536225813a2975069cd7c85e9679"),
    "sample_stable_path": (
        sample_stable_path_parts,
        "34c52153bd51adb6fdc7af0fcf38bb3a6c642c2a6bbfdecb703cfaa899a8e03e"),
    "sample_stable_skewed_1_2": (
        lambda: sample_stable_parts(STABLE_LAWS["skewed_1_2"]),
        "3111203bcf903147d5cab0aeca9ea1d9719609019bd1c97cbe2edee1676b399c"),
    "simulate_annealed": (
        simulate_annealed_parts,
        "2e868aa4cca08218213ed44e0cbcefbc9a77edd03dca08555f312ad6219de950"),
    "simulate_quenched": (
        simulate_quenched_parts,
        "65895f05fa64b8671988ef65bce153c2695a39d91fd41a707395d09dbcd95d1e"),
    "simulate_rwrs": (
        simulate_rwrs_parts,
        "4075e092d06ce44e2acf005de3ea5119fd79bf7ed7b79008a20d2b3d3344508c"),
    "skew_product_endpoints": (
        skew_product_endpoints_parts,
        "203d42127ba0bfcc0679204317ad836c21e27251a56117a9d02f1c243fc05cd2"),
    "skew_product_path": (
        skew_product_path_parts,
        "63cc5642f252ba034d553893371125ee5608154ef53c205b7c7f7f1c4582c46a"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stream_digest_is_pinned(name):
    parts, want = CASES[name]
    assert digest(parts()) == want
