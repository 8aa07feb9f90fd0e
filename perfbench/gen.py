"""Seeded input generator for the driftgauge benchmark.

    python3 perfbench/gen.py --workload monitor-d32 --seed 3 --out DIR

Writes everything one workload needs into DIR: the ``.fsemb`` sets, the
trained model and the calibration JSONL (target workloads), or the corpus,
the per-model training sets and the per-set shifts (meta-fit), plus a
``manifest.json`` with the sizes and label constants the checker needs.
The model and the calibration set are built through the public API
(``compute_delta``, ``synthetic_accuracy_fn``, ``train``, ``save_model``),
so the program under test only ever sees these files.  The same seed gives
byte-identical files.  Generation runs before any timing and counts toward
no metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Sizes per workload.  ``tiny`` variants keep the benchmark's own tests fast.
SPECS = {
    "monitor-d32": dict(
        kind="target", dim=32, source_rows=4000, components=4,
        targets=48, target_rows=(256, 4096), equal_every=6,
        meta_source_rows=4000, meta_rows=(128, 768), train=120, calib=120, calib_repeat=1,
    ),
    "embed-1024": dict(
        kind="target", dim=1024, source_rows=20000, components=4,
        targets=8, target_rows=(1000, 5000), equal_every=0,
        meta_source_rows=1000, meta_rows=(200, 500), train=50, calib=30, calib_repeat=1,
    ),
    "cli-predict": dict(
        kind="target", dim=16, source_rows=2000, components=3,
        targets=24, target_rows=(500, 3000), equal_every=0,
        meta_source_rows=2000, meta_rows=(100, 300), train=120, calib=250, calib_repeat=4,
    ),
    "meta-fit": dict(
        kind="meta", dim=16, corpus_rows=6000, components=3, models=6,
        train_rows=1500, sets_per_model=15, set_rows=(64, 512),
        cap_gen=48, gen_per_set=4, probe=6, meta_rounds=60,
    ),
}

TINY = {
    "monitor-d32": dict(source_rows=600, targets=6, target_rows=(64, 600),
                        meta_source_rows=600, meta_rows=(64, 128), train=20, calib=20, calib_repeat=1),
    "embed-1024": dict(dim=64, source_rows=800, targets=3, target_rows=(100, 300),
                       meta_source_rows=400, meta_rows=(64, 128), train=16, calib=12, calib_repeat=1),
    "cli-predict": dict(source_rows=300, targets=3, target_rows=(80, 200),
                        meta_source_rows=300, meta_rows=(40, 80), train=16, calib=10, calib_repeat=2),
    "meta-fit": dict(corpus_rows=800, models=3, train_rows=200, sets_per_model=10,
                     set_rows=(24, 64), cap_gen=32, gen_per_set=4, probe=3, meta_rounds=8),
}

WORKLOADS = tuple(SPECS)

# Unshifted targets are labelled at this accuracy; shifts push it down.
BASE_ACCURACY = 0.85
LABEL_NOISE = 0.02
MAX_SHIFT = 1.5
ALPHA = 0.1


def spec_for(workload: str, tiny: bool = False) -> dict:
    spec = dict(SPECS[workload])
    if tiny:
        spec.update(TINY[workload])
    return spec


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, *tags])


def _mixture_params(rng, dim: int, k: int) -> dict:
    return dict(
        centers=rng.normal(0.0, 1.5, (k, dim)),
        stds=np.exp(rng.uniform(math.log(0.5), math.log(2.0), (k, dim))),
        weights=rng.dirichlet(np.full(k, 5.0)),
    )


def _shifted(rng, base: dict, level: float) -> dict:
    """Translation, per-coordinate scale change and mixture reweighting,
    all growing with ``level``."""
    k, dim = base["centers"].shape
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    lam = min(1.0, level / MAX_SHIFT)
    return dict(
        centers=base["centers"] + 1.5 * level * direction,
        # Scale noise shrinks with sqrt(dim) so the drift it adds does not
        # grow with the embedding width.
        stds=base["stds"] * np.exp(rng.normal(0.0, level / np.sqrt(dim), dim)),
        weights=(1 - lam) * base["weights"] + lam * rng.dirichlet(np.ones(k)),
    )


def _sample(rng, params: dict, rows: int) -> np.ndarray:
    comp = rng.choice(len(params["weights"]), size=rows, p=params["weights"])
    out = rng.standard_normal((rows, params["centers"].shape[1]), dtype=np.float32)
    out *= params["stds"].astype(np.float32)[comp]
    out += params["centers"].astype(np.float32)[comp]
    return out


def _log_uniform_sizes(rng, count: int, lo: int, hi: int) -> list[int]:
    """Stratified log-uniform sizes in a seeded order, so every seed sees the
    same size distribution and only the draws within strata move."""
    u = (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count
    sizes = np.rint(np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))).astype(int)
    return [int(s) for s in rng.permutation(np.clip(sizes, lo, hi))]


def _levels(rng, count: int) -> list[float]:
    u = (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count
    return [float(v) for v in rng.permutation(u * MAX_SHIFT)]


def task_bias_for(features: np.ndarray) -> float:
    """Bias that labels a descriptor with these features at BASE_ACCURACY."""
    from driftgauge.synth import ACCURACY_FEATURE_SCALE, ACCURACY_WEIGHTS

    logit = math.log(BASE_ACCURACY / (1 - BASE_ACCURACY))
    return float(logit - ACCURACY_WEIGHTS @ (features / ACCURACY_FEATURE_SCALE))


def _gen_target(spec: dict, seed: int, out: str) -> dict:
    import driftgauge as dg

    dim = spec["dim"]
    base = _mixture_params(_rng(seed, 1), dim, spec["components"])
    source = dg.EmbeddingSet(_sample(_rng(seed, 2), base, spec["source_rows"]))
    dg.save_embedding_set(source, os.path.join(out, "source.fsemb"))

    cfg = dg.SWDConfig(seed=int(_rng(seed, 3).integers(2**31)))
    meta_source = dg.EmbeddingSet(source.data[: spec["meta_source_rows"]])
    unshifted = dg.EmbeddingSet(_sample(_rng(seed, 4), base, spec["meta_rows"][1]))
    bias = task_bias_for(dg.compute_delta(meta_source, unshifted, cfg).features())

    count = spec["train"] + spec["calib"]
    rng = _rng(seed, 5)
    instances = []
    for i, (rows, level) in enumerate(
        zip(_log_uniform_sizes(rng, count, *spec["meta_rows"]), _levels(rng, count))
    ):
        sample = dg.EmbeddingSet(_sample(rng, _shifted(rng, base, level), rows))
        delta = dg.compute_delta(meta_source, sample, cfg)
        # Calibration descriptors are relabelled ``calib_repeat`` times with
        # independent label noise, which keeps a 1000-line calibration set
        # cheap to generate.
        repeat = 1 if i < spec["train"] else spec["calib_repeat"]
        for r in range(repeat):
            noise_seed = (seed * 1000 + r) * 100003 + i
            acc = dg.synthetic_accuracy_fn(delta, bias, noise_seed, LABEL_NOISE)
            instances.append(dg.MetaInstance(delta, acc, "bench", f"meta{i:04d}.{r}", rows))
    params, norm, report = dg.train(
        instances[: spec["train"]], dg.TrainConfig(lr0=1e-3, seed=seed)
    )
    dg.save_model(os.path.join(out, "model.fsmlp"), params, norm, report, swd_config=cfg)
    dg.save_meta_set(instances[spec["train"]:], os.path.join(out, "calib.jsonl"))

    rng = _rng(seed, 6)
    sizes = _log_uniform_sizes(rng, spec["targets"], *spec["target_rows"])
    if spec["equal_every"]:
        # Every sixth target matches the source size: the equal-size path.
        for k in range(0, len(sizes), spec["equal_every"]):
            sizes[k] = spec["source_rows"]
    targets = []
    for k, (rows, level) in enumerate(zip(sizes, _levels(rng, len(sizes)))):
        path = os.path.join("targets", f"t{k:03d}.fsemb")
        data = _sample(rng, _shifted(rng, base, level), rows)
        dg.save_embedding_set(dg.EmbeddingSet(data), os.path.join(out, path))
        targets.append(dict(path=path, rows=rows, level=level))
    return dict(task_bias=bias, alpha=ALPHA, targets=targets)


def _gen_meta(spec: dict, seed: int, out: str) -> dict:
    import driftgauge as dg

    dim, k = spec["dim"], spec["components"]
    base = _mixture_params(_rng(seed, 1), dim, k)
    corpus = _sample(_rng(seed, 2), base, spec["corpus_rows"])
    dg.save_embedding_set(dg.EmbeddingSet(corpus), os.path.join(out, "corpus.fsemb"))
    rng = _rng(seed, 3)
    biases = []
    for m in range(spec["models"]):
        # Each base model trained on its own mildly shifted view of the corpus.
        train = _sample(rng, _shifted(rng, base, 0.5 * m / spec["models"]), spec["train_rows"])
        dg.save_embedding_set(dg.EmbeddingSet(train), os.path.join(out, f"train{m}.fsemb"))
        biases.append(float(rng.uniform(1.0, 3.0)))
    # Per-set translations turn index draws from one corpus into shifted
    # workloads with a spread of labels.
    shifts = rng.standard_normal((spec["models"], spec["sets_per_model"], dim))
    shifts *= (rng.uniform(0.0, MAX_SHIFT, shifts.shape[:2]) / np.sqrt(dim))[..., None]
    np.save(os.path.join(out, "shifts.npy"), shifts.astype(np.float32))
    return dict(
        task_biases=biases,
        swd_seed=int(rng.integers(2**31)),
        draw_seed=int(rng.integers(2**31)),
    )


def generate(workload: str, seed: int, out: str, tiny: bool = False) -> dict:
    """Write the inputs of ``workload`` for ``seed`` into ``out`` and return
    the manifest (also written as ``manifest.json``)."""
    spec = spec_for(workload, tiny)
    os.makedirs(os.path.join(out, "targets"), exist_ok=True)
    if spec["kind"] == "target":
        extra = _gen_target(spec, seed, out)
    else:
        extra = _gen_meta(spec, seed, out)
    manifest = dict(workload=workload, seed=seed, spec=spec, **extra)
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main())
