"""The four benchmark workloads and the closed-loop harness that runs one.

Each workload has a ``setup`` (timed, repeated, reported as ``setup_s``), an
``op`` (one closed-loop request from a single client; timed), an optional
``collect`` that runs after an op's clock has stopped, and a ``check`` that
runs after the timed phase and compares every op's outputs with the float64
references in ``checker``.  Every op reads freshly loaded or freshly built
arrays, so the library's id-keyed basis cache cannot serve a repeat.
Library calls go through module attributes (``dg_wl.load_embedding_set``),
which is where the traced run's wrappers sit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import statistics
import time

import numpy as np

import driftgauge.cli as dg_cli
import driftgauge.descriptors as dg_desc
import driftgauge.evaluator as dg_eval
import driftgauge.meta_learning as dg_meta
import driftgauge.meta_set as dg_ms
import driftgauge.metrics as dg_metrics
import driftgauge.synth as dg_synth
import driftgauge.workload as dg_wl
from driftgauge.errors import DriftGaugeError

import checker
import gen
import spans


def _descriptor(features: dict, digest: str):
    return dg_desc.ShiftDescriptor(config_digest=digest, **features)


def _truth(features: dict, digest: str, bias: float) -> float:
    return dg_synth.synthetic_accuracy_fn(_descriptor(features, digest), bias, 0, 0.0)


class Workload:
    def __init__(self, inputs: str, manifest: dict):
        self.inputs = inputs
        self.manifest = manifest
        self.spec = manifest["spec"]

    def path(self, name: str) -> str:
        return os.path.join(self.inputs, name)

    def collect(self, out):
        """Post-op work that must stay outside the op's clock."""
        return out


class _Targets(Workload):
    """Shared by the workloads that score target batches: reference
    descriptors are computed once per distinct target."""

    def __init__(self, inputs: str, manifest: dict):
        super().__init__(inputs, manifest)
        self.paths = [os.path.join(inputs, t["path"]) for t in manifest["targets"]]
        self.alpha = manifest["alpha"]
        self._refs: dict[int, dict] = {}

    def source_fingerprints(self) -> set:
        return {spans.fingerprint(dg_wl.load_embedding_set(self.path("source.fsemb")))}

    def reference(self, k: int, model) -> dict:
        """Float64 reference features and ground-truth accuracy of target k."""
        if k not in self._refs:
            if not self._refs:
                self._source = dg_wl.load_embedding_set(self.path("source.fsemb"))
                self._source_moments = checker.ref_moments(self._source.data, model.variance_floor)
            tgt = dg_wl.load_embedding_set(self.paths[k])
            feats = checker.ref_features(
                self._source, tgt, model.swd_config, model.variance_floor, self._source_moments
            )
            digest = model.normalizer.config_digest
            self._refs[k] = dict(
                features=feats,
                m_hat=dg_eval.predict(model.params, model.normalizer, _descriptor(feats, digest)),
                truth=_truth(feats, digest, self.manifest["task_bias"]),
                rows=tgt.n,
            )
        return self._refs[k]

    def reference_half_width(self, model) -> tuple[float, int]:
        """The split-conformal rank rule on the residuals of library
        ``predict`` over the calibration set, and that set's size."""
        calib = dg_ms.load_meta_set(self.path("calib.jsonl"))
        residuals = [
            abs(dg_eval.predict(model.params, model.normalizer, inst.delta) - inst.accuracy)
            for inst in calib
        ]
        return checker.ref_conformal(residuals, self.alpha), len(calib)

    def estimate_mae(self, m_hats: dict[int, float], model) -> float:
        return float(np.mean([abs(m - self.reference(k, model)["truth"]) for k, m in m_hats.items()]))


class MonitorWorkload(_Targets):
    """Library path: one resident model scores a stream of target batches."""

    def setup(self) -> None:
        self.model = dg_eval.load_model(self.path("model.fsmlp"))
        self.source = dg_wl.load_embedding_set(self.path("source.fsemb"))
        calib = dg_ms.load_meta_set(self.path("calib.jsonl"))
        residuals = [
            abs(dg_eval.predict(self.model.params, self.model.normalizer, inst.delta) - inst.accuracy)
            for inst in calib
        ]
        self.half_width = dg_metrics.conformal_interval(residuals, self.alpha).delta_alpha

    def op(self, i: int):
        k = i % len(self.paths)
        model = self.model
        tgt = dg_wl.load_embedding_set(self.paths[k])
        delta = dg_desc.compute_delta(self.source, tgt, model.swd_config, model.variance_floor)
        m_hat = dg_eval.predict(model.params, model.normalizer, delta)
        interval = dg_metrics.Interval(center=m_hat, half_width=self.half_width, alpha=self.alpha)
        return k, delta.to_dict(), m_hat, interval.lo, interval.hi

    def check(self, outs: list) -> tuple[list[bool], float]:
        half, _ = self.reference_half_width(self.model)
        oks, m_hats = [], {}
        for k, feats, m_hat, lo, hi in outs:
            ref = self.reference(k, self.model)
            oks.append(
                checker.features_match(feats, ref["features"])
                and checker.close(m_hat, ref["m_hat"], 0.0, checker.PREDICT_TOL)
                and checker.interval_matches(m_hat, half, lo, hi)
            )
            m_hats.setdefault(k, m_hat)
        return oks, self.estimate_mae(m_hats, self.model)


class CliWorkload(_Targets):
    """One-shot ``driftgauge predict`` per target, run in-process through
    ``driftgauge.cli.run``; every op reloads model, source and calibration
    set and writes its report."""

    def setup(self) -> None:
        # What the CLI has to do before any request: build its parser and
        # read the model, the source and the calibration set.
        dg_cli.build_parser()
        self.model = dg_eval.load_model(self.path("model.fsmlp"))
        dg_wl.load_embedding_set(self.path("source.fsemb"))
        dg_ms.load_meta_set(self.path("calib.jsonl"))
        os.makedirs(self.path("reports"), exist_ok=True)

    def _argv(self, k: int, out: str) -> list[str]:
        return [
            "predict", "--model", self.path("model.fsmlp"),
            "--source", self.path("source.fsemb"), "--target", self.paths[k],
            "--alpha", repr(self.alpha), "--calib", self.path("calib.jsonl"), "--out", out,
        ]

    def op(self, i: int):
        k = i % len(self.paths)
        out = self.path(os.path.join("reports", f"r{k:03d}.json"))
        return k, dg_cli.run(self._argv(k, out)), out

    def collect(self, out):
        k, code, path = out
        if code != 0:
            return k, code, b""
        with open(path, "rb") as fh:
            return k, code, fh.read()

    def check(self, outs: list) -> tuple[list[bool], float]:
        half, n_calib = self.reference_half_width(self.model)
        oks, m_hats, first_bytes = [], {}, {}
        for k, code, blob in outs:
            ok = code == 0
            if ok:
                report = json.loads(blob)
                ref = self.reference(k, self.model)
                m_hat = report["m_hat"]
                ok = (
                    checker.features_match(report["delta"], ref["features"])
                    and checker.close(m_hat, ref["m_hat"], 0.0, checker.PREDICT_TOL)
                    and report["delta_alpha"] == half
                    and report["interval"] == [max(0.0, m_hat - half), min(1.0, m_hat + half)]
                    and report["n_target"] == ref["rows"]
                    and report["n_calibration"] == n_calib
                    and blob == first_bytes.setdefault(k, blob)
                )
                m_hats.setdefault(k, m_hat)
            oks.append(ok)
        # Byte determinism: the same target scored again, into a fresh file.
        k = outs[0][0]
        again = self.path("reports/rerun.json")
        if dg_cli.run(self._argv(k, again)) != 0:
            oks[0] = False
        else:
            with open(again, "rb") as fh:
                oks[0] = oks[0] and fh.read() == first_bytes.get(k)
        return oks, self.estimate_mae(m_hats, self.model)


class MetaFitWorkload(Workload):
    """The evaluator's write side: label a budgeted meta-set for several
    synthetic base models, train, meta-train, adapt to a held-out model."""

    def __init__(self, inputs: str, manifest: dict):
        super().__init__(inputs, manifest)
        self.first_job = None

    def source_fingerprints(self) -> set:
        return {spans.fingerprint(es) for es in self.trains}

    def setup(self) -> None:
        self.corpus = dg_wl.load_embedding_set(self.path("corpus.fsemb"))
        self.trains = [
            dg_wl.load_embedding_set(self.path(f"train{m}.fsemb")) for m in range(self.spec["models"])
        ]
        self.shifts = np.load(self.path("shifts.npy"))

    def _sets(self, m: int):
        s = self.spec
        return dg_ms.draw_sample_sets(
            self.corpus.n, s["sets_per_model"], s["set_rows"][1], s["set_rows"][0],
            self.manifest["draw_seed"] + m,
        )

    def _sample(self, m: int, j: int, idx) -> dg_wl.EmbeddingSet:
        return dg_wl.EmbeddingSet(self.corpus.data[idx] + self.shifts[m, j])

    def op(self, i: int):
        s, biases = self.spec, self.manifest["task_biases"]
        seed = self.manifest["seed"]
        cfg = dg_desc.SWDConfig(seed=self.manifest["swd_seed"])
        ledger = dg_ms.BudgetLedger(dg_ms.CostModel(), cap_gen=s["cap_gen"])
        tasks, kept = [], []
        for m, train_set in enumerate(self.trains):
            instances = []
            for j, idx in enumerate(self._sets(m)):
                try:
                    ledger.charge(f"db{m}", "gen", s["gen_per_set"])
                except DriftGaugeError:
                    continue
                inst = dg_ms.build_meta_instance(
                    train_set, self._sample(m, j, idx), 0.0, cfg, f"model{m}", f"set{j}"
                )
                acc = dg_synth.synthetic_accuracy_fn(
                    inst.delta, biases[m], seed * 1000 + m * 100 + j, gen.LABEL_NOISE
                )
                instances.append(dataclasses.replace(inst, accuracy=acc))
                kept.append((m, j))
            tasks.append(dg_meta.MetaTask(f"model{m}", instances))
        fit_tasks, held = tasks[:-1], tasks[-1].instances
        union = [inst for task in fit_tasks for inst in task.instances]
        trained, _, _ = dg_eval.train(union, dg_eval.TrainConfig(seed=seed))
        rcfg = dg_meta.ReptileConfig(meta_rounds=s["meta_rounds"], seed=seed)
        theta, norm = dg_meta.meta_train(fit_tasks, dg_desc.NUM_FEATURES, rcfg)
        adapted = dg_meta.adapt_to_model(theta, norm, held[: s["probe"]], rcfg)
        rest = held[s["probe"]:]
        preds = [dg_eval.predict(adapted, norm, inst.delta) for inst in rest]
        truth = [dg_synth.synthetic_accuracy_fn(inst.delta, biases[-1], 0, 0.0) for inst in rest]
        digest = hashlib.sha256(
            b"".join(t.tobytes() for params in (trained, adapted) for t in params.tensors())
        ).hexdigest()
        return dict(
            kept=kept,
            features=np.stack([inst.delta.features() for task in tasks for inst in task.instances]),
            labels=[inst.accuracy for task in tasks for inst in task.instances],
            preds=preds,
            mae=dg_metrics.mae(preds, truth),
            digest=digest,
            adapted=adapted,
            norm=norm,
            config_digest=cfg.digest(),
        )

    def collect(self, out):
        # Only the first job keeps its parameters for the reference check;
        # later jobs are compared by digest, so kept outputs do not grow
        # peak RSS with the number of jobs.
        if self.first_job is None:
            self.first_job = dict(out)
        out.pop("adapted")
        out.pop("norm")
        return out

    def _first_job_ok(self, job: dict) -> bool:
        s, biases = self.spec, self.manifest["task_biases"]
        seed = self.manifest["seed"]
        per_model = s["cap_gen"] // s["gen_per_set"]
        expected = [(m, j) for m in range(s["models"]) for j in range(min(per_model, s["sets_per_model"]))]
        if job["kept"] != expected:
            return False
        cfg = dg_desc.SWDConfig(seed=self.manifest["swd_seed"])
        floor = dg_wl.DEFAULT_VARIANCE_FLOOR
        moments = [checker.ref_moments(t.data, floor) for t in self.trains]
        sets = {m: self._sets(m) for m in range(s["models"])}
        refs = []
        for row, (m, j) in enumerate(job["kept"]):
            feats = checker.ref_features(
                self.trains[m], self._sample(m, j, sets[m][j]), cfg, floor, moments[m]
            )
            label = dg_synth.synthetic_accuracy_fn(
                _descriptor(feats, job["config_digest"]), biases[m],
                seed * 1000 + m * 100 + j, gen.LABEL_NOISE,
            )
            got = dict(zip(checker.FEATURES, job["features"][row]))
            if not (checker.features_match(got, feats)
                    and checker.close(job["labels"][row], label, 0.0, checker.PREDICT_TOL)):
                return False
            refs.append((m, feats))
        rest = [feats for m, feats in refs if m == s["models"] - 1][s["probe"]:]
        want = [
            dg_eval.predict(job["adapted"], job["norm"], _descriptor(f, job["config_digest"]))
            for f in rest
        ]
        truth = [_truth(f, job["config_digest"], biases[-1]) for f in rest]
        mae = float(np.mean(np.abs(np.array(job["preds"]) - np.array(truth))))
        return (
            all(checker.close(p, w, 0.0, checker.PREDICT_TOL) for p, w in zip(job["preds"], want))
            and checker.close(job["mae"], mae)
        )

    def check(self, outs: list) -> tuple[list[bool], float]:
        first = outs[0]
        first_ok = self._first_job_ok(self.first_job)
        oks = [first_ok] + [
            first_ok
            and job["kept"] == first["kept"]
            and np.array_equal(job["features"], first["features"])
            and job["labels"] == first["labels"]
            and job["preds"] == first["preds"]
            and job["digest"] == first["digest"]
            for job in outs[1:]
        ]
        return oks, first["mae"]


WORKLOADS = {
    "monitor-d32": MonitorWorkload,
    "embed-1024": MonitorWorkload,
    "cli-predict": CliWorkload,
    "meta-fit": MetaFitWorkload,
}
# Ops run and thrown away from the timing before the timed phase.
WARMUP = {"monitor-d32": 5, "embed-1024": 1, "cli-predict": 2, "meta-fit": 1}
# Set-up is repeated at least this often, and until this many seconds.
SETUP_MIN, SETUP_SECONDS, SETUP_MAX = 5, 1.5, 100

END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
)
# Printed with their sample counts but not in the result object: the host's
# speed drifts by up to 1.5x over minutes, and the median and the mean of an
# interpreter-bound op follow the share of a run spent in each speed, so
# their spread across runs is wider than any bound could be.  The 90th
# percentile sits in the slow state in almost every run and stays steady.
UNBOUNDED = (
    ("latency_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
)


@dataclasses.dataclass
class Op:
    index: int
    wall: float
    out: object
    error: str | None = None
    phase: str = "warm-up"  # or "timed", "timing" (traced), "memory" (traced)


def _run_op(wl, i: int, rec) -> Op:
    t0 = time.perf_counter()
    span = rec.open("op") if rec is not None else None
    try:
        out, error = wl.op(i), None
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        out, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        if span is not None:
            rec.close(span)
    wall = time.perf_counter() - t0
    if error is None:
        out = wl.collect(out)
    return Op(i, wall, out, error)


def _timed_phase(wl, start: int, seconds: float, phase: str, rec=None) -> tuple[list[Op], float]:
    ops, t_start, i = [], time.perf_counter(), start
    while not ops or time.perf_counter() - t_start < seconds:
        if rec is not None:
            rec.op = i
        op = _run_op(wl, i, rec)
        op.phase = phase
        ops.append(op)
        i += 1
    return ops, time.perf_counter() - t_start


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def run_workload(name: str, inputs: str, manifest: dict, seconds: float, trace: bool,
                 trace_path: str | None = None) -> dict:
    """Set up, warm up, run the timed phase, check every op; returns the
    result object plus a human-readable report under ``lines``."""
    wl = WORKLOADS[name](inputs, manifest)
    setup_times = []
    while len(setup_times) < SETUP_MIN or (
        sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX
    ):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)

    ops = [_run_op(wl, i, None) for i in range(WARMUP[name])]
    if trace:
        # Half the time untraced, a quarter traced for timing and a quarter
        # traced with tracemalloc for peaks.  The ratio of the median op
        # walls of the first two is the tracing overhead.
        ops += _timed_phase(wl, len(ops), seconds / 2, "timed")[0]
        recorders = []
        for memory in (False, True):
            rec = spans.Recorder(memory)
            rec.install()
            try:
                ops += _timed_phase(wl, len(ops), seconds / 4, "memory" if memory else "timing", rec)[0]
            finally:
                rec.uninstall()
            recorders.append(rec)
    else:
        timed, elapsed = _timed_phase(wl, len(ops), seconds, "timed")
        ops += timed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    good = [op for op in ops if op.error is None]
    oks, estimate_mae = wl.check([op.out for op in good]) if good else ([], float("nan"))
    failed_ops = [op for op in ops if op.error is not None]
    failed_ops += [op for op, ok in zip(good, oks) if not ok]
    lines = [f"workload {name}: seed {manifest['seed']}, {len(ops)} ops attempted "
             f"({WARMUP[name]} warm-up), {len(failed_ops)} failed"]
    lines += [f"  failed op {op.index}: {op.error or 'output check'}" for op in failed_ops[:5]]

    timed_ms = [op.wall * 1e3 for op in ops if op.phase == "timed"]
    if trace:
        traced_ms = [op.wall * 1e3 for op in ops if op.phase == "timing"]
        ctx = dict(ops=len(traced_ms), sources=wl.source_fingerprints(),
                   overhead=statistics.median(traced_ms) / statistics.median(timed_ms))
        metrics = layer_metrics(*recorders, ctx)
        if trace_path:
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump(dict(workload=name, seed=manifest["seed"], metrics=metrics,
                               fields=spans.FIELDS, timing=recorders[0].rows(),
                               memory=recorders[1].rows()), fh)
            lines.append(f"  spans written to {trace_path}")
        units = dict(LAYER_UNITS)
    else:
        metrics = dict(
            setup_s=statistics.median(setup_times),
            latency_ms_p90=_percentile(timed_ms, 90),
            peak_rss_mb=peak_rss_mb,
        )
        units = dict(END_TO_END)
        unbounded = dict(
            latency_ms_p50=statistics.median(timed_ms),
            ops_per_s=len(timed_ms) / elapsed,
        )
        counts = dict(setup_s=len(setup_times), peak_rss_mb=1)
        for key in units:
            lines.append(f"  {key} = {metrics[key]:.6g} {units[key]} "
                         f"(n={counts.get(key, len(timed_ms))})")
        lines += [f"  {key} = {unbounded[key]:.6g} {unit} (n={len(timed_ms)}, unbounded)"
                  for key, unit in UNBOUNDED]
    lines.append(f"  error_rate = {len(failed_ops) / len(ops):.4g} ratio "
                 f"({len(failed_ops)} failed / {len(ops)} attempted)")
    # Deterministic under the seed but wide across seeds, so it is reported
    # as a quality guard rather than as a bounded metric.
    lines.append(f"  estimate_mae = {estimate_mae:.6g} accuracy points (unbounded quality guard)")
    if trace:
        lines += [f"  {key} = {value:.6g} {units[key]}" for key, value in metrics.items()]
    return dict(
        correct=not failed_ops,
        attempted=len(ops),
        failed=len(failed_ops),
        metrics={k: dict(value=float(v), unit=units[k]) for k, v in metrics.items()},
        lines=lines,
    )


# -- per-layer metrics of the traced run ------------------------------------

LAYER_UNITS = (
    ("workload.load_ms", "ms"),
    ("workload.load_mb_s", "MB/s"),
    ("workload.moments_ms", "ms"),
    ("workload.source_moments_per_op", "count"),
    ("descriptors.compute_delta_ms", "ms"),
    ("descriptors.mahalanobis_ms", "ms"),
    ("descriptors.build_basis_ms", "ms"),
    ("descriptors.basis_builds_per_op", "count"),
    ("descriptors.sliced_ms", "ms"),
    ("descriptors.sliced_gflop_s", "GFLOP/s"),
    ("descriptors.sliced_mb_computed", "MB"),
    ("descriptors.peak_mb", "MiB"),
    ("evaluator.predict_us", "us"),
    ("evaluator.predict_calls_per_op", "count"),
    ("evaluator.load_model_ms", "ms"),
    ("evaluator.train_ms", "ms"),
    ("evaluator.loss_and_grad_us", "us"),
    ("evaluator.adamw_step_us", "us"),
    ("meta_learning.meta_train_ms", "ms"),
    ("meta_learning.rounds_per_s", "1/s"),
    ("meta_learning.adapt_ms", "ms"),
    ("meta_set.build_instance_ms", "ms"),
    ("meta_set.load_meta_set_ms", "ms"),
    ("meta_set.ledger_rejected_ratio", "ratio"),
    ("metrics.conformal_ms", "ms"),
    ("cli.run_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metrics(rec, memory_rec, ctx: dict) -> dict:
    """Per-layer metrics from the spans of the traced ops: timings from
    ``rec``, peaks from ``memory_rec``.  ``*_ms`` is time inside that
    function per op (inclusive of its callees), ``*_us`` the median of one
    call, ``*_per_op`` a call count per op.  A layer that does not run in a
    workload reads 0."""
    by_name: dict[str, list] = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    self_times = rec.self_times()
    n = ctx["ops"]

    def named(fn):
        return by_name.get(fn, [])

    def per_op_ms(fn):
        return sum(s.duration for s in named(fn)) * 1e3 / n

    def median_us(fn):
        calls = named(fn)
        return statistics.median(s.duration for s in calls) * 1e6 if calls else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    loads = named("workload.load_embedding_set")
    sliced = named("descriptors.sliced_w2")
    flops = sum(2 * l * rows * d for rows, l, d in (s.work for s in sliced))
    # Bytes the sliced kernel moves, computed from array sizes: float32 read,
    # float64 cast written and read by the GEMM, projections written and
    # then read and written by the sort.
    moved = sum(rows * (20 * d + 24 * l) for rows, l, d in (s.work for s in sliced))
    deltas = [s for s in memory_rec.spans if s.name == "descriptors.compute_delta"]
    charges = named("meta_set.BudgetLedger.charge")
    rounds = len(named("meta_learning.reptile_outer"))
    meta_train_s = sum(s.duration for s in named("meta_learning.meta_train"))
    return {
        "workload.load_ms": per_op_ms("workload.load_embedding_set"),
        "workload.load_mb_s": ratio(sum(s.work for s in loads) / 1e6, sum(s.duration for s in loads)),
        "workload.moments_ms": per_op_ms("workload.moments"),
        "workload.source_moments_per_op": sum(
            s.work in ctx["sources"] for s in named("workload.moments")) / n,
        "descriptors.compute_delta_ms": per_op_ms("descriptors.compute_delta"),
        "descriptors.mahalanobis_ms": per_op_ms("descriptors.mahalanobis_descriptor"),
        "descriptors.build_basis_ms": per_op_ms("descriptors.build_basis"),
        "descriptors.basis_builds_per_op": len(named("descriptors.build_basis")) / n,
        "descriptors.sliced_ms": per_op_ms("descriptors.sliced_w2"),
        "descriptors.sliced_gflop_s": ratio(flops / 1e9, sum(s.duration for s in sliced)),
        "descriptors.sliced_mb_computed": moved / 1e6 / n,
        "descriptors.peak_mb": statistics.median(s.peak_bytes for s in deltas) / 2**20 if deltas else 0.0,
        "evaluator.predict_us": median_us("evaluator.predict"),
        "evaluator.predict_calls_per_op": len(named("evaluator.predict")) / n,
        "evaluator.load_model_ms": per_op_ms("evaluator.load_model"),
        "evaluator.train_ms": per_op_ms("evaluator.train"),
        "evaluator.loss_and_grad_us": median_us("evaluator.loss_and_grad"),
        "evaluator.adamw_step_us": median_us("evaluator.adamw_step"),
        "meta_learning.meta_train_ms": per_op_ms("meta_learning.meta_train"),
        "meta_learning.rounds_per_s": ratio(rounds, meta_train_s),
        "meta_learning.adapt_ms": per_op_ms("meta_learning.adapt_to_model"),
        "meta_set.build_instance_ms": per_op_ms("meta_set.build_meta_instance"),
        "meta_set.load_meta_set_ms": per_op_ms("meta_set.load_meta_set"),
        "meta_set.ledger_rejected_ratio": ratio(sum(s.failed for s in charges), len(charges)),
        "metrics.conformal_ms": per_op_ms("metrics.conformal_interval"),
        "cli.run_ms": per_op_ms("cli.run"),
        "cli.self_ms": sum(t for s, t in zip(rec.spans, self_times) if s.name == "cli.run") * 1e3 / n,
        "trace.overhead_ratio": ctx["overhead"],
    }
