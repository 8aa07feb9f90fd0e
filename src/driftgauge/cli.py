"""Command-line front end.

One subcommand per workflow stage: descriptor computation, evaluator
training, prediction with intervals, meta-learning, budget planning, synth
data generation, benchmarking, and metric computation.  Every output is
written atomically (temp file + rename) and embeds the effective
configuration and master seed, so re-running a command with identical inputs
and seed reproduces its outputs byte for byte.  Exit codes: 0 success, 1
domain error (machine-readable JSON on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import FINITE, NON_NEGATIVE, OPEN_UNIT, POSITIVE, RunConfig, load_run_config, require
from .descriptors import NUM_FEATURES, compute_delta
from .errors import (BadMagic, ConfigMismatch, DriftGaugeError, InvalidValue, IoFailure,
                     MissingFile, ParseError)
from .evaluator import load_model, predict, save_model, train
from .meta_learning import MetaTask, adapt_to_model, meta_train
from .meta_set import (
    BudgetLedger,
    MetaInstance,
    build_meta_instance,
    jsonl_records,
    line_records,
    load_meta_set,
    plan_budget,
    save_meta_set,
    worst_case_bound,
)
from .metrics import Interval, conformal_interval, exact_match, mae
from .seeding import spawn_seed
from .synth import (
    GaussianWorkloadSpec,
    bench_swd,
    gen_gaussian_workload,
    shift_family,
    synthetic_accuracy_fn,
)
from .workload import EmbeddingSet, _atomic_write, load_embedding_set, save_embedding_set


def _write_json(path: str, payload: dict) -> None:
    blob = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _atomic_write(path, blob.encode("utf-8"))


def _config_from(args) -> RunConfig:
    overrides = list(args.set or [])
    if getattr(args, "seed", None) is not None:
        overrides.append(f"run.seed={args.seed}")
    return load_run_config(args.config, overrides)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="run configuration file")
    parser.add_argument(
        "--set",
        action="append",
        metavar="SECTION.KEY=VALUE",
        help="override one config value (repeatable)",
    )
    parser.add_argument("--seed", type=int, help="master seed (shorthand for run.seed)")


def _cmd_descriptors_compute(args) -> int:
    rc = _config_from(args)
    src = load_embedding_set(args.source)
    tgt = load_embedding_set(args.target)
    delta = compute_delta(src, tgt, rc.swd_config(), rc.variance_floor)
    payload = delta.to_dict()
    payload["n_source"] = src.n
    payload["n_target"] = tgt.n
    payload["provenance"] = rc.provenance()
    _write_json(args.out, payload)
    return 0


def _require_digest(instances, expected: str, path: str) -> None:
    """ConfigMismatch naming ``path`` if some instance's descriptors were not
    computed under the configuration with digest ``expected``."""
    if any(inst.delta.config_digest != expected for inst in instances):
        raise ConfigMismatch(f"{path}: descriptors were not computed under the supplied config/seed")


def _cmd_train(args) -> int:
    rc = _config_from(args)
    meta = load_meta_set(args.meta_set)
    swd_cfg = rc.swd_config()
    _require_digest(meta, swd_cfg.digest(rc.variance_floor), args.meta_set)
    params, norm, report = train(meta, rc.train_config())
    save_model(
        args.out,
        params,
        norm,
        train_report=report,
        swd_config=swd_cfg,
        variance_floor=rc.variance_floor,
        seed=rc.seed,
    )
    print(
        json.dumps(
            {"best_val_mae": report.best_val_mae, "epochs_run": report.epochs_run,
             "stopped_early": report.stopped_early, "out": args.out},
            sort_keys=True,
        )
    )
    return 0


def _cmd_predict(args) -> int:
    rc = _config_from(args)
    alpha = rc.alpha if args.alpha is None else args.alpha
    require("--alpha", OPEN_UNIT, alpha)
    model = load_model(args.model)
    if args.config or args.set or args.seed is not None:
        supplied = rc.swd_config().digest(rc.variance_floor)
        if supplied != model.normalizer.config_digest:
            raise ConfigMismatch(
                "model was trained under a different descriptor configuration"
            )
    if model.swd_config is None:
        raise ConfigMismatch("model file carries no descriptor configuration")
    src = load_embedding_set(args.source)
    tgt = load_embedding_set(args.target)
    delta = compute_delta(src, tgt, model.swd_config, model.variance_floor)
    calib = load_meta_set(args.calib)
    # Statistics that overflow give NaN, refused once below, not warned per call.
    with np.errstate(all="ignore"):
        m_hat = predict(model.params, model.normalizer, delta)
        residuals = [
            abs(predict(model.params, model.normalizer, inst.delta) - inst.accuracy)
            for inst in calib
        ]
    if not all(map(math.isfinite, [m_hat, *residuals])):
        raise BadMagic(f"{args.model}: the model gives a non-finite estimate")
    delta_alpha, insufficient = conformal_interval(residuals, alpha)
    interval = Interval(center=m_hat, half_width=delta_alpha, alpha=alpha)
    payload = {
        "m_hat": m_hat,
        "delta_alpha": delta_alpha,
        "alpha": alpha,
        "interval": [interval.lo, interval.hi],
        "config_digest": model.normalizer.config_digest,
        "n_target": tgt.n,
        "n_calibration": len(residuals),
        "insufficient_calibration": insufficient,
        "delta": delta.to_dict(),
        "provenance": rc.provenance(),
    }
    _write_json(args.out, payload)
    return 0


def _files_in(directory: str, suffix: str) -> list[str]:
    """Sorted paths of the files in ``directory`` ending in ``suffix``; a
    missing directory is MissingFile."""
    if not os.path.isdir(directory):
        raise MissingFile(directory)
    return sorted(os.path.join(directory, f) for f in os.listdir(directory) if f.endswith(suffix))


def _group_tasks(instances: list[MetaInstance]) -> list[MetaTask]:
    by_id: dict[str, list[MetaInstance]] = {}
    for inst in instances:
        by_id.setdefault(inst.task_id, []).append(inst)
    return [MetaTask(task_id=tid, instances=tuple(by_id[tid])) for tid in sorted(by_id)]


def _cmd_meta_train(args) -> int:
    rc = _config_from(args)
    files = _files_in(args.tasks, ".jsonl")
    if not files:
        raise ParseError(f"no .jsonl task files in {args.tasks}")
    swd_cfg = rc.swd_config()
    expected = swd_cfg.digest(rc.variance_floor)
    instances = []
    for f in files:
        task_set = load_meta_set(f)
        _require_digest(task_set, expected, f)
        instances += task_set
    tasks = _group_tasks(instances)
    theta, norm = meta_train(tasks, NUM_FEATURES, rc.reptile_config())
    save_model(
        args.out,
        theta,
        norm,
        swd_config=swd_cfg,
        variance_floor=rc.variance_floor,
        meta_init=True,
        seed=rc.seed,
    )
    print(json.dumps({"tasks": len(tasks), "instances": len(instances), "out": args.out}, sort_keys=True))
    return 0


def _cmd_adapt(args) -> int:
    rc = _config_from(args)
    model = load_model(args.init)
    probe = load_meta_set(args.probe)
    _require_digest(probe, model.normalizer.config_digest, args.probe)
    theta = adapt_to_model(model.params, model.normalizer, probe, rc.reptile_config())
    save_model(
        args.out,
        theta,
        model.normalizer,
        swd_config=model.swd_config,
        variance_floor=model.variance_floor,
        meta_init=False,
        seed=rc.seed,
    )
    print(json.dumps({"probe_instances": len(probe), "out": args.out}, sort_keys=True))
    return 0


def _cmd_budget_plan(args) -> int:
    rc = _config_from(args)
    # Counts are scaled by float costs, so each must also fit in a float.
    require("--n-pairs", NON_NEGATIVE, args.n_pairs)
    require("--n-pairs", FINITE, args.n_pairs)
    if args.db_count is not None:
        require("--db-count", NON_NEGATIVE, args.db_count)
        require("--db-count", FINITE, args.db_count)
    cm = rc.cost_model()
    plan = plan_budget(cm, args.n_pairs)
    # Finite costs and counts can still overflow (or give 0 * inf) in products.
    require("the cost per pair", FINITE, plan.cost_per_pair)
    require("the expected cost", FINITE, plan.expected_cost)
    payload = plan.to_dict()
    payload["expected_cost_rounded"] = round(plan.expected_cost, 2)
    payload["summary"] = (
        f"expected_cost={plan.expected_cost:.2f} budget={plan.budget:.2f} "
        f"{'feasible' if plan.feasible else 'infeasible'}"
    )
    if args.db_count is not None:
        cap_gen, cap_exec = rc.get("budget", "cap_gen"), rc.get("budget", "cap_exec")
        require("budget.cap_gen", FINITE, cap_gen)
        require("budget.cap_exec", FINITE, cap_exec)
        bound = worst_case_bound(cm, args.db_count, cap_gen, cap_exec)
        require("the worst-case bound", FINITE, bound)
        payload["worst_case_bound"] = round(bound, 2)
        payload["worst_case_feasible"] = bound <= cm.total_budget
    payload["provenance"] = rc.provenance()
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        _write_json(args.out, payload)
    return 0


def _cmd_budget_ledger(args) -> int:
    rc = _config_from(args)
    ledger = BudgetLedger(
        rc.cost_model(),
        cap_gen=rc.get("budget", "cap_gen"),
        cap_exec=rc.get("budget", "cap_exec"),
    )
    rejected = []
    accepted = 0
    requests = jsonl_records(
        args.charges, lambda req: (str(req["db_id"]), str(req["kind"]), int(req["count"]))
    )
    for lineno, (db_id, kind, count) in requests:
        try:
            ledger.charge(db_id, kind, count)
            accepted += 1
        except DriftGaugeError as exc:
            rejected.append({"line": lineno, **exc.payload()})
        except ValueError as exc:
            # An unknown kind or a non-positive count is a malformed line.
            raise ParseError(f"{args.charges}, line {lineno}: {exc}") from exc
    payload = ledger.snapshot()
    payload["accepted_charges"] = accepted
    payload["rejected_charges"] = rejected
    payload["provenance"] = rc.provenance()
    _write_json(args.out, payload)
    print(json.dumps({"accepted": accepted, "rejected": len(rejected), "total_cost": ledger.total_cost}, sort_keys=True))
    return 0


def _numbers(raw: str, what: str, kind=int) -> list:
    """The entries of a comma-separated list; a bad entry or an empty list
    is a ParseError."""
    try:
        values = [kind(p) for p in raw.split(",") if p]
    except ValueError as exc:
        raise ParseError(f"{what} {raw!r}: {exc}") from exc
    if not values:
        raise ParseError(f"{what} {raw!r}: no entries")
    return values


def _parse_sizes(raw: str) -> list[tuple[int, int, int]]:
    sizes = []
    for chunk in raw.split(";"):
        parts = _numbers(chunk.strip(), "--sizes chunk")
        if len(parts) != 3:
            raise ParseError(f"--sizes chunk {chunk!r}: expected n,m,D")
        require(f"--sizes chunk {chunk!r}: every entry", POSITIVE, *parts)
        sizes.append(tuple(parts))
    return sizes


def _cmd_bench_swd(args) -> int:
    rc = _config_from(args)
    sizes = _parse_sizes(args.sizes)
    slice_counts = _numbers(args.slices, "--slices")
    require("--trials", POSITIVE, args.trials)
    require("--slices: every entry", POSITIVE, *slice_counts)
    k_pca = rc.get("swd", "k_pca")
    if args.mode == "hybrid" and min(slice_counts) <= k_pca:
        raise InvalidValue(f"--slices: hybrid mode needs more than k_pca={k_pca} slices")
    result = bench_swd(
        sizes=sizes,
        slice_counts=slice_counts,
        mode=args.mode,
        trials=args.trials,
        seed=spawn_seed(rc.seed, 14),
        k_pca=k_pca,
        quantiles=rc.swd_config().quantiles,
    )
    if args.out_csv:
        result.write_csv(args.out_csv)
    if args.out_json:
        result.write_json(args.out_json)
    for row in result.summary():
        print(json.dumps(row, sort_keys=True))
    return 0


def _synth_spec(args, shift: float) -> GaussianWorkloadSpec:
    require("--dim", POSITIVE, args.dim)
    require("--count", POSITIVE, args.count)
    require("--stddev", POSITIVE, args.stddev)
    require("--stddev", FINITE, args.stddev)
    mean = np.zeros(args.dim)
    mean[0] = shift
    return GaussianWorkloadSpec(
        dim=args.dim,
        count=args.count,
        mean=mean,
        stddev=np.full(args.dim, args.stddev),
    )


def _gen_synth(spec: GaussianWorkloadSpec, seed: int, flags: str) -> EmbeddingSet:
    """Generate ``spec``'s set under ``seed``; values beyond the float32
    range are ``InvalidValue`` naming ``flags``."""
    try:
        return gen_gaussian_workload(spec, seed)
    except ValueError as exc:
        raise InvalidValue(f"{flags}: {exc}") from None


def _save_synth(es: EmbeddingSet, seed: int, rc: RunConfig, path: str) -> None:
    """Save a set generated under ``seed``; the sidecar names both that seed
    and the master seed."""
    save_embedding_set(es, path, pooling="synthetic-gaussian",
                       source_id=f"gaussian-d{es.dim}-seed{seed};master_seed={rc.seed}")


def _cmd_synth_gen(args) -> int:
    rc = _config_from(args)
    require("--mean-shift", FINITE, args.mean_shift)
    spec = _synth_spec(args, args.mean_shift)
    seed = spawn_seed(rc.seed, 15)
    es = _gen_synth(spec, seed, f"--mean-shift {args.mean_shift} with --stddev {args.stddev}")
    _save_synth(es, seed, rc, args.out)
    print(json.dumps({"n": spec.count, "dim": spec.dim, "out": args.out}, sort_keys=True))
    return 0


def _cmd_synth_family(args) -> int:
    rc = _config_from(args)
    shifts = _numbers(args.shifts, "--shifts", float)
    require("--shifts: every entry", FINITE, *shifts)
    if shifts != sorted(shifts):
        raise InvalidValue(f"--shifts must be ascending, got {args.shifts!r}")
    base = _synth_spec(args, 0.0)
    # Every set is generated, and so checked, before the first is written.
    flags = f"--shifts {args.shifts} with --stddev {args.stddev}"
    seeds = [spawn_seed(rc.seed, 16, i) for i in range(len(shifts))]
    sets = [_gen_synth(spec, seed, flags) for spec, seed in zip(shift_family(base, shifts), seeds)]
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {args.out_dir}: {exc}") from exc
    written = []
    for i, (es, seed) in enumerate(zip(sets, seeds)):
        path = os.path.join(args.out_dir, f"shift_{i:03d}.fsemb")
        _save_synth(es, seed, rc, path)
        written.append({"shift": shifts[i], "path": path})
    print(json.dumps({"written": written}, sort_keys=True))
    return 0


def _cmd_synth_label(args) -> int:
    rc = _config_from(args)
    require("--task-bias", FINITE, args.task_bias)
    require("--noise-scale", NON_NEGATIVE, args.noise_scale)
    require("--noise-scale", FINITE, args.noise_scale)
    train_set = load_embedding_set(args.train)
    if args.samples_dir:
        sample_paths = _files_in(args.samples_dir, ".fsemb")
    else:
        sample_paths = [p for p in args.samples.split(";") if p]
    if not sample_paths:
        raise ParseError("no sample sets given")
    swd_cfg = rc.swd_config()
    instances = []
    for i, path in enumerate(sample_paths):
        inst = build_meta_instance(train_set, load_embedding_set(path), 0.0, swd_cfg,
                                   args.task_id, os.path.basename(path), rc.variance_floor)
        acc = synthetic_accuracy_fn(
            inst.delta, args.task_bias, spawn_seed(rc.seed, 17, i), args.noise_scale
        )
        instances.append(replace(inst, accuracy=acc))
    save_meta_set(instances, args.out)
    print(json.dumps({"instances": len(instances), "out": args.out}, sort_keys=True))
    return 0


def _paired_lines(args, parse=str) -> tuple[list, list]:
    """``parse`` of the non-blank lines of ``--pred`` and ``--gold``, paired
    by line number.  Both files are parsed in full first (see
    :func:`line_records`); then a line blank in one file only, or two files
    without a record, is a ParseError."""
    pred = dict(line_records(args.pred, parse))
    gold = dict(line_records(args.gold, parse))
    if pred.keys() != gold.keys():
        lineno = min(pred.keys() ^ gold.keys())
        blank, other = (args.gold, args.pred) if lineno in pred else (args.pred, args.gold)
        raise ParseError(f"{blank}, line {lineno}: blank, but not in {other}")
    if not pred:
        raise ParseError(f"{args.pred} and {args.gold}: no records")
    return list(pred.values()), list(gold.values())


def _finite_float(line: str) -> float:
    value = float(line)
    if not math.isfinite(value):
        raise ValueError(f"{line!r} is not a finite number")
    return value


def _cmd_metrics_mae(args) -> int:
    pred, gold = _paired_lines(args, _finite_float)
    with np.errstate(over="ignore"):
        value = mae(pred, gold)
    require(f"the mae of {args.pred} and {args.gold}", FINITE, value)
    payload = {"mae": value, "n": len(pred)}
    print(json.dumps(payload, sort_keys=True))
    if args.out:
        _write_json(args.out, payload)
    return 0


def _cmd_metrics_em(args) -> int:
    pred, gold = _paired_lines(args)
    verdicts = [exact_match(p, g) for p, g in zip(pred, gold)]
    payload = {"em": float(np.mean(verdicts)), "n": len(verdicts)}
    print(json.dumps(payload, sort_keys=True))
    if args.out_csv:
        rows = "index,em\n" + "".join(f"{i},{v}\n" for i, v in enumerate(verdicts))
        _atomic_write(args.out_csv, rows.encode("utf-8"))
    if args.out:
        _write_json(args.out, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftgauge",
        description="Label-free accuracy estimation from embedding-distribution shift.",
    )
    parser.add_argument("--version", action="version", version=f"driftgauge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_desc = sub.add_parser("descriptors", help="shift-descriptor operations")
    desc_sub = p_desc.add_subparsers(dest="subcommand", required=True)
    p = desc_sub.add_parser("compute", help="compute the shift vector between two sets")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_descriptors_compute)

    p = sub.add_parser("train", help="train the accuracy evaluator on a meta-set")
    p.add_argument("--meta-set", required=True, dest="meta_set")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="estimate accuracy on an unlabeled target workload")
    p.add_argument("--model", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--calib", required=True, help="JSONL of labeled calibration instances")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("meta-train", help="learn an adaptable evaluator initialization")
    p.add_argument("--tasks", required=True, help="directory of per-task .jsonl files")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_meta_train)

    p = sub.add_parser("adapt", help="adapt a meta-initialization to a new base model")
    p.add_argument("--init", required=True)
    p.add_argument("--probe", required=True, help="JSONL of labeled probe instances")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_adapt)

    p_budget = sub.add_parser("budget", help="meta-set cost planning and accounting")
    budget_sub = p_budget.add_subparsers(dest="subcommand", required=True)
    p = budget_sub.add_parser("plan", help="expected-cost feasibility for N accepted pairs")
    p.add_argument("--n-pairs", type=int, required=True, dest="n_pairs")
    p.add_argument("--db-count", type=int, default=None, dest="db_count",
                   help="also report the worst-case bound for this many databases")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=_cmd_budget_plan)
    p = budget_sub.add_parser("ledger", help="replay a charge log against caps and budget")
    p.add_argument("--charges", required=True, help="JSONL of {db_id, kind, count}")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_budget_ledger)

    p_bench = sub.add_parser("bench", help="performance benchmarks")
    bench_sub = p_bench.add_subparsers(dest="subcommand", required=True)
    p = bench_sub.add_parser("swd", help="sliced-distance latency vs slice count")
    p.add_argument("--sizes", required=True, help="n,m,D[;n,m,D...]")
    p.add_argument("--slices", required=True, help="comma-separated slice counts")
    p.add_argument("--mode", choices=["all_random", "hybrid"], default="all_random")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--out-csv", dest="out_csv")
    p.add_argument("--out-json", dest="out_json")
    _add_common(p)
    p.set_defaults(func=_cmd_bench_swd)

    p_synth = sub.add_parser("synth", help="synthetic workload generation")
    synth_sub = p_synth.add_subparsers(dest="subcommand", required=True)
    p = synth_sub.add_parser("gen", help="one Gaussian workload")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--mean-shift", type=float, default=0.0, dest="mean_shift")
    p.add_argument("--stddev", type=float, default=1.0)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_synth_gen)
    p = synth_sub.add_parser("family", help="workloads at increasing mean shifts")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--shifts", required=True, help="comma-separated ascending shifts")
    p.add_argument("--stddev", type=float, default=1.0)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    _add_common(p)
    p.set_defaults(func=_cmd_synth_family)
    p = synth_sub.add_parser("label", help="build a labeled meta-set from sample sets")
    p.add_argument("--train", required=True, help="training-workload .fsemb")
    p.add_argument("--samples", default="", help="semicolon-separated sample .fsemb paths")
    p.add_argument("--samples-dir", default=None, dest="samples_dir")
    p.add_argument("--task-id", default="task0", dest="task_id")
    p.add_argument("--task-bias", type=float, default=2.0, dest="task_bias")
    p.add_argument("--noise-scale", type=float, default=0.0, dest="noise_scale")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_synth_label)

    p_metrics = sub.add_parser("metrics", help="accuracy and error metrics")
    metrics_sub = p_metrics.add_subparsers(dest="subcommand", required=True)
    p = metrics_sub.add_parser("mae", help="mean absolute error between two value files")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_metrics_mae)
    p = metrics_sub.add_parser("em", help="exact-match rate between two SQL files")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out")
    p.add_argument("--out-csv", dest="out_csv")
    p.set_defaults(func=_cmd_metrics_em)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except DriftGaugeError as exc:
        sys.stderr.write(json.dumps(exc.payload(), sort_keys=True) + "\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
