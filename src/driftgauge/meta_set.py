"""Supervision meta-set construction under an explicit cost budget.

A meta instance pairs the shift descriptor between a training workload and a
sampled workload with the accuracy observed on that sample.  This module
handles the accounting (per-database generation/execution caps plus a global
spend bound, tracked in exact integer cost units), the sample-set drawing
(log-uniform sizes, without-replacement indices, independent per-set
streams), and the JSONL persistence of meta instances.  Accuracy labels are
always supplied from outside; nothing here runs a model.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .descriptors import SWDConfig, ShiftDescriptor, compute_delta
from .errors import (
    PARSE_FAILURES,
    BudgetExhausted,
    CapExceeded,
    InvalidBounds,
    InvalidValue,
    ParseError,
)
from .seeding import rng_for
from .workload import DEFAULT_VARIANCE_FLOOR, EmbeddingSet, _atomic_write, _read_file

# One cost unit is 1e-7 currency; integer arithmetic keeps ledger
# conservation exact over millions of charges.
COST_UNIT = 1e-7

# Default per-database caps and charge granularity.
DEFAULT_CAP_GEN = 160
DEFAULT_CAP_EXEC = 40
DEFAULT_BATCH = 24

CHARGE_KINDS = ("gen", "val", "exec")


def _to_units(cost: float, what: str) -> int:
    scaled = cost / COST_UNIT
    if not math.isfinite(scaled) or abs(cost - round(scaled) * COST_UNIT) > 1e-12:
        raise InvalidValue(f"{what}={cost} is not representable in {COST_UNIT} units")
    return round(scaled)


@dataclass(frozen=True)
class CostModel:
    """Per-sample costs, expected-count multipliers, and the total budget."""

    c_gen: float = 0.00012
    c_val: float = 0.00003
    c_exec: float = 0.0004
    gen_multiplier: float = 1.05
    val_multiplier: float = 1.05
    exec_multiplier: float = 0.10
    total_budget: float = 1000.0

    def __post_init__(self):
        for name in ("c_gen", "c_val", "c_exec", "gen_multiplier", "val_multiplier", "exec_multiplier"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.total_budget <= 0:
            raise ValueError("total_budget must be positive")


@dataclass(frozen=True)
class BudgetPlan:
    expected_cost: float
    budget: float
    feasible: bool
    cost_per_pair: float
    n_pairs: int

    def to_dict(self) -> dict:
        return {
            "expected_cost": self.expected_cost,
            "budget": self.budget,
            "feasible": self.feasible,
            "cost_per_pair": self.cost_per_pair,
            "n_pairs": self.n_pairs,
        }


def plan_budget(cm: CostModel, n_pairs: int) -> BudgetPlan:
    """Expected spend for ``n_pairs`` accepted pairs and its feasibility.

    Expected per-kind totals are the pair count scaled by the corresponding
    multiplier; generation and validation multipliers are separate knobs even
    though typical instantiations make them coincide.
    """
    if n_pairs < 0:
        raise ValueError("n_pairs must be non-negative")
    per_pair = (
        cm.gen_multiplier * cm.c_gen
        + cm.val_multiplier * cm.c_val
        + cm.exec_multiplier * cm.c_exec
    )
    expected = n_pairs * per_pair
    return BudgetPlan(
        expected_cost=expected,
        budget=cm.total_budget,
        feasible=expected <= cm.total_budget,
        cost_per_pair=per_pair,
        n_pairs=n_pairs,
    )


def worst_case_bound(cm: CostModel, db_count: int, cap_gen: int, cap_exec: int) -> float:
    """Spend ceiling if every database hits both caps (validation is charged
    once per generated candidate)."""
    if db_count < 0 or cap_gen < 0 or cap_exec < 0:
        raise ValueError("counts must be non-negative")
    return db_count * (cap_gen * (cm.c_gen + cm.c_val) + cap_exec * cm.c_exec)


class BudgetLedger:
    """Serialized single-writer cost ledger with per-database caps.

    Every charge either commits atomically (counters plus running total) or
    raises, leaving the state untouched.  Totals are integer cost units, so
    conservation holds exactly for any charge sequence.
    """

    def __init__(
        self,
        cm: CostModel,
        cap_gen: int = DEFAULT_CAP_GEN,
        cap_exec: int = DEFAULT_CAP_EXEC,
    ):
        if cap_gen < 0 or cap_exec < 0:
            raise ValueError("caps must be non-negative")
        self.cost_model = cm
        self.cap_gen = cap_gen
        self.cap_exec = cap_exec
        self._rates = {
            "gen": _to_units(cm.c_gen, "c_gen"),
            "val": _to_units(cm.c_val, "c_val"),
            "exec": _to_units(cm.c_exec, "c_exec"),
        }
        self._budget_units = _to_units(cm.total_budget, "total_budget")
        self._counts: dict[str, dict[str, int]] = {}
        self._total_units = 0

    @property
    def total_cost(self) -> float:
        return self._total_units * COST_UNIT

    @property
    def total_units(self) -> int:
        return self._total_units

    def counts(self, db_id: str) -> dict[str, int]:
        return dict(self._counts.get(db_id, {k: 0 for k in CHARGE_KINDS}))

    def charge(self, db_id: str, kind: str, count: int) -> None:
        """Commit ``count`` samples of ``kind`` against ``db_id`` or raise.

        gen and exec are capped per database; val is bounded only by the
        global budget.
        """
        if kind not in CHARGE_KINDS:
            raise ValueError(f"unknown charge kind {kind!r}")
        if count < 1:
            raise ValueError("count must be positive")
        row = self._counts.get(db_id, {k: 0 for k in CHARGE_KINDS})
        if kind == "gen" and row["gen"] + count > self.cap_gen:
            raise CapExceeded(db_id, kind)
        if kind == "exec" and row["exec"] + count > self.cap_exec:
            raise CapExceeded(db_id, kind)
        cost_units = count * self._rates[kind]
        if self._total_units + cost_units > self._budget_units:
            raise BudgetExhausted(
                f"charge of {cost_units * COST_UNIT:.7f} would exceed budget "
                f"{self._budget_units * COST_UNIT:.2f}"
            )
        row = dict(row)
        row[kind] += count
        self._counts[db_id] = row
        self._total_units += cost_units

    def recomputed_units(self) -> int:
        """Total recomputed from scratch; equals ``total_units`` exactly."""
        return sum(
            row[kind] * self._rates[kind]
            for row in self._counts.values()
            for kind in CHARGE_KINDS
        )

    def snapshot(self) -> dict:
        return {
            "per_database": {db: dict(row) for db, row in sorted(self._counts.items())},
            "caps": {"gen": self.cap_gen, "exec": self.cap_exec},
            "rates": {k: v * COST_UNIT for k, v in self._rates.items()},
            "total_cost": self.total_cost,
            "budget": self._budget_units * COST_UNIT,
        }


@dataclass(frozen=True)
class MetaInstance:
    """One supervision pair: shift descriptor plus observed accuracy, tagged
    with its base model and sample set."""

    delta: ShiftDescriptor
    accuracy: float
    task_id: str
    sample_set_id: str
    sample_set_size: int

    def __post_init__(self):
        if not 0 <= self.accuracy <= 1:
            raise ValueError(f"accuracy must lie in [0, 1], got {self.accuracy}")
        if self.sample_set_size < 1:
            raise ValueError("sample_set_size must be positive")

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "sample_set_id": self.sample_set_id,
            "sample_set_size": self.sample_set_size,
            "delta": self.delta.to_dict(),
            "accuracy": self.accuracy,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetaInstance":
        return cls(
            delta=ShiftDescriptor.from_dict(d["delta"]),
            accuracy=float(d["accuracy"]),
            task_id=str(d["task_id"]),
            sample_set_id=str(d["sample_set_id"]),
            sample_set_size=int(d["sample_set_size"]),
        )


def draw_sample_sets(
    corpus_size: int,
    n_sets: int,
    max_size: int,
    min_size: int,
    seed: int,
) -> list[np.ndarray]:
    """Index sets with log-uniform sizes in [min_size, max_size], drawn
    without replacement within a set and independently across sets (each set
    gets its own stream derived from the master seed)."""
    if not 1 <= min_size <= max_size <= corpus_size:
        raise InvalidBounds(
            f"need 1 <= min_size <= max_size <= corpus_size, got "
            f"({min_size}, {max_size}, {corpus_size})"
        )
    if n_sets < 0:
        raise ValueError("n_sets must be non-negative")
    sets = []
    for i in range(n_sets):
        rng = rng_for(seed, 301, i)
        size = int(round(math.exp(rng.uniform(math.log(min_size), math.log(max_size)))))
        size = min(max(size, min_size), max_size)
        sets.append(rng.choice(corpus_size, size=size, replace=False))
    return sets


def build_meta_instance(
    train_set: EmbeddingSet,
    sample_set: EmbeddingSet,
    accuracy: float,
    cfg: SWDConfig,
    task_id: str,
    sample_set_id: str,
    variance_floor: float = DEFAULT_VARIANCE_FLOOR,
) -> MetaInstance:
    """Descriptor from (train, sample) plus the externally supplied label."""
    delta = compute_delta(train_set, sample_set, cfg, variance_floor)
    return MetaInstance(
        delta=delta,
        accuracy=accuracy,
        task_id=task_id,
        sample_set_id=sample_set_id,
        sample_set_size=sample_set.n,
    )


def save_meta_set(instances, path: str | os.PathLike) -> None:
    """One JSON object per line."""
    lines = "".join(
        json.dumps(inst.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        for inst in instances
    )
    _atomic_write(os.fspath(path), lines.encode("utf-8"))


def line_records(path: str | os.PathLike, parse):
    """Yield ``(line_number, parse(line))`` for every non-blank line, newline
    stripped, in file order, split as a text-mode file splits them.  The
    file is read by :func:`~driftgauge.workload._read_file`, so no regular
    file to read is MissingFile and a failed read IoFailure.  Text that is
    not UTF-8, or a line that ``parse`` rejects with one of
    ``PARSE_FAILURES``, is a ParseError naming the file (and the line)."""
    path = os.fspath(path)
    lines = io.TextIOWrapper(io.BytesIO(_read_file(path)), encoding="utf-8")
    try:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = parse(line.rstrip("\n"))
            except PARSE_FAILURES as exc:
                raise ParseError(f"{path}, line {lineno}: {exc!r}") from exc
            yield lineno, record
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def jsonl_records(path: str | os.PathLike, parse):
    """:func:`line_records` of ``parse`` on the JSON value of each line; a
    line that is not JSON is a ParseError as well."""
    return line_records(path, lambda line: parse(json.loads(line)))


def load_meta_set(path: str | os.PathLike) -> list[MetaInstance]:
    """One instance per non-blank line; a missing file is MissingFile and a
    bad line a ParseError naming it."""
    return [inst for _, inst in jsonl_records(path, MetaInstance.from_dict)]
