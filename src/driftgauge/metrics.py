"""Ground-truth accuracy metrics, evaluator error, and conformal intervals.

Exact match compares canonicalized SQL strings.  The conformal half-width
uses the finite-sample split-conformal rank rule on held-out absolute
residuals.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EmptyInput, LengthMismatch

# Keywords are upper-cased during canonicalization; identifiers and string
# literals keep their spelling.
SQL_KEYWORDS = frozenset(
    """
    select from where group by having order limit offset join inner outer left
    right full cross on as and or not in exists between like is null distinct
    union intersect except all any case when then else end insert into values
    update set delete create table view index primary key foreign references
    asc desc with count sum avg min max cast coalesce nullif substr length
    abs round upper lower trim replace using natural
    """.split()
)

_WORD = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _split_literals(sql: str) -> list[tuple[bool, str]]:
    """Split into (is_literal, text) segments; quoted spans (single or double
    quotes, with doubled-quote escapes) are kept verbatim."""
    segments = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch in ("'", '"'):
            j = i + 1
            while j < n:
                if sql[j] == ch:
                    if j + 1 < n and sql[j + 1] == ch:
                        j += 2
                        continue
                    break
                j += 1
            end = min(j + 1, n)
            segments.append((True, sql[i:end]))
            i = end
        else:
            j = i
            while j < n and sql[j] not in ("'", '"'):
                j += 1
            segments.append((False, sql[i:j]))
            i = j
    return segments


def canonical_sql(sql: str) -> str:
    """Collapse whitespace runs, upper-case keywords outside string literals,
    trim, and strip one trailing semicolon."""
    parts = []
    for is_literal, text in _split_literals(sql):
        if is_literal:
            parts.append(text)
            continue
        text = re.sub(r"\s+", " ", text)
        text = _WORD.sub(
            lambda m: m.group(0).upper() if m.group(0).lower() in SQL_KEYWORDS else m.group(0),
            text,
        )
        parts.append(text)
    out = "".join(parts).strip()
    if out.endswith(";"):
        out = out[:-1].rstrip()
    return out


def exact_match(pred: str, gold: str) -> int:
    """1 iff the canonical forms coincide."""
    if not pred or not gold:
        raise ValueError("pred and gold must be non-empty strings")
    return int(canonical_sql(pred) == canonical_sql(gold))


def mae(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Mean absolute difference between two equal-length sequences."""
    p = np.asarray(predicted, dtype=np.float64)
    a = np.asarray(actual, dtype=np.float64)
    if p.shape != a.shape or p.ndim != 1:
        raise LengthMismatch(f"shapes {p.shape} vs {a.shape}")
    if p.size == 0:
        raise EmptyInput("mae over empty sequences is undefined")
    return float(np.mean(np.abs(p - a)))


class ConformalResult(NamedTuple):
    delta_alpha: float
    insufficient: bool


def conformal_interval(residuals: Sequence[float], alpha: float) -> ConformalResult:
    """Split-conformal half-width: the ceil((m+1)(1-alpha))-th smallest
    calibration residual.  When that rank exceeds m the maximum residual is
    returned with the insufficient-data flag set."""
    r = np.asarray(residuals, dtype=np.float64)
    if r.size == 0:
        raise EmptyInput("need at least one calibration residual")
    if np.any(r < 0):
        raise ValueError("residuals must be non-negative")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    m = r.size
    rank = math.ceil((m + 1) * (1 - alpha) - 1e-9)
    ordered = np.sort(r)
    if rank > m:
        return ConformalResult(float(ordered[-1]), True)
    return ConformalResult(float(ordered[rank - 1]), False)


@dataclass(frozen=True)
class Interval:
    """Symmetric prediction interval around an accuracy estimate; reported
    bounds stay inside [0, 1]."""

    center: float
    half_width: float
    alpha: float

    def __post_init__(self):
        if not 0 <= self.center <= 1:
            raise ValueError("center must lie in [0, 1]")
        if self.half_width < 0:
            raise ValueError("half_width must be non-negative")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")

    @property
    def lo(self) -> float:
        return max(0.0, self.center - self.half_width)

    @property
    def hi(self) -> float:
        return min(1.0, self.center + self.half_width)

    def to_dict(self) -> dict:
        return {
            "center": self.center,
            "half_width": self.half_width,
            "alpha": self.alpha,
            "lo": self.lo,
            "hi": self.hi,
        }
