"""Controlled synthetic workloads and descriptor benchmarks.

Diagonal-Gaussian (or mixture) workloads with known shift structure stand in
for real embedding sets: every oracle quantity (moments, whitened radii,
closed-form 1-D transport) is exact for them.  A deterministic logistic
accuracy function supplies labels so the full training pipeline can be
exercised at desk scale.  The benchmark half measures sliced-distance wall
time against the slice count and slice scheme.
"""

from __future__ import annotations

import csv
import io
import json
import os
import platform
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .descriptors import SWDConfig, ShiftDescriptor, hybrid_swd
from .seeding import rng_for, spawn_seed
from .workload import EmbeddingSet, _atomic_write

# Fixed label-function constants, published so tests can reproduce labels.
ACCURACY_WEIGHTS = np.array([-0.9, -0.6, -0.4, -1.1, -0.5])
ACCURACY_FEATURE_SCALE = np.array([12.0, 4.0, 1.5, 3.0, 3.0])

_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class GaussianWorkloadSpec:
    """Diagonal Gaussian (optionally a mixture) over R^dim."""

    dim: int
    count: int
    mean: np.ndarray
    stddev: np.ndarray
    mixture: tuple | None = None  # ((weight, mean, stddev), ...)

    def __post_init__(self):
        if self.dim < 1 or self.count < 1:
            raise ValueError("dim and count must be positive")
        mean = np.broadcast_to(np.asarray(self.mean, dtype=np.float64), (self.dim,)).copy()
        std = np.broadcast_to(np.asarray(self.stddev, dtype=np.float64), (self.dim,)).copy()
        if np.any(std <= 0):
            raise ValueError("stddev must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "stddev", std)
        if self.mixture is not None:
            comps = []
            for weight, c_mean, c_std in self.mixture:
                c_mean = np.broadcast_to(np.asarray(c_mean, np.float64), (self.dim,)).copy()
                c_std = np.broadcast_to(np.asarray(c_std, np.float64), (self.dim,)).copy()
                if np.any(c_std <= 0):
                    raise ValueError("mixture stddev must be positive")
                comps.append((float(weight), c_mean, c_std))
            if abs(sum(w for w, _, _ in comps) - 1.0) > 1e-9:
                raise ValueError("mixture weights must sum to 1")
            object.__setattr__(self, "mixture", tuple(comps))


def gen_gaussian_workload(spec: GaussianWorkloadSpec, seed: int) -> EmbeddingSet:
    """i.i.d. samples from the spec's distribution, deterministic per seed.

    A sample beyond the float32 range (or NaN) raises ``ValueError`` before
    the cast that would turn it into an infinity.
    """
    rng = rng_for(seed)
    noise = rng.standard_normal((spec.count, spec.dim))
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.mixture is None:
            data = spec.mean + noise * spec.stddev
        else:
            weights = np.array([w for w, _, _ in spec.mixture])
            comp = rng.choice(len(spec.mixture), size=spec.count, p=weights)
            means = np.stack([m for _, m, _ in spec.mixture])
            stds = np.stack([s for _, _, s in spec.mixture])
            data = means[comp] + noise * stds[comp]
    # NaN fails the comparison, as do values past the float32 limit.
    if not max(data.max(), -data.min()) <= _F32_MAX:
        raise ValueError(f"generated values exceed the float32 range (+-{_F32_MAX:.4g})")
    return EmbeddingSet(data.astype(np.float32))


def shift_family(
    base: GaussianWorkloadSpec,
    mean_shifts: list[float],
    direction: np.ndarray | None = None,
) -> list[GaussianWorkloadSpec]:
    """One spec per shift, translating the base mean along a fixed unit
    direction (first coordinate axis by default).  Shifts must be sorted."""
    if list(mean_shifts) != sorted(mean_shifts):
        raise ValueError("mean_shifts must be sorted ascending")
    if direction is None:
        u = np.zeros(base.dim)
        u[0] = 1.0
    else:
        u = np.asarray(direction, dtype=np.float64)
        norm = np.linalg.norm(u)
        if u.shape != (base.dim,) or norm == 0:
            raise ValueError("direction must be a nonzero vector of length dim")
        u = u / norm
    return [
        GaussianWorkloadSpec(
            dim=base.dim,
            count=base.count,
            mean=base.mean + delta * u,
            stddev=base.stddev,
            mixture=base.mixture,
        )
        for delta in mean_shifts
    ]


def synthetic_accuracy_fn(
    delta: ShiftDescriptor,
    task_bias: float,
    noise_seed: int,
    noise_scale: float = 0.0,
) -> float:
    """Known accuracy function of the shift vector: a logistic of the scaled
    features plus a per-task bias, with seeded Gaussian noise, clipped."""
    if noise_scale < 0:
        raise ValueError("noise_scale must be non-negative")
    z = float(ACCURACY_WEIGHTS @ (delta.features() / ACCURACY_FEATURE_SCALE)) + task_bias
    # overflow-safe logistic
    acc = 1.0 / (1.0 + np.exp(-z)) if z >= 0 else np.exp(z) / (1.0 + np.exp(z))
    if noise_scale > 0:
        acc += rng_for(noise_seed).normal(0.0, noise_scale)
    return float(np.clip(acc, 0.0, 1.0))


@dataclass
class BenchResult:
    """Per-trial rows plus an environment note.

    Row keys: mode, L, k, R, n, m, D, trial, wall_ms, peak_bytes, swd.
    """

    rows: list[dict]
    environment: str

    def __post_init__(self):
        for row in self.rows:
            if row["wall_ms"] <= 0:
                raise ValueError("wall_time must be positive")

    def summary(self) -> list[dict]:
        """Median wall time per configuration, preserving first-seen order."""
        groups: dict[tuple, list[dict]] = {}
        for row in self.rows:
            key = (row["mode"], row["L"], row["k"], row["R"], row["n"], row["m"], row["D"])
            groups.setdefault(key, []).append(row)
        out = []
        for (mode, L, k, r, n, m, dim), rows in groups.items():
            out.append(
                {
                    "mode": mode,
                    "L": L,
                    "k": k,
                    "R": r,
                    "n": n,
                    "m": m,
                    "D": dim,
                    "median_wall_ms": statistics.median(x["wall_ms"] for x in rows),
                    "peak_bytes": rows[0]["peak_bytes"],
                    "swd": rows[0]["swd"],
                    "trials": len(rows),
                }
            )
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        fields = ["mode", "L", "k", "R", "n", "m", "D", "trial", "wall_ms", "peak_bytes", "swd"]
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for row in self.rows:
            writer.writerow({f: row[f] for f in fields})
        return buf.getvalue()

    def write_csv(self, path: str | os.PathLike) -> None:
        _atomic_write(os.fspath(path), self.to_csv().encode("utf-8"))

    def write_json(self, path: str | os.PathLike) -> None:
        blob = json.dumps(
            {"environment": self.environment, "summary": self.summary()},
            indent=2,
            sort_keys=True,
        )
        _atomic_write(os.fspath(path), (blob + "\n").encode("utf-8"))


def _bench_config(mode: str, total_slices: int, k_pca: int, quantiles: int, seed: int) -> SWDConfig:
    if mode == "all_random":
        return SWDConfig.all_random(total_slices, quantiles=quantiles, seed=seed)
    if total_slices <= k_pca:
        raise ValueError(f"hybrid needs total slices > k_pca={k_pca}")
    return SWDConfig(
        mode="hybrid",
        k_pca=k_pca,
        l_random=total_slices - k_pca,
        quantiles=quantiles,
        seed=seed,
    )


def bench_swd(
    sizes: list[tuple[int, int, int]],
    slice_counts: list[int],
    mode: str = "all_random",
    trials: int = 5,
    seed: int = 0,
    k_pca: int = 8,
    quantiles: int = 256,
    mean_shift: float = 1.0,
) -> BenchResult:
    """Median wall time of the sliced distance over a (sizes x slices) grid.

    One warmup evaluation precedes the timed trials, and each source stays
    resident across them: for unequal sizes its curves on the random slices
    come from the source's memo after the warmup.  The distance value is
    recorded per row; it is identical across trials because the computation
    is fully seeded (only timing varies).  Peak transient bytes use the
    analytic bound L*(n+m)*8 for the stacked float64 projections.
    """
    if not sizes or not slice_counts:
        raise ValueError("sizes and slice_counts must be non-empty")
    if trials < 1:
        raise ValueError("trials must be positive")
    # Prepare every configuration up front and interleave the timed trials
    # round-robin, so machine-load drift hits all configurations alike
    # instead of biasing whichever ran last.
    work = []
    for n, m, dim in sizes:
        src_spec = GaussianWorkloadSpec(dim=dim, count=n, mean=np.zeros(dim), stddev=np.ones(dim))
        tgt_mean = np.zeros(dim)
        tgt_mean[0] = mean_shift
        tgt_spec = GaussianWorkloadSpec(dim=dim, count=m, mean=tgt_mean, stddev=np.ones(dim))
        src = gen_gaussian_workload(src_spec, spawn_seed(seed, 401, n, dim))
        tgt = gen_gaussian_workload(tgt_spec, spawn_seed(seed, 402, m, dim))
        for total in slice_counts:
            cfg = _bench_config(mode, total, k_pca, quantiles, spawn_seed(seed, 403, total))
            work.append((src, tgt, cfg, total, n, m, dim))

    values = [hybrid_swd(src, tgt, cfg) for src, tgt, cfg, *_ in work]  # warmup
    rows = []
    for trial in range(trials):
        for (src, tgt, cfg, total, n, m, dim), value in zip(work, values):
            t0 = time.perf_counter()
            hybrid_swd(src, tgt, cfg)
            wall_ms = (time.perf_counter() - t0) * 1e3
            rows.append(
                {
                    "mode": mode,
                    "L": total,
                    "k": cfg.k_pca,
                    "R": cfg.l_random,
                    "n": n,
                    "m": m,
                    "D": dim,
                    "trial": trial,
                    "wall_ms": wall_ms,
                    "peak_bytes": total * (n + m) * 8,
                    "swd": value,
                }
            )
    rows.sort(key=lambda r: (r["n"], r["m"], r["D"], r["L"], r["trial"]))
    env = (
        f"{platform.platform()}; python {platform.python_version()}; "
        f"numpy {np.__version__}; timing: perf_counter medians over {trials} trials "
        f"after 1 warmup; peak_bytes: analytic bound L*(n+m)*8"
    )
    return BenchResult(rows=rows, environment=env)
