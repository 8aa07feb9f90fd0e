"""Float64 references for the benchmark's output checks.

Written against the arrays only, independently of the library's kernels:
moments by explicit two-pass sums, whitened radii, and the sliced distance
by projecting onto the public ``build_basis`` directions, sorting, and
interpolating midpoint quantiles by hand.  Tolerances are the repository's
oracle tolerances (1e-6 relative, as in the sliced-W2 acceptance test).
"""

from __future__ import annotations

import math

import numpy as np

FEATURES = ("sd_f", "sd_m_mean", "sd_m_std", "sd_sw", "euclid_mean")
REL_TOL = 1e-6
ABS_TOL = 1e-12
# m_hat is a Lipschitz function of features that agree to REL_TOL.
PREDICT_TOL = 1e-6


def close(got: float, want: float, rel: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    return math.isfinite(got) and abs(got - want) <= max(rel * abs(want), abs_tol)


def ref_moments(x: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    x = x.astype(np.float64)
    n = x.shape[0]
    mean = x.sum(axis=0) / n
    var = ((x - mean) ** 2).sum(axis=0) / n
    return mean, np.maximum(var, floor)


def ref_quantiles(sorted_rows: np.ndarray, quantiles: int) -> np.ndarray:
    """Quantile curves of every row on the grid (q+0.5)/Q, with order
    statistic i placed at (i+0.5)/n and linear interpolation between them."""
    n = sorted_rows.shape[1]
    pos = (np.arange(quantiles) + 0.5) / quantiles * n - 0.5
    lo = np.clip(np.floor(pos).astype(int), 0, n - 1)
    hi = np.minimum(lo + 1, n - 1)
    frac = np.clip(pos - lo, 0.0, 1.0)
    return sorted_rows[:, lo] * (1.0 - frac) + sorted_rows[:, hi] * frac


def ref_sliced(src: np.ndarray, tgt: np.ndarray, directions: np.ndarray, quantiles: int) -> float:
    a = np.sort(directions @ src.astype(np.float64).T, axis=1)
    b = np.sort(directions @ tgt.astype(np.float64).T, axis=1)
    if a.shape[1] == b.shape[1]:
        per_slice = ((a - b) ** 2).mean(axis=1)
    else:
        per_slice = ((ref_quantiles(a, quantiles) - ref_quantiles(b, quantiles)) ** 2).mean(axis=1)
    return float(np.sqrt(per_slice.mean()))


def ref_features(src_es, tgt_es, cfg, floor: float, src_moments=None) -> dict:
    """Reference shift vector; ``src_moments`` lets one source serve many
    targets without recomputing its float64 moments."""
    from driftgauge.descriptors import build_basis

    mu_s, var_s = src_moments if src_moments is not None else ref_moments(src_es.data, floor)
    mu_t, var_t = ref_moments(tgt_es.data, floor)
    diff = mu_t - mu_s
    radii = np.sqrt((((tgt_es.data.astype(np.float64) - mu_s) / np.sqrt(var_s)) ** 2).sum(axis=1))
    directions = build_basis(src_es, tgt_es, cfg).directions
    return dict(
        sd_f=float((diff**2).sum() + ((np.sqrt(var_s) - np.sqrt(var_t)) ** 2).sum()),
        sd_m_mean=float(radii.mean()),
        sd_m_std=float(np.sqrt(((radii - radii.mean()) ** 2).mean())),
        sd_sw=ref_sliced(src_es.data, tgt_es.data, directions, cfg.quantiles),
        euclid_mean=float(np.sqrt((diff**2).sum())),
    )


def features_match(got: dict, ref: dict) -> bool:
    return all(close(float(got[name]), ref[name]) for name in FEATURES)


def ref_conformal(residuals, alpha: float) -> float:
    """The ceil((m+1)(1-alpha))-th smallest residual, capped at the largest."""
    ordered = sorted(residuals)
    rank = math.ceil((len(ordered) + 1) * (1 - alpha) - 1e-9)
    return ordered[min(rank, len(ordered)) - 1]


def interval_matches(m_hat: float, half_width: float, lo: float, hi: float) -> bool:
    return close(lo, max(0.0, m_hat - half_width)) and close(hi, min(1.0, m_hat + half_width))
