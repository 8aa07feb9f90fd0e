"""Distribution-shift descriptors between a source and a target embedding set.

Three complementary signals are combined into one fixed-layout shift vector:

* a moment-based global drift term comparing element-wise means/variances,
* whitened-radius statistics of the target under source statistics (tail
  behavior),
* a sliced quadratic Wasserstein distance over projection directions
  (distributional shape), optionally mixing data-aware PCA directions with
  random ones to cut the slice count.

Feature layout is fixed as ``[sd_f, sd_m_mean, sd_m_std, sd_sw, euclid_mean]``
and every descriptor carries a digest binding the configuration that produced
it, so an evaluator trained under one configuration refuses descriptors from
another.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .seeding import rng_for, spawn_seed
from .workload import (
    _BLOCK_BYTES,
    DEFAULT_VARIANCE_FLOOR,
    EmbeddingSet,
    MomentSummary,
    _float64_blocks,
    _memo,
    _moments,
    check_same_dim,
    moments,
)

# Randomized range-finder knobs; the asymptotic cost is O((n+m) * D * k).
PCA_OVERSAMPLE = 8
PCA_POWER_ITERS = 2

# From this many bytes of float32 target data up, ``compute_delta`` runs the
# target's moments and radii on a second thread beside the sliced distance.
# It is the smallest payload at which the overlap won at least 9 of 10
# interleaved trials both at D = 32 and at D = 1024 (2 vCPUs, one BLAS
# thread; BENCH_23.json).  At 1 MiB, D = 1024 won 8 and 6 of 10.
_OVERLAP_BYTES = 1 << 21

FEATURE_NAMES = ("sd_f", "sd_m_mean", "sd_m_std", "sd_sw", "euclid_mean")
NUM_FEATURES = len(FEATURE_NAMES)


@dataclass(frozen=True)
class SWDConfig:
    """Slice configuration for the sliced Wasserstein descriptor.

    ``all_random`` uses ``l_random`` random unit directions only.  ``hybrid``
    prepends ``k_pca`` principal directions of a subsample of the joint
    source+target cloud, so fewer total slices reach the same fidelity.
    """

    mode: str = "hybrid"
    l_random: int = 16
    k_pca: int = 8
    quantiles: int = 256
    pca_subsample: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("all_random", "hybrid"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "all_random":
            if self.k_pca != 0:
                raise ValueError("all_random mode requires k_pca == 0")
            if self.l_random < 1:
                raise ValueError("all_random mode requires l_random >= 1")
        else:
            if self.k_pca < 1:
                raise ValueError("hybrid mode requires k_pca >= 1")
            if self.l_random < 0:
                raise ValueError("l_random must be non-negative")
        if self.quantiles < 1:
            raise ValueError("quantiles must be positive")
        if self.pca_subsample < 1:
            raise ValueError("pca_subsample must be positive")

    @property
    def total_slices(self) -> int:
        return self.k_pca + self.l_random

    def digest(self, variance_floor: float = DEFAULT_VARIANCE_FLOOR) -> str:
        """Hex digest of the canonical JSON of this config plus the floor."""
        blob = json.dumps(
            {**self.to_dict(), "variance_floor": variance_floor},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode("ascii")).hexdigest()

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SWDConfig":
        return cls(**d)

    @classmethod
    def all_random(cls, l_random: int = 64, **kw) -> "SWDConfig":
        return cls(mode="all_random", l_random=l_random, k_pca=0, **kw)


@dataclass(frozen=True)
class ProjectionBasis:
    """Unit projection directions, one per row, tagged by provenance.

    The last ``fixed`` rows depend on neither set, only on the seeded
    configuration (the random slices), so a resident source's quantile
    curves on them carry over from one target to the next.
    """

    directions: np.ndarray
    provenance: tuple[str, ...]
    rank_deficient: bool = False
    fixed: int = 0

    def __post_init__(self):
        dirs = np.asarray(self.directions, dtype=np.float64)
        if dirs.ndim != 2:
            raise ValueError("directions must be an L x D matrix")
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise ValueError("every direction must have unit Euclidean norm")
        if len(self.provenance) != dirs.shape[0]:
            raise ValueError("one provenance tag per direction required")
        if any(tag not in ("random", "pca") for tag in self.provenance):
            raise ValueError("provenance tags must be 'random' or 'pca'")
        if not 0 <= self.fixed <= dirs.shape[0]:
            raise ValueError("fixed must lie between 0 and the number of directions")
        dirs.setflags(write=False)
        object.__setattr__(self, "directions", dirs)

    @property
    def num_slices(self) -> int:
        return self.directions.shape[0]

    @property
    def dim(self) -> int:
        return self.directions.shape[1]


@dataclass(frozen=True)
class ShiftDescriptor:
    """Fixed-layout shift vector between one source and one target set."""

    sd_f: float
    sd_m_mean: float
    sd_m_std: float
    sd_sw: float
    euclid_mean: float
    config_digest: str

    def __post_init__(self):
        for name in FEATURE_NAMES:
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {v}")

    def features(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=np.float64)

    def to_dict(self) -> dict:
        d = {name: float(getattr(self, name)) for name in FEATURE_NAMES}
        d["config_digest"] = self.config_digest
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ShiftDescriptor":
        return cls(
            sd_f=float(d["sd_f"]),
            sd_m_mean=float(d["sd_m_mean"]),
            sd_m_std=float(d["sd_m_std"]),
            sd_sw=float(d["sd_sw"]),
            euclid_mean=float(d["euclid_mean"]),
            config_digest=str(d["config_digest"]),
        )


def frechet_descriptor(ms_src: MomentSummary, ms_tgt: MomentSummary) -> float:
    """Squared 2-Wasserstein distance between the diagonal Gaussians matching
    the two moment summaries: ||mu_t - mu_s||^2 + sum_d (sigma_s - sigma_t)^2.

    Symmetric, zero iff the summaries coincide.
    """
    check_same_dim(ms_src.dim, ms_tgt.dim, "moment summaries")
    mean_shift = float(np.sum((ms_tgt.mean - ms_src.mean) ** 2))
    scale_shift = float(np.sum((ms_src.std - ms_tgt.std) ** 2))
    return mean_shift + scale_shift


def variance_log_ratios(ms_src: MomentSummary, ms_tgt: MomentSummary) -> np.ndarray:
    """Per-coordinate log variance ratios, exposed as a diagnostic only;
    they are not part of the shift vector."""
    check_same_dim(ms_src.dim, ms_tgt.dim, "moment summaries")
    return np.log(ms_tgt.var / ms_src.var)


def mahalanobis_descriptor(ms_src: MomentSummary, target: EmbeddingSet) -> tuple[float, float]:
    """Mean and population std of target whitened radii under source stats.

    r_j = || (phi_j - mu_src) / sigma_src ||_2, computed per target row.
    Emphasizes tail behavior: rare targets far from the source bulk inflate
    both statistics.
    """
    check_same_dim(ms_src.dim, target.dim, "source stats vs target")
    return _radius_stats(ms_src, target)


def _radius_stats(ms_src: MomentSummary, target: EmbeddingSet) -> tuple[float, float]:
    """``mahalanobis_descriptor`` for dimensions already checked: one pass
    over float64 row blocks of the target."""
    std = ms_src.std
    radii = np.empty(target.n)
    start = 0
    for block in _float64_blocks(target.data):
        block -= ms_src.mean
        block /= std
        block *= block
        np.sqrt(block.sum(axis=1), out=radii[start : start + block.shape[0]])
        start += block.shape[0]
    return float(radii.mean()), float(radii.std())


def _unit_rows(num: int, dim: int, seed: int) -> np.ndarray:
    """``num`` normalized Gaussian rows; ``num`` may be zero."""
    raw = rng_for(seed).standard_normal((num, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def random_directions(num: int, dim: int, seed: int) -> ProjectionBasis:
    """``num`` unit directions, uniform on the sphere (normalized Gaussians)."""
    if num < 1 or dim < 1:
        raise ValueError("num and dim must be positive")
    return ProjectionBasis(
        directions=_unit_rows(num, dim, seed), provenance=("random",) * num, fixed=num
    )


def _principal_directions(x: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Range-finder core on a raw (already centered) float64 matrix.

    Returns (directions, effective_rank); rows past the effective rank are
    random unit pads.  Power iterations rescale columns instead of
    re-orthonormalizing; one Householder QR of the sketch before the
    projection step restores the basis, which is ample at the two power
    iterations, and stays orthonormal when sketch columns are dependent.
    """
    n, dim = x.shape
    width = min(k + PCA_OVERSAMPLE, min(n, dim))
    y = x @ rng.standard_normal((dim, width))
    for _ in range(PCA_POWER_ITERS):
        y /= np.maximum(np.linalg.norm(y, axis=0, keepdims=True), 1e-300)
        y = x @ (x.T @ y)
    q, _ = np.linalg.qr(y)
    b = q.T @ x
    _, s, vt = np.linalg.svd(b, full_matrices=False)

    tol = s[0] * max(n, dim) * np.finfo(np.float64).eps if s[0] > 0 else 0.0
    rank = int(np.sum(s > tol))
    effective = min(rank, k)
    dirs = vt[:effective]
    # SVD signs are arbitrary; fix them so results are reproducible across
    # BLAS builds (largest-|component| coordinate made positive).
    for row in range(effective):
        pivot = np.argmax(np.abs(dirs[row]))
        if dirs[row, pivot] < 0:
            dirs[row] = -dirs[row]
    if effective < k:
        pad = rng.standard_normal((k - effective, dim))
        pad /= np.linalg.norm(pad, axis=1, keepdims=True)
        dirs = np.vstack([dirs, pad]) if effective else pad
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs, effective


def _sorted_projections(
    data: np.ndarray, dirs: np.ndarray, sums: np.ndarray | None = None
) -> np.ndarray:
    """(L, n) projections of every row onto ``dirs``, each slice sorted,
    computed one float64 row block at a time.  ``sums``, if given, also
    receives the column sums of the rows, so the same pass yields their
    mean."""
    proj = np.empty((dirs.shape[0], data.shape[0]))
    start = 0
    for block in _float64_blocks(data):
        stop = start + block.shape[0]
        np.matmul(dirs, block.T, out=proj[:, start:stop])
        if sums is not None:
            sums += block.sum(axis=0)
        start = stop
    # (L, n) layout keeps each slice contiguous for the sort.
    proj.sort(axis=1)
    return proj


def _centred_projections(data: np.ndarray, dirs: np.ndarray, centre: np.ndarray) -> np.ndarray:
    """(L, n) sorted float64 projections of float32 rows onto float64
    ``dirs``, computed as float32 GEMMs on rows centred on the float32
    ``centre``, with ``dirs @ centre`` added back in float64.

    Each block of about ``_BLOCK_BYTES`` float32 rows is centred into one
    reused buffer and projected in a GEMM of its own.  Centring keeps the
    float32 rounding relative to the spread of the projections rather than
    to their offset.  A block whose float32 projection is not finite (rows
    near the float32 limit) is projected again in float64, so the result
    is always finite and depends only on the data, dirs and centre.
    """
    n, dim = data.shape
    rows = min(n, max(1, _BLOCK_BYTES // (4 * dim)))
    dirs32 = dirs.T.astype(np.float32)
    centre64 = centre.astype(np.float64)
    # One flat subtraction against the centre tiled over a block's rows runs
    # faster than a row-wise broadcast: 11 against 13 ms over a 20000 x 1024
    # source, and half the time at D = 32.
    tiled = np.tile(centre, rows)
    buf = np.empty(rows * dim, dtype=np.float32)
    proj = np.empty((dirs.shape[0], n))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, rows):
            block = data[start : start + rows]
            centred = np.subtract(block.reshape(-1), tiled[: block.size], out=buf[: block.size])
            proj[:, start : start + block.shape[0]] = (centred.reshape(block.shape) @ dirs32).T
    if not np.isfinite(proj).all():
        for start in range(0, n, rows):
            part = proj[:, start : start + rows]
            if not np.isfinite(part).all():
                block = data[start : start + rows].astype(np.float64)
                block -= centre64
                np.matmul(dirs, block.T, out=part)
    proj += (dirs @ centre64)[:, None]
    proj.sort(axis=1)
    return proj


def _quantile_curves(sorted_proj: np.ndarray, quantiles: int) -> np.ndarray:
    """Empirical quantile functions of every sorted row on the midpoint grid
    (q+0.5)/Q, interpolating linearly between order statistics placed at
    (i+0.5)/n and clamping to the extremes outside them.  The gather indices
    and weights depend only on n and Q, so all slices share them."""
    n = sorted_proj.shape[1]
    pos = np.clip((np.arange(quantiles) + 0.5) / quantiles * n - 0.5, 0.0, n - 1)
    lo = np.floor(pos).astype(np.intp)
    hi = np.minimum(lo + 1, n - 1)
    below = sorted_proj[:, lo]
    return below + (sorted_proj[:, hi] - below) * (pos - lo)


def _source_curves(src: EmbeddingSet, basis: ProjectionBasis, quantiles: int) -> np.ndarray:
    """The source's (L, Q) quantile curves on every slice of ``basis``.

    The curves on the basis's ``fixed`` rows are memoized on ``src`` (see
    ``workload._memo``).  The cold pass that fills them projects in float64
    and also sums the rows; the mean, cast to float32, goes in the same
    entry as the centre.  The target-dependent rows are then projected
    through ``_centred_projections``, a float32 pass on rows centred on
    that centre, on a cold and a warm call alike, so a hit returns the very
    bits a miss computes.  Against the float64 formula the relative error
    in ``sd_sw`` stays near 1e-8 on unit-scale data, offset or not.
    """
    split = basis.num_slices - basis.fixed
    varying, fixed = basis.directions[:split], basis.directions[split:]
    memo = _memo(src)
    key = ("curves", fixed.tobytes(), quantiles)
    hit = memo.get(key)
    if hit is None:
        sums = np.zeros(src.dim)
        proj = _sorted_projections(src.data, fixed, sums=sums)
        hit = memo.setdefault(
            key, ((sums / src.n).astype(np.float32), _quantile_curves(proj, quantiles))
        )
    centre, fixed_curves = hit
    # F order, as ``_quantile_curves`` returns it: the per-slice means of
    # the differences then reduce in the same order on a hit and a miss.
    curves = np.empty((basis.num_slices, quantiles), order="F")
    curves[split:] = fixed_curves
    if split:
        proj = _centred_projections(src.data, varying, centre)
        curves[:split] = _quantile_curves(proj, quantiles)
    return curves


def sliced_w2_per_slice(
    src: EmbeddingSet, tgt: EmbeddingSet, basis: ProjectionBasis, quantiles: int = 256
) -> np.ndarray:
    """Squared 1-D quadratic Wasserstein distance per slice.

    Equal sizes pair sorted projections directly; unequal sizes compare both
    empirical quantile functions on the midpoint grid (q-0.5)/Q.  On that
    unequal-size path the source's curves on the basis's ``fixed`` slices
    (the configuration's random ones) are memoized on the source set, l x Q
    values per configuration, so a source kept resident across targets
    projects only onto the target-dependent slices, in a float32 pass on
    rows centred on the source's mean (see ``_source_curves``).  The
    target, the fixed slices and the equal-size path stay float64.
    """
    check_same_dim(src.dim, basis.dim, "source vs basis")
    check_same_dim(tgt.dim, basis.dim, "target vs basis")
    proj_tgt = _sorted_projections(tgt.data, basis.directions)
    if src.n == tgt.n:
        proj_src = _sorted_projections(src.data, basis.directions)
        return np.mean((proj_src - proj_tgt) ** 2, axis=1)
    diff = _source_curves(src, basis, quantiles) - _quantile_curves(proj_tgt, quantiles)
    return np.mean(diff**2, axis=1)


def sliced_w2(
    src: EmbeddingSet, tgt: EmbeddingSet, basis: ProjectionBasis, quantiles: int = 256
) -> float:
    """Root of the mean per-slice squared W2 over all directions."""
    return float(np.sqrt(np.mean(sliced_w2_per_slice(src, tgt, basis, quantiles))))


def build_basis(src: EmbeddingSet, tgt: EmbeddingSet, cfg: SWDConfig) -> ProjectionBasis:
    """Assemble the slice directions called for by ``cfg``.

    all_random reproduces ``random_directions(l_random, D, cfg.seed)`` exactly;
    hybrid runs the range finder on a subsample of the joint cloud and appends
    random directions, with sub-seeds derived from ``cfg.seed``.
    """
    check_same_dim(src.dim, tgt.dim, "source vs target")
    dim = src.dim
    if cfg.mode == "all_random":
        return random_directions(cfg.l_random, dim, cfg.seed)
    # The range finder runs on a centred subsample of the joint cloud.
    # Stacking order is canonicalized so the joint cloud behaves as a set
    # union and swapping the arguments leaves the basis (hence the sliced
    # distance) unchanged even when the subsample kicks in.
    first, second = src, tgt
    if src.n > tgt.n or (src.n == tgt.n and _bytes_greater(src.data, tgt.data)):
        first, second = tgt, src
    total = src.n + tgt.n
    take = min(cfg.pca_subsample, total)
    if take < total:
        idx = rng_for(spawn_seed(cfg.seed, 1)).choice(total, size=take, replace=False)
    else:
        idx = np.arange(total)
    # Gather the drawn rows of the joint cloud straight from the two sets,
    # in draw order, without stacking the whole cloud.
    rows = np.empty((take, dim))
    in_first = idx < first.n
    rows[in_first] = first.data[idx[in_first]]
    rows[~in_first] = second.data[idx[~in_first] - first.n]
    rows -= rows.mean(axis=0)
    k = min(cfg.k_pca, take, dim)
    pca, effective = _principal_directions(rows, k, rng_for(spawn_seed(cfg.seed, 2)))
    # A joint cloud too small for k_pca is topped up with random slices, and
    # every direction past the effective rank is tagged random.
    top_up = _unit_rows(cfg.k_pca - k, dim, spawn_seed(cfg.seed, 4))
    tail = _unit_rows(cfg.l_random, dim, spawn_seed(cfg.seed, 3))
    dirs = np.vstack([pca, top_up, tail])
    return ProjectionBasis(
        directions=dirs,
        provenance=("pca",) * effective + ("random",) * (dirs.shape[0] - effective),
        rank_deficient=effective < cfg.k_pca,
        fixed=cfg.l_random,
    )


def _bytes_greater(a: np.ndarray, b: np.ndarray) -> bool:
    """``a.tobytes() > b.tobytes()`` for equal-size contiguous arrays, found
    block by block over byte views, without copying either array."""
    a = a.reshape(-1).view(np.uint8)
    b = b.reshape(-1).view(np.uint8)
    for start in range(0, a.shape[0], _BLOCK_BYTES):
        block_a = a[start : start + _BLOCK_BYTES]
        block_b = b[start : start + _BLOCK_BYTES]
        differ = block_a != block_b
        first = int(differ.argmax())
        if differ[first]:
            return bool(block_a[first] > block_b[first])
    return False


def hybrid_swd(src: EmbeddingSet, tgt: EmbeddingSet, cfg: SWDConfig) -> float:
    """Sliced W2 between the two sets under the configured slice scheme.

    The hybrid basis depends on the target as well as the source, so each
    new batch builds its own.  The basis is memoized on the target set (see
    ``workload._memo``), one per config, and reused while the source is the
    very same data array.  The config's random slices depend on neither
    set, so for unequal sizes ``sliced_w2_per_slice`` memoizes
    the source's quantile curves on them on the source set: a resident
    source projects only onto the ``k_pca`` target-dependent slices (none
    in ``all_random`` mode) after its first unequal-size target.
    """
    # Holding the source array, not the source set, keeps
    # ``hybrid_swd(a, a, cfg)`` free of a reference cycle.
    memo = _memo(tgt)
    key = ("basis", cfg)
    hit = memo.get(key)
    if hit is not None and hit[0] is src.data:
        basis = hit[1]
    else:
        basis = build_basis(src, tgt, cfg)
        memo[key] = (src.data, basis)
    return sliced_w2(src, tgt, basis, cfg.quantiles)


def compute_delta(
    src: EmbeddingSet,
    tgt: EmbeddingSet,
    cfg: SWDConfig,
    variance_floor: float = DEFAULT_VARIANCE_FLOOR,
) -> ShiftDescriptor:
    """Assemble the full shift vector.  Argument order is (source, target);
    the source set is always the whitening reference.

    A target of at least ``_OVERLAP_BYTES`` of float32 data, in a process
    that may use two or more CPUs, has its moments and whitened radii
    computed on one worker thread while this thread runs ``hybrid_swd``.
    The worker runs the same kernels on the same blocks, so every value and
    memo entry keeps its bits.  It calls only the private kernels
    ``workload._moments`` and ``_radius_stats``: a public function may be
    wrapped from outside (``perfbench/spans.py`` does, on one span stack per
    process), and such a wrapper would then run on two threads at once.
    The pool is made for the call and shut down before it returns, so a
    worker exception re-raises here with its type, and no thread outlives
    the call.  Smaller targets run the three passes one after the other.
    """
    check_same_dim(src.dim, tgt.dim, "source vs target")
    ms_src = moments(src, variance_floor)
    if tgt.data.nbytes >= _OVERLAP_BYTES and _usable_cpus() >= 2:
        with ThreadPoolExecutor(max_workers=1) as pool:
            side = pool.submit(_target_stats, ms_src, tgt, variance_floor)
            sd_sw = hybrid_swd(src, tgt, cfg)
            ms_tgt, (sd_m_mean, sd_m_std) = side.result()
    else:
        ms_tgt = moments(tgt, variance_floor)
        sd_m_mean, sd_m_std = mahalanobis_descriptor(ms_src, tgt)
        sd_sw = hybrid_swd(src, tgt, cfg)
    return ShiftDescriptor(
        sd_f=frechet_descriptor(ms_src, ms_tgt),
        sd_m_mean=sd_m_mean,
        sd_m_std=sd_m_std,
        sd_sw=sd_sw,
        euclid_mean=float(np.linalg.norm(ms_tgt.mean - ms_src.mean)),
        config_digest=cfg.digest(variance_floor),
    )


def _target_stats(
    ms_src: MomentSummary, tgt: EmbeddingSet, variance_floor: float
) -> tuple[MomentSummary, tuple[float, float]]:
    """The target's moments and whitened-radius statistics, through private
    kernels only: ``compute_delta``'s worker thread runs it."""
    return _moments(tgt, variance_floor), _radius_stats(ms_src, tgt)


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1
