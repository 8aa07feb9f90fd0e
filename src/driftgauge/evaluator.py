"""Feed-forward regressor mapping normalized shift features to accuracy.

The network is a three-hidden-layer MLP (256, 128, 64 units) with layer
normalization and ReLU after each affine map, dropout between hidden layers
during training, and a scalar affine head.  Training is plain mini-batch MSE
regression with decoupled-weight-decay Adam and a cosine learning-rate decay,
early-stopped on validation MAE.  Everything here is written against plain
numpy arrays with explicit, hand-derived gradients so the whole train/predict
pipeline is a pure function of (data, config, seed).

Parameters live in one float64 vector with per-tensor views, so updates and
serialization are whole-vector operations.  ``predict`` runs one row through
``_forward`` and ``predict_many`` feeds it ``(B, 1, D)``: the same bits.
Models serialize to ``.fsmlp``: magic + a JSON header (shapes, normalizer, train
report, descriptor config) + the flat vector as float32, which is the
unchanged block layout of every tensor in declaration order.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .descriptors import NUM_FEATURES, SWDConfig, ShiftDescriptor
from .errors import (
    PARSE_FAILURES,
    BadMagic,
    ConfigMismatch,
    InsufficientData,
    InvalidValue,
    ShapeMismatch,
    TruncatedPayload,
)
from .seeding import rng_for, spawn_seed
from .workload import DEFAULT_VARIANCE_FLOOR, _atomic_write, _read_file

HIDDEN_DIMS = (256, 128, 64)
LN_EPS = 1e-5
ADAM_EPS = 1e-8
STD_FLOOR = 1e-8
_FOREIGN_CONFIG = "descriptor was computed under a different configuration than the model"

MODEL_MAGIC = b"FSMLP\x00\x00\x00"
MODEL_VERSION = 1
_MODEL_HEADER = struct.Struct("<8sIQ")


def _shapes(layer_dims: tuple[int, ...]) -> list[tuple[str, tuple[int, ...]]]:
    """(field, shape) of every tensor in declaration order, which is also the
    ``.fsmlp`` block order: per affine layer its weight then bias, followed
    for each hidden layer by the layer-norm gain and offset."""
    out = []
    for i, (fan_in, fan_out) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
        out += [("weights", (fan_in, fan_out)), ("biases", (fan_out,))]
        if i < len(layer_dims) - 2:
            out += [("ln_gain", (fan_out,)), ("ln_offset", (fan_out,))]
    return out


class MLPParams:
    """All learnable tensors in one contiguous float64 vector ``flat``;
    ``weights``, ``biases``, ``ln_gain`` and ``ln_offset`` are lists of views
    into it in :func:`_shapes` order.  The constructor wraps ``flat`` without
    copying (a float64 array is not cast) and checks that its length fits
    ``layer_dims``."""

    def __init__(self, layer_dims, flat: np.ndarray):
        layer_dims = tuple(layer_dims)
        flat = np.asarray(flat, dtype=np.float64)
        shapes = _shapes(layer_dims)
        if flat.shape != (sum(math.prod(shape) for _, shape in shapes),):
            raise ShapeMismatch(f"flat vector of shape {flat.shape} does not fit {layer_dims}")
        self.layer_dims, self.flat, self._views = layer_dims, flat, []
        self.weights, self.biases, self.ln_gain, self.ln_offset = [], [], [], []
        offset = 0
        for field, shape in shapes:
            view = flat[offset : offset + math.prod(shape)].reshape(shape)
            getattr(self, field).append(view)
            self._views.append(view)
            offset += view.size

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def tensors(self) -> list[np.ndarray]:
        return list(self._views)

    def map(self, fn, *others: "MLPParams") -> "MLPParams":
        """Apply the elementwise ``fn`` once to this and the others' flat vectors."""
        return MLPParams(self.layer_dims, fn(self.flat, *(o.flat for o in others)))

    def copy(self) -> "MLPParams":
        return MLPParams(self.layer_dims, self.flat.copy())


def init_mlp(input_dim: int, seed: int) -> MLPParams:
    """Fan-in-scaled uniform weights, zero biases, identity layer norm."""
    if input_dim < 1:
        raise ValueError("input_dim must be positive")
    dims = (input_dim, *HIDDEN_DIMS, 1)
    params = MLPParams(dims, np.zeros(sum(math.prod(s) for _, s in _shapes(dims))))
    rng = rng_for(seed)
    for w in params.weights:
        bound = 1.0 / math.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    for g in params.ln_gain:
        g.fill(1.0)
    return params


def zeros_like(params: MLPParams) -> MLPParams:
    return params.map(np.zeros_like)


def dropout_masks(
    layer_dims: tuple[int, ...], batch: int, seed: int, rate: float
) -> list[np.ndarray]:
    """Per-hidden-layer keep masks, fixed by seed (drawn in layer order)."""
    rng = rng_for(seed)
    return [
        (rng.random((batch, h)) >= rate).astype(np.float64) for h in layer_dims[1:-1]
    ]


def _forward(params: MLPParams, x: np.ndarray, masks, rate: float, want_caches: bool):
    """``x`` is ``(B, D)`` in training (one GEMM per layer), or ``(B, 1, D)``
    or one ``(D,)`` row in inference, where a row takes the same single-row
    product and ufuncs either way.  Layer norm is numpy's mean/var arithmetic
    without their Python wrappers, in place; a row's mean and var are scalars."""
    hidden = len(params.layer_dims) - 2
    keep = 1.0 - rate
    caches = []
    a = x
    for i in range(hidden):
        z = a @ params.weights[i]
        z += params.biases[i]
        width, batched = z.shape[-1], z.ndim > 1
        z -= np.add.reduce(z, axis=-1, keepdims=batched) / width
        var = np.add.reduce(z * z, axis=-1, keepdims=batched) / width
        istd = 1.0 / np.sqrt(var + LN_EPS)
        z *= istd
        y = z * params.ln_gain[i]
        y += params.ln_offset[i]
        if want_caches:
            caches.append((a, z, istd, y))
        a = np.maximum(y, 0.0)
        a = a * masks[i] / keep if masks is not None else a
    preds = (a @ params.weights[-1] + params.biases[-1]).ravel()
    return preds, a, caches


def loss_and_grad(
    params: MLPParams,
    x: np.ndarray,
    y: np.ndarray,
    train_mode: bool = False,
    seed: int = 0,
    dropout: float = 0.2,
) -> tuple[float, MLPParams]:
    """Batch MSE and its exact analytic gradient w.r.t. every parameter.

    Backprop goes through layer norm, ReLU, and (in train mode) the
    seed-fixed dropout masks.  Duplicating every batch element leaves both
    outputs unchanged in inference mode because the loss is a mean.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ShapeMismatch(f"expected (B, {params.input_dim}) features, got {x.shape}")
    if x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ShapeMismatch("batch features and targets must align and be non-empty")
    batch = x.shape[0]
    keep = 1.0 - dropout
    masks = None
    if train_mode and dropout > 0:
        masks = dropout_masks(params.layer_dims, batch, seed, dropout)
    preds, a_last, caches = _forward(params, x, masks, dropout, want_caches=True)

    err = preds - y
    mse = float(np.mean(err**2))
    dpreds = (2.0 / batch) * err

    grads = MLPParams(params.layer_dims, np.empty_like(params.flat))
    np.matmul(a_last.T, dpreds[:, None], out=grads.weights[-1])
    grads.biases[-1][0] = dpreds.sum()
    da = np.outer(dpreds, params.weights[-1][:, 0])

    for i in reversed(range(len(caches))):
        a_in, xhat, istd, pre_relu = caches[i]
        dr = da * masks[i] / keep if masks is not None else da
        dy = dr * (pre_relu > 0)
        np.add.reduce(dy * xhat, axis=0, out=grads.ln_gain[i])
        np.add.reduce(dy, axis=0, out=grads.ln_offset[i])
        dxhat = dy * params.ln_gain[i]
        width = dxhat.shape[-1]
        dz = istd * (
            dxhat
            - np.add.reduce(dxhat, axis=-1, keepdims=True) / width
            - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / width)
        )
        np.matmul(a_in.T, dz, out=grads.weights[i])
        np.add.reduce(dz, axis=0, out=grads.biases[i])
        da = dz @ params.weights[i].T

    return mse, grads


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings; the defaults are the adopted ones."""

    batch_size: int = 64
    lr0: float = 1e-4
    eta_min: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 1e-3
    max_epochs: int = 20
    dropout: float = 0.2
    patience: int = 3
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs and patience must be positive")
        if self.lr0 <= 0 or self.eta_min < 0:
            raise ValueError("lr0 must be positive, eta_min non-negative")
        if not (0 < self.val_fraction < 0.5):
            raise ValueError("val_fraction must lie in (0, 0.5)")
        if not (0 <= self.dropout < 1):
            raise ValueError("dropout must lie in [0, 1)")


@dataclass
class AdamState:
    m: MLPParams
    v: MLPParams
    t: int = 0

    @classmethod
    def fresh(cls, params: MLPParams) -> "AdamState":
        return cls(m=zeros_like(params), v=zeros_like(params), t=0)


def adamw_step(
    state: AdamState,
    params: MLPParams,
    grads: MLPParams,
    lr: float,
    cfg: TrainConfig,
) -> tuple[MLPParams, AdamState]:
    """One decoupled-weight-decay Adam update (decay applied before the
    moment update, bias-corrected moments, epsilon 1e-8)."""
    t = state.t + 1
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    g = grads.flat
    m = cfg.beta1 * state.m.flat + (1 - cfg.beta1) * g
    v = cfg.beta2 * state.v.flat + (1 - cfg.beta2) * g * g
    decayed = params.flat * (1.0 - lr * cfg.weight_decay)
    w = decayed - lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    dims = params.layer_dims
    new_m, new_v = MLPParams(dims, m), MLPParams(dims, v)
    return MLPParams(dims, w), AdamState(m=new_m, v=new_v, t=t)


def cosine_lr(step: int, total_steps: int, lr0: float, eta_min: float = 0.0) -> float:
    """Cosine decay from lr0 at step 0 to eta_min at step == total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError("step must lie in [0, total_steps]")
    return eta_min + 0.5 * (lr0 - eta_min) * (1.0 + math.cos(math.pi * step / total_steps))


@dataclass(frozen=True)
class Normalizer:
    """Feature standardization statistics, fitted on the training split only
    and bound to the descriptor config the features were computed under."""

    feature_mean: np.ndarray
    feature_std: np.ndarray
    config_digest: str = ""

    def __post_init__(self):
        mean = np.asarray(self.feature_mean, dtype=np.float64)
        std = np.asarray(self.feature_std, dtype=np.float64)
        if mean.ndim != 1 or std.shape != mean.shape:
            raise ValueError("feature_mean/std must be equal-length vectors")
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise ValueError("feature_mean/std must be finite")
        if np.any(std < STD_FLOOR):
            raise ValueError(f"feature_std entries must be >= {STD_FLOOR}")
        mean.setflags(write=False)
        std.setflags(write=False)
        object.__setattr__(self, "feature_mean", mean)
        object.__setattr__(self, "feature_std", std)

    @classmethod
    def fit(cls, features: np.ndarray, config_digest: str = "") -> "Normalizer":
        """Statistics that overflow (features near 1e154 or beyond) are
        InvalidValue."""
        features = np.asarray(features, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std = features.mean(axis=0), features.std(axis=0)
        try:
            return cls(mean, np.maximum(std, STD_FLOOR), config_digest)
        except ValueError as exc:
            raise InvalidValue(f"descriptor features: {exc}") from exc

    def apply(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=np.float64) - self.feature_mean) / self.feature_std

    def to_dict(self) -> dict:
        return {
            "feature_mean": self.feature_mean.tolist(),
            "feature_std": self.feature_std.tolist(),
            "config_digest": self.config_digest,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Normalizer":
        return cls(
            feature_mean=np.array(d["feature_mean"]),
            feature_std=np.array(d["feature_std"]),
            config_digest=d.get("config_digest", ""),
        )


@dataclass
class TrainReport:
    epochs_run: int
    best_val_mae: float
    train_loss_curve: list[float]
    stopped_early: bool
    degenerate_targets: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainReport":
        return cls(
            epochs_run=int(d["epochs_run"]),
            best_val_mae=float(d["best_val_mae"]),
            train_loss_curve=[float(v) for v in d["train_loss_curve"]],
            stopped_early=bool(d["stopped_early"]),
            degenerate_targets=bool(d.get("degenerate_targets", False)),
        )


def meta_set_arrays(meta_set) -> tuple[np.ndarray, np.ndarray, str]:
    """Feature matrix, label vector and the (uniform) config digest of a
    sequence of supervision pairs."""
    if not meta_set:
        raise InsufficientData("empty meta set")
    feats = np.stack([inst.delta.features() for inst in meta_set])
    labels = np.array([inst.accuracy for inst in meta_set], dtype=np.float64)
    digests = {inst.delta.config_digest for inst in meta_set}
    if len(digests) != 1:
        raise ConfigMismatch("meta set mixes descriptors from different configs")
    return feats, labels, digests.pop()


def _batch_mae(params: MLPParams, x: np.ndarray, y: np.ndarray) -> float:
    preds, _, _ = _forward(params, x, None, 0.0, want_caches=False)
    return float(np.mean(np.abs(np.clip(preds, 0.0, 1.0) - y)))


def train(meta_set, cfg: TrainConfig) -> tuple[MLPParams, Normalizer, TrainReport]:
    """Fit the evaluator on (shift descriptor, accuracy) supervision pairs.

    Deterministic given (meta_set, cfg): the seeded split, the normalizer
    fitted on the train portion, every shuffle, and every dropout mask all
    derive from ``cfg.seed``.  The best-validation-MAE parameters are
    restored at the end.
    """
    if len(meta_set) < 10:
        raise InsufficientData(f"need at least 10 instances, got {len(meta_set)}")
    feats, labels, digest = meta_set_arrays(meta_set)
    if np.any(labels < 0) or np.any(labels > 1):
        raise ValueError("accuracies must lie in [0, 1]")
    degenerate = bool(np.ptp(labels) == 0)

    n = len(meta_set)
    perm = rng_for(cfg.seed, 101).permutation(n)
    n_val = max(1, int(round(cfg.val_fraction * n)))
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    norm = Normalizer.fit(feats[train_idx], digest)
    x_train, y_train = norm.apply(feats[train_idx]), labels[train_idx]
    x_val, y_val = norm.apply(feats[val_idx]), labels[val_idx]

    params = init_mlp(feats.shape[1], spawn_seed(cfg.seed, 102))
    opt = AdamState.fresh(params)
    n_train = len(train_idx)
    batch = min(cfg.batch_size, n_train)
    steps_per_epoch = math.ceil(n_train / batch)
    total_steps = cfg.max_epochs * steps_per_epoch

    shuffle_rng = rng_for(cfg.seed, 103)
    best_mae = math.inf
    best_params = params.copy()
    curve: list[float] = []
    bad_epochs = 0
    stopped_early = False
    step = 0
    epochs_run = 0

    for epoch in range(cfg.max_epochs):
        order = shuffle_rng.permutation(n_train)
        losses = []
        for start in range(0, n_train, batch):
            sel = order[start : start + batch]
            lr = cosine_lr(step, total_steps, cfg.lr0, cfg.eta_min)
            mse, grads = loss_and_grad(
                params,
                x_train[sel],
                y_train[sel],
                train_mode=True,
                seed=spawn_seed(cfg.seed, 104, step),
                dropout=cfg.dropout,
            )
            params, opt = adamw_step(opt, params, grads, lr, cfg)
            losses.append(mse)
            step += 1
        curve.append(float(np.mean(losses)))
        epochs_run = epoch + 1
        val_mae = _batch_mae(params, x_val, y_val)
        if val_mae < best_mae:
            best_mae = val_mae
            best_params = params.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                stopped_early = True
                break

    report = TrainReport(
        epochs_run=epochs_run,
        best_val_mae=best_mae,
        train_loss_curve=curve,
        stopped_early=stopped_early,
        degenerate_targets=degenerate,
    )
    return best_params, norm, report


def predict_many(params: MLPParams, norm: Normalizer, deltas) -> np.ndarray:
    """Accuracy estimates in [0, 1], shape ``(len(deltas),)``, run through
    :func:`_forward` as ``(B, 1, D)`` and so bit-identical to :func:`predict`
    on each descriptor alone.  Refuses descriptors computed under another
    configuration than the normalizer's.
    """
    if any(d.config_digest != norm.config_digest for d in deltas):
        raise ConfigMismatch(_FOREIGN_CONFIG)
    feats = np.array([d.features() for d in deltas], dtype=np.float64)
    x = norm.apply(feats.reshape(len(deltas), NUM_FEATURES))
    if x.shape[1] != params.input_dim:
        raise ShapeMismatch(f"model expects {params.input_dim} features, got {x.shape[1]}")
    preds, _, _ = _forward(params, x[:, None, :], None, 0.0, want_caches=False)
    return np.clip(preds, 0.0, 1.0)


def predict(params: MLPParams, norm: Normalizer, delta: ShiftDescriptor) -> float:
    """Estimate accuracy for one shift descriptor: its ``(D,)`` row through
    :func:`_forward`, clamped with ``np.clip``'s bits (``max(p, 0.0)`` keeps
    a ``-0.0``).  Refuses what :func:`predict_many` refuses."""
    if delta.config_digest != norm.config_digest:
        raise ConfigMismatch(_FOREIGN_CONFIG)
    x = norm.apply(delta.features())
    if x.shape[0] != params.input_dim:
        raise ShapeMismatch(f"model expects {params.input_dim} features, got {x.shape[0]}")
    p = float(_forward(params, x, None, 0.0, want_caches=False)[0][0])
    return min(max(p, 0.0), 1.0)


# ---------------------------------------------------------------------------
# model files


@dataclass
class LoadedModel:
    params: MLPParams
    normalizer: Normalizer
    train_report: TrainReport | None
    meta_init: bool
    swd_config: SWDConfig | None
    variance_floor: float
    seed: int


def save_model(
    path: str | os.PathLike,
    params: MLPParams,
    normalizer: Normalizer,
    train_report: TrainReport | None = None,
    swd_config: SWDConfig | None = None,
    variance_floor: float = DEFAULT_VARIANCE_FLOOR,
    meta_init: bool = False,
    seed: int = 0,
) -> None:
    """Serialize JSON header plus float32 parameter block, atomically."""
    path = os.fspath(path)
    header = {
        "layer_dims": list(params.layer_dims),
        "input_dim": params.input_dim,
        "config_digest": normalizer.config_digest,
        "normalizer": normalizer.to_dict(),
        "train_report": train_report.to_dict() if train_report else None,
        "swd_config": swd_config.to_dict() if swd_config else None,
        "variance_floor": variance_floor,
        "meta_init": meta_init,
        "seed": seed,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    block = params.flat.astype("<f4").tobytes()
    blob = _MODEL_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, len(header_bytes)) + header_bytes + block
    _atomic_write(path, blob)


def load_model(path: str | os.PathLike) -> LoadedModel:
    path = os.fspath(path)
    raw = _read_file(path)
    if len(raw) < _MODEL_HEADER.size:
        raise BadMagic(f"{path}: file shorter than header")
    magic, version, header_len = _MODEL_HEADER.unpack_from(raw)
    if magic != MODEL_MAGIC:
        raise BadMagic(f"{path}: bad magic {magic!r}")
    if version != MODEL_VERSION:
        raise BadMagic(f"{path}: unsupported version {version}")
    try:
        header = json.loads(raw[_MODEL_HEADER.size : _MODEL_HEADER.size + header_len])
    except PARSE_FAILURES as exc:  # not UTF-8, not JSON, or nested too deep
        raise BadMagic(f"{path}: corrupt header") from exc

    dims = header.get("layer_dims") if isinstance(header, dict) else None
    if not (isinstance(dims, list) and len(dims) >= 2
            and all(type(d) is int and d > 0 for d in dims)):
        raise BadMagic(f"{path}: header lacks a valid layer_dims list")
    layer_dims = tuple(dims)
    expected = sum(math.prod(s) for _, s in _shapes(layer_dims)) * 4
    block = raw[_MODEL_HEADER.size + header_len :]
    if len(block) != expected:
        raise TruncatedPayload(f"{path}: parameter block {len(block)} bytes, expected {expected}")
    # A signalling NaN would make the cast warn; the finiteness check below
    # rejects it.
    with np.errstate(invalid="ignore"):
        flat = np.frombuffer(block, dtype="<f4").astype(np.float64)
    params = MLPParams(layer_dims, flat)
    report = header.get("train_report")
    swd = header.get("swd_config")
    try:
        model = LoadedModel(
            params=params,
            normalizer=Normalizer.from_dict(header["normalizer"]),
            train_report=TrainReport.from_dict(report) if report else None,
            meta_init=bool(header.get("meta_init", False)),
            swd_config=SWDConfig.from_dict(swd) if swd else None,
            variance_floor=float(header.get("variance_floor", DEFAULT_VARIANCE_FLOOR)),
            seed=int(header.get("seed", 0)),
        )
    except PARSE_FAILURES as exc:
        raise BadMagic(f"{path}: invalid header field: {exc!r}") from exc
    if model.normalizer.feature_mean.shape != (layer_dims[0],):
        raise BadMagic(f"{path}: normalizer does not fit input dimension {layer_dims[0]}")
    if not 0 < model.variance_floor < math.inf:
        raise BadMagic(f"{path}: variance_floor {model.variance_floor} is not positive and finite")
    if not np.isfinite(params.flat).all():
        raise BadMagic(f"{path}: non-finite value in the parameter block")
    return model
