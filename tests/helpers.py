"""Independent oracle implementations shared by the test modules.

Everything here re-derives results from first principles (brute force,
exact decompositions, assignment solvers, finite differences) so the library
code is checked against computations that do not share its code paths.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from driftgauge import MetaInstance, ShiftDescriptor
from driftgauge.evaluator import dropout_masks

LN_EPS = 1e-5


# ---------------------------------------------------------------------------
# exact 1-D optimal transport


def exact_w2_squared_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Quadratic transport cost between equal-size 1-D samples via the
    Hungarian assignment on the full cost matrix (no sorting shortcut)."""
    cost = (a[:, None] - b[None, :]) ** 2
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / len(a))


# ---------------------------------------------------------------------------
# plain float64 descriptor kernels, on full copies and without row blocks


def reference_moments(data, floor):
    """Two-pass mean and floored population variance of a full float64 copy."""
    x = np.asarray(data, dtype=np.float64)
    mean = x.sum(axis=0) / x.shape[0]
    var = ((x - mean) ** 2).sum(axis=0) / x.shape[0]
    return mean, np.maximum(var, floor)


def reference_radii(data, mean, var):
    """Whitened radii of every row under the given mean and variance."""
    x = np.asarray(data, dtype=np.float64)
    return np.sqrt((((x - mean) / np.sqrt(var)) ** 2).sum(axis=1))


def reference_sliced_w2_per_slice(a, b, directions, quantiles):
    """Per-slice squared W2: sorted pairing for equal sizes, otherwise one
    ``np.interp`` quantile curve per slice on the grid (q+0.5)/Q with order
    statistic i at (i+0.5)/n."""
    pa = np.sort(directions @ np.asarray(a, dtype=np.float64).T, axis=1)
    pb = np.sort(directions @ np.asarray(b, dtype=np.float64).T, axis=1)
    if pa.shape[1] == pb.shape[1]:
        return ((pa - pb) ** 2).mean(axis=1)
    grid = (np.arange(quantiles) + 0.5) / quantiles
    out = np.empty(pa.shape[0])
    for l in range(pa.shape[0]):
        qa = np.interp(grid, (np.arange(pa.shape[1]) + 0.5) / pa.shape[1], pa[l])
        qb = np.interp(grid, (np.arange(pb.shape[1]) + 0.5) / pb.shape[1], pb[l])
        out[l] = ((qa - qb) ** 2).mean()
    return out


def reference_sd_sw(a, b, directions, quantiles):
    """``sd_sw`` in float64 throughout: the root of the mean per-slice
    squared W2 of ``reference_sliced_w2_per_slice``."""
    return float(np.sqrt(reference_sliced_w2_per_slice(a, b, directions, quantiles).mean()))


# ---------------------------------------------------------------------------
# exact PCA


def exact_principal_directions(data: np.ndarray, k: int) -> np.ndarray:
    """Top-k right singular vectors of the centered data, exactly."""
    x = np.asarray(data, dtype=np.float64)
    x = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(x, full_matrices=False)
    return vt[:k]


def subspace_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle (radians) between the row spans of a and b."""
    qa, _ = np.linalg.qr(a.T)
    qb, _ = np.linalg.qr(b.T)
    s = np.clip(np.linalg.svd(qa.T @ qb, compute_uv=False), -1.0, 1.0)
    return float(np.arccos(s.min()))


def explained_variance_fraction(data: np.ndarray, directions: np.ndarray) -> float:
    x = np.asarray(data, dtype=np.float64)
    x = x - x.mean(axis=0)
    total = np.sum(x.var(axis=0))
    captured = np.sum((x @ directions.T).var(axis=0))
    return float(captured / total)


# ---------------------------------------------------------------------------
# reference MLP loss and finite differences

# The reference forward below re-implements the network math from the module
# contract (affine -> layer norm -> ReLU -> inverted dropout, affine head,
# batch-mean squared error); only the dropout masks are taken from the
# library, because they are part of the loss definition being differentiated.


def reference_loss(params, x, y, train_mode=False, seed=0, dropout=0.2):
    masks = (
        dropout_masks(params.layer_dims, x.shape[0], seed, dropout)
        if train_mode and dropout > 0
        else None
    )
    a = np.asarray(x, dtype=np.float64)
    hidden = len(params.layer_dims) - 2
    for i in range(hidden):
        z = a @ params.weights[i] + params.biases[i]
        mu = z.mean(axis=1, keepdims=True)
        var = z.var(axis=1, keepdims=True)
        xhat = (z - mu) / np.sqrt(var + LN_EPS)
        out = np.maximum(xhat * params.ln_gain[i] + params.ln_offset[i], 0.0)
        if masks is not None:
            out = out * masks[i] / (1.0 - dropout)
        a = out
    preds = (a @ params.weights[-1] + params.biases[-1]).ravel()
    return float(np.mean((preds - np.asarray(y).ravel()) ** 2))


class _ForwardPieces:
    """Cached per-layer quantities of the reference forward, so a one-entry
    perturbation only recomputes from its own layer downstream."""

    def __init__(self, params, x, y, train_mode, seed, dropout):
        self.params = params
        self.x = np.asarray(x, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64).ravel()
        self.hidden = len(params.layer_dims) - 2
        self.dropout = dropout if train_mode and dropout > 0 else 0.0
        self.masks = (
            dropout_masks(params.layer_dims, self.x.shape[0], seed, dropout)
            if self.dropout > 0
            else None
        )
        self.a = [self.x]  # post-dropout activations entering each layer
        self.z = []
        self.xhat = []
        self.pre_drop = []
        a = self.x
        for i in range(self.hidden):
            z = a @ params.weights[i] + params.biases[i]
            mu = z.mean(axis=1, keepdims=True)
            var = z.var(axis=1, keepdims=True)
            xhat = (z - mu) / np.sqrt(var + LN_EPS)
            r = np.maximum(xhat * params.ln_gain[i] + params.ln_offset[i], 0.0)
            a = r * self.masks[i] / (1 - dropout) if self.masks is not None else r
            self.z.append(z)
            self.xhat.append(xhat)
            self.a.append(a)

    def losses_from_z(self, layer: int, z_variants: np.ndarray) -> np.ndarray:
        """Batch of losses for K variants of layer ``layer`` pre-norm values.

        z_variants: (K, B, H).  All downstream layers run as one stacked
        batch per matrix product.
        """
        k, b, h = z_variants.shape
        cur = z_variants.reshape(k * b, h)
        for i in range(layer, self.hidden):
            mu = cur.mean(axis=1, keepdims=True)
            var = cur.var(axis=1, keepdims=True)
            xhat = (cur - mu) / np.sqrt(var + LN_EPS)
            r = np.maximum(
                xhat * self.params.ln_gain[i] + self.params.ln_offset[i], 0.0
            )
            if self.masks is not None:
                r = r * np.tile(self.masks[i], (k, 1)) / (1 - self.dropout)
            if i + 1 < self.hidden:
                cur = r @ self.params.weights[i + 1] + self.params.biases[i + 1]
            else:
                preds = (r @ self.params.weights[-1] + self.params.biases[-1]).ravel()
                return self._losses(preds, k, b)
            # cur now holds z of layer i+1 for every variant
        raise AssertionError("unreachable")

    def losses_from_post_ln(self, layer: int, y_variants: np.ndarray) -> np.ndarray:
        """Losses for K variants of layer ``layer`` post-layer-norm values."""
        k, b, h = y_variants.shape
        r = np.maximum(y_variants.reshape(k * b, h), 0.0)
        if self.masks is not None:
            r = r * np.tile(self.masks[layer], (k, 1)) / (1 - self.dropout)
        if layer + 1 < self.hidden:
            z_next = r @ self.params.weights[layer + 1] + self.params.biases[layer + 1]
            return self.losses_from_z(layer + 1, z_next.reshape(k, b, -1))
        preds = (r @ self.params.weights[-1] + self.params.biases[-1]).ravel()
        return self._losses(preds, k, b)

    def losses_from_preds(self, pred_variants: np.ndarray) -> np.ndarray:
        k, b = pred_variants.shape
        return self._losses(pred_variants.ravel(), k, b)

    def _losses(self, flat_preds: np.ndarray, k: int, b: int) -> np.ndarray:
        err = flat_preds.reshape(k, b) - self.y
        return np.mean(err**2, axis=1)


def finite_diff_entries(
    params,
    x,
    y,
    h=1e-4,
    train_mode=False,
    seed=0,
    dropout=0.2,
    chunk=2048,
    hidden_weight_shard=(0, 1),
):
    """Central finite differences of the batch MSE, vectorized.

    A perturbation of one entry enters the forward pass at a known point
    (pre-norm column for weights/biases, post-norm column for gains/offsets,
    prediction for the head), so variants stack along the batch axis and each
    chunk costs a few shared matrix products.

    ``hidden_weight_shard=(s, n)`` restricts the two big interior weight
    matrices to every n-th flat entry starting at s; all other tensors are
    always covered in full.  Returns a list of (tensor_name, tensor_index,
    flat_entry_indices, fd_values).
    """
    pieces = _ForwardPieces(params, x, y, train_mode, seed, dropout)
    batch = pieces.x.shape[0]
    hidden = pieces.hidden

    def fd_from(losses_fn, base, deltas):
        """deltas: (P, B, H) additive perturbations of base (B, H)."""
        n_var = deltas.shape[0]
        out = np.empty(n_var)
        for start in range(0, n_var, chunk):
            block = deltas[start : start + chunk]
            plus = losses_fn(base[None] + block)
            minus = losses_fn(base[None] - block)
            out[start : start + block.shape[0]] = (plus - minus) / (2 * h)
        return out

    results = []
    tensor_idx = 0
    diag = lambda width: np.arange(width)
    for layer in range(hidden):
        a_in = pieces.a[layer]
        z = pieces.z[layer]
        fan_in, fan_out = params.weights[layer].shape
        fn = lambda v, L=layer: pieces.losses_from_z(L, v)

        if layer == 0:
            k_idx = np.arange(fan_in * fan_out)
        else:
            s, n = hidden_weight_shard
            k_idx = np.arange(s, fan_in * fan_out, n)
        deltas = np.zeros((len(k_idx), batch, fan_out))
        deltas[np.arange(len(k_idx)), :, k_idx % fan_out] = h * a_in[:, k_idx // fan_out].T
        results.append((f"W{layer}", tensor_idx, k_idx, fd_from(fn, z, deltas)))
        tensor_idx += 1

        deltas = np.zeros((fan_out, batch, fan_out))
        deltas[diag(fan_out), :, diag(fan_out)] = h
        results.append((f"b{layer}", tensor_idx, np.arange(fan_out), fd_from(fn, z, deltas)))
        tensor_idx += 1

        y_ln = pieces.xhat[layer] * params.ln_gain[layer] + params.ln_offset[layer]
        fn_ln = lambda v, L=layer: pieces.losses_from_post_ln(L, v)
        deltas = np.zeros((fan_out, batch, fan_out))
        deltas[diag(fan_out), :, diag(fan_out)] = h * pieces.xhat[layer].T
        results.append(
            (f"g{layer}", tensor_idx, np.arange(fan_out), fd_from(fn_ln, y_ln, deltas))
        )
        tensor_idx += 1

        deltas = np.zeros((fan_out, batch, fan_out))
        deltas[diag(fan_out), :, diag(fan_out)] = h
        results.append(
            (f"o{layer}", tensor_idx, np.arange(fan_out), fd_from(fn_ln, y_ln, deltas))
        )
        tensor_idx += 1

    a_last = pieces.a[-1]
    preds = (a_last @ params.weights[-1] + params.biases[-1]).ravel()
    fan_in = params.weights[-1].shape[0]
    deltas = h * a_last.T  # row i perturbs the prediction via head weight i
    plus = pieces.losses_from_preds(preds[None] + deltas)
    minus = pieces.losses_from_preds(preds[None] - deltas)
    results.append(
        (
            "W_out",
            tensor_idx,
            np.arange(fan_in),
            (plus - minus) / (2 * h),
        )
    )
    tensor_idx += 1
    plus = pieces.losses_from_preds(preds[None] + h)
    minus = pieces.losses_from_preds(preds[None] - h)
    results.append(("b_out", tensor_idx, np.arange(1), (plus - minus) / (2 * h)))
    return results


def finite_diff_grads(params, x, y, **kw):
    """Full-coverage convenience wrapper returning an MLPParams-shaped tree."""
    entries = finite_diff_entries(params, x, y, **kw)
    tensors = [np.zeros_like(t) for t in params.tensors()]
    for _, t_idx, flat_idx, vals in entries:
        tensors[t_idx].ravel()[flat_idx] = vals
    return type(params)(params.layer_dims, np.concatenate([t.ravel() for t in tensors]))


def naive_fd_entry(params, x, y, tensor_idx, entry, h=1e-4, **loss_kw) -> float:
    """Plain two-sided difference on one flattened entry, used to cross-check
    the cached oracle above."""
    tensors = params.tensors()
    flat = tensors[tensor_idx].ravel()
    orig = flat[entry]
    flat[entry] = orig + h
    plus = reference_loss(params, x, y, **loss_kw)
    flat[entry] = orig - h
    minus = reference_loss(params, x, y, **loss_kw)
    flat[entry] = orig
    return (plus - minus) / (2 * h)


def max_relative_error(a, b, floor=1e-6) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)))


# ---------------------------------------------------------------------------
# synthetic meta-instances without descriptor computation


def synthetic_instances(n, seed, digest="synthdigest", task_id="t0", label_fn=None):
    """Instances whose features are drawn directly (no embedding sets), with
    labels from ``label_fn(features) -> [0, 1]`` (noiseless linear default)."""
    rng = np.random.default_rng(seed)
    if label_fn is None:
        w = np.array([0.02, -0.05, 0.3, -0.08, 0.04])
        label_fn = lambda f: float(np.clip(0.5 + w @ (f - f.mean()), 0.05, 0.95))
    out = []
    for i in range(n):
        f = np.abs(rng.standard_normal(5) * np.array([10, 3, 1, 2, 2]) + np.array([8, 4, 1, 2, 2]))
        delta = ShiftDescriptor(
            sd_f=f[0], sd_m_mean=f[1], sd_m_std=f[2], sd_sw=f[3], euclid_mean=f[4],
            config_digest=digest,
        )
        out.append(
            MetaInstance(
                delta=delta,
                accuracy=label_fn(f),
                task_id=task_id,
                sample_set_id=f"s{i}",
                sample_set_size=100,
            )
        )
    return out
