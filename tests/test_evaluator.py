import json
import math
import struct

import numpy as np
import pytest

from driftgauge import (
    MetaInstance,
    ShiftDescriptor,
    TrainConfig,
    adamw_step,
    cosine_lr,
    init_mlp,
    load_model,
    loss_and_grad,
    predict,
    predict_many,
    save_model,
    train,
)
from driftgauge.errors import (BadMagic, ConfigMismatch, InsufficientData, InvalidValue,
                               ShapeMismatch)
from driftgauge.evaluator import (
    LN_EPS,
    AdamState,
    MLPParams,
    Normalizer,
    TrainReport,
    _forward,
    dropout_masks,
    zeros_like,
)
from helpers import (
    finite_diff_grads,
    max_relative_error,
    reference_loss,
    synthetic_instances,
)


class TestInitMlp:
    def test_layer_shapes(self):
        p = init_mlp(5, seed=0)
        assert p.layer_dims == (5, 256, 128, 64, 1)
        assert [w.shape for w in p.weights] == [(5, 256), (256, 128), (128, 64), (64, 1)]
        assert [g.shape for g in p.ln_gain] == [(256,), (128,), (64,)]

    def test_deterministic(self):
        a, b = init_mlp(3, seed=7), init_mlp(3, seed=7)
        for ta, tb in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta, tb)

    def test_biases_zero_gains_one(self):
        p = init_mlp(4, seed=1)
        assert all(np.all(b == 0) for b in p.biases)
        assert all(np.all(g == 1) for g in p.ln_gain)
        assert all(np.all(o == 0) for o in p.ln_offset)

    def test_fan_in_bound(self):
        p = init_mlp(5, seed=2)
        assert np.max(np.abs(p.weights[0])) <= 1 / math.sqrt(5)
        assert np.max(np.abs(p.weights[1])) <= 1 / math.sqrt(256)


    @pytest.mark.parametrize("input_dim, seed", [(1, 0), (5, 3), (16, 4)])
    def test_draw_order(self, input_dim, seed):
        """Each weight block drawn from one uniform call, layer by layer, as
        every saved model was: a change of order would change their bits."""
        from driftgauge.seeding import rng_for

        rng, dims, parts = rng_for(seed), (input_dim, 256, 128, 64, 1), []
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            bound = 1 / math.sqrt(fan_in)
            parts += [rng.uniform(-bound, bound, size=(fan_in, fan_out)).ravel(), np.zeros(fan_out)]
            if i < 3:
                parts += [np.ones(fan_out), np.zeros(fan_out)]
        assert np.array_equal(init_mlp(input_dim, seed).flat, np.concatenate(parts))


class TestForward:
    """One feature vector through ``_forward``, in the inference layout
    unless dropout is on; ``predict_many`` checks the input width."""

    @staticmethod
    def infer(p, x):
        preds, _, _ = _forward(p, x[None, None, :], None, 0.0, want_caches=False)
        return float(preds[0])

    def test_zero_params_give_zero(self):
        p = zeros_like(init_mlp(5, seed=0))
        assert self.infer(p, np.ones(5)) == 0.0

    def test_inference_deterministic(self):
        p = init_mlp(5, seed=3)
        x = np.random.default_rng(0).standard_normal(5)
        assert self.infer(p, x) == self.infer(p, x)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(4)
        p = init_mlp(5, seed=5).map(lambda t: t + 0.1 * rng.standard_normal(t.shape))
        x = rng.standard_normal(5)
        mse_like = reference_loss(p, x[None, :], np.zeros(1))
        assert self.infer(p, x) ** 2 == pytest.approx(mse_like, rel=1e-9)

    def test_shape_mismatch(self):
        p = init_mlp(4, seed=6)
        norm = Normalizer(np.zeros(5), np.ones(5), "d")
        delta = ShiftDescriptor(1.0, 1.0, 1.0, 1.0, 1.0, config_digest="d")
        with pytest.raises(ShapeMismatch):
            predict_many(p, norm, [delta])

    def test_train_mode_dropout_fixed_by_seed(self):
        rng = np.random.default_rng(7)
        p = init_mlp(5, seed=8).map(lambda t: t + 0.1 * rng.standard_normal(t.shape))
        x = rng.standard_normal(5)

        def train_mode(dropout_seed):
            masks = dropout_masks(p.layer_dims, 1, dropout_seed, 0.2)
            preds, _, _ = _forward(p, x[None, :], masks, 0.2, want_caches=False)
            return float(preds[0])

        a = train_mode(11)
        b = train_mode(11)
        c = train_mode(12)
        assert a == b
        assert a != c


class TestLossAndGrad:
    def test_zero_network_zero_targets(self):
        p = zeros_like(init_mlp(5, seed=0))
        x = np.random.default_rng(1).standard_normal((4, 5))
        mse, grads = loss_and_grad(p, x, np.zeros(4))
        assert mse == 0.0
        assert np.all(grads.weights[-1] == 0) and np.all(grads.biases[-1] == 0)

    def test_duplicating_batch_leaves_outputs_unchanged(self):
        rng = np.random.default_rng(2)
        p = init_mlp(5, seed=9).map(lambda t: t + 0.05 * rng.standard_normal(t.shape))
        x = rng.standard_normal((3, 5))
        y = rng.random(3)
        mse1, g1 = loss_and_grad(p, x, y)
        mse2, g2 = loss_and_grad(p, np.vstack([x, x]), np.concatenate([y, y]))
        assert mse1 == pytest.approx(mse2, rel=1e-12)
        for a, b in zip(g1.tensors(), g2.tensors()):
            assert np.allclose(a, b, rtol=1e-10, atol=1e-14)

    def test_matches_finite_differences_small_draw(self):
        rng = np.random.default_rng(3)
        p = init_mlp(5, seed=10).map(lambda t: t + 0.05 * rng.standard_normal(t.shape))
        x = rng.standard_normal((2, 5))
        y = rng.random(2)
        _, grads = loss_and_grad(p, x, y, train_mode=False)
        fd = finite_diff_grads(p, x, y, h=1e-5, train_mode=False)
        worst = max(
            max_relative_error(a, b) for a, b in zip(grads.tensors(), fd.tensors())
        )
        assert worst <= 1e-3  # smoke check; the acceptance suite does 100 draws

    def test_grad_through_dropout(self):
        rng = np.random.default_rng(4)
        p = init_mlp(5, seed=11).map(lambda t: t + 0.05 * rng.standard_normal(t.shape))
        x = rng.standard_normal((2, 5))
        y = rng.random(2)
        mse, _ = loss_and_grad(p, x, y, train_mode=True, seed=21)
        assert mse == pytest.approx(reference_loss(p, x, y, train_mode=True, seed=21), rel=1e-12)

    def test_empty_batch_rejected(self):
        p = init_mlp(5, seed=12)
        with pytest.raises(ShapeMismatch):
            loss_and_grad(p, np.zeros((0, 5)), np.zeros(0))


class TestAdamW:
    def cfg(self, **kw):
        defaults = dict(weight_decay=0.0, seed=0)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def scalar_params(self, w):
        return MLPParams((1, 1), np.array([float(w), 0.0]))

    def test_zero_grads_no_decay_leaves_params(self):
        p = self.scalar_params(1.0)
        g = zeros_like(p)
        out, _ = adamw_step(AdamState.fresh(p), p, g, lr=0.1, cfg=self.cfg())
        assert out.weights[0][0, 0] == 1.0

    def test_hand_evaluated_first_step(self):
        p = self.scalar_params(1.0)
        g = p.map(np.ones_like)
        out, _ = adamw_step(AdamState.fresh(p), p, g, lr=0.1, cfg=self.cfg())
        assert out.weights[0][0, 0] == pytest.approx(0.9, abs=1e-6)

    def test_decoupled_decay_only(self):
        p = self.scalar_params(1.0)
        g = zeros_like(p)
        out, _ = adamw_step(
            AdamState.fresh(p), p, g, lr=0.1, cfg=self.cfg(weight_decay=0.5)
        )
        assert out.weights[0][0, 0] == pytest.approx(1.0 * (1 - 0.1 * 0.5))


class TestCosineLr:
    def test_start(self):
        assert cosine_lr(0, 100, 1e-4) == pytest.approx(1e-4)

    def test_end(self):
        assert cosine_lr(100, 100, 1e-4, eta_min=0.0) == pytest.approx(0.0, abs=1e-20)
        assert cosine_lr(100, 100, 1e-4, eta_min=1e-6) == pytest.approx(1e-6)

    def test_midpoint(self):
        assert cosine_lr(50, 100, 1e-4) == pytest.approx(5e-5)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            cosine_lr(101, 100, 1e-4)


class TestTrain:
    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            train(synthetic_instances(9, seed=0), TrainConfig(seed=0))

    def test_overfit_noiseless_linear(self):
        meta = synthetic_instances(10, seed=42)
        cfg = TrainConfig(batch_size=1, dropout=0.0, patience=20, seed=0)
        _, _, report = train(meta, cfg)
        assert report.train_loss_curve[-1] <= 1e-4

    def test_loss_curve_non_increasing_on_overfit_set(self):
        meta = synthetic_instances(10, seed=42)
        cfg = TrainConfig(batch_size=1, dropout=0.0, patience=20, seed=0)
        _, _, report = train(meta, cfg)
        curve = report.train_loss_curve
        violations = sum(1 for a, b in zip(curve, curve[1:]) if b > a)
        assert violations <= 2

    def test_early_stopping_on_patience(self):
        meta = synthetic_instances(40, seed=1)
        cfg = TrainConfig(patience=1, max_epochs=20, seed=3)
        _, _, report = train(meta, cfg)
        if report.stopped_early:
            assert report.epochs_run < 20

    def test_deterministic(self):
        meta = synthetic_instances(30, seed=2)
        cfg = TrainConfig(seed=11, max_epochs=4)
        p1, n1, r1 = train(meta, cfg)
        p2, n2, r2 = train(meta, cfg)
        assert r1.train_loss_curve == r2.train_loss_curve
        assert r1.best_val_mae == r2.best_val_mae
        for a, b in zip(p1.tensors(), p2.tensors()):
            assert np.array_equal(a, b)
        assert np.array_equal(n1.feature_mean, n2.feature_mean)

    def test_normalizer_fitted_on_train_split(self):
        meta = synthetic_instances(50, seed=3)
        cfg = TrainConfig(seed=5, max_epochs=1, val_fraction=0.2)
        _, norm, _ = train(meta, cfg)
        # reproduce the split with the library's own stream
        from driftgauge.seeding import rng_for

        feats = np.stack([m.delta.features() for m in meta])
        perm = rng_for(cfg.seed, 101).permutation(50)
        train_feats = feats[perm[10:]]
        z = norm.apply(train_feats)
        assert np.max(np.abs(z.mean(axis=0))) <= 1e-6
        assert np.max(np.abs(z.std(axis=0) - 1)) <= 1e-6

    def test_degenerate_targets_flagged(self):
        meta = synthetic_instances(20, seed=4, label_fn=lambda f: 0.5)
        _, _, report = train(meta, TrainConfig(seed=0, max_epochs=2))
        assert report.degenerate_targets

    def test_labels_out_of_range_rejected(self):
        meta = synthetic_instances(12, seed=5)
        bad = MetaInstance(
            delta=meta[0].delta, accuracy=1.0, task_id="t", sample_set_id="x", sample_set_size=3
        )
        object.__setattr__(bad, "accuracy", 1.2)
        with pytest.raises(ValueError):
            train(meta + [bad], TrainConfig(seed=0))

    def test_overflowing_feature_statistics_rejected(self):
        import dataclasses
        import warnings

        # Half the rows at 1.4e154: finite values whose variance overflows.
        meta = [dataclasses.replace(m, delta=dataclasses.replace(m.delta, sd_f=1.4e154)) if i % 2 else m
                for i, m in enumerate(synthetic_instances(12, seed=8))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValue, match="feature_mean/std must be finite"):
                train(meta, TrainConfig(seed=0))

    def test_mixed_digests_rejected(self):
        meta = synthetic_instances(8, seed=6) + synthetic_instances(8, seed=7, digest="other")
        with pytest.raises(ConfigMismatch):
            train(meta, TrainConfig(seed=0))


class TestPredict:
    def trained(self):
        meta = synthetic_instances(40, seed=8)
        params, norm, _ = train(meta, TrainConfig(seed=1, max_epochs=3))
        return params, norm

    def test_clipping(self):
        params, norm = self.trained()
        # force extreme raw outputs via the head bias
        params.biases[-1][0] = 100.0
        delta = synthetic_instances(1, seed=9)[0].delta
        assert predict(params, norm, delta) == 1.0
        params.biases[-1][0] = -100.0
        assert predict(params, norm, delta) == 0.0

    def test_in_unit_interval(self):
        params, norm = self.trained()
        for inst in synthetic_instances(20, seed=10):
            assert 0.0 <= predict(params, norm, inst.delta) <= 1.0

    def test_config_mismatch(self):
        params, norm = self.trained()
        foreign = synthetic_instances(1, seed=11, digest="foreign")[0].delta
        with pytest.raises(ConfigMismatch):
            predict(params, norm, foreign)

    @pytest.mark.parametrize("bias", [-0.5, 0.3, 1.7])
    def test_clamp_gives_np_clip_bits(self, bias):
        """Zero hidden-to-head weights make the raw output the head bias."""
        params = perturbed(20)
        params.weights[-1][:] = 0.0
        params.biases[-1][0] = bias
        norm = Normalizer(np.zeros(5), np.ones(5), "synthdigest")
        got = predict(params, norm, synthetic_instances(1, seed=21)[0].delta)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.clip(np.float64(bias), 0.0, 1.0).tobytes()

    @pytest.mark.parametrize("raw", [-0.0, 0.0, -1e-300, 1.0 + 2**-52, math.nan])
    def test_clamp_edge_values_give_np_clip_bits(self, monkeypatch, raw):
        """Raw outputs the head cannot be steered to: a ``-0.0`` stays
        ``-0.0`` and a NaN stays NaN, as under ``np.clip``."""
        import driftgauge.evaluator as ev

        monkeypatch.setattr(ev, "_forward", lambda *args, **kw: (np.array([raw]), None, []))
        norm = Normalizer(np.zeros(5), np.ones(5), "synthdigest")
        got = predict(perturbed(20), norm, synthetic_instances(1, seed=21)[0].delta)
        assert np.float64(got).tobytes() == np.clip(np.float64(raw), 0.0, 1.0).tobytes()


class TestModelFile:
    def test_round_trip_and_reserialization_invariance(self, tmp_path):
        meta = synthetic_instances(40, seed=12)
        params, norm, report = train(meta, TrainConfig(seed=2, max_epochs=3))
        p1 = tmp_path / "m1.fsmlp"
        p2 = tmp_path / "m2.fsmlp"
        save_model(p1, params, norm, train_report=report, seed=77)
        m1 = load_model(p1)
        save_model(p2, m1.params, m1.normalizer, train_report=m1.train_report, seed=77)
        m2 = load_model(p2)
        delta = synthetic_instances(1, seed=13)[0].delta
        assert predict(m1.params, m1.normalizer, delta) == predict(m2.params, m2.normalizer, delta)
        assert p1.read_bytes()[25:] == p2.read_bytes()[25:]  # identical past the header struct

    def test_header_fields(self, tmp_path):
        meta = synthetic_instances(40, seed=14)
        params, norm, report = train(meta, TrainConfig(seed=3, max_epochs=2))
        path = tmp_path / "m.fsmlp"
        save_model(path, params, norm, train_report=report, meta_init=True, seed=5)
        m = load_model(path)
        assert m.meta_init is True
        assert m.seed == 5
        assert isinstance(m.train_report, TrainReport)
        assert m.normalizer.config_digest == norm.config_digest

    def test_truncated_model_rejected(self, tmp_path):
        from driftgauge.errors import TruncatedPayload

        meta = synthetic_instances(40, seed=15)
        params, norm, _ = train(meta, TrainConfig(seed=4, max_epochs=1))
        path = tmp_path / "m.fsmlp"
        save_model(path, params, norm)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(TruncatedPayload):
            load_model(path)


# ---------------------------------------------------------------------------
# the flat parameter vector and row-exact inference, checked bit for bit
# against the per-tensor and ndarray.mean/var formulations they replaced


def perturbed(seed, input_dim=5):
    rng = np.random.default_rng(seed)
    return init_mlp(input_dim, seed=seed).map(lambda t: t + 0.1 * rng.standard_normal(t.shape))


def mean_var_forward(params, x):
    """Inference forward pass with layer norm written via ndarray.mean/var."""
    a = x
    for i in range(len(params.layer_dims) - 2):
        z = a @ params.weights[i] + params.biases[i]
        mu = z.mean(axis=1, keepdims=True)
        istd = 1.0 / np.sqrt(z.var(axis=1, keepdims=True) + LN_EPS)
        a = np.maximum((z - mu) * istd * params.ln_gain[i] + params.ln_offset[i], 0.0)
    return (a @ params.weights[-1] + params.biases[-1]).ravel()


def mean_var_grads(params, x, y):
    """Inference-mode MSE gradient as per-tensor lists, layer norm via
    ndarray.mean/var, in declaration order."""
    caches, a = [], x
    for i in range(len(params.layer_dims) - 2):
        z = a @ params.weights[i] + params.biases[i]
        mu = z.mean(axis=1, keepdims=True)
        istd = 1.0 / np.sqrt(z.var(axis=1, keepdims=True) + LN_EPS)
        xhat = (z - mu) * istd
        pre = xhat * params.ln_gain[i] + params.ln_offset[i]
        caches.append((a, xhat, istd, pre))
        a = np.maximum(pre, 0.0)
    dpreds = (2.0 / len(y)) * ((a @ params.weights[-1] + params.biases[-1]).ravel() - y)
    out = [a.T @ dpreds[:, None], np.array([dpreds.sum()])]
    da = np.outer(dpreds, params.weights[-1][:, 0])
    for i in range(len(caches) - 1, -1, -1):
        a_in, xhat, istd, pre = caches[i]
        dy = da * (pre > 0)
        dxhat = dy * params.ln_gain[i]
        dz = istd * (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        )
        out = [a_in.T @ dz, dz.sum(axis=0), (dy * xhat).sum(axis=0), dy.sum(axis=0)] + out
        da = dz @ params.weights[i].T
    return out


class TestFlatParams:
    def test_tensors_are_views_of_flat_in_declaration_order(self):
        p = init_mlp(5, seed=0)
        assert all(np.shares_memory(t, p.flat) for t in p.tensors())
        assert np.array_equal(np.concatenate([t.ravel() for t in p.tensors()]), p.flat)
        assert [t.shape for t in p.tensors()][:6] == [(5, 256), (256,), (256,), (256,), (256, 128), (128,)]
        p.biases[-1][0] = 3.0
        assert p.flat[-1] == 3.0

    def test_from_flat_wraps_without_copying(self):
        p = init_mlp(3, seed=2)
        assert MLPParams(p.layer_dims, p.flat).flat is p.flat

    def test_shapes_checked(self):
        p = init_mlp(3, seed=3)
        with pytest.raises(ShapeMismatch):
            MLPParams(p.layer_dims, p.flat[:-1])

    def test_map_draw_equals_per_tensor_draws(self):
        p = init_mlp(5, seed=4)
        flat = p.map(lambda t: t + np.random.default_rng(5).standard_normal(t.shape))
        rng = np.random.default_rng(5)
        for a, b in zip(flat.tensors(), p.tensors()):
            assert np.array_equal(a, b + rng.standard_normal(b.shape))


class TestBitIdentity:
    def test_forward_both_layouts_match_mean_var_formulas(self):
        p = perturbed(6)
        x = np.random.default_rng(7).standard_normal((9, 5))
        batch, _, _ = _forward(p, x, None, 0.0, want_caches=False)
        assert np.array_equal(batch, mean_var_forward(p, x))
        stacked, _, _ = _forward(p, x[:, None, :], None, 0.0, want_caches=False)
        assert np.array_equal(stacked, [mean_var_forward(p, row[None, :])[0] for row in x])

    def test_loss_and_grad_matches_mean_var_formulas(self):
        p = perturbed(8)
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal((13, 5)), rng.random(13)
        _, grads = loss_and_grad(p, x, y)
        for got, want in zip(grads.tensors(), mean_var_grads(p, x, y), strict=True):
            assert np.array_equal(got, want)

    def test_adamw_matches_per_tensor_formulas(self):
        p, g = perturbed(10), perturbed(11)
        cfg = TrainConfig(weight_decay=1e-3)
        state = AdamState(m=perturbed(12), v=perturbed(13).map(np.abs), t=4)
        out, new = adamw_step(state, p, g, lr=3e-4, cfg=cfg)
        t = state.t + 1
        bc1, bc2 = 1.0 - cfg.beta1**t, 1.0 - cfg.beta2**t
        for w, gt, m, v, w2, m2, v2 in zip(
            p.tensors(), g.tensors(), state.m.tensors(), state.v.tensors(),
            out.tensors(), new.m.tensors(), new.v.tensors(),
        ):
            m_ref = cfg.beta1 * m + (1 - cfg.beta1) * gt
            v_ref = cfg.beta2 * v + (1 - cfg.beta2) * gt * gt
            decayed = w * (1.0 - 3e-4 * cfg.weight_decay)
            w_ref = decayed - 3e-4 * (m_ref / bc1) / (np.sqrt(v_ref / bc2) + 1e-8)
            assert np.array_equal(m2, m_ref) and np.array_equal(v2, v_ref)
            assert np.array_equal(w2, w_ref)
        assert new.t == t


class TestPredictMany:
    def model(self):
        feats = np.stack([m.delta.features() for m in synthetic_instances(30, seed=14)])
        return perturbed(15), Normalizer.fit(feats, "synthdigest")

    @pytest.mark.parametrize("n", [0, 1, 3, 64, 1001])
    def test_bit_identical_to_per_row_predict(self, n):
        params, norm = self.model()
        deltas = [m.delta for m in synthetic_instances(n, seed=16)]
        got = predict_many(params, norm, deltas)
        assert got.shape == (n,)
        assert np.array_equal(got, [predict(params, norm, d) for d in deltas])

    def test_config_mismatch_in_any_row(self):
        params, norm = self.model()
        deltas = [m.delta for m in synthetic_instances(4, seed=17)]
        deltas[2] = synthetic_instances(1, seed=18, digest="foreign")[0].delta
        with pytest.raises(ConfigMismatch):
            predict_many(params, norm, deltas)

    def test_bit_identical_to_predict_far_from_the_normalizer(self):
        """1000 rows whose features lie up to 1e6 normalizer stds from its
        mean; the first 100 are all at that scale."""
        params, norm = self.model()
        rng = np.random.default_rng(19)
        scales = np.concatenate([np.full(100, 1e6), 10.0 ** rng.uniform(-3, 6, 900)])
        feats = np.abs(norm.feature_mean
                       + scales[:, None] * norm.feature_std * rng.standard_normal((1000, 5)))
        deltas = [ShiftDescriptor(*map(float, f), config_digest="synthdigest") for f in feats]
        assert np.array_equal(predict_many(params, norm, deltas),
                              [predict(params, norm, d) for d in deltas])


def write_pre_flat_model(path, params, norm, report, seed):
    """A model file assembled the way ``save_model`` wrote it before the flat
    vector: the header, then each tensor's float32 bytes in declaration order."""
    header = {
        "layer_dims": list(params.layer_dims),
        "input_dim": params.layer_dims[0],
        "config_digest": norm.config_digest,
        "normalizer": norm.to_dict(),
        "train_report": report.to_dict(),
        "swd_config": None,
        "variance_floor": 1e-8,
        "meta_init": False,
        "seed": seed,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = struct.pack("<8sIQ", b"FSMLP\x00\x00\x00", 1, len(head)) + head
    path.write_bytes(blob + b"".join(t.astype("<f4").tobytes() for t in params.tensors()))


class TestModelFileLayout:
    def test_pre_flat_files_load_and_rewrite_byte_identically(self, tmp_path):
        params, norm, report = train(synthetic_instances(40, seed=19), TrainConfig(seed=6, max_epochs=2))
        old = tmp_path / "old.fsmlp"
        write_pre_flat_model(old, params, norm, report, seed=9)
        loaded = load_model(old)
        for got, orig in zip(loaded.params.tensors(), params.tensors(), strict=True):
            assert np.array_equal(got, orig.astype(np.float32).astype(np.float64))
        new = tmp_path / "new.fsmlp"
        save_model(new, params, norm, train_report=report, seed=9)
        assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("header", [{"seed": 0}, {"layer_dims": "5"}, {"layer_dims": [5, 0, 1]}, [5, 1]])
    def test_header_without_valid_layer_dims_is_bad_magic(self, tmp_path, header):
        head = json.dumps(header).encode("utf-8")
        path = tmp_path / "m.fsmlp"
        path.write_bytes(struct.pack("<8sIQ", b"FSMLP\x00\x00\x00", 1, len(head)) + head)
        with pytest.raises(BadMagic):
            load_model(path)
