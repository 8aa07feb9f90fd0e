import numpy as np
import pytest

from driftgauge import (
    MetaTask,
    Normalizer,
    ReptileConfig,
    adapt_to_model,
    inner_adapt,
    init_mlp,
    meta_train,
    reptile_outer,
)
from driftgauge.errors import EmptyProbe, InsufficientData, InsufficientTasks, ShapeMismatch
from driftgauge.evaluator import MLPParams, loss_and_grad, zeros_like
from driftgauge.meta_learning import _gd_steps
from helpers import synthetic_instances


def norm_for(instances):
    feats = np.stack([i.delta.features() for i in instances])
    return Normalizer.fit(feats, instances[0].delta.config_digest)


def params_close(a, b, atol=0.0):
    return all(np.allclose(x, y, atol=atol, rtol=0.0) for x, y in zip(a.tensors(), b.tensors()))


class TestInnerAdapt:
    def test_zero_steps_identity(self):
        insts = synthetic_instances(6, seed=0)
        task = MetaTask(task_id="t", instances=insts)
        theta = init_mlp(5, seed=1)
        out = inner_adapt(theta, norm_for(insts), task, alpha=0.1, steps=0)
        assert out is theta

    def test_zero_gradient_leaves_params(self):
        # a network with all-zero parameters and labels equal to its output
        insts = synthetic_instances(6, seed=1, label_fn=lambda f: 0.0)
        task = MetaTask(task_id="t", instances=insts)
        theta = zeros_like(init_mlp(5, seed=2))
        out = inner_adapt(theta, norm_for(insts), task, alpha=0.5, steps=4)
        assert params_close(theta, out, atol=1e-15)

    def test_matches_manual_gradient_descent(self):
        insts = synthetic_instances(8, seed=2)
        task = MetaTask(task_id="t", instances=insts)
        norm = norm_for(insts)
        theta = init_mlp(5, seed=3)
        alpha = 0.01
        out = inner_adapt(theta, norm, task, alpha=alpha, steps=2)

        feats = np.stack([i.delta.features() for i in insts])
        labels = np.array([i.accuracy for i in insts])
        manual = theta
        for _ in range(2):
            _, grads = loss_and_grad(manual, norm.apply(feats), labels, train_mode=False)
            manual = manual.map(lambda w, g: w - alpha * g, grads)
        assert params_close(out, manual)

    def test_one_step_bit_identical_to_per_tensor_update(self):
        insts = synthetic_instances(8, seed=5)
        norm = norm_for(insts)
        theta = init_mlp(5, seed=6)
        out = _gd_steps(theta, norm, insts, 0.03, 1)
        feats = np.stack([i.delta.features() for i in insts])
        labels = np.array([i.accuracy for i in insts])
        _, grads = loss_and_grad(theta, norm.apply(feats), labels, train_mode=False)
        for got, w, g in zip(out.tensors(), theta.tensors(), grads.tensors(), strict=True):
            assert np.array_equal(got, w - 0.03 * g)


def plain_gd(theta, norm, instances, alpha, steps):
    """Reference inner loop: w - alpha * g into fresh arrays every step."""
    feats = np.stack([i.delta.features() for i in instances])
    labels = np.array([i.accuracy for i in instances])
    x = norm.apply(feats)
    for _ in range(steps):
        _, grads = loss_and_grad(theta, x, labels, train_mode=False)
        theta = MLPParams(theta.layer_dims, theta.flat - alpha * grads.flat)
    return theta


class TestGdStepsInPlace:
    """The inner step is written into the gradient buffer; the result must
    equal the plain loop bit for bit and leave the caller's theta alone."""

    @pytest.mark.parametrize("steps", [3, 5])
    def test_gd_steps_and_adapt_match_plain_loop(self, steps):
        insts = synthetic_instances(10, seed=40 + steps)
        norm = norm_for(insts)
        theta = init_mlp(5, seed=41)
        before = theta.flat.tobytes()
        alpha = 0.07
        expect = plain_gd(theta, norm, insts, alpha, steps)

        out = _gd_steps(theta, norm, insts, alpha, steps)
        cfg = ReptileConfig(inner_lr=alpha, inner_steps=steps, seed=0)
        adapted = adapt_to_model(theta, norm, insts, cfg)

        assert np.array_equal(out.flat, expect.flat)
        assert np.array_equal(adapted.flat, expect.flat)
        for got in (out, adapted):
            assert not np.shares_memory(got.flat, theta.flat)
            for view, ref in zip(got.tensors(), expect.tensors(), strict=True):
                assert np.shares_memory(view, got.flat) and np.array_equal(view, ref)
        assert theta.flat.tobytes() == before
        task = MetaTask(task_id="t", instances=insts)
        assert inner_adapt(theta, norm, task, alpha, steps=0) is theta


class TestReptileOuter:
    def test_epsilon_zero(self):
        a, b = init_mlp(5, seed=4), init_mlp(5, seed=5)
        assert params_close(reptile_outer(a, b, 0.0), a)

    def test_epsilon_one(self):
        a, b = init_mlp(5, seed=6), init_mlp(5, seed=7)
        assert params_close(reptile_outer(a, b, 1.0), b)

    def test_midpoint(self):
        a = zeros_like(init_mlp(5, seed=8)).map(lambda t: t + 1.0)
        b = zeros_like(init_mlp(5, seed=8)).map(lambda t: t + 2.0)
        mid = reptile_outer(a, b, 0.5)
        assert all(np.allclose(t, 1.5) for t in mid.tensors())

    def test_exact_interpolation_identity(self):
        rng = np.random.default_rng(9)
        a = init_mlp(5, seed=10).map(lambda t: t + rng.standard_normal(t.shape))
        b = init_mlp(5, seed=11).map(lambda t: t + rng.standard_normal(t.shape))
        eps = 0.37
        out = reptile_outer(a, b, eps)
        expect = a.map(lambda x, y: (1 - eps) * x + eps * y, b)
        assert params_close(out, expect, atol=1e-15)

    def test_bit_identical_to_per_tensor_interpolation(self):
        rng = np.random.default_rng(14)
        a = init_mlp(5, seed=15).map(lambda t: t + rng.standard_normal(t.shape))
        b = init_mlp(5, seed=16)
        out = reptile_outer(a, b, 0.3)
        for got, x, y in zip(out.tensors(), a.tensors(), b.tensors(), strict=True):
            assert np.array_equal(got, (1.0 - 0.3) * x + 0.3 * y)

    def test_shape_mismatch(self):
        a = init_mlp(5, seed=12)
        b = init_mlp(4, seed=13)
        with pytest.raises(ShapeMismatch):
            reptile_outer(a, b, 0.5)


class TestMetaTrain:
    def test_requires_tasks(self):
        with pytest.raises(InsufficientTasks):
            meta_train([], 5, ReptileConfig(seed=0))

    def test_task_with_one_instance_named(self):
        with pytest.raises(InsufficientData, match="task 'lone'"):
            MetaTask(task_id="lone", instances=synthetic_instances(1, seed=2))

    def test_single_round_epsilon_one_equals_inner_adapt(self):
        insts = synthetic_instances(10, seed=3)
        task = MetaTask(task_id="t", instances=insts)
        cfg = ReptileConfig(inner_lr=0.05, outer_step=1.0, inner_steps=3, meta_rounds=1, seed=4)
        theta, norm = meta_train([task], 5, cfg)
        from driftgauge.seeding import spawn_seed

        start = init_mlp(5, spawn_seed(cfg.seed, 201))
        expect = inner_adapt(start, norm, task, cfg.inner_lr, cfg.inner_steps)
        assert params_close(theta, expect)

    def test_single_task_epsilon_one_equals_plain_gd_sequence(self):
        insts = synthetic_instances(10, seed=4)
        task = MetaTask(task_id="t", instances=insts)
        rounds, steps = 3, 2
        cfg = ReptileConfig(inner_lr=0.02, outer_step=1.0, inner_steps=steps, meta_rounds=rounds, seed=5)
        theta, norm = meta_train([task], 5, cfg)
        from driftgauge.seeding import spawn_seed

        manual = init_mlp(5, spawn_seed(cfg.seed, 201))
        manual = inner_adapt(manual, norm, task, cfg.inner_lr, rounds * steps)
        assert params_close(theta, manual)

    def test_deterministic(self):
        tasks = [
            MetaTask(task_id=f"t{k}", instances=synthetic_instances(8, seed=10 + k))
            for k in range(3)
        ]
        cfg = ReptileConfig(meta_rounds=5, seed=6)
        t1, n1 = meta_train(tasks, 5, cfg)
        t2, n2 = meta_train(tasks, 5, cfg)
        assert params_close(t1, t2)
        assert np.array_equal(n1.feature_mean, n2.feature_mean)

    def test_input_dim_checked(self):
        task = MetaTask(task_id="t", instances=synthetic_instances(6, seed=20))
        with pytest.raises(ShapeMismatch):
            meta_train([task], 7, ReptileConfig(seed=0, meta_rounds=1))


class TestAdaptToModel:
    def test_empty_probe(self):
        theta = init_mlp(5, seed=14)
        norm = norm_for(synthetic_instances(4, seed=5))
        with pytest.raises(EmptyProbe):
            adapt_to_model(theta, norm, [], ReptileConfig(seed=0))

    def test_zero_inner_steps_identity(self):
        theta = init_mlp(5, seed=15)
        probe = synthetic_instances(4, seed=6)
        cfg = ReptileConfig(inner_steps=0, seed=0)
        assert adapt_to_model(theta, norm_for(probe), probe, cfg) is theta

    def test_adaptation_improves_biased_task(self):
        # a shared function plus a per-task offset: the adapted evaluator must
        # beat the unadapted initialization on held-out instances of the task
        base_w = np.array([0.015, -0.04, 0.2, -0.06, 0.03])

        def task_fn(bias):
            return lambda f: float(np.clip(0.5 + bias + base_w @ (f - f.mean()), 0.02, 0.98))

        tasks = [
            MetaTask(
                task_id=f"t{k}",
                instances=synthetic_instances(32, seed=30 + k, label_fn=task_fn(b)),
            )
            for k, b in enumerate([-0.25, -0.1, 0.05, 0.2])
        ]
        cfg = ReptileConfig(seed=7, meta_rounds=150)
        theta, norm = meta_train(tasks, 5, cfg)

        probe = synthetic_instances(24, seed=90, label_fn=task_fn(0.3))
        held = synthetic_instances(24, seed=91, label_fn=task_fn(0.3))
        adapted = adapt_to_model(theta, norm, probe, cfg)

        from driftgauge import predict

        pre = np.mean([abs(predict(theta, norm, i.delta) - i.accuracy) for i in held])
        post = np.mean([abs(predict(adapted, norm, i.delta) - i.accuracy) for i in held])
        assert post < pre
