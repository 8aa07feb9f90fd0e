"""First-order meta-learning of an evaluator initialization.

Each base model contributes one task: its collection of (shift descriptor,
accuracy) pairs over sampled workloads.  Meta-training repeatedly adapts the
current initialization to one task with a few plain gradient steps, then
interpolates the initialization toward the adapted parameters.  A new, unseen
model is handled by running the same inner adaptation on a small labeled
probe set; target-workload prediction afterwards stays label-free.

The feature normalizer is fitted once on the union of all meta-training
tasks and frozen thereafter; per-task renormalization would leak target
statistics into the head inconsistently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyProbe, InsufficientData, InsufficientTasks, ShapeMismatch
from .evaluator import (
    MLPParams,
    Normalizer,
    init_mlp,
    loss_and_grad,
    meta_set_arrays,
)
from .seeding import rng_for, spawn_seed


@dataclass(frozen=True)
class MetaTask:
    """All supervision pairs belonging to one base model."""

    task_id: str
    instances: tuple

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        if len(self.instances) < 2:
            raise InsufficientData(
                f"task {self.task_id!r} needs at least two instances (adapt + eval)"
            )


@dataclass(frozen=True)
class ReptileConfig:
    inner_lr: float = 1e-2
    outer_step: float = 0.3
    inner_steps: int = 5
    meta_rounds: int = 600
    seed: int = 0

    def __post_init__(self):
        if self.inner_lr <= 0:
            raise ValueError("inner_lr must be positive")
        if not 0 < self.outer_step <= 1:
            raise ValueError("outer_step must lie in (0, 1]")
        if self.inner_steps < 0:
            raise ValueError("inner_steps must be non-negative")
        if self.meta_rounds < 1:
            raise ValueError("meta_rounds must be positive")


def _gd_steps(theta: MLPParams, norm: Normalizer, instances, alpha: float, steps: int) -> MLPParams:
    feats, labels, _ = meta_set_arrays(instances)
    x = norm.apply(feats)
    for _ in range(steps):
        _, grads = loss_and_grad(theta, x, labels, train_mode=False)
        # grads is a fresh buffer: write w - alpha * g into it, never into theta.
        g = grads.flat
        np.multiply(g, alpha, out=g)
        np.subtract(theta.flat, g, out=g)
        theta = grads
    return theta


def inner_adapt(
    theta: MLPParams,
    norm: Normalizer,
    task: MetaTask,
    alpha: float,
    steps: int,
) -> MLPParams:
    """``steps`` full-batch gradient descent updates of the task MSE at
    learning rate ``alpha``; the normalizer stays frozen.  steps == 0 returns
    theta unchanged."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if steps == 0:
        return theta
    return _gd_steps(theta, norm, task.instances, alpha, steps)


def reptile_outer(theta: MLPParams, theta_m: MLPParams, epsilon: float) -> MLPParams:
    """Element-wise interpolation theta + epsilon * (theta_m - theta).

    Evaluated as (1-eps)*theta + eps*theta_m so both endpoints are exact in
    floating point.
    """
    if theta.layer_dims != theta_m.layer_dims:
        raise ShapeMismatch("initializations have different layer shapes")
    return theta.map(lambda w, wm: (1.0 - epsilon) * w + epsilon * wm, theta_m)


def meta_train(
    tasks: list[MetaTask], input_dim: int, cfg: ReptileConfig
) -> tuple[MLPParams, Normalizer]:
    """Learn an initialization that adapts to a new task in a few steps.

    Rounds run sequentially: sample a task (seeded order), inner-adapt, move
    the initialization toward the adapted parameters.
    """
    if not tasks:
        raise InsufficientTasks("need at least one meta task")
    everything = [inst for task in tasks for inst in task.instances]
    feats, _, digest = meta_set_arrays(everything)
    if feats.shape[1] != input_dim:
        raise ShapeMismatch(f"features are {feats.shape[1]}-dim, expected {input_dim}")
    norm = Normalizer.fit(feats, digest)
    theta = init_mlp(input_dim, spawn_seed(cfg.seed, 201))
    picker = rng_for(cfg.seed, 202)
    for _ in range(cfg.meta_rounds):
        task = tasks[int(picker.integers(len(tasks)))]
        theta_m = inner_adapt(theta, norm, task, cfg.inner_lr, cfg.inner_steps)
        theta = reptile_outer(theta, theta_m, cfg.outer_step)
    return theta, norm


def adapt_to_model(
    theta_init: MLPParams,
    norm: Normalizer,
    probe,
    cfg: ReptileConfig,
) -> MLPParams:
    """Specialize the meta-initialization to a new base model using a small
    labeled probe set; target prediction afterwards remains label-free."""
    if not probe:
        raise EmptyProbe("probe set is empty")
    if cfg.inner_steps == 0:
        return theta_init
    return _gd_steps(theta_init, norm, list(probe), cfg.inner_lr, cfg.inner_steps)
