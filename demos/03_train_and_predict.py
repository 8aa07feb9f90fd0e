# End-to-end label-free evaluation at desk scale: build a labeled meta-set
# from synthetic workloads, train the accuracy regressor, then estimate
# accuracy on an unseen target with a split-conformal interval.

import numpy as np

from driftgauge import (
    GaussianWorkloadSpec,
    Interval,
    MetaInstance,
    SWDConfig,
    TrainConfig,
    build_meta_instance,
    conformal_interval,
    gen_gaussian_workload,
    mae,
    predict,
    predict_many,
    synthetic_accuracy_fn,
    train,
)

D = 12
rng = np.random.default_rng(0)
source = gen_gaussian_workload(
    GaussianWorkloadSpec(dim=D, count=2000, mean=np.zeros(D), stddev=np.ones(D)), seed=1
)
cfg = SWDConfig(seed=5)

# each meta instance pairs (training workload, sampled workload) with the
# accuracy observed on the sample; here a known logistic of the shift plays
# the role of the measured accuracy
instances = []
for i in range(400):
    shift = float(rng.uniform(0, 3.5))
    count = int(rng.integers(300, 1500))
    spec = GaussianWorkloadSpec(
        dim=D, count=count, mean=shift * np.eye(D)[0],
        stddev=float(rng.uniform(0.9, 1.4)) * np.ones(D),
    )
    sample = gen_gaussian_workload(spec, seed=1000 + i)
    inst = build_meta_instance(source, sample, 0.5, cfg, task_id="demo", sample_set_id=f"s{i}")
    acc = synthetic_accuracy_fn(inst.delta, task_bias=2.0, noise_seed=2000 + i, noise_scale=0.02)
    instances.append(MetaInstance(delta=inst.delta, accuracy=acc, task_id="demo",
                                  sample_set_id=f"s{i}", sample_set_size=count))

train_set, calib_set, test_set = instances[:300], instances[300:360], instances[360:]
params, norm, report = train(
    train_set, TrainConfig(lr0=3e-3, max_epochs=120, patience=15, dropout=0.0, seed=3)
)
print(f"trained {report.epochs_run} epochs, best validation MAE {report.best_val_mae:.4f}")

preds = [predict(params, norm, inst.delta) for inst in test_set]
print(f"held-out MAE: {mae(preds, [i.accuracy for i in test_set]):.4f} "
      f"(label noise floor is about 0.016)")

# conformal interval from calibration residuals, scored in one batch call
calib_preds = predict_many(params, norm, [i.delta for i in calib_set])
residuals = np.abs(calib_preds - [i.accuracy for i in calib_set])
delta_alpha, insufficient = conformal_interval(residuals, alpha=0.1)

unseen = test_set[0]
m_hat = predict(params, norm, unseen.delta)
interval = Interval(center=m_hat, half_width=delta_alpha, alpha=0.1)
print(f"\nunseen workload: estimated accuracy {m_hat:.3f}, "
      f"90% interval [{interval.lo:.3f}, {interval.hi:.3f}] "
      f"(true value {unseen.accuracy:.3f}, insufficient calibration: {insufficient})")
