# Compare the all-random and hybrid slice schemes: both track a growing mean
# shift monotonically, while the hybrid run needs far fewer slices (8 PCA
# directions of the joint cloud plus 16 random ones versus 64 random).

import time

import numpy as np

from driftgauge import (
    GaussianWorkloadSpec,
    SWDConfig,
    gen_gaussian_workload,
    hybrid_swd,
    shift_family,
)

D, N = 32, 5000
base = GaussianWorkloadSpec(dim=D, count=N, mean=np.zeros(D), stddev=np.ones(D))
source = gen_gaussian_workload(base, seed=10)

cfg_random = SWDConfig.all_random(64, seed=42)
cfg_hybrid = SWDConfig(k_pca=8, l_random=16, seed=42)

print(f"{'shift':>6} {'all-random(64)':>15} {'hybrid(8,16)':>13}")
for i, spec in enumerate(shift_family(base, [0.0, 0.5, 1.0, 2.0, 4.0])):
    target = gen_gaussian_workload(spec, seed=100 + i)
    v_r = hybrid_swd(source, target, cfg_random)
    v_h = hybrid_swd(source, target, cfg_hybrid)
    print(f"{spec.mean[0]:6.1f} {v_r:15.4f} {v_h:13.4f}")

# timing on one pair; repeated calls reuse the slice basis memoized on the target
target = gen_gaussian_workload(shift_family(base, [2.0])[0], seed=103)
for label, cfg in [("all-random(64)", cfg_random), ("hybrid(8,16)", cfg_hybrid)]:
    hybrid_swd(source, target, cfg)  # warmup; memoizes the basis on the target
    times = []
    for _ in range(11):
        t0 = time.perf_counter()
        hybrid_swd(source, target, cfg)
        times.append(time.perf_counter() - t0)
    print(f"{label}: median {sorted(times)[5] * 1e3:.2f} ms per evaluation")
