import numpy as np
import pytest

from driftgauge import (
    GaussianWorkloadSpec,
    ShiftDescriptor,
    bench_swd,
    gen_gaussian_workload,
    moments,
    shift_family,
    synthetic_accuracy_fn,
)


def spec(dim=4, count=100, mean=0.0, std=1.0, mixture=None):
    return GaussianWorkloadSpec(
        dim=dim, count=count, mean=np.full(dim, mean), stddev=np.full(dim, std), mixture=mixture
    )


class TestGenGaussianWorkload:
    def test_tight_spread_near_mean(self):
        es = gen_gaussian_workload(spec(dim=3, count=50, mean=2.0, std=1e-6), seed=0)
        assert np.all(np.abs(es.data - 2.0) < 1e-4)

    def test_single_row(self):
        es = gen_gaussian_workload(spec(count=1), seed=1)
        assert es.n == 1

    def test_moment_recovery(self):
        es = gen_gaussian_workload(spec(dim=8, count=50_000), seed=2)
        ms = moments(es)
        assert np.all(np.abs(ms.mean) < 0.02)
        assert np.all(np.abs(ms.var - 1.0) < 0.05)

    def test_deterministic(self):
        a = gen_gaussian_workload(spec(), seed=3)
        b = gen_gaussian_workload(spec(), seed=3)
        assert np.array_equal(a.data, b.data)

    def test_mixture_component_weights(self):
        mixture = ((0.75, np.zeros(2), np.full(2, 0.1)), (0.25, np.full(2, 10.0), np.full(2, 0.1)))
        s = GaussianWorkloadSpec(dim=2, count=20_000, mean=np.zeros(2), stddev=np.ones(2),
                                 mixture=mixture)
        es = gen_gaussian_workload(s, seed=4)
        near_high = np.mean(es.data[:, 0] > 5)
        assert near_high == pytest.approx(0.25, abs=0.02)

    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GaussianWorkloadSpec(
                dim=2, count=5, mean=np.zeros(2), stddev=np.ones(2),
                mixture=((0.5, np.zeros(2), np.ones(2)),),
            )

    def test_workloads_satisfy_set_invariants(self):
        es = gen_gaussian_workload(spec(dim=5, count=321), seed=5)
        assert (es.n, es.dim) == (321, 5)
        assert np.all(np.isfinite(es.data))


class TestShiftFamily:
    def test_zero_shift_is_base(self):
        base = spec()
        fam = shift_family(base, [0.0])
        assert np.allclose(fam[0].mean, base.mean)

    def test_increasing_distance(self):
        base = spec()
        fam = shift_family(base, [0.5, 2.0])
        d1 = np.linalg.norm(fam[0].mean - base.mean)
        d2 = np.linalg.norm(fam[1].mean - base.mean)
        assert d2 > d1

    def test_first_axis_construction(self):
        fam = shift_family(spec(dim=4), [0.0, 1.0, 2.0])
        assert np.allclose(fam[1].mean, [1, 0, 0, 0])
        assert np.allclose(fam[2].mean, [2, 0, 0, 0])

    def test_requires_sorted_shifts(self):
        with pytest.raises(ValueError):
            shift_family(spec(), [1.0, 0.5])


class TestSyntheticAccuracy:
    def delta(self, **kw):
        fields = dict(sd_f=0.0, sd_m_mean=0.0, sd_m_std=0.0, sd_sw=0.0, euclid_mean=0.0,
                      config_digest="d")
        fields.update(kw)
        return ShiftDescriptor(**fields)

    def test_neutral_point(self):
        assert synthetic_accuracy_fn(self.delta(), task_bias=0.0, noise_seed=0) == pytest.approx(0.5)

    def test_large_shift_saturates_low(self):
        acc = synthetic_accuracy_fn(self.delta(sd_f=1e4), task_bias=0.0, noise_seed=0)
        assert acc < 0.01

    def test_deterministic(self):
        d = self.delta(sd_f=3.0, sd_sw=1.0)
        a = synthetic_accuracy_fn(d, 0.5, noise_seed=7, noise_scale=0.05)
        b = synthetic_accuracy_fn(d, 0.5, noise_seed=7, noise_scale=0.05)
        assert a == b

    def test_clipped_to_unit_interval(self):
        d = self.delta()
        for seed in range(20):
            acc = synthetic_accuracy_fn(d, task_bias=4.0, noise_seed=seed, noise_scale=0.5)
            assert 0.0 <= acc <= 1.0


class TestBenchSwd:
    def test_rows_and_determinism_of_value(self):
        res = bench_swd(sizes=[(200, 250, 8)], slice_counts=[4, 8], mode="all_random",
                        trials=3, seed=0)
        assert len(res.rows) == 2 * 3
        by_l = {}
        for row in res.rows:
            by_l.setdefault(row["L"], set()).add(row["swd"])
            assert row["wall_ms"] > 0
            assert row["peak_bytes"] == row["L"] * 450 * 8
        # deterministic distance across trials; only timing varies
        assert all(len(v) == 1 for v in by_l.values())

    def test_hybrid_mode_config(self):
        res = bench_swd(sizes=[(100, 100, 6)], slice_counts=[6], mode="hybrid",
                        trials=1, seed=1, k_pca=2)
        row = res.rows[0]
        assert (row["k"], row["R"]) == (2, 4)

    def test_summary_medians(self):
        res = bench_swd(sizes=[(100, 100, 4)], slice_counts=[4], mode="all_random",
                        trials=5, seed=2)
        summ = res.summary()
        assert len(summ) == 1
        walls = sorted(r["wall_ms"] for r in res.rows)
        assert summ[0]["median_wall_ms"] == pytest.approx(walls[2])
        assert summ[0]["trials"] == 5

    def test_csv_layout(self, tmp_path):
        res = bench_swd(sizes=[(50, 60, 4)], slice_counts=[2], mode="all_random", trials=2, seed=3)
        path = tmp_path / "bench.csv"
        res.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "mode,L,k,R,n,m,D,trial,wall_ms,peak_bytes,swd"

    def test_json_summary(self, tmp_path):
        import json

        res = bench_swd(sizes=[(50, 60, 4)], slice_counts=[2], mode="all_random", trials=2, seed=4)
        path = tmp_path / "bench.json"
        res.write_json(path)
        payload = json.loads(path.read_text())
        assert "environment" in payload and len(payload["summary"]) == 1

    def test_bad_args(self):
        with pytest.raises(ValueError):
            bench_swd(sizes=[], slice_counts=[2])
        with pytest.raises(ValueError):
            bench_swd(sizes=[(10, 10, 2)], slice_counts=[2], trials=0)
