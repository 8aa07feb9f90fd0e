"""The benchmark's own tests, on tiny inputs: schema of every workload's
result in both modes, the checker failing a perturbed descriptor, and span
self times staying inside the op that holds them."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import driftgauge.descriptors as dg_desc  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Tiny generated inputs per workload, shared by the tests below."""
    made = {}

    def make(name):
        if name not in made:
            out = str(tmp_path_factory.mktemp(name))
            made[name] = (out, gen.generate(name, 7, out, tiny=True))
        return made[name]

    return make


@pytest.mark.parametrize("name", gen.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_schema(inputs, tmp_path, name, trace):
    out, manifest = inputs(name)
    result = workloads.run_workload(name, out, manifest, 0.2, trace, str(tmp_path / "t.json"))
    assert set(result) == {"correct", "attempted", "failed", "metrics", "lines"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = dict(workloads.LAYER_UNITS if trace else workloads.END_TO_END)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(isinstance(v, float) and v >= 0 for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
    elif name != "meta-fit":
        assert values["workload.source_moments_per_op"] == pytest.approx(1.0)
        assert values["descriptors.basis_builds_per_op"] == pytest.approx(1.0)
    if trace and name == "cli-predict":
        calib = manifest["spec"]["calib"] * manifest["spec"]["calib_repeat"]
        assert values["evaluator.predict_calls_per_op"] == pytest.approx(calib + 1)


def test_checker_fails_perturbed_descriptor(inputs, monkeypatch):
    out, manifest = inputs("monitor-d32")
    original = workloads.MonitorWorkload.op

    def perturbed(self, i):
        k, feats, m_hat, lo, hi = original(self, i)
        if i == 2:
            feats = dict(feats, sd_sw=feats["sd_sw"] * (1 + 1e-4))
        return k, feats, m_hat, lo, hi

    monkeypatch.setattr(workloads.MonitorWorkload, "op", perturbed)
    result = workloads.run_workload("monitor-d32", out, manifest, 0.2, False)
    assert result["failed"] == 1 and not result["correct"]


def test_self_times_fit_inside_op_wall(inputs):
    out, manifest = inputs("cli-predict")
    original_moments = dg_desc.moments
    wl = workloads.CliWorkload(out, manifest)
    wl.setup()
    rec = spans.Recorder(memory=True)
    rec.install()
    try:
        ops = []
        for i in range(3):
            rec.op = i
            ops.append(workloads._run_op(wl, i, rec))
    finally:
        rec.uninstall()
    assert dg_desc.moments is original_moments
    assert all(s.peak_bytes > 0 for s in rec.spans if s.name == "descriptors.compute_delta")
    self_times = rec.self_times()
    assert min(self_times) > -1e-9
    for op in ops:
        inside = [t for s, t in zip(rec.spans, self_times) if s.op == op.index]
        assert len(inside) > 3
        assert sum(inside) <= op.wall + 1e-9
