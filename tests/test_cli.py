import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from driftgauge.cli import run
from driftgauge.config import load_run_config
from driftgauge.errors import DriftGaugeError, InvalidValue, ParseError, UnknownKey

# Pieces of config text: known and unknown keys, and values of every kind,
# including the non-finite, the oversized and those the dataclasses reject.
_KEYS = ["seed", "alpha", "variance_floor", "mode", "k_pca", "l_random", "quantiles",
         "pca_subsample", "lr0", "dropout", "val_fraction", "outer_step", "inner_steps",
         "total", "c_gen", "cap_gen", "cap_exec", "total_budget", "nosuch", ""]
_SECTION_NAMES = ["run", "io", "swd", "train", "reptile", "budget", "nosuch", ""]
_VALUES = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", "2", "1e-9", "1e305", "1e400", "-1e400", "nan",
                     "inf", "-inf", "1" * 400, "1" * 5000, "true", "'all_random'", "hybrid",
                     '"', "''", "", "0x10", "1_000"]),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=12),
)
_OVERRIDES = st.one_of(
    st.builds(lambda s, k, v: f"{s}.{k}={v}", st.sampled_from(_SECTION_NAMES),
              st.sampled_from(_KEYS), _VALUES),
    st.text(max_size=20),
)
_FILE_LINES = st.one_of(
    st.builds(lambda s: f"[{s}]", st.sampled_from(_SECTION_NAMES)),
    st.builds(lambda k, v: f"{k} = {v}", st.sampled_from(_KEYS), _VALUES),
    st.text(max_size=20),
)
_FILE_BYTES = st.one_of(
    st.lists(_FILE_LINES, max_size=8).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=64),
)


class TestRunConfig:
    # Every accepted key with its default; the default's type is the key's type.
    DEFAULTS = {
        "run": {"seed": 0, "alpha": 0.1},
        "io": {"variance_floor": 1e-08},
        "swd": {"mode": "hybrid", "k_pca": 8, "l_random": 16, "quantiles": 256,
                "pca_subsample": 512},
        "train": {"batch_size": 64, "lr0": 0.0001, "eta_min": 0.0, "beta1": 0.9,
                  "beta2": 0.999, "weight_decay": 0.001, "max_epochs": 20, "dropout": 0.2,
                  "patience": 3, "val_fraction": 0.1},
        "reptile": {"inner_lr": 0.01, "outer_step": 0.3, "inner_steps": 5, "meta_rounds": 600},
        "budget": {"c_gen": 0.00012, "c_val": 3e-05, "c_exec": 0.0004, "gen_multiplier": 1.05,
                   "val_multiplier": 1.05, "exec_multiplier": 0.1, "total": 1000.0,
                   "cap_gen": 160, "cap_exec": 40},
    }

    def test_defaults_and_value_types_pinned(self):
        values = load_run_config(None, [], env={}).values
        assert values == self.DEFAULTS
        for section, keys in self.DEFAULTS.items():
            for key, default in keys.items():
                assert type(values[section][key]) is type(default), f"{section}.{key}"
                # An integer literal is taken by int and float keys, as that type.
                if isinstance(default, str):
                    with pytest.raises(InvalidValue):
                        load_run_config(None, [f"{section}.{key}=1"], env={})
                else:
                    got = load_run_config(None, [f"{section}.{key}=1"], env={}).values[section][key]
                    assert type(got) is type(default) and got == 1, f"{section}.{key}"
        swd = load_run_config(None, ["swd.mode=all_random"], env={}).swd_config()
        assert (swd.k_pca, swd.l_random, swd.quantiles, swd.pca_subsample) == (0, 64, 256, 512)

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        rc = load_run_config(str(path), env={})
        swd = rc.swd_config()
        assert (swd.mode, swd.k_pca, swd.l_random) == ("hybrid", 8, 16)
        tc = rc.train_config()
        assert (tc.batch_size, tc.lr0, tc.max_epochs, tc.dropout) == (64, 1e-4, 20, 0.2)
        assert rc.alpha == 0.1

    def test_all_random_mode_defaults_to_64_slices(self):
        rc = load_run_config(None, ["swd.mode=all_random"], env={})
        swd = rc.swd_config()
        assert (swd.mode, swd.k_pca, swd.l_random) == ("all_random", 0, 64)

    def test_file_then_override_precedence(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("[swd]\nk_pca = 10\n# comment\n[train]\nlr0 = 0.001\n")
        rc = load_run_config(str(path), ["swd.k_pca=12"], env={})
        assert rc.swd_config().k_pca == 12
        assert rc.train_config().lr0 == pytest.approx(1e-3)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("[swd]\ngamma = 3\n")
        with pytest.raises(UnknownKey):
            load_run_config(str(path), env={})

    def test_unknown_section(self):
        with pytest.raises(UnknownKey):
            load_run_config(None, ["nosuch.key=1"], env={})

    def test_invalid_value(self):
        with pytest.raises(InvalidValue):
            load_run_config(None, ["train.batch_size=many"], env={})

    def test_parse_error(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("not a kv line\n")
        with pytest.raises(ParseError):
            load_run_config(str(path), env={})

    def test_env_seed_override(self):
        rc = load_run_config(None, env={"DRIFTGAUGE_SEED": "99"})
        assert rc.seed == 99

    def test_explicit_override_beats_env(self):
        rc = load_run_config(None, ["run.seed=7"], env={"DRIFTGAUGE_SEED": "99"})
        assert rc.seed == 7

    def test_seed_drives_sub_seeds(self):
        a = load_run_config(None, ["run.seed=1"], env={})
        b = load_run_config(None, ["run.seed=1"], env={})
        c = load_run_config(None, ["run.seed=2"], env={})
        assert a.swd_config().seed == b.swd_config().seed
        assert a.swd_config().seed != c.swd_config().seed
        assert a.train_config().seed != a.swd_config().seed

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=st.one_of(st.none(), _FILE_BYTES), overrides=st.lists(_OVERRIDES, max_size=4))
    def test_only_typed_errors_escape(self, tmp_path, blob, overrides):
        """Whatever the file bytes and overrides, loading and reading every
        setting either succeeds or raises a DriftGaugeError."""
        path = None
        if blob is not None:
            path = tmp_path / "fuzz.cfg"
            path.write_bytes(blob)
        try:
            rc = load_run_config(path, overrides, env={})
        except DriftGaugeError:
            return
        for kv in rc.values.values():
            assert all(math.isfinite(v) for v in kv.values() if isinstance(v, float))
        readers = [rc.swd_config, rc.train_config, rc.reptile_config, rc.cost_model,
                   lambda: rc.alpha, lambda: rc.variance_floor,
                   lambda: rc.get("budget", "cap_gen"), lambda: rc.get("budget", "cap_exec")]
        for read in readers:
            try:
                read()
            except DriftGaugeError:
                pass


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.delenv("DRIFTGAUGE_SEED", raising=False)
    return tmp_path


def cli(*argv):
    return run([str(a) for a in argv])


class TestCliWorkflow:
    def _gen_inputs(self, d):
        assert cli("synth", "gen", "--dim", 8, "--count", 600, "--out", d / "src.fsemb",
                   "--seed", 1) == 0
        assert cli("synth", "gen", "--dim", 8, "--count", 500, "--mean-shift", 1.0,
                   "--out", d / "tgt.fsemb", "--seed", 2) == 0

    def test_descriptors_compute(self, workdir):
        self._gen_inputs(workdir)
        out = workdir / "delta.json"
        assert cli("descriptors", "compute", "--source", workdir / "src.fsemb",
                   "--target", workdir / "tgt.fsemb", "--out", out, "--seed", 5) == 0
        payload = json.loads(out.read_text())
        assert set(payload) >= {"sd_f", "sd_m_mean", "sd_m_std", "sd_sw", "euclid_mean",
                                "config_digest", "provenance"}
        assert payload["provenance"]["seed"] == 5
        assert payload["n_target"] == 500

    def test_full_train_predict_flow(self, workdir):
        seed = ["--seed", 3]
        assert cli("synth", "gen", "--dim", 6, "--count", 500, "--out",
                   workdir / "train.fsemb", *seed) == 0
        assert cli("synth", "family", "--dim", 6, "--count", 300, "--shifts",
                   ",".join(str(s) for s in np.round(np.linspace(0, 3, 40), 3)),
                   "--out-dir", workdir / "fam", *seed) == 0
        assert cli("synth", "label", "--train", workdir / "train.fsemb",
                   "--samples-dir", workdir / "fam", "--task-bias", "1.5",
                   "--noise-scale", "0.01", "--out", workdir / "meta.jsonl", *seed) == 0
        assert cli("train", "--meta-set", workdir / "meta.jsonl", "--out",
                   workdir / "model.fsmlp", "--set", "train.max_epochs=60",
                   "--set", "train.lr0=0.003", "--set", "train.batch_size=8",
                   "--set", "train.patience=60", *seed) == 0
        assert cli("predict", "--model", workdir / "model.fsmlp",
                   "--source", workdir / "train.fsemb", "--target", workdir / "fam" / "shift_010.fsemb",
                   "--alpha", "0.2", "--calib", workdir / "meta.jsonl",
                   "--out", workdir / "report.json", *seed) == 0
        report = json.loads((workdir / "report.json").read_text())
        assert 0.0 <= report["m_hat"] <= 1.0
        assert report["interval"][0] <= report["m_hat"] <= report["interval"][1]
        assert report["alpha"] == 0.2
        assert report["n_target"] == 300

    def test_predict_config_mismatch_exit_code(self, workdir, capsys):
        self.test_full_train_predict_flow(workdir)
        code = cli("predict", "--model", workdir / "model.fsmlp",
                   "--source", workdir / "train.fsemb", "--target", workdir / "fam" / "shift_001.fsemb",
                   "--calib", workdir / "meta.jsonl", "--out", workdir / "r2.json",
                   "--seed", 1234)  # different master seed -> different descriptor stream
        assert code == 1
        err = capsys.readouterr().err
        assert json.loads(err.strip())["error"] == "ConfigMismatch"

    def _untrained_predict_inputs(self, d):
        """Source, target, a well-formed calibration set and an untrained
        model whose normalizer matches the descriptor configuration."""
        from driftgauge import DEFAULT_VARIANCE_FLOOR, Normalizer, SWDConfig, init_mlp, save_model

        self._gen_inputs(d)
        cfg = SWDConfig(k_pca=2, l_random=4, seed=1)
        norm = Normalizer(np.zeros(5), np.ones(5), cfg.digest(DEFAULT_VARIANCE_FLOOR))
        save_model(d / "model.fsmlp", init_mlp(5, seed=0), norm, swd_config=cfg)
        delta = dict(sd_f=1.0, sd_m_mean=1.0, sd_m_std=0.5, sd_sw=0.2, euclid_mean=0.3,
                     config_digest=norm.config_digest)
        row = {"task_id": "m", "sample_set_id": "s", "sample_set_size": 3,
               "delta": delta, "accuracy": 0.5}
        (d / "calib.jsonl").write_text(json.dumps(row) + "\n")

    def _predict(self, d):
        return cli("predict", "--model", d / "model.fsmlp", "--source", d / "src.fsemb",
                   "--target", d / "tgt.fsemb", "--calib", d / "calib.jsonl",
                   "--out", d / "report.json")

    def test_predict_bad_calibration_line_exits_1(self, workdir, capsys):
        self._untrained_predict_inputs(workdir)
        assert self._predict(workdir) == 0
        good = (workdir / "calib.jsonl").read_text()
        for bad in ('{"task_id": ', '{"task_id": "m"}'):
            (workdir / "calib.jsonl").write_text(good + bad + "\n")
            capsys.readouterr()
            assert self._predict(workdir) == 1
            payload = json.loads(capsys.readouterr().err.strip())
            assert payload["error"] == "ParseError"
            assert "calib.jsonl, line 2" in payload["message"]

    @staticmethod
    def _rewrite_model_header(path, edit):
        """Apply ``edit`` to the JSON header of a ``.fsmlp`` file in place; an
        ``edit`` that returns bytes replaces the header with them."""
        import struct

        blob = path.read_bytes()
        start = struct.calcsize("<8sIQ")
        magic, version, n = struct.unpack_from("<8sIQ", blob)
        header = json.loads(blob[start : start + n])
        head = edit(header)
        if not isinstance(head, bytes):
            head = json.dumps(header).encode("utf-8")
        path.write_bytes(struct.pack("<8sIQ", magic, version, len(head)) + head + blob[start + n :])

    def test_predict_model_header_without_layer_dims_exits_1(self, workdir, capsys):
        self._untrained_predict_inputs(workdir)
        self._rewrite_model_header(workdir / "model.fsmlp", lambda h: h.pop("layer_dims"))
        assert self._predict(workdir) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "BadMagic"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.pop("normalizer"),
            lambda h: h.update(normalizer=None),
            lambda h: h["normalizer"].pop("feature_std"),
            lambda h: h["normalizer"].update(feature_std=[0.0] * 5),
            lambda h: h["normalizer"].update(feature_mean=[0.0] * 3, feature_std=[1.0] * 3),
            lambda h: h["normalizer"]["feature_mean"].__setitem__(0, math.nan),
            lambda h: h["normalizer"]["feature_std"].__setitem__(0, math.inf),
            # Finite, but the forward pass overflows to NaN.
            lambda h: h["normalizer"]["feature_mean"].__setitem__(0, 1.7e308),
        ],
        ids=["missing", "null", "no-std", "zero-std", "wrong-length", "nan-mean", "infinite-std",
             "overflowing-mean"],
    )
    def test_predict_model_header_without_valid_normalizer_exits_1(self, workdir, capsys, edit):
        import warnings

        self._untrained_predict_inputs(workdir)
        self._rewrite_model_header(workdir / "model.fsmlp", edit)
        with warnings.catch_warnings():
            # A warning printed ahead of the payload would break stderr.
            warnings.simplefilter("error")
            assert self._predict(workdir) == 1
        (line,) = capsys.readouterr().err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "BadMagic"
        assert "model.fsmlp" in payload["message"]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.update(seed=math.inf),
            lambda h: h.update(train_report={"epochs_run": math.inf, "best_val_mae": 0.1,
                                             "train_loss_curve": [], "stopped_early": False}),
            lambda h: h.update(variance_floor=10**400),
            lambda h: b"[" * 100_000 + b"]" * 100_000,
        ],
        ids=["infinite-seed", "infinite-epochs-run", "variance-floor-beyond-float",
             "nested-too-deep"],
    )
    def test_predict_model_header_out_of_range_or_too_deep_exits_1(self, workdir, capsys, edit):
        self._untrained_predict_inputs(workdir)
        self._rewrite_model_header(workdir / "model.fsmlp", edit)
        assert self._predict(workdir) == 1
        (line,) = capsys.readouterr().err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "BadMagic" and "model.fsmlp" in payload["message"]

    @pytest.mark.parametrize("floor", [0.0, -1e-8, math.inf, math.nan])
    def test_predict_model_variance_floor_not_positive_exits_1(self, workdir, capsys, floor):
        self._untrained_predict_inputs(workdir)
        self._rewrite_model_header(workdir / "model.fsmlp", lambda h: h.update(variance_floor=floor))
        assert self._predict(workdir) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "BadMagic" and "variance_floor" in payload["message"]

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_predict_model_with_non_finite_parameter_exits_1(self, workdir, capsys, value):
        from driftgauge import load_model, save_model

        self._untrained_predict_inputs(workdir)
        model = load_model(workdir / "model.fsmlp")
        model.params.weights[1][3, 7] = value
        save_model(workdir / "model.fsmlp", model.params, model.normalizer,
                   swd_config=model.swd_config)
        assert self._predict(workdir) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "BadMagic" and "non-finite" in payload["message"]

    def test_predict_model_with_signalling_nan_keeps_stderr_one_json_line(self, workdir, capsys):
        import struct
        import warnings

        self._untrained_predict_inputs(workdir)
        blob = bytearray((workdir / "model.fsmlp").read_bytes())
        block = struct.calcsize("<8sIQ") + struct.unpack_from("<8sIQ", blob)[2]
        blob[block : block + 4] = struct.pack("<I", 0x7FA00000)
        (workdir / "model.fsmlp").write_bytes(bytes(blob))
        with warnings.catch_warnings():
            # A warning printed ahead of the payload would break stderr.
            warnings.simplefilter("error")
            assert self._predict(workdir) == 1
        (line,) = capsys.readouterr().err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "BadMagic" and "non-finite" in payload["message"]

    @pytest.mark.parametrize("flag", ["--meta-set", "--probe", "--calib", "--charges"])
    def test_missing_jsonl_input_exits_1(self, workdir, capsys, flag):
        self._untrained_predict_inputs(workdir)
        d, missing = workdir, workdir / "absent.jsonl"
        argv = {
            "--meta-set": ["train", "--meta-set", missing, "--out", d / "m.fsmlp"],
            "--probe": ["adapt", "--init", d / "model.fsmlp", "--probe", missing,
                        "--out", d / "a.fsmlp"],
            "--calib": ["predict", "--model", d / "model.fsmlp", "--source", d / "src.fsemb",
                        "--target", d / "tgt.fsemb", "--calib", missing,
                        "--out", d / "report.json"],
            "--charges": ["budget", "ledger", "--charges", missing, "--out", d / "snap.json"],
        }[flag]
        assert cli(*argv) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload == {"error": "MissingFile", "message": str(missing)}

    @pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="needs /proc/self/mem")
    @pytest.mark.parametrize("flag", ["--model", "--source", "--calib", "--config", "--meta-set",
                                      "--probe", "--charges", "--pred"])
    def test_unreadable_input_exits_1(self, workdir, capsys, flag):
        """``/proc/self/mem`` opens but fails to read (EIO at address 0)."""
        self._untrained_predict_inputs(workdir)
        d, calib = workdir, workdir / "calib.jsonl"
        predict = ["predict", "--model", d / "model.fsmlp", "--source", d / "src.fsemb",
                   "--target", d / "tgt.fsemb", "--calib", calib, "--out", d / "report.json"]
        train = ["train", "--meta-set", calib, "--out", d / "m.fsmlp"]
        argv = list({
            "--model": predict, "--source": predict, "--calib": predict,
            "--config": train + ["--config", calib], "--meta-set": train,
            "--probe": ["adapt", "--init", d / "model.fsmlp", "--probe", calib,
                        "--out", d / "a.fsmlp"],
            "--charges": ["budget", "ledger", "--charges", calib, "--out", d / "snap.json"],
            "--pred": ["metrics", "mae", "--pred", calib, "--gold", calib],
        }[flag])
        argv[argv.index(flag) + 1] = "/proc/self/mem"
        capsys.readouterr()
        assert cli(*argv) == 1
        (line,) = capsys.readouterr().err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "IoFailure" and "/proc/self/mem" in payload["message"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("flag", ["--model", "--calib"])
    def test_fifo_input_exits_1_without_blocking(self, workdir, capsys, flag):
        import threading

        self._untrained_predict_inputs(workdir)
        fifo = workdir / "fifo"
        os.mkfifo(fifo)
        argv = ["predict", "--model", workdir / "model.fsmlp", "--source", workdir / "src.fsemb",
                "--target", workdir / "tgt.fsemb", "--calib", workdir / "calib.jsonl",
                "--out", workdir / "report.json"]
        argv[argv.index(flag) + 1] = fifo
        codes = []
        worker = threading.Thread(target=lambda: codes.append(cli(*argv)), daemon=True)
        capsys.readouterr()
        worker.start()
        worker.join(10)
        if worker.is_alive():
            with open(fifo, "wb"):  # a writer lets the blocked open return
                pass
            worker.join(10)
            pytest.fail(f"{flag} blocked opening a FIFO")
        assert codes == [1]
        assert json.loads(capsys.readouterr().err) == {"error": "MissingFile", "message": str(fifo)}

    def test_trained_model_beats_trivial_baseline(self, workdir):
        self.test_full_train_predict_flow(workdir)
        from driftgauge import load_meta_set, load_model, predict

        model = load_model(workdir / "model.fsmlp")
        meta = load_meta_set(workdir / "meta.jsonl")
        preds = [predict(model.params, model.normalizer, m.delta) for m in meta]
        labels = [m.accuracy for m in meta]
        model_mae = np.mean(np.abs(np.array(preds) - labels))
        trivial = np.mean(np.abs(np.mean(labels) - np.array(labels)))
        assert model_mae < trivial

    def test_meta_train_and_adapt(self, workdir):
        seed = ["--seed", 4]
        assert cli("synth", "gen", "--dim", 5, "--count", 400, "--out", workdir / "train.fsemb", *seed) == 0
        assert cli("synth", "family", "--dim", 5, "--count", 200, "--shifts",
                   ",".join(str(round(0.1 * i, 2)) for i in range(24)),
                   "--out-dir", workdir / "fam", *seed) == 0
        tasks = workdir / "tasks"
        tasks.mkdir()
        for k, bias in enumerate([0.5, 1.0, 1.5]):
            assert cli("synth", "label", "--train", workdir / "train.fsemb",
                       "--samples-dir", workdir / "fam", "--task-id", f"m{k}",
                       "--task-bias", bias, "--out", tasks / f"task{k}.jsonl", *seed) == 0
        assert cli("meta-train", "--tasks", tasks, "--out", workdir / "init.fsmlp",
                   "--set", "reptile.meta_rounds=40", *seed) == 0
        from driftgauge import load_model

        init = load_model(workdir / "init.fsmlp")
        assert init.meta_init is True
        assert cli("synth", "label", "--train", workdir / "train.fsemb",
                   "--samples-dir", workdir / "fam", "--task-id", "new",
                   "--task-bias", "2.0", "--out", workdir / "probe.jsonl", *seed) == 0
        assert cli("adapt", "--init", workdir / "init.fsmlp", "--probe", workdir / "probe.jsonl",
                   "--out", workdir / "adapted.fsmlp", *seed) == 0
        adapted = load_model(workdir / "adapted.fsmlp")
        assert adapted.meta_init is False
        changed = any(
            not np.array_equal(a, b)
            for a, b in zip(init.params.tensors(), adapted.params.tensors())
        )
        assert changed

    def test_budget_plan_golden_value(self, workdir, capsys):
        assert cli("budget", "plan", "--n-pairs", 3373204, "--db-count", 24625,
                   "--out", workdir / "plan.json") == 0
        payload = json.loads((workdir / "plan.json").read_text())
        assert payload["expected_cost"] == pytest.approx(666.21, abs=0.01)
        assert "666.21" in payload["summary"]
        assert payload["worst_case_bound"] == pytest.approx(985.00, abs=0.005)
        assert payload["feasible"] and payload["worst_case_feasible"]

    def test_budget_ledger_replay(self, workdir):
        charges = workdir / "charges.jsonl"
        rows = [
            {"db_id": "a", "kind": "gen", "count": 160},
            {"db_id": "a", "kind": "gen", "count": 1},
            {"db_id": "a", "kind": "val", "count": 160},
            {"db_id": "b", "kind": "exec", "count": 41},
        ]
        charges.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert cli("budget", "ledger", "--charges", charges, "--out", workdir / "snap.json") == 0
        snap = json.loads((workdir / "snap.json").read_text())
        assert snap["accepted_charges"] == 2
        assert [r["error"] for r in snap["rejected_charges"]] == ["CapExceeded", "CapExceeded"]
        assert snap["per_database"]["a"] == {"gen": 160, "val": 160, "exec": 0}

    @pytest.mark.parametrize(
        "bad",
        [
            '{"db_id": "a", ',
            '{"kind": "gen", "count": 1}',
            '{"db_id": "a", "count": 1}',
            '{"db_id": "a", "kind": "gen"}',
            '{"db_id": "a", "kind": "gen", "count": "many"}',
            '{"db_id": "a", "kind": "spend", "count": 1}',
            '["a", "gen", 1]',
        ],
        ids=["not-json", "no-db_id", "no-kind", "no-count", "bad-count", "bad-kind", "not-an-object"],
    )
    def test_budget_ledger_bad_line_exits_1(self, workdir, capsys, bad):
        charges = workdir / "charges.jsonl"
        charges.write_text(json.dumps({"db_id": "a", "kind": "gen", "count": 1}) + "\n" + bad + "\n")
        assert cli("budget", "ledger", "--charges", charges, "--out", workdir / "snap.json") == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ParseError"
        assert "charges.jsonl, line 2" in payload["message"]
        assert not (workdir / "snap.json").exists()

    def test_bench_swd_outputs(self, workdir):
        assert cli("bench", "swd", "--sizes", "150,150,6", "--slices", "2,4",
                   "--trials", 2, "--out-csv", workdir / "b.csv",
                   "--out-json", workdir / "b.json") == 0
        lines = (workdir / "b.csv").read_text().splitlines()
        assert lines[0] == "mode,L,k,R,n,m,D,trial,wall_ms,peak_bytes,swd"
        assert len(lines) == 1 + 2 * 2
        payload = json.loads((workdir / "b.json").read_text())
        assert len(payload["summary"]) == 2

    def test_metrics_em_and_mae(self, workdir, capsys):
        (workdir / "pred.sql").write_text("select 1\nSELECT 2\n")
        (workdir / "gold.sql").write_text("SELECT  1;\nSELECT 3\n")
        assert cli("metrics", "em", "--pred", workdir / "pred.sql", "--gold", workdir / "gold.sql",
                   "--out-csv", workdir / "em.csv") == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["em"] == pytest.approx(0.5)
        assert (workdir / "em.csv").read_text() == "index,em\n0,1\n1,0\n"

        (workdir / "p.txt").write_text("0.5\n0.7\n")
        (workdir / "g.txt").write_text("0.5\n0.3\n")
        assert cli("metrics", "mae", "--pred", workdir / "p.txt", "--gold", workdir / "g.txt") == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["mae"] == pytest.approx(0.2)

    def test_usage_errors_exit_2(self):
        assert cli("nonsense") == 2
        assert cli("descriptors", "compute") == 2  # missing required args
        assert cli() == 2

    def test_missing_input_exits_1(self, workdir, capsys):
        code = cli("descriptors", "compute", "--source", workdir / "no.fsemb",
                   "--target", workdir / "no.fsemb", "--out", workdir / "d.json")
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "MissingFile"

    @pytest.mark.parametrize("count, dim", [(0, 4), (3, 0)])
    def test_empty_fsemb_header_exits_1(self, workdir, capsys, count, dim):
        import struct

        path = workdir / "empty.fsemb"
        path.write_bytes(struct.pack("<8sIQIB", b"FSEMB\x00\x00\x00", 1, count, dim, 1))
        code = cli("descriptors", "compute", "--source", path, "--target", path,
                   "--out", workdir / "d.json")
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "BadMagic"

    @pytest.mark.parametrize(
        "argv, error, detail",
        [
            (["metrics", "mae", "--pred", "{d}/absent", "--gold", "{d}/g.txt"],
             "MissingFile", "{d}/absent"),
            (["metrics", "mae", "--pred", "{d}/p.txt", "--gold", "{d}/absent"],
             "MissingFile", "{d}/absent"),
            (["metrics", "em", "--pred", "{d}/absent", "--gold", "{d}/g.txt"],
             "MissingFile", "{d}/absent"),
            (["metrics", "em", "--pred", "{d}/p.txt", "--gold", "{d}/absent"],
             "MissingFile", "{d}/absent"),
            (["metrics", "mae", "--pred", "{d}/p.txt", "--gold", "{d}/bad.txt"],
             "ParseError", "{d}/bad.txt, line 3"),
            (["meta-train", "--tasks", "{d}/absent", "--out", "{d}/m.fsmlp"],
             "MissingFile", "{d}/absent"),
            (["synth", "label", "--train", "{d}/src.fsemb", "--samples-dir", "{d}/absent",
              "--out", "{d}/meta.jsonl"], "MissingFile", "{d}/absent"),
            (["bench", "swd", "--sizes", "150,x,6", "--slices", "2"],
             "ParseError", "--sizes chunk '150,x,6'"),
            (["bench", "swd", "--sizes", "150,150,6", "--slices", "2,4.5"],
             "ParseError", "--slices '2,4.5'"),
        ],
        ids=["mae-no-pred", "mae-no-gold", "em-no-pred", "em-no-gold", "mae-not-a-number",
             "meta-train-no-tasks-dir", "synth-label-no-samples-dir", "bench-bad-sizes",
             "bench-bad-slices"],
    )
    def test_bad_boundary_input_exits_1(self, workdir, capsys, argv, error, detail):
        self._gen_inputs(workdir)
        (workdir / "p.txt").write_text("0.5\n0.7\n")
        (workdir / "g.txt").write_text("0.5\n0.3\n")
        (workdir / "bad.txt").write_text("0.5\n\nhigh\n")
        capsys.readouterr()
        assert cli(*(a.format(d=workdir) for a in argv)) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.err.strip())
        assert payload["error"] == error
        assert detail.format(d=workdir) in payload["message"]
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, error, detail",
        [
            (["synth", "gen", "--dim", "0", "--count", "5"], "InvalidValue", "--dim"),
            (["synth", "gen", "--dim", "3", "--count", "0"], "InvalidValue", "--count"),
            (["synth", "gen", "--dim", "3", "--count", "5", "--stddev", "-1"],
             "InvalidValue", "--stddev"),
            (["synth", "family", "--dim", "3", "--count", "5", "--shifts", "1,0"],
             "InvalidValue", "--shifts"),
            (["synth", "family", "--dim", "3", "--count", "5", "--shifts", "0,x"],
             "ParseError", "--shifts '0,x'"),
            (["bench", "swd", "--sizes", "20,20,3", "--slices", "2", "--trials", "0"],
             "InvalidValue", "--trials"),
            (["bench", "swd", "--sizes", "20,0,3", "--slices", "2"],
             "InvalidValue", "--sizes chunk '20,0,3'"),
            (["bench", "swd", "--sizes", "20,20,3", "--slices", "0"],
             "InvalidValue", "--slices"),
            (["bench", "swd", "--sizes", "20,20,3", "--slices", "4", "--mode", "hybrid"],
             "InvalidValue", "k_pca=8"),
            (["bench", "swd", "--sizes", "20,20,3", "--slices", ","],
             "ParseError", "no entries"),
        ],
        ids=["gen-dim-0", "gen-count-0", "gen-negative-stddev", "family-descending-shifts",
             "family-bad-shift", "bench-trials-0", "bench-size-0", "bench-slices-0",
             "bench-hybrid-too-few-slices", "bench-no-slices"],
    )
    def test_bad_numeric_argument_exits_1(self, workdir, capsys, argv, error, detail):
        out = ["--out", str(workdir / "x.fsemb")] if argv[1] == "gen" else []
        out += ["--out-dir", str(workdir / "fam")] if argv[1] == "family" else []
        assert cli(*argv, *out) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.err.strip())
        assert payload["error"] == error
        assert detail in payload["message"]
        assert captured.out == ""
        assert list(workdir.iterdir()) == []

    def test_inputs_not_mutated(self, workdir):
        self._gen_inputs(workdir)
        before = (workdir / "src.fsemb").read_bytes()
        cli("descriptors", "compute", "--source", workdir / "src.fsemb",
            "--target", workdir / "tgt.fsemb", "--out", workdir / "d.json", "--seed", 5)
        assert (workdir / "src.fsemb").read_bytes() == before

    def test_rerun_byte_identical(self, workdir):
        self._gen_inputs(workdir)
        args = ["descriptors", "compute", "--source", workdir / "src.fsemb",
                "--target", workdir / "tgt.fsemb", "--seed", 11]
        assert cli(*args, "--out", workdir / "d1.json") == 0
        assert cli(*args, "--out", workdir / "d2.json") == 0
        assert (workdir / "d1.json").read_bytes() == (workdir / "d2.json").read_bytes()

    def test_synth_gen_deterministic_bytes(self, workdir):
        a = ["synth", "gen", "--dim", 4, "--count", 50, "--seed", 6]
        assert cli(*a, "--out", workdir / "a.fsemb") == 0
        assert cli(*a, "--out", workdir / "b.fsemb") == 0
        assert (workdir / "a.fsemb").read_bytes() == (workdir / "b.fsemb").read_bytes()
        assert (workdir / "a.fsemb.json").read_bytes() == (workdir / "b.fsemb.json").read_bytes()

    def test_synth_gen_sidecar_golden_bytes(self, workdir):
        assert cli("synth", "gen", "--dim", 2, "--count", 3, "--seed", 7,
                   "--out", workdir / "g.fsemb") == 0
        assert (workdir / "g.fsemb.json").read_bytes() == (
            b'{\n  "count": 3,\n  "created_at": "1970-01-01T00:00:00Z",\n  "dim": 2,\n'
            b'  "dtype": "f32",\n  "pooling": "synthetic-gaussian",\n'
            b'  "source_id": "gaussian-d2-seed9048523512618987165;master_seed=7"\n}\n'
        )


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A source, a labelled 12-set family and a model trained on it, at seed 3."""
    d = tmp_path_factory.mktemp("trained")
    seed = ["--seed", 3]
    assert cli("synth", "gen", "--dim", 4, "--count", 300, "--out", d / "src.fsemb", *seed) == 0
    assert cli("synth", "family", "--dim", 4, "--count", 200, "--shifts",
               "0,0.25,0.5,0.75,1,1.25,1.5,1.75,2,2.5,3,4", "--out-dir", d / "fam", *seed) == 0
    assert cli("synth", "label", "--train", d / "src.fsemb", "--samples-dir", d / "fam",
               "--out", d / "meta.jsonl", *seed) == 0
    assert cli("train", "--meta-set", d / "meta.jsonl", "--out", d / "model.fsmlp", *seed) == 0
    (d / "charges.jsonl").write_text('{"db_id": "a", "kind": "gen", "count": 2}\n')
    (d / "latin1.cfg").write_bytes(b"[swd]\nmode = \xe9\n")
    return d


_PREDICT = ["predict", "--model", "{d}/model.fsmlp", "--source", "{d}/src.fsemb",
            "--target", "{d}/fam/shift_003.fsemb", "--calib", "{d}/meta.jsonl", "--out", "{d}/x"]
_LABEL = ["synth", "label", "--train", "{d}/src.fsemb", "--samples-dir", "{d}/fam", "--out", "{d}/x"]
_LEDGER = ["budget", "ledger", "--charges", "{d}/charges.jsonl", "--out", "{d}/x"]
_SYNTH_GEN = ["synth", "gen", "--dim", "3", "--count", "5", "--out", "{d}/x"]
_COMPUTE = ["descriptors", "compute", "--source", "{d}/src.fsemb",
            "--target", "{d}/fam/shift_003.fsemb", "--out", "{d}/x"]


class TestBadSettingOrFlag:
    """A setting or flag value that breaks its rule exits 1 with a typed JSON
    payload and writes nothing."""

    @pytest.mark.parametrize(
        "argv, error, detail",
        [
            (_PREDICT + ["--alpha", "2"], "InvalidValue", "--alpha"),
            (_PREDICT + ["--set", "run.alpha=0"], "InvalidValue", "run.alpha"),
            (_COMPUTE + ["--set", "io.variance_floor=0"], "InvalidValue", "io.variance_floor"),
            (_COMPUTE + ["--set", "swd.k_pca=0"], "InvalidValue", "[swd]"),
            (["train", "--meta-set", "{d}/meta.jsonl", "--out", "{d}/x", "--set", "train.dropout=1"],
             "InvalidValue", "[train]"),
            (["train", "--meta-set", "{d}/meta.jsonl", "--out", "{d}/x", "--set", "train.lr0=nan"],
             "InvalidValue", "train.lr0"),
            (["budget", "plan", "--n-pairs", "-1"], "InvalidValue", "--n-pairs"),
            (["budget", "plan", "--n-pairs", "5", "--db-count", "-2"], "InvalidValue", "--db-count"),
            (["budget", "plan", "--n-pairs", "5", "--db-count", "2", "--set", "budget.cap_exec=-1"],
             "InvalidValue", "budget.cap_exec"),
            (_LEDGER + ["--set", "budget.cap_gen=-1"], "InvalidValue", "budget.cap_gen"),
            (_LEDGER + ["--set", "budget.total=nan"], "InvalidValue", "budget.total"),
            (_LEDGER + ["--set", "budget.total=inf"], "InvalidValue", "budget.total"),
            (_LEDGER + ["--set", "budget.total=1e305"], "InvalidValue", "total_budget"),
            (_LABEL + ["--noise-scale", "-1"], "InvalidValue", "--noise-scale"),
            (_LABEL + ["--noise-scale", "inf"], "InvalidValue", "--noise-scale"),
            (_LABEL + ["--task-bias", "nan"], "InvalidValue", "--task-bias"),
            (["bench", "swd", "--sizes", "20,20,3", "--slices", "2", "--set", "swd.quantiles=0"],
             "InvalidValue", "[swd]"),
            (_COMPUTE + ["--config", "{d}/absent.cfg"], "MissingFile", "absent.cfg"),
            (_COMPUTE + ["--config", "{d}/latin1.cfg"], "ParseError", "not UTF-8"),
            (_SYNTH_GEN + ["--stddev", "1e300"], "InvalidValue", "--stddev"),
            (_SYNTH_GEN + ["--stddev", "inf"], "InvalidValue", "--stddev"),
            (_SYNTH_GEN + ["--mean-shift", "nan"], "InvalidValue", "--mean-shift"),
            (_SYNTH_GEN + ["--mean-shift", "1e39"], "InvalidValue", "--mean-shift"),
            (["synth", "family", "--dim", "3", "--count", "5", "--shifts", "0,1e300",
              "--out-dir", "{d}/x"], "InvalidValue", "--shifts"),
        ],
        ids=["predict-alpha-flag", "predict-alpha-setting", "variance-floor-0", "swd-k-pca-0",
             "train-dropout-1", "train-lr0-nan", "plan-negative-pairs", "plan-negative-db-count",
             "plan-negative-cap", "ledger-negative-cap", "ledger-total-nan", "ledger-total-inf",
             "ledger-total-overflows-units", "label-negative-noise", "label-infinite-noise",
             "label-nan-task-bias",
             "bench-quantiles-0", "missing-config", "non-utf8-config", "synth-stddev-overflows",
             "synth-stddev-inf", "synth-mean-shift-nan", "synth-mean-shift-overflows",
             "synth-family-shift-overflows"],
    )
    # A numpy warning would print ahead of the JSON line on stderr.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exits_1(self, trained, capsys, argv, error, detail):
        capsys.readouterr()
        assert cli(*(a.format(d=trained) for a in argv), "--seed", 3) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.err.strip())
        assert payload["error"] == error
        assert detail in payload["message"]
        assert captured.out == ""
        assert not (trained / "x").exists()


class TestSeedFromEnvironment:
    """``DRIFTGAUGE_SEED`` is a set value like ``--seed``: ``predict`` checks
    it against the model's descriptor configuration."""

    def test_predict(self, trained, tmp_path, capsys, monkeypatch):
        argv = [a.format(d=trained) for a in _PREDICT[:-1]]
        monkeypatch.delenv("DRIFTGAUGE_SEED", raising=False)
        assert cli(*argv, tmp_path / "flag.json", "--seed", 3) == 0
        monkeypatch.setenv("DRIFTGAUGE_SEED", "3")
        assert cli(*argv, tmp_path / "env.json") == 0
        assert (tmp_path / "env.json").read_bytes() == (tmp_path / "flag.json").read_bytes()
        monkeypatch.setenv("DRIFTGAUGE_SEED", "4")
        capsys.readouterr()
        assert cli(*argv, tmp_path / "other.json") == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigMismatch"
        assert not (tmp_path / "other.json").exists()


class TestWriteFailure:
    """An output path that cannot be written exits 1 with an IoFailure naming
    it, prints nothing on stdout and leaves no temp file behind."""

    @pytest.mark.parametrize(
        "argv, detail",
        [
            (_PREDICT[:-1] + ["{o}/nodir/x.json"], "{o}/nodir/x.json"),
            (_PREDICT[:-1] + ["{o}/adir"], "{o}/adir"),
            (["synth", "family", "--dim", "3", "--count", "5", "--shifts", "0,1",
              "--out-dir", "{o}/afile"], "{o}/afile"),
        ],
        ids=["predict-out-in-missing-dir", "predict-out-is-a-dir", "family-out-dir-is-a-file"],
    )
    def test_exits_1(self, trained, tmp_path, capsys, argv, detail):
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        capsys.readouterr()
        assert cli(*(a.format(d=trained, o=tmp_path) for a in argv), "--seed", 3) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.err.strip())
        assert payload["error"] == "IoFailure"
        assert detail.format(o=tmp_path) in payload["message"]
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
        assert list((tmp_path / "adir").iterdir()) == []


class TestFuzzedModelFile:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(truncate=st.booleans(), in_header=st.booleans(), at=st.integers(0, 2**20),
           mask=st.integers(1, 255))
    @example(truncate=False, in_header=True, at=12, mask=64)  # header length runs into the block
    def test_only_typed_errors_escape_predict(self, trained, tmp_path, capsys,
                                              truncate, in_header, at, mask):
        """Truncations and single-byte flips of a trained ``.fsmlp`` (half of
        the flips inside the magic, version, length and JSON header) either
        predict or exit 1 with a typed JSON payload."""
        import struct

        blob = (trained / "model.fsmlp").read_bytes()
        header_end = struct.calcsize("<8sIQ") + struct.unpack_from("<8sIQ", blob)[2]
        if truncate:
            fuzzed = blob[: at % len(blob)]
        else:
            fuzzed = bytearray(blob)
            fuzzed[at % (header_end if in_header else len(blob))] ^= mask
        (tmp_path / "m.fsmlp").write_bytes(bytes(fuzzed))
        argv = [a.format(d=trained) for a in _PREDICT[:-1]] + [str(tmp_path / "r.json")]
        argv[argv.index("--model") + 1] = str(tmp_path / "m.fsmlp")
        capsys.readouterr()
        code = run(argv + ["--seed", "3"])
        if code == 1:
            assert "error" in json.loads(capsys.readouterr().err.strip())
        else:
            assert code == 0


# The commands that read JSONL, each with its argv and the file of ``trained``
# that it reads; the keys of those files' lines (a meta-set line nests the
# descriptor's under "delta"); and JSON text to put at a key.
_JSONL_INPUTS = {
    "train": (["train", "--meta-set", "{f}", "--out", "{o}"], "meta.jsonl"),
    "predict": (_PREDICT[:7] + ["--calib", "{f}", "--out", "{o}"], "meta.jsonl"),
    "ledger": (["budget", "ledger", "--charges", "{f}", "--out", "{o}"], "charges.jsonl"),
}
_JSONL_KEYS = ["task_id", "sample_set_id", "sample_set_size", "accuracy", "delta", "sd_f",
               "sd_sw", "config_digest", "db_id", "kind", "count", "nosuch"]
_JSON_TOKENS = st.one_of(
    st.sampled_from(["1e400", "-1e400", "1" * 401, "-" + "9" * 401, "1e-400", "NaN",
                     "Infinity", "-0", "0", "1", "-1", "0.5", "1e300", "true", "null", "[]",
                     "{}", '"gen"', '"x"', "[" * 2000]),
    st.integers().map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text(max_size=8).map(json.dumps),
)


def _with_raw_value(line: str, key: str, raw: str) -> str:
    """``line``, a JSON object, with the value at ``key`` (top level, or in
    its "delta" object) replaced by the JSON text ``raw``."""
    record = json.loads(line)
    owner = record["delta"] if key not in record and key in record.get("delta", {}) else record
    owner[key] = "\x00"
    return json.dumps(record, sort_keys=True, separators=(",", ":")).replace('"\\u0000"', raw)


def _run_on_jsonl(trained, tmp_path, capsys, command, blob):
    """Run ``command`` on the JSONL bytes ``blob``; return its exit code and
    stderr."""
    argv, name = _JSONL_INPUTS[command]
    path = tmp_path / ("in-" + name)
    path.write_bytes(blob)
    argv = [a.format(d=trained, f=path, o=tmp_path / "out") for a in argv]
    capsys.readouterr()
    return run(argv + ["--seed", "3"]), capsys.readouterr().err


class TestOversizedJsonValues:
    """A JSON number that no Python int or float can hold, or an array
    nested deeper than the parser's recursion limit, is a ParseError naming
    the line."""

    @pytest.mark.parametrize(
        "command, key, raw",
        [("train", "sample_set_size", "1e400"), ("train", "sd_f", "1" * 401),
         ("ledger", "count", "1e400"), ("predict", "delta", "[" * 2000)],
        ids=["meta-set-size-1e400", "meta-set-sd_f-401-digits", "ledger-count-1e400",
             "calib-nested-too-deep"],
    )
    def test_exits_1(self, trained, tmp_path, capsys, command, key, raw):
        name = _JSONL_INPUTS[command][1]
        first = (trained / name).read_text().splitlines()[0]
        code, err = _run_on_jsonl(trained, tmp_path, capsys, command,
                                  (_with_raw_value(first, key, raw) + "\n").encode())
        assert code == 1
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ParseError"
        assert "line 1" in payload["message"]
        assert not (tmp_path / "out").exists()


class TestFuzzedJsonl:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(sorted(_JSONL_INPUTS)), line=st.integers(0, 2**16),
           key=st.sampled_from(_JSONL_KEYS), raw=_JSON_TOKENS,
           damage=st.one_of(st.none(), st.tuples(st.booleans(), st.integers(0, 2**20),
                                                 st.integers(1, 255))))
    @example(command="train", line=0, key="sample_set_size", raw="1e400", damage=None)
    @example(command="train", line=0, key="sd_f", raw="1" * 401, damage=None)
    @example(command="ledger", line=0, key="count", raw="1e400", damage=None)
    @example(command="predict", line=3, key="delta", raw="[" * 2000, damage=None)
    @example(command="train", line=0, key="sd_f", raw="1.406222759148972e+154", damage=None)
    def test_only_typed_errors_escape(self, trained, tmp_path, capsys,
                                      command, line, key, raw, damage):
        """One value of a valid JSONL input replaced by arbitrary JSON text,
        then the file perhaps truncated or one byte flipped: the command
        exits 0, or exits 1 with one JSON line on stderr."""
        lines = (trained / _JSONL_INPUTS[command][1]).read_text().splitlines()
        lines[line % len(lines)] = _with_raw_value(lines[line % len(lines)], key, raw)
        blob = bytearray(("\n".join(lines) + "\n").encode())
        if damage is not None:
            truncate, at, mask = damage
            if truncate:
                blob = blob[: at % len(blob)]
            else:
                blob[at % len(blob)] ^= mask
        code, err = _run_on_jsonl(trained, tmp_path, capsys, command, bytes(blob))
        if code == 1:
            (payload,) = err.splitlines()
            assert "error" in json.loads(payload)
        else:
            assert code == 0


_BIG = "1" * 401  # an int too large for a float


class TestMetricsAndBudgetEscapes:
    """Metric lines that are not finite or do not pair by line number, and
    budget counts too large for a float, exit 1 with one JSON line on
    stderr and nothing on stdout."""

    @pytest.mark.parametrize(
        "argv, pred, gold, error, detail",
        [
            (["metrics", "mae"], "0.5\nnan\n", "0.5\n0.3\n", "ParseError", "{d}/pred, line 2"),
            (["metrics", "mae"], "0.5\n0.7\n", "inf\n0.3\n", "ParseError", "{d}/gold, line 1"),
            (["metrics", "mae"], "1e400\n", "0.5\n", "ParseError", "{d}/pred, line 1"),
            (["metrics", "mae"], "1.7e308\n", "-1.7e308\n", "InvalidValue", "the mae of"),
            (["metrics", "mae"], "0.5\n0.7\n", "0.5\n\n0.3\n", "ParseError", "{d}/gold, line 2"),
            (["metrics", "em"], "SELECT 1\n\nSELECT 2\n", "SELECT 2\nSELECT 1\n\n",
             "ParseError", "{d}/pred, line 2"),
            (["metrics", "em"], "SELECT 1\nSELECT 2\n", "SELECT 1\n", "ParseError",
             "{d}/gold, line 2"),
            (["budget", "plan", "--n-pairs", _BIG], None, None, "InvalidValue", "--n-pairs"),
            (["budget", "plan", "--n-pairs", "5", "--db-count", _BIG], None, None,
             "InvalidValue", "--db-count"),
            (["budget", "plan", "--n-pairs", "5", "--db-count", "2", "--set",
              f"budget.cap_gen={_BIG}"], None, None, "InvalidValue", "budget.cap_gen"),
            (["budget", "plan", "--n-pairs", "5", "--db-count", "2", "--set",
              f"budget.cap_exec={_BIG}"], None, None, "InvalidValue", "budget.cap_exec"),
            (["budget", "plan", "--n-pairs", "5", "--set", "budget.c_gen=1e300", "--set",
              "budget.gen_multiplier=1e300"], None, None, "InvalidValue", "the cost per pair"),
            (["budget", "plan", "--n-pairs", "1", "--db-count", str(10**27), "--set",
              f"budget.cap_gen={10**300}"], None, None, "InvalidValue", "the worst-case bound"),
            (["budget", "plan", "--n-pairs", "1", "--db-count", "0", "--set", "budget.c_gen=1e300",
              "--set", f"budget.cap_gen={10**300}"], None, None, "InvalidValue",
             "the worst-case bound must be a finite float, got nan"),
        ],
        ids=["mae-nan", "mae-inf", "mae-1e400", "mae-overflows", "mae-misaligned",
             "em-misaligned", "em-gold-short", "plan-n-pairs", "plan-db-count", "plan-cap-gen",
             "plan-cap-exec", "plan-cost-per-pair-overflows", "plan-bound-overflows",
             "plan-bound-zero-times-inf"],
    )
    def test_exits_1(self, tmp_path, capsys, argv, pred, gold, error, detail):
        import warnings

        if pred is not None:
            (tmp_path / "pred").write_text(pred)
            (tmp_path / "gold").write_text(gold)
            argv = argv + ["--pred", str(tmp_path / "pred"), "--gold", str(tmp_path / "gold")]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == error
        assert detail.format(d=tmp_path) in payload["message"]
        assert captured.out == ""


class TestEmptyOrSmallMetaSets:
    """A meta-set with no instances, or a task with one, reaches the
    library's own typed error; a descriptor digest that differs is a
    ConfigMismatch naming the file.  Each exits 1 with one JSON line on
    stderr and writes nothing."""

    @pytest.mark.parametrize(
        "argv, error, detail",
        [
            (["train", "--meta-set", "{o}/empty.jsonl"], "InsufficientData", "got 0"),
            (["meta-train", "--tasks", "{o}/empty"], "InsufficientTasks", "meta task"),
            (["adapt", "--init", "{d}/model.fsmlp", "--probe", "{o}/empty.jsonl"],
             "EmptyProbe", "empty"),
            (["meta-train", "--tasks", "{o}/one"], "InsufficientData", "task 'task0'"),
            (["train", "--meta-set", "{d}/meta.jsonl", "--seed", "4"], "ConfigMismatch",
             "{d}/meta.jsonl"),
            (["meta-train", "--tasks", "{o}/one", "--seed", "4"], "ConfigMismatch",
             "{o}/one/a.jsonl"),
            (["adapt", "--init", "{d}/model.fsmlp", "--probe", "{o}/other.jsonl"],
             "ConfigMismatch", "{o}/other.jsonl"),
        ],
        ids=["train-empty", "meta-train-empty-tasks", "adapt-empty-probe",
             "meta-train-one-instance-task", "train-other-seed", "meta-train-other-seed",
             "adapt-probe-other-config"],
    )
    def test_exits_1(self, trained, tmp_path, capsys, argv, error, detail):
        (tmp_path / "empty.jsonl").write_text("")
        (tmp_path / "empty").mkdir()
        (tmp_path / "empty" / "a.jsonl").write_text("")
        (tmp_path / "one").mkdir()
        first = (trained / "meta.jsonl").read_text().splitlines()[0]
        (tmp_path / "one" / "a.jsonl").write_text(first + "\n")
        other = json.loads(first)
        other["delta"]["config_digest"] = "other"
        (tmp_path / "other.jsonl").write_text(json.dumps(other) + "\n")
        argv = [a.format(d=trained, o=tmp_path) for a in argv] + ["--out", str(tmp_path / "x")]
        capsys.readouterr()
        assert run(argv if "--seed" in argv else argv + ["--seed", "3"]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == error
        assert detail.format(d=trained, o=tmp_path) in payload["message"]
        assert captured.out == ""
        assert not (tmp_path / "x").exists()
