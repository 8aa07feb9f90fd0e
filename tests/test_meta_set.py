import json

import numpy as np
import pytest

from driftgauge import (
    BudgetLedger,
    CostModel,
    EmbeddingSet,
    SWDConfig,
    build_meta_instance,
    draw_sample_sets,
    load_meta_set,
    plan_budget,
    save_meta_set,
    worst_case_bound,
)
from driftgauge.errors import (
    BudgetExhausted,
    CapExceeded,
    InvalidBounds,
    MissingFile,
    ParseError,
)

PAPER_COSTS = dict(c_gen=0.00012, c_val=0.00003, c_exec=0.0004)


class TestPlanBudget:
    def test_reference_totals(self):
        cm = CostModel(**PAPER_COSTS, gen_multiplier=1.05, val_multiplier=1.05,
                       exec_multiplier=0.10, total_budget=1000.0)
        plan = plan_budget(cm, 3_373_204)
        assert plan.expected_cost == pytest.approx(666.21, abs=0.01)
        assert plan.feasible

    def test_zero_pairs(self):
        plan = plan_budget(CostModel(), 0)
        assert plan.expected_cost == 0.0 and plan.feasible

    def test_marginally_infeasible(self):
        cm = CostModel(**PAPER_COSTS, total_budget=1000.0)
        per_pair = 1.05 * (cm.c_gen + cm.c_val) + 0.10 * cm.c_exec
        n_max = int(1000.0 / per_pair)
        assert plan_budget(cm, n_max).feasible
        assert not plan_budget(cm, n_max + 1).feasible

    def test_separate_multiplier_knobs(self):
        cm = CostModel(**PAPER_COSTS, gen_multiplier=2.0, val_multiplier=1.0,
                       exec_multiplier=0.0, total_budget=10.0)
        plan = plan_budget(cm, 1000)
        assert plan.expected_cost == pytest.approx(1000 * (2.0 * 0.00012 + 0.00003))


class TestWorstCaseBound:
    def test_reference_value(self):
        cm = CostModel(**PAPER_COSTS)
        assert worst_case_bound(cm, 24_625, 160, 40) == pytest.approx(985.00, abs=0.005)

    def test_zero_databases(self):
        assert worst_case_bound(CostModel(), 0, 160, 40) == 0.0

    def test_single_generation(self):
        cm = CostModel(**PAPER_COSTS)
        assert worst_case_bound(cm, 1, 1, 0) == pytest.approx(0.00015)


class TestBudgetLedger:
    def ledger(self, budget=1000.0, cap_gen=160, cap_exec=40):
        return BudgetLedger(CostModel(**PAPER_COSTS, total_budget=budget),
                            cap_gen=cap_gen, cap_exec=cap_exec)

    def test_gen_cap(self):
        led = self.ledger()
        led.charge("db1", "gen", 160)
        with pytest.raises(CapExceeded):
            led.charge("db1", "gen", 1)
        led.charge("db2", "gen", 160)  # caps are per database

    def test_exec_cap(self):
        led = self.ledger()
        led.charge("db1", "exec", 40)
        with pytest.raises(CapExceeded):
            led.charge("db1", "exec", 1)

    def test_val_uncapped_until_budget(self):
        led = self.ledger(budget=0.001)
        # 0.001 / 0.00003 = 33.33 -> 33 validations fit
        led.charge("db1", "val", 33)
        with pytest.raises(BudgetExhausted):
            led.charge("db1", "val", 1)

    def test_reject_leaves_state_unchanged(self):
        led = self.ledger()
        led.charge("db1", "gen", 100)
        before_total = led.total_units
        before_counts = led.counts("db1")
        with pytest.raises(CapExceeded):
            led.charge("db1", "gen", 100)
        assert led.total_units == before_total
        assert led.counts("db1") == before_counts

    def test_conservation_exact_over_random_charges(self):
        rng = np.random.default_rng(0)
        led = self.ledger(budget=50.0)
        kinds = ["gen", "val", "exec"]
        applied = 0
        for _ in range(5000):
            db = f"db{rng.integers(40)}"
            kind = kinds[rng.integers(3)]
            count = int(rng.integers(1, 25))
            try:
                led.charge(db, kind, count)
                applied += 1
            except (CapExceeded, BudgetExhausted):
                pass
        assert applied > 0
        assert led.recomputed_units() == led.total_units

    def test_budget_boundary_exact(self):
        # exactly exhausting the budget is allowed; one more unit is not
        led = BudgetLedger(CostModel(c_gen=0.1, c_val=0.1, c_exec=0.1, total_budget=1.0),
                           cap_gen=1000, cap_exec=1000)
        led.charge("d", "gen", 10)
        with pytest.raises(BudgetExhausted):
            led.charge("d", "val", 1)

    def test_snapshot_shape(self):
        led = self.ledger()
        led.charge("a", "gen", 24)
        led.charge("a", "val", 24)
        snap = led.snapshot()
        assert snap["per_database"]["a"] == {"gen": 24, "val": 24, "exec": 0}
        assert snap["caps"] == {"gen": 160, "exec": 40}
        assert snap["total_cost"] == pytest.approx(24 * 0.00012 + 24 * 0.00003)


class TestDrawSampleSets:
    def test_fixed_size_when_bounds_equal(self):
        sets = draw_sample_sets(100, 10, max_size=7, min_size=7, seed=0)
        assert all(len(s) == 7 for s in sets)

    def test_indices_in_range_and_unique(self):
        for s in draw_sample_sets(50, 20, max_size=30, min_size=5, seed=1):
            assert len(set(s.tolist())) == len(s)
            assert s.min() >= 0 and s.max() < 50

    def test_deterministic(self):
        a = draw_sample_sets(200, 5, max_size=100, min_size=10, seed=9)
        b = draw_sample_sets(200, 5, max_size=100, min_size=10, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_log_uniform_size_spread(self):
        sets = draw_sample_sets(10_000, 10_000, max_size=10_000, min_size=100, seed=2)
        sizes = np.array([len(s) for s in sets])
        low_decade = np.mean((sizes >= 100) & (sizes < 1000))
        high_decade = np.mean(sizes >= 1000)
        assert low_decade >= 0.2 and high_decade >= 0.2

    def test_invalid_bounds(self):
        with pytest.raises(InvalidBounds):
            draw_sample_sets(10, 1, max_size=20, min_size=5, seed=0)
        with pytest.raises(InvalidBounds):
            draw_sample_sets(10, 1, max_size=2, min_size=5, seed=0)


class TestBuildMetaInstance:
    def sets(self):
        rng = np.random.default_rng(3)
        train = EmbeddingSet(data=rng.standard_normal((80, 6)).astype(np.float32))
        sample = EmbeddingSet(data=(rng.standard_normal((40, 6)) + 1).astype(np.float32))
        return train, sample

    def test_self_pair_zero_components(self):
        train, _ = self.sets()
        inst = build_meta_instance(train, train, 0.7, SWDConfig(k_pca=2, l_random=2, seed=1),
                                   task_id="m", sample_set_id="s")
        assert inst.delta.sd_f == pytest.approx(0.0, abs=1e-9)
        assert inst.delta.sd_sw == pytest.approx(0.0, abs=1e-9)
        assert inst.delta.euclid_mean == pytest.approx(0.0, abs=1e-9)
        assert inst.accuracy == 0.7
        assert inst.sample_set_size == train.n

    def test_accuracy_range_enforced(self):
        train, sample = self.sets()
        with pytest.raises(ValueError):
            build_meta_instance(train, sample, 1.2, SWDConfig(seed=0), "m", "s")

    def test_deterministic(self):
        train, sample = self.sets()
        cfg = SWDConfig(k_pca=2, l_random=2, seed=5)
        a = build_meta_instance(train, sample, 0.4, cfg, "m", "s")
        b = build_meta_instance(train, sample, 0.4, cfg, "m", "s")
        assert a == b


class TestMetaSetFile:
    def test_jsonl_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        train = EmbeddingSet(data=rng.standard_normal((30, 4)).astype(np.float32))
        cfg = SWDConfig(k_pca=2, l_random=2, seed=7)
        instances = [
            build_meta_instance(
                train,
                EmbeddingSet(data=(rng.standard_normal((20, 4)) + i).astype(np.float32)),
                accuracy=round(0.1 * i, 2),
                cfg=cfg,
                task_id="m0",
                sample_set_id=f"s{i}",
            )
            for i in range(4)
        ]
        path = tmp_path / "meta.jsonl"
        save_meta_set(instances, path)
        back = load_meta_set(path)
        assert back == instances
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4
        row = json.loads(lines[0])
        assert set(row) == {"task_id", "sample_set_id", "sample_set_size", "delta", "accuracy"}

    def _good_line(self):
        delta = dict(sd_f=1.0, sd_m_mean=1.0, sd_m_std=0.5, sd_sw=0.2, euclid_mean=0.3,
                     config_digest="d")
        return json.dumps({"task_id": "m", "sample_set_id": "s", "sample_set_size": 3,
                           "delta": delta, "accuracy": 0.5})

    @pytest.mark.parametrize(
        "bad",
        ['{"task_id": "m", ', '{"task_id": "m"}', "[1, 2]", '{"accuracy": "high"}'],
        ids=["malformed", "missing-field", "not-an-object", "bad-value"],
    )
    def test_bad_line_is_parse_error_with_location(self, tmp_path, bad):
        path = tmp_path / "meta.jsonl"
        path.write_text(self._good_line() + "\n\n" + bad + "\n")
        with pytest.raises(ParseError, match=r"meta\.jsonl, line 3"):
            load_meta_set(path)

    def test_undecodable_bytes_are_parse_error(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        path.write_bytes(self._good_line().encode() + b"\n\xff\xfe{}\n")
        with pytest.raises(ParseError, match=r"meta\.jsonl: not UTF-8 text"):
            load_meta_set(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile, match="absent"):
            load_meta_set(tmp_path / "absent.jsonl")
