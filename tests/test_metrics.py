import numpy as np
import pytest

from driftgauge import (
    Interval,
    canonical_sql,
    conformal_interval,
    exact_match,
    mae,
)
from driftgauge.errors import EmptyInput, LengthMismatch


class TestExactMatch:
    def test_whitespace_and_keyword_case(self):
        assert exact_match("select 1", "SELECT  1;") == 1

    def test_different_queries(self):
        assert exact_match("SELECT 1", "SELECT 2") == 0

    def test_string_literal_whitespace_preserved(self):
        assert exact_match("SELECT 'a  b'", "SELECT 'a b'") == 0

    def test_identifiers_keep_their_case(self):
        assert canonical_sql("select Name from Users") == "SELECT Name FROM Users"

    def test_keywords_inside_literals_untouched(self):
        assert canonical_sql("select 'select  from'") == "SELECT 'select  from'"

    def test_doubled_quote_escape(self):
        sql = "select 'it''s  fine'"
        assert canonical_sql(sql) == "SELECT 'it''s  fine'"

    def test_trailing_semicolon_with_space(self):
        assert canonical_sql("SELECT 1 ; ") == "SELECT 1"

    def test_reflexive_after_canonicalization(self):
        queries = [
            "SELECT a, b FROM t WHERE x = 'k  w'  GROUP BY a ;",
            "select count(*) from emp join dept on emp.d = dept.id",
            'SELECT "Weird  Col" FROM t',
        ]
        for q in queries:
            assert exact_match(q, q) == 1
            assert exact_match(q, canonical_sql(q)) == 1

    def test_whitespace_invariance_outside_literals(self):
        a = "SELECT   a,b   FROM  t  WHERE x='a  b'"
        b = "SELECT a,b FROM t WHERE x='a  b'"
        assert exact_match(a, b) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            exact_match("", "SELECT 1")


class TestMae:
    def test_identical(self):
        assert mae([0.1, 0.9], [0.1, 0.9]) == 0.0

    def test_simple_difference(self):
        assert mae([0.5], [0.7]) == pytest.approx(0.2)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        p = rng.random(200)
        a = rng.random(200)
        loop = sum(abs(x - y) for x, y in zip(p, a)) / 200
        assert mae(p, a) == pytest.approx(loop, abs=1e-12)

    def test_symmetric_and_scaling(self):
        rng = np.random.default_rng(1)
        p, a = rng.random(50), rng.random(50)
        assert mae(p, a) == pytest.approx(mae(a, p))
        assert mae(3 * p, 3 * a) == pytest.approx(3 * mae(p, a))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mae([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            mae([], [])


class TestConformal:
    def test_rank_rule_example(self):
        delta, insufficient = conformal_interval([0.1, 0.2, 0.3, 0.4], alpha=0.5)
        assert delta == pytest.approx(0.3)
        assert not insufficient

    def test_all_zero_residuals(self):
        delta, _ = conformal_interval([0.0, 0.0, 0.0], alpha=0.2)
        assert delta == 0.0

    def test_insufficient_data_flag(self):
        delta, insufficient = conformal_interval([0.25], alpha=0.1)
        assert delta == pytest.approx(0.25)
        assert insufficient

    def test_non_increasing_in_alpha(self):
        rng = np.random.default_rng(2)
        residuals = rng.exponential(0.1, size=50)
        deltas = [conformal_interval(residuals, a).delta_alpha for a in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert all(x >= y for x, y in zip(deltas, deltas[1:]))

    def test_empirical_coverage(self):
        # residual distribution known; coverage over fresh draws must reach
        # the nominal level within finite-sample slack
        rng = np.random.default_rng(3)
        alpha = 0.1
        hits = 0
        trials = 1000
        for _ in range(trials):
            calib = np.abs(rng.normal(0, 0.05, size=100))
            delta, _ = conformal_interval(calib, alpha)
            hits += abs(rng.normal(0, 0.05)) <= delta
        assert hits / trials >= (1 - alpha) - 0.05

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            conformal_interval([0.1], alpha=0.0)
        with pytest.raises(ValueError):
            conformal_interval([0.1], alpha=1.0)

    def test_empty_residuals(self):
        with pytest.raises(EmptyInput):
            conformal_interval([], alpha=0.1)


class TestInterval:
    def test_clipped_bounds(self):
        iv = Interval(center=0.95, half_width=0.2, alpha=0.1)
        assert iv.hi == 1.0
        assert iv.lo == pytest.approx(0.75)

    def test_dict_form(self):
        iv = Interval(center=0.5, half_width=0.1, alpha=0.2)
        d = iv.to_dict()
        assert (d["lo"], d["hi"]) == (pytest.approx(0.4), pytest.approx(0.6))

    def test_validation(self):
        with pytest.raises(ValueError):
            Interval(center=1.5, half_width=0.1, alpha=0.1)
        with pytest.raises(ValueError):
            Interval(center=0.5, half_width=-0.1, alpha=0.1)
