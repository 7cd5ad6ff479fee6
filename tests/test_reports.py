"""Rendering of evaluation, importance, and comparison reports."""
import csv
import io

import numpy as np
import pytest

from treebma import EvalReport
from treebma.reports import (
    comparison_csv,
    comparison_table,
    eval_reports_csv,
    eval_reports_table,
    importance_bar_chart,
    importance_csv,
)


def make_report(perf, ent, ll) -> EvalReport:
    return EvalReport(performance_pct=perf, entropy_bits=ent,
                      entropy_bits_mean=ent / 10, max_train_loglik=ll, per_point=[])


@pytest.fixture
def reports():
    return [make_report(80.0, 12.0, -50.0), make_report(90.0, 10.0, -45.0)]


class TestEvalReports:
    def test_csv_rows_and_footer(self, reports):
        rows = list(csv.reader(io.StringIO(eval_reports_csv(reports))))
        assert rows[0][0] == "fold"
        assert rows[1][1] == "80.0000" and rows[2][1] == "90.0000"
        assert rows[3][0] == "mean" and rows[3][1] == "85.0000"
        assert rows[4][0] == "std"
        assert float(rows[4][1]) == pytest.approx(np.std([80, 90], ddof=1), abs=1e-4)

    def test_table_contains_folds_and_summary(self, reports):
        text = eval_reports_table(reports, title="cv")
        assert text.startswith("cv\n")
        assert "80.00" in text and "90.00" in text and "±" in text


class TestImportance:
    def test_csv_columns(self):
        text = importance_csv(["a", "b"], np.array([0.75, 0.25]))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["variable", "name", "posterior_probability"]
        assert rows[1] == ["0", "a", "0.750000"]
        assert rows[2] == ["1", "b", "0.250000"]

    def test_bar_chart_scales_to_max(self):
        text = importance_bar_chart(["a", "b"], np.array([0.8, 0.4]))
        lines = text.splitlines()
        assert lines[1].count("#") == 50
        assert lines[2].count("#") == 25


class TestComparison:
    @pytest.fixture
    def report(self):
        # assembled by hand to keep rendering tests fast
        from treebma.analysis import ComparisonReport

        reports = {
            "all_vars": [make_report(80.0, 12.0, -50.0)],
            "dropped": [make_report(78.0, 13.0, -52.0)],
            "filtered": [make_report(80.0, 12.1, -50.0)],
            "dropped_noise": [make_report(79.0, 12.5, -51.0)],
        }
        return ComparisonReport(weakest=8, noise_intensity=0.01, reports=reports,
                                omitted_counts=[3], importance=np.full(16, 1 / 16))

    def test_table_lists_all_arms(self, report, small_data):
        text = comparison_table(report, small_data.schema.names)
        for arm in ("all_vars", "dropped", "filtered", "dropped_noise"):
            assert f"[{arm}]" in text
        assert "delta vs all_vars" in text
        assert "trees omitted by filtering" in text

    def test_csv_one_row_per_arm_fold(self, report):
        rows = list(csv.reader(io.StringIO(comparison_csv(report))))
        assert len(rows) == 1 + 4  # header + 4 arms x 1 fold
        filtered_row = [r for r in rows if r[0] == "filtered"][0]
        assert filtered_row[5] == "3"  # omitted count carried on the filtered arm
