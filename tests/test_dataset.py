"""Schema/dataset validation, CSV round-trips, folds, noise, and synthesis."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebma import (
    DataValidationError,
    add_noise,
    drop_variable,
    load_csv,
    make_folds,
    save_csv,
    synth_trauma,
    trauma_schema,
)
from treebma.dataset import (
    FLIP_PROB,
    Dataset,
    Schema,
    VariableSpec,
    planted_risk_scores,
)


# ---------------------------------------------------------------------------
# VariableSpec / Schema
# ---------------------------------------------------------------------------

class TestVariableSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(DataValidationError, match="unknown variable kind"):
            VariableSpec("a", "ordinal")

    def test_categorical_needs_levels(self):
        with pytest.raises(DataValidationError, match="needs levels"):
            VariableSpec("a", "categorical")

    def test_levels_must_be_distinct_ascending(self):
        with pytest.raises(DataValidationError, match="distinct and ascending"):
            VariableSpec("a", "categorical", (1, 0))
        with pytest.raises(DataValidationError, match="distinct and ascending"):
            VariableSpec("a", "categorical", (0, 0, 1))

    def test_continuous_must_not_list_levels(self):
        with pytest.raises(DataValidationError, match="must not list levels"):
            VariableSpec("a", "continuous", (0, 1))


class TestSchema:
    def test_duplicate_names_rejected(self):
        v = VariableSpec("a", "continuous")
        with pytest.raises(DataValidationError, match="unique"):
            Schema((v, v), "y")

    def test_outcome_name_clash_rejected(self):
        with pytest.raises(DataValidationError, match="clashes"):
            Schema((VariableSpec("y", "continuous"),), "y")

    def test_empty_schema_rejected(self):
        with pytest.raises(DataValidationError, match="at least one"):
            Schema((), "y")

    def test_json_round_trip(self, tiny_schema):
        assert Schema.from_json(tiny_schema.to_json()) == tiny_schema

    def test_malformed_json_rejected(self):
        with pytest.raises(DataValidationError, match="not valid JSON"):
            Schema.from_json("{nope")
        with pytest.raises(DataValidationError, match="malformed schema"):
            Schema.from_json('{"variables": [{"kind": "continuous"}], "outcome": "y"}')


def test_trauma_schema_shape():
    schema = trauma_schema()
    assert schema.m == 16
    continuous = [j for j, v in enumerate(schema.variables) if not v.is_categorical]
    assert continuous == [0, 9, 10, 14, 15]
    for j, var in enumerate(schema.variables):
        if var.is_categorical:
            assert var.levels[0] == 0 and len(var.levels) >= 2


# ---------------------------------------------------------------------------
# Dataset validation
# ---------------------------------------------------------------------------

class TestDataset:
    def test_shape_mismatch(self, tiny_schema):
        with pytest.raises(DataValidationError, match="does not match schema"):
            Dataset(tiny_schema, np.zeros((4, 3)), np.zeros(4, dtype=int))

    def test_label_outside_01_reports_row(self, tiny_schema):
        X = np.zeros((3, 2))
        with pytest.raises(DataValidationError, match="row 1"):
            Dataset(tiny_schema, X, np.array([0, 2, 1]))

    def test_non_finite_reports_position(self, tiny_schema):
        X = np.zeros((3, 2))
        X[2, 0] = np.nan
        with pytest.raises(DataValidationError, match="row 2, column 0"):
            Dataset(tiny_schema, X, np.zeros(3, dtype=int))

    def test_categorical_value_outside_levels(self, tiny_schema):
        X = np.zeros((2, 2))
        X[1, 1] = 7.0
        with pytest.raises(DataValidationError, match="outside levels.*row 1, column 1"):
            Dataset(tiny_schema, X, np.zeros(2, dtype=int))

    def test_first_column_at_fault_is_named(self, tiny_schema):
        """The first column in order wins, whether its fault is a non-finite value or an
        undeclared level, and within a column a non-finite value comes first."""
        X = np.zeros((4, 2))
        X[0, 1], X[2, 0] = 7.0, np.inf
        with pytest.raises(DataValidationError, match=r"non-finite value at row 2, column 0"):
            Dataset(tiny_schema, X, np.zeros(4, dtype=int))
        swapped = Schema(tiny_schema.variables[::-1], "y")
        with pytest.raises(DataValidationError,
                           match=r"value 7 outside levels of 'x1' at row 0, column 0"):
            Dataset(swapped, X[:, ::-1], np.zeros(4, dtype=int))
        X[2, 0], X[3, 1] = 0.0, np.nan  # column 1: level 7 at row 0, nan at row 3
        with pytest.raises(DataValidationError, match=r"non-finite value at row 3, column 1"):
            Dataset(tiny_schema, X, np.zeros(4, dtype=int))

    def test_arrays_read_only(self, tiny_data):
        with pytest.raises(ValueError):
            tiny_data.X[0, 0] = 99.0
        with pytest.raises(ValueError):
            tiny_data.y[0] = 1

    def test_class_counts(self, tiny_data):
        assert tiny_data.class_counts() == (4, 4)


# ---------------------------------------------------------------------------
# CSV round-trips
# ---------------------------------------------------------------------------

class TestCsv:
    def test_round_trip(self, tmp_path, small_data):
        path = tmp_path / "d.csv"
        save_csv(small_data, path)
        back = load_csv(path, small_data.schema)
        np.testing.assert_array_equal(back.X, small_data.X)
        np.testing.assert_array_equal(back.y, small_data.y)

    def test_missing_file(self, tiny_schema, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", tiny_schema)

    def test_header_mismatch(self, tiny_schema, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,c\n1,0,0\n")
        with pytest.raises(DataValidationError, match="header mismatch"):
            load_csv(p, tiny_schema)

    def test_non_numeric_cell_reports_position(self, tiny_schema, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,x1,y\n1.0,oops,0\n")
        with pytest.raises(DataValidationError, match="'oops' at row 0, column 1"):
            load_csv(p, tiny_schema)

    def test_bad_label(self, tiny_schema, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,x1,y\n1.0,0,5\n")
        with pytest.raises(DataValidationError, match="not in {0,1}"):
            load_csv(p, tiny_schema)

    def test_ragged_row(self, tiny_schema, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,x1,y\n1.0,0\n")
        with pytest.raises(DataValidationError, match="row 0 has 2 cells"):
            load_csv(p, tiny_schema)

    def test_empty_file(self, tiny_schema, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(DataValidationError, match="empty file"):
            load_csv(p, tiny_schema)


# ---------------------------------------------------------------------------
# Folds
# ---------------------------------------------------------------------------

class TestFolds:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(2, 8))
    def test_partition_and_stratification(self, small_data, seed, k):
        plan = make_folds(small_data, k, seed)
        # every row in exactly one fold
        assert plan.assignments.shape == (small_data.n,)
        assert set(np.unique(plan.assignments)) <= set(range(k))
        # per-class fold counts differ by at most one
        for cls in (0, 1):
            counts = np.bincount(plan.assignments[small_data.y == cls], minlength=k)
            assert counts.max() - counts.min() <= 1

    def test_deterministic(self, small_data):
        a = make_folds(small_data, 5, seed=3).assignments
        b = make_folds(small_data, 5, seed=3).assignments
        np.testing.assert_array_equal(a, b)

    def test_k_too_large(self, tiny_data):
        with pytest.raises(DataValidationError, match="exceeds the smallest class"):
            make_folds(tiny_data, 5, seed=0)

    def test_k_below_two(self, tiny_data):
        with pytest.raises(DataValidationError, match="at least 2"):
            make_folds(tiny_data, 1, seed=0)

    def test_train_test_split_sizes(self, small_data):
        plan = make_folds(small_data, 4, seed=1)
        train, test = plan.train_test(small_data, 2)
        assert train.n + test.n == small_data.n
        assert test.n == int((plan.assignments == 2).sum())

    def test_commutes_with_drop_variable(self, small_data):
        before = make_folds(small_data, 5, seed=9).assignments
        after = make_folds(drop_variable(small_data, 3), 5, seed=9).assignments
        np.testing.assert_array_equal(before, after)


# ---------------------------------------------------------------------------
# drop_variable / add_noise
# ---------------------------------------------------------------------------

class TestDropVariable:
    def test_removes_column(self, small_data):
        out = drop_variable(small_data, 4)
        assert out.m == small_data.m - 1
        np.testing.assert_array_equal(out.X[:, 4], small_data.X[:, 5])
        assert out.schema.names == [n for j, n in enumerate(small_data.schema.names) if j != 4]

    def test_out_of_range(self, small_data):
        with pytest.raises(DataValidationError, match="out of range"):
            drop_variable(small_data, 16)

    def test_cannot_drop_last(self, tiny_data):
        once = drop_variable(tiny_data, 0)
        with pytest.raises(DataValidationError, match="only feature"):
            drop_variable(once, 0)


class TestAddNoise:
    @settings(max_examples=20, deadline=None)
    @given(intensity=st.floats(0.0, 0.5), seed=st.integers(0, 1000))
    def test_perturbation_bound(self, small_data, intensity, seed):
        out = add_noise(small_data, intensity, seed)
        ranges = small_data.X.max(axis=0) - small_data.X.min(axis=0)
        ranges[ranges == 0] = 1.0
        delta = np.abs(out.X - small_data.X)
        assert (delta <= intensity * ranges / 2 + 1e-12).all()

    def test_zero_intensity_identity_with_kind_change(self, small_data):
        out = add_noise(small_data, 0.0, seed=0)
        np.testing.assert_array_equal(out.X, small_data.X)
        assert all(not v.is_categorical for v in out.schema.variables)

    def test_labels_untouched(self, small_data):
        out = add_noise(small_data, 0.05, seed=0)
        np.testing.assert_array_equal(out.y, small_data.y)

    def test_negative_intensity_rejected(self, small_data):
        with pytest.raises(DataValidationError, match="nonnegative"):
            add_noise(small_data, -0.1, seed=0)

    def test_deterministic(self, small_data):
        a = add_noise(small_data, 0.01, seed=4)
        b = add_noise(small_data, 0.01, seed=4)
        np.testing.assert_array_equal(a.X, b.X)


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------

def _plugin_mi_bits(col: np.ndarray, y: np.ndarray, bins: int = 10) -> float:
    """Plug-in mutual information estimate (bits) with quantile binning."""
    edges = np.quantile(col, np.linspace(0, 1, bins + 1))
    b = np.clip(np.digitize(col, edges[1:-1]), 0, bins - 1)
    mi = 0.0
    for bb in np.unique(b):
        for yy in (0, 1):
            p = np.mean((b == bb) & (y == yy))
            if p > 0:
                mi += p * math.log2(p / (np.mean(b == bb) * np.mean(y == yy)))
    return mi


class TestSynthTrauma:
    def test_deterministic(self):
        a = synth_trauma(100, 3, {8})
        b = synth_trauma(100, 3, {8})
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.provenance == b.provenance

    def test_n_too_small(self):
        with pytest.raises(DataValidationError, match="n >= 20"):
            synth_trauma(10, 0)

    def test_irrelevant_cannot_cover_all(self):
        with pytest.raises(DataValidationError, match="every variable"):
            synth_trauma(100, 0, frozenset(range(16)))

    def test_irrelevant_index_out_of_range(self):
        with pytest.raises(DataValidationError, match="out of range"):
            synth_trauma(100, 0, {16})

    def test_provenance_documents_rule(self):
        d = synth_trauma(50, 1, {9})
        assert "irrelevant=[9]" in d.provenance
        assert "indicator_count>" in d.provenance
        assert f"flip_prob={FLIP_PROB}" in d.provenance

    def test_planted_rule_by_hand(self):
        """Hand-compute the documented indicator score for crafted rows."""
        schema = trauma_schema()
        row_calm = np.zeros(16)  # no injuries, but vitals of zero are all alarming
        row_calm[0] = 40.0   # age not elderly
        row_calm[9] = 18.0   # respiration normal
        row_calm[10] = 120.0  # BP normal
        row_calm[14] = 96.0  # oximetry normal
        row_calm[15] = 90.0  # heart rate normal
        row_bad = row_calm.copy()
        row_bad[0] = 70.0    # elderly: +1
        row_bad[10] = 90.0   # hypotensive: +1
        row_bad[1] = 1.0     # two-level flag set: +2
        row_bad[3] = 3.0     # multi-level severity >= 1: +1
        X = np.vstack([row_calm, row_bad])
        scores = planted_risk_scores(X, schema, list(range(16)))
        assert scores[0] == 0.0
        assert scores[1] == 5.0

    def test_labels_match_planted_rule_up_to_flips(self):
        d = synth_trauma(2000, 11, {8})
        included = [j for j in range(16) if j != 8]
        scores = planted_risk_scores(np.asarray(d.X), d.schema, included)
        threshold = float(d.provenance.split("indicator_count>")[1].split(";")[0])
        rule_labels = (scores > threshold).astype(int)
        mismatch = float((rule_labels != d.y).mean())
        # mismatches are exactly the label flips (prob 0.02)
        assert mismatch < 0.04

    @pytest.mark.parametrize("col", [8, 9])
    def test_irrelevant_column_mutual_information(self, col):
        d = synth_trauma(10_000, 3, {col})
        assert _plugin_mi_bits(np.asarray(d.X[:, col]), np.asarray(d.y)) < 0.01

    def test_irrelevant_column_is_class_balanced(self):
        """No single split on an irrelevant column can shift the class mix."""
        d = synth_trauma(316, 7, {8})
        col, y = np.asarray(d.X[:, 8]), np.asarray(d.y)
        p_global = y.mean()
        for level in np.unique(col):
            sub = y[col == level]
            # class-1 count within one row of the proportional share
            assert abs(sub.sum() - p_global * sub.size) <= 1.0

    def test_included_columns_do_carry_signal(self):
        d = synth_trauma(10_000, 3, {8})
        assert _plugin_mi_bits(np.asarray(d.X[:, 1]), np.asarray(d.y)) > 0.01
