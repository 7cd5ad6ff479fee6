"""Schema/dataset validation, CSV round-trips, folds, noise, and synthesis."""
import codecs
import contextlib
import io
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

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
from treebma.cli import main
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

    @pytest.mark.parametrize("levels", [(0, 1.5), (False, True), (0, 2**53 + 1)],
                             ids=["float-level", "bool-levels", "level-past-2**53"])
    def test_library_levels_checked_as_the_file_reader_does(self, levels):
        """A float level would be cut to an integer by the candidate rules; the check of
        the schema file is this one."""
        with pytest.raises(DataValidationError) as caught:
            VariableSpec("a", "categorical", levels)
        assert str(caught.value) == ("levels of 'a' are not integers of magnitude at most "
                                     f"2**53: {levels!r}")

    def test_levels_not_a_sequence_refused(self):
        with pytest.raises(DataValidationError) as caught:
            VariableSpec("a", "categorical", 5)
        assert str(caught.value) == "levels of 'a' are not a sequence: 5"

    def test_numpy_integer_levels_accepted(self):
        spec = VariableSpec("a", "categorical", tuple(np.arange(3, dtype=np.int64)))
        assert spec.levels == (0, 1, 2) and all(type(x) is int for x in spec.levels)
        assert Schema.from_json(Schema((spec,), "y").to_json()).variables == (spec,)

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

    @pytest.mark.parametrize("name, outcome, message", [
        (5, "y", "name 5 is not a string"), (None, "y", "name None is not a string"),
        ("a", 7, "name 7 is not a string"), ("a", ["y"], "name ['y'] is not a string"),
        (" a", "y", "name ' a' has leading or trailing whitespace"),
        ("a\t", "y", "name 'a\\t' has leading or trailing whitespace"),
        (" ", "y", "name ' ' has leading or trailing whitespace"),
        ("a", "y\n", "name 'y\\n' has leading or trailing whitespace"),
        ("a", "\u00a0y", "name '\\xa0y' has leading or trailing whitespace"),
    ], ids=["integer-name", "none-name", "integer-outcome", "list-outcome", "leading-space",
            "trailing-tab", "blank-name", "outcome-newline", "outcome-nbsp"])
    def test_library_names_checked_as_the_file_reader_does(self, name, outcome, message):
        """A name or outcome that is not a string would be written to a schema file that
        from_json refuses, and a padded one to a CSV header that load_csv, which strips
        the header cells, refuses; the check of both files is this one."""
        with pytest.raises(DataValidationError) as caught:
            Schema((VariableSpec(name, "continuous"),), outcome)
        assert str(caught.value) == message

    def test_continuous_null_levels_read_as_none(self):
        """from_json hands levels to VariableSpec as they are, so ``null`` is no levels."""
        schema = Schema.from_json('{"variables": [{"name": "a", "kind": "continuous", '
                                  '"levels": null}], "outcome": "y"}')
        assert schema.variables == (VariableSpec("a", "continuous"),)

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(DataValidationError, match="not valid JSON"):
            Schema.from_json("[" * 100_000 + "]" * 100_000)

    def test_malformed_json_rejected(self):
        with pytest.raises(DataValidationError, match="not valid JSON"):
            Schema.from_json("{nope")
        with pytest.raises(DataValidationError, match="malformed schema"):
            Schema.from_json('{"variables": [{"kind": "continuous"}], "outcome": "y"}')

    @pytest.mark.parametrize("variable, outcome, message", [
        ('{"name": "a", "kind": "categorical", "levels": [0, 1.5]}', '"y"',
         "levels of 'a' are not integers of magnitude at most 2**53: (0, 1.5)"),
        ('{"name": "a", "kind": "categorical", "levels": [0, 1%s]}' % ("0" * 400), '"y"',
         "levels of 'a' are not integers of magnitude at most 2**53: (0, 1%s)" % ("0" * 400)),
        ('{"name": "a", "kind": "categorical", "levels": [0, 9007199254740993]}', '"y"',
         "levels of 'a' are not integers of magnitude at most 2**53: (0, 9007199254740993)"),
        ('{"name": "a", "kind": "categorical", "levels": [false, true]}', '"y"',
         "levels of 'a' are not integers of magnitude at most 2**53: (False, True)"),
        ('{"name": "a", "kind": "categorical", "levels": "ab"}', '"y"',
         "levels of 'a' are not integers of magnitude at most 2**53: ('a', 'b')"),
        ('{"name": "a", "kind": "categorical", "levels": 5}', '"y"',
         "levels of 'a' are not a sequence: 5"),
        ('{"name": "a", "kind": "categorical", "levels": null}', '"y"',
         "categorical variable 'a' needs levels"),
        ('{"name": 5, "kind": "continuous"}', '"y"', "name 5 is not a string"),
        ('{"name": "a", "kind": "continuous"}', "7", "name 7 is not a string"),
        ('{"name": " a", "kind": "continuous"}', '"y"',
         "name ' a' has leading or trailing whitespace"),
        ('{"name": "a", "kind": "continuous", "levles": [1, 2]}', '"y"',
         "variable 0: unknown key 'levles'"),
        ('{"name": "a", "kind": "continuous"}', '"y", "extra": 1',
         "schema document: unknown key 'extra'"),
        ('{"name": "a", "kind": "continuous", "levles": [1, 2]}', '"y", "extra": 1, "Outcome": 2',
         "schema document: unknown key 'Outcome', unknown key 'extra'"),
        ('{"name": "a", "kind": "continuous"}, {"name": "b", "kind": "categorical", '
         '"levels": [0, 1], "level": [0, 1]}', '"y"', "variable 1: unknown key 'level'"),
    ], ids=["float-level", "huge-level", "level-past-2**53", "bool-levels", "string-levels",
            "number-levels", "null-levels", "integer-name", "integer-outcome", "padded-name",
            "variable-key", "document-key", "document-keys-first", "second-variable-key"])
    def test_field_types_checked_naming_file(self, tmp_path, variable, outcome, message):
        """Names are strings and levels integers a float64 column holds exactly, and no key
        is unknown, so a misspelt one is not dropped (the document's are named before its
        variables'); a fault is refused where the schema is read, naming the file."""
        path = tmp_path / "schema.json"
        path.write_text(f'{{"variables": [{variable}], "outcome": {outcome}}}')
        with pytest.raises(DataValidationError) as caught:
            Schema.from_file(path)
        assert str(caught.value) == f"{message} (in {path})"

    def test_largest_exact_levels_accepted(self):
        schema = Schema.from_json('{"variables": [{"name": "a", "kind": "categorical", '
                                  '"levels": [-9007199254740992, 9007199254740992]}], '
                                  '"outcome": "y"}')
        assert schema.variables[0].levels == (-2**53, 2**53)


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

    @pytest.mark.parametrize("labels, row", [([0.7, 1.9], 0), ([1, 0.5], 1), ([0, np.nan], 1),
                                             ([0, None], 1), (["0", "1"], 0), ([2**70, 1], 0),
                                             ([1 + 0j, 0], 0), ([0, np.complex64(1)], 0),
                                             ([Fraction(1), 1 + 0j], 1)])
    def test_labels_checked_before_the_integer_cast(self, tiny_schema, labels, row):
        """A label the int64 cast would cut (0.7 to 0, 1.9 to 1, 1 + 0j to 1 with a
        ComplexWarning) or not take at all is a label outside {0,1}, never a silently
        changed one."""
        with pytest.raises(DataValidationError) as caught:
            Dataset(tiny_schema, np.zeros((2, 2)), labels)
        assert str(caught.value) == f"label not in {{0,1}} at row {row}"

    def test_provenance_is_a_string(self, tiny_schema):
        """run_chain passes it to the ChainRecord, which refuses anything else, so it is
        refused here, before a chain has run."""
        with pytest.raises(DataValidationError, match="^provenance 5 is not a string$"):
            Dataset(tiny_schema, np.zeros((2, 2)), [0, 1], provenance=5)

    def test_integer_valued_labels_accepted(self, tiny_schema):
        for labels in ([0.0, 1.0], [False, True], np.array([0, 1], dtype=np.uint8)):
            y = Dataset(tiny_schema, np.zeros((2, 2)), labels).y
            assert y.dtype == np.int64 and y.tolist() == [0, 1]

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

    def test_round_trip_keeps_negative_zero(self, tmp_path, tiny_schema):
        X = np.array([[-0.0, 0], [0.0, 1], [-2.0, 2], [1e16, 0], [-0.0, 1]])
        data = Dataset(tiny_schema, X, np.array([0, 1, 0, 1, 1]))
        path = tmp_path / "d.csv"
        save_csv(data, path)
        assert path.read_text().splitlines()[1:] == ["-0,0,0", "0,1,1", "-2,2,0",
                                                     "10000000000000000,0,1", "-0,1,1"]
        back = load_csv(path, tiny_schema)
        assert back.X.tobytes() == X.tobytes()  # bit for bit: the zeros keep their signs
        assert np.signbit(back.X[:, 0]).tolist() == [True, False, True, False, True]

    def test_byte_order_mark_dropped(self, tmp_path, small_data):
        """A CSV saved as UTF-8 with a byte-order mark, as spreadsheets save it, loads equal
        to the one without."""
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        save_csv(small_data, plain)
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        back, marked_back = load_csv(plain, small_data.schema), load_csv(marked, small_data.schema)
        assert marked_back.X.tobytes() == back.X.tobytes()
        np.testing.assert_array_equal(marked_back.y, back.y)

    def test_cell_over_field_limit_names_line(self, tiny_schema, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,x1,y\n1.0,0,0\n" + "1" * 131_073 + ",0,1\n")
        with pytest.raises(DataValidationError, match=r"d\.csv: line 3: field larger"):
            load_csv(p, tiny_schema)

    def test_not_utf8_names_file(self, tiny_schema, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"x0,x1,y\n1.0,0,\xff\n")
        with pytest.raises(DataValidationError) as caught:
            load_csv(p, tiny_schema)
        assert str(caught.value) == f"{p}: not UTF-8 text (invalid start byte)"

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

    @pytest.mark.parametrize("body, fault", [
        ("", "empty file"),
        ("a,b,c\n1,0,0\n", "header mismatch; expected ['x0', 'x1', 'y'], got ['a', 'b', 'c']"),
        ("x0,x1,y\n", "dataset needs at least one row"),
        ("x0,x1,y\n1.0,0\n", "row 0 has 2 cells, expected 3"),
        ("x0,x1,y\n1.0,oops,0\n", "non-numeric cell 'oops' at row 0, column 1 ('x1')"),
        ("x0,x1,y\n1.0,0,0\n1.0,0,0.5\n", "label not in {0,1} at row 1"),
        ("x0,x1,y\n1.0,0,0\ninf,1,1\n", "non-finite value at row 1, column 0 ('x0')"),
        ("x0,x1,y\n1.0,7,0\n", "value 7 outside levels of 'x1' at row 0, column 1"),
    ], ids=["empty", "header", "no-rows", "ragged", "non-numeric", "label", "non-finite",
            "level"])
    def test_every_fault_names_the_file(self, tiny_schema, tmp_path, body, fault):
        """A fault of the file or of the Dataset it holds is one message starting with the
        path; the Dataset's own checks are the ones a file's rows pass."""
        p = tmp_path / "d.csv"
        p.write_text(body)
        with pytest.raises(DataValidationError) as caught:
            load_csv(p, tiny_schema)
        assert str(caught.value) == f"{p}: {fault}"


# ---------------------------------------------------------------------------
# Fuzzed schema text and CSV bytes
# ---------------------------------------------------------------------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=3),
    max_leaves=6)


@st.composite
def schema_texts(draw):
    """Any text, any JSON, or a schema document whose fields may hold any JSON value."""
    shape = draw(st.sampled_from(["text", "json", "schema"]))
    if shape == "text":
        return draw(st.text(max_size=30))
    if shape == "json":
        return json.dumps(draw(JSON))
    variables = []
    for _ in range(draw(st.integers(0, 3))):
        var = {"name": draw(st.sampled_from(["a", "b", "y"]) | JSON),
               "kind": draw(st.sampled_from(["continuous", "categorical"]) | JSON),
               "levels": draw(st.lists(st.integers(-2**54, 2**54) | JSON, max_size=4) | JSON)}
        variables.append({k: var[k] for k in draw(st.sets(st.sampled_from(list(var))))})
    return json.dumps({"variables": variables, "outcome": draw(st.just("y") | JSON)})


CELLS = ["0", "1", "2", "-0", "1.5", "nan", "inf", "1e400", "", " 1", "x", '"', "1_0"]


@st.composite
def csv_bytes(draw):
    """Any bytes, or rows of cells under a header, as UTF-8 with any bytes appended."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    cell = st.sampled_from(CELLS) | st.text(max_size=3)
    header = draw(st.sampled_from([["x0", "x1", "y"], ["x1", "x0", "y"], [" x0", "x1 ", "y"]])
                  | st.lists(cell, max_size=4))
    rows = draw(st.lists(st.lists(cell, max_size=4), max_size=4))
    sep = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return sep.join(map(",".join, [header, *rows])).encode() + draw(st.binary(max_size=3))


def run_main(argv: list[str]) -> tuple[int, str]:
    """main's exit code and standard error; any exception that escapes main fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


class TestFuzzedInputs:
    """Every schema text and CSV file gives a value or a typed error, never another
    exception, and through the CLI an exit code of 0, 1 or 2 with no traceback."""

    @settings(max_examples=150, deadline=None)
    @given(text=schema_texts())
    def test_schema_text(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path, ens = Path(tmp) / "schema.json", Path(tmp) / "e.jsonl"
            path.write_text(text, encoding="utf-8", errors="surrogatepass")
            ens.write_text('{"nodes":[{"id":0,"leaf":[1,1]}],"root":0,"loglik":-1.0}\n')
            try:
                Schema.from_file(path)
                message = "error: importance undefined: no split nodes in the ensemble"
            except DataValidationError as e:
                message = f"error: {e}"
            rc, err = run_main(["importance", "--ensemble", str(ens), "--schema", str(path),
                                "--out-dir", str(Path(tmp) / "o")])
            assert (rc, err) == (1, message + "\n")

    @settings(max_examples=150, deadline=None)
    @given(data=csv_bytes())
    def test_csv_bytes(self, tiny_schema, data):
        with tempfile.TemporaryDirectory() as tmp:
            path, schema = Path(tmp) / "d.csv", Path(tmp) / "schema.json"
            path.write_bytes(data)
            schema.write_text(tiny_schema.to_json())
            try:
                load_csv(path, tiny_schema)
                message = None
            except DataValidationError as e:
                message = f"error: {e}\n"
            rc, err = run_main(["train", "--data", str(path), "--schema", str(schema),
                                "--burn-in", "0", "--collect", "1", "--thin", "1",
                                "--min-leaf", "1", "--out-dir", str(Path(tmp) / "o")])
            if message is not None:
                assert (rc, err) == (1, message)
            else:  # rows that load may still admit no split (exit 1)
                assert rc in (0, 1) and (rc == 0) != err.startswith("error: ")


LEVEL = st.integers(-2**53, 2**53) | st.sampled_from(
    [-2**53, 2**53, np.int64(7), np.int64(8), -2**53 - 1, True, 0.5])  # the last 3 refused


@st.composite
def schema_args(draw):
    """The VariableSpec arguments and the outcome of a Schema: distinct names (one in ten
    times, one that is not a string), each variable continuous or categorical with
    ascending levels drawn from LEVEL."""
    names = draw(st.lists(st.text(max_size=4), min_size=2, max_size=4, unique=True))
    if draw(st.integers(0, 9)) == 5:
        names[draw(st.integers(0, len(names) - 1))] = draw(st.sampled_from([5, None, ["y"]]))
    variables = []
    for name in names[1:]:
        levels = draw(st.none() | st.lists(LEVEL, min_size=1, max_size=4, unique=True))
        kind = "continuous" if levels is None else "categorical"
        variables.append((name, kind, levels and tuple(sorted(levels))))
    return variables, names[0]


class TestLibraryRecordsRoundTrip:
    """A schema or dataset that its constructor accepts is read back equal from its file:
    the constructors make the checks that the readers' records pass."""

    @settings(max_examples=150, deadline=None)
    @given(args=schema_args())
    def test_schema_through_json(self, args):
        variables, outcome = args
        try:
            schema = Schema(tuple(VariableSpec(*v) for v in variables), outcome)
        except DataValidationError:
            return
        assert Schema.from_json(schema.to_json()) == schema

    @settings(max_examples=150, deadline=None)
    @given(args=schema_args())
    def test_schema_header_through_csv(self, args):
        """Any names the constructors accept come back from the CSV header: a two-row
        dataset over the schema is read back equal."""
        variables, outcome = args
        try:
            schema = Schema(tuple(VariableSpec(*v) for v in variables), outcome)
        except DataValidationError:
            return
        X = [[v.levels[-r] if v.is_categorical else r - 0.5 for v in schema.variables]
             for r in (0, 1)]
        data = Dataset(schema, X, [0, 1])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            save_csv(data, path)
            back = load_csv(path, schema)
        assert back.schema == schema and back.X.tobytes() == data.X.tobytes()
        assert back.y.tolist() == [0, 1]

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats() | st.integers(-2**60, 2**60),
                                   st.sampled_from([0, 1, 2, -0.0, 2.0, np.int64(1)]),
                                   st.sampled_from([0, 1, 0.0, 1.0, True, False, np.int8(1)])),
                         min_size=1, max_size=5),
           fault=st.none() | st.sampled_from([(1, 1.5), (2, 0.5), (2, 2), (2, np.nan)]))
    def test_dataset_through_csv(self, tiny_schema, rows, fault):
        """Rows of any x0, an x1 level and a label; now and then one cell the
        constructor refuses in the last row."""
        if fault is not None:
            rows[-1] = tuple(fault[1] if j == fault[0] else v for j, v in enumerate(rows[-1]))
        try:
            data = Dataset(tiny_schema, [row[:2] for row in rows], [row[2] for row in rows])
        except DataValidationError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            save_csv(data, path)
            back = load_csv(path, tiny_schema)
        assert back.schema == data.schema and back.provenance == str(path)
        assert back.X.tobytes() == data.X.tobytes()  # bit for bit, signs of zeros too
        assert back.y.dtype == data.y.dtype and back.y.tolist() == data.y.tolist()


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

    @pytest.mark.parametrize("intensity", [1e308, 5e307])
    def test_overflowing_intensity_rejected(self, small_data, intensity):
        """Noise past the float range is refused as the intensity's fault, not the data's."""
        with pytest.raises(DataValidationError) as caught:
            add_noise(small_data, intensity, seed=0)
        assert str(caught.value) == (f"noise intensity {intensity} takes values past the "
                                     "float range")

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
