"""End-to-end command-line runs in a temp directory with small chain budgets."""
import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treebma import (
    ChainConfig,
    Dataset,
    evaluate,
    load_csv,
    load_ensemble,
    run_chain,
    save_csv,
    save_ensemble,
    trauma_schema,
)
from treebma.cli import main
from treebma.tree import TreeFormatError, serialize

from helpers import valid_trees

FAST = ["--burn-in", "400", "--collect", "40", "--thin", "1", "--min-leaf", "8"]


def stump_line(right_leaf=(60, 30), split=None) -> str:
    """One ensemble line: a stump (default split: variable 2 == 1) with the given right leaf."""
    split = split or {"var": 2, "level": 1}
    return json.dumps({"nodes": [{"id": 0, "split": split, "left": 1, "right": 2},
                                 {"id": 1, "leaf": [10, 20]}, {"id": 2, "leaf": right_leaf}],
                       "root": 0, "loglik": -70.0}) + "\n"


BAD_INT = ["1", 1.5, True, False, None, [1], {}]
BAD = {  # values of the wrong type (or range) for each kind of field
    "int": BAD_INT,
    "count": [*BAD_INT, -1],
    "thr": ["0.5", True, None, [0.5], float("nan"), float("inf")],
    "loglik": ["-1.5", True, [-1.5], {}, float("nan"), float("-inf")],
    "leaf": [5, "ab", {}, None, [1], [1, 2, 3]],
    "split": [None, [1], "x", 5],
    "nodes": [None, {}, "x", 5, []],
}


@st.composite
def mutated_records(draw):
    """A valid record with one fault: a key dropped, a type swapped, a dangling or repeated
    child, a cycle or a duplicate id."""
    doc = json.loads(serialize(draw(valid_trees(min_splits=1, max_splits=4)), loglik=-1.5))
    nodes = doc["nodes"]
    splits = [rec for rec in nodes if "split" in rec]
    kind = draw(st.sampled_from(["drop", "type", "dangling", "repeated", "cycle", "duplicate"]))
    if kind == "drop":
        owner, key = draw(st.sampled_from(
            [(doc, key) for key in doc] + [(rec, key) for rec in nodes for key in rec]
            + [(rec["split"], key) for rec in splits for key in rec["split"]]))
        del owner[key]
    elif kind == "type":
        fields = [(doc, "root", "int"), (doc, "loglik", "loglik"), (doc, "nodes", "nodes")]
        for rec in nodes:
            fields.append((rec, "id", "int"))
            if "leaf" in rec:
                fields += [(rec, "leaf", "leaf"), (rec["leaf"], 0, "count"),
                           (rec["leaf"], 1, "count")]
            else:
                sp = rec["split"]
                fields += [(rec, "left", "int"), (rec, "right", "int"), (rec, "split", "split"),
                           (sp, "var", "int"), (sp, "thr", "thr") if "thr" in sp
                           else (sp, "level", "int")]
        owner, key, field = draw(st.sampled_from(fields))
        owner[key] = draw(st.sampled_from(BAD[field]))
    else:
        rec = draw(st.sampled_from(splits))
        side, other = draw(st.permutations(["left", "right"]))
        if kind == "dangling":
            rec[side] = max(r["id"] for r in nodes) + draw(st.integers(1, 5))
        elif kind == "repeated":
            rec[side] = rec[other]
        elif kind == "cycle":
            rec[side] = draw(st.sampled_from([doc["root"], rec["id"]]))
        else:
            i, j = draw(st.permutations(range(len(nodes))))[:2]
            nodes[j]["id"] = nodes[i]["id"]
    return json.dumps(doc)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--rows", "120", "--seed", "5", "--irrelevant", "8",
                 "--out-dir", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir) -> Path:
    out = tmp_path_factory.mktemp("train")
    rc = main(["train", "--data", str(synth_dir / "data.csv"), "--seed", "1",
               *FAST, "--out-dir", str(out)])
    assert rc == 0
    return out


class TestSynth:
    def test_writes_loadable_dataset(self, synth_dir):
        from treebma import load_csv

        data = load_csv(synth_dir / "data.csv", trauma_schema())
        assert data.n == 120 and data.m == 16
        assert "irrelevant=[8]" in (synth_dir / "provenance.txt").read_text()

    def test_manifest_records_run(self, synth_dir):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["seed"] == 5
        assert str(synth_dir / "data.csv") in manifest["artifacts"]


class TestTrain:
    def test_ensemble_file_and_metadata(self, trained_dir):
        ens = load_ensemble(trained_dir / "ensemble.jsonl", trained_dir / "metadata.json")
        assert len(ens) == 40
        assert ens.meta["config"]["burn_in_steps"] == 400
        assert 0.0 <= ens.meta["acceptance"]["overall"] <= 1.0

    def test_manifest_digests_inputs(self, trained_dir, synth_dir):
        manifest = json.loads((trained_dir / "manifest.json").read_text())
        digest = manifest["inputs"][str(synth_dir / "data.csv")]
        assert len(digest) == 64  # sha256 hex
        meta = json.loads((trained_dir / "metadata.json").read_text())
        assert manifest["config"] == meta["config"]

    def test_same_seed_reproduces(self, synth_dir, trained_dir, tmp_path):
        out2 = tmp_path / "again"
        rc = main(["train", "--data", str(synth_dir / "data.csv"), "--seed", "1",
                   *FAST, "--out-dir", str(out2)])
        assert rc == 0
        assert (out2 / "ensemble.jsonl").read_bytes() == \
            (trained_dir / "ensemble.jsonl").read_bytes()


class TestEvalImportanceFilterCompare:
    def test_eval_writes_fold_report(self, synth_dir, tmp_path):
        out = tmp_path / "eval"
        rc = main(["eval", "--data", str(synth_dir / "data.csv"), "--folds", "3",
                   "--seed", "2", *FAST, "--out-dir", str(out)])
        assert rc == 0
        rows = list(csv.reader((out / "report.csv").open()))
        assert rows[0][0] == "fold"
        assert [r[0] for r in rows[1:4]] == ["0", "1", "2"]
        assert (out / "report.txt").exists()

    def test_importance_normalized(self, trained_dir, tmp_path):
        out = tmp_path / "imp"
        rc = main(["importance", "--ensemble", str(trained_dir / "ensemble.jsonl"),
                   "--out-dir", str(out)])
        assert rc == 0
        rows = list(csv.reader((out / "importance.csv").open()))[1:]
        assert len(rows) == 16
        assert sum(float(r[2]) for r in rows) == pytest.approx(1.0, abs=1e-4)

    def test_filter_excludes_variable(self, synth_dir, trained_dir, tmp_path):
        out = tmp_path / "filt"
        rc = main(["filter", "--ensemble", str(trained_dir / "ensemble.jsonl"),
                   "--variable", "8", "--data", str(synth_dir / "data.csv"),
                   "--out-dir", str(out)])
        assert rc == 0
        kept = load_ensemble(out / "filtered_ensemble.jsonl")
        assert all(8 not in t.variables_used() for t in kept.trees)
        assert "excluded variable: 8" in (out / "report.txt").read_text()

    def test_filter_keeps_ensemble_alpha(self, synth_dir, tmp_path):
        """filter scores with the alpha in metadata.json and writes it beside its output."""
        data = load_csv(synth_dir / "data.csv", trauma_schema())
        cfg = ChainConfig(burn_in_steps=400, collect_count=40, thin=1, min_leaf=8, seed=1,
                          dirichlet_alpha=5.0)
        ens_path, meta_path = tmp_path / "ensemble.jsonl", tmp_path / "metadata.json"
        save_ensemble(run_chain(data, cfg), ens_path, meta_path)
        expected = evaluate(load_ensemble(ens_path, meta_path), data).entropy_bits
        out = tmp_path / "filt"
        rc = main(["filter", "--ensemble", str(ens_path), "--variable", "8",
                   "--data", str(synth_dir / "data.csv"), "--out-dir", str(out)])
        assert rc == 0
        original = (out / "report.txt").read_text().split("selected ensemble")[0]
        assert f"{expected:>10.2f}" in original
        kept = load_ensemble(out / "filtered_ensemble.jsonl", out / "metadata.json")
        assert kept.dirichlet_alpha == 5.0

    def test_filter_keeps_input_metadata(self, synth_dir, trained_dir, tmp_path):
        """filter into the ensemble's own directory exits 1 and leaves its metadata.json."""
        model = tmp_path / "model"
        model.mkdir()
        for name in ("ensemble.jsonl", "metadata.json"):
            (model / name).write_bytes((trained_dir / name).read_bytes())
        rc = main(["filter", "--ensemble", str(model / "ensemble.jsonl"), "--variable", "8",
                   "--data", str(synth_dir / "data.csv"), "--out-dir", str(model)])
        assert rc == 1
        assert (model / "metadata.json").read_bytes() == \
            (trained_dir / "metadata.json").read_bytes()

    def test_importance_keeps_model_manifest(self, trained_dir, tmp_path):
        """importance into the ensemble's own directory exits 1 and leaves train's manifest."""
        model = tmp_path / "model"
        model.mkdir()
        for name in ("ensemble.jsonl", "metadata.json", "manifest.json"):
            (model / name).write_bytes((trained_dir / name).read_bytes())
        rc = main(["importance", "--ensemble", str(model / "ensemble.jsonl"),
                   "--out-dir", str(tmp_path / "model" / ".." / "model")])
        assert rc == 1
        assert (model / "manifest.json").read_bytes() == \
            (trained_dir / "manifest.json").read_bytes()
        assert not (model / "importance.csv").exists()

    def test_compare_writes_all_arms(self, synth_dir, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["compare", "--data", str(synth_dir / "data.csv"), "--folds", "3",
                   "--seed", "3", "--variable", "8", *FAST, "--out-dir", str(out)])
        assert rc == 0
        arms = {r[0] for r in list(csv.reader((out / "compare.csv").open()))[1:]}
        assert arms == {"all_vars", "dropped", "filtered", "dropped_noise"}
        assert (out / "importance.csv").exists()


class TestExitCodes:
    def test_compare_variable_in_every_tree(self, synth_dir, tmp_path, capsys):
        """A fold whose arm-(a) trees all split on --variable exits 1, naming the fold and
        the variable, before any arm-(b) chain (which here has no variable left) runs."""
        data = load_csv(synth_dir / "data.csv", trauma_schema())
        X = np.repeat(data.X[:1], data.n, axis=0)  # every column constant but Age,
        X[:, 0] = data.X[:, 0]
        y = (X[:, 0] > np.median(X[:, 0])).astype(np.int64)  # which decides the label
        one_column = tmp_path / "one_column.csv"
        save_csv(Dataset(data.schema, X, y), one_column)
        out = tmp_path / "cmp"
        rc = main(["compare", "--data", str(one_column), "--folds", "2", "--variable", "0",
                   *FAST, "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "fold 0: every tree splits on variable 0" in err
        assert "Traceback" not in err
        assert not (out / "compare.csv").exists()

    @pytest.mark.parametrize("noise", ["nan", "inf", "-inf"])
    def test_compare_non_finite_noise(self, synth_dir, tmp_path, capsys, noise):
        out = tmp_path / "cmp"
        rc = main(["compare", "--data", str(synth_dir / "data.csv"), f"--noise={noise}",
                   *FAST, "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: noise intensity {noise} is not finite and nonnegative" in err
        assert "Traceback" not in err
        assert not (out / "compare.csv").exists()

    def test_missing_data_file_is_io_error(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "nope.csv"), *FAST,
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2

    def test_invalid_data_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        schema = trauma_schema()
        header = ",".join(schema.names + [schema.outcome])
        bad.write_text(header + "\n" + ",".join(["0"] * 16 + ["7"]) + "\n")
        rc = main(["train", "--data", str(bad), *FAST, "--out-dir", str(tmp_path / "o")])
        assert rc == 1

    def test_bad_irrelevant_index(self, tmp_path):
        rc = main(["synth", "--rows", "50", "--irrelevant", "99",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("leaf", [None, [3], [-2, 5], [1, 2, 3], ["a", "b"]])
    def test_malformed_ensemble_leaf(self, synth_dir, tmp_path, leaf):
        ens = tmp_path / "bad.jsonl"
        ens.write_text(stump_line() + stump_line(right_leaf=leaf))
        rc = main(["filter", "--ensemble", str(ens), "--variable", "8",
                   "--data", str(synth_dir / "data.csv"), "--out-dir", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("variable", [40, -1])
    def test_importance_split_outside_schema(self, tmp_path, variable):
        ens = tmp_path / "wide.jsonl"
        ens.write_text(stump_line(split={"var": variable, "thr": 1.5}))
        rc = main(["importance", "--ensemble", str(ens), "--out-dir", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("split", [{"var": 1.0, "thr": 0.5}, {"var": True, "level": 1}],
                             ids=["float-var", "bool-var"])
    def test_malformed_split_rule(self, synth_dir, tmp_path, split):
        ens = tmp_path / "bad.jsonl"
        ens.write_text(stump_line(split=split))
        rc = main(["filter", "--ensemble", str(ens), "--variable", "8",
                   "--data", str(synth_dir / "data.csv"), "--out-dir", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc["nodes"].append({"id": 2, "leaf": [5, 5]}),
        lambda doc: (doc["nodes"][0].update(left="x"), doc["nodes"][1].update(id="x")),
        lambda doc: doc["nodes"][0]["split"].update(thr=0.5),
        lambda doc: doc.update(loglik=float("nan")),
    ], ids=["duplicate-id", "str-id", "thr-and-level", "nan-loglik"])
    def test_malformed_record(self, synth_dir, tmp_path, mutate):
        doc = json.loads(stump_line())
        mutate(doc)
        ens = tmp_path / "bad.jsonl"
        ens.write_text(stump_line() + json.dumps(doc) + "\n")
        rc = main(["filter", "--ensemble", str(ens), "--variable", "8",
                   "--data", str(synth_dir / "data.csv"), "--out-dir", str(tmp_path / "o")])
        assert rc == 1

    @settings(max_examples=80, deadline=None)
    @given(line=mutated_records())
    @example(line=stump_line(split={"var": True, "level": 1}))  # after a "var": 1 line
    def test_mutated_record_is_a_format_error(self, synth_dir, line):
        """Every mutated record ends in TreeFormatError naming path:line and in exit 1."""
        with tempfile.TemporaryDirectory() as tmp:
            ens = Path(tmp) / "bad.jsonl"
            ens.write_text(stump_line(split={"var": 1, "level": 1}) + line.strip() + "\n")
            with pytest.raises(TreeFormatError, match=r"bad\.jsonl:2: "):
                load_ensemble(ens)
            rc = main(["filter", "--ensemble", str(ens), "--variable", "8",
                       "--data", str(synth_dir / "data.csv"), "--out-dir", str(Path(tmp) / "o")])
            assert rc == 1

    @pytest.mark.parametrize("command", ["filter", "importance"])
    @pytest.mark.parametrize("split", [{"var": 1, "level": 7}, {"var": 0, "level": 1}],
                             ids=["undeclared-level", "level-on-continuous"])
    def test_split_level_outside_schema(self, synth_dir, tmp_path, command, split):
        ens = tmp_path / "levels.jsonl"
        ens.write_text(stump_line(split=split))
        args = ["--variable", "8", "--data", str(synth_dir / "data.csv")] \
            if command == "filter" else []
        rc = main([command, "--ensemble", str(ens), *args, "--out-dir", str(tmp_path / "o")])
        assert rc == 1
