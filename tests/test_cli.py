"""End-to-end command-line runs in a temp directory with small chain budgets."""
import argparse
import contextlib
import csv
import io
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treebma import (
    ChainConfig,
    Dataset,
    chain_diagnostics,
    evaluate,
    load_csv,
    load_ensemble,
    run_chain,
    save_csv,
    save_ensemble,
    trauma_schema,
)
from treebma.cli import _chain_config, build_parser, main
from treebma.tree import TreeFormatError

from helpers import chain_record, mutated_records

FAST = ["--burn-in", "400", "--collect", "40", "--thin", "1", "--min-leaf", "8"]


def record_text(change=lambda doc: None) -> str:
    """A valid metadata.json text, or one that ``change`` has edited in place."""
    doc = json.loads(json.dumps(asdict(chain_record())))
    change(doc)
    return json.dumps(doc)


def old_layout(doc):
    """The sidecar layout before the chain record: seed and s_max beside the config (whose
    s_max is null), and the rates with the counts under acceptance."""
    counts = {"proposed": doc.pop("proposed"), "accepted": doc.pop("accepted")}
    doc.update(seed=0, s_max=doc["config"]["s_max"], acceptance={"overall": 0.2, **counts})
    doc["config"]["s_max"] = None


def stump_line(right_leaf=(60, 30), split=None) -> str:
    """One ensemble line: a stump (default split: variable 2 == 1) with the given right leaf."""
    split = split or {"var": 2, "level": 1}
    return json.dumps({"nodes": [{"id": 0, "split": split, "left": 1, "right": 2},
                                 {"id": 1, "leaf": [10, 20]}, {"id": 2, "leaf": right_leaf}],
                       "root": 0, "loglik": -70.0}) + "\n"


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

    def test_manifest_command_is_the_run(self, tmp_path, monkeypatch):
        """The manifest's command is ``treebma`` and the arguments main was given (from
        sys.argv when given none), not the host process's own command line."""
        argv = ["synth", "--rows", "40", "--out-dir", str(tmp_path / "a")]
        monkeypatch.setattr("sys.argv", ["-c", "-x", "foo"])
        assert main(argv) == 0
        monkeypatch.setattr("sys.argv", ["/bin/treebma", *argv[:-1], str(tmp_path / "b")])
        assert main() == 0
        for out in ("a", "b"):
            manifest = json.loads((tmp_path / out / "manifest.json").read_text())
            assert manifest["command"] == ["treebma", *argv[:-1], str(tmp_path / out)]


class TestTrain:
    def test_ensemble_file_and_metadata(self, trained_dir):
        ens = load_ensemble(trained_dir / "ensemble.jsonl", trained_dir / "metadata.json")
        assert len(ens) == 40
        assert ens.chain.config.burn_in_steps == 400 and ens.chain.config.s_max is not None
        assert 0.0 <= chain_diagnostics(ens)["acceptance"]["overall"] <= 1.0

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


class TestChainSchedule:
    """The chain schedule each command resolves through build_parser and _chain_config,
    no chain run: ChainConfig's defaults are the full-scale recipe; eval and compare
    default to the desk schedule unless --paper-scale; --burn-in and --collect win."""

    FULL = (ChainConfig.burn_in_steps, ChainConfig.collect_count)

    @staticmethod
    def config(*argv) -> ChainConfig:
        cmd, *flags = argv
        return _chain_config(build_parser().parse_args(
            [cmd, "--data", "d.csv", "--out-dir", "o", *flags]))

    @pytest.mark.parametrize("argv, schedule", [
        (["train"], FULL),
        (["eval"], (20_000, 1_000)),
        (["compare"], (20_000, 1_000)),
        (["eval", "--paper-scale"], FULL),
        (["compare", "--paper-scale"], FULL),
    ], ids=["train", "eval", "compare", "eval-paper-scale", "compare-paper-scale"])
    def test_default_schedule(self, argv, schedule):
        config = self.config(*argv)
        assert (config.burn_in_steps, config.collect_count) == schedule
        assert (config.thin, config.min_leaf) == (ChainConfig.thin, ChainConfig.min_leaf)

    @pytest.mark.parametrize("argv", [["train"], ["eval"], ["compare"],
                                      ["eval", "--paper-scale"], ["compare", "--paper-scale"]],
                             ids=["train", "eval", "compare", "eval-paper-scale",
                                  "compare-paper-scale"])
    def test_burn_in_and_collect_override(self, argv):
        default = self.config(*argv)
        burn = self.config(*argv, "--burn-in", "5")
        collect = self.config(*argv, "--collect", "6")
        assert (burn.burn_in_steps, burn.collect_count) == (5, default.collect_count)
        assert (collect.burn_in_steps, collect.collect_count) == (default.burn_in_steps, 6)
        both = self.config(*argv, "--burn-in", "0", "--collect", "1", "--thin", "2",
                           "--min-leaf", "4", "--s-max", "9", "--seed", "3")
        assert both == ChainConfig(0, 1, thin=2, min_leaf=4, s_max=9, seed=3)


class TestHelp:
    """Each of the six commands says what every option does, and its --help exits 0."""

    COMMANDS = ["synth", "train", "eval", "importance", "filter", "compare"]

    @staticmethod
    def parsers() -> dict:
        """Each command's parser, by name, as build_parser makes them."""
        sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        return sub.choices

    def test_commands(self):
        assert list(self.parsers()) == self.COMMANDS

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_option_has_help(self, command, capsys):
        options = self.parsers()[command]._actions[1:]  # after -h
        assert options and [a.option_strings for a in options if not a.help] == []
        with pytest.raises(SystemExit) as caught:
            build_parser().parse_args([command, "--help"])
        assert caught.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: treebma {command} ")


class TestEvalImportanceFilterCompare:
    def test_eval_writes_fold_report(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        rc = main(["eval", "--data", str(synth_dir / "data.csv"), "--folds", "3",
                   "--seed", "2", *FAST, "--out-dir", str(out)])
        assert rc == 0
        rows = list(csv.reader((out / "report.csv").open()))
        assert rows[0][0] == "fold"
        assert [r[0] for r in rows[1:4]] == ["0", "1", "2"]
        assert capsys.readouterr().out == (out / "report.txt").read_text() + "\n"

    def test_importance_normalized(self, trained_dir, tmp_path, capsys):
        out = tmp_path / "imp"
        rc = main(["importance", "--ensemble", str(trained_dir / "ensemble.jsonl"),
                   "--out-dir", str(out)])
        assert rc == 0
        rows = list(csv.reader((out / "importance.csv").open()))[1:]
        assert len(rows) == 16
        assert sum(float(r[2]) for r in rows) == pytest.approx(1.0, abs=1e-4)
        assert capsys.readouterr().out == (out / "importance.txt").read_text() + "\n"

    def test_filter_excludes_variable(self, synth_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "filt"
        rc = main(["filter", "--ensemble", str(trained_dir / "ensemble.jsonl"),
                   "--variable", "8", "--data", str(synth_dir / "data.csv"),
                   "--out-dir", str(out)])
        assert rc == 0
        kept = load_ensemble(out / "filtered_ensemble.jsonl")
        assert all(8 not in t.variables_used() for t in kept.trees)
        assert "excluded variable: 8" in (out / "report.txt").read_text()
        assert capsys.readouterr().out == (out / "report.txt").read_text() + "\n"

    def test_filter_copies_kept_lines(self, synth_dir, tmp_path):
        """filter copies each kept line as read, so a file re-indented into the whole-line
        layout keeps it: the output is the input's lines whose tree has no split on the
        variable, in order, byte for byte."""
        model = tmp_path / "model"
        assert main(["train", "--data", str(synth_dir / "data.csv"), "--seed", "1",
                     "--burn-in", "400", "--collect", "40", "--thin", "10", "--min-leaf", "8",
                     "--out-dir", str(model)]) == 0
        lines = [json.dumps(json.loads(line)) + "\n"
                 for line in (model / "ensemble.jsonl").read_text().splitlines()]
        (model / "ensemble.jsonl").write_text("".join(lines))
        used = [{node["split"]["var"] for node in json.loads(line)["nodes"] if "split" in node}
                for line in lines]
        var = min(set.union(*used) - set.intersection(*used))  # some trees split on it
        kept = [line for line, vs in zip(lines, used) if var not in vs]
        out = tmp_path / "filt"
        rc = main(["filter", "--ensemble", str(model / "ensemble.jsonl"), "--variable", str(var),
                   "--data", str(synth_dir / "data.csv"), "--out-dir", str(out)])
        assert rc == 0
        assert (out / "filtered_ensemble.jsonl").read_text() == "".join(kept)

    def test_filter_stacks_once(self, synth_dir, trained_dir, tmp_path, monkeypatch):
        """filter scores the original and the selected ensemble from one routing pass."""
        import treebma.bma
        calls = []
        stack = treebma.bma._stack
        monkeypatch.setattr(treebma.bma, "_stack", lambda *a: calls.append(a) or stack(*a))
        rc = main(["filter", "--ensemble", str(trained_dir / "ensemble.jsonl"),
                   "--variable", "8", "--data", str(synth_dir / "data.csv"),
                   "--out-dir", str(tmp_path / "filt")])
        assert rc == 0
        assert len(calls) == 1

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

    def test_compare_writes_all_arms(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = main(["compare", "--data", str(synth_dir / "data.csv"), "--folds", "3",
                   "--seed", "3", "--variable", "8", *FAST, "--out-dir", str(out)])
        assert rc == 0
        arms = {r[0] for r in list(csv.reader((out / "compare.csv").open()))[1:]}
        assert arms == {"all_vars", "dropped", "filtered", "dropped_noise"}
        assert (out / "importance.csv").exists()
        assert capsys.readouterr().out == (out / "compare.txt").read_text() + "\n"


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

    def test_compare_overflowing_noise(self, synth_dir, tmp_path, capsys):
        """Noise past the float range is the --noise value's fault, not the data's."""
        out = tmp_path / "cmp"
        rc = main(["compare", "--data", str(synth_dir / "data.csv"), "--noise", "1e308",
                   *FAST, "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: noise intensity 1e+308 takes values past the float range\n"
        assert not out.exists()

    @settings(max_examples=100, deadline=None)
    @given(command=st.sampled_from(["train", "compare"]),
           ints=st.fixed_dictionaries({}, optional={
               flag: st.integers(-3, 40) | st.integers(-2**70, 2**70)
               for flag in ("--seed", "--variable", "--min-leaf", "--s-max")}),
           noise=st.none() | st.floats() | st.floats(0, 0.5))
    @example(command="compare", ints={}, noise=1e308)
    def test_numeric_flags_end_in_exit_0_or_an_error_line(self, synth_dir, command, ints,
                                                           noise):
        """Any integer for --seed, --variable, --min-leaf and --s-max, and any float for
        --noise, ends in exit 0 or in exit 1 with one ``error:`` line, never a traceback."""
        flags = dict(ints)
        if command == "train":  # train has no --variable or --noise
            flags.pop("--variable", None)
        elif noise is not None:
            flags["--noise"] = noise
        argv = [command, "--data", str(synth_dir / "data.csv"), "--burn-in", "20",
                "--collect", "5", *(["--folds", "2"] if command == "compare" else []),
                *(f"{flag}={value!r}" for flag, value in flags.items())]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main([*argv, "--out-dir", str(Path(tmp) / "o")])
        assert (rc, err.getvalue()) == (0, "") or \
            rc == 1 and err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

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

    def test_cell_over_field_limit(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        schema = trauma_schema()
        big.write_text(",".join(schema.names + [schema.outcome]) + "\n"
                       + ",".join(["1" * 131_073] + ["0"] * 16) + "\n")
        rc = main(["train", "--data", str(big), *FAST, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"error: {big}: line 2: field larger than field limit" in err
        assert "Traceback" not in err

    def test_deeply_nested_schema(self, synth_dir, tmp_path, capsys):
        deep = tmp_path / "schema.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        rc = main(["train", "--data", str(synth_dir / "data.csv"), "--schema", str(deep),
                   *FAST, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: schema file is not valid JSON")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["synth", "train", "eval", "compare"])
    def test_negative_seed_names_flag(self, synth_dir, tmp_path, capsys, command):
        data = [] if command == "synth" else ["--data", str(synth_dir / "data.csv"), *FAST]
        rows = ["--rows", "50"] if command == "synth" else []
        rc = main([command, *rows, *data, "--seed", "-3", "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: --seed -3: expected a non-negative integer\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("irrelevant", ["x", "8,", "8;9"])
    def test_irrelevant_not_indices_names_flag(self, tmp_path, capsys, irrelevant):
        rc = main(["synth", "--rows", "50", "--irrelevant", irrelevant,
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: --irrelevant {irrelevant}: expected comma-separated variable indices\n"
        assert not (tmp_path / "o").exists()

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

    def test_importance_leaf_without_counts(self, tmp_path, capsys):
        """A leaf record without class counts is one error line naming path:line."""
        ens = tmp_path / "e.jsonl"
        ens.write_text(stump_line() + stump_line(right_leaf=None))
        rc = main(["importance", "--ensemble", str(ens), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: {ens}:2: leaf 2 counts None are not two non-negative integers\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, message", [
        (b"", "no tree records"),
        (b"\n \n\n", "no tree records"),
        (b"\xff\xfe{}\n", "not UTF-8 text (invalid start byte)"),
    ], ids=["empty", "blank-lines", "not-utf8"])
    def test_ensemble_without_a_tree_names_the_file(self, tmp_path, capsys, text, message):
        """A file with no tree line, or one that is not UTF-8 text, is a format error naming
        it, as every other fault of an ensemble file is."""
        ens = tmp_path / "e.jsonl"
        ens.write_bytes(text)
        rc = main(["importance", "--ensemble", str(ens), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {ens}: {message}\n"
        assert not (tmp_path / "o").exists()
        with pytest.raises(TreeFormatError):
            load_ensemble(ens)

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

    @pytest.mark.parametrize("command", ["filter", "importance"])
    @pytest.mark.parametrize("sidecar", [
        "[1,2]", '{"config": 3}', '{"config": {"dirichlet_alpha": "2"}}',
        '{"config": {"dirichlet_alpha": true}}', '{"config": {"dirichlet_alpha": NaN}}',
        '{"config": {"dirichlet_alpha": -1}}', "{not json", "[" * 100_000,
        record_text(old_layout), record_text(lambda doc: doc.pop("m")),
        record_text(lambda doc: doc.update(filtered_variable=8)),
        record_text(lambda doc: doc["config"].update(s_max=None)),
        record_text(lambda doc: doc["accepted"].update(birth=True)),
        record_text(lambda doc: doc["config"].update(dirichlet_alpha=float("inf"))),
    ], ids=["list", "config-int", "alpha-str", "alpha-bool", "alpha-nan", "alpha-negative",
            "not-json", "nested-too-deep", "old-layout", "missing-key", "unknown-key",
            "s-max-null", "bool-count", "alpha-infinity"])
    def test_malformed_metadata_sidecar(self, synth_dir, trained_dir, tmp_path, capsys,
                                        command, sidecar):
        """A metadata.json beside --ensemble that is not a JSON object with an object
        config and a finite positive alpha exits 1, naming the file."""
        model = tmp_path / "model"
        model.mkdir()
        (model / "ensemble.jsonl").write_bytes((trained_dir / "ensemble.jsonl").read_bytes())
        meta = model / "metadata.json"
        meta.write_text(sidecar)
        args = ["--variable", "8", "--data", str(synth_dir / "data.csv")] \
            if command == "filter" else []
        rc = main([command, "--ensemble", str(model / "ensemble.jsonl"), *args,
                   "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: metadata file {meta}")
        assert "Traceback" not in err

    def test_old_sidecar_names_its_keys(self, trained_dir, tmp_path, capsys):
        """A sidecar in the layout from before the chain record is refused, naming the
        keys it lacks and the keys the record does not have."""
        model = tmp_path / "model"
        model.mkdir()
        (model / "ensemble.jsonl").write_bytes((trained_dir / "ensemble.jsonl").read_bytes())
        (model / "metadata.json").write_text(record_text(old_layout))
        assert main(["importance", "--ensemble", str(model / "ensemble.jsonl"),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: metadata file {model / 'metadata.json'}: missing key 'proposed', "
            "missing key 'accepted', unknown key 'acceptance', unknown key 's_max', "
            "unknown key 'seed'\n")

    def test_alpha_is_never_assumed(self, synth_dir, trained_dir, tmp_path, capsys):
        """Without a metadata.json beside the ensemble, filter (which scores) exits 1 and
        leaves no --out-dir, while importance (which only counts) still runs."""
        model = tmp_path / "model"
        model.mkdir()
        (model / "ensemble.jsonl").write_bytes((trained_dir / "ensemble.jsonl").read_bytes())
        out = tmp_path / "o"
        rc = main(["filter", "--ensemble", str(model / "ensemble.jsonl"), "--variable", "8",
                   "--data", str(synth_dir / "data.csv"), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and not out.exists()
        assert err.startswith("error: the ensemble has no chain record (metadata.json)")
        assert main(["importance", "--ensemble", str(model / "ensemble.jsonl"),
                     "--out-dir", str(out)]) == 0

    @pytest.mark.parametrize("text, message", [
        (b'{"variables": []}', "error: schema document: missing key 'outcome' (in {path})"),
        (b'{"variables": [{"name": "a", "kind": "ordinal"}], "outcome": "y"}',
         "error: unknown variable kind 'ordinal' for 'a' (in {path})"),
        (b"\xff\xfe{}", "error: schema file {path} is not UTF-8 text: 'utf-8' codec can't "
                        "decode byte 0xff in position 0: invalid start byte"),
        (b'{"variables": [{"name": "a", "kind": "categorical", "levels": [0, 1.5]}], '
         b'"outcome": "y"}', "error: levels of 'a' are not integers of magnitude at most "
                             "2**53: (0, 1.5) (in {path})"),
    ], ids=["missing-key", "bad-kind", "not-utf8", "float-level"])
    def test_schema_error_names_file(self, synth_dir, tmp_path, capsys, text, message):
        schema = tmp_path / "schema.json"
        schema.write_bytes(text)
        rc = main(["train", "--data", str(synth_dir / "data.csv"), "--schema", str(schema),
                   *FAST, "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == message.format(path=schema) + "\n"

    @pytest.mark.parametrize("variable", [-1, 16])
    def test_filter_variable_outside_schema(self, synth_dir, trained_dir, tmp_path, capsys,
                                            variable):
        out = tmp_path / "o"
        rc = main(["filter", "--ensemble", str(trained_dir / "ensemble.jsonl"),
                   f"--variable={variable}", "--data", str(synth_dir / "data.csv"),
                   "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: variable index {variable} out of range [0, 16)\n"
        assert not (out / "report.txt").exists()

    def test_compare_variable_outside_schema_runs_no_chain(self, synth_dir, tmp_path, capsys,
                                                           monkeypatch):
        """compare checks --variable against the schema before any chain runs, with
        filter's message."""
        import treebma.analysis

        calls = []
        real_run_chain = treebma.analysis.run_chain
        monkeypatch.setattr(treebma.analysis, "run_chain",
                            lambda *a, **k: calls.append(a) or real_run_chain(*a, **k))
        out = tmp_path / "cmp"
        rc = main(["compare", "--data", str(synth_dir / "data.csv"), "--variable", "99",
                   *FAST, "--out-dir", str(out)])
        assert (rc, calls) == (1, [])
        assert capsys.readouterr().err == "error: variable index 99 out of range [0, 16)\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", [
        "synth-bad-irrelevant", "train-missing-data", "eval-one-fold",
        "importance-missing-ensemble", "filter-bad-variable", "compare-nan-noise"])
    def test_failed_command_leaves_no_out_dir(self, synth_dir, trained_dir, tmp_path, case):
        """Each of the six commands, given an input that fails to load or validate, exits
        1 or 2 and creates no --out-dir."""
        data = ["--data", str(synth_dir / "data.csv")]
        code, argv = {
            "synth-bad-irrelevant": (1, ["synth", "--rows", "50", "--irrelevant", "99"]),
            "train-missing-data": (2, ["train", "--data", str(tmp_path / "nope.csv"), *FAST]),
            "eval-one-fold": (1, ["eval", *data, "--folds", "1", *FAST]),
            "importance-missing-ensemble": (2, ["importance", "--ensemble",
                                                str(tmp_path / "nope.jsonl")]),
            "filter-bad-variable": (1, ["filter", "--ensemble",
                                        str(trained_dir / "ensemble.jsonl"),
                                        "--variable", "16", *data]),
            "compare-nan-noise": (1, ["compare", *data, "--noise", "nan", *FAST]),
        }[case]
        out = tmp_path / "o"
        assert main([*argv, "--out-dir", str(out)]) == code
        assert not out.exists()
