"""Tests of the benchmark itself.

Run from the repository root (kept out of the default test collection, so
the project's own suite does not grow by these runs):

    python3 -m pytest -q perfbench/selftest.py

Smoke runs shrink the chain schedules so each workload finishes in seconds;
the checks and the metric names are the same as in a full run.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import checks  # noqa: E402
import run  # noqa: E402

QUICK = {
    "TRAIN_CHAIN": ["--min-leaf", "3", "--burn-in", "300", "--collect", "20", "--thin", "7"],
    "COMPARE_CHAIN": ["--min-leaf", "25", "--s-max", "12", "--burn-in", "200",
                      "--collect", "20", "--thin", "3"],
    "POSTHOC_CHAIN": ["--min-leaf", "3", "--burn-in", "300", "--collect", "100", "--thin", "7"],
}


@pytest.fixture
def quick(monkeypatch, tmp_path):
    for name, value in QUICK.items():
        monkeypatch.setattr(run, name, value)
    monkeypatch.setattr(run, "ROOT", REPO)
    work = tmp_path / "work"
    monkeypatch.setattr(run, "WORK", work)
    run_dir = work / "run"
    run_dir.mkdir(parents=True)
    return run_dir


def declared(kind: str) -> dict[str, str]:
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_passes_checks_and_reports_declared_metrics(quick, workload, trace):
    result = run.measure(workload, seed=3, seconds=0, trace=trace, run_dir=quick)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    units = {name: unit for name, (_v, unit) in result["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")
    if not trace:
        assert all(v > 0 for v, _u in result["metrics"].values())


def test_corrupted_loglik_is_counted_as_failed(quick, monkeypatch):
    from treebma import cli

    real_save = cli.save_ensemble

    def save_with_wrong_loglik(ensemble, path, meta_path=None):
        real_save(ensemble, path, meta_path)
        lines = Path(path).read_text().splitlines()
        doc = json.loads(lines[0])
        doc["loglik"] += 0.5
        lines[0] = json.dumps(doc, separators=(",", ":"))
        Path(path).write_text("\n".join(lines) + "\n")

    monkeypatch.setattr(cli, "save_ensemble", save_with_wrong_loglik)
    result = run.measure("train", seed=3, seconds=0, trace=False, run_dir=quick)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - run.Train.setup_reps


def _records(tmp_path):
    from treebma import ChainConfig, run_chain, save_csv, synth_trauma
    from treebma.tree import serialize
    data = synth_trauma(60, 1, frozenset({8}))
    ens = run_chain(data, ChainConfig(burn_in_steps=300, collect_count=10, thin=3,
                                      min_leaf=3, seed=1))
    lines = [serialize(t, loglik=ll) for t, ll in zip(ens.trees, ens.logliks)]
    save_csv(data, tmp_path / "d.csv")
    X, y = run.read_csv(tmp_path / "d.csv")
    return lines, checks.TreeRecords(X, y, 1.0, 3)


def test_checks_accept_program_output_and_reject_tampering(tmp_path):
    lines, records = _records(tmp_path)
    assert checks.check_tree_lines(lines, records, len(lines)) == []
    assert checks.check_tree_lines(lines, records, len(lines) + 1)  # wrong tree count

    doc = json.loads(lines[-1])
    leaf = next(rec for rec in doc["nodes"] if "leaf" in rec)
    leaf["leaf"] = [leaf["leaf"][0] + 1, leaf["leaf"][1]]
    tampered = lines[:-1] + [json.dumps(doc, separators=(",", ":"))]
    fresh = checks.TreeRecords(records.X, records.y, 1.0, 3)
    assert any("stores" in p for p in checks.check_tree_lines(tampered, fresh, len(lines)))


def test_filter_check_rejects_a_kept_tree_using_the_variable():
    split = '{"nodes":[{"id":0,"split":{"var":8,"thr":1.0},"left":1,"right":2},' \
            '{"id":1,"leaf":[1,1]},{"id":2,"leaf":[1,1]}],"root":0,"loglik":-1.0}'
    stump = '{"nodes":[{"id":0,"leaf":[2,2]}],"root":0,"loglik":-1.0}'
    good = "trees omitted: 1 of 2"
    assert checks.check_filtered([split, stump], [stump], 8, good) == []
    assert checks.check_filtered([split, stump], [split, stump], 8, good)
    assert checks.check_filtered([split, stump], [stump], 8, "trees omitted: 0 of 2")


def test_exits_nonzero_without_result_when_program_sources_are_absent(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
