"""The summary of alternating parent/change benchmark runs and the tool's arguments (no
benchmark is run)."""
import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def summarize(tool):
    return tool.summarize


def results(values, metric="wall_ref", pairs=None):
    return [{"pair": p, "failed": 0, "metrics": {metric: {"value": v, "unit": "ref"}}}
            for p, v in zip(pairs or range(1, len(values) + 1), values)]


def test_lower_is_better(summarize):
    parent = results([10.0, 11.0, 12.0, 13.0, 14.0])
    change = results([9.0, 11.5, 8.0, 8.5, 9.5])
    s = summarize(parent, change, "wall_ref", "lower")
    assert s["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0, "n": 5}
    assert s["change"]["median"] == 9.0
    assert (s["wins"], s["pairs"]) == (4, 5)  # pair 2 is lost: 11.5 > 11.0
    assert s["gain_pct"] == pytest.approx(25.0)
    assert s["resolved"]  # 12 - 9 = 3 exceeds the parent's quartile distance 2


def test_higher_is_better_and_unresolved(summarize):
    parent = results([100.0, 200.0, 300.0], "steps_per_ref")
    change = results([150.0, 190.0, 310.0], "steps_per_ref")
    s = summarize(parent, change, "steps_per_ref", "higher")
    assert (s["wins"], s["pairs"]) == (2, 3)
    assert s["gain_pct"] == pytest.approx(-5.0)
    assert not s["resolved"]


def test_pairs_matched_by_number(summarize):
    parent = results([5.0, 6.0, 7.0], pairs=[1, 2, 3])
    change = results([6.5, 4.0], pairs=[3, 1])  # pair 2 of the change is missing
    s = summarize(parent, change, "wall_ref", "lower")
    assert (s["wins"], s["pairs"]) == (2, 2)
    assert s["change"]["n"] == 2


@pytest.mark.parametrize("changes, claimable", [
    ([9.0] * 9 + [13.0], True),       # 9 of 10 pairs won, medians 9 against 11.5
    ([9.0] * 8 + [13.0] * 2, False),  # 8 of 10 won
    ([10.9] * 10, False),             # 10 of 10 won, but a gain of 0.6 < quartile distance 1
], ids=["nine-of-ten", "eight-of-ten", "unresolved"])
def test_claimable_needs_nine_of_ten_and_resolved(tool, summarize, changes, claimable):
    parent = results([11.0, 11.5, 12.0, 11.5, 11.0, 12.0, 11.5, 11.0, 12.0, 11.5])
    s = summarize(parent, results(changes), "wall_ref", "lower")
    assert tool.verdict(s, 0.25) == {"claimable": claimable, "regressed": False}


@pytest.mark.parametrize("better, change, regressed", [
    ("lower", 12.4, False), ("lower", 12.6, True),     # parent median 10, bound 25 %
    ("higher", 7.6, False), ("higher", 7.4, True),
], ids=["lower-inside", "lower-past", "higher-inside", "higher-past"])
def test_regressed_past_the_metric_bound(tool, summarize, better, change, regressed):
    s = summarize(results([9.0, 10.0, 11.0]), results([change] * 3), "wall_ref", better)
    assert tool.verdict(s, 0.25) == {"claimable": False, "regressed": regressed}


def test_report_prints_both_rules_per_metric(tool, capsys):
    """Each end-to-end metric of BENCHMARK.json is judged against its own bound: a 19 %
    rise in peak_rss_mb (bound 10 %) regresses, the same rise in wall_ref (25 %) does not."""
    def side(scale):
        return [{"pair": p, "failed": 0, "metrics": {
            m["name"]: {"value": (1.2 if m["name"] in ("wall_ref", "peak_rss_mb") else 1.0)
                        * scale + 0.01 * p} for m in tool.SPEC["end_to_end"]}}
            for p in range(1, 11)]
    tool.report("train", {"parent": side(1.0 / 1.2), "change": side(1.0)})
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[1:-1]}
    assert sorted(lines) == sorted(m["name"] for m in tool.SPEC["end_to_end"])
    assert lines["peak_rss_mb"].endswith("claimable False  regressed True")
    assert lines["wall_ref"].endswith("claimable False  regressed False")


def test_workload_list_split(tool):
    args = tool.parse_args(["--workload", "train,compare, posthoc", "--seed", "3"])
    assert args.workload == ["train", "compare", "posthoc"]
    assert (args.seed, args.pairs, args.parent) == (3, 10, "HEAD~1")
    assert tool.parse_args(["--workload", "compare", "--seed", "1"]).workload == ["compare"]


@pytest.mark.parametrize("text", ["train,", "train,nope", "train,train", ""])
def test_workload_list_rejects(tool, capsys, text):
    with pytest.raises(SystemExit) as exc:
        tool.parse_args(["--workload", text, "--seed", "1"])
    assert exc.value.code == 2
    assert "--workload" in capsys.readouterr().err


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                   check=True, capture_output=True)


def test_both_sides_run_from_equal_depth_copies(tool, tmp_path, monkeypatch):
    """The parent's commit and the working tree's tracked files are unpacked into sibling
    directories, and each side's runs start there, never in the repository itself."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text("parent\n")
    (repo / "gone.txt").write_text("tracked, then deleted\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "parent")
    (repo / "perfbench" / "run.py").write_text("change\n")
    (repo / "gone.txt").unlink()
    (repo / "untracked.txt").write_text("not part of the change\n")
    (repo / "perfbench" / "__pycache__").mkdir()
    (repo / "perfbench" / "__pycache__" / "run.pyc").write_bytes(b"\0")

    dirs = tool.unpack("HEAD", tmp_path / "bench", root=repo)
    assert dirs["parent"].parent == dirs["change"].parent == tmp_path / "bench"
    assert (dirs["parent"] / "perfbench" / "run.py").read_text() == "parent\n"
    assert (dirs["parent"] / "gone.txt").exists()
    files = sorted(p.relative_to(dirs["change"]).as_posix()
                   for p in dirs["change"].rglob("*") if p.is_file())
    assert files == ["perfbench/run.py"]
    assert (dirs["change"] / "perfbench" / "run.py").read_text() == "change\n"

    ran = []
    monkeypatch.setattr(tool, "run_once", lambda checkout, *rest: ran.append(checkout) or {
        "failed": 0, "metrics": {"wall_ref": {"value": 1.0}}})
    tool.run_pairs(dirs, "train", 1, 2, 1.0)
    assert ran == [dirs["parent"], dirs["change"], dirs["change"], dirs["parent"]]
    assert len({len(p.parts) for p in ran}) == 1
