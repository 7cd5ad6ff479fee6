"""Alternating parent/change runs of the benchmark, summarised per metric.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
in N pairs: once in a copy of the parent and once in a copy of this checkout.
Odd pairs run the parent first, even pairs the change first, so drift of the
host falls on both sides alike. The parent is the committed tree of
``--parent`` (default ``HEAD~1``), unpacked by ``git archive``; the change is
the working tree's tracked files. Both are unpacked into sibling directories
of one temporary directory, removed again on exit, so the two sides differ in
nothing but their files. ``--workload`` takes a comma-separated list; each
workload runs its pairs in turn against the same two copies.

    python3 tools/bench_pairs.py --workload train,compare,posthoc --seed 1 --pairs 10 \
        --out BENCH.json

Per workload, each side's median, quartiles and the pair wins of every
end-to-end metric of ``BENCHMARK.json`` are printed, with the two rules a
result is judged by (see :func:`verdict`): ``claimable`` and ``regressed``.
``--out`` merges the runs
into that file's ``runs`` block under ``<workload>/seed<seed>``, as
``{"parent": [...], "change": [...]}`` lists of the benchmark's result objects
with their pair number.
"""
from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def summarize(parent: list[dict], change: list[dict], metric: str, better: str) -> dict:
    """Median and quartiles of ``metric`` per side, and the pairs the change won.

    ``parent`` and ``change`` are benchmark result objects, each with its
    ``pair`` number and ``metrics[metric]["value"]``; pairs are matched by
    number. ``resolved`` is true when the medians differ, in the ``better``
    direction ("lower" or "higher"), by more than the parent's interquartile
    distance.
    """
    sides = {}
    for side, results in (("parent", parent), ("change", change)):
        values = [r["metrics"][metric]["value"] for r in results]
        q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
        sides[side] = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
    sign = 1.0 if better == "lower" else -1.0
    by_pair = {r["pair"]: r["metrics"][metric]["value"] for r in parent}
    matched = [(by_pair[r["pair"]], r["metrics"][metric]["value"])
               for r in change if r["pair"] in by_pair]
    wins = sum(sign * (p - c) > 0 for p, c in matched)
    gain = sign * (sides["parent"]["median"] - sides["change"]["median"])
    iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
    return {**sides, "wins": wins, "pairs": len(matched),
            "gain_pct": 100.0 * gain / sides["parent"]["median"],
            "resolved": gain > iqr}


def verdict(summary: dict, bound: float) -> dict:
    """The two rules applied to one metric's :func:`summarize` result: ``claimable`` when
    the change won at least 9 of 10 pairs and its gain is ``resolved``; ``regressed`` when
    its median is worse than the parent's by more than ``bound``, the metric's fraction of
    the parent's median in ``BENCHMARK.json``."""
    return {"claimable": summary["resolved"] and 10 * summary["wins"] >= 9 * summary["pairs"],
            "regressed": summary["gain_pct"] < -100.0 * bound}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def workloads(text: str) -> list[str]:
    """``--workload``'s comma-separated names, each a workload of ``BENCHMARK.json``."""
    known = [w["name"] for w in SPEC["workloads"]]
    names = [name.strip() for name in text.split(",")]
    for name in names:
        if name not in known:
            raise argparse.ArgumentTypeError(f"unknown workload {name!r}; expected one of "
                                             + ", ".join(known))
    if len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"workload named twice in {text!r}")
    return names


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", type=workloads, required=True,
                    help="comma-separated workloads, run one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--parent", default="HEAD~1", help="git ref of the parent")
    ap.add_argument("--out", default=None, help="JSON file whose runs block is updated")
    return ap.parse_args(argv)


def unpack(parent: str, tmp: Path, root: Path = ROOT) -> dict[str, Path]:
    """The committed tree of ``parent`` and the working tree's tracked files of the
    repository at ``root``, unpacked into ``tmp / "parent"`` and ``tmp / "change"``.
    A tracked file deleted from the working tree is left out of the change."""
    dirs = {"parent": tmp / "parent", "change": tmp / "change"}
    archive = subprocess.run(["git", "archive", "--format=tar", parent], cwd=root,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dirs["parent"], filter="data")
    tracked = subprocess.run(["git", "ls-files", "-z"], cwd=root, check=True,
                             capture_output=True).stdout.decode().split("\0")
    for name in filter(None, tracked):
        if (root / name).is_file():
            (dirs["change"] / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dirs["change"] / name)
    return dirs


def run_pairs(dirs: dict[str, Path], workload: str, seed: int, pairs: int,
              seconds: float) -> dict[str, list[dict]]:
    """``pairs`` alternating parent/change runs of one workload, each side in its
    directory of ``dirs`` (see :func:`unpack`)."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(1, pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            result = run_once(dirs[side], workload, seed, seconds)
            runs[side].append({"pair": pair, **result})
            value = result["metrics"]["wall_ref"]["value"]
            print(f"{workload} pair {pair} {side}: wall_ref {value:.3f}, "
                  f"failed {result['failed']}", file=sys.stderr)
    return runs


def report(workload: str, runs: dict[str, list[dict]]) -> None:
    print(f"{workload}:")
    for m in SPEC["end_to_end"]:
        s = summarize(runs["parent"], runs["change"], m["name"], m["better"])
        v = verdict(s, m["bound"])
        print(f"  {m['name']:14s} parent {s['parent']['median']:.4g} "
              f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}]  "
              f"change {s['change']['median']:.4g} "
              f"[{s['change']['q1']:.4g}, {s['change']['q3']:.4g}]  "
              f"wins {s['wins']}/{s['pairs']}  gain {s['gain_pct']:+.1f} %  "
              f"resolved {s['resolved']}  claimable {v['claimable']}  "
              f"regressed {v['regressed']}")
    print(f"  failed: parent {sum(r['failed'] for r in runs['parent'])}, "
          f"change {sum(r['failed'] for r in runs['change'])}")


def main(argv=None) -> int:
    args = parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        dirs = unpack(args.parent, tmp)
        for workload in args.workload:
            runs = run_pairs(dirs, workload, args.seed, args.pairs, args.seconds)
            report(workload, runs)
            if args.out:  # after each workload, so a later one's failure keeps these runs
                out = Path(args.out)
                doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
                doc.setdefault("runs", {})[f"{workload}/seed{args.seed}"] = runs
                out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
