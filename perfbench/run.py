"""treebma benchmark: three workloads driven in-process through ``treebma.cli.main``.

Run from the root of a source checkout (the program is imported from
``./src``; nothing is installed):

    python3 perfbench/run.py --workload train --seed 1 --seconds 35 --trace 0

Workloads (inputs are ``synth_trauma(316, seed, {8})`` written to CSV, the
paper's 316-row, 16-variable shape):

* ``train``   one ``treebma train`` chain at ``--min-leaf 3``: large trees
  (up to 21 leaves), so partition and change moves dominate; writes an
  ensemble (the write path).  One chain, so chain-level parallelism cannot help.
* ``compare`` ``treebma compare`` in demo 03's shape (``--min-leaf 25
  --s-max 12``, 5 folds): 15 short chains of small trees, where the fixed cost
  per step outweighs partitioning, plus evaluation, filtering and importance.
  The weakest variable is left to the program (argmin of pooled importance):
  with ``--variable 8``, some chain seeds put variable 8 in every tree of a
  fold, and compare then stops with "nothing kept".
* ``posthoc`` ``treebma importance`` then ``treebma filter --variable 8`` on
  an ensemble of 2,000 trees of at most 16 leaves, built during set-up by a
  seeded chain at thin 7: the read path (deserialize, tree validation,
  prediction, filtering, save).

Each workload repeats its operation until ``--seconds`` have passed, with
chain seeds cycling through four values so that every repeat of a seed must
reproduce the same bytes.  Every output is checked (see ``checks.py``);
an operation with any failed check counts in ``failed``.

``--trace 0`` prints the end-to-end metrics: operation time and chain speed
in units of a reference computation timed around each operation (a shared
host's speed can drift by 2x over minutes; see :func:`reference_seconds`), set-up
time in seconds, and peak memory.  ``--trace 1`` alternates
untraced and traced operations: the traced ones run with timing wrappers
(``tracing.py``) at every layer boundary and give the per-layer metrics, and
the pair gives the tracing overhead.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from math import lgamma
from pathlib import Path

import numpy as np

from checks import (EnsembleSummary, TreeRecords, check_filtered, check_importance_csv,
                    check_probabilities, check_tree_lines)
from tracing import MOVES, OUTCOMES, Probe, Tracer, span_cost_us

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

ROWS = 316
WEAK = 8          # the planted irrelevant variable; posthoc filters it out
FOLDS = 5
MIN_OPS = 3       # per run, whatever --seconds says, so a median exists
SLOTS = 4         # chain seeds per run; a run's median spans several trajectories

# Chain schedules.  compare keeps demo 03's tree shape but a shorter schedule
# than its 20k/800, so one operation takes seconds, not a minute; posthoc's
# set-up chain yields "thousands of trees" at thin 7.  Uncapped chains at
# min_leaf 3 ended at anything from 16 to 33 leaves, by data seed and chain
# seed, and time per step and per tree grows with the tree; so train is capped
# at 21 leaves (about 19 on average) and posthoc at 16, to measure
# the program rather than the trajectory a seed happens to take.
TRAIN_CHAIN = ["--min-leaf", "3", "--s-max", "20", "--burn-in", "10000",
               "--collect", "300", "--thin", "7"]
COMPARE_CHAIN = ["--min-leaf", "25", "--s-max", "12", "--burn-in", "1500",
                 "--collect", "200", "--thin", "3"]
POSTHOC_CHAIN = ["--min-leaf", "3", "--s-max", "15", "--burn-in", "4000",
                 "--collect", "2000", "--thin", "7"]


def flag(argv: list[str], name: str) -> int:
    """The integer value of ``name`` in a CLI argument list."""
    return int(argv[argv.index(name) + 1])


def derived(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The benchmark's own reading of a dataset CSV: features, then the label last."""
    a = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return a[:, :-1], a[:, -1].astype(np.int64)


class Op:
    """One timed operation: its wall time, chain time and steps, and its failures.

    ``ref`` is the reference computation's time around the operation (see
    :func:`reference_seconds`), the unit of the ``*_ref`` metrics.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.ref = 0.0
        self.wall = 0.0
        self.chain_s = 0.0
        self.steps = 0
        self.problems: list[str] = []
        self.ensemble_bytes = 0


class Bench:
    """State shared by the workloads: the program, probes, counters and outputs."""

    def __init__(self, seed: int, run_dir: Path, trace: bool):
        from treebma import cli
        self.cli = cli
        self.seed = seed
        self.dir = run_dir
        self.probe = Probe()
        self.tracer = Tracer() if trace else None
        self.summary = EnsembleSummary()
        self.digests: dict[object, str] = {}
        self.setup_ops: list[Op] = []
        self.heldout_accuracy = None

    def cli_call(self, argv: list[str], op: Op) -> int:
        """Run ``treebma <argv>`` in this process, output discarded; time it into ``op``."""
        self.probe.reset()
        tracer = self.tracer if op.traced else None
        out = io.StringIO()
        saved_argv = sys.argv
        sys.argv = ["treebma", *argv]
        if tracer is not None:
            tracer.install()
        try:
            with contextlib.redirect_stdout(out):
                t0 = time.perf_counter()
                try:
                    code = tracer.call("cli.main", self.cli.main, argv) if tracer \
                        else self.cli.main(argv)
                except SystemExit as e:
                    code = e.code if isinstance(e.code, int) else 1
                op.wall += time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.restore()
            sys.argv = saved_argv
        for _data, config, _ens, seconds in self.probe.chains:
            op.chain_s += seconds
            op.steps += config.burn_in_steps + config.collect_count * config.thin
        if code != 0:
            op.problems.append(f"treebma {argv[0]} exited with {code}")
        return code

    def same_bytes(self, key, data: bytes, what: str, op: Op):
        """Outputs made from the same seed must be byte-identical."""
        digest = sha256(data)
        if self.digests.setdefault(key, digest) != digest:
            op.problems.append(f"{what}: same seed, different bytes")

    def make_inputs(self, rep: int, op: Op) -> Path:
        """One set-up repetition's input generation: the seeded CSV, and a cold import."""
        from treebma import save_csv, synth_trauma
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import treebma.cli"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        path = self.dir / f"input{rep}" / "data.csv"
        path.parent.mkdir(parents=True)
        save_csv(synth_trauma(ROWS, self.seed, frozenset({WEAK})), path)
        op.wall += time.perf_counter() - t0
        self.same_bytes("input", path.read_bytes(), "input CSV", op)
        return path

    def heldout(self):
        """A second seeded dataset from the same generator, for held-out accuracy."""
        from treebma import synth_trauma
        return synth_trauma(ROWS, derived(self.seed, 99), frozenset({WEAK}))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Train:
    setup_reps = 5

    def __init__(self, bench: Bench):
        self.b = bench
        self.records = None

    def setup(self, rep: int, op: Op):
        self.data = self.b.make_inputs(rep, op)
        X, y = read_csv(self.data)
        self.records = TreeRecords(X, y, alpha=1.0, min_leaf=flag(TRAIN_CHAIN, "--min-leaf"))

    def run(self, i: int, slot: int, op: Op):
        out = self.b.dir / f"op{i}"
        code = self.b.cli_call(["train", "--data", str(self.data),
                                   "--seed", str(derived(self.b.seed, 1, slot)),
                                   *TRAIN_CHAIN, "--out-dir", str(out)], op)
        if code == 0:
            raw = (out / "ensemble.jsonl").read_bytes()
            self.b.same_bytes(("train", slot), raw, "ensemble.jsonl", op)
            summary = EnsembleSummary()
            op.problems += check_tree_lines(raw.decode("utf-8").splitlines(), self.records,
                                            flag(TRAIN_CHAIN, "--collect"), summary)
            op.ensemble_bytes += summary.bytes
            self.b.summary.add(summary)
            if self.b.heldout_accuracy is None and self.b.tracer is not None:
                from treebma import evaluate, load_ensemble
                ens = load_ensemble(out / "ensemble.jsonl", out / "metadata.json")
                self.b.heldout_accuracy = evaluate(ens, self.b.heldout()).performance_pct
        shutil.rmtree(out, ignore_errors=True)


class Compare:
    setup_reps = 5

    def __init__(self, bench: Bench):
        self.b = bench
        self.records: dict[str, TreeRecords] = {}

    def setup(self, rep: int, op: Op):
        self.data = self.b.make_inputs(rep, op)

    def records_for(self, data, min_leaf: int, alpha: float) -> TreeRecords:
        key = sha256(data.X.tobytes() + data.y.tobytes())
        if key not in self.records:
            self.records[key] = TreeRecords(data.X, data.y, alpha, min_leaf)
        return self.records[key]

    def run(self, i: int, slot: int, op: Op):
        from treebma.analysis import ARMS
        from treebma.tree import serialize
        out = self.b.dir / f"op{i}"
        code = self.b.cli_call(["compare", "--data", str(self.data),
                                   "--seed", str(derived(self.b.seed, 2, slot)),
                                   "--folds", str(FOLDS), *COMPARE_CHAIN,
                                   "--out-dir", str(out)], op)
        chains, reports = list(self.b.probe.chains), list(self.b.probe.reports)
        if code == 0:
            csv_text = (out / "compare.csv").read_text(encoding="utf-8")
            op.problems += self.check_csv(csv_text, chains, reports[-1].weakest, ARMS)
            for report in reports:
                for arm_reports in report.reports.values():
                    for r in arm_reports:
                        op.problems += check_probabilities(r.per_point)
            blob = [csv_text]
            if len(chains) != 3 * FOLDS:
                op.problems.append(f"{len(chains)} chains ran, expected {3 * FOLDS}")
            summary = EnsembleSummary()
            for data, config, ens, _ in chains:
                lines = [serialize(t, loglik=ll) for t, ll in zip(ens.trees, ens.logliks)]
                records = self.records_for(data, config.min_leaf, config.dirichlet_alpha)
                op.problems += check_tree_lines(lines, records, config.collect_count, summary)
                blob.extend(lines)
            op.ensemble_bytes += summary.bytes
            self.b.summary.add(summary)
            self.b.same_bytes(("compare", slot), "\n".join(blob).encode(), "compare outputs", op)
            if self.b.heldout_accuracy is None and reports:
                perf = [r.performance_pct for r in reports[-1].reports["all_vars"]]
                self.b.heldout_accuracy = float(np.mean(perf))
        shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def check_csv(text: str, chains, weakest: int, arms) -> list[str]:
        """4 arms x k folds; the weakest variable and the omitted counts match our own."""
        rows = [r.split(",") for r in text.strip().splitlines()[1:]]
        got = sorted((r[0], int(r[1])) for r in rows)
        want = sorted((a, f) for a in arms for f in range(FOLDS))
        if len(arms) != 4 or got != want:
            return [f"compare.csv rows {got} are not 4 arms x {FOLDS} folds"]
        # arm (a) chains see all 16 variables; arms (b) and (d) see 15
        full = [ens for data, _, ens, _ in chains if data.m == 16]
        pooled = np.zeros(16)
        for ens in full:
            counts = np.bincount([v for t in ens.trees for v in t.variables_used()],
                                 minlength=16)
            pooled += counts / counts.sum()
        if weakest != int(np.argmin(pooled)):
            return [f"weakest variable {weakest}, pooled importance argmin "
                    f"{int(np.argmin(pooled))}"]
        own = [sum(weakest in t.variables_used() for t in ens.trees) for ens in full]
        claimed = [int(r[5]) for r in rows if r[0] == "filtered"]
        if own != claimed:
            return [f"filtered arm omits {claimed} trees per fold, counted {own}"]
        return []


class Posthoc:
    setup_reps = 5  # each builds the 2,000-tree ensemble again

    def __init__(self, bench: Bench):
        self.b = bench

    def setup(self, rep: int, op: Op):
        self.data = self.b.make_inputs(rep, op)
        out = self.b.dir / f"setup{rep}"
        code = self.b.cli_call(["train", "--data", str(self.data),
                                   "--seed", str(derived(self.b.seed, 3)),
                                   *POSTHOC_CHAIN, "--out-dir", str(out)], op)
        if code != 0:
            return
        X, y = read_csv(self.data)
        self.ensemble = out / "ensemble.jsonl"
        self.summary = EnsembleSummary()
        raw = self.ensemble.read_bytes()
        self.b.same_bytes("posthoc-ensemble", raw, "set-up ensemble", op)
        self.lines = raw.decode("utf-8").splitlines()
        records = TreeRecords(X, y, alpha=1.0, min_leaf=flag(POSTHOC_CHAIN, "--min-leaf"))
        op.problems += check_tree_lines(self.lines, records, flag(POSTHOC_CHAIN, "--collect"),
                                        self.summary)

    def run(self, i: int, slot: int, op: Op):
        out = self.b.dir / f"op{i}"
        ens = str(self.ensemble)
        code_i = self.b.cli_call(["importance", "--ensemble", ens,
                                     "--out-dir", str(out / "imp")], op)
        code_f = self.b.cli_call(["filter", "--ensemble", ens, "--variable", str(WEAK),
                                     "--data", str(self.data), "--out-dir", str(out / "filt")],
                                    op)
        op.ensemble_bytes += self.summary.bytes
        self.b.summary.add(self.summary)
        if code_i == 0:
            text = (out / "imp" / "importance.csv").read_text(encoding="utf-8")
            op.problems += check_importance_csv(text, self.summary, 16)
            self.b.same_bytes("importance", text.encode(), "importance.csv", op)
        if code_f == 0:
            raw = (out / "filt" / "filtered_ensemble.jsonl").read_bytes()
            report = (out / "filt" / "report.txt").read_text(encoding="utf-8")
            op.problems += check_filtered(self.lines, raw.decode("utf-8").splitlines(),
                                          WEAK, report)
            self.b.same_bytes("filtered", raw, "filtered ensemble", op)
        if self.b.heldout_accuracy is None and self.b.tracer is not None:
            from treebma import evaluate, load_ensemble
            self.b.heldout_accuracy = evaluate(load_ensemble(ens), self.b.heldout()) \
                .performance_pct
        shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {"train": Train, "compare": Compare, "posthoc": Posthoc}


# ---------------------------------------------------------------------------
# Measurement and metrics
# ---------------------------------------------------------------------------

def guarded(fn, op: Op, *args):
    """Run one operation; an exception fails the operation, not the benchmark."""
    try:
        fn(*args, op)
    except Exception:  # the run goes on and reports the failure
        op.problems.append(traceback.format_exc(limit=4).strip().replace("\n", " | "))


_REF_X = np.random.default_rng(12345).random((ROWS, 16))
_REF_ROWS = np.arange(ROWS)


def reference_seconds() -> float:
    """Time of a fixed computation that does not use the program.

    A shared 2-core virtual machine (see ``BASELINE.json``) was measured
    changing speed by up to 2x over minutes, so the end-to-end times are given
    in units of this computation, timed just before and after each
    operation: the host's speed cancels out, a change in the program does not.  Its mix
    resembles a chain step: row masks over a 316 x 16 array, small dicts and
    tuples, ``lgamma``.
    """
    t0 = time.perf_counter()
    memo = {}
    acc = 0.0
    for i in range(4000):
        rows = _REF_ROWS[_REF_X[_REF_ROWS, i % 16] <= 0.5]
        memo[i % 97] = (i, rows.size)
        acc += lgamma(rows.size + 1.0)
    return time.perf_counter() - t0


def referenced(fn, op: Op, *args):
    """Run ``guarded(fn, op, *args)`` between two timings of the reference."""
    before = reference_seconds()
    guarded(fn, op, *args)
    op.ref = (before + reference_seconds()) / 2


def setup(wl, bench: Bench, rep: int):
    op = Op(traced=False)
    referenced(wl.setup, op, rep)
    bench.setup_ops.append(op)


def measure(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    bench = Bench(seed, run_dir, trace)
    wl = WORKLOADS[workload](bench)
    bench.probe.install()
    try:
        setup(wl, bench, 0)
        if bench.setup_ops[0].problems:
            raise RuntimeError(f"set-up failed: {bench.setup_ops[0].problems[:3]}")
        # The other set-up repetitions are spread over the measured window, so
        # that setup_s samples the same machine conditions as the operations.
        ops: list[Op] = []
        t0 = time.perf_counter()
        i = 0
        while time.perf_counter() - t0 < seconds or i < (2 * MIN_OPS if trace else MIN_OPS):
            rep = len(bench.setup_ops)
            if rep < wl.setup_reps and time.perf_counter() - t0 >= rep * seconds / wl.setup_reps:
                setup(wl, bench, rep)
            # chain seeds cycle through SLOTS values; a traced run pairs each
            # untraced operation with a traced one on the same seed
            op = Op(traced=trace and i % 2 == 1)
            if bench.tracer is not None:
                bench.tracer.op = i
            referenced(wl.run, op, i, (i // 2) % SLOTS if trace else i % SLOTS)
            ops.append(op)
            i += 1
        while len(bench.setup_ops) < wl.setup_reps:
            setup(wl, bench, len(bench.setup_ops))
    finally:
        bench.probe.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = [op for op in bench.setup_ops + ops if op.problems]
    for op in failed:
        for p in op.problems[:5]:
            print(f"FAILED: {p}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(bench.setup_ops) + len(ops),
        "failed": len(failed),
    }
    if trace:
        result["metrics"] = layer_metrics(bench, ops)
        write_trace(bench.tracer, WORK / f"trace-{workload}-seed{seed}.json")
    else:
        result["metrics"] = end_to_end_metrics(bench, ops, peak_rss_mb)
        for name, (value, unit) in seconds_metrics(bench, ops).items():
            print(f"{name:36s} {value:14.6g} {unit}  (not gated)", file=sys.stderr)
    if bench.tracer is not None and bench.tracer.sites.missing:
        print(f"note: trace sites not found: {bench.tracer.sites.missing}", file=sys.stderr)
    return result


def chain_ops(bench: Bench, ops: list[Op]) -> list[Op]:
    """Operations that ran chains; on posthoc only its set-up does."""
    return [op for op in ops if op.chain_s > 0] or \
        [op for op in bench.setup_ops if op.chain_s > 0]


def end_to_end_metrics(bench: Bench, ops: list[Op], peak_rss_mb: float) -> dict:
    chains = chain_ops(bench, ops)
    return {
        "wall_ref": (statistics.median(op.wall / op.ref for op in ops), "ref"),
        "steps_per_ref": (statistics.median(op.steps / op.chain_s * op.ref for op in chains),
                          "1/ref"),
        "setup_s": (statistics.median(op.wall for op in bench.setup_ops), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def seconds_metrics(bench: Bench, ops: list[Op]) -> dict:
    """The same operations in plain seconds, for reading beside the ``*_ref`` metrics."""
    return {
        "run.wall_s": (statistics.median(op.wall for op in ops), "s"),
        "run.steps_per_s": (statistics.median(op.steps / op.chain_s
                                              for op in chain_ops(bench, ops)), "1/s"),
        "run.reference_ms": (statistics.median(op.ref for op in ops) * 1e3, "ms"),
    }


def _median_us(samples) -> float:
    return statistics.median(samples) * 1e6 if len(samples) else 0.0


def layer_metrics(bench: Bench, ops: list[Op]) -> dict:
    tr = bench.tracer
    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    n = len(traced)

    def per_op(x):
        return x / n

    def mean_us(name):
        calls = tr.calls(name)
        return tr.total(name) / calls * 1e6 if calls else 0.0

    m: dict[str, tuple[float, str]] = {}
    steps = tr.samples["sampler.mh_step"]
    m["sampler.mh_step.calls"] = (per_op(tr.calls("sampler.mh_step")), "count/op")
    m["sampler.mh_step.p50_us"] = (_median_us(steps), "us")
    m["sampler.mh_step.p99_us"] = (
        float(np.percentile(np.frombuffer(steps), 99)) * 1e6 if len(steps) else 0.0, "us")
    for mv in MOVES:
        m[f"sampler.propose.{mv}.us"] = (_median_us(tr.samples[f"sampler.propose.{mv}"]), "us")
    mh_calls = tr.calls("sampler.mh_step")
    m["sampler.step_overhead.us"] = (
        tr.self_time("sampler.mh_step") / mh_calls * 1e6 if mh_calls else 0.0, "us")
    m["sampler.snapshot.us"] = (_median_us(tr.samples["sampler.snapshot"]), "us")
    m["sampler.init_chain.ms"] = (mean_us("sampler.init_chain") / 1e3, "ms")
    for mv in MOVES:
        counts = tr.moves[mv]
        for outcome in OUTCOMES:
            m[f"sampler.{mv}.{outcome}"] = (per_op(counts[outcome]), "count/op")
        m[f"sampler.{mv}.accept_ratio"] = (
            counts["accepted"] / counts["proposed"] if counts["proposed"] else 0.0, "ratio")
    s = bench.summary
    m["sampler.mean_leaves"] = (s.leaves / s.trees if s.trees else 0.0, "leaves")

    for name in ("DecisionTree", "leaf_log_marginal"):
        m[f"tree.{name}.calls"] = (per_op(tr.calls(f"tree.{name}")), "count/op")
        m[f"tree.{name}.us"] = (mean_us(f"tree.{name}"), "us")
    for name in ("serialize", "deserialize", "leaf_rows"):
        m[f"tree.{name}.us"] = (_median_us(tr.samples[f"tree.{name}"]), "us")

    for name in ("save_ensemble", "load_ensemble", "predict_batch", "evaluate"):
        m[f"bma.{name}.ms"] = (mean_us(f"bma.{name}") / 1e3, "ms")
    m["bma.ensemble_bytes"] = (statistics.median(op.ensemble_bytes for op in ops), "bytes")
    m["bma.distinct_run_share"] = (s.runs / s.trees if s.trees else 0.0, "ratio")

    for name in ("variable_importance", "filter_ensemble"):
        m[f"analysis.{name}.ms"] = (mean_us(f"analysis.{name}") / 1e3, "ms")
    cli_total = tr.total("cli.main")
    m["analysis.run_chain_share"] = (
        tr.total("sampler.run_chain") / cli_total if cli_total else 0.0, "ratio")
    m["analysis.heldout_accuracy_pct"] = (bench.heldout_accuracy or 0.0, "%")

    m["dataset.load_csv.ms"] = (mean_us("dataset.load_csv") / 1e3, "ms")
    m["dataset.folds.ms"] = (
        per_op(tr.total("dataset.make_folds") + tr.total("dataset.train_test")) * 1e3, "ms")

    layers = tr.layer_totals()
    for layer in ("sampler", "tree", "bma", "analysis", "dataset", "reports", "cli"):
        calls, self_s = layers.get(layer, (0, 0.0))
        m[f"{layer}.self_s"] = (per_op(self_s), "s/op")
        m[f"{layer}.calls"] = (per_op(calls), "count/op")

    m.update(seconds_metrics(bench, plain))
    untraced_wall = statistics.median(op.wall for op in plain)
    traced_wall = statistics.median(op.wall for op in traced)
    m["trace.overhead_pct"] = (100.0 * (traced_wall / untraced_wall - 1.0), "%")
    m["trace.span_cost_us"] = (span_cost_us(), "us")
    m["trace.ops"] = (n, "count")
    return m


def write_trace(tracer: Tracer, path: Path):
    """Per-span records (non-hot spans) and per-name aggregates, for inspection."""
    doc = {
        "spans": [dict(zip(("op", "id", "parent", "name", "start", "end"), r))
                  for r in tracer.records],
        "stats": {k: dict(zip(("calls", "total_s", "self_s"), v))
                  for k, v in sorted(tracer.stats.items())},
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "treebma" / "__init__.py").is_file():
        print(f"error: no treebma sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import treebma
    if Path(treebma.__file__).resolve().parent != (SRC / "treebma").resolve():
        print(f"error: imported treebma from {treebma.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {}
    for name, (value, unit) in result["metrics"].items():
        metrics[name] = {"value": float(value), "unit": unit}
        print(f"{name:36s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"attempted {result['attempted']}, failed {result['failed']}", file=sys.stderr)
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
