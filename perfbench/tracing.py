"""Timing wrappers installed from outside the program, at the sites where it calls its layers.

``from .x import y`` binds ``y`` into the importing module, so a call is
intercepted by replacing the name in the *caller's* namespace (for example
``treebma.sampler.propose`` rather than the definition).  Every wrapper is
removed again by :meth:`Sites.restore`, so untraced operations run the
program's own code untouched.

Two kinds of wrapper exist:

* :class:`Probe` is always on.  It wraps only ``run_chain`` and
  ``run_comparison`` (a handful of calls per operation), records the chain
  time and captures inputs and results for the correctness checks.
* :class:`Tracer` is on only in traced operations.  It records a span per
  call (name, start, end, parent) at every layer boundary listed in
  :data:`TRACE_SITES`, derives self time from child spans, and counts each
  RJ-MCMC proposal by outcome.
"""
from __future__ import annotations

import importlib
import time
from array import array

# (module, attribute, span name).  The span name is the layer that *defines*
# the function, so self time is charged to that layer wherever it is called.
TRACE_SITES = (
    ("treebma.cli", "load_csv", "dataset.load_csv"),
    ("treebma.cli", "make_folds", "dataset.make_folds"),
    ("treebma.cli", "trauma_schema", "dataset.trauma_schema"),
    ("treebma.cli", "run_chain", "sampler.run_chain"),
    ("treebma.cli", "chain_diagnostics", "sampler.chain_diagnostics"),
    ("treebma.cli", "run_comparison", "analysis.run_comparison"),
    ("treebma.cli", "variable_importance", "analysis.variable_importance"),
    ("treebma.cli", "filter_ensemble", "analysis.filter_ensemble"),
    ("treebma.cli", "save_ensemble", "bma.save_ensemble"),
    ("treebma.cli", "load_ensemble", "bma.load_ensemble"),
    ("treebma.cli", "evaluate", "bma.evaluate"),
    ("treebma.cli", "comparison_csv", "reports.comparison_csv"),
    ("treebma.cli", "comparison_table", "reports.comparison_table"),
    ("treebma.cli", "importance_csv", "reports.importance_csv"),
    ("treebma.cli", "importance_bar_chart", "reports.importance_bar_chart"),
    ("treebma.cli", "eval_reports_table", "reports.eval_reports_table"),
    ("treebma.cli", "eval_reports_csv", "reports.eval_reports_csv"),
    ("treebma.analysis", "run_chain", "sampler.run_chain"),
    ("treebma.analysis", "evaluate", "bma.evaluate"),
    ("treebma.analysis", "make_folds", "dataset.make_folds"),
    ("treebma.analysis", "add_noise", "dataset.add_noise"),
    ("treebma.analysis", "drop_variable", "dataset.drop_variable"),
    ("treebma.analysis", "variable_importance", "analysis.variable_importance"),
    ("treebma.analysis", "filter_ensemble", "analysis.filter_ensemble"),
    ("treebma.dataset.FoldPlan", "train_test", "dataset.train_test"),
    ("treebma.sampler", "init_chain", "sampler.init_chain"),
    ("treebma.sampler", "mh_step", "sampler.mh_step"),
    ("treebma.sampler", "propose", "sampler.propose"),
    ("treebma.sampler", "leaf_log_marginal", "tree.leaf_log_marginal"),
    ("treebma.sampler", "DecisionTree", "tree.DecisionTree"),
    ("treebma.sampler.ChainState", "current", "sampler.snapshot"),
    ("treebma.bma", "predict_batch", "bma.predict_batch"),
    ("treebma.bma", "serialize", "tree.serialize"),
    ("treebma.bma", "deserialize", "tree.deserialize"),
    ("treebma.bma", "leaf_rows", "tree.leaf_rows"),
    ("treebma.bma", "leaf_predictive", "tree.leaf_predictive"),
    ("treebma.tree", "DecisionTree", "tree.DecisionTree"),
    ("treebma.tree", "leaf_log_marginal", "tree.leaf_log_marginal"),
    ("treebma.tree", "leaf_rows", "tree.leaf_rows"),
)

# Spans too frequent to keep one record each (up to millions per operation):
# they are aggregated into call counts and durations only.
HOT = frozenset({
    "sampler.mh_step", "sampler.snapshot",
    "sampler.propose.birth", "sampler.propose.death",
    "sampler.propose.change_split", "sampler.propose.change_rule",
    "tree.leaf_log_marginal", "tree.DecisionTree", "tree.serialize",
    "tree.deserialize", "tree.leaf_rows", "tree.leaf_predictive",
})

# Spans whose individual durations are kept for medians and percentiles.
SAMPLED = frozenset({
    "sampler.mh_step", "sampler.snapshot", "tree.serialize", "tree.deserialize",
    "tree.leaf_rows", "sampler.propose.birth", "sampler.propose.death",
    "sampler.propose.change_split", "sampler.propose.change_rule",
})

MOVES = ("birth", "death", "change_split", "change_rule")
OUTCOMES = ("proposed", "inapplicable", "min_leaf_reject", "mh_reject", "accepted")


def _resolve(path: str):
    """Import ``a.b.C`` as the module ``a.b`` or the class ``C`` inside it."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


class Sites:
    """Replaced attributes, remembered so they can be put back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def replace(self, owner_path: str, attr: str, make):
        """Set ``owner.attr = make(original)``; a vanished site is noted, not fatal."""
        owner = _resolve(owner_path)
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner_path}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class Probe:
    """Always-on capture of chain runs and the comparison report.

    Each chain record is ``(train_data, config, ensemble, seconds)``.
    """

    def __init__(self):
        self.chains: list[tuple] = []
        self.reports: list = []
        self.sites = Sites()

    def install(self):
        clock = time.perf_counter

        def chain(fn):
            def probed_run_chain(data, config, *a, **k):
                t0 = clock()
                ens = fn(data, config, *a, **k)
                self.chains.append((data, config, ens, clock() - t0))
                return ens
            return probed_run_chain

        def comparison(fn):
            def probed_run_comparison(*a, **k):
                report = fn(*a, **k)
                self.reports.append(report)
                return report
            return probed_run_comparison

        self.sites.replace("treebma.cli", "run_chain", chain)
        self.sites.replace("treebma.analysis", "run_chain", chain)
        self.sites.replace("treebma.cli", "run_comparison", comparison)

    def reset(self):
        self.chains.clear()
        self.reports.clear()

    def restore(self):
        self.sites.restore()


class Tracer:
    """Span recorder with per-name call counts, total and self time.

    A span's self time is its duration minus the durations of its direct
    children.  Spans outside :data:`HOT` are also kept as records
    ``(op, id, parent, name, start, end)`` for the trace file.
    """

    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[list] = []       # per open span: [child seconds, span id]
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.samples: dict[str, array] = {n: array("d") for n in SAMPLED}
        self.moves = {mv: dict.fromkeys(OUTCOMES, 0) for mv in MOVES}
        self.records: list[tuple] = []
        self.op = 0  # index of the operation being traced; shared by its spans
        self._next_id = 1
        self._pending: list = [None, None]  # last proposal: [kind, outcome or None]
        self.sites = Sites()

    # -- spans ---------------------------------------------------------------
    def span(self, name: str, fn):
        stack, clock, records = self.stack, self.clock, self.records
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        sample = self.samples.get(name)
        keep = name not in HOT

        def traced(*a, **k):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*a, **k)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if sample is not None:
                    sample.append(dur)
                if keep:
                    records.append((self.op, sid, stack[-1][1] if stack else 0, name, t0, t1))
        return traced

    def call(self, name: str, fn, *a, **k):
        """Run ``fn`` under a span (used for the operation's root, ``cli.main``)."""
        return self.span(name, fn)(*a, **k)

    # -- installation ----------------------------------------------------------
    def install(self):
        for owner, attr, name in TRACE_SITES:
            if name == "sampler.propose":
                self.sites.replace(owner, attr, self._wrap_propose)
            elif name == "sampler.mh_step":
                self.sites.replace(owner, attr, self._wrap_mh_step)
            elif name == "sampler.snapshot":
                self.sites.replace(owner, attr, self._wrap_property(name))
            else:
                self.sites.replace(owner, attr, lambda fn, n=name: self.span(n, fn))

    def restore(self):
        self.sites.restore()

    def _wrap_property(self, name):
        def make(prop):
            return property(self.span(name, prop.fget))
        return make

    def _wrap_propose(self, fn):
        # One span per move kind keeps the four proposal timings apart.
        per_kind = {mv: self.span(f"sampler.propose.{mv}", fn) for mv in MOVES}
        moves, pending = self.moves, self._pending

        def observed_propose(state, kind, rng, *a, **k):
            prop = per_kind[kind](state, kind, rng, *a, **k)
            if prop is None:
                outcome = "inapplicable"
            elif not prop.min_leaf_ok:
                outcome = "min_leaf_reject"
            else:
                outcome = None
            moves[kind]["proposed"] += 1
            if outcome is not None:
                moves[kind][outcome] += 1
            pending[0], pending[1] = kind, outcome
            return prop
        return observed_propose

    def _wrap_mh_step(self, fn):
        inner = self.span("sampler.mh_step", fn)
        moves, pending = self.moves, self._pending

        def observed_mh_step(state, *a, **k):
            pending[0] = None
            before = sum(state.accept_counts.values())
            out = inner(state, *a, **k)
            kind, outcome = pending
            if kind is not None and outcome is None:
                accepted = sum(state.accept_counts.values()) > before
                moves[kind]["accepted" if accepted else "mh_reject"] += 1
            return out
        return observed_mh_step

    # -- summaries -------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per layer (span-name prefix): (calls, self seconds)."""
        out: dict[str, list] = {}
        for name, (calls, _total, self_s) in self.stats.items():
            acc = out.setdefault(name.split(".", 1)[0], [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        return {k: (v[0], v[1]) for k, v in out.items()}


def span_cost_us(n: int = 20000) -> float:
    """Cost of one empty hot span, in microseconds: the tracer's own overhead per call."""
    def noop():
        return None
    traced = Tracer().span("tree.leaf_log_marginal", noop)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            traced()
        best = min(best, time.perf_counter() - t0 - bare)
    return max(best, 0.0) / n * 1e6
