"""Model averaging over a sampled tree ensemble: prediction and evaluation.

Predictions are the unweighted mean over trees of each tree's leaf predictive
probabilities; sampled trees are posterior draws, so equal weights are the
Monte Carlo estimate of the predictive distribution. Probability pairs are
indexed by label value: p[0] is the probability of class 0.

A chain that rejects a move keeps its tree, so an :class:`Ensemble` holds :class:`Run`
records: a tree, its loglik and its count of consecutive draws, built by
:func:`~treebma.sampler.run_chain` and :func:`load_ensemble`. Every consumer works once per
run. A run read from a file keeps its record line as read (``Run.line``), so
:func:`save_ensemble` copies it byte for byte (``filter`` keeps its input's layout); a
chain's run has no line and is serialized once. A prediction stacks the flat records of
each run's tree into one set of slot arrays (each tree's child slots shifted by the slots of
the trees before it), builds one boolean row mask per distinct split rule with
:meth:`~treebma.tree.SplitRule.goes_left` and routes all (tree, row) pairs of
``PREDICT_CHUNK`` runs at once, one tree level per pass (a leaf routes to itself, and the
passes end when no pair moves). It adds each tree's leaf pairs in ensemble order, so every
sum is bit-identical to routing the trees one by one; :func:`evaluate_selection` adds a kept
run's pairs to a second sum too, scoring ``filter``'s before and after at once.

:func:`load_ensemble` reads a file through :func:`~treebma.tree.deserialize` with
two tables that live for that one call, the distinct split rules and the checked
node records (:mod:`treebma.tree` gives the two record sources and the one tree
check). An :class:`Ensemble` holds its chain's :class:`ChainRecord`, written to the
``metadata.json`` sidecar by :func:`save_ensemble` and read by :func:`load_ensemble`
only; the leaf prior's α comes from it alone.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from itertools import chain
from math import inf, isfinite
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import DataValidationError, Dataset, Schema, _known_keys
from .tree import (
    DecisionTree,
    TreeFormatError,
    deserialize,
    leaf_predictive,
    serialize,
)

__all__ = [
    "ChainConfig",
    "ChainRecord",
    "Run",
    "Ensemble",
    "Prediction",
    "EvalReport",
    "predict",
    "predict_batch",
    "evaluate",
    "evaluate_selection",
    "save_ensemble",
    "load_ensemble",
]


@dataclass(frozen=True)
class ChainConfig:
    """Sampler hyperparameters. Defaults match the full-scale run recipe."""

    burn_in_steps: int = 200_000
    collect_count: int = 10_000
    thin: int = 7
    min_leaf: int = 3
    s_max: int | None = None  # None: floor(n / min_leaf) - 1, resolved at init
    seed: int = 0
    dirichlet_alpha: float = 1.0

    def __post_init__(self):  # types as the metadata.json reader requires them
        for name, low in (("burn_in_steps", 0), ("collect_count", 1), ("thin", 1),
                          ("min_leaf", 1), ("s_max", 1), ("seed", 0)):
            value = getattr(self, name)  # s_max None is resolved at chain start
            if not (type(value) is int and value >= low or name == "s_max" and value is None):
                raise ValueError(f"{name} {value!r} is not an integer >= {low}")
        alpha = self.dirichlet_alpha
        if isinstance(alpha, bool) or not isinstance(alpha, (int, float)) or not 0 < alpha < inf:
            raise ValueError(f"dirichlet_alpha {alpha!r} is not a finite positive number")


@dataclass(frozen=True)
class ChainRecord:
    """One chain: config (``s_max`` resolved), data, per-move counts, seconds of its steps."""

    config: ChainConfig
    n: int
    m: int
    provenance: str
    proposed: dict[str, int]
    accepted: dict[str, int]
    duration_s: float

    def __post_init__(self):  # types as the metadata.json reader requires them
        if not (isinstance(self.config, ChainConfig) and type(self.config.s_max) is int):
            raise ValueError(f"config {self.config!r} is not a ChainConfig with s_max resolved")
        if type(self.provenance) is not str:
            raise ValueError(f"provenance {self.provenance!r} is not a string")
        for name in ("n", "m", "duration_s"):  # integers, and a number that may be a float
            value, number = getattr(self, name), name == "duration_s"
            if not (type(value) is int or number and type(value) is float and isfinite(value)):
                raise ValueError(f"{name} {value!r} is not "
                                 f"{'a finite number' if number else 'an integer'}")
        if not all(type(d) is dict and d.keys() == self.proposed.keys()
                   and all(type(k) is str and type(c) is int for k, c in d.items())
                   for d in (self.proposed, self.accepted)):
            raise ValueError("proposed and accepted are not integer counts of the same moves")


class Run(NamedTuple):
    """``length`` consecutive draws of one tree, and its training log marginal likelihood;
    ``line`` is its record as read from a file, newline-terminated (None for a chain's)."""

    tree: DecisionTree
    loglik: float
    length: int
    line: str | None = None


@dataclass(frozen=True)
class Ensemble:
    """Ordered post-burn-in draws as runs of one tree, and the chain record; ``trees`` and
    ``logliks`` list each draw's tree and loglik, in order."""

    runs: list[Run]
    chain: ChainRecord | None = None

    def __post_init__(self):
        if not self.runs or min(r.length for r in self.runs) < 1:
            raise ValueError("ensemble needs at least one tree, in runs of length >= 1")

    def __len__(self) -> int:
        return sum(r.length for r in self.runs)

    @property
    def trees(self) -> list[DecisionTree]:
        return [r.tree for r in self.runs for _ in range(r.length)]

    @property
    def logliks(self) -> list[float]:
        return [r.loglik for r in self.runs for _ in range(r.length)]

    @property
    def dirichlet_alpha(self) -> float:
        """The leaf prior's alpha the chain sampled under; ValueError without a record."""
        if self.chain is None:
            raise ValueError("the ensemble has no chain record (metadata.json) to give its alpha")
        return self.chain.config.dirichlet_alpha


@dataclass(frozen=True)
class Prediction:
    """Class-probability pair, indexed by label value."""

    p: tuple[float, float]

    def __post_init__(self):
        p0, p1 = self.p
        if not (0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0):
            raise ValueError("probabilities must lie in [0,1]")

    @property
    def label(self) -> int:
        # tie at exactly 0.5 breaks toward label 0 (the majority class)
        return 1 if self.p[1] > self.p[0] else 0

    @property
    def entropy_bits(self) -> float:
        return float(_entropy_bits(np.asarray(self.p)))


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, -p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return terms.sum(axis=-1)


PREDICT_CHUNK = 128  # runs routed together; bounds the (trees x rows) arrays


def _stack(trees: list[DecisionTree], alpha: float):
    """The trees' records stacked into flat slot arrays, tree after tree.

    Returns ``rules`` (each distinct split rule object once) and, per slot,
    ``rule`` (the split's index in ``rules``, -1 for a leaf), ``kids`` (the
    right then the left child's slot at 2 * slot and 2 * slot + 1; a leaf's own
    slot twice) and ``leaf_p`` (the leaf's :func:`leaf_predictive` pair, zeros for
    a split), plus each tree's root slot. Rules are told apart by identity (a file
    or a chain builds each once); equal distinct objects get a mask each."""
    sizes = [len(t.ids) for t in trees]
    total = sum(sizes)
    starts = np.cumsum([0, *sizes[:-1]])
    slots = list(chain.from_iterable(t.rules for t in trees))
    distinct = {id(r): r for r in slots if r is not None}  # in first-seen order
    index = {key: i for i, key in enumerate(distinct)} | {id(None): -1}
    rule = np.fromiter(map(index.__getitem__, map(id, slots)), np.intp, total)
    kids = np.column_stack([np.fromiter(chain.from_iterable(getattr(t, side) for t in trees),
                                        np.intp, total) for side in ("right", "left")])
    kids += np.repeat(starts, sizes)[:, None]  # each tree's slots follow the trees before it
    kids[rule < 0] = np.flatnonzero(rule < 0)[:, None]  # a leaf routes to itself
    pairs: dict = {}  # distinct leaf counts, in first-seen order
    pair = np.fromiter((pairs.setdefault(c, len(pairs)) for t in trees
                        for r, c in zip(t.rules, t.counts) if r is None), np.intp)
    leaf_p = np.zeros((total, 2))
    leaf_p[rule < 0] = np.array([leaf_predictive(c, alpha) for c in pairs])[pair]
    roots = starts + np.array([t.root for t in trees], dtype=np.intp)
    return list(distinct.values()), rule, kids.ravel(), leaf_p, roots


def _route(ensemble: Ensemble, X: np.ndarray, keep=None) -> tuple[np.ndarray, np.ndarray]:
    """Each row's leaf pairs summed over all trees, and over the trees of the runs where
    ``keep`` is true; one add per tree, in order. Each pass moves all pairs of a chunk (a
    leaf's kids are its own slot, its mask offset 0) until none moves; no split, no pass."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-d")
    runs = ensemble.runs
    keep = [False] * len(runs) if keep is None else keep
    if len(keep) != len(runs):
        raise ValueError(f"{len(keep)} run flags for an ensemble of {len(runs)} runs")
    rules, rule, kids, leaf_p, roots = _stack([r.tree for r in runs], ensemble.dirichlet_alpha)
    if max((r.variable for r in rules), default=-1) >= X.shape[1]:
        raise ValueError(f"feature arity {X.shape[1]} too small for ensemble splits")
    n = X.shape[0]
    masks = np.empty((len(rules), n), dtype=bool)
    for r, rl in enumerate(rules):
        masks[r] = rl.goes_left(X[:, rl.variable])
    masks = masks.ravel()  # masks[r * n + i]: rule r sends row i left
    offset = np.maximum(rule, 0) * n

    acc, kept = np.zeros((n, 2)), np.zeros((n, 2))
    for start in range(0, len(roots), PREDICT_CHUNK):
        chunk = roots[start:start + PREDICT_CHUNK]
        pos = np.repeat(chunk, n)  # pair (run j, row i) of the chunk sits at pos[j * n + i]
        rows = np.tile(np.arange(n), chunk.size)
        moved = bool(rules)
        while moved:
            nxt = kids[2 * pos + masks[offset[pos] + rows]]
            moved, pos = not np.array_equal(nxt, pos), nxt
        probs = leaf_p[pos].reshape(chunk.size, n, 2)
        for j, (run, kept_run) in enumerate(zip(runs[start:start + PREDICT_CHUNK],
                                                keep[start:start + PREDICT_CHUNK])):
            for _ in range(run.length):  # one add per tree, in ensemble order
                acc += probs[j]
                if kept_run:
                    kept += probs[j]
    return acc, kept


def predict_batch(ensemble: Ensemble, X: np.ndarray) -> np.ndarray:
    """Averaged class probabilities for each row of X; shape (n, 2)."""
    return _route(ensemble, X)[0] / len(ensemble)


def predict(ensemble: Ensemble, x) -> Prediction:
    """Averaged predictive distribution for a single feature vector."""
    p = predict_batch(ensemble, np.asarray(x, dtype=np.float64)[None, :])[0]
    return Prediction((float(p[0]), float(p[1])))


@dataclass(frozen=True)
class EvalReport:
    """Held-out metrics of one ensemble on one test set.

    ``performance_pct`` is the accuracy of the argmax rule (ties toward label
    0); ``entropy_bits`` is the Shannon entropy of the averaged predictive
    distribution summed over test rows (``entropy_bits_mean`` is the per-row
    mean); ``max_train_loglik`` is the best single sampled tree's training
    marginal likelihood.
    """

    performance_pct: float
    entropy_bits: float
    entropy_bits_mean: float
    max_train_loglik: float
    per_point: list[tuple[int, Prediction]]

    def __post_init__(self):
        if not 0.0 <= self.performance_pct <= 100.0:
            raise ValueError("performance_pct out of range")
        if self.entropy_bits < 0:
            raise ValueError("entropy must be nonnegative")


def _report(probs: np.ndarray, test: Dataset, max_train_loglik: float) -> EvalReport:
    if test.n < 1:
        raise ValueError("test set is empty")
    pred_labels = (probs[:, 1] > probs[:, 0]).astype(np.int64)
    correct = float((pred_labels == test.y).mean())
    ent = _entropy_bits(probs)
    per_point = [
        (int(test.y[i]), Prediction((float(probs[i, 0]), float(probs[i, 1]))))
        for i in range(test.n)
    ]
    return EvalReport(
        performance_pct=100.0 * correct,
        entropy_bits=float(ent.sum()),
        entropy_bits_mean=float(ent.mean()),
        max_train_loglik=max_train_loglik,
        per_point=per_point,
    )


def evaluate(ensemble: Ensemble, test: Dataset) -> EvalReport:
    """Score an ensemble on a held-out dataset."""
    return _report(predict_batch(ensemble, test.X), test, max_loglikelihood(ensemble))


def evaluate_selection(ensemble: Ensemble, selection,
                       test: Dataset) -> tuple[EvalReport, EvalReport]:
    """:func:`evaluate` of ``ensemble`` and of ``selection.kept``, the runs flagged in
    ``selection.kept_runs`` (a :class:`~treebma.analysis.SelectionResult`), in one pass.
    A selection with a flag count other than the ensemble's run count raises ValueError."""
    acc, kept = _route(ensemble, test.X, selection.kept_runs)
    return (_report(acc / len(ensemble), test, max_loglikelihood(ensemble)),
            _report(kept / len(selection.kept), test, max_loglikelihood(selection.kept)))


def max_loglikelihood(ensemble: Ensemble) -> float:
    """Best training log marginal likelihood over the sampled trees."""
    return float(max(r.loglik for r in ensemble.runs))


# ---------------------------------------------------------------------------
# Ensemble file I/O: one JSON tree record per line, metadata in a sidecar
# ---------------------------------------------------------------------------

def save_ensemble(ensemble: Ensemble, path, meta_path=None) -> None:
    """Write trees as JSON lines, a run's line as read where it has one (see :class:`Run`),
    and the chain record (ValueError if none) to ``meta_path``."""
    if meta_path is not None:  # first: without a record nothing is written
        if ensemble.chain is None:
            raise ValueError(f"the ensemble has no chain record to write to {meta_path}")
        Path(meta_path).write_text(
            json.dumps(asdict(ensemble.chain), indent=2, sort_keys=True), encoding="utf-8")
    with Path(path).open("w", encoding="utf-8") as fh:
        for tree, ll, length, line in ensemble.runs:  # a chain's run is serialized once
            fh.write((line or serialize(tree, loglik=ll) + "\n") * length)


def load_ensemble(path, meta_path=None, schema: Schema | None = None) -> Ensemble:
    """Read an ensemble file, with the chain record in ``meta_path``, or else in the
    ``metadata.json`` beside it when that file exists (an explicit ``meta_path`` that
    does not exist raises DataValidationError naming it).

    With a ``schema``, every split must fit it; each distinct rule of the
    file is built and checked once, and each distinct node text of a compact
    line decoded and checked once (see :func:`treebma.tree.deserialize`).
    A malformed record raises TreeFormatError naming ``path:line``, a file with
    no record or not in UTF-8 one naming ``path``. A line identical to the record
    before it is not parsed again: it lengthens that record's run (identical text
    passes the same checks). Each run keeps its line as read, a newline added to a
    last line without one, for :func:`save_ensemble` to copy.
    """
    runs, prev, rules, nodes = [], None, {}, {}  # runs: [tree, loglik, length, line] lists
    with Path(path).open(encoding="utf-8") as fh:
        try:  # the file is decoded in blocks, so a decode error knows no line
            for lineno, line in enumerate(fh, start=1):
                if line == prev:
                    runs[-1][2] += 1
                    continue
                if not line.strip():
                    continue
                try:
                    tree, ll = deserialize(line, schema, rules, nodes)
                except ValueError as e:
                    raise TreeFormatError(f"{path}:{lineno}: {e}") from e
                if ll is None:
                    raise TreeFormatError(f"{path}:{lineno}: tree record missing loglik")
                runs.append([tree, ll, 1, line if line.endswith("\n") else line + "\n"])
                prev = line
        except UnicodeDecodeError as e:
            raise TreeFormatError(f"{path}: not UTF-8 text ({e.reason})") from None
    if not runs:
        raise TreeFormatError(f"{path}: no tree records")
    runs = [Run(*r) for r in runs]
    if meta_path is None:  # only the default sidecar may be absent
        meta_path = Path(path).with_name("metadata.json")
        if not meta_path.exists():
            return Ensemble(runs)
    return Ensemble(runs, _read_chain(Path(meta_path)))


def _read_chain(path: Path) -> ChainRecord:
    """The :class:`ChainRecord` in a metadata file, checked key by key (README, "Ensemble
    files"); a fault raises DataValidationError naming ``path`` and the key at fault."""
    def bad(message: str) -> DataValidationError:
        return DataValidationError(f"metadata file {path}{message}")

    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise bad(" does not exist") from None
    except (ValueError, RecursionError) as e:  # not UTF-8 or not JSON; nested too deep
        raise bad(f" is not valid JSON: {e}") from None
    obj, where = doc, ""
    for cls in (ChainRecord, ChainConfig):  # the record's keys, then its config's
        if type(obj) is not dict:
            raise bad(f"{where} holds a {type(obj).__name__}, not a JSON object")
        names = [f.name for f in fields(cls)]
        _known_keys(obj, set(names), f"metadata file {path}{where}", names)
        obj, where = doc["config"], ": config"
    try:
        config = ChainConfig(**doc["config"])
    except ValueError as e:
        raise bad(f": config {e}") from None
    try:
        return ChainRecord(**{**doc, "config": config})
    except ValueError as e:
        raise bad(f": {e}") from None
