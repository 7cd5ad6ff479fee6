"""Independent checks of the program's outputs.

The ensemble file is checked against its definition, not against the
program's own routines: each tree record is routed over the training rows
here, its leaf counts are compared with the stored ones, and its stored
``loglik`` with the Dirichlet-multinomial marginal recomputed with
``math.lgamma``.  A check returns a list of problems; an empty list passes.
"""
from __future__ import annotations

import json
from math import lgamma

import numpy as np

LOGLIK_RTOL = 1e-8


def leaf_log_marginal(n0: int, n1: int, alpha: float) -> float:
    """log[B(n0+a, n1+a) / B(a, a)] for one leaf."""
    return (lgamma(n0 + alpha) + lgamma(n1 + alpha) - lgamma(n0 + n1 + 2 * alpha)
            - 2 * lgamma(alpha) + lgamma(2 * alpha))


def tree_key(line: str) -> str:
    """The part of a tree record that describes the tree, without its loglik."""
    return line.rsplit(',"loglik":', 1)[0]


def _route(nodes: dict, root, X: np.ndarray, y: np.ndarray) -> dict:
    """Leaf id -> (n0, n1) for the rows of X routed through the tree."""
    out = {}
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        nid, idx = stack.pop()
        rec = nodes[nid]
        if "split" not in rec:
            n1 = int(y[idx].sum())
            out[nid] = (idx.size - n1, n1)
            continue
        rule = rec["split"]
        col = X[idx, rule["var"]]
        left = col == rule["level"] if "level" in rule else col <= rule["thr"]
        stack.append((rec["left"], idx[left]))
        stack.append((rec["right"], idx[~left]))
    return out


class TreeRecords:
    """Per-tree facts recomputed from records over one training set.

    Results are cached by tree, so a tree seen again (consecutive MCMC draws
    often repeat) is routed only once.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, alpha: float, min_leaf: int):
        self.X, self.y, self.alpha, self.min_leaf = X, y, alpha, min_leaf
        self._cache: dict[str, tuple[float | None, list[str], int, list[int]]] = {}

    def facts(self, key: str, doc: dict):
        """(recomputed loglik, problems, leaf count, split variables) of one tree."""
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        problems: list[str] = []
        nodes = {rec["id"]: rec for rec in doc["nodes"]}
        split_vars = [rec["split"]["var"] for rec in doc["nodes"] if "split" in rec]
        loglik = None
        try:
            counts = _route(nodes, doc["root"], self.X, self.y)
        except (KeyError, IndexError, TypeError) as e:
            problems.append(f"tree cannot be routed: {e!r}")
        else:
            for nid, routed in counts.items():
                stored = nodes[nid].get("leaf")
                if stored is None or tuple(stored) != routed:
                    problems.append(f"leaf {nid} stores {stored}, rows route to {list(routed)}")
                if sum(routed) < self.min_leaf:
                    problems.append(f"leaf {nid} holds {sum(routed)} rows < min_leaf")
            loglik = sum(leaf_log_marginal(n0, n1, self.alpha) for n0, n1 in counts.values())
        hit = (loglik, problems, sum(1 for rec in doc["nodes"] if "split" not in rec),
               split_vars)
        self._cache[key] = hit
        return hit


class EnsembleSummary:
    """What a checked ensemble looked like: its size and shape statistics."""

    def __init__(self):
        self.trees = 0
        self.runs = 0      # maximal runs of identical consecutive trees
        self.leaves = 0
        self.bytes = 0
        self.split_var_counts: dict[int, int] = {}

    def add(self, other: "EnsembleSummary"):
        self.trees += other.trees
        self.runs += other.runs
        self.leaves += other.leaves
        self.bytes += other.bytes
        for k, v in other.split_var_counts.items():
            self.split_var_counts[k] = self.split_var_counts.get(k, 0) + v


def check_tree_lines(lines, records: TreeRecords, expect_count: int | None,
                     summary: EnsembleSummary | None = None) -> list[str]:
    """Check an ensemble given as serialized tree lines."""
    problems: list[str] = []
    prev_key = None
    count = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        count += 1
        try:
            doc = json.loads(line)
            stored = doc["loglik"]
        except (ValueError, KeyError, TypeError) as e:
            problems.append(f"line {lineno}: unreadable tree record ({e})")
            continue
        key = tree_key(line)
        loglik, tree_problems, leaves, split_vars = records.facts(key, doc)
        problems.extend(f"line {lineno}: {p}" for p in tree_problems)
        if loglik is not None and not (
                isinstance(stored, (int, float))
                and abs(stored - loglik) <= LOGLIK_RTOL * max(1.0, abs(loglik))):
            problems.append(f"line {lineno}: stored loglik {stored!r} != recomputed {loglik!r}")
        if summary is not None:
            summary.trees += 1
            summary.runs += key != prev_key
            summary.leaves += leaves
            summary.bytes += len(line) + 1
            for v in split_vars:
                summary.split_var_counts[v] = summary.split_var_counts.get(v, 0) + 1
        prev_key = key
    if expect_count is not None and count != expect_count:
        problems.append(f"ensemble holds {count} trees, {expect_count} requested")
    return problems


def check_importance_csv(text: str, summary: EnsembleSummary, m: int) -> list[str]:
    """importance.csv must sum to 1 and match split-node shares counted here."""
    rows = [r.split(",") for r in text.strip().splitlines()[1:]]
    if len(rows) != m:
        return [f"importance has {len(rows)} rows, expected {m}"]
    values = [float(r[-1]) for r in rows]
    problems = []
    if abs(sum(values) - 1.0) > 1e-5:
        problems.append(f"importance sums to {sum(values)!r}")
    total = sum(summary.split_var_counts.values())
    for j, v in enumerate(values):
        expect = summary.split_var_counts.get(j, 0) / total if total else 0.0
        if abs(v - expect) > 1e-6:
            problems.append(f"importance of variable {j} is {v}, split-node share is {expect}")
    return problems


def check_filtered(original_lines: list[str], filtered_lines: list[str], variable: int,
                   report_text: str) -> list[str]:
    """The filtered ensemble keeps, in order, exactly the trees without ``variable``."""
    def uses(line: str) -> bool:
        return any(rec.get("split", {}).get("var") == variable
                   for rec in json.loads(line)["nodes"])

    expect_kept = [ln for ln in original_lines if not uses(ln)]
    omitted = len(original_lines) - len(expect_kept)
    problems = []
    if any(uses(ln) for ln in filtered_lines):
        problems.append(f"filtered ensemble still splits on variable {variable}")
    if filtered_lines != expect_kept:
        problems.append(f"filtered ensemble has {len(filtered_lines)} trees, "
                        f"expected the {len(expect_kept)} without variable {variable}")
    claim = f"trees omitted: {omitted} of {len(original_lines)}"
    if claim not in report_text:
        problems.append(f"filter report does not state {claim!r}")
    return problems


def check_probabilities(per_point) -> list[str]:
    """Each averaged predictive pair lies in [0, 1] and sums to 1."""
    for i, (_label, pred) in enumerate(per_point):
        p0, p1 = pred.p
        if not (0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0 and abs(p0 + p1 - 1.0) <= 1e-9):
            return [f"prediction {i} has probabilities {pred.p}"]
    return []
