"""Binary classification trees: routing, leaf statistics, marginal likelihood.

A tree is an immutable value: a dict of nodes keyed by id plus a root id.
Internal nodes hold a :class:`SplitRule`; leaves hold (optionally) the pair of
training class counts that the Dirichlet-multinomial marginal likelihood and
the leaf predictive probabilities are computed from.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import isfinite, lgamma

import numpy as np

from .dataset import Dataset, Schema

__all__ = [
    "TreeFormatError",
    "SplitRule",
    "TreeNode",
    "DecisionTree",
    "route",
    "partition_rows",
    "prunable_ids",
    "leaf_rows",
    "log_marginal_likelihood",
    "leaf_log_marginal",
    "leaf_predictive",
    "candidate_rules",
    "check_schema",
    "serialize",
    "deserialize",
]


class TreeFormatError(ValueError):
    """Raised when a serialized tree record is malformed."""


@dataclass(frozen=True)
class SplitRule:
    """A test on one feature: continuous ``x <= threshold`` or categorical ``x == level``."""

    variable: int
    threshold: float | None = None
    level: int | None = None

    def __post_init__(self):
        if (self.threshold is None) == (self.level is None):
            raise ValueError("exactly one of threshold/level must be set")
        if self.variable < 0:
            raise ValueError(f"negative variable index {self.variable}")

    @property
    def is_categorical(self) -> bool:
        return self.level is not None

    def goes_left(self, value):
        """The rule's test, elementwise: a scalar gives a bool, a column a boolean mask."""
        if self.level is not None:
            return value == self.level
        return value <= self.threshold


@dataclass(frozen=True)
class TreeNode:
    """Either a split node (rule + two child ids) or a leaf (class counts)."""

    node_id: int
    split: SplitRule | None = None
    left: int | None = None
    right: int | None = None
    counts: tuple[int, int] | None = None

    def __post_init__(self):
        is_split = self.split is not None
        if is_split and (self.left is None or self.right is None):
            raise ValueError("split node needs both children")
        if not is_split and (self.left is not None or self.right is not None):
            raise ValueError("leaf node may not have children")

    @property
    def is_leaf(self) -> bool:
        return self.split is None


@dataclass(frozen=True)
class DecisionTree:
    """Immutable binary tree over feature indices."""

    nodes: dict[int, TreeNode]
    root: int

    def __post_init__(self):
        seen = set()
        stack = [self.root]
        while stack:
            nid = stack.pop()
            if nid in seen:
                raise ValueError(f"node {nid} reachable twice (not a tree)")
            seen.add(nid)
            node = self.nodes.get(nid)
            if node is None:
                raise ValueError(f"dangling child id {nid}")
            if not node.is_leaf:
                stack.extend((node.left, node.right))
        if seen != set(self.nodes):
            raise ValueError("unreachable nodes present")

    def leaf_ids(self) -> list[int]:
        return [nid for nid, nd in self.nodes.items() if nd.is_leaf]

    def split_ids(self) -> list[int]:
        return [nid for nid, nd in self.nodes.items() if not nd.is_leaf]

    @property
    def k_leaves(self) -> int:
        return sum(1 for nd in self.nodes.values() if nd.is_leaf)

    @property
    def n_splits(self) -> int:
        return len(self.nodes) - self.k_leaves

    def variables_used(self) -> list[int]:
        return [self.nodes[s].split.variable for s in self.split_ids()]


def route(tree: DecisionTree, x) -> int:
    """Route one feature vector to its leaf; returns the leaf node id."""
    x = np.asarray(x, dtype=np.float64)
    nid = tree.root
    node = tree.nodes[nid]
    while not node.is_leaf:
        if node.split.variable >= x.shape[0]:
            raise ValueError(
                f"feature vector of arity {x.shape[0]} too short for split on "
                f"variable {node.split.variable}"
            )
        nid = node.left if node.split.goes_left(x[node.split.variable]) else node.right
        node = tree.nodes[nid]
    return nid


def prunable_ids(nodes: dict[int, TreeNode]) -> list[int]:
    """Split nodes of a node dict whose both children are leaves, in dict order."""
    return [
        nid
        for nid, nd in nodes.items()
        if not nd.is_leaf and nodes[nd.left].is_leaf and nodes[nd.right].is_leaf
    ]


def partition_rows(nodes: dict[int, TreeNode], start: int, X: np.ndarray,
                   rows: np.ndarray) -> dict[int, np.ndarray]:
    """Route ``rows`` of X down the subtree at ``start``; returns leaf id -> row indices.

    Leaves come out in depth-first order, right child first. Callers sum
    per-leaf terms in that order, so it is part of the output's bytes.
    """
    out: dict[int, np.ndarray] = {}
    stack = [(start, rows)]
    while stack:
        nid, idx = stack.pop()
        node = nodes[nid]
        if node.is_leaf:
            out[nid] = idx
        else:
            go_left = node.split.goes_left(X[idx, node.split.variable])
            stack.append((node.left, idx[go_left]))
            stack.append((node.right, idx[~go_left]))
    return out


def leaf_rows(tree: DecisionTree, X: np.ndarray) -> dict[int, np.ndarray]:
    """Partition the row indices of X by the leaf they reach."""
    return partition_rows(tree.nodes, tree.root, X, np.arange(X.shape[0]))


def leaf_log_marginal(n0: int, n1: int, alpha: float) -> float:
    """log[ B(n0+a, n1+a) / B(a, a) ], the one-leaf Dirichlet-multinomial marginal."""
    return (
        lgamma(n0 + alpha) + lgamma(n1 + alpha) - lgamma(n0 + n1 + 2 * alpha)
        - 2 * lgamma(alpha) + lgamma(2 * alpha)
    )


def log_marginal_likelihood(tree: DecisionTree, alpha: float) -> float:
    """Sum of per-leaf Dirichlet-multinomial log marginals over a tree with leaf counts."""
    total = 0.0
    for nid in tree.leaf_ids():
        counts = tree.nodes[nid].counts
        if counts is None:
            raise ValueError(f"leaf {nid} is not annotated")
        total += leaf_log_marginal(counts[0], counts[1], alpha)
    return total


def leaf_predictive(counts: tuple[int, int], alpha: float) -> tuple[float, float]:
    """Posterior-mean class probabilities ((n0+a)/(n+2a), (n1+a)/(n+2a)), a = alpha."""
    n0, n1 = counts
    if n0 < 0 or n1 < 0:
        raise ValueError("leaf counts must be nonnegative")
    denom = n0 + n1 + 2 * alpha
    return ((n0 + alpha) / denom, (n1 + alpha) / denom)


def candidate_rules(data: Dataset, variable: int) -> list[SplitRule]:
    """Admissible split rules for one variable, from the observed training values.

    Continuous columns: one threshold per distinct observed value except the
    maximum, so both children are reachable. Categorical columns: one equality
    rule per declared level present in the data (empty if the column is
    constant). A constant column yields an empty list.
    """
    if not 0 <= variable < data.m:
        raise ValueError(f"variable index {variable} out of range")
    var = data.schema.variables[variable]
    values = np.unique(data.X[:, variable])
    if values.size <= 1:
        return []
    if var.is_categorical:
        return [SplitRule(variable, level=int(v)) for v in values]
    return [SplitRule(variable, threshold=float(v)) for v in values[:-1]]


def check_schema(tree: DecisionTree, schema: Schema) -> None:
    """Raise TreeFormatError unless every split of the tree fits the schema.

    A split must name one of the schema's variables; a level split must name a
    categorical variable and one of its declared levels.
    """
    for nd in tree.nodes.values():
        sp = nd.split
        if sp is None:
            continue
        if sp.variable >= schema.m:
            raise TreeFormatError(f"split on variable {sp.variable}, but the schema "
                                  f"has {schema.m} variables")
        var = schema.variables[sp.variable]
        if sp.level is not None and sp.level not in (var.levels or ()):
            raise TreeFormatError(f"split on level {sp.level} of variable {sp.variable} "
                                  f"({var.name!r}), which the schema does not declare")


# ---------------------------------------------------------------------------
# One-line JSON serialization (ensemble file format)
# ---------------------------------------------------------------------------

def serialize(tree: DecisionTree, loglik: float | None = None) -> str:
    """Encode a tree as a single JSON line, optionally with its train loglik."""
    nodes = []
    for nid in sorted(tree.nodes):
        nd = tree.nodes[nid]
        if nd.is_leaf:
            rec = {"id": nid, "leaf": list(nd.counts) if nd.counts is not None else None}
        else:
            sp = nd.split
            rule = {"var": sp.variable, "level": sp.level} if sp.is_categorical \
                else {"var": sp.variable, "thr": sp.threshold}
            rec = {"id": nid, "split": rule, "left": nd.left, "right": nd.right}
        nodes.append(rec)
    doc = {"nodes": nodes, "root": tree.root}
    if loglik is not None:
        doc["loglik"] = loglik
    return json.dumps(doc, separators=(",", ":"))


def deserialize(line: str) -> tuple[DecisionTree, float | None]:
    """Decode one serialized tree line; returns (tree, loglik-or-None)."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as e:
        raise TreeFormatError(f"invalid JSON at position {e.pos}: {e.msg}") from e
    try:
        nodes = {}
        for i, rec in enumerate(doc["nodes"]):
            nid = rec["id"]
            if "leaf" in rec:
                counts = rec["leaf"]
                if counts is not None:
                    if not (type(counts) is list and len(counts) == 2
                            and type(counts[0]) is int and type(counts[1]) is int
                            and min(counts) >= 0):
                        raise TreeFormatError(f"leaf {nid} counts {counts!r} are not "
                                              "two non-negative integers")
                    counts = tuple(counts)
                nodes[nid] = TreeNode(nid, counts=counts)
            elif "split" in rec:
                rule = rec["split"]
                var, thr, level = rule["var"], rule.get("thr"), rule.get("level")
                if not (type(var) is int and (
                        type(level) is int if thr is None
                        else type(thr) in (int, float) and isfinite(thr))):
                    raise TreeFormatError(f"split {nid} rule {rule!r} needs an integer var "
                                          "and a finite thr or an integer level")
                sp = SplitRule(var, level=level) if thr is None \
                    else SplitRule(var, threshold=float(thr))
                nodes[nid] = TreeNode(nid, split=sp, left=rec["left"], right=rec["right"])
            else:
                raise TreeFormatError(f"node record {i} is neither split nor leaf")
        tree = DecisionTree(nodes, doc["root"])
    except TreeFormatError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise TreeFormatError(f"malformed tree record: {e}") from e
    return tree, doc.get("loglik")
