"""Binary classification trees: structure, leaf statistics, marginal likelihood.

A tree is an immutable flat record, one slot per node in ascending node-id
order: the node id, its :class:`SplitRule` (None for a leaf), the slots of
its left and right children (-1 for a leaf) and its training class counts
(None for a split, or for a leaf that was never annotated), plus the root's
slot. The Dirichlet-multinomial marginal likelihood and the leaf predictive
probabilities are computed from the leaf counts. A record is checked once,
where it enters the program (:func:`deserialize`); the sampler builds its
snapshots valid by construction.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress
from math import isfinite, lgamma
from operator import itemgetter, lt, or_, xor

import numpy as np

from .dataset import Dataset, Schema

__all__ = [
    "TreeFormatError",
    "SplitRule",
    "DecisionTree",
    "leaf_rows",
    "log_marginal_likelihood",
    "leaf_log_marginal",
    "leaf_predictive",
    "candidate_splits",
    "candidate_rules",
    "serialize",
    "deserialize",
]


class TreeFormatError(ValueError):
    """Raised when a tree record is malformed."""


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

    @cached_property  # once per rule object: rules are shared by the trees of a chain or file
    def json_text(self) -> str:
        """The rule as its ensemble-file record, as ``json.dumps`` writes it."""
        return json.dumps({"var": self.variable, "level": self.level} if self.level is not None
                          else {"var": self.variable, "thr": self.threshold},
                          separators=(",", ":"))

    def goes_left(self, value):
        """The rule's test, elementwise: a scalar gives a bool, a column a boolean mask."""
        if self.level is not None:
            return value == self.level
        return value <= self.threshold


@dataclass(frozen=True)
class DecisionTree:
    """Immutable binary tree over feature indices, one slot per node (see the module doc)."""

    ids: tuple[int, ...]
    rules: tuple[SplitRule | None, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    counts: tuple[tuple[int, int] | None, ...]
    root: int

    @property
    def k_leaves(self) -> int:
        return len(self.rules) - self.n_splits

    @property
    def n_splits(self) -> int:
        return sum(map(bool, self.rules))  # a rule is truthy, None is not

    def variables_used(self) -> list[int]:
        return [rule.variable for rule in self.rules if rule is not None]


def _tree(doc: dict, schema: Schema | None, rules: dict) -> DecisionTree:
    """The tree of a decoded record. Ids must be distinct integers, a split's children and
    the root must name nodes, every node must be reachable from the root exactly once, and
    leaf counts must be None or two non-negative integers."""
    recs = doc["nodes"]
    ids = [rec["id"] for rec in recs]
    if set(map(type, ids)) != {int}:
        raise TreeFormatError(f"node ids {ids!r} are not a non-empty list of integers")
    if not all(map(lt, ids, ids[1:])):
        recs, ids = sorted(recs, key=itemgetter("id")), sorted(ids)
        dup = next((a for a, b in zip(ids, ids[1:]) if a == b), None)
        if dup is not None:
            raise TreeFormatError(f"duplicate node id {dup}")
    slot = dict(zip(ids, range(len(ids))))
    nodes = []  # per slot: (rule, left slot, right slot, counts)
    for nid, rec in zip(ids, recs):
        if "leaf" in rec:
            if len(rec) > 2 and ("left" in rec or "right" in rec):
                raise TreeFormatError(f"leaf node {nid} may not have children")
            c = rec["leaf"]
            if c is not None:
                if not (type(c) is list and len(c) == 2 and type(c[0]) is int
                        and type(c[1]) is int and c[0] >= 0 and c[1] >= 0):
                    raise TreeFormatError(f"leaf {nid} counts {c!r} are not two "
                                          "non-negative integers")
                c = (c[0], c[1])
            nodes.append((None, -1, -1, c))
        elif "split" in rec:
            rule = _rule(rec["split"], nid, schema, rules)
            kid_l, kid_r = rec.get("left"), rec.get("right")
            if type(kid_l) is not int or type(kid_r) is not int:
                raise TreeFormatError(f"split node {nid} needs both children as integer "
                                      f"ids, not {kid_l!r} and {kid_r!r}")
            if kid_l not in slot or kid_r not in slot:
                raise TreeFormatError(f"dangling child id {kid_r if kid_l in slot else kid_l}")
            nodes.append((rule, slot[kid_l], slot[kid_r], None))
        else:
            raise TreeFormatError(f"node {nid} is neither split nor leaf")
    root = doc["root"]
    if type(root) is not int or root not in slot:
        raise TreeFormatError(f"root id {root!r} is not a node")
    root = slot[root]
    node_rules, left, right, counts = zip(*nodes)
    # Distinct children that exclude the root give each other node at most one
    # parent, so the walk below reaches no node twice and always ends.
    kids = [s for s in left + right if s >= 0]
    if len(set(kids)) != len(kids) or root in kids:
        twice = root if root in kids else next(s for s in kids if kids.count(s) > 1)
        raise TreeFormatError(f"node {ids[twice]} reachable twice (not a tree)")
    reached, stack = 0, [root]
    while stack:
        s = stack.pop()
        reached += 1
        if left[s] >= 0:
            stack += (left[s], right[s])
    if reached != len(ids):
        raise TreeFormatError("unreachable nodes present")
    return DecisionTree(tuple(ids), node_rules, left, right, counts, root)


def _rule(doc: dict, nid: int, schema: Schema | None, rules: dict) -> SplitRule:
    """The split rule of a decoded record, type-checked, then looked up in ``rules`` or
    built, checked against ``schema`` (its variables and declared levels) and added."""
    var, thr, level = doc["var"], doc.get("thr"), doc.get("level")
    if "thr" in doc and "level" in doc:
        raise TreeFormatError(f"split {nid} rule {doc!r} has both thr and level")
    if not (type(var) is int and (type(level) is int if thr is None
                                  else type(thr) in (int, float) and isfinite(thr))):
        raise TreeFormatError(f"split {nid} rule {doc!r} needs an integer var "
                              "and a finite thr or an integer level")
    key = (var, repr(thr) if thr == 0 else thr, level)  # 1 != true (types checked); -0.0 != 0.0
    rule = rules.get(key)
    if rule is None:
        rule = SplitRule(var, level=level) if thr is None \
            else SplitRule(var, threshold=float(thr))
        if schema is not None:
            if var >= schema.m:
                raise TreeFormatError(f"split on variable {var}, but the schema "
                                      f"has {schema.m} variables")
            spec = schema.variables[var]
            if level is not None and level not in (spec.levels or ()):
                raise TreeFormatError(f"split on level {level} of variable {var} "
                                      f"({spec.name!r}), which the schema does not declare")
        rules[key] = rule
    return rule


def leaf_rows(tree: DecisionTree, X: np.ndarray) -> dict[int, np.ndarray]:
    """Partition the row indices of X by the leaf they reach: leaf id -> row indices,
    leaves in depth-first order, right child first."""
    out: dict[int, np.ndarray] = {}
    stack = [(tree.root, np.arange(X.shape[0]))]
    while stack:
        s, idx = stack.pop()
        rule = tree.rules[s]
        if rule is None:
            out[tree.ids[s]] = idx
        else:
            go_left = rule.goes_left(X[idx, rule.variable])
            stack.append((tree.left[s], idx[go_left]))
            stack.append((tree.right[s], idx[~go_left]))
    return out


def leaf_log_marginal(n0: int, n1: int, alpha: float) -> float:
    """log[ B(n0+a, n1+a) / B(a, a) ], the one-leaf Dirichlet-multinomial marginal."""
    return (
        lgamma(n0 + alpha) + lgamma(n1 + alpha) - lgamma(n0 + n1 + 2 * alpha)
        - 2 * lgamma(alpha) + lgamma(2 * alpha)
    )


def log_marginal_likelihood(tree: DecisionTree, alpha: float) -> float:
    """Sum of per-leaf Dirichlet-multinomial log marginals over a tree with leaf counts."""
    total = 0.0
    for nid, rule, counts in zip(tree.ids, tree.rules, tree.counts):
        if rule is not None:
            continue
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


def candidate_splits(data: Dataset) -> list[tuple[list, list[int]]]:
    """Each variable's admissible split values, ascending, with each one's left-row
    bitset (bit i is row i), from one sort of each column.

    Continuous: every distinct observed value but the largest, so both children are
    reachable; its rows are a prefix of the sorted rows, read from one cumulative OR.
    Categorical: every declared level present in the data; its rows are the XOR of
    two prefixes. A constant column has none. Each value is the one ``np.unique``
    keeps: equal values other than 0.0 and -0.0 share one bit pattern, and a column
    holding both zeros takes its zero from ``np.unique``.
    """
    order = np.argsort(data.X, axis=0)
    ranked = np.take_along_axis(data.X, order, axis=0)
    last = np.vstack([ranked[1:] != ranked[:-1], np.ones(data.m, bool)])  # a value's last row
    row_bits = [1 << r for r in range(data.n)]
    splits = []
    sorted_rows = zip(data.schema.variables, order.T.tolist(), last.T.tolist())
    for j, (var, rows, lasts) in enumerate(sorted_rows):
        zeros = np.signbit(data.X[data.X[:, j] == 0, j])
        values = (np.unique(data.X[:, j]) if zeros.any() and not zeros.all()
                  else ranked[last[:, j], j]).tolist()
        # the prefix at each value's last row; compress frees the others as the OR runs
        prefix = list(compress(accumulate(map(row_bits.__getitem__, rows), or_), lasts))
        splits.append((list(map(int, values)), list(map(xor, prefix, [0, *prefix[:-1]])))
                      if var.is_categorical and len(prefix) > 1 else (values[:-1], prefix[:-1]))
    return splits


def candidate_rules(data: Dataset, variable: int) -> list[SplitRule]:
    """Admissible split rules for one variable, one per value of :func:`candidate_splits`."""
    if not 0 <= variable < data.m:
        raise ValueError(f"variable index {variable} out of range")
    kind = "level" if data.schema.variables[variable].is_categorical else "threshold"
    return [SplitRule(variable, **{kind: v}) for v in candidate_splits(data)[variable][0]]


# ---------------------------------------------------------------------------
# One-line JSON serialization (ensemble file format)
# ---------------------------------------------------------------------------

def serialize(tree: DecisionTree, loglik: float | None = None) -> str:
    """Encode a tree as a single JSON line, optionally with its train loglik.

    The line is what ``json.dumps`` with compact separators gives for
    ``{"nodes": [...], "root": id, "loglik": x}``, nodes in ascending id order.
    """
    ids, parts = tree.ids, []
    for nid, rule, left, right, counts in zip(ids, tree.rules, tree.left, tree.right,
                                              tree.counts):
        if rule is not None:
            parts.append(f'{{"id":{nid},"split":{rule.json_text},"left":{ids[left]},'
                         f'"right":{ids[right]}}}')
        elif counts is None:
            parts.append(f'{{"id":{nid},"leaf":null}}')
        else:
            parts.append(f'{{"id":{nid},"leaf":[{counts[0]},{counts[1]}]}}')
    tail = "" if loglik is None else f',"loglik":{json.dumps(loglik)}'
    return f'{{"nodes":[{",".join(parts)}],"root":{ids[tree.root]}{tail}}}'


def deserialize(line: str, schema: Schema | None = None,
                rules: dict | None = None) -> tuple[DecisionTree, float | None]:
    """Decode one serialized tree line; returns (tree, loglik-or-None).

    ``rules`` interns split rules across the lines of one file: a rule is
    type-checked on every occurrence, and built and checked against
    ``schema`` (when given) only the first time.
    """
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as e:
        raise TreeFormatError(f"invalid JSON at position {e.pos}: {e.msg}") from e
    except (RecursionError, ValueError) as e:  # nested too deep; an integer too long
        raise TreeFormatError(f"invalid JSON: {e}") from None
    try:
        tree = _tree(doc, schema, {} if rules is None else rules)
        loglik = doc.get("loglik")
        if loglik is not None and not (type(loglik) in (int, float) and isfinite(loglik)):
            raise TreeFormatError(f"loglik {loglik!r} is not a finite number")
    except TreeFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise TreeFormatError(f"malformed tree record: {e}") from e
    return tree, loglik
