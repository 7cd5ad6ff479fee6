"""Binary classification trees: structure, leaf statistics, marginal likelihood.

A tree is an immutable flat record, one slot per node in ascending node-id
order: the node id, its :class:`SplitRule` (None for a leaf), the slots of
its left and right children (-1 for a leaf) and its training class counts
(two non-negative integers for a leaf, None for a split), plus the root's
slot. The Dirichlet-multinomial marginal likelihood and the leaf predictive
probabilities are computed from the leaf counts. A record is checked once,
where it enters the program (:func:`deserialize`); the sampler builds its
snapshots valid by construction.

One check reads a record: each node passes :func:`_node` in file order, then the
tree passes :func:`_tree`, which sorts the nodes only when their ids do not ascend,
proves a chain's ordering (ids ascending from the root, each child's above its
parent's) by a few set operations and walks only a tree that ordering does not
prove. Two sources supply the node records: a line in :func:`serialize`'s layout
is cut into node texts, each decoded and checked once per file and then found in a
table of checked node records (a chain's trees differ by one move, so they share
almost all of them); any other line is decoded whole.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress, repeat
from math import isfinite, lgamma
from operator import itemgetter, lt, or_, xor

import numpy as np

from .dataset import Dataset, Schema, _known_keys

__all__ = [
    "TreeFormatError",
    "SplitRule",
    "DecisionTree",
    "leaf_rows",
    "leaf_log_marginal",
    "leaf_predictive",
    "candidate_splits",
    "serialize",
    "deserialize",
]


class TreeFormatError(ValueError):
    """Raised when a tree record is malformed."""


# the keys a record, a leaf node, a split node and a split rule may hold; an object is
# tested with issuperset first, and a missing key is met as a KeyError, so _known_keys
# (which names the keys) runs only on a fault
_RECORD, _LEAF, _SPLIT, _RULE = (set(keys.split()) for keys in (
    "nodes root loglik", "id leaf", "id split left right", "var thr level"))


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
    """Immutable binary tree over feature indices, one slot per node (see the module doc).

    Every leaf carries its class counts ``(n0, n1)``; ``counts`` is None only for splits.
    """

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


def _node(rec: dict, schema: Schema | None, rules: dict) -> tuple:
    """The per-node check: one decoded node record to ``(id, rule, left id, right id,
    counts, ordered)``, a leaf's child ids None, ``ordered`` whether the id is an integer
    below its child ids. Leaf counts must be two non-negative integers; a split needs a
    valid rule and both children as integer ids; a leaf holds no key outside ``_LEAF``,
    a split none outside ``_SPLIT``."""
    try:
        nid = rec["id"]
    except KeyError:
        _known_keys(rec, _LEAF | _SPLIT, "node", ("id",))
        raise
    if "leaf" in rec:
        if len(rec) > 2:  # more than its id and counts
            if "left" in rec or "right" in rec:
                raise TreeFormatError(f"leaf node {nid} may not have children")
            _known_keys(rec, _LEAF, f"leaf {nid}")
        c = rec["leaf"]
        if not (type(c) is list and len(c) == 2 and type(c[0]) is int
                and type(c[1]) is int and c[0] >= 0 and c[1] >= 0):
            raise TreeFormatError(f"leaf {nid} counts {c!r} are not two "
                                  "non-negative integers")
        return nid, None, None, None, (c[0], c[1]), type(nid) is int
    if "split" in rec:
        if not _SPLIT.issuperset(rec):
            _known_keys(rec, _SPLIT, f"split node {nid}")
        rule = _rule(rec["split"], nid, schema, rules)
        kid_l, kid_r = rec.get("left"), rec.get("right")
        if type(kid_l) is not int or type(kid_r) is not int:
            raise TreeFormatError(f"split node {nid} needs both children as integer "
                                  f"ids, not {kid_l!r} and {kid_r!r}")
        return nid, rule, kid_l, kid_r, None, type(nid) is int and nid < min(kid_l, kid_r)
    raise TreeFormatError(f"node {nid} is neither split nor leaf")


def _tree(recs: list, root) -> DecisionTree:
    """The per-tree check of node records (:func:`_node`) and a root id: ids must be
    distinct integers, a split's children and the root must name nodes, and every node
    must be reachable from the root exactly once. The records are sorted only when their
    ids do not ascend. A set proof then gives the tree without a walk: ids ascending from
    the root, each below its children's, and (n - 1) / 2 splits naming n - 1 distinct ids
    as children give each node but the root one parent, of a smaller id, so each is
    reached exactly once. Every line a chain writes passes; any other is diagnosed from
    the same slot map and walked."""
    ids, node_rules, kids_l, kids_r, counts, ordered = tuple(zip(*recs)) or ((),) * 6
    if not (ids and all(ordered)) and set(map(type, ids)) != {int}:  # ordered ids are ints
        raise TreeFormatError(f"node ids {list(ids)!r} are not a non-empty list of integers")
    if not all(map(lt, ids, ids[1:])):  # ascending ids are distinct
        ids, node_rules, kids_l, kids_r, counts, ordered = zip(*sorted(recs, key=itemgetter(0)))
        dup = next((a for a, b in zip(ids, ids[1:]) if a == b), None)
        if dup is not None:
            raise TreeFormatError(f"duplicate node id {dup}")
    slot = dict(zip(ids, range(len(ids))))  # a leaf's and a dangling child's slot: -1
    left, right = (tuple(map(slot.get, kids, repeat(-1))) for kids in (kids_l, kids_r))
    if (all(ordered) and type(root) is int and root == ids[0]
            and 2 * counts.count(None) + 1 == len(ids) == len({*left, *right})):
        return DecisionTree(ids, node_rules, left, right, counts, 0)
    for rule, s_l, s_r, kid_l, kid_r in zip(node_rules, left, right, kids_l, kids_r):
        if rule is not None and min(s_l, s_r) < 0:
            raise TreeFormatError(f"dangling child id {kid_l if s_l < 0 else kid_r}")
    if type(root) is not int or root not in slot:
        raise TreeFormatError(f"root id {root!r} is not a node")
    root = slot[root]
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
    return DecisionTree(ids, node_rules, left, right, counts, root)


def _loglik(doc: dict) -> float | None:
    """A record's ``loglik``, None or a finite number, once its keys are checked."""
    if not _RECORD.issuperset(doc):
        _known_keys(doc, _RECORD, "top level")
    loglik = doc.get("loglik")
    if loglik is not None and not (type(loglik) in (int, float) and isfinite(loglik)):
        raise TreeFormatError(f"loglik {loglik!r} is not a finite number")
    return loglik


def _rule(doc: dict, nid: int, schema: Schema | None, rules: dict) -> SplitRule:
    """The split rule of a decoded record, type-checked, then looked up in ``rules`` or
    built, checked against ``schema`` (its variables and declared levels) and added."""
    if type(doc) is dict and not _RULE.issuperset(doc):
        _known_keys(doc, _RULE, f"split {nid} rule")
    try:
        var, thr, level = doc["var"], doc.get("thr"), doc.get("level")
    except KeyError:
        _known_keys(doc, _RULE, f"split {nid} rule", ("var",))
        raise
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


def leaf_predictive(counts: tuple[int, int], alpha: float) -> tuple[float, float]:
    """Posterior-mean class probabilities ((n0+a)/(n+2a), (n1+a)/(n+2a)), a = alpha."""
    n0, n1 = counts
    if n0 < 0 or n1 < 0:
        raise ValueError("leaf counts must be nonnegative")
    denom = n0 + n1 + 2 * alpha
    return ((n0 + alpha) / denom, (n1 + alpha) / denom)


def _column_splits(var, x: np.ndarray, row_bits: list[int]) -> tuple[list, list[int]]:
    """One variable's split values and left-row bitsets (see :func:`candidate_splits`)."""
    rows = np.argsort(x)
    ranked = x[rows]
    lasts = np.append(ranked[1:] != ranked[:-1], True)  # a value's last row
    zeros = np.signbit(x[x == 0])
    values = (np.unique(x) if zeros.any() and not zeros.all() else ranked[lasts]).tolist()
    # the prefix at each value's last row; compress frees the others as the OR runs
    prefix = list(compress(accumulate(map(row_bits.__getitem__, rows.tolist()), or_), lasts))
    return ((list(map(int, values)), list(map(xor, prefix, [0, *prefix[:-1]])))
            if var.is_categorical and len(prefix) > 1 else (values[:-1], prefix[:-1]))


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
    row_bits = [1 << r for r in range(data.n)]
    return [_column_splits(var, data.X[:, j], row_bits)
            for j, var in enumerate(data.schema.variables)]


# ---------------------------------------------------------------------------
# One-line JSON serialization (ensemble file format)
# ---------------------------------------------------------------------------

_HEAD, _NEXT, _TAIL = '{"nodes":[{"id":', '},{"id":', '}],"root":'  # the line layout
# (value, end) of the JSON value at an index; StopIteration where no value starts
_scan = json.JSONDecoder().scan_once


def serialize(tree: DecisionTree, loglik: float | None = None) -> str:
    """Encode a tree as a single JSON line, optionally with its train loglik: what
    ``json.dumps`` with compact separators gives for ``{"nodes": [...], "root": id,
    "loglik": x}``, nodes in ascending id order, laid out as ``_HEAD``, the node texts
    joined by ``_NEXT``, ``_TAIL``, the root id, the loglik member and ``}``."""
    ids, parts = tree.ids, []
    for nid, rule, left, right, counts in zip(ids, tree.rules, tree.left, tree.right,
                                              tree.counts):
        if rule is not None:
            parts.append(f'{nid},"split":{rule.json_text},"left":{ids[left]},'
                         f'"right":{ids[right]}')
        else:
            parts.append(f'{nid},"leaf":[{counts[0]},{counts[1]}]')
    tail = "" if loglik is None else f',"loglik":{json.dumps(loglik)}'
    return f'{_HEAD}{_NEXT.join(parts)}{_TAIL}{ids[tree.root]}{tail}}}'


def _compact(line: str, schema: Schema | None, rules: dict, nodes: dict) -> tuple | None:
    """The node records, root id and decoded tail of a line in :func:`serialize`'s layout:
    each node's text (between ``{"id":`` and ``}``) is looked up in ``nodes``, the file's
    table of checked node records, and decoded and checked (:func:`_node`) only when
    missing. None when a piece or the tail does not decode or the tail repeats ``"nodes"``.

    Sound: ``_NEXT`` cannot lie inside a JSON string, and where it lies inside a
    node, the text before it has an unclosed bracket and does not decode. So when
    every piece and the tail decode, the line is ``_HEAD``, the pieces joined by
    ``_NEXT``, ``_TAIL`` and the tail, and the whole-line decoder reads the same values,
    unless the tail repeats ``"nodes"``. Pieces are checked only once all decode."""
    body, cut, tail = line.rpartition(_TAIL)
    if not cut:
        return None
    pieces = body[len(_HEAD):].split(_NEXT)
    recs = list(map(nodes.get, pieces))
    fresh = {}  # piece index: decoded record, of the pieces the table does not hold
    try:
        tail = json.loads('{"root":' + tail)
        for i, piece in enumerate(pieces):
            if recs[i] is None:
                text = '{"id":' + piece + '}'
                fresh[i], end = _scan(text, 0)
                if end != len(text):
                    return None
    except (ValueError, RecursionError, StopIteration):  # not JSON; too deep; no value
        return None
    if "nodes" in tail:
        return None
    for i, rec in fresh.items():
        recs[i] = nodes[pieces[i]] = _node(rec, schema, rules)
    return recs, tail["root"], tail


def deserialize(line: str, schema: Schema | None = None, rules: dict | None = None,
                nodes: dict | None = None) -> tuple[DecisionTree, float | None]:
    """Decode one serialized tree line; returns (tree, loglik-or-None).

    ``rules`` interns split rules across the lines of one file: a rule is
    type-checked on every occurrence, and built and checked against
    ``schema`` (when given) only the first time. ``nodes`` is the file's
    table of checked node records (see the module doc).
    """
    rules, nodes = ({} if rules is None else rules), ({} if nodes is None else nodes)
    try:
        found = line.startswith(_HEAD) and _compact(line, schema, rules, nodes)
        if not found:
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                raise TreeFormatError(f"invalid JSON at position {e.pos}: {e.msg}") from e
            except (RecursionError, ValueError) as e:  # nested too deep; an integer too long
                raise TreeFormatError(f"invalid JSON: {e}") from None
            try:
                found = [_node(rec, schema, rules) for rec in doc["nodes"]], doc["root"], doc
            except KeyError:  # _node and _rule name the keys their records miss
                _known_keys(doc, _RECORD, "top level", ("nodes", "root"))
                raise
        recs, root, doc = found
        return _tree(recs, root), _loglik(doc)
    except TreeFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise TreeFormatError(f"malformed tree record: {e}") from e
