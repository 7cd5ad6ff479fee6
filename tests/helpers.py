"""Shared test helpers: hand-built trees, ensembles and chain records, generators of
valid trees and of records with one fault, a routing oracle, a row-bitset oracle, the
tree's id queries and loglik, the candidate rules, the chain state check, a scripted draw
source, and the posterior oracles' 12 rows with every legal tree on them."""
import json
from math import log

import numpy as np
from hypothesis import strategies as st

from treebma import ChainConfig, DecisionTree, SplitRule, deserialize, serialize
from treebma.bma import ChainRecord, Ensemble, Run
from treebma.dataset import Dataset, Schema, VariableSpec
from treebma.sampler import MOVES
from treebma.tree import candidate_splits, leaf_log_marginal, leaf_rows


def route(tree, x) -> int:
    """Route one feature vector to its leaf, one node at a time; returns the leaf node id."""
    x = np.asarray(x, dtype=np.float64)
    s = tree.root
    while tree.rules[s] is not None:
        rule = tree.rules[s]
        if rule.variable >= x.shape[0]:
            raise ValueError(f"feature vector of arity {x.shape[0]} too short for split on "
                             f"variable {rule.variable}")
        s = tree.left[s] if rule.goes_left(x[rule.variable]) else tree.right[s]
    return tree.ids[s]


def bits(mask: np.ndarray) -> int:
    """A boolean row mask as a Python int whose bit i is row i, packed by numpy."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def leaf_ids(tree) -> list[int]:
    return [nid for nid, rule in zip(tree.ids, tree.rules) if rule is None]


def split_ids(tree) -> list[int]:
    return [nid for nid, rule in zip(tree.ids, tree.rules) if rule is not None]


def prunable_ids(tree) -> list[int]:
    """Split nodes whose both children are leaves, in ascending id order."""
    rules, left, right = tree.rules, tree.left, tree.right
    return [nid for s, nid in enumerate(tree.ids)
            if rules[s] is not None and rules[left[s]] is None and rules[right[s]] is None]


def tree_loglik(tree, alpha: float) -> float:
    """The tree's log marginal likelihood: its leaves' terms summed in slot order."""
    return sum(leaf_log_marginal(*counts, alpha)
               for rule, counts in zip(tree.rules, tree.counts) if rule is None)


def split_rules(data) -> list[list[SplitRule]]:
    """Each variable's candidate rules, one per value of ``candidate_splits``."""
    return [[SplitRule(j, **{"level" if var.is_categorical else "threshold": v})
             for v in values]
            for j, (var, (values, _)) in enumerate(zip(data.schema.variables,
                                                       candidate_splits(data)))]


def oracle_data(v0_last: float = 4.0) -> Dataset:
    """The posterior oracles' 12 rows: v0 continuous in 1..4, v1 categorical with 3 levels.
    Row 12's v0 is ``v0_last``; at 5.0, v0 has 4 candidate values to v1's 3."""
    schema = Schema(
        (VariableSpec("v0", "continuous"), VariableSpec("v1", "categorical", (0, 1, 2))),
        "y",
    )
    X = np.array([
        [1.0, 0], [1.0, 1], [2.0, 0], [2.0, 2], [3.0, 1], [3.0, 0],
        [4.0, 2], [4.0, 1], [1.0, 2], [2.0, 1], [3.0, 2], [v0_last, 0],
    ])
    y = np.array([0, 0, 0, 1, 1, 0, 1, 1, 0, 1, 0, 1])
    return Dataset(schema, X, y, provenance=f"oracle:v0_last={v0_last}")


def legal_trees(data, s_max: int, min_leaf: int = 1, alpha: float = 1.0) -> dict:
    """Every tree on ``data`` with at most ``s_max`` splits and ``min_leaf`` rows per leaf,
    enumerated recursively, as {shape: log posterior weight}. A shape is None for a leaf
    and (rule, left shape, right shape) for a split; the weight is the tree's loglik plus
    -log(m * L_var) per split, the prior stated in the sampler's docstring."""
    rules = [(rule, -log(data.m * len(c))) for c in split_rules(data) for rule in c]

    def grow(rows, budget):  # [(shape, splits used, log weight)] of the subtrees on rows
        n1 = int(data.y[rows].sum())
        trees = [(None, 0, leaf_log_marginal(rows.size - n1, n1, alpha))]
        if not budget:
            return trees
        for rule, log_prior in rules:
            left = rule.goes_left(data.X[rows, rule.variable])
            if min(left.sum(), (~left).sum()) < min_leaf:
                continue
            for ls, lu, lw in grow(rows[left], budget - 1):
                for rs, ru, rw in grow(rows[~left], budget - 1 - lu):
                    trees.append(((rule, ls, rs), 1 + lu + ru, log_prior + lw + rw))
        return trees

    return {shape: w for shape, _, w in grow(np.arange(data.n), s_max)}


class Script:
    """A draw source that gives scripted ``integers(k)`` values, each checked against k,
    and scripted ``random()`` values; a draw past the script raises IndexError."""

    def __init__(self, *values, randoms=()):
        self.values, self.randoms = list(values), list(randoms)

    def integers(self, k):
        value = self.values.pop(0)
        assert 0 <= value < k
        return value

    def random(self):
        return self.randoms.pop(0)


def check_state(state) -> None:
    """Recompute a chain state's loglik, id index, each leaf's rows and counts and each
    split's mask from its tree; raises AssertionError on the first cached value that
    differs."""
    tree, data = state.current, state.data
    recomputed = tree_loglik(tree, state.config.dirichlet_alpha)
    if abs(recomputed - state.current_loglik) > 1e-8 * max(1.0, abs(recomputed)):
        raise AssertionError(f"cached loglik {state.current_loglik} drifted from {recomputed}")
    parent = {c: s for s, nd in state.nodes.items() if nd.split for c in (nd.left, nd.right)}
    index = (leaf_ids(tree), split_ids(tree), prunable_ids(tree), parent)
    cached = (state.leaves, state.splits, state.prunable, state.parent)
    if cached != index:
        raise AssertionError(f"id index {cached} differs from {index}")
    for nid, idx in leaf_rows(tree, data.X).items():
        n1 = int(data.y[idx].sum())
        if (state.rows[nid], state.nodes[nid].counts) != \
                (sum(1 << int(i) for i in idx), (idx.size - n1, n1)):
            raise AssertionError(f"leaf {nid}: rows or counts differ from leaf_rows")
    for nid, node in state.nodes.items():
        if node.split and node.mask != bits(node.split.goes_left(data.X[:, node.split.variable])):
            raise AssertionError(f"split {nid}: mask differs from its rule's left rows")


def chain_record(alpha: float = 1.0) -> ChainRecord:
    """The record of a short chain with leaf prior ``alpha``, for a hand-built ensemble."""
    return ChainRecord(ChainConfig(100, 10, 1, 1, 5, 0, alpha), 8, 2, "hand-built",
                       dict.fromkeys(MOVES, 30), dict.fromkeys(MOVES, 6), 0.01)


def ensemble(trees, logliks, chain=None) -> Ensemble:
    """A hand-built ensemble: consecutive draws of one tree object with equal logliks
    make one run."""
    runs = []
    for tree, ll in zip(trees, logliks, strict=True):
        if runs and runs[-1].tree is tree and runs[-1].loglik == ll:
            runs[-1] = runs[-1]._replace(length=runs[-1].length + 1)
        else:
            runs.append(Run(tree, ll, 1))
    return Ensemble(runs, chain)


def make_tree(nodes: dict, root: int) -> DecisionTree:
    """A tree from ``{id: (rule, left id, right id)}`` for splits and ``{id: (n0, n1)}``
    for leaves, checked as a file record is."""
    records = []
    for nid, node in nodes.items():
        if node and isinstance(node[0], SplitRule):
            rule, *kids = node  # a split without both children stays without them
            records.append({"id": nid, "split": json.loads(rule.json_text),
                            **dict(zip(("left", "right"), kids))})
        else:
            records.append({"id": nid, "leaf": node})
    return deserialize(json.dumps({"nodes": records, "root": root}))[0]


@st.composite
def valid_trees(draw, max_splits=6, min_splits=0, chain_ids=False):
    """A valid tree: arbitrary distinct ids, continuous and categorical splits, any shape.
    With ``chain_ids`` the ids ascend in the order of growth, as the chain's births give
    them: the root has the smallest id and each birth's two children the next ones."""
    n_splits = draw(st.integers(min_splits, max_splits))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=2 * n_splits + 1,
                        max_size=2 * n_splits + 1, unique=True))
    if chain_ids:
        ids.sort()  # gaps stand for the ids of pruned nodes
    leaves, splits = [ids[0]], {}
    for k in range(n_splits):  # grow by turning a leaf into a split with two new leaves
        pick = leaves.pop(draw(st.integers(0, len(leaves) - 1)))
        if draw(st.booleans()):
            rule = SplitRule(draw(st.integers(0, 20)), threshold=draw(
                st.floats(allow_nan=False, allow_infinity=False)))
        else:
            rule = SplitRule(draw(st.integers(0, 20)), level=draw(st.integers(-3, 9)))
        splits[pick] = (rule, ids[2 * k + 1], ids[2 * k + 2])
        leaves += ids[2 * k + 1:2 * k + 3]
    counts = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6))
    nodes = {**{nid: draw(counts) for nid in leaves}, **splits}
    order = draw(st.permutations(list(nodes)))
    return make_tree({nid: nodes[nid] for nid in order}, ids[0])


BAD_INT = ["1", 1.5, True, False, None, [1], {}]
BAD = {  # values of the wrong type (or range) for each kind of field
    "int": BAD_INT,
    "count": [*BAD_INT, -1],
    "thr": ["0.5", True, None, [0.5], float("nan"), float("inf")],
    "loglik": ["-1.5", True, [-1.5], {}, float("nan"), float("-inf")],
    "leaf": [5, "ab", {}, None, [1], [1, 2, 3]],
    "split": [None, [1], "x", 5],
    "nodes": [None, {}, "x", 5, []],
}
EXTRA = ["lvl", "lefft", "weight", "note", "id", "leaf", "split", "left", "var", "thr",
         "level", "nodes", "root", "loglik"]  # keys added to a record, a node or a rule


@st.composite
def mutated_records(draw):
    """A valid record with one fault: a key dropped, a type swapped, a key added that its
    object does not hold (unknown there, or one that makes a leaf a split too, or a rule
    both continuous and categorical), a dangling or repeated child, a cycle or a duplicate
    id."""
    doc = json.loads(serialize(draw(valid_trees(min_splits=1, max_splits=4,
                                                chain_ids=draw(st.booleans()))), loglik=-1.5))
    nodes = doc["nodes"]
    splits = [rec for rec in nodes if "split" in rec]
    kind = draw(st.sampled_from(["drop", "type", "extra", "dangling", "repeated", "cycle",
                                 "duplicate"]))
    if kind == "drop":
        owner, key = draw(st.sampled_from(
            [(doc, key) for key in doc] + [(rec, key) for rec in nodes for key in rec]
            + [(rec["split"], key) for rec in splits for key in rec["split"]]))
        del owner[key]
    elif kind == "type":
        fields = [(doc, "root", "int"), (doc, "loglik", "loglik"), (doc, "nodes", "nodes")]
        for rec in nodes:
            fields.append((rec, "id", "int"))
            if "leaf" in rec:
                fields += [(rec, "leaf", "leaf"), (rec["leaf"], 0, "count"),
                           (rec["leaf"], 1, "count")]
            else:
                sp = rec["split"]
                fields += [(rec, "left", "int"), (rec, "right", "int"), (rec, "split", "split"),
                           (sp, "var", "int"), (sp, "thr", "thr") if "thr" in sp
                           else (sp, "level", "int")]
        owner, key, field = draw(st.sampled_from(fields))
        owner[key] = draw(st.sampled_from(BAD[field]))
    elif kind == "extra":
        owner = draw(st.sampled_from([doc, *nodes, *(rec["split"] for rec in splits)]))
        key = draw(st.sampled_from([key for key in EXTRA if key not in owner]))
        owner[key] = draw(st.sampled_from([2, 0.5, None, [1, 0], {}]))
    else:
        rec = draw(st.sampled_from(splits))
        side, other = draw(st.permutations(["left", "right"]))
        if kind == "dangling":
            rec[side] = max(r["id"] for r in nodes) + draw(st.integers(1, 5))
        elif kind == "repeated":
            rec[side] = rec[other]
        elif kind == "cycle":
            rec[side] = draw(st.sampled_from([doc["root"], rec["id"]]))
        else:
            i, j = draw(st.permutations(range(len(nodes))))[:2]
            nodes[j]["id"] = nodes[i]["id"]
    return json.dumps(doc)
