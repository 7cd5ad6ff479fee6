"""Shared test helpers: hand-built trees, a generator of valid trees and a routing oracle."""
import json

import numpy as np
from hypothesis import strategies as st

from treebma import DecisionTree, SplitRule, deserialize


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


def make_tree(nodes: dict, root: int) -> DecisionTree:
    """A tree from ``{id: (rule, left id, right id)}`` for splits and ``{id: (n0, n1)}``
    (or None, unannotated) for leaves, checked as a file record is."""
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
def valid_trees(draw, max_splits=6, min_splits=0, annotated=True):
    """A valid tree: arbitrary distinct ids, continuous and categorical splits, any shape."""
    n_splits = draw(st.integers(min_splits, max_splits))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=2 * n_splits + 1,
                        max_size=2 * n_splits + 1, unique=True))
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
    if not annotated:
        counts = st.none() | counts
    nodes = {**{nid: draw(counts) for nid in leaves}, **splits}
    order = draw(st.permutations(list(nodes)))
    return make_tree({nid: nodes[nid] for nid in order}, ids[0])
