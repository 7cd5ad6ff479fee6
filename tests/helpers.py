"""Shared test helpers: hand-built trees, a generator of valid trees, a routing oracle,
a row-bitset oracle, the tree's id queries and the chain state check."""
import json

import numpy as np
from hypothesis import strategies as st

from treebma import DecisionTree, SplitRule, deserialize
from treebma.tree import leaf_rows, log_marginal_likelihood


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


def check_state(state) -> None:
    """Recompute a chain state's loglik, id index and each leaf's rows and counts from its
    tree; raises AssertionError on the first cached value that differs."""
    tree, data = state.current, state.data
    recomputed = log_marginal_likelihood(tree, state.config.dirichlet_alpha)
    if abs(recomputed - state.current_loglik) > 1e-8 * max(1.0, abs(recomputed)):
        raise AssertionError(f"cached loglik {state.current_loglik} drifted from {recomputed}")
    parent = {c: s for s, nd in state.nodes.items() if nd.split for c in (nd.left, nd.right)}
    index = (leaf_ids(tree), split_ids(tree), prunable_ids(tree), parent, tree.ids[-1] + 1)
    cached = (state.leaves, state.splits, state.prunable, state.parent, state.next_id)
    if cached != index:
        raise AssertionError(f"id index {cached} differs from {index}")
    for nid, idx in leaf_rows(tree, data.X).items():
        n1 = int(data.y[idx].sum())
        if (state.rows[nid], state.nodes[nid].counts) != \
                (sum(1 << int(i) for i in idx), (idx.size - n1, n1)):
            raise AssertionError(f"leaf {nid}: rows or counts differ from leaf_rows")


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
