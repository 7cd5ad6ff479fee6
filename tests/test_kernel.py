"""The chain's exact transition kernel, built without sampling, and ``mh_step``'s accept test.

On the 12 oracle rows with row 12's v0 set to 5.0 (so v0 has 4 candidate values and v1
has 3: with equal counts a wrong prior ratio of a change move cancels out of sight),
``min_leaf`` 1 and ``s_max`` 3 (and ``min_leaf`` 2 and 3 at ``s_max`` 3 and 2, where
``min_leaf`` refuses proposals), every reachable tree's row of the kernel K is built from
every draw path of every move: a path is one outcome of each ``integers(k)`` call that
``propose`` makes, weighing 1/4 x prod(1/k), and its proposal, if it passes ``min_leaf``,
moves with probability min(1, exp(log alpha)) to the tree that ``_apply`` makes of a copy
of the state. The checks: K's rows sum to 1, K holds detailed balance with the posterior
that the sampler's docstring states (recomputed by ``helpers.legal_trees``), and the
reachable trees are exactly the legal ones.
"""
from collections import Counter
from dataclasses import replace
from math import exp, fsum, prod

import numpy as np
import pytest

from treebma import ChainConfig
from treebma.sampler import MOVES, _apply, init_chain, mh_step, propose
from treebma.tree import candidate_splits

from helpers import Script, legal_trees, oracle_data

S_MAX = 3


def _shape(nodes, nid=0):
    """A chain state's tree as ``legal_trees`` keys it: None for a leaf, else (rule, left
    shape, right shape)."""
    node = nodes[nid]
    if node.split is None:
        return None
    return (node.split, _shape(nodes, node.left), _shape(nodes, node.right))


def _copy(state):
    """A state that ``_apply`` may change without touching ``state``: fresh tree and index
    containers; the dataset, candidate tables, leaf-term memo and counters are shared."""
    return replace(state, nodes=dict(state.nodes), rows=dict(state.rows),
                   leaves=list(state.leaves), splits=list(state.splits),
                   prunable=list(state.prunable), parent=dict(state.parent))


class _Paths:
    """A draw source that answers ``prefix`` and then 0, recording each k it is asked."""

    def __init__(self, prefix):
        self.prefix, self.ks = prefix, []

    def integers(self, k):
        depth = len(self.ks)
        self.ks.append(k)
        return self.prefix[depth] if depth < len(self.prefix) else 0


def proposal_paths(state, kind):
    """Every draw path of ``propose(state, kind, .)``: (its integers values, their
    probability, the proposal or None)."""
    todo = [()]
    while todo:
        prefix = todo.pop()
        rng = _Paths(prefix)
        prop = propose(state, kind, rng)
        path = prefix + (0,) * (len(rng.ks) - len(prefix))
        for depth in range(len(prefix), len(rng.ks)):  # the paths that branch off here
            todo += [path[:depth] + (v,) for v in range(1, rng.ks[depth])]
        yield path, prod(1 / k for k in rng.ks), prop


def _log_alpha(state, prop):
    return (prop.loglik - state.current_loglik) + prop.log_ratio


def build_kernel(data, s_max, min_leaf=1):
    """{shape: Counter({next shape: probability})} over every tree reachable from the
    chain's start, and one chain state per shape."""
    start = init_chain(data, ChainConfig(min_leaf=min_leaf, s_max=s_max, seed=0))
    states, todo, kernel = {_shape(start.nodes): start}, [start], {}
    while todo:
        state = todo.pop()
        here = _shape(state.nodes)
        row = kernel[here] = Counter()
        for kind in MOVES:
            for _, p, prop in proposal_paths(state, kind):
                p /= len(MOVES)
                if prop is None or not prop.min_leaf_ok:
                    row[here] += p
                    continue
                accept = min(1.0, exp(_log_alpha(state, prop)))
                moved = _copy(state)
                _apply(moved, prop)
                there = _shape(moved.nodes)
                row[there] += p * accept
                row[here] += p * (1.0 - accept)
                if there not in states:
                    states[there] = moved
                    todo.append(moved)
    return kernel, states


@pytest.fixture(scope="module")
def data():
    data = oracle_data(v0_last=5.0)
    assert [len(values) for values, _ in candidate_splits(data)] == [4, 3]
    return data


@pytest.fixture(scope="module")
def kernel(data):
    return build_kernel(data, S_MAX)


@pytest.mark.parametrize("min_leaf, s_max, n_legal", [(1, S_MAX, 494), (2, 3, 186), (3, 2, 28)],
                         ids=["min-leaf-1", "min-leaf-2", "min-leaf-3"])
def test_kernel_is_exact(data, kernel, min_leaf, s_max, n_legal):
    """Rows sum to 1; pi(T) K(T, T') = pi(T') K(T', T) for every pair, to 1e-12 relative,
    with pi the stated posterior; the reachable trees are the n_legal legal ones (those
    with at most s_max splits and min_leaf rows in every leaf)."""
    K, _ = kernel if (min_leaf, s_max) == (1, S_MAX) else build_kernel(data, s_max, min_leaf)
    log_pi = legal_trees(data, s_max, min_leaf)
    assert len(log_pi) == n_legal
    assert set(K) == set(log_pi)  # irreducible: every legal tree is reached, nothing else
    top = max(log_pi.values())
    pi = {shape: exp(w - top) for shape, w in log_pi.items()}
    worst_row = max(abs(fsum(row.values()) - 1.0) for row in K.values())
    assert worst_row < 1e-12, f"a row of K sums to 1 +- {worst_row:.3g}"
    worst, pair = 0.0, None
    for a, row in K.items():
        for b, p in row.items():
            forward, back = pi[a] * p, pi[b] * K[b][a]
            gap = abs(forward - back) / max(forward, back)
            if gap > worst:
                worst, pair = gap, (a, b)
    assert worst < 1e-12, f"detailed balance fails by {worst:.3g} between {pair}"


def test_mh_step_accepts_below_alpha_only(kernel):
    """On every draw path of a few kernel states, ``mh_step`` with a scripted accept draw
    just below exp(log alpha) moves to the proposal's tree, and with one just above it
    stays; with log alpha >= 0 it moves without an accept draw, and a proposal that is
    inapplicable or breaks min_leaf stays without one."""
    _, states = kernel
    checked = Counter()
    for state in list(states.values())[::100]:
        here = _shape(state.nodes)
        for move, kind in enumerate(MOVES):
            for path, _, prop in proposal_paths(state, kind):
                if prop is None or not prop.min_leaf_ok:
                    cases = [((), False)]
                else:
                    log_alpha = _log_alpha(state, prop)
                    u = np.exp(log_alpha)
                    cases = [((), True)] if log_alpha >= 0 else \
                        [((np.nextafter(u, 0.0),), True), ((np.nextafter(u, 2.0),), False)]
                for accept_draw, moves in cases:
                    script = Script(*path, randoms=((move + 0.5) / len(MOVES), *accept_draw))
                    stepped = replace(_copy(state), accept_counts=dict.fromkeys(MOVES, 0),
                                      propose_counts=dict.fromkeys(MOVES, 0))
                    mh_step(stepped, script)
                    assert not (script.values or script.randoms), "a scripted draw unused"
                    assert stepped.accept_counts[kind] == moves
                    if moves:
                        target = _copy(state)
                        _apply(target, prop)
                        assert _shape(stepped.nodes) == _shape(target.nodes)
                    else:
                        assert _shape(stepped.nodes) == here
                    checked[len(accept_draw), moves] += 1
    # every branch of the accept test was met: no draw (rejection or log alpha >= 0),
    # and a draw just below or just above
    assert set(checked) == {(0, False), (0, True), (1, True), (1, False)}
