"""Reversible-jump MCMC over classification trees.

The chain targets the product of the Dirichlet-multinomial marginal likelihood
and the structural prior P(T) proportional to the product, over the splits of
T, of 1/(m * L_var): each split's variable is uniform over the m features and
its rule uniform over that variable's L_var candidate rules, and every tree
shape with s splits (left and right children told apart) weighs the same. The
prior is therefore not uniform over sizes: before ``s_max`` and ``min_leaf``
cut it, the mass on s splits grows like the Catalan numbers 1, 1, 2, 5, 14, ...
(times (m'/m)**s when only m' variables admit a rule). Each step proposes one
of four equiprobable moves: birth, death, change_split, change_rule.
Birth/death are mutually reverse dimension changes; the change moves rework
one split in place. A split's prior 1/(m * L_var) is the probability of the draws that
propose it, so it cancels in every move (Denison, Mallick & Smith 1998): the acceptance
ratio is the likelihood ratio times k/d (birth), d/k (death) or 1 (changes), with k the
smaller tree's leaves and d the larger one's prunable splits. The chain starts with a
birth from the single-leaf tree. Its candidate values and their row bitsets come from one
sort per column (:func:`~treebma.tree.candidate_splits`); a rule object is built when
a move that uses it is applied.

Proposals that are inapplicable (death on a single leaf, birth past s_max,
empty candidate list) or that produce a leaf below ``min_leaf`` count as
automatic rejections, keeping the per-step proposal distribution fixed. A
proposal is a delta over the chain state (row bitsets and an id index, see
:class:`ChainState`), committed in place only on acceptance. The step checks
nothing: the tests recompute the loglik, the id index and every leaf's rows
from the tree after each accepted move (``tests/helpers.py``).

:func:`propose` dispatches through one move table. A change move first splits
the picked node's rows by the new rule and rejects if either child is below
``min_leaf`` (where most of them fail), then walks the subtree below once. A
node whose rows the rule leaves as they are heads an unchanged subtree, whose
leaf counts are read, not recounted, and whose splits are not re-checked; the
delta names only nodes whose rows change. Leaf terms are plain lookups in a
per-chain memo (:class:`_Terms`) that calls :func:`leaf_log_marginal` on a miss,
once per distinct leaf counts. :func:`run_chain` returns the collected trees, in
runs, with the chain's :class:`~treebma.bma.ChainRecord` (its move counts give the rates).

The chain's draws are exactly numpy's ``default_rng(seed)`` sequence of
``random()`` and ``integers(k)`` values, read through a buffered reader of the
raw PCG64 stream (:class:`_Draws`), so a seed gives the same output bytes as
earlier versions on the same numpy.
"""
from __future__ import annotations

import time
from bisect import insort
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain
from math import log
from typing import NamedTuple

import numpy as np

from .dataset import Dataset
from .bma import ChainConfig, ChainRecord, Ensemble, Run
from .tree import (
    DecisionTree,
    SplitRule,
    candidate_splits,
    leaf_log_marginal,
)

__all__ = [
    "MOVES",
    "ChainState",
    "Proposal",
    "init_chain",
    "propose",
    "mh_step",
    "run_chain",
    "chain_diagnostics",
]

MOVES = ("birth", "death", "change_split", "change_rule")


def default_s_max(n: int, min_leaf: int) -> int:
    """Split-count cap implied by the leaf-occupancy constraint."""
    return max(1, n // min_leaf - 1)


class _Draws:
    """``np.random.default_rng(seed)``'s ``random()`` and ``integers(k)`` values, in order.

    numpy's Generator costs about a microsecond per scalar call; this reads the same
    PCG64 stream from blocks of raw 64-bit outputs and applies numpy's own
    conversions: ``random()`` is the top 53 bits times 2**-53, and ``integers(k)``
    is Lemire's bounded method (Lemire 2019, ACM TOMACS 29(1):3) on 32-bit draws,
    each 64-bit output giving its low half first and keeping its high half for the
    next 32-bit draw (``random()`` leaves that kept half alone). ``integers(1)`` is
    0 and draws nothing. Valid for 1 <= k <= 2**32, which covers every draw of the
    chain; ``tests/test_sampler.py`` checks the values against numpy's.
    """

    __slots__ = ("_next64", "_half")

    def __init__(self, seed: int):
        bits = np.random.PCG64(seed)  # what default_rng(seed) wraps
        # an endless iterator of Python ints, refilled 1,024 outputs at a time
        self._next64 = chain.from_iterable(
            iter(lambda: bits.random_raw(1024).tolist(), None)).__next__
        self._half = None

    def random(self) -> float:
        return (self._next64() >> 11) * 2**-53

    def _next32(self) -> int:
        half = self._half
        if half is None:
            x = self._next64()
            self._half = x >> 32
            return x & 0xFFFFFFFF
        self._half = None
        return half

    def integers(self, k: int) -> int:
        if k == 1:
            return 0
        half = self._half  # _next32, inline for the first draw
        if half is None:
            x = self._next64()
            self._half = x >> 32
            m = (x & 0xFFFFFFFF) * k
        else:
            self._half = None
            m = half * k
        if m & 0xFFFFFFFF < k:
            threshold = (0x100000000 - k) % k
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * k
        return m >> 32


# The chain's node: a split (rule, the rows it sends left, child ids; counts None) or a
# leaf (class counts only).
_Node = namedtuple("_Node", "split mask left right counts")


class _Terms(dict):
    """leaf_log_marginal(n0, n1, alpha) by leaf counts (n0, n1), computed on first lookup.

    A hit is a plain dict lookup and the same float; a miss calls
    ``leaf_log_marginal`` through this module's global, once per distinct counts.
    """

    __slots__ = ("alpha",)

    def __init__(self, alpha: float):
        super().__init__()
        self.alpha = alpha

    def __missing__(self, counts: tuple[int, int]) -> float:
        term = self[counts] = leaf_log_marginal(*counts, self.alpha)
        return term


@dataclass
class ChainState:
    """The chain's position: one tree, changed in place on each accepted move.

    ``nodes`` stays in ascending id order (a replaced node keeps its slot, new
    ids are appended), so the i-th id of the sorted lists ``leaves``,
    ``splits`` and ``prunable`` (splits with two leaf children) is the i-th
    such node of the dict. The root is node 0 in the first slot: a move may
    rewrite it in place but never deletes it. ``parent`` maps each non-root id
    to its parent; a birth's children take the two ids after the largest.
    ``values[j]`` are variable j's candidate thresholds or levels, and
    ``rules[j][i]`` is the one :class:`SplitRule` of ``values[j][i]``, shared by
    the chain's trees (None until a move that uses it is applied). Row sets are
    bitsets (bit i is row i): ``rows`` holds every node's, ``masks[j][i]`` the rows
    that ``values[j][i]`` sends left (a split's node holds its rule's beside the
    rule), ``ones`` the rows with y = 1.
    ``terms`` memoises :func:`leaf_log_marginal` by leaf counts (n0, n1) (see :class:`_Terms`).
    ``config`` has ``s_max`` resolved; ``current_loglik`` is the current tree's loglik.
    """

    data: Dataset
    config: ChainConfig
    values: tuple[list, ...]
    masks: tuple[list[int], ...]
    rules: list[list[SplitRule | None]]
    ones: int
    nodes: dict[int, _Node]
    rows: dict[int, int]
    leaves: list[int]
    terms: _Terms
    current_loglik: float = 0.0
    splits: list[int] = field(default_factory=list)
    prunable: list[int] = field(default_factory=list)
    parent: dict[int, int] = field(default_factory=dict)
    propose_counts: dict[str, int] = field(default_factory=lambda: {mv: 0 for mv in MOVES})
    accept_counts: dict[str, int] = field(default_factory=lambda: {mv: 0 for mv in MOVES})

    @property
    def current(self) -> DecisionTree:
        """The tree as a record; valid by construction, so nothing is checked."""
        slot = {nid: s for s, nid in enumerate(self.nodes)}
        slot[None] = -1  # a leaf's children
        rules, _, left, right, counts = zip(*self.nodes.values())
        return DecisionTree(tuple(self.nodes), rules, tuple(map(slot.__getitem__, left)),
                            tuple(map(slot.__getitem__, right)), counts, 0)  # root: node 0


class Proposal(NamedTuple):
    """A move's log ratio (prior times proposal), candidate loglik and committing delta.

    ``delta`` is (node id, the new rule's (variable, value index) or None, its left-row
    mask, changed (id, rows) pairs, changed leaf (id, counts) pairs); a death has no rule
    or mask. It fits only the unchanged state it was drawn from, and drawing it writes
    nothing to the state but leaf terms to the memo.
    """

    kind: str
    log_ratio: float
    loglik: float
    min_leaf_ok: bool
    delta: tuple | None


# Returned as soon as a child falls below min_leaf, before any count or marginal.
_REJECTED = {mv: Proposal(mv, 0.0, 0.0, False, None) for mv in MOVES}


def _loglik(state: ChainState, old: list, new: list) -> float:
    """current_loglik - the ``old`` leaf terms + the ``new`` ones, one at a time in order."""
    terms, loglik = state.terms, state.current_loglik
    for counts in old:
        loglik -= terms[counts]
    for counts in new:
        loglik += terms[counts]
    return loglik


def init_chain(data: Dataset, config: ChainConfig, rng=None) -> ChainState:
    """Start the chain with a birth from the single-leaf tree.

    Retries the birth move up to a bound until its split satisfies
    ``min_leaf``; stays at the single leaf if no valid draw is found. ``rng`` is
    any source with ``random()`` and ``integers(k)`` (a numpy Generator will do);
    by default the draws of ``default_rng(config.seed)``.
    """
    if rng is None:
        rng = _Draws(config.seed)
    if config.s_max is None:
        config = replace(config, s_max=default_s_max(data.n, config.min_leaf))
    values, masks = zip(*candidate_splits(data))
    if not any(values):
        raise ValueError("no variable admits any split rule")

    all_rows = (1 << data.n) - 1
    ones = sum(map((1).__lshift__, np.flatnonzero(data.y).tolist()))
    state = ChainState(data, config, values, masks, [[None] * len(v) for v in values], ones,
                       nodes={}, rows={0: all_rows}, leaves=[0],
                       terms=_Terms(config.dirichlet_alpha))
    root_counts = (data.n - ones.bit_count(), ones.bit_count())
    state.nodes[0] = _Node(None, None, None, None, root_counts)
    state.current_loglik = state.terms[root_counts]
    for _ in range(100):
        birth = _propose_birth(state, rng)
        if birth is not None and birth.min_leaf_ok:
            # birth.loglik is (root - root) + left + right, which is left + right exactly
            _apply(state, birth)
            break
    return state


def propose(state: ChainState, kind: str, rng) -> Proposal | None:
    """Draw one proposal of the given kind; None if the move is inapplicable."""
    move = _PROPOSALS.get(kind)
    if move is None:
        raise ValueError(f"unknown move kind {kind!r}")
    return move(state, rng)


def _propose_birth(state: ChainState, rng) -> Proposal | None:
    leaves, prunable, values = state.leaves, state.prunable, state.values
    if len(state.splits) >= state.config.s_max:
        return None
    m, k = len(values), len(leaves)
    pick = leaves[int(rng.integers(k))]
    var = int(rng.integers(m))
    n_values = len(values[var])
    if not n_values:
        return None
    i = int(rng.integers(n_values))

    # pick is a leaf: its counts give the right child's from the left child's
    rows, mask, (n0, n1) = state.rows[pick], state.masks[var][i], state.nodes[pick].counts
    left = rows & mask
    n_left = left.bit_count()
    n_right = n0 + n1 - n_left
    min_leaf = state.config.min_leaf
    if n_left < min_leaf or n_right < min_leaf:
        return _REJECTED["birth"]
    left1 = (left & state.ones).bit_count()
    lc, rc = (n_left - left1, left1), (n_right - n1 + left1, n1 - left1)
    loglik = _loglik(state, [(n0, n1)], [lc, rc])

    # pick becomes prunable, its parent stops being if it was; the new split's prior
    # 1/(m * n_values) cancels the draw of its variable and value
    d_after = len(prunable) + 1 - (state.parent.get(pick) in prunable)
    l_id = next(reversed(state.nodes)) + 1  # nodes are in ascending id order
    r_id = l_id + 1
    return Proposal("birth", log(k) - log(d_after), loglik, True,
                    (pick, (var, i), mask,
                     ((l_id, left), (r_id, rows ^ left)), ((l_id, lc), (r_id, rc))))


def _propose_death(state: ChainState, rng) -> Proposal | None:
    if not state.prunable:
        return None
    d = len(state.prunable)
    pick = state.prunable[int(rng.integers(d))]
    node = state.nodes[pick]
    lc, rc = state.nodes[node.left].counts, state.nodes[node.right].counts
    merged = (lc[0] + rc[0], lc[1] + rc[1])
    loglik = _loglik(state, [lc, rc], [merged])

    # a birth's reverse: the pruned split's prior cancels that birth's draw of its rule
    return Proposal("death", log(d) - log(len(state.leaves) - 1), loglik, True,
                    (pick, None, None, (), ((pick, merged),)))


def _propose_change(state: ChainState, rng, redraw_variable: bool) -> Proposal | None:
    kind = "change_split" if redraw_variable else "change_rule"
    splits, values, nodes = state.splits, state.values, state.nodes
    if not splits:
        return None
    pick = splits[int(rng.integers(len(splits)))]
    node = nodes[pick]
    var = int(rng.integers(len(values))) if redraw_variable else node.split.variable
    n_values = len(values[var])
    if not n_values:
        return None
    i = int(rng.integers(n_values))
    mask = state.masks[var][i]

    # The picked node's children first: most proposals that fail min_leaf fail there.
    min_leaf = state.config.min_leaf
    rows = state.rows[pick]
    left = rows & mask
    right = rows ^ left
    n_left, n_right = left.bit_count(), right.bit_count()
    if n_left < min_leaf or n_right < min_leaf:
        return _REJECTED[kind]
    # Then the subtree below them, depth-first, right child first, as leaf_rows walks it;
    # the loglik takes off the old leaf terms, then adds the new ones, in that order. An
    # entry whose rows are the node's own (None below it) heads an unchanged subtree: its
    # leaves keep their counts, and its splits passed min_leaf when they were accepted.
    ones, old_rows = state.ones, state.rows
    stack = [(node.left, left, n_left), (node.right, right, n_right)]
    sub_rows, old, new, leaf_counts = [], [], [], []
    while stack:
        nid, rows, n = stack.pop()
        node = nodes[nid]
        if rows is None or rows == old_rows[nid]:
            if node.split is None:
                old.append(node.counts)
                new.append(node.counts)
            else:
                stack += ((node.left, None, 0), (node.right, None, 0))
            continue
        sub_rows.append((nid, rows))
        if node.split is None:
            n1 = (rows & ones).bit_count()
            counts = (n - n1, n1)
            old.append(node.counts)
            new.append(counts)
            leaf_counts.append((nid, counts))
        else:
            left = rows & node.mask
            n_left = left.bit_count()
            if n_left < min_leaf or n - n_left < min_leaf:
                return _REJECTED[kind]
            stack += ((node.left, left, n_left), (node.right, rows ^ left, n - n_left))

    # the old and new splits' priors cancel the draws that propose each from the other
    return Proposal(kind, 0.0, _loglik(state, old, new), True,
                    (pick, (var, i), mask, sub_rows, leaf_counts))


_PROPOSALS = {
    "birth": _propose_birth,
    "death": _propose_death,
    "change_split": partial(_propose_change, redraw_variable=True),
    "change_rule": partial(_propose_change, redraw_variable=False),
}


def _apply(state: ChainState, prop: Proposal) -> None:
    """Commit an accepted proposal's delta to the state, in place."""
    nodes = state.nodes
    pick, value, mask, sub_rows, leaf_counts = prop.delta
    if prop.kind == "death":
        node, up = nodes[pick], nodes.get(state.parent.get(pick))
        for child in (node.left, node.right):
            del nodes[child], state.rows[child], state.parent[child]
            state.leaves.remove(child)
        insort(state.leaves, pick)
        state.splits.remove(pick)
        state.prunable.remove(pick)
        if up is not None and nodes[up.right if up.left == pick else up.left].split is None:
            insort(state.prunable, state.parent[pick])  # pick's sibling is a leaf
    elif prop.kind == "birth":
        if state.parent.get(pick) in state.prunable:
            state.prunable.remove(state.parent[pick])
        (left, _), (right, _) = leaf_counts
        state.parent[left] = state.parent[right] = pick
        state.leaves.remove(pick)
        state.leaves += (left, right)
        insort(state.splits, pick)
        insort(state.prunable, pick)
    else:
        left, right = nodes[pick].left, nodes[pick].right
    if value is not None:  # the chain's one rule object for (variable, value index)
        var, i = value
        rule = state.rules[var][i]
        if rule is None:
            kind = "level" if state.data.schema.variables[var].is_categorical else "threshold"
            rule = state.rules[var][i] = SplitRule(var, **{kind: state.values[var][i]})
        nodes[pick] = _Node(rule, mask, left, right, None)
    state.rows.update(sub_rows)
    for nid, counts in leaf_counts:
        nodes[nid] = _Node(None, None, None, None, counts)
    state.current_loglik = prop.loglik


def mh_step(state: ChainState, rng) -> ChainState:
    """One Metropolis-Hastings step; mutates and returns the state.

    Accepts with probability min(1, exp(dloglik + log_ratio)); inapplicable or
    min_leaf-violating proposals are rejections.
    """
    kind = MOVES[int(4 * rng.random())]
    state.propose_counts[kind] += 1
    prop = propose(state, kind, rng)
    if prop is not None and prop.min_leaf_ok:
        log_alpha = (prop.loglik - state.current_loglik) + prop.log_ratio
        if log_alpha >= 0 or rng.random() < np.exp(log_alpha):
            _apply(state, prop)
            state.accept_counts[kind] += 1
    return state


def run_chain(data: Dataset, config: ChainConfig) -> Ensemble:
    """Burn in, then collect a thinned sample of trees. Deterministic given seed.

    A collection with no accepted move since the one before lengthens that
    collection's run; any other starts a run of the current tree.
    """
    rng = _Draws(config.seed)
    state = init_chain(data, config, rng)
    t0 = time.perf_counter()
    for _ in range(config.burn_in_steps):
        mh_step(state, rng)
    runs = []  # [tree, loglik, length] lists, counted in place (cheaper than a new Run)
    for _ in range(config.collect_count):
        accepted = sum(state.accept_counts.values())
        for _ in range(config.thin):
            mh_step(state, rng)
        if not runs or sum(state.accept_counts.values()) != accepted:
            runs.append([state.current, state.current_loglik, 0])
        runs[-1][2] += 1
    return Ensemble([Run(*r) for r in runs], ChainRecord(
        state.config, data.n, data.m, data.provenance, state.propose_counts,
        state.accept_counts, time.perf_counter() - t0))


def _batch_se(trace: np.ndarray) -> float:
    """Batch-means standard error of the mean for a correlated trace, in 20 batches."""
    n = trace.size
    b = max(1, n // 20)
    nb = n // b
    if nb < 2:
        return float(np.std(trace, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    means = trace[: nb * b].reshape(nb, b).mean(axis=1)
    return float(np.std(means, ddof=1) / np.sqrt(nb))


def chain_diagnostics(ensemble: Ensemble) -> dict:
    """Acceptance rates (none without a chain record), loglik trace summary, tree sizes."""
    chain = ensemble.chain
    acceptance = {} if chain is None else {  # with no proposal there is no acceptance
        "overall": sum(chain.accepted.values()) / max(1, sum(chain.proposed.values())),
        "per_move": {mv: chain.accepted[mv] / max(1, k) for mv, k in chain.proposed.items()},
        "proposed": dict(chain.proposed), "accepted": dict(chain.accepted)}
    trace = np.asarray(ensemble.logliks)
    half = trace.size // 2
    first, second = trace[:half], trace[half:]
    if half >= 2:
        se = np.hypot(_batch_se(first), _batch_se(second))
        drift_z = abs(second.mean() - first.mean()) / se if se > 0 else 0.0
    else:
        drift_z = 0.0
    leaf_counts = np.repeat([r.tree.k_leaves for r in ensemble.runs],
                            [r.length for r in ensemble.runs])
    hist = {int(k): int(c) for k, c in zip(*np.unique(leaf_counts, return_counts=True))}
    return {
        "acceptance": acceptance,
        "loglik_mean": float(trace.mean()),
        "loglik_max": float(trace.max()),
        "loglik_first_half_mean": float(first.mean()) if half else float(trace.mean()),
        "loglik_second_half_mean": float(second.mean()),
        "drift_z": float(drift_z),
        "leaf_count_histogram": hist,
    }
