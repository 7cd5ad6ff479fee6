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
one split in place. The chain starts with a birth from the single-leaf tree.

Proposals that are inapplicable (death on a single leaf, birth past s_max,
empty candidate list) or that produce a leaf below ``min_leaf`` count as
automatic rejections, keeping the per-step proposal distribution fixed. A
proposal is a delta over the chain state (row bitsets and an id index, see
:class:`ChainState`), committed in place only on acceptance. The step checks
nothing: the tests recompute the loglik, the id index and every leaf's rows
from the tree after each accepted move (``tests/helpers.py``).

The chain's draws are exactly numpy's ``default_rng(seed)`` sequence of
``random()`` and ``integers(k)`` values, read through a buffered reader of the
raw PCG64 stream (:class:`_Draws`), so a seed gives the same output bytes as
earlier versions on the same numpy.
"""
from __future__ import annotations

import time
from bisect import insort
from collections import namedtuple
from dataclasses import dataclass, field, replace, asdict
from itertools import chain
from math import log
from typing import NamedTuple

import numpy as np

from .dataset import Dataset
from .bma import Ensemble
from .tree import (
    DecisionTree,
    SplitRule,
    candidate_rules,
    leaf_log_marginal,
)

__all__ = [
    "MOVES",
    "ChainConfig",
    "ChainState",
    "Proposal",
    "init_chain",
    "propose",
    "mh_step",
    "run_chain",
    "chain_diagnostics",
    "default_s_max",
]

MOVES = ("birth", "death", "change_split", "change_rule")


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

    def __post_init__(self):
        if self.thin < 1 or self.collect_count < 1 or self.burn_in_steps < 0:
            raise ValueError("invalid chain schedule")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be at least 1")
        if self.s_max is not None and self.s_max < 1:
            raise ValueError("s_max must be at least 1")
        if not self.dirichlet_alpha > 0:
            raise ValueError("dirichlet_alpha must be positive")


def default_s_max(n: int, min_leaf: int) -> int:
    """Split-count cap implied by the leaf-occupancy constraint."""
    return max(1, n // min_leaf - 1)


def _bits(mask: np.ndarray) -> int:
    """A boolean row mask as a Python int whose bit i is row i."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _rule_masks(rules: list[SplitRule], column: np.ndarray) -> list[int]:
    """Each rule's left-row mask over ``column`` as :func:`_bits` gives it, for one
    variable's rules: one broadcast comparison and one ``packbits`` call."""
    if not rules:
        return []
    if rules[0].level is not None:
        left = column[None, :] == np.array([rule.level for rule in rules])[:, None]
    else:
        left = column[None, :] <= np.array([rule.threshold for rule in rules])[:, None]
    packed = np.packbits(left, axis=1, bitorder="little")
    buf, w = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(buf[i * w:(i + 1) * w], "little") for i in range(len(rules))]


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
        m = self._next32() * k
        if m & 0xFFFFFFFF < k:
            threshold = (0x100000000 - k) % k
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * k
        return m >> 32


# The chain's node: a split (rule and child ids, counts None) or a leaf (class counts only).
_Node = namedtuple("_Node", "split left right counts")


@dataclass
class ChainState:
    """The chain's position: one tree, changed in place on each accepted move.

    ``nodes`` stays in ascending id order (a replaced node keeps its slot, new
    ids are appended), so the i-th id of the sorted lists ``leaves``,
    ``splits`` and ``prunable`` (splits with two leaf children) is the i-th
    such node of the dict. The root is node 0 in the first slot: a move may
    rewrite it in place but never deletes it. ``parent`` maps each non-root id
    to its parent and ``next_id`` is one past the largest id, the first id a
    birth gives.
    Row sets are bitsets: ``rows`` holds every node's, ``masks[j][i]`` the
    rows that ``candidates[j][i]`` sends left, ``node_mask`` that mask for each
    split's rule, ``ones`` the rows with y = 1. ``terms`` memoises
    :func:`leaf_log_marginal` by leaf counts (n0, n1). ``config`` has
    ``s_max`` resolved; ``current_loglik`` is the current tree's loglik.
    """

    data: Dataset
    config: ChainConfig
    candidates: list[list[SplitRule]]
    masks: list[list[int]]
    ones: int
    nodes: dict[int, _Node]
    rows: dict[int, int]
    leaves: list[int]
    current_loglik: float = 0.0
    splits: list[int] = field(default_factory=list)
    prunable: list[int] = field(default_factory=list)
    parent: dict[int, int] = field(default_factory=dict)
    node_mask: dict[int, int] = field(default_factory=dict)
    terms: dict[tuple[int, int], float] = field(default_factory=dict)
    next_id: int = 0
    propose_counts: dict[str, int] = field(default_factory=lambda: {mv: 0 for mv in MOVES})
    accept_counts: dict[str, int] = field(default_factory=lambda: {mv: 0 for mv in MOVES})

    @property
    def current(self) -> DecisionTree:
        """The tree as a record; valid by construction, so nothing is checked."""
        slot = {nid: s for s, nid in enumerate(self.nodes)}
        slot[None] = -1  # a leaf's children
        rules, left, right, counts = zip(*self.nodes.values())
        return DecisionTree(tuple(self.nodes), rules, tuple(map(slot.__getitem__, left)),
                            tuple(map(slot.__getitem__, right)), counts, 0)  # root: node 0


class Proposal(NamedTuple):
    """A move's log ratios and candidate loglik, plus the delta that commits it.

    ``delta`` is (node id, new rule, its left-row mask, new (id, rows) pairs,
    new leaf (id, counts) pairs), with no rule or mask for a death. It fits
    only the unchanged state that it was drawn from.
    """

    kind: str
    log_proposal_ratio: float
    log_prior_ratio: float
    loglik: float
    min_leaf_ok: bool
    delta: tuple | None


# Returned as soon as a child falls below min_leaf, before any count or marginal.
_REJECTED = {mv: Proposal(mv, 0.0, 0.0, 0.0, False, None) for mv in MOVES}


def _term(state: ChainState, counts: tuple[int, int]) -> float:
    """leaf_log_marginal(n0, n1, alpha), memoised per chain: a hit is the same float."""
    if counts not in state.terms:
        state.terms[counts] = leaf_log_marginal(*counts, state.config.dirichlet_alpha)
    return state.terms[counts]


def _counts(state: ChainState, rows: int, n: int) -> tuple[int, int]:
    n1 = (rows & state.ones).bit_count()
    return n - n1, n1


def _loglik(state: ChainState, old: list, new: list) -> float:
    """current_loglik - the ``old`` leaf terms + the ``new`` ones, one at a time in order."""
    loglik = state.current_loglik
    for counts in old:
        loglik -= _term(state, counts)
    for counts in new:
        loglik += _term(state, counts)
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
    candidates = [candidate_rules(data, j) for j in range(data.m)]
    if not any(candidates):
        raise ValueError("no variable admits any split rule")

    masks = [_rule_masks(cands, data.X[:, j]) for j, cands in enumerate(candidates)]
    all_rows = (1 << data.n) - 1
    state = ChainState(data, config, candidates, masks, _bits(data.y == 1), nodes={},
                       rows={0: all_rows}, leaves=[0], next_id=1)
    root_counts = _counts(state, all_rows, data.n)
    state.nodes[0] = _Node(None, None, None, root_counts)
    state.current_loglik = _term(state, root_counts)
    for _ in range(100):
        birth = _propose_birth(state, rng)
        if birth is not None and birth.min_leaf_ok:
            # birth.loglik is (root - root) + left + right, which is left + right exactly
            _apply(state, birth)
            break
    return state


def propose(state: ChainState, kind: str, rng) -> Proposal | None:
    """Draw one proposal of the given kind; None if the move is inapplicable."""
    if kind == "birth":
        return _propose_birth(state, rng)
    if kind == "death":
        return _propose_death(state, rng)
    if kind in ("change_split", "change_rule"):
        return _propose_change(state, rng, redraw_variable=(kind == "change_split"))
    raise ValueError(f"unknown move kind {kind!r}")


def _propose_birth(state: ChainState, rng) -> Proposal | None:
    if len(state.splits) >= state.config.s_max:
        return None
    m, k = state.data.m, len(state.leaves)
    pick = state.leaves[int(rng.integers(k))]
    var = int(rng.integers(m))
    cands = state.candidates[var]
    if not cands:
        return None
    i = int(rng.integers(len(cands)))

    left = state.rows[pick] & state.masks[var][i]
    right = state.rows[pick] ^ left
    n_left, n_right = left.bit_count(), right.bit_count()
    if min(n_left, n_right) < state.config.min_leaf:
        return _REJECTED["birth"]
    lc, rc = _counts(state, left, n_left), _counts(state, right, n_right)
    loglik = _loglik(state, [state.nodes[pick].counts], [lc, rc])

    # pick becomes prunable; its parent stops being prunable if it was
    d_after = len(state.prunable) + 1 - (state.parent.get(pick) in state.prunable)
    ml = log(m) + log(len(cands))
    log_q = log(k) + ml - log(d_after)
    l_id, r_id = state.next_id, state.next_id + 1
    return Proposal("birth", log_q, -ml, loglik, True, (pick, cands[i], state.masks[var][i],
                    ((l_id, left), (r_id, right)), ((l_id, lc), (r_id, rc))))


def _propose_death(state: ChainState, rng) -> Proposal | None:
    if not state.prunable:
        return None
    d = len(state.prunable)
    pick = state.prunable[int(rng.integers(d))]
    node = state.nodes[pick]
    lc, rc = state.nodes[node.left].counts, state.nodes[node.right].counts
    merged = (lc[0] + rc[0], lc[1] + rc[1])
    loglik = _loglik(state, [lc, rc], [merged])

    k_after = len(state.leaves) - 1
    ml = log(state.data.m) + log(len(state.candidates[node.split.variable]))
    log_q = log(d) - log(k_after) - ml
    return Proposal("death", log_q, ml, loglik, True, (pick, None, None, (), ((pick, merged),)))


def _propose_change(state: ChainState, rng, redraw_variable: bool) -> Proposal | None:
    kind = "change_split" if redraw_variable else "change_rule"
    if not state.splits:
        return None
    nodes = state.nodes
    pick = state.splits[int(rng.integers(len(state.splits)))]
    old_var = nodes[pick].split.variable
    var = int(rng.integers(state.data.m)) if redraw_variable else old_var
    cands = state.candidates[var]
    if not cands:
        return None
    i = int(rng.integers(len(cands)))
    mask = state.masks[var][i]

    # Walk the subtree depth-first, right child first, as leaf_rows does;
    # the loglik sums the old, then the new leaf terms in that order.
    stack, sub_rows, sub_leaves = [(pick, state.rows[pick])], [], []
    while stack:
        nid, rows = stack.pop()
        n = rows.bit_count()
        if n < state.config.min_leaf:
            return _REJECTED[kind]
        sub_rows.append((nid, rows))
        node = nodes[nid]
        if node.split is None:
            sub_leaves.append((nid, rows, n))
        else:
            left = rows & (mask if nid == pick else state.node_mask[nid])
            stack += ((node.left, left), (node.right, rows ^ left))

    leaf_counts = [(nid, _counts(state, rows, n)) for nid, rows, n in sub_leaves]
    loglik = _loglik(state, [nodes[nid].counts for nid, _ in leaf_counts],
                     [counts for _, counts in leaf_counts])
    log_q = log(len(cands)) - log(len(state.candidates[old_var])) if redraw_variable else 0.0
    return Proposal(kind, log_q, -log_q, loglik, True,
                    (pick, cands[i], mask, sub_rows, leaf_counts))


def _apply(state: ChainState, prop: Proposal) -> None:
    """Commit an accepted proposal's delta to the state, in place."""
    nodes = state.nodes
    pick, rule, mask, sub_rows, leaf_counts = prop.delta
    if prop.kind == "death":
        node, up = nodes[pick], nodes.get(state.parent.get(pick))
        for child in (node.left, node.right):
            del nodes[child], state.rows[child], state.parent[child]
            state.leaves.remove(child)
        del state.node_mask[pick]
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
    if rule is not None:
        nodes[pick] = _Node(rule, left, right, None)
        state.node_mask[pick] = mask
    state.rows.update(sub_rows)
    for nid, counts in leaf_counts:
        nodes[nid] = _Node(None, None, None, counts)
    state.next_id = next(reversed(nodes)) + 1  # a death can free the top ids
    state.current_loglik = prop.loglik


def mh_step(state: ChainState, rng) -> ChainState:
    """One Metropolis-Hastings step; mutates and returns the state.

    Accepts with probability min(1, exp(dloglik + log_prior_ratio +
    log_proposal_ratio)); inapplicable or min_leaf-violating proposals are
    rejections.
    """
    kind = MOVES[int(4 * rng.random())]
    state.propose_counts[kind] += 1
    prop = propose(state, kind, rng)
    if prop is not None and prop.min_leaf_ok:
        log_alpha = (prop.loglik - state.current_loglik) \
            + prop.log_prior_ratio + prop.log_proposal_ratio
        if log_alpha >= 0 or rng.random() < np.exp(log_alpha):
            _apply(state, prop)
            state.accept_counts[kind] += 1
    return state


def run_chain(data: Dataset, config: ChainConfig) -> Ensemble:
    """Burn in, then collect a thinned sample of trees. Deterministic given seed.

    A collection with no accepted move since the one before repeats that
    tree object, so a run of identical trees is one shared object.
    """
    rng = _Draws(config.seed)
    state = init_chain(data, config, rng)
    t0 = time.perf_counter()
    for _ in range(config.burn_in_steps):
        mh_step(state, rng)
    trees, logliks = [], []
    while len(trees) < config.collect_count:
        accepted = sum(state.accept_counts.values())
        for _ in range(config.thin):
            mh_step(state, rng)
        unchanged = trees and sum(state.accept_counts.values()) == accepted
        trees.append(trees[-1] if unchanged else state.current)
        logliks.append(state.current_loglik)
    elapsed = time.perf_counter() - t0

    proposed = sum(state.propose_counts.values())
    accepted = sum(state.accept_counts.values())
    meta = {
        "config": asdict(config),
        "seed": config.seed,
        "n": data.n,
        "m": data.m,
        "s_max": state.config.s_max,
        "provenance": data.provenance,
        "acceptance": {
            "overall": accepted / proposed if proposed else 0.0,
            "per_move": {
                mv: (state.accept_counts[mv] / state.propose_counts[mv]
                     if state.propose_counts[mv] else 0.0)
                for mv in MOVES
            },
            "proposed": dict(state.propose_counts),
            "accepted": dict(state.accept_counts),
        },
        "duration_s": elapsed,
    }
    return Ensemble(trees=trees, logliks=logliks, meta=meta)


def _batch_se(trace: np.ndarray, n_batches: int = 20) -> float:
    """Batch-means standard error of the mean for a correlated trace."""
    n = trace.size
    b = max(1, n // n_batches)
    nb = n // b
    if nb < 2:
        return float(np.std(trace, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    means = trace[: nb * b].reshape(nb, b).mean(axis=1)
    return float(np.std(means, ddof=1) / np.sqrt(nb))


def chain_diagnostics(ensemble: Ensemble) -> dict:
    """Acceptance rates, log-likelihood trace summary, and leaf-count histogram."""
    if not ensemble.trees:
        raise ValueError("empty ensemble")
    trace = np.asarray(ensemble.logliks)
    half = trace.size // 2
    first, second = trace[:half], trace[half:]
    if half >= 2:
        se = np.hypot(_batch_se(first), _batch_se(second))
        drift_z = abs(second.mean() - first.mean()) / se if se > 0 else 0.0
    else:
        drift_z = 0.0
    firsts, lengths = ensemble.runs()
    leaf_counts = np.repeat([t.k_leaves for t in firsts], lengths)
    hist = {int(k): int(c) for k, c in zip(*np.unique(leaf_counts, return_counts=True))}
    return {
        "acceptance": ensemble.meta.get("acceptance", {}),
        "loglik_mean": float(trace.mean()),
        "loglik_max": float(trace.max()),
        "loglik_first_half_mean": float(first.mean()) if half else float(trace.mean()),
        "loglik_second_half_mean": float(second.mean()),
        "drift_z": float(drift_z),
        "leaf_count_histogram": hist,
    }
