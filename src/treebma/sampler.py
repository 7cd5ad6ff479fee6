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
automatic rejections, keeping the per-step proposal distribution fixed.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace, asdict
from math import log

import numpy as np

from .dataset import Dataset
from .bma import Ensemble
from .tree import (
    DecisionTree,
    SplitRule,
    TreeNode,
    candidate_rules,
    leaf_log_marginal,
    log_marginal_likelihood,
    partition_rows,
    prunable_ids,
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
    debug: bool = False

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


@dataclass
class ChainState:
    """Mutable chain position plus cached per-leaf row partition.

    ``config`` is the run's configuration with ``s_max`` resolved.
    ``current_loglik`` always equals log_marginal_likelihood of the current
    tree; moves update it incrementally from the affected leaves only.
    """

    data: Dataset
    config: ChainConfig
    candidates: list[list[SplitRule]]
    nodes: dict[int, TreeNode]
    root: int
    leaf_rows: dict[int, np.ndarray]
    current_loglik: float
    step: int = 0
    next_id: int = 0
    propose_counts: dict[str, int] = field(default_factory=lambda: {mv: 0 for mv in MOVES})
    accept_counts: dict[str, int] = field(default_factory=lambda: {mv: 0 for mv in MOVES})

    @property
    def current(self) -> DecisionTree:
        return DecisionTree(dict(self.nodes), self.root)

    def n_splits(self) -> int:
        return sum(1 for nd in self.nodes.values() if not nd.is_leaf)


@dataclass(frozen=True)
class Proposal:
    """A candidate tree plus the log ratios entering the acceptance probability.

    ``nodes`` is the candidate's node dict over the chain's root, built fresh
    for this proposal; :func:`mh_step` adopts it as is on acceptance.
    """

    kind: str
    nodes: dict[int, TreeNode]
    log_proposal_ratio: float
    log_prior_ratio: float
    loglik: float
    leaf_rows: dict[int, np.ndarray]
    min_leaf_ok: bool


def _leaf_counts(y: np.ndarray, idx: np.ndarray) -> tuple[int, int]:
    n1 = int(y[idx].sum())
    return idx.size - n1, n1


def _contrib(counts: tuple[int, int], alpha: float) -> float:
    return leaf_log_marginal(counts[0], counts[1], alpha)


def _leaves_under(nodes: dict[int, TreeNode], start: int) -> list[int]:
    out, stack = [], [start]
    while stack:
        nid = stack.pop()
        node = nodes[nid]
        if node.is_leaf:
            out.append(nid)
        else:
            stack.extend((node.left, node.right))
    return out


def init_chain(data: Dataset, config: ChainConfig,
               rng: np.random.Generator | None = None) -> ChainState:
    """Start the chain with a birth from the single-leaf tree.

    Retries the birth move up to a bound until its split satisfies
    ``min_leaf``; stays at the single leaf if no valid draw is found.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if config.s_max is None:
        config = replace(config, s_max=default_s_max(data.n, config.min_leaf))
    candidates = [candidate_rules(data, j) for j in range(data.m)]
    if not any(candidates):
        raise ValueError("no variable admits any split rule")

    all_rows = np.arange(data.n)
    root_counts = _leaf_counts(data.y, all_rows)
    state = ChainState(
        data=data, config=config, candidates=candidates,
        nodes={0: TreeNode(0, counts=root_counts)}, root=0, leaf_rows={0: all_rows},
        current_loglik=_contrib(root_counts, config.dirichlet_alpha), next_id=1,
    )
    for _ in range(100):
        birth = _propose_birth(state, rng)
        if birth is not None and birth.min_leaf_ok:
            # birth.loglik is (root - root) + left + right, which is left + right exactly
            state.nodes, state.leaf_rows = birth.nodes, birth.leaf_rows
            state.current_loglik, state.next_id = birth.loglik, max(birth.nodes) + 1
            break
    return state


def propose(state: ChainState, kind: str, rng: np.random.Generator) -> Proposal | None:
    """Draw one proposal of the given kind; None if the move is inapplicable."""
    if kind == "birth":
        return _propose_birth(state, rng)
    if kind == "death":
        return _propose_death(state, rng)
    if kind in ("change_split", "change_rule"):
        return _propose_change(state, rng, redraw_variable=(kind == "change_split"))
    raise ValueError(f"unknown move kind {kind!r}")


def _propose_birth(state: ChainState, rng) -> Proposal | None:
    if state.n_splits() >= state.config.s_max:
        return None
    m = state.data.m
    leaves = [nid for nid, nd in state.nodes.items() if nd.is_leaf]
    k = len(leaves)
    pick = leaves[int(rng.integers(k))]
    var = int(rng.integers(m))
    cands = state.candidates[var]
    if not cands:
        return None
    rule = cands[int(rng.integers(len(cands)))]

    rows = state.leaf_rows[pick]
    go_left = rule.goes_left(state.data.X[rows, var])
    left_rows, right_rows = rows[go_left], rows[~go_left]
    alpha = state.config.dirichlet_alpha
    lc = _leaf_counts(state.data.y, left_rows)
    rc = _leaf_counts(state.data.y, right_rows)

    l_id, r_id = state.next_id, state.next_id + 1
    cand_nodes = dict(state.nodes)
    cand_nodes[pick] = TreeNode(pick, split=rule, left=l_id, right=r_id)
    cand_nodes[l_id] = TreeNode(l_id, counts=lc)
    cand_nodes[r_id] = TreeNode(r_id, counts=rc)

    old_counts = state.nodes[pick].counts
    loglik = state.current_loglik - _contrib(old_counts, alpha) \
        + _contrib(lc, alpha) + _contrib(rc, alpha)

    cand_rows = dict(state.leaf_rows)
    del cand_rows[pick]
    cand_rows[l_id] = left_rows
    cand_rows[r_id] = right_rows

    d_after = len(prunable_ids(cand_nodes))
    ml = log(m) + log(len(cands))
    log_q = log(k) + ml - log(d_after)
    return Proposal(
        kind="birth",
        nodes=cand_nodes,
        log_proposal_ratio=log_q,
        log_prior_ratio=-ml,
        loglik=loglik,
        leaf_rows=cand_rows,
        min_leaf_ok=min(left_rows.size, right_rows.size) >= state.config.min_leaf,
    )


def _propose_death(state: ChainState, rng) -> Proposal | None:
    prunable = prunable_ids(state.nodes)
    if not prunable:
        return None
    d = len(prunable)
    pick = prunable[int(rng.integers(d))]
    node = state.nodes[pick]
    alpha = state.config.dirichlet_alpha
    lc = state.nodes[node.left].counts
    rc = state.nodes[node.right].counts
    merged = (lc[0] + rc[0], lc[1] + rc[1])
    merged_rows = np.concatenate((state.leaf_rows[node.left], state.leaf_rows[node.right]))

    cand_nodes = dict(state.nodes)
    del cand_nodes[node.left], cand_nodes[node.right]
    cand_nodes[pick] = TreeNode(pick, counts=merged)
    loglik = state.current_loglik - _contrib(lc, alpha) - _contrib(rc, alpha) \
        + _contrib(merged, alpha)

    cand_rows = dict(state.leaf_rows)
    del cand_rows[node.left], cand_rows[node.right]
    cand_rows[pick] = merged_rows

    k_after = sum(1 for nd in cand_nodes.values() if nd.is_leaf)
    m = state.data.m
    L = len(state.candidates[node.split.variable])
    ml = log(m) + log(L)
    log_q = log(d) - log(k_after) - ml
    return Proposal(
        kind="death",
        nodes=cand_nodes,
        log_proposal_ratio=log_q,
        log_prior_ratio=ml,
        loglik=loglik,
        leaf_rows=cand_rows,
        min_leaf_ok=True,
    )


def _propose_change(state: ChainState, rng, redraw_variable: bool) -> Proposal | None:
    splits = [nid for nid, nd in state.nodes.items() if not nd.is_leaf]
    if not splits:
        return None
    pick = splits[int(rng.integers(len(splits)))]
    old_rule = state.nodes[pick].split
    if redraw_variable:
        var = int(rng.integers(state.data.m))
    else:
        var = old_rule.variable
    cands = state.candidates[var]
    if not cands:
        return None
    rule = cands[int(rng.integers(len(cands)))]

    sub_leaves = _leaves_under(state.nodes, pick)
    sub_rows = np.concatenate([state.leaf_rows[nid] for nid in sub_leaves])

    cand_nodes = dict(state.nodes)
    cand_nodes[pick] = replace(state.nodes[pick], split=rule)
    new_parts = partition_rows(cand_nodes, pick, state.data.X, sub_rows)

    alpha = state.config.dirichlet_alpha
    loglik = state.current_loglik
    min_size = None
    cand_rows = dict(state.leaf_rows)
    for nid in sub_leaves:
        loglik -= _contrib(state.nodes[nid].counts, alpha)
    for nid, idx in new_parts.items():
        counts = _leaf_counts(state.data.y, idx)
        cand_nodes[nid] = replace(cand_nodes[nid], counts=counts)
        cand_rows[nid] = idx
        loglik += _contrib(counts, alpha)
        min_size = idx.size if min_size is None else min(min_size, idx.size)

    if redraw_variable:
        L_new, L_old = len(cands), len(state.candidates[old_rule.variable])
        log_q = log(L_new) - log(L_old)
    else:
        log_q = 0.0
    return Proposal(
        kind="change_split" if redraw_variable else "change_rule",
        nodes=cand_nodes,
        log_proposal_ratio=log_q,
        log_prior_ratio=-log_q,
        loglik=loglik,
        leaf_rows=cand_rows,
        min_leaf_ok=min_size >= state.config.min_leaf,
    )


def mh_step(state: ChainState, rng: np.random.Generator,
            debug: bool = False) -> ChainState:
    """One Metropolis-Hastings step; mutates and returns the state.

    Accepts with probability min(1, exp(dloglik + log_prior_ratio +
    log_proposal_ratio)); inapplicable or min_leaf-violating proposals are
    rejections.
    """
    kind = MOVES[int(4 * rng.random())]
    state.propose_counts[kind] += 1
    prop = propose(state, kind, rng)
    state.step += 1
    if prop is not None and prop.min_leaf_ok:
        log_alpha = (prop.loglik - state.current_loglik) \
            + prop.log_prior_ratio + prop.log_proposal_ratio
        if log_alpha >= 0 or rng.random() < np.exp(log_alpha):
            state.nodes = prop.nodes
            state.leaf_rows = prop.leaf_rows
            state.current_loglik = prop.loglik
            state.next_id = max(state.nodes) + 1
            state.accept_counts[kind] += 1
    if debug and state.step % 1000 == 0:
        recomputed = log_marginal_likelihood(state.current, state.config.dirichlet_alpha)
        if abs(recomputed - state.current_loglik) > 1e-8 * max(1.0, abs(recomputed)):
            raise AssertionError(
                f"cached loglik {state.current_loglik} drifted from {recomputed}"
            )
    return state


def run_chain(data: Dataset, config: ChainConfig) -> Ensemble:
    """Burn in, then collect a thinned sample of trees. Deterministic given seed."""
    rng = np.random.default_rng(config.seed)
    state = init_chain(data, config, rng)
    t0 = time.perf_counter()
    for _ in range(config.burn_in_steps):
        mh_step(state, rng, debug=config.debug)
    trees, logliks = [], []
    while len(trees) < config.collect_count:
        for _ in range(config.thin):
            mh_step(state, rng, debug=config.debug)
        trees.append(state.current)
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
    leaf_counts = np.array([t.k_leaves for t in ensemble.trees])
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
