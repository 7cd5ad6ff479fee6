"""Chain mechanics: configuration, proposals, MH stepping, collection, diagnostics."""
import random
from collections import Counter
from math import exp, log

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treebma import (
    ChainConfig,
    SplitRule,
    chain_diagnostics,
    init_chain,
    mh_step,
    propose,
    run_chain,
)
from treebma.dataset import Dataset, Schema, VariableSpec
from treebma.sampler import MOVES, _apply, _Draws, default_s_max
from treebma.tree import (
    candidate_rules,
    candidate_splits,
    leaf_log_marginal,
    log_marginal_likelihood,
    serialize,
)

from helpers import bits, check_state


class TestChainConfig:
    def test_invalid_hyperparameters(self):
        for kwargs in ({"s_max": 0}, {"min_leaf": 0}, {"dirichlet_alpha": 0.0}):
            with pytest.raises(ValueError):
                ChainConfig(**kwargs)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(thin=0)
        with pytest.raises(ValueError):
            ChainConfig(collect_count=0)
        with pytest.raises(ValueError):
            ChainConfig(min_leaf=0)

    def test_default_s_max(self):
        assert default_s_max(316, 3) == 104
        assert default_s_max(4, 3) == 1  # floor at 1


class TestInitChain:
    def test_starts_from_one_split(self, small_data):
        state = init_chain(small_data, ChainConfig(seed=0))
        assert len(state.splits) == 1
        # exact: the stored logliks of every chain start from this sum
        assert state.current_loglik == \
            log_marginal_likelihood(state.current, state.config.dirichlet_alpha)
        assert state.config.s_max == default_s_max(small_data.n, state.config.min_leaf)
        assert sum(state.propose_counts.values()) == 0  # the initial birth is not a step

    def test_deterministic(self, small_data):
        a = init_chain(small_data, ChainConfig(seed=5))
        b = init_chain(small_data, ChainConfig(seed=5))
        assert serialize(a.current) == serialize(b.current)

    def test_falls_back_to_single_leaf(self, small_data):
        # min_leaf equal to n: no split can ever be valid
        state = init_chain(small_data, ChainConfig(min_leaf=small_data.n))
        assert len(state.splits) == 0


class TestProposals:
    def test_birth_blocked_at_s_max(self, small_data):
        state = init_chain(small_data, ChainConfig(seed=0, s_max=1))
        assert propose(state, "birth", np.random.default_rng(0)) is None

    def test_change_blocked_on_single_leaf(self, small_data):
        state = init_chain(small_data, ChainConfig(min_leaf=small_data.n))
        rng = np.random.default_rng(0)
        assert propose(state, "change_split", rng) is None
        assert propose(state, "change_rule", rng) is None
        assert propose(state, "death", rng) is None

    def test_unknown_kind(self, small_data):
        state = init_chain(small_data, ChainConfig(seed=0))
        with pytest.raises(ValueError, match="unknown move kind"):
            propose(state, "teleport", np.random.default_rng(0))

    def test_birth_death_are_reverse_ratios(self, small_data):
        """A death proposal undoing a just-accepted birth negates its log ratios."""
        state = init_chain(small_data, ChainConfig(seed=0))
        rng = np.random.default_rng(1)
        birth = None
        while birth is None or not birth.min_leaf_ok:
            birth = propose(state, "birth", rng)
        _apply(state, birth)
        # draw deaths until the one pruning the just-born split comes up
        for attempt in range(500):
            death = propose(state, "death", np.random.default_rng(attempt))
            if death is not None and death.delta[0] == birth.delta[0]:
                assert death.log_prior_ratio == pytest.approx(-birth.log_prior_ratio)
                assert death.log_proposal_ratio == pytest.approx(-birth.log_proposal_ratio)
                break
        else:
            pytest.fail("matching reverse death never proposed")


def _steps_checked(state, rng, steps):
    """Run ``steps`` MH steps, checking the state after every accepted move; returns how
    many moves were accepted."""
    accepted = 0
    for _ in range(steps):
        before = sum(state.accept_counts.values())
        mh_step(state, rng)
        if sum(state.accept_counts.values()) != before:
            check_state(state)  # raises on the first mismatch
            accepted += 1
    return accepted


class TestMhStep:
    def test_debug_invariant_holds_over_many_steps(self, small_data):
        """The cached loglik matches the tree's after every accepted move of 3k steps."""
        cfg = ChainConfig(seed=2, min_leaf=5)
        rng = np.random.default_rng(cfg.seed)
        state = init_chain(small_data, cfg, rng)
        assert _steps_checked(state, rng, 3000) > 0
        assert state.current_loglik == pytest.approx(
            log_marginal_likelihood(state.current, state.config.dirichlet_alpha)
        )

    @pytest.mark.parametrize("min_leaf", [1, 3, 25])
    def test_debug_index_check(self, small_data, min_leaf):
        """The cached id index, leaf rows and counts match the node dict after every
        accepted move of 5k steps."""
        cfg = ChainConfig(seed=6, min_leaf=min_leaf)
        rng = np.random.default_rng(cfg.seed)
        state = init_chain(small_data, cfg, rng)
        check_state(state)
        assert _steps_checked(state, rng, 5000) > 0

    def test_rule_masks_match_goes_left(self, small_data):
        """Each variable's values are its candidate rules' thresholds or levels, and each
        left-row mask is the rule's own goes_left column, bit for bit."""
        state = init_chain(small_data, ChainConfig(seed=1), np.random.default_rng(1))
        kinds = {small_data.schema.variables[j].is_categorical
                 for j, values in enumerate(state.values) if values}
        assert kinds == {True, False}
        for j, values in enumerate(state.values):
            rules = candidate_rules(small_data, j)
            assert list(map(repr, values)) == [repr(_value(rule)) for rule in rules]
            assert state.masks[j] == [bits(rule.goes_left(small_data.X[:, j])) for rule in rules]

    def test_equal_rules_are_one_object(self, small_data):
        """Rules are built once per chain: over thousands of steps, every rule of every
        snapshot is the one object of its (variable, value), the one in ``state.rules``."""
        cfg = ChainConfig(seed=4)
        rng = np.random.default_rng(cfg.seed)
        state = init_chain(small_data, cfg, rng)
        seen = {}
        for step in range(4000):
            mh_step(state, rng)
            if step % 10 == 0:
                for rule in filter(None, state.current.rules):
                    assert seen.setdefault((rule.variable, repr(_value(rule))), rule) is rule
        assert len(seen) > 10
        assert {id(rule) for rule in seen.values()} <= {id(rule) for rules in state.rules
                                                        for rule in rules}

    def test_counters_accumulate(self, small_data):
        cfg = ChainConfig(seed=3)
        rng = np.random.default_rng(cfg.seed)
        state = init_chain(small_data, cfg, rng)
        for _ in range(500):
            mh_step(state, rng)
        assert sum(state.propose_counts.values()) == 500
        assert 0 < sum(state.accept_counts.values()) < 500
        for mv in MOVES:
            assert state.accept_counts[mv] <= state.propose_counts[mv]


# integers(k) bounds: 1 draws nothing; 2**31 + 1 and 3 * 2**30 + 1 reject about a half
# and a quarter of their 32-bit draws, so Lemire's rejection loop runs; 2**32 - 1 and
# 2**32 are the two ends of numpy's 32-bit path.
_BOUNDS = (1, 2, 3, 4, 7, 16, 100, 1592, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1, 2**32)

_NUMPY_CHANGED = (f"numpy {np.__version__}'s PCG64 stream or its random()/integers() "
                  "conversion no longer matches sampler._Draws; every chain's output bytes "
                  "depend on it, so _Draws must follow numpy")


class TestDraws:
    """``_Draws(seed)`` gives ``np.random.default_rng(seed)``'s values, draw for draw."""

    def test_matches_default_rng(self):
        for seed in range(100):
            script = random.Random(seed)
            ours, theirs = _Draws(seed), np.random.default_rng(seed)
            for i in range(2000):
                if script.random() < 0.3:
                    call, a, b = "random()", ours.random(), theirs.random()
                else:
                    k = script.choice(_BOUNDS + (script.randint(1, 2**32),))
                    call, a, b = f"integers({k})", ours.integers(k), int(theirs.integers(k))
                assert a == b, f"seed {seed}, draw {i}, {call}: {a} != numpy's {b}; " \
                               + _NUMPY_CHANGED

    def test_integers_one_draws_nothing(self):
        ours, theirs = _Draws(3), np.random.default_rng(3)
        assert [ours.integers(1) for _ in range(5)] == [0] * 5
        assert [ours.random(), ours.integers(10)] == \
            [theirs.random(), int(theirs.integers(10))], _NUMPY_CHANGED

    def test_random_keeps_the_high_half(self):
        """A 64-bit output gives its low half to one 32-bit draw and its high half to the
        next; a random() in between takes a fresh output."""
        raw = np.random.PCG64(9).random_raw(2).tolist()
        ours = _Draws(9)
        assert (ours.integers(2**32), ours.random(), ours.integers(2**32)) == \
            (raw[0] & 0xFFFFFFFF, (raw[1] >> 11) * 2**-53, raw[0] >> 32)

    @pytest.mark.parametrize("seed, min_leaf", [(0, 3), (7, 8), (11, 25)])
    def test_chain_same_with_either_source(self, small_data, seed, min_leaf):
        """init_chain and 3,000 steps end in the same state from numpy's Generator and
        from _Draws; init_chain's default source starts where both do."""
        cfg = ChainConfig(seed=seed, min_leaf=min_leaf)
        start = init_chain(small_data, cfg)
        ends = []
        for rng in (np.random.default_rng(seed), _Draws(seed)):
            state = init_chain(small_data, cfg, rng)
            assert (state.nodes, state.current_loglik) == \
                (start.nodes, start.current_loglik), _NUMPY_CHANGED
            for _ in range(3000):
                mh_step(state, rng)
            ends.append((state.nodes, state.current_loglik,
                         state.propose_counts, state.accept_counts))
        assert ends[0] == ends[1], _NUMPY_CHANGED
        assert sum(ends[0][3].values()) > 0


def _value(rule: SplitRule):
    return rule.threshold if rule.level is None else rule.level


def _splits(values, levels=None):
    """The column, candidate_splits and candidate_rules of a one-variable dataset:
    continuous, or categorical with the declared ``levels``."""
    spec = VariableSpec("x", "categorical", tuple(levels)) if levels \
        else VariableSpec("x", "continuous")
    column = np.array(values, dtype=np.float64)
    data = Dataset(Schema((spec,), "y"), column[:, None], np.zeros(column.size, dtype=int))
    return column, candidate_splits(data)[0], candidate_rules(data, 0)


_EDGE_VALUES = st.sampled_from([-0.0, 0.0, -1.5, 2.0, 5e-324, -7.25])
_VALUES = _EDGE_VALUES | st.floats(-1e6, 1e6, allow_nan=False)


class TestRuleMasks:
    """One sort per column gives the values np.unique gives, bit for bit, and masks that
    equal each candidate rule's own goes_left mask."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(_VALUES, min_size=1, max_size=70))
    @example(values=[0.0, -0.0, 0.0, -0.0])
    @example(values=[-0.0, 0.0, 1.0, -0.0, 0.0, -3.0])
    @example(values=[-0.0, 0.0, -1.5, -1.5, 2.0])  # np.unique keeps 0.0, the second zero
    @example(values=[3.5] * 9)
    @example(values=[5.0])
    @example(values=[-2.0, -2.0, -1.0, 4.0, 4.0, 4.0, -1.0, 0.0, 9.0])
    @example(values=[float(v) for v in range(40, 0, -1)])
    def test_continuous(self, values):
        """Thresholds at every distinct value but the largest (ties, negatives, both
        zeros, a constant or 1-row column, all distinct), as repr tells them apart."""
        column, (thresholds, masks), rules = _splits(values)
        assert list(map(repr, thresholds)) == list(map(repr, map(float, np.unique(column)[:-1])))
        assert list(map(repr, thresholds)) == [repr(rule.threshold) for rule in rules]
        assert all(type(threshold) is float for threshold in thresholds)
        assert masks == [bits(rule.goes_left(column)) for rule in rules]

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.integers(0, 5), min_size=1, max_size=70),
           absent=st.lists(st.integers(-1, 6), max_size=8))
    @example(values=[2] * 12, absent=[0])
    @example(values=[4], absent=[])
    @example(values=[0, 3, 3, 1, 0, 5], absent=[2, 4])
    def test_categorical(self, values, absent):
        """Levels present in the column, whatever other levels are declared."""
        column, (levels, masks), rules = _splits(values, sorted({*values, *absent}))
        present = sorted(set(values))
        assert levels == (present if len(present) > 1 else [])
        assert all(type(level) is int for level in levels)
        assert levels == [rule.level for rule in rules]
        assert masks == [bits(rule.goes_left(column)) for rule in rules]

    def test_no_rules(self):
        assert _splits([1.0, 1.0])[1:] == (([], []), [])
        assert _splits([1.0, 1.0], levels=[0, 1])[1:] == (([], []), [])


class TestRunChain:
    def test_exact_collection_schedule(self, small_data):
        ens = run_chain(small_data, ChainConfig(burn_in_steps=0, collect_count=5, thin=1, seed=0))
        assert len(ens) == 5

    def test_deterministic_given_seed(self, small_data):
        cfg = ChainConfig(burn_in_steps=500, collect_count=40, thin=2, seed=12)
        a, b = run_chain(small_data, cfg), run_chain(small_data, cfg)
        assert [serialize(t) for t in a.trees] == [serialize(t) for t in b.trees]
        assert a.logliks == b.logliks

    def test_repeats_share_objects_only_without_acceptance(self, small_data):
        """A collected tree repeats the object before it iff no move was accepted in between."""
        cfg = ChainConfig(burn_in_steps=200, collect_count=300, thin=2, min_leaf=5, seed=8)
        ens = run_chain(small_data, cfg)
        rng = np.random.default_rng(cfg.seed)
        state = init_chain(small_data, cfg, rng)
        for _ in range(cfg.burn_in_steps):
            mh_step(state, rng)
        accepted = []
        for _ in range(cfg.collect_count):
            for _ in range(cfg.thin):
                mh_step(state, rng)
            accepted.append(sum(state.accept_counts.values()))
        shared = [a is b for a, b in zip(ens.trees[1:], ens.trees)]
        assert shared == [a == b for a, b in zip(accepted[1:], accepted)]
        assert 0 < sum(shared) < len(shared)

    def test_stored_trees_respect_constraints(self, small_data):
        cfg = ChainConfig(burn_in_steps=1000, collect_count=100, thin=2,
                          min_leaf=7, s_max=6, seed=4)
        ens = run_chain(small_data, cfg)
        from treebma.tree import leaf_rows as tree_leaf_rows

        for t in ens.trees:
            assert t.n_splits <= 6
            for idx in tree_leaf_rows(t, small_data.X).values():
                assert idx.size >= 7

    def test_meta_records_run(self, small_ensemble):
        meta = small_ensemble.meta
        assert meta["config"]["burn_in_steps"] == 2000
        assert meta["n"] == 120 and meta["m"] == 16
        assert 0.0 < meta["acceptance"]["overall"] < 1.0
        assert meta["duration_s"] > 0

    def test_logliks_match_recomputation(self, small_data, small_ensemble):
        alpha = small_ensemble.dirichlet_alpha
        for t, ll in list(zip(small_ensemble.trees, small_ensemble.logliks))[:20]:
            assert ll == pytest.approx(log_marginal_likelihood(t, alpha))


def _shape(tree, s):
    """A tree as nested (rule, left, right) tuples, None for a leaf: equal for equal trees."""
    rule = tree.rules[s]
    if rule is None:
        return None
    return (rule, _shape(tree, tree.left[s]), _shape(tree, tree.right[s]))


def test_two_split_posterior_oracle():
    """Sampled frequencies of every tree with up to 2 splits vs exact enumeration.

    On criterion 1's 12 rows with min_leaf 1 and s_max 2 there are 55 ordered
    trees; each weighs exp(loglik) times the product over its splits of
    1/(m * L_var), the prior stated in the sampler's docstring.
    """
    schema = Schema(
        (VariableSpec("v0", "continuous"), VariableSpec("v1", "categorical", (0, 1, 2))),
        "y",
    )
    X = np.array([
        [1.0, 0], [1.0, 1], [2.0, 0], [2.0, 2], [3.0, 1], [3.0, 0],
        [4.0, 2], [4.0, 1], [1.0, 2], [2.0, 1], [3.0, 2], [4.0, 0],
    ])
    y = np.array([0, 0, 0, 1, 1, 0, 1, 1, 0, 1, 0, 1])
    data = Dataset(schema, X, y, provenance="two-split-oracle")
    alpha = 1.0
    cands = [candidate_rules(data, j) for j in range(data.m)]
    rules = [(r, -log(data.m * len(c))) for c in cands for r in c]

    def leaf(rows):
        n1 = int(y[rows].sum())
        return leaf_log_marginal(rows.size - n1, n1, alpha)

    def split(rule, rows):
        left = rule.goes_left(X[rows, rule.variable])
        return rows[left], rows[~left]

    rows = np.arange(data.n)
    log_w = {None: leaf(rows)}
    for r1, p1 in rules:
        left, right = split(r1, rows)
        if not (left.size and right.size):
            continue
        log_w[(r1, None, None)] = p1 + leaf(left) + leaf(right)
        for r2, p2 in rules:
            ll, lr = split(r2, left)
            if ll.size and lr.size:
                log_w[(r1, (r2, None, None), None)] = p1 + p2 + leaf(ll) + leaf(lr) + leaf(right)
            rl, rr = split(r2, right)
            if rl.size and rr.size:
                log_w[(r1, None, (r2, None, None))] = p1 + p2 + leaf(left) + leaf(rl) + leaf(rr)
    assert len(log_w) == 55
    top = max(log_w.values())
    z = sum(exp(v - top) for v in log_w.values())
    exact = {k: exp(v - top) / z for k, v in log_w.items()}

    cfg = ChainConfig(burn_in_steps=5000, collect_count=100_000, thin=1,
                      min_leaf=1, s_max=2, seed=0)
    ens = run_chain(data, cfg)
    freq = Counter(_shape(t, t.root) for t in ens.trees)
    assert set(freq) <= set(exact)
    tv = 0.5 * sum(abs(p - freq[k] / len(ens)) for k, p in exact.items())
    assert tv < 0.05, f"total variation {tv:.4f} over {len(exact)} trees"


class TestChainDiagnostics:
    def test_all_rejected_chain(self, small_data):
        # min_leaf = n forbids every structural move: acceptance 0 per move
        cfg = ChainConfig(burn_in_steps=200, collect_count=50, thin=1,
                          min_leaf=small_data.n, seed=0)
        ens = run_chain(small_data, cfg)
        d = chain_diagnostics(ens)
        assert d["acceptance"]["overall"] == 0.0
        assert all(rate == 0.0 for rate in d["acceptance"]["per_move"].values())

    def test_max_trace_consistency(self, small_ensemble):
        d = chain_diagnostics(small_ensemble)
        assert d["loglik_max"] == max(small_ensemble.logliks)
        assert d["drift_z"] >= 0.0

    def test_leaf_count_histogram_totals(self, small_ensemble):
        d = chain_diagnostics(small_ensemble)
        assert sum(d["leaf_count_histogram"].values()) == len(small_ensemble)
