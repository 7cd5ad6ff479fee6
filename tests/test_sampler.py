"""Chain mechanics: configuration, proposals, MH stepping, collection, diagnostics."""
import random
from collections import Counter
from copy import deepcopy
from dataclasses import fields, replace
from fractions import Fraction
from itertools import groupby
from math import exp

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treebma import ChainConfig, SplitRule, chain_diagnostics, run_chain, synth_trauma
from treebma.dataset import Dataset, Schema, VariableSpec
from treebma import sampler
from treebma.sampler import MOVES, _apply, _Draws, default_s_max, init_chain, mh_step, propose
from treebma.tree import candidate_splits, leaf_log_marginal, leaf_rows, serialize

from helpers import (Script, bits, check_state, legal_trees, oracle_data, split_rules,
                     tree_loglik)


class TestChainConfig:
    def test_invalid_hyperparameters(self):
        for kwargs in ({"s_max": 0}, {"min_leaf": 0}, {"dirichlet_alpha": 0.0}):
            with pytest.raises(ValueError):
                ChainConfig(**kwargs)

    @pytest.mark.parametrize("alpha", [float("inf"), True, float("nan"), "2", Fraction(1, 2),
                                       np.float32(0.5), np.int64(2)])
    def test_alpha_is_a_finite_number(self, alpha):
        """An alpha that the metadata.json reader refuses is refused here too: inf would
        give a chain of nan logliks, True would run as 1, and a fraction or a numpy scalar
        other than float64 would stop save_ensemble, as JSON holds no such number."""
        with pytest.raises(ValueError, match="is not a finite positive number"):
            ChainConfig(dirichlet_alpha=alpha)

    @pytest.mark.parametrize("field,value", [
        ("thin", True), ("min_leaf", 2.0), ("s_max", 3.5), ("seed", True),
        ("burn_in_steps", np.int64(5)), ("collect_count", "10"), ("seed", -1)])
    def test_integer_fields_are_ints(self, field, value):
        """A field that the metadata.json reader would refuse is refused here too."""
        with pytest.raises(ValueError, match=f"^{field} .* is not an integer >= "):
            ChainConfig(**{field: value})

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
            tree_loglik(state.current, state.config.dirichlet_alpha)
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
        """A death proposal undoing a just-accepted birth negates its log ratio."""
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
                assert death.log_ratio == -birth.log_ratio  # exact: IEEE a - b == -(b - a)
                break
        else:
            pytest.fail("matching reverse death never proposed")


def _leaf_slots(tree, s):
    """The slots of the leaves under slot s."""
    if tree.rules[s] is None:
        return [s]
    return _leaf_slots(tree, tree.left[s]) + _leaf_slots(tree, tree.right[s])


def _slots(tree, s):
    """Slot s and the slots of every node under it."""
    if tree.rules[s] is None:
        return [s]
    return [s] + _slots(tree, tree.left[s]) + _slots(tree, tree.right[s])


class TestChangeOracle:
    @pytest.fixture(scope="class")
    def data(self):
        return synth_trauma(316, 1, frozenset({8}))  # the benchmark's shape

    @pytest.mark.parametrize("min_leaf", [1, 3, 25])
    def test_change_matches_leaf_rows(self, data, min_leaf):
        """For every split of seeded chain states and several (variable, value) draws, a
        change proposal's min_leaf verdict, the leaf rows and counts in force after its
        delta and its loglik equal a recomputation by leaf_rows on a copy of the tree with
        the rule replaced. The delta's rows are exactly those of the nodes under the pick
        whose rows change, and its counts those of such leaves: an unchanged subtree, at
        the children or deeper, is named nowhere."""
        draws = random.Random(min_leaf)
        rules = split_rules(data)
        deep_only = proposed = 0  # deep_only: violations only below the picked node's children
        deep_skip = 0  # proposals with an unchanged subtree below a changed child
        for seed in range(4):
            cfg = ChainConfig(seed=seed, min_leaf=min_leaf)
            rng = np.random.default_rng(seed)
            state = init_chain(data, cfg, rng)
            for _ in range(1500):
                mh_step(state, rng)
            tree, alpha = state.current, cfg.dirichlet_alpha
            slot = {nid: s for s, nid in enumerate(tree.ids)}
            for p, pick in enumerate(state.splits):
                s = slot[pick]
                under = [tree.ids[leaf] for leaf in _leaf_slots(tree, s)]
                for attempt in range(8):
                    if attempt % 2:  # change_rule keeps the variable
                        kind, var = "change_rule", tree.rules[s].variable
                    else:
                        kind, var = "change_split", draws.randrange(data.m)
                    if not rules[var]:
                        continue
                    i = draws.randrange(len(rules[var]))
                    script = Script(p, var, i) if kind == "change_split" else Script(p, i)
                    prop = propose(state, kind, script)
                    assert not script.values
                    proposed += 1
                    new = replace(tree, rules=tree.rules[:s] + (rules[var][i],)
                                  + tree.rules[s + 1:])
                    parts = leaf_rows(new, data.X)
                    ok = all(idx.size >= min_leaf for idx in parts.values())
                    assert prop.min_leaf_ok == ok
                    if not ok:
                        children = [sum(parts[new.ids[leaf]].size for leaf in _leaf_slots(new, c))
                                    for c in (new.left[s], new.right[s])]
                        deep_only += min(children) >= min_leaf
                        continue
                    counts = {nid: (idx.size - int(data.y[idx].sum()), int(data.y[idx].sum()))
                              for nid, idx in parts.items()}
                    # the rows and counts in force once the delta is laid over the state
                    rows = state.rows | dict(prop.delta[3])
                    now = {nid: state.nodes[nid].counts for nid in under} | dict(prop.delta[4])
                    assert dict(prop.delta[4]).keys() <= set(under)
                    assert {nid: now[nid] for nid in under} == {nid: counts[nid] for nid in under}
                    assert {nid: rows[nid] for nid in under} == \
                        {nid: sum(1 << int(r) for r in parts[nid]) for nid in under}
                    # every node under the pick: its new rows are its leaves' new rows
                    below = {new.ids[c]: sum(1 << int(r) for leaf in _leaf_slots(new, c)
                                             for r in parts[new.ids[leaf]])
                             for c in _slots(new, s)[1:]}
                    changed = {nid: r for nid, r in below.items() if r != state.rows[nid]}
                    assert len(prop.delta[3]) == len(changed)
                    assert dict(prop.delta[3]) == changed
                    assert dict(prop.delta[4]) == {nid: counts[nid] for nid in under
                                                   if nid in changed}
                    deep_skip += any(nid not in changed and state.parent[nid] in changed
                                     for nid in below)
                    new = replace(new, counts=tuple(counts.get(nid, c)
                                                    for nid, c in zip(tree.ids, tree.counts)))
                    assert prop.loglik == pytest.approx(tree_loglik(new, alpha),
                                                        rel=1e-12, abs=1e-9)
        assert proposed > 100
        assert deep_only > 0
        assert deep_skip > 0 or min_leaf == 25  # trees too shallow at min_leaf 25

    @pytest.mark.parametrize("kind", ["change_split", "change_rule"])
    def test_change_keeping_the_partition(self, data, kind):
        """A change to the picked split's own value, or to another value of its variable
        that sends the same rows left, passes min_leaf with no rows or counts in its
        delta, and its loglik is bitwise the full walk's: the current loglik less the
        subtree's leaf terms, then plus them, in leaf_rows's order. Applied, it leaves a
        consistent state."""
        own = other = 0
        for seed in range(4):
            cfg = ChainConfig(seed=seed, min_leaf=3)
            rng = np.random.default_rng(seed)
            state = init_chain(data, cfg, rng)
            for _ in range(1500):
                mh_step(state, rng)
            order = list(leaf_rows(state.current, data.X))  # right child first
            for p, pick in enumerate(state.splits):
                node = state.nodes[pick]
                var, rows = node.split.variable, state.rows[pick]
                same = [i for i, mask in enumerate(state.masks[var])
                        if rows & mask == state.rows[node.left]]
                mine = state.rules[var].index(node.split)
                others = [i for i in same if i != mine]
                under = {nid for nid in order if _under(state, pick, nid)}
                terms = [leaf_log_marginal(*state.nodes[nid].counts, cfg.dirichlet_alpha)
                         for nid in order if nid in under]
                walk = state.current_loglik
                for term in terms:
                    walk -= term
                for term in terms:
                    walk += term
                for i in [mine] + others[:1]:
                    script = Script(p, var, i) if kind == "change_split" else Script(p, i)
                    prop = propose(state, kind, script)
                    assert not script.values
                    assert prop.min_leaf_ok and not prop.delta[3] and not prop.delta[4]
                    assert prop.loglik == walk  # bitwise
                    moved = deepcopy(state)
                    _apply(moved, prop)
                    check_state(moved)
                    assert moved.nodes[pick].split is moved.rules[var][i]
                own += 1
                other += bool(others)
        assert own > 20 and other > 5


@pytest.mark.parametrize("kind", MOVES)
def test_propose_writes_nothing(kind):
    """A proposal, whatever its verdict, leaves the chain state as it found it, field for
    field; only the leaf-term memo may gain entries. Rule objects are built when a move
    is applied, not when it is drawn."""
    data = synth_trauma(316, 1, frozenset({8}))
    passed = 0
    for seed in range(3):
        cfg = ChainConfig(seed=seed, min_leaf=3)
        rng = np.random.default_rng(seed)
        state = init_chain(data, cfg, rng)
        for _ in range(1000):
            mh_step(state, rng)
        before = deepcopy(state)
        for _ in range(300):
            prop = propose(state, kind, rng)
            passed += prop is not None and prop.min_leaf_ok
        for f in fields(state):
            if f.name not in ("data", "terms"):
                assert getattr(state, f.name) == getattr(before, f.name), f.name
        assert state.data is data and before.terms.items() <= state.terms.items()
    assert passed > 100


def _under(state, pick, nid) -> bool:
    """Whether node nid lies in the subtree of node pick."""
    while nid != pick and nid in state.parent:
        nid = state.parent[nid]
    return nid == pick


def test_leaf_terms_memo(small_data, monkeypatch):
    """Leaf terms come from sampler.leaf_log_marginal, looked up through the module, once
    per distinct (n0, n1): with it patched to 0.0 every loglik of a chain is 0.0."""
    calls = Counter()

    def zero(n0, n1, alpha):
        calls[n0, n1] += 1
        return 0.0

    monkeypatch.setattr(sampler, "leaf_log_marginal", zero)
    cfg = ChainConfig(burn_in_steps=1000, collect_count=200, thin=3, min_leaf=3, seed=9)
    ens = run_chain(small_data, cfg)
    assert set(ens.logliks) == {0.0}
    assert sum(ens.chain.accepted.values()) > 0
    assert len(calls) > 20 and set(calls.values()) == {1}

    state = init_chain(small_data, cfg)
    calls.clear()
    rng = _Draws(cfg.seed)
    for _ in range(2000):
        mh_step(state, rng)
        assert state.current_loglik == 0.0
    assert set(calls.values()) == {1} and set(calls) <= set(state.terms)


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
            tree_loglik(state.current, state.config.dirichlet_alpha)
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
        for j, (values, rules) in enumerate(zip(state.values, split_rules(small_data))):
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
    """The column, candidate_splits and split_rules of a one-variable dataset:
    continuous, or categorical with the declared ``levels``."""
    spec = VariableSpec("x", "categorical", tuple(levels)) if levels \
        else VariableSpec("x", "continuous")
    column = np.array(values, dtype=np.float64)
    data = Dataset(Schema((spec,), "y"), column[:, None], np.zeros(column.size, dtype=int))
    return column, candidate_splits(data)[0], split_rules(data)[0]


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
        """A collection lengthens the run before it iff no move was accepted in between, so
        the run lengths sum to the collection count, adjacent runs hold distinct tree
        objects, and a collected tree repeats the object before it only within a run."""
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
        assert [r.length for r in ens.runs] == [len(list(g)) for _, g in groupby(accepted)]
        assert sum(r.length for r in ens.runs) == cfg.collect_count
        assert all(a.tree is not b.tree for a, b in zip(ens.runs, ens.runs[1:]))
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

    def test_record_describes_run(self, small_data, small_ensemble):
        """The chain record holds the resolved config, the data's shape and provenance, the
        per-move counts (one proposal a step) and the duration; diagnostics derive rates."""
        chain = small_ensemble.chain
        assert chain.config == ChainConfig(burn_in_steps=2000, collect_count=200, thin=1,
                                           min_leaf=8, s_max=10, seed=17)
        assert (chain.n, chain.m, chain.provenance) == (120, 16, small_data.provenance)
        assert list(chain.proposed) == list(chain.accepted) == list(MOVES)
        assert sum(chain.proposed.values()) == 2000 + 200
        assert chain.duration_s > 0
        acc = chain_diagnostics(small_ensemble)["acceptance"]
        assert 0.0 < acc["overall"] < 1.0
        assert acc["per_move"] == {mv: chain.accepted[mv] / chain.proposed[mv] for mv in MOVES}

    def test_logliks_match_recomputation(self, small_data, small_ensemble):
        alpha = small_ensemble.dirichlet_alpha
        for t, ll in list(zip(small_ensemble.trees, small_ensemble.logliks))[:20]:
            assert ll == pytest.approx(tree_loglik(t, alpha))


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
    data = oracle_data()
    log_w = legal_trees(data, s_max=2)
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
