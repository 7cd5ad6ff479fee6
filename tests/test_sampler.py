"""Chain mechanics: configuration, proposals, MH stepping, collection, diagnostics."""
import numpy as np
import pytest

from treebma import (
    ChainConfig,
    chain_diagnostics,
    init_chain,
    mh_step,
    propose,
    run_chain,
)
from treebma.sampler import MOVES, default_s_max
from treebma.tree import log_marginal_likelihood, serialize


class TestChainConfig:
    def test_move_probs_must_sum_to_one(self):
        with pytest.raises(ValueError, match="move_probs"):
            ChainConfig(move_probs=(0.5, 0.5, 0.5, 0.5))

    def test_move_probs_nonnegative(self):
        with pytest.raises(ValueError, match="move_probs"):
            ChainConfig(move_probs=(1.5, -0.5, 0.0, 0.0))

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
        assert state.n_splits() == 1
        assert state.current_loglik == pytest.approx(
            log_marginal_likelihood(state.current, state.prior)
        )

    def test_deterministic(self, small_data):
        a = init_chain(small_data, ChainConfig(seed=5))
        b = init_chain(small_data, ChainConfig(seed=5))
        assert serialize(a.current) == serialize(b.current)

    def test_falls_back_to_single_leaf(self, small_data):
        # min_leaf equal to n: no split can ever be valid
        state = init_chain(small_data, ChainConfig(min_leaf=small_data.n))
        assert state.n_splits() == 0


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
        before_nodes = set(state.nodes)
        state.nodes = dict(birth.nodes)
        state.leaf_rows = birth.leaf_rows
        state.current_loglik = birth.loglik
        state.next_id = max(state.nodes) + 1
        # draw deaths until the one pruning the just-born split comes up
        for attempt in range(500):
            death = propose(state, "death", np.random.default_rng(attempt))
            if death is not None and set(death.nodes) == before_nodes:
                assert death.log_prior_ratio == pytest.approx(-birth.log_prior_ratio)
                assert death.log_proposal_ratio == pytest.approx(-birth.log_proposal_ratio)
                break
        else:
            pytest.fail("matching reverse death never proposed")


class TestMhStep:
    def test_debug_invariant_holds_over_many_steps(self, small_data):
        cfg = ChainConfig(seed=2, min_leaf=5)
        rng = np.random.default_rng(cfg.seed)
        state = init_chain(small_data, cfg, rng)
        for _ in range(3000):
            mh_step(state, rng, debug=True)  # raises if the cached loglik drifts
        assert state.current_loglik == pytest.approx(
            log_marginal_likelihood(state.current, state.prior)
        )

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


class TestRunChain:
    def test_exact_collection_schedule(self, small_data):
        ens = run_chain(small_data, ChainConfig(burn_in_steps=0, collect_count=5, thin=1, seed=0))
        assert len(ens) == 5

    def test_deterministic_given_seed(self, small_data):
        cfg = ChainConfig(burn_in_steps=500, collect_count=40, thin=2, seed=12)
        a, b = run_chain(small_data, cfg), run_chain(small_data, cfg)
        assert [serialize(t) for t in a.trees] == [serialize(t) for t in b.trees]
        assert a.logliks == b.logliks

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
        from treebma import annotate

        prior = small_ensemble.prior()
        for t, ll in list(zip(small_ensemble.trees, small_ensemble.logliks))[:20]:
            assert ll == pytest.approx(log_marginal_likelihood(t, prior))


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
