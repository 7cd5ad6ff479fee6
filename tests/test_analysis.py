"""Variable importance, ensemble filtering, seed derivation, experiment arms."""
import numpy as np
import pytest

from treebma import (
    ChainConfig,
    DecisionTree,
    SplitRule,
    filter_ensemble,
    predict_batch,
    run_comparison,
    variable_importance,
)
from treebma.analysis import ARMS, derive_seed
from treebma.dataset import DataValidationError

from helpers import chain_record, ensemble, make_tree


def leaf_tree(counts=(1, 1)) -> DecisionTree:
    return make_tree({0: counts}, 0)


def stump_on(var: int) -> DecisionTree:
    return make_tree(
        {0: (SplitRule(var, threshold=0.5), 1, 2), 1: (1, 0), 2: (0, 1)}, 0)


def two_split_on(var_a: int, var_b: int) -> DecisionTree:
    return make_tree(
        {
            0: (SplitRule(var_a, threshold=0.5), 1, 2),
            1: (1, 0),
            2: (SplitRule(var_b, threshold=0.7), 3, 4),
            3: (1, 0),
            4: (0, 1),
        },
        0,
    )


class TestVariableImportance:
    def test_split_node_proportions_by_hand(self):
        # 3 split nodes total: var0 twice, var1 once
        ens = ensemble(trees=[stump_on(0), two_split_on(0, 1)], logliks=[-1, -1])
        imp = variable_importance(ens, m=3)
        assert imp == pytest.approx([2 / 3, 1 / 3, 0.0])
        assert imp.sum() == pytest.approx(1.0)

    def test_per_tree_fractions(self):
        ens = ensemble(trees=[stump_on(0), two_split_on(0, 1), leaf_tree()],
                       logliks=[-1, -1, -1])
        imp = variable_importance(ens, m=2, per_tree=True)
        assert imp == pytest.approx([2 / 3, 1 / 3])

    def test_all_leaf_ensemble_rejected(self):
        ens = ensemble(trees=[leaf_tree()], logliks=[-1])
        with pytest.raises(ValueError, match="no split nodes"):
            variable_importance(ens, m=2)

    def test_all_leaf_ensemble_per_tree_is_zero(self):
        ens = ensemble(trees=[leaf_tree(), leaf_tree()], logliks=[-1, -1])
        assert variable_importance(ens, m=2, per_tree=True).tolist() == [0.0, 0.0]

    def test_sampled_ensemble_normalized(self, small_ensemble):
        imp = variable_importance(small_ensemble, m=16)
        assert imp.sum() == pytest.approx(1.0)
        assert (imp >= 0).all()


class TestFilterEnsemble:
    def test_keeps_only_nonusers_in_order(self):
        ens = ensemble(trees=[stump_on(0), stump_on(1), two_split_on(0, 1), leaf_tree()],
                       logliks=[-1.0, -2.0, -3.0, -4.0], chain=chain_record())
        result = filter_ensemble(ens, 0)
        assert result.omitted_count == 2
        assert result.kept.trees == [stump_on(1), leaf_tree()]
        assert result.kept.logliks == [-2.0, -4.0]
        assert result.kept.chain is ens.chain  # the source's record, passed through

    def test_nothing_kept_rejected(self):
        ens = ensemble(trees=[stump_on(0)], logliks=[-1.0])
        with pytest.raises(ValueError, match="nothing kept"):
            filter_ensemble(ens, 0)

    def test_filtered_predictions_ignore_variable(self, small_data, small_ensemble):
        result = filter_ensemble(small_ensemble, 8)
        X = np.array(small_data.X)
        shuffled = X.copy()
        shuffled[:, 8] = np.random.default_rng(0).permutation(shuffled[:, 8])
        np.testing.assert_array_equal(
            predict_batch(result.kept, X), predict_batch(result.kept, shuffled)
        )


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        seeds = {derive_seed(0, f, a) for f in range(5) for a in range(4)}
        assert len(seeds) == 20


@pytest.fixture(scope="module")
def report(small_data):
    cfg = ChainConfig(burn_in_steps=600, collect_count=60, thin=1,
                      min_leaf=8, s_max=8, seed=21)
    return run_comparison(small_data, cfg, weakest=8, noise_intensity=0.01, k=3)


class TestRunComparison:

    def test_all_arms_all_folds(self, report):
        assert set(report.reports) == set(ARMS)
        for arm in ARMS:
            assert len(report.reports[arm]) == 3
        assert len(report.omitted_counts) == 3
        assert report.weakest == 8
        assert report.noise_intensity == 0.01

    def test_importance_pooled_over_folds(self, report):
        assert report.importance.shape == (16,)
        assert report.importance.sum() == pytest.approx(1.0)

    def test_arm_summary_and_deltas(self, report):
        d = report.deltas("dropped")
        diffs = [a.performance_pct - b.performance_pct
                 for a, b in zip(report.reports["dropped"], report.reports["all_vars"])]
        assert d["performance_pct"][0] == pytest.approx(np.mean(diffs))

    def test_default_weakest_is_importance_argmin(self, small_data):
        cfg = ChainConfig(burn_in_steps=600, collect_count=60, thin=1,
                          min_leaf=8, s_max=8, seed=21)
        rep = run_comparison(small_data, cfg, weakest=None, k=3)
        assert rep.weakest == int(np.argmin(rep.importance))

    @pytest.mark.parametrize("weakest", [16, -1])
    def test_weakest_out_of_range_refused_before_any_chain(self, small_data, monkeypatch,
                                                          weakest):
        """A ``weakest`` outside the 16 variables is refused with drop_variable's message
        before any chain runs."""
        import treebma.analysis
        monkeypatch.setattr(treebma.analysis, "run_chain",
                            lambda *a: pytest.fail("a chain ran"))
        with pytest.raises(DataValidationError,
                           match=rf"^variable index {weakest} out of range \[0, 16\)$"):
            run_comparison(small_data, ChainConfig(seed=1), weakest=weakest, k=2)

    def test_arm_a_and_filtered_arm_routed_once(self, small_data, monkeypatch):
        """Per fold, arm (a) and its filtered subset come from one routing pass, so a
        fold stacks three ensembles (arms a+c, b, d), not four."""
        import treebma.bma
        calls = []
        stack = treebma.bma._stack
        monkeypatch.setattr(treebma.bma, "_stack", lambda *a: calls.append(a) or stack(*a))
        cfg = ChainConfig(burn_in_steps=200, collect_count=20, thin=1, min_leaf=8, s_max=8,
                          seed=5)
        rep = run_comparison(small_data, cfg, weakest=8, k=2)
        assert len(calls) == 3 * 2
        assert all(len(rep.reports[arm]) == 2 for arm in ARMS)
