"""Tree structure, routing, marginal likelihood, candidate rules, serialization."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betaln

from treebma import (
    DecisionTree,
    SplitRule,
    deserialize,
    leaf_predictive,
    serialize,
    synth_trauma,
)
from treebma.dataset import Dataset
from treebma.tree import (
    TreeFormatError,
    candidate_splits,
    leaf_log_marginal,
    leaf_rows,
)

from helpers import (
    leaf_ids,
    make_tree,
    prunable_ids,
    route,
    split_ids,
    split_rules,
    tree_loglik,
    valid_trees,
)


def two_split_tree() -> DecisionTree:
    """root: x0 <= 2.5 ; right child splits on x1 == 1."""
    return make_tree(
        {
            0: (SplitRule(0, threshold=2.5), 1, 2),
            1: (3, 0),
            2: (SplitRule(1, level=1), 3, 4),
            3: (0, 2),
            4: (1, 2),
        },
        root=0,
    )


class TestSplitRule:
    def test_exactly_one_of_threshold_level(self):
        with pytest.raises(ValueError):
            SplitRule(0)
        with pytest.raises(ValueError):
            SplitRule(0, threshold=1.0, level=1)

    def test_continuous_goes_left_iff_at_most_threshold(self):
        r = SplitRule(0, threshold=2.0)
        assert r.goes_left(2.0) and r.goes_left(1.9)
        assert not r.goes_left(2.0001)

    def test_categorical_goes_left_iff_equal(self):
        r = SplitRule(0, level=1)
        assert r.goes_left(1.0)
        assert not r.goes_left(0.0) and not r.goes_left(2.0)


class TestDecisionTree:
    def test_split_needs_children(self):
        with pytest.raises(ValueError, match="both children"):
            make_tree({0: (SplitRule(0, threshold=1.0), 1)}, 0)

    def test_diamond_rejected(self):
        nodes = {
            0: (SplitRule(0, threshold=1.0), 1, 2),
            1: (SplitRule(0, threshold=0.5), 3, 3),
            2: (0, 0),
            3: (0, 0),
        }
        with pytest.raises(ValueError, match="reachable twice"):
            make_tree(nodes, 0)

    def test_dangling_child_rejected(self):
        nodes = {0: (SplitRule(0, threshold=1.0), 1, 2), 1: (0, 0)}
        with pytest.raises(ValueError, match="dangling child id 2"):
            make_tree(nodes, 0)

    def test_unreachable_node_rejected(self):
        nodes = {0: (1, 1), 5: (0, 0)}
        with pytest.raises(ValueError, match="unreachable"):
            make_tree(nodes, 0)

    def test_slots_in_ascending_id_order(self):
        t = make_tree({7: (0, 1), 2: (SplitRule(0, threshold=1.0), 9, 7),
                                     9: (1, 0)}, 2)
        assert t.ids == (2, 7, 9) and t.root == 0
        assert (t.left, t.right) == ((2, -1, -1), (1, -1, -1))
        assert t.counts == (None, (0, 1), (1, 0))

    def test_structure_queries(self):
        t = two_split_tree()
        assert leaf_ids(t) == [1, 3, 4]
        assert split_ids(t) == [0, 2]
        assert prunable_ids(t) == [2]
        assert t.k_leaves == 3 and t.n_splits == 2
        assert sorted(t.variables_used()) == [0, 1]


class TestRouting:
    def test_route_by_hand(self):
        t = two_split_tree()
        assert route(t, [1.0, 0.0]) == 1    # left at root
        assert route(t, [2.5, 2.0]) == 1    # boundary goes left
        assert route(t, [3.0, 1.0]) == 3    # right, then level==1 goes left
        assert route(t, [3.0, 0.0]) == 4

    def test_route_arity_check(self):
        # the vector reaches the split on x1 but only supplies x0
        with pytest.raises(ValueError, match="too short"):
            route(two_split_tree(), [3.0])

    def test_leaf_rows_matches_route(self):
        t = two_split_tree()
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.uniform(0, 5, 40), rng.integers(0, 3, 40)]).astype(float)
        parts = leaf_rows(t, X)
        assert sorted(np.concatenate(list(parts.values())).tolist()) == list(range(40))
        for nid, idx in parts.items():
            for i in idx:
                assert route(t, X[i]) == nid


class TestMarginalLikelihood:
    def test_closed_form_cases(self):
        # B(3,1)/B(1,1) = 1/3 ; B(2,2)/B(1,1) = 1/6 ; empty leaf = 1
        assert leaf_log_marginal(2, 0, 1.0) == pytest.approx(math.log(1 / 3), abs=1e-12)
        assert leaf_log_marginal(1, 1, 1.0) == pytest.approx(math.log(1 / 6), abs=1e-12)
        assert leaf_log_marginal(0, 0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        assert leaf_log_marginal(5, 2, 1.0) == pytest.approx(leaf_log_marginal(2, 5, 1.0))

    @settings(max_examples=50, deadline=None)
    @given(n0=st.integers(0, 200), n1=st.integers(0, 200),
           alpha=st.floats(0.1, 10.0))
    def test_matches_scipy_betaln(self, n0, n1, alpha):
        expected = betaln(n0 + alpha, n1 + alpha) - betaln(alpha, alpha)
        assert leaf_log_marginal(n0, n1, alpha) == pytest.approx(expected, rel=1e-10)

    def test_tree_loglik_is_sum_over_leaves(self):
        """The chain check's loglik oracle: leaves (3, 0), (0, 2) and (1, 2) at alpha 1
        give B(4,1), B(1,3) and B(2,3) over B(1,1), that is 1/4, 1/3 and 1/12."""
        assert tree_loglik(two_split_tree(), 1.0) == pytest.approx(math.log(1 / 144),
                                                                   abs=1e-12)

    def test_unannotated_leaf_rejected(self):
        """Every leaf carries the counts that score it: a record without them is refused."""
        with pytest.raises(TreeFormatError, match="leaf 0 counts None are not two"):
            make_tree({0: None}, 0)


class TestLeafPredictive:
    def test_posterior_mean(self):
        assert leaf_predictive((3, 1), 1.0) == pytest.approx((4 / 6, 2 / 6), abs=1e-12)
        assert leaf_predictive((0, 0), 1.0) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            leaf_predictive((-1, 0), 1.0)


class TestCheckSchema:
    def test_declared_splits_pass(self, tiny_schema):
        assert deserialize(serialize(two_split_tree()), tiny_schema)[0] == two_split_tree()

    @pytest.mark.parametrize("rule, match", [
        (SplitRule(1, level=7), "does not declare"),    # undeclared level of x1
        (SplitRule(0, level=1), "does not declare"),    # level split on continuous x0
        (SplitRule(2, threshold=1.0), "has 2 variables"),
    ])
    def test_split_outside_schema(self, tiny_schema, rule, match):
        t = make_tree({0: (rule, 1, 2), 1: (1, 0), 2: (0, 1)}, 0)
        with pytest.raises(TreeFormatError, match=match):
            deserialize(serialize(t), tiny_schema)


class TestCandidateRules:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_one_column_matches_candidate_splits(self, seed):
        """Each variable's values are its distinct observed values (levels for a
        categorical), as ``np.unique`` keeps them, bit for bit (repr tells -0.0 from
        0.0), on data where one column holds both zeros; the rules built from them
        carry the same values."""
        data = synth_trauma(150, seed, frozenset({8}))
        X = data.X.copy()
        X[::3, 0], X[1::5, 0] = -0.0, 0.0
        data = Dataset(data.schema, X, data.y)
        splits = candidate_splits(data)
        for j, (var, rules) in enumerate(zip(data.schema.variables, split_rules(data))):
            unique = np.unique(X[:, j]).tolist()
            expected = list(map(int, unique)) if var.is_categorical else unique[:-1]
            assert repr(splits[j][0]) == repr(expected)
            values = [r.threshold if r.level is None else r.level for r in rules]
            assert repr(values) == repr(splits[j][0])
        assert 0.0 in splits[0][0]  # the zero is a candidate, so its sign was compared

    def test_continuous_excludes_maximum(self, tiny_data):
        values, _ = candidate_splits(tiny_data)[0]
        observed = sorted(set(tiny_data.X[:, 0]))
        assert values == observed[:-1]
        assert all(type(v) is float for v in values)

    def test_categorical_levels_present(self, tiny_data):
        values, _ = candidate_splits(tiny_data)[1]
        assert values == [0, 1, 2]
        assert all(type(v) is int for v in values)

    def test_constant_column_empty(self, tiny_schema):
        X = np.zeros((4, 2))
        X[:, 0] = 1.5
        d = Dataset(tiny_schema, X, np.array([0, 1, 0, 1]))
        assert candidate_splits(d) == [([], []), ([], [])]


class TestSerialization:
    def test_round_trip(self):
        t = two_split_tree()
        line = serialize(t, loglik=-12.5)
        assert "\n" not in line
        back, ll = deserialize(line)
        assert back == t
        assert ll == -12.5

    @pytest.mark.parametrize("line", ["[" * 100_000 + "]" * 100_000,
                                      '{"nodes": [], "root": 0, "loglik": 1%s}' % ("0" * 5000)],
                             ids=["nested-too-deep", "integer-too-long"])
    def test_json_the_decoder_refuses_is_a_format_error(self, line):
        with pytest.raises(TreeFormatError, match="invalid JSON"):
            deserialize(line)

    def test_invalid_json_reports_position(self):
        with pytest.raises(TreeFormatError, match="invalid JSON at position"):
            deserialize('{"nodes": [}')

    def test_missing_keys_rejected(self):
        with pytest.raises(TreeFormatError, match="malformed tree record"):
            deserialize('{"nodes": [{"id": 0, "leaf": [1, 1]}]}')

    @pytest.mark.parametrize("leaf", ["[3]", "[-2, 5]", "[1, 2, 3]", '["a", "b"]'])
    def test_leaf_counts_must_be_two_nonnegative_integers(self, leaf):
        with pytest.raises(TreeFormatError, match="two non-negative integers"):
            deserialize('{"nodes": [{"id": 0, "leaf": %s}], "root": 0}' % leaf)

    @pytest.mark.parametrize("rule", ['{"var": 1.0, "thr": 0.5}', '{"var": true, "level": 1}',
                                      '{"var": 1, "level": 1.5}', '{"var": 0, "thr": "2"}',
                                      '{"var": 0, "thr": NaN}', '{"var": 0}'])
    def test_split_rule_types_checked(self, rule):
        with pytest.raises(TreeFormatError, match="needs an integer var"):
            deserialize('{"nodes": [{"id": 0, "split": %s, "left": 1, "right": 2}, '
                        '{"id": 1, "leaf": [1, 0]}, {"id": 2, "leaf": [0, 1]}], "root": 0}'
                        % rule)

    def test_node_neither_split_nor_leaf(self):
        with pytest.raises(TreeFormatError, match="neither split nor leaf"):
            deserialize('{"nodes": [{"id": 0}], "root": 0}')

    def test_leaf_may_not_have_children(self):
        with pytest.raises(ValueError, match="may not have children"):
            deserialize('{"nodes": [{"id": 0, "leaf": [1, 1], "left": 1, "right": 2}], '
                        '"root": 0}')

    def test_duplicate_node_id_rejected(self):
        # the second record for id 2 used to replace the first silently
        with pytest.raises(TreeFormatError, match="duplicate node id 2"):
            deserialize('{"nodes": [{"id": 0, "split": {"var": 0, "thr": 1.5}, "left": 1, '
                        '"right": 2}, {"id": 1, "leaf": [1, 0]}, {"id": 2, "leaf": [2, 2]}, '
                        '{"id": 2, "leaf": [5, 5]}], "root": 0}')

    @pytest.mark.parametrize("node, left, root", [
        ('"x"', '"x"', "0"),      # string node and child id among integer ids
        ("true", "true", "0"),    # bool ids equal 1 as dict keys
        ("1", "1.0", "0"),        # float child id
        ("1", "1", "false"),      # bool root equals 0
        ("1", "1", '"0"'),        # string root
    ], ids=["str-id", "bool-id", "float-child", "bool-root", "str-root"])
    def test_ids_must_be_integers(self, node, left, root):
        with pytest.raises(TreeFormatError, match="integer|is not a node"):
            deserialize('{"nodes": [{"id": 0, "split": {"var": 0, "thr": 1.5}, "left": %s, '
                        '"right": 2}, {"id": %s, "leaf": [1, 0]}, {"id": 2, "leaf": [0, 1]}], '
                        '"root": %s}' % (left, node, root))

    def test_split_with_both_threshold_and_level_rejected(self):
        with pytest.raises(TreeFormatError, match="both thr and level"):
            deserialize('{"nodes": [{"id": 0, "split": {"var": 1, "thr": 0.5, "level": 1}, '
                        '"left": 1, "right": 2}, {"id": 1, "leaf": [1, 0]}, '
                        '{"id": 2, "leaf": [0, 1]}], "root": 0}')

    @pytest.mark.parametrize("loglik", ["NaN", "Infinity", "-Infinity", '"-1.5"', "true",
                                        "[-1.5]"])
    def test_loglik_must_be_a_finite_number(self, loglik):
        with pytest.raises(TreeFormatError, match="not a finite number"):
            deserialize('{"nodes": [{"id": 0, "leaf": [1, 1]}], "root": 0, "loglik": %s}'
                        % loglik)

    def test_interned_rule_still_type_checked(self, tiny_schema):
        """A shared rule table must not let ``"var": true`` through after ``"var": 1``."""
        rules = {}
        line = ('{"nodes": [{"id": 0, "split": {"var": %s, "level": 1}, "left": 1, '
                '"right": 2}, {"id": 1, "leaf": [1, 0]}, {"id": 2, "leaf": [0, 1]}], "root": 0}')
        a, _ = deserialize(line % "1", tiny_schema, rules)
        b, _ = deserialize(line % "1", tiny_schema, rules)
        assert a.rules[0] is b.rules[0] and len(rules) == 1
        with pytest.raises(TreeFormatError, match="needs an integer var"):
            deserialize(line % "true", tiny_schema, rules)

    @settings(max_examples=200, deadline=None)
    @given(tree=valid_trees(),
           loglik=st.none() | st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_property(self, tree, loglik):
        """serialize(*deserialize(line)) == line, and the record comes back equal."""
        line = serialize(tree, loglik)
        assert line == json.dumps(json.loads(line), separators=(",", ":"))
        back, ll = deserialize(line)
        assert back == tree and ll == loglik
        assert serialize(back, ll) == line
