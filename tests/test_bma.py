"""Model-averaged prediction, evaluation metrics, ensemble file round-trips."""
import json
import math
import tempfile
from dataclasses import asdict, fields, replace
from fractions import Fraction
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebma import (
    DecisionTree,
    Ensemble,
    Prediction,
    SplitRule,
    evaluate,
    evaluate_selection,
    filter_ensemble,
    load_ensemble,
    predict,
    predict_batch,
    save_ensemble,
)
from treebma.bma import PREDICT_CHUNK, ChainConfig, ChainRecord, Run, _stack, max_loglikelihood
from treebma.dataset import DataValidationError, Dataset, Schema, VariableSpec
from treebma.sampler import MOVES
from treebma.tree import (TreeFormatError, _compact, _tree, deserialize, leaf_predictive,
                          serialize)

from helpers import chain_record, ensemble, make_tree, mutated_records, route, valid_trees


def leaf_tree(counts) -> DecisionTree:
    return make_tree({0: counts}, 0)


def stump(threshold, left_counts, right_counts) -> DecisionTree:
    return make_tree(
        {0: (SplitRule(0, threshold=threshold), 1, 2), 1: left_counts, 2: right_counts}, 0)


class TestEnsemble:
    def test_needs_trees(self):
        with pytest.raises(ValueError, match="at least one tree"):
            ensemble(trees=[], logliks=[])

    def test_runs_must_be_nonempty(self):
        """A run stands for at least one draw; an empty run list holds no tree."""
        for runs in ([], [Run(leaf_tree((1, 1)), -1.0, 0)],
                     [Run(leaf_tree((1, 1)), -1.0, 2), Run(leaf_tree((2, 1)), -2.0, 0)]):
            with pytest.raises(ValueError, match="runs of length >= 1"):
                Ensemble(runs)

    def test_per_draw_views(self):
        a, b = leaf_tree((1, 1)), leaf_tree((2, 1))
        ens = Ensemble([Run(a, -1.0, 2), Run(b, -2.0, 1), Run(a, -1.0, 1)])
        assert len(ens) == 4
        assert ens.trees == [a, a, b, a] and ens.trees[1] is a
        assert ens.logliks == [-1.0, -1.0, -2.0, -1.0]

    def test_alpha_read_from_chain_record(self):
        """alpha comes from the chain record only; scoring trees without one raises."""
        ens = ensemble(trees=[leaf_tree((1, 1))], logliks=[-1.0], chain=chain_record(2.0))
        assert ens.dirichlet_alpha == 2.0
        bare = ensemble(trees=[leaf_tree((1, 1))], logliks=[-1.0])
        for score in (lambda: bare.dirichlet_alpha, lambda: predict(bare, [0.0])):
            with pytest.raises(ValueError, match="no chain record"):
                score()


class TestPrediction:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            Prediction((1.2, -0.2))

    def test_tie_breaks_toward_zero(self):
        assert Prediction((0.5, 0.5)).label == 0
        assert Prediction((0.49, 0.51)).label == 1

    def test_entropy_cases(self):
        assert Prediction((1.0, 0.0)).entropy_bits == 0.0
        assert Prediction((0.5, 0.5)).entropy_bits == pytest.approx(1.0, abs=1e-12)


class TestPredict:
    def test_single_leaf_posterior_mean(self):
        # counts (3,1), alpha=1: p = (4/6, 2/6)
        ens = ensemble(trees=[leaf_tree((3, 1))], logliks=[-1.0], chain=chain_record())
        p = predict(ens, [0.0])
        assert p.p == pytest.approx((4 / 6, 2 / 6), abs=1e-12)

    def test_two_tree_average_by_hand(self):
        # stump sends x=1 left -> leaf (2,0): p=(3/4, 1/4)
        # leaf tree (1,3): p=(2/6, 4/6); average = (13/24, 11/24)
        ens = ensemble(
            trees=[stump(1.5, (2, 0), (0, 2)), leaf_tree((1, 3))],
            logliks=[-1.0, -2.0], chain=chain_record(),
        )
        p = predict(ens, [1.0])
        assert p.p == pytest.approx((13 / 24, 11 / 24), abs=1e-12)

    def test_batch_shape_and_rows(self):
        ens = ensemble(trees=[stump(1.5, (2, 0), (0, 2))], logliks=[-1.0], chain=chain_record())
        X = np.array([[1.0], [2.0]])
        probs = predict_batch(ens, X)
        assert probs.shape == (2, 2)
        assert probs[0] == pytest.approx((3 / 4, 1 / 4))
        assert probs[1] == pytest.approx((1 / 4, 3 / 4))

    def test_arity_check(self):
        ens = ensemble(trees=[stump(1.5, (1, 0), (0, 1))], logliks=[-1.0], chain=chain_record())
        with pytest.raises(ValueError, match="arity"):
            predict_batch(ens, np.zeros((2, 0)))

    def test_requires_2d(self):
        ens = ensemble(trees=[leaf_tree((1, 1))], logliks=[-1.0], chain=chain_record())
        with pytest.raises(ValueError, match="2-d"):
            predict_batch(ens, np.zeros(3))


GRID = (0.0, 0.5, 1.0, 1.5, 2.0)  # column-0 values and thresholds: rows hit thresholds
LEVELS = (0, 1, 2)  # column-1 levels


@st.composite
def random_trees(draw, max_depth=4):
    """A tree of continuous (column 0) and categorical (column 1) splits, ids in post-order."""
    nodes = {}

    def build(depth):
        if depth == 0 or draw(st.booleans()):
            nid = len(nodes)
            nodes[nid] = (draw(st.integers(0, 9)), draw(st.integers(0, 9)))
            return nid
        rule = SplitRule(0, threshold=draw(st.sampled_from(GRID))) if draw(st.booleans()) \
            else SplitRule(1, level=draw(st.sampled_from(LEVELS)))
        left, right = build(depth - 1), build(depth - 1)
        nid = len(nodes)
        nodes[nid] = (rule, left, right)
        return nid

    root = build(max_depth)
    return make_tree(nodes, root)


def routed_oracle(ensemble, X):
    """Per tree and per row, the leaf route reaches: leaf_predictive summed in tree order."""
    acc = np.zeros((X.shape[0], 2))
    for tree in ensemble.trees:
        for i, x in enumerate(X):
            leaf = tree.ids.index(route(tree, x))
            acc[i] += leaf_predictive(tree.counts[leaf], ensemble.dirichlet_alpha)
    return acc / len(ensemble)


def grid_rows(rng, n):
    return np.column_stack([rng.choice(GRID, n), rng.choice(LEVELS, n)]).astype(np.float64)


class TestPredictBatchExact:
    @settings(max_examples=60, deadline=None)
    @given(pool=st.lists(random_trees(), min_size=1, max_size=5),
           picks=st.lists(st.integers(0, 4), min_size=1, max_size=40),
           alpha=st.sampled_from([1.0, 0.5, 2.5]),
           n_rows=st.integers(0, 12), seed=st.integers(0, 2**16))
    def test_matches_route_oracle(self, pool, picks, alpha, n_rows, seed):
        """Bit-identical to the per-row oracle: consecutive and scattered repeats of one object."""
        trees = [pool[i % len(pool)] for i in picks]
        ens = ensemble(trees=trees, logliks=[-1.0] * len(trees),
                       chain=chain_record(alpha))
        X = grid_rows(np.random.default_rng(seed), n_rows)
        assert np.array_equal(predict_batch(ens, X), routed_oracle(ens, X))

    @settings(max_examples=5, deadline=None)
    @given(pool=st.lists(random_trees(), min_size=2, max_size=6),
           lengths=st.lists(st.integers(1, 3), min_size=150, max_size=150))
    def test_longer_than_one_chunk(self, pool, lengths):
        """150 runs (150 to 450 trees), more than PREDICT_CHUNK: single leaves, far repeats."""
        pool.append(leaf_tree((4, 1)))
        trees = [pool[i % len(pool)] for i, k in enumerate(lengths) for _ in range(k)]
        ens = ensemble(trees=trees, logliks=[-1.0] * len(trees), chain=chain_record())
        assert sum(a is not b for a, b in zip(trees, [None] + trees)) > PREDICT_CHUNK
        X = grid_rows(np.random.default_rng(len(trees)), 30)
        assert np.array_equal(predict_batch(ens, X), routed_oracle(ens, X))

    def test_caterpillar_deeper_than_twelve_levels(self):
        """A spine of 14 splits, each sending the rows above its threshold on down, beside
        a stump: rows stop at every depth, and one chunk routes both trees."""
        spine = {2 * k: (SplitRule(0, threshold=k + 0.5), 2 * k + 1, 2 * k + 2)
                 for k in range(14)}
        leaves = {2 * k + 1: (k % 3, 1 + k % 2) for k in range(14)}
        deep = make_tree({**spine, **leaves, 28: (0, 5)}, 0)
        ens = ensemble(trees=[deep, stump(0.5, (1, 2), (3, 0)), deep], logliks=[-1.0] * 3,
                       chain=chain_record())
        X = np.column_stack([np.arange(-1.0, 16.0, 0.5), np.zeros(34)])
        assert np.array_equal(predict_batch(ens, X), routed_oracle(ens, X))

    def test_single_leaf_trees_only(self):
        """No split rule, so no mask: every row gets the leaves' mean pair."""
        a, b = leaf_tree((4, 1)), leaf_tree((0, 3))
        ens = ensemble(trees=[a, a, b], logliks=[-1.0, -1.0, -2.0], chain=chain_record())
        X = grid_rows(np.random.default_rng(5), 7)
        expected = (2 * np.array(leaf_predictive((4, 1), 1.0))
                    + np.array(leaf_predictive((0, 3), 1.0))) / 3
        assert np.array_equal(predict_batch(ens, X), np.tile(expected, (7, 1)))
        assert np.array_equal(predict_batch(ens, X), routed_oracle(ens, X))
        TestEvaluateSelection.check(ens, 0, X)


GRID_SCHEMA = Schema((VariableSpec("x0", "continuous"),
                      VariableSpec("x1", "categorical", LEVELS)), "y")


class TestDistinctRules:
    @settings(max_examples=25, deadline=None)
    @given(pool=st.lists(random_trees(), min_size=1, max_size=4),
           picks=st.lists(st.integers(0, 3), min_size=1, max_size=30),
           seed=st.integers(0, 2**16))
    def test_equal_distinct_rules_predict_as_interned(self, pool, picks, seed):
        """Trees read with one rule table per line (equal rules are distinct objects)
        predict exactly as the same lines read with one shared table."""
        lines = [serialize(pool[i % len(pool)]) for i in picks]
        interned: dict = {}
        shared = ensemble(trees=[deserialize(ln, rules=interned)[0] for ln in lines],
                          logliks=[-1.0] * len(lines), chain=chain_record())
        distinct = ensemble(trees=[deserialize(ln)[0] for ln in lines],
                            logliks=[-1.0] * len(lines), chain=chain_record())
        X = grid_rows(np.random.default_rng(seed), 15)
        assert np.array_equal(predict_batch(distinct, X), predict_batch(shared, X))
        assert len(_stack([r.tree for r in shared.runs], 1.0)[0]) == len(interned)
        assert len(_stack([r.tree for r in distinct.runs], 1.0)[0]) >= len(interned)


class TestEvaluateSelection:
    """``filter``'s one routing pass against two :func:`evaluate` calls on new ensembles."""

    @staticmethod
    def check(ens, variable, X):
        try:
            selection = filter_ensemble(ens, variable)
        except ValueError:  # every tree splits on the variable
            assert all(variable in t.variables_used() for t in ens.trees)
            return
        test = Dataset(GRID_SCHEMA, X, np.arange(X.shape[0]) % 2)
        before, after = evaluate_selection(ens, selection, test)
        assert before == evaluate(ens, test)
        assert after == evaluate(selection.kept, test)
        for report, kept in ((before, ens), (after, selection.kept)):
            probs = np.array([p.p for _, p in report.per_point])
            assert np.array_equal(probs, predict_batch(kept, X))

    @settings(max_examples=60, deadline=None)
    @given(pool=st.lists(random_trees(), min_size=1, max_size=5),
           picks=st.lists(st.integers(0, 4), min_size=1, max_size=40),
           variable=st.integers(0, 2), alpha=st.sampled_from([1.0, 0.5, 2.5]),
           n_rows=st.integers(1, 12), seed=st.integers(0, 2**16))
    def test_matches_two_evaluations(self, pool, picks, variable, alpha, n_rows, seed):
        """Shared-object runs, scattered repeats and any filtered variable (2 is unused)."""
        trees = [pool[i % len(pool)] for i in picks]
        ens = ensemble(trees=trees, logliks=[float(-i % 7) for i in range(len(trees))],
                       chain=chain_record(alpha))
        self.check(ens, variable, grid_rows(np.random.default_rng(seed), n_rows))

    def test_dropped_run_between_kept_runs(self):
        """[A, B, A] with B filtered out: the kept runs stay as they were, A twice at
        -3.0, then A once at -2.0."""
        a = stump(1.0, (3, 1), (0, 2))
        b = make_tree({0: (SplitRule(1, level=2), 1, 2), 1: (1, 1), 2: (4, 0)}, 0)
        ens = ensemble(trees=[a, a, b, a], logliks=[-3.0, -3.0, -1.0, -2.0], chain=chain_record())
        selection = filter_ensemble(ens, 1)
        assert selection.kept_runs == [True, False, True]
        assert selection.kept.runs == [Run(a, -3.0, 2), Run(a, -2.0, 1)]
        self.check(ens, 1, grid_rows(np.random.default_rng(3), 20))

    def test_selection_of_another_ensemble_rejected(self):
        """Run flags of an ensemble with more or fewer runs raise instead of
        cutting the full sum short."""
        a, b = stump(1.0, (3, 1), (0, 2)), leaf_tree((1, 1))
        ens = ensemble(trees=[a, b], logliks=[-1.0, -2.0], chain=chain_record())
        test = Dataset(GRID_SCHEMA, grid_rows(np.random.default_rng(0), 4), np.array([0, 1] * 2))
        for other in ([a], [a, b, a]):
            selection = filter_ensemble(ensemble(trees=other, logliks=[-1.0] * len(other)), 1)
            with pytest.raises(ValueError, match="run flags"):
                evaluate_selection(ens, selection, test)

    @settings(max_examples=5, deadline=None)
    @given(pool=st.lists(random_trees(), min_size=2, max_size=6),
           lengths=st.lists(st.integers(1, 3), min_size=150, max_size=150),
           variable=st.integers(0, 1))
    def test_longer_than_one_chunk(self, pool, lengths, variable):
        pool.append(leaf_tree((4, 1)))
        trees = [pool[i % len(pool)] for i, k in enumerate(lengths) for _ in range(k)]
        ens = ensemble(trees=trees, logliks=[-1.0] * len(trees), chain=chain_record())
        assert len(ens.runs) > PREDICT_CHUNK
        self.check(ens, variable, grid_rows(np.random.default_rng(len(trees)), 30))


class TestEvaluate:
    @pytest.fixture
    def one_var_data(self):
        schema = Schema((VariableSpec("x0", "continuous"),), "y")
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        return Dataset(schema, X, np.array([0, 0, 1, 1]))

    def test_metrics_by_hand(self, one_var_data):
        ens = ensemble(trees=[stump(2.5, (4, 0), (0, 4))], logliks=[-3.5], chain=chain_record())
        rep = evaluate(ens, one_var_data)
        assert rep.performance_pct == 100.0
        # each point: p = (5/6, 1/6) or (1/6, 5/6); entropy identical per point
        h = -(5 / 6) * math.log2(5 / 6) - (1 / 6) * math.log2(1 / 6)
        assert rep.entropy_bits == pytest.approx(4 * h)
        assert rep.entropy_bits_mean == pytest.approx(h)
        assert rep.max_train_loglik == -3.5
        assert len(rep.per_point) == 4
        assert rep.per_point[0][0] == 0  # true label recorded

    def test_tie_counts_as_class_zero(self, one_var_data):
        ens = ensemble(trees=[leaf_tree((2, 2))], logliks=[-1.0], chain=chain_record())
        rep = evaluate(ens, one_var_data)
        assert rep.performance_pct == 50.0  # predicts 0 everywhere

    def test_max_loglikelihood(self):
        ens = ensemble(trees=[leaf_tree((1, 1)), leaf_tree((2, 2))],
                       logliks=[-5.0, -3.0])
        assert max_loglikelihood(ens) == -3.0


OTHER_VALUES = [None, True, 7, 2.5, "x", [1], {"a": 1}]  # one of each JSON type


@st.composite
def mutated_sidecars(draw):
    """A valid metadata.json document with one field, of the record, its config or its
    move counts, dropped, given a value of another JSON type, or joined by an unknown key."""
    doc = json.loads(json.dumps(asdict(chain_record(2.5))))
    owner = draw(st.sampled_from([doc, doc["config"], doc["proposed"], doc["accepted"]]))
    key = draw(st.sampled_from(sorted(owner)))
    kind = draw(st.sampled_from(["drop", "retype", "add"]))
    if kind == "drop":
        del owner[key]
    elif kind == "add":
        owner["extra"] = draw(st.sampled_from(OTHER_VALUES))
    else:  # a float field may hold an integer: it is still a number
        owner[key] = draw(st.sampled_from([
            v for v in OTHER_VALUES if type(v) is not type(owner[key])
            and not (type(owner[key]) is float and type(v) is int)]))
    return doc


CONFIG_KEYS = {f.name for f in fields(ChainConfig)}


class TestChainRecord:
    """A ChainRecord refuses at construction what the metadata.json reader refuses, and one
    it accepts is read back equal from the sidecar."""

    @pytest.mark.parametrize("field, value, message", [
        ("n", 30.0, "n 30.0 is not an integer"),
        ("m", True, "m True is not an integer"),
        ("provenance", None, "provenance None is not a string"),
        ("duration_s", math.nan, "duration_s nan is not a finite number"),
        ("duration_s", "0.5", "duration_s '0.5' is not a finite number"),
        ("proposed", {"birth": 1}, "proposed and accepted are not integer counts of the "
                                   "same moves"),
        ("accepted", dict.fromkeys(MOVES, 1.0),
         "proposed and accepted are not integer counts of the same moves"),
        ("config", ChainConfig(), f"config {ChainConfig()!r} is not a ChainConfig with s_max "
                                  "resolved"),
    ], ids=["float-n", "bool-m", "none-provenance", "nan-duration", "str-duration",
            "other-moves", "float-counts", "unresolved-s-max"])
    def test_field_refused(self, field, value, message):
        """n=30.0 was once saved to a metadata.json that load_ensemble refused."""
        with pytest.raises(ValueError) as caught:
            replace(chain_record(), **{field: value})
        assert str(caught.value) == message

    @settings(max_examples=120, deadline=None)
    @given(doc=mutated_sidecars())
    def test_mutated_sidecar_is_refused_by_the_constructors(self, doc):
        """Each mutant the reader refuses is refused by ChainConfig(...) and ChainRecord(...):
        a retyped value as ValueError, a missing or unknown key as TypeError. A dropped
        config key alone passes, since ChainConfig's default fills it: the reader's key
        check is the one that refuses it."""
        config = doc.get("config")
        if type(config) is dict and config.keys() < CONFIG_KEYS:
            return
        keys_ok = doc.keys() == {f.name for f in fields(ChainRecord)} and (
            type(config) is not dict or config.keys() == CONFIG_KEYS)
        with pytest.raises(ValueError if keys_ok else TypeError):
            ChainRecord(**{**doc, **({"config": ChainConfig(**config)}
                                     if type(config) is dict else {})})

    @settings(max_examples=150, deadline=None)
    @given(config=st.fixed_dictionaries({
               "burn_in_steps": st.integers(0), "collect_count": st.integers(1),
               "thin": st.integers(1), "min_leaf": st.integers(1),
               "s_max": st.integers(1), "seed": st.integers(0),
               "dirichlet_alpha": st.floats(0.01, 1e300) | st.integers(1) | st.sampled_from(
                   [np.float64(0.5), np.float32(0.5), np.int64(2), Fraction(1, 2)])}),
           n=st.integers(), m=st.integers(), provenance=st.text(),
           counts=st.dictionaries(st.text(max_size=3), st.tuples(st.integers(), st.integers())),
           duration=st.floats(allow_nan=False, allow_infinity=False) | st.integers(),
           fault=st.none() | st.sampled_from([("n", 30.0), ("m", True), ("provenance", None),
                                              ("duration_s", np.float64(0.5)),
                                              ("proposed", {1: 1}), ("config", ChainConfig())]))
    def test_accepted_record_round_trips(self, config, n, m, provenance, counts, duration,
                                         fault):
        """Fields drawn from values the constructors accept, now and then with one that they
        refuse (alphas JSON cannot hold; the one field of ``fault``); what is accepted is
        saved and read back equal."""
        kwargs = dict(n=n, m=m, provenance=provenance, duration_s=duration,
                      proposed={k: p for k, (p, _) in counts.items()},
                      accepted={k: a for k, (_, a) in counts.items()})
        kwargs.update([fault] if fault else [])
        try:
            record = ChainRecord(**{"config": ChainConfig(**config), **kwargs})
        except ValueError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            ens_path, meta_path = Path(tmp) / "e.jsonl", Path(tmp) / "m.json"
            save_ensemble(ensemble([leaf_tree((1, 1))], [-1.0], record), ens_path, meta_path)
            assert load_ensemble(ens_path, meta_path).chain == record


class TestEnsembleIO:
    def test_round_trip(self, tmp_path, small_ensemble):
        ens_path, meta_path = tmp_path / "e.jsonl", tmp_path / "m.json"
        save_ensemble(small_ensemble, ens_path, meta_path)
        back = load_ensemble(ens_path, meta_path)
        assert len(back) == len(small_ensemble)
        assert back.trees == small_ensemble.trees
        assert back.logliks == pytest.approx(small_ensemble.logliks)
        assert back.chain == small_ensemble.chain

    def test_sidecar_beside_the_file(self, tmp_path, small_ensemble):
        """load_ensemble reads the metadata.json beside the file unless given a path; with
        none there the ensemble has no record. Writing a sidecar needs a record."""
        ens_path = tmp_path / "e.jsonl"
        save_ensemble(small_ensemble, ens_path, tmp_path / "metadata.json")
        assert load_ensemble(ens_path).chain == small_ensemble.chain
        (tmp_path / "metadata.json").unlink()
        bare = load_ensemble(ens_path)
        assert bare.chain is None and bare.trees == small_ensemble.trees
        with pytest.raises(ValueError, match="no chain record to write"):
            save_ensemble(bare, tmp_path / "again.jsonl", tmp_path / "metadata.json")
        assert not (tmp_path / "again.jsonl").exists()

    def test_explicit_sidecar_must_exist(self, tmp_path, small_ensemble):
        """An explicit sidecar path that does not exist (a typo here) is refused, naming
        it; only the default metadata.json beside the file may be absent."""
        ens_path, typo = tmp_path / "e.jsonl", tmp_path / "chian.json"
        save_ensemble(small_ensemble, ens_path, tmp_path / "chain.json")
        with pytest.raises(DataValidationError) as caught:
            load_ensemble(ens_path, typo)
        assert str(caught.value) == f"metadata file {typo} does not exist"

    @settings(max_examples=120, deadline=None)
    @given(doc=mutated_sidecars())
    def test_mutated_sidecar_is_refused(self, doc):
        """A valid record with one field dropped, retyped or added beside it is a
        DataValidationError naming the file, and nothing else."""
        with tempfile.TemporaryDirectory() as tmp:
            ens_path, meta_path = Path(tmp) / "e.jsonl", Path(tmp) / "metadata.json"
            save_ensemble(ensemble([leaf_tree((1, 1))], [-1.0], chain_record()), ens_path)
            meta_path.write_text(json.dumps(doc))
            with pytest.raises(DataValidationError) as caught:
                load_ensemble(ens_path)
            assert str(caught.value).startswith(f"metadata file {meta_path}: ")

    def test_missing_loglik_rejected(self, tmp_path):
        p = tmp_path / "e.jsonl"
        p.write_text('{"nodes":[{"id":0,"leaf":[1,1]}],"root":0}\n')
        with pytest.raises(ValueError, match="missing loglik"):
            load_ensemble(p)

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = tmp_path / "e.jsonl"
        good = '{"nodes":[{"id":0,"leaf":[1,1]}],"root":0,"loglik":-1.0}\n'
        p.write_text(good + "{broken\n")
        with pytest.raises(ValueError, match=r"e\.jsonl:2"):
            load_ensemble(p)

    def test_leaf_without_counts_rejected(self, tmp_path):
        p = tmp_path / "e.jsonl"
        good = '{"nodes":[{"id":0,"leaf":[1,1]}],"root":0,"loglik":-1.0}\n'
        p.write_text(good + '{"nodes":[{"id":0,"leaf":null}],"root":0,"loglik":-1.0}\n')
        with pytest.raises(ValueError, match=r"e\.jsonl:2: leaf 0 counts None are not two "
                                             "non-negative integers"):
            load_ensemble(p)

    def test_split_outside_schema_reports_lineno(self, tmp_path, tiny_schema):
        p = tmp_path / "e.jsonl"
        good = '{"nodes":[{"id":0,"leaf":[1,1]}],"root":0,"loglik":-1.0}\n'
        stump = ('{"nodes":[{"id":0,"split":{"var":1,"level":7},"left":1,"right":2},'
                 '{"id":1,"leaf":[1,0]},{"id":2,"leaf":[0,1]}],"root":0,"loglik":-1.0}\n')
        p.write_text(good + stump)
        assert len(load_ensemble(p)) == 2
        with pytest.raises(TreeFormatError, match=r"e\.jsonl:2: split on level 7"):
            load_ensemble(p, schema=tiny_schema)

    def test_repeated_line_shares_one_tree(self, tmp_path):
        """A line equal to the one before lengthens its run; a later repeat starts a run."""
        p = tmp_path / "e.jsonl"
        a = serialize(stump(1.5, (2, 0), (0, 2)), loglik=-1.0) + "\n"
        b = serialize(leaf_tree((1, 3)), loglik=-2.0) + "\n"
        p.write_text(a + a + b + a)
        ens = load_ensemble(p)
        assert [(r.loglik, r.length) for r in ens.runs] == [(-1.0, 2), (-2.0, 1), (-1.0, 1)]
        assert ens.runs[2].tree is not ens.runs[0].tree and ens.runs[2].tree == ens.runs[0].tree
        assert ens.logliks == [-1.0, -1.0, -2.0, -1.0]

    @settings(max_examples=40, deadline=None)
    @given(pool=st.lists(valid_trees(max_splits=3), min_size=1, max_size=3),
           picks=st.lists(st.integers(0, 5), min_size=1, max_size=25))
    def test_one_run_per_block_of_identical_lines(self, pool, picks):
        """Lines drawn from a few records: each maximal block of identical lines is one
        run, with the block's length, and saving the runs gives the lines back."""
        lines = [serialize(pool[i % len(pool)], loglik=-float(i % 2)) + "\n" for i in picks]
        blocks = [len(list(g)) for _, g in groupby(lines)]
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "e.jsonl"
            p.write_text("".join(lines))
            ens = load_ensemble(p)
            assert [r.length for r in ens.runs] == blocks
            save_ensemble(ens, p)
            assert p.read_text() == "".join(lines)

    def test_malformed_line_after_a_run_reports_lineno(self, tmp_path):
        p = tmp_path / "e.jsonl"
        good = '{"nodes":[{"id":0,"leaf":[1,1]}],"root":0,"loglik":-1.0}\n'
        p.write_text(good * 3 + '{"nodes":[{"id":0,"leaf":[1,1]}],"root":0}\n')
        with pytest.raises(ValueError, match=r"e\.jsonl:4: tree record missing loglik"):
            load_ensemble(p)

    def test_save_writes_a_run_line_per_tree(self, tmp_path):
        t, u = stump(1.5, (2, 0), (0, 2)), leaf_tree((1, 3))
        ll, ll_u = -1.0, -2.0
        ens = ensemble(trees=[t, t, t, u, t], logliks=[ll, ll, ll, ll_u, ll])
        p = tmp_path / "e.jsonl"
        save_ensemble(ens, p)
        lines = p.read_text().splitlines()
        assert lines == [serialize(x, loglik=v) for x, v in zip(ens.trees, ens.logliks)]
        assert lines[0] == lines[1] == lines[2] == lines[4] != lines[3]

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "e.jsonl"
        p.write_text('{"nodes":[{"id":0,"leaf":[1,1]}],"root":0,"loglik":-1.0}\n\n')
        assert len(load_ensemble(p)) == 1

    def test_chain_file_saved_again_unchanged(self, small_ensemble, tmp_path):
        """A chain's runs hold no line and are serialized; read back, each run holds its
        line as written, so saving the loaded ensemble gives the chain's bytes."""
        p, q = tmp_path / "e.jsonl", tmp_path / "f.jsonl"
        assert {r.line for r in small_ensemble.runs} == {None}
        save_ensemble(small_ensemble, p)
        ens = load_ensemble(p)
        assert [r.line for r in ens.runs] == \
            [line for line, _ in groupby(p.read_text().splitlines(keepends=True))]
        save_ensemble(ens, q)
        assert q.read_bytes() == p.read_bytes()

    def test_lines_copied_as_read(self, tmp_path):
        """Saving a loaded ensemble copies each record line as read, in any layout: a
        last line without a newline gets one, and blank lines are dropped."""
        a = '{"nodes": [{"id": 0, "leaf": [1, 1]}], "root": 0, "loglik": -1.0}\n'
        b = ' {"loglik":-2.5,"root":0,"nodes":[{"leaf":[3,0],"id":0}]}\t'
        p = tmp_path / "e.jsonl"
        p.write_text(a + "\n" + a + "  \n" + b)
        ens = load_ensemble(p)
        assert [(r.line, r.length) for r in ens.runs] == [(a, 2), (b + "\n", 1)]
        save_ensemble(ens, p)
        assert p.read_text() == a + a + b + "\n"


def compact(line: str) -> str:
    """A record in serialize's layout (compact separators): the node-by-node route."""
    return json.dumps(json.loads(line), separators=(",", ":"))


def spaced(line: str) -> str:
    """A record in json.dumps' default layout: the whole-line route."""
    return json.dumps(json.loads(line))


def read_both(lines, schema=None) -> list:
    """load_ensemble of ``lines`` as given and of the same records re-encoded by
    :func:`spaced`, each written to the same path: per layout, the error message, or
    the trees and logliks by repr with which positions share a tree and a rule object."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.jsonl"
        for layout in (str, spaced):
            path.write_text("".join(layout(line) + "\n" for line in lines))
            try:
                ens = load_ensemble(path, schema=schema)
            except TreeFormatError as e:
                outcomes.append(str(e).replace(str(path), "e.jsonl"))
                continue
            first: dict = {}
            outcomes.append((list(map(repr, ens.trees)), list(map(repr, ens.logliks)),
                             [first.setdefault(id(t), i) for i, t in enumerate(ens.trees)],
                             [[first.setdefault(id(r), len(first)) for r in t.rules]
                              for t in ens.trees]))
    return outcomes


STUMP = ('{"nodes":[{"id":0,"split":{"var":1,"level":1},"left":1,"right":2},'
         '{"id":1,"leaf":[1,0]},{"id":2,"leaf":[0,1]}],"root":0,"loglik":-1.0}')
BELOW = ('{"nodes":[{"id":0,"leaf":[1,0]},{"id":1,"leaf":[0,1]},{"id":2,"leaf":[2,2]},'
         '{"id":3,"split":{"var":0,"thr":2.0},"left":0,"right":1},{"id":4,"split":{"var":1,'
         '"level":1},"left":3,"right":2}],"root":4,"loglik":-3.0}')  # children below parents


class TestReadRoutes:
    """A file in serialize's layout is read node by node from a table of checked node
    records; any other layout is decoded whole. Both routes feed one tree check and give
    the same trees, logliks and shared objects, or the same error."""

    @settings(max_examples=100, deadline=None)
    @given(pool=st.lists(st.tuples(st.one_of(valid_trees(), valid_trees(chain_ids=True)),
                                   st.floats(allow_nan=False, allow_infinity=False)),
                         min_size=1, max_size=4),
           picks=st.lists(st.integers(0, 3), min_size=1, max_size=12))
    def test_valid_files_read_alike(self, pool, picks):
        """Consecutive and scattered repeats, of trees with arbitrary and with chain-ordered
        ids; each distinct node text is checked once."""
        lines = [serialize(*pool[i % len(pool)]) for i in picks]
        routes = read_both(lines)
        assert not isinstance(routes[0], str) and routes[0] == routes[1]
        table, whole = {}, {}
        for line in lines:
            deserialize(line, None, {}, table)
            deserialize(spaced(line), None, {}, whole)
        node_texts = {json.dumps(rec, separators=(",", ":"))[len('{"id":'):-1]
                      for line in lines for rec in json.loads(line)["nodes"]}
        assert set(table) == node_texts and not whole

    def test_chain_lines_read_by_set_checks(self, tmp_path, small_ensemble):
        """Every line a chain writes is read from the node table and meets the premises of
        the tree check's set proof (every node ordered, ids ascending from the root); the
        check gives back the tree it was written from."""
        path = tmp_path / "e.jsonl"
        save_ensemble(small_ensemble, path)
        rules, nodes = {}, {}
        found = [_compact(line, None, rules, nodes) for line in path.read_text().splitlines()]
        assert None not in found
        for recs, root, _ in found:
            ids = [rec[0] for rec in recs]
            assert all(rec[-1] for rec in recs) and ids == sorted(ids) and root == ids[0]
        trees = [_tree(recs, root) for recs, root, _ in found]
        assert max(tree.n_splits for tree in trees) > 1
        assert list(map(repr, trees)) == list(map(repr, small_ensemble.trees))
        assert [tail["loglik"] for _, _, tail in found] == small_ensemble.logliks

    def test_unordered_compact_line_read_from_table(self):
        """A compact line whose children sit below their parents fails the set proof's
        premise, yet its node records come from the node table, and the tree check reads
        them as the whole-line decoder does."""
        recs, root, _ = _compact(BELOW, None, {}, table := {})
        assert not all(rec[-1] for rec in recs) and len(table) == len(recs) == 5
        assert repr(_tree(recs, root)) == repr(deserialize(spaced(BELOW))[0])

    @pytest.mark.parametrize("line, expected", [
        ('{"nodes":[{"id":0,"leaf":[1]},{"id":1,"leaf":[1,1}],"root":0,"loglik":-1.0}',
         "invalid JSON at position 49: Expecting ',' delimiter"),
        ('{"nodes":[{"id":0,"leaf":}],"root":0,"loglik":-1.0}',
         "invalid JSON at position 25: Expecting value"),
        ('{"nodes":[{"id":1,"leaf":[1,]}],"root":1,"loglik":-1.0}',
         "invalid JSON at position 28: Expecting value"),
        ('{"nodes":[{"id":}],"root":0,"loglik":-1.0}',
         "invalid JSON at position 16: Expecting value"),
    ], ids=["node-check-before-fault", "missing-leaf", "missing-count", "missing-id"])
    def test_undecodable_line_names_json_error(self, tmp_path, line, expected):
        """A compact line that does not decode is refused as invalid JSON, even where a
        node before the fault decodes and fails its node check or a value is missing."""
        with pytest.raises(TreeFormatError) as caught:
            deserialize(line, None, {}, table := {})
        assert str(caught.value) == expected
        assert not table
        path = tmp_path / "e.jsonl"
        path.write_text(STUMP + "\n" + line + "\n")
        with pytest.raises(TreeFormatError) as caught:
            load_ensemble(path)
        assert str(caught.value) == f"{path}:2: {expected}"

    @settings(max_examples=150, deadline=None)
    @given(line=mutated_records())
    def test_mutated_record_fails_alike(self, line):
        """A record with one fault, after a valid line, raises the same TreeFormatError
        naming path:2 on both routes."""
        routes = read_both([STUMP, compact(line)])
        assert isinstance(routes[0], str) and routes[0].startswith("e.jsonl:2: ")
        assert routes[0] == routes[1]

    @pytest.mark.parametrize("line, expected", [
        (STUMP[:-1] + ',"nodes":[{"id":0,"leaf":[2,2]}]}', None),
        (STUMP.replace('"root":0', '"root":true'), "e.jsonl:2: root id True is not a node"),
        ('{"nodes":[{"id":2,"leaf":[0,1]},{"id":0,"split":{"var":1,"level":1},"left":1,'
         '"right":2},{"id":1,"leaf":[1,0]}],"root":0,"loglik":-1.0}', None),
        (STUMP.replace('"level":1}', '"level":1,"note":[{},{"id":5}]}'),
         "e.jsonl:2: malformed tree record: split 0 rule: unknown key 'note'"),
        (STUMP.replace("-1.0}", "NaN}"), "e.jsonl:2: loglik nan is not a finite number"),
        (STUMP.replace('"level":1', '"level":7'), "e.jsonl:2: split on level 7 of variable 1 "
         "('x1'), which the schema does not declare"),
        (STUMP.replace('"leaf":[0,1]', '"leaf":null'),
         "e.jsonl:2: leaf 2 counts None are not two non-negative integers"),
        ('{"nodes":[{"id":0,"split":{"var":1,"level":1},"left":1,"right":3},'
         '{"id":1,"leaf":[1,0]},{"id":2,"leaf":[2,0]},{"id":3,"split":{"var":0,"thr":2.0},'
         '"left":2,"right":4},{"id":4,"leaf":[0,1]}],"root":0,"loglik":-2.0}', None),
        ('{"nodes":[{"id":0,"leaf":[1,0]},{"id":1,"split":{"var":1,"level":1},"left":0,'
         '"right":2},{"id":2,"leaf":[0,1]}],"root":1,"loglik":-1.0}', None),
        ('{"nodes":[{"id":0,"split":{"var":1,"level":1},"left":1,"right":2},'
         '{"id":1,"leaf":[1,0]},{"id":2,"leaf":[0,1]},{"id":3,"split":{"var":0,"thr":2.0},'
         '"left":4,"right":3},{"id":4,"leaf":[0,1]}],"root":0,"loglik":-2.0}',
         "e.jsonl:2: unreachable nodes present"),
        ('{"nodes":[{"id":0,"split":{"var":1,"level":1},"left":2,"right":1},'
         '{"id":2,"leaf":[1,0]},{"id":1,"leaf":[0,1]}],"root":0,"loglik":-1.0}', None),
        ('{"nodes":[{"id":0,"split":{"var":1,"level":1},"left":1,"right":2},'
         '{"id":1,"split":{"var":0,"thr":2.0},"left":2,"right":3},{"id":2,"leaf":[1,0]},'
         '{"id":3,"leaf":[0,1]}],"root":0,"loglik":-1.0}',
         "e.jsonl:2: node 2 reachable twice (not a tree)"),
        (STUMP.replace('"root":0', '"root":1'), "e.jsonl:2: node 1 reachable twice (not a tree)"),
        (STUMP.replace('"root":0', '"root":false'), "e.jsonl:2: root id False is not a node"),
        (STUMP.replace('{"id":2,', '{"id":2.0,'),
         "e.jsonl:2: node ids [0, 1, 2.0] are not a non-empty list of integers"),
        ('{"nodes":[{"id":2,"leaf":[1]},{"id":0,"split":{"var":1,"level":1},"left":1,'
         '"right":2},{"id":1,"leaf":null}],"root":0,"loglik":-1.0}',
         "e.jsonl:2: leaf 2 counts [1] are not two non-negative integers"),
        ('{"nodes":[],"root":0,"loglik":-1.0}',
         "e.jsonl:2: node ids [] are not a non-empty list of integers"),
        (STUMP.replace('"level":1}', '"level":1,"lvl":2}'),
         "e.jsonl:2: malformed tree record: split 0 rule: unknown key 'lvl'"),
        (STUMP.replace('{"id":1,"leaf":[1,0]}',
                       '{"id":1,"leaf":[1,0],"split":{"var":0,"thr":1.0},"lefft":2}'),
         "e.jsonl:2: malformed tree record: leaf 1: unknown key 'lefft', unknown key "
         "'split'"),
        (STUMP.replace('"left":1', '"lefft":1,"left":1'),
         "e.jsonl:2: malformed tree record: split node 0: unknown key 'lefft'"),
        (STUMP.replace("-1.0}", '-1.0,"weight":2}'),
         "e.jsonl:2: malformed tree record: top level: unknown key 'weight'"),
        (STUMP.replace('"var":1', '"var":-1'),
         "e.jsonl:2: malformed tree record: negative variable index -1"),
        (STUMP.replace('"var":1,', ''),
         "e.jsonl:2: malformed tree record: split 0 rule: missing key 'var'"),
        (STUMP.replace('{"id":1,"leaf"', '{"leaf"'),
         "e.jsonl:2: malformed tree record: node: missing key 'id'"),
        (STUMP.replace('"root":0,', ''),
         "e.jsonl:2: malformed tree record: top level: missing key 'root'"),
        ('{"root":0,"loglik":-1.0}',
         "e.jsonl:2: malformed tree record: top level: missing key 'nodes'"),
        ('{"loglik":-1.0,"weight":2}', "e.jsonl:2: malformed tree record: top level: "
         "missing key 'nodes', missing key 'root', unknown key 'weight'"),
    ], ids=["tail-repeats-nodes", "bool-root", "ids-out-of-order", "nested-node-separator",
            "nan-loglik", "rule-outside-schema-on-line-2", "leaf-without-counts",
            "child-below-parent", "root-not-smallest", "self-loop-unreachable",
            "root-first-ids-out-of-order", "child-of-two-splits", "root-is-a-child",
            "false-root", "float-leaf-id", "two-faults-first-in-file-order", "no-nodes",
            "rule-key", "leaf-keys", "split-key", "record-key", "negative-var",
            "missing-var", "missing-id", "missing-root", "missing-nodes",
            "missing-and-unknown-keys"])
    def test_explicit_lines(self, tiny_schema, line, expected):
        """Each line after a valid one; a read line means what the whole-line decoder
        reads (a repeated key keeps its last value)."""
        routes = read_both([STUMP, line], tiny_schema)
        assert routes[0] == routes[1]
        if expected is not None:
            assert routes[0] == expected
            return
        tree, loglik = deserialize(spaced(line), tiny_schema)
        assert routes[0][0][1] == repr(tree) and routes[0][1][1] == repr(loglik)
