"""Acceptance suite: eight end-to-end criteria, one pass/fail line each.

Each test prints ``[criterion N] PASS/FAIL: ...`` before asserting, so the
suite's summary is readable straight from the pytest output. Criteria that
sample chains pin every seed, making each verdict reproducible.
"""
import math
from collections import Counter

import numpy as np
import pytest

from treebma import (
    ChainConfig,
    chain_diagnostics,
    evaluate,
    filter_ensemble,
    predict_batch,
    run_chain,
    run_comparison,
    synth_trauma,
    variable_importance,
)
from treebma.bma import Prediction
from treebma.cli import main
from treebma.dataset import Dataset, Schema, VariableSpec
from treebma.tree import (
    leaf_log_marginal,
    leaf_predictive,
)

from helpers import chain_record, ensemble, make_tree, oracle_data, split_rules


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# 1. Stump-posterior oracle: sampled frequencies vs exact enumeration
# ---------------------------------------------------------------------------

def test_criterion_1_stump_posterior_oracle():
    data = oracle_data()
    X, y = data.X, data.y

    # enumerate every legal tree: the single leaf plus every stump, under the
    # sampler's prior (the leaf weighs 1 and a stump 1/(m * L_var); at min_leaf 1
    # every candidate rule makes a stump, so the leaf and the stumps weigh the
    # same at s_max 1, 1/2 each)
    alpha, min_leaf, m = 1.0, 1, 2
    cands = split_rules(data)

    def stump_loglik(rule):
        col = X[:, rule.variable]
        left = col == rule.level if rule.level is not None else col <= rule.threshold
        if min(left.sum(), (~left).sum()) < min_leaf:
            return None

        def contrib(mask):
            n1 = int(y[mask].sum())
            return leaf_log_marginal(int(mask.sum()) - n1, n1, alpha)

        return contrib(left) + contrib(~left)

    n1 = int(y.sum())
    log_w = {("leaf",): math.log(0.5) + leaf_log_marginal(len(y) - n1, n1, alpha)}
    for j in range(m):
        for rule in cands[j]:
            ll = stump_loglik(rule)
            if ll is None:
                continue
            key = ("stump", j, rule.threshold if rule.level is None else ("lv", rule.level))
            log_w[key] = math.log(0.5) + ll - math.log(m) - math.log(len(cands[j]))
    mx = max(log_w.values())
    z = sum(math.exp(v - mx) for v in log_w.values())
    analytic = {k: math.exp(v - mx) / z for k, v in log_w.items()}

    cfg = ChainConfig(burn_in_steps=5000, collect_count=200_000, thin=1,
                      min_leaf=1, s_max=1, seed=42)
    ens = run_chain(data, cfg)
    freq = Counter()
    for t in ens.trees:
        if t.n_splits == 0:
            freq[("leaf",)] += 1
        else:
            sp = next(r for r in t.rules if r is not None)
            freq[("stump", sp.variable,
                  sp.threshold if sp.level is None else ("lv", sp.level))] += 1
    empirical = {k: c / len(ens.trees) for k, c in freq.items()}

    tv = 0.5 * sum(abs(analytic.get(k, 0.0) - empirical.get(k, 0.0))
                   for k in set(analytic) | set(empirical))
    ok = tv < 0.05
    verdict(1, ok, f"total-variation distance {tv:.4f} < 0.05 "
                   f"over {len(analytic)} enumerated trees, 200k samples")
    assert ok


# ---------------------------------------------------------------------------
# 2. Determinism: cmd_train twice -> byte-identical ensemble files
# ---------------------------------------------------------------------------

def test_criterion_2_train_determinism(tmp_path):
    synth_dir = tmp_path / "synth"
    assert main(["synth", "--rows", "316", "--seed", "7", "--irrelevant", "8",
                 "--out-dir", str(synth_dir)]) == 0
    args = ["train", "--data", str(synth_dir / "data.csv"), "--seed", "1",
            "--burn-in", "20000", "--collect", "1000"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(out_a)]) == 0
    assert main(args + ["--out-dir", str(out_b)]) == 0
    bytes_a = (out_a / "ensemble.jsonl").read_bytes()
    bytes_b = (out_b / "ensemble.jsonl").read_bytes()
    ok = bytes_a == bytes_b
    verdict(2, ok, f"two desk-scale cmd_train runs, identical seed: "
                   f"{len(bytes_a)}-byte ensemble files byte-identical={ok}")
    assert ok


# ---------------------------------------------------------------------------
# 3. Importance ranking: irrelevant variable in the bottom 3 of 16
# ---------------------------------------------------------------------------

def test_criterion_3_importance_ranking():
    # The irrelevant variable is the screening schema's variable 9 in the
    # source's 1-based numbering, i.e. column index 8 here.
    data = synth_trauma(316, 7, frozenset({8}))
    ranks = []
    for rep in range(5):
        pooled = np.zeros(16)
        for chain in range(5):
            cfg = ChainConfig(burn_in_steps=60_000, collect_count=2000, thin=5,
                              min_leaf=10, s_max=15, seed=6000 + rep * 5 + chain)
            pooled += variable_importance(run_chain(data, cfg), m=16)
        ranks.append(int(np.argsort(pooled / 5).tolist().index(8)))
    hits = sum(r <= 2 for r in ranks)
    ok = hits >= 4
    verdict(3, ok, f"irrelevant variable ranked {ranks} (0 = least used) "
                   f"over 5 repetitions of 5 chains; bottom-3 in {hits}/5")
    assert ok


# ---------------------------------------------------------------------------
# 4 & 8 share one four-arm comparison run
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def comparison_report():
    data = synth_trauma(316, 7, frozenset({8}))
    cfg = ChainConfig(burn_in_steps=40_000, collect_count=1500, thin=3,
                      min_leaf=25, s_max=12, seed=11)
    return run_comparison(data, cfg, weakest=8, noise_intensity=0.01, k=5)


def test_criterion_4_selection_equality(comparison_report):
    rep = comparison_report
    details, ok = [], True
    for f in range(5):
        a = rep.reports["all_vars"][f]
        c = rep.reports["filtered"][f]
        omitted_frac = rep.omitted_counts[f] / 1500
        if omitted_frac >= 0.10:
            details.append(f"fold{f}: skipped (omitted {omitted_frac:.1%})")
            continue
        dperf = abs(c.performance_pct - a.performance_pct)
        rel_ent = abs(c.entropy_bits - a.entropy_bits) / a.entropy_bits
        good = dperf <= 0.5 and rel_ent <= 0.05
        ok &= good
        details.append(f"fold{f}: dperf={dperf:.2f}pp rel_ent={rel_ent:.4f} "
                       f"omitted={omitted_frac:.1%}")
    verdict(4, ok, "arms (a) vs (c) per fold -- " + "; ".join(details))
    assert ok


def test_criterion_8_noise_arm_sanity(comparison_report):
    rep = comparison_report
    perf_a = float(np.mean([r.performance_pct for r in rep.reports["all_vars"]]))
    perf_d = float(np.mean([r.performance_pct for r in rep.reports["dropped_noise"]]))
    diff = perf_d - perf_a
    ok = abs(diff) <= 5.0
    direction = "improved" if diff > 0 else "degraded"
    verdict(8, ok, f"noise arm mean {perf_d:.2f}% vs all-variables {perf_a:.2f}% "
                   f"(diff {diff:+.2f}pp, within +/-5pp; direction: {direction}, "
                   f"reported not asserted)")
    assert ok


# ---------------------------------------------------------------------------
# 5. Filtered-ensemble invariance under shuffling the excluded column
# ---------------------------------------------------------------------------

def test_criterion_5_filtered_invariance(small_data, small_ensemble):
    result = filter_ensemble(small_ensemble, 8)
    X = np.array(small_data.X)
    shuffled = X.copy()
    shuffled[:, 8] = np.random.default_rng(1).permutation(shuffled[:, 8])
    base = predict_batch(result.kept, X)
    after = predict_batch(result.kept, shuffled)
    ok = bool((base == after).all())
    verdict(5, ok, f"shuffling the excluded column changed "
                   f"{int((base != after).any(axis=1).sum())}/{X.shape[0]} predictions "
                   f"({result.omitted_count} trees omitted)")
    assert ok


# ---------------------------------------------------------------------------
# 6. Chain health: acceptance band and no log-likelihood drift
# ---------------------------------------------------------------------------

def test_criterion_6_chain_health():
    data = synth_trauma(316, 7, frozenset({8}))
    cfg = ChainConfig(burn_in_steps=60_000, collect_count=2000, thin=5,
                      min_leaf=3, seed=123)
    diag = chain_diagnostics(run_chain(data, cfg))
    acc = diag["acceptance"]["overall"]
    z = diag["drift_z"]
    ok = 0.05 <= acc <= 0.60 and z < 2.0
    verdict(6, ok, f"acceptance {acc:.3f} in [0.05, 0.60]; post-burn-in half-mean "
                   f"gap {z:.2f} standard errors (< 2)")
    assert ok


# ---------------------------------------------------------------------------
# 7. Metric unit tests at tight tolerances
# ---------------------------------------------------------------------------

def test_criterion_7_metric_units(small_ensemble):
    # normalization over 10,000 random queries
    rng = np.random.default_rng(0)
    schema = synth_trauma(20, 0).schema
    X = np.empty((10_000, 16))
    for j, var in enumerate(schema.variables):
        if var.is_categorical:
            X[:, j] = rng.choice(np.asarray(var.levels, float), size=10_000)
        else:
            X[:, j] = rng.uniform(0.0, 200.0, size=10_000)
    probs = predict_batch(small_ensemble, X)
    max_norm_err = float(np.abs(probs.sum(axis=1) - 1.0).max())

    # entropy of a deterministic predictor is 0; 63-row uniform predictor is 63 bits
    det_entropy = Prediction((1.0, 0.0)).entropy_bits
    uniform = ensemble(trees=[make_tree({0: (5, 5)}, 0)],
                       logliks=[-1.0], chain=chain_record())
    one_var = Schema((VariableSpec("x", "continuous"),), "y")
    test63 = Dataset(one_var, np.arange(63, dtype=float)[:, None],
                     np.zeros(63, dtype=int))
    uniform_entropy = evaluate(uniform, test63).entropy_bits

    # Beta-function marginal likelihood closed forms
    beta_errs = [
        abs(leaf_log_marginal(2, 0, 1.0) - math.log(1 / 3)),
        abs(leaf_log_marginal(1, 1, 1.0) - math.log(1 / 6)),
        abs(leaf_log_marginal(0, 0, 1.0) - 0.0),
    ]
    pred_err = max(abs(a - b) for a, b in
                   zip(leaf_predictive((3, 1), 1.0), (4 / 6, 2 / 6)))

    ok = (max_norm_err < 1e-12 and det_entropy == 0.0
          and abs(uniform_entropy - 63.0) < 1e-9
          and max(beta_errs) < 1e-12 and pred_err < 1e-12)
    verdict(7, ok, f"normalization err {max_norm_err:.2e} < 1e-12 (10k queries); "
                   f"deterministic entropy {det_entropy}; uniform 63-row entropy "
                   f"{uniform_entropy:.12f} bits; beta closed-form err "
                   f"{max(beta_errs):.2e}")
    assert ok
