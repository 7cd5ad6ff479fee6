"""Sample a tree ensemble with RJ-MCMC and read its diagnostics.

Generates a 316-row synthetic trauma-schema dataset, runs one desk-scale
chain, and prints the chain-health numbers worth checking on any run: the
per-move acceptance rates, the post-burn-in log-likelihood trace summary, and
the distribution of tree sizes the posterior actually visits.

Run:  python3 demos/01_sample_and_diagnose.py
"""
from treebma import ChainConfig, chain_diagnostics, run_chain, synth_trauma

data = synth_trauma(n=316, seed=7, irrelevant_vars={8})
print(f"dataset: {data.n} rows, {data.m} variables, "
      f"class counts {data.class_counts()}")
print(f"provenance: {data.provenance}\n")

config = ChainConfig(burn_in_steps=20_000, collect_count=1_000, thin=3, seed=0)
ensemble = run_chain(data, config)
diag = chain_diagnostics(ensemble)

acc = diag["acceptance"]
print(f"collected {len(ensemble)} trees in {ensemble.chain.duration_s:.1f}s")
print(f"acceptance overall: {acc['overall']:.3f}  (the source run reports ~0.25)")
for move, rate in acc["per_move"].items():
    print(f"  {move:>12}: {rate:.3f}")

print(f"\nlog-likelihood trace: mean {diag['loglik_mean']:.1f}, "
      f"max {diag['loglik_max']:.1f}")
print(f"first/second half means: {diag['loglik_first_half_mean']:.1f} / "
      f"{diag['loglik_second_half_mean']:.1f}  (drift z = {diag['drift_z']:.2f}; "
      "below 2 means no detectable drift)")

print("\ntree sizes visited (leaves: trees):")
for leaves, count in sorted(diag["leaf_count_histogram"].items()):
    print(f"  {leaves:>3}: {'#' * max(1, count // 20)} {count}")
