"""The four-arm cross-validated experiment around dropping a weak variable.

Within one shared 5-fold plan, compares: (a) training on all variables,
(b) dropping the weakest variable from the data, (c) keeping arm (a)'s
ensembles but filtering out trees that use the weakest variable, and
(d) dropping the weakest variable and adding 1% range-scaled uniform noise to
everything else. Arms (a) and (c) should agree almost exactly when few trees
are filtered; the noise arm probes robustness of the representation.

Run:  python3 demos/03_four_arm_comparison.py   (a few seconds)
"""
from treebma import ChainConfig, run_comparison, synth_trauma
from treebma.reports import comparison_table

data = synth_trauma(n=316, seed=7, irrelevant_vars={8})
config = ChainConfig(burn_in_steps=20_000, collect_count=800, thin=3,
                     min_leaf=25, s_max=12, seed=11)
report = run_comparison(data, config, weakest=8, noise_intensity=0.01, k=5)
print(comparison_table(report, data.schema.names))
