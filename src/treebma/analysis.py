"""Posterior variable importance, ensemble filtering, and experiment arms.

Importance is the proportion of split nodes across the sampled ensemble that
test each variable. Filtering drops every sampled tree that splits on a
designated weak variable, so the kept ensemble never consults it.
``run_comparison`` runs the four experiment arms (full variable set, dropped
variable, filtered ensemble, dropped + noise) per cross-validation fold under
one shared fold plan. Every per-fold chain, of ``eval`` and of each arm, runs
in :func:`fold_chains`, the one place a (fold, arm) chain seed is derived.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .bma import ChainConfig, Ensemble, EvalReport, evaluate, evaluate_selection
from .dataset import DataValidationError, Dataset, FoldPlan, add_noise, drop_variable, make_folds
from .sampler import run_chain

__all__ = [
    "SelectionResult",
    "ComparisonReport",
    "ARMS",
    "variable_importance",
    "filter_ensemble",
    "run_comparison",
    "derive_seed",
    "fold_chains",
]

ARMS = ("all_vars", "dropped", "filtered", "dropped_noise")


def _mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation (0 for a single value)."""
    a = np.asarray(values, dtype=np.float64)
    return float(a.mean()), (float(a.std(ddof=1)) if a.size > 1 else 0.0)


def variable_importance(ensemble: Ensemble, m: int, per_tree: bool = False) -> np.ndarray:
    """Posterior usage probability per variable.

    Default: split-node proportions (counts of split nodes testing variable j,
    normalized by total split nodes; entries sum to 1). With ``per_tree=True``,
    the fraction of trees containing at least one split on the variable
    (entries then need not sum to 1). A run's tree counts once, weighted by
    the run's length; the counts are integers, so the sums are exact.
    """
    used = [r.tree.variables_used() for r in ensemble.runs]
    top = max((v for vs in used for v in vs), default=-1)
    if top >= m:
        raise ValueError(f"ensemble splits on variable {top}, beyond the {m} variables")
    imp = np.zeros(m)
    for vs, run in zip(used, ensemble.runs):
        for v in (set(vs) if per_tree else vs):
            imp[v] += run.length
    if per_tree:
        return imp / len(ensemble)
    if not imp.any():
        raise ValueError("importance undefined: no split nodes in the ensemble")
    return imp / imp.sum()


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of excluding trees that use one variable; ``kept_runs`` flags, per run of
    the original ensemble's ``runs``, whether ``kept`` holds it."""

    kept: Ensemble
    omitted_count: int
    kept_runs: list[bool]


def filter_ensemble(ensemble: Ensemble, variable: int) -> SelectionResult:
    """Keep only trees with zero splits on ``variable``, in order, with runs and chain record."""
    kept_runs = [variable not in r.tree.variables_used() for r in ensemble.runs]
    runs = [r for r, k in zip(ensemble.runs, kept_runs) if k]
    if not runs:
        raise ValueError(f"every tree splits on variable {variable}; nothing kept")
    kept = Ensemble(runs, ensemble.chain)
    return SelectionResult(kept, len(ensemble) - len(kept), kept_runs)


def derive_seed(master_seed: int, fold: int, arm: int) -> int:
    """Per-(fold, arm) chain seed from the master seed, via a seed sequence."""
    return int(np.random.SeedSequence([master_seed, fold, arm]).generate_state(1)[0])


def fold_chains(data: Dataset, folds: FoldPlan, config: ChainConfig,
                arm: int) -> Iterator[tuple[Ensemble, Dataset]]:
    """Per fold f, in order: the chain run on fold f's training rows of ``data`` with seed
    ``derive_seed(config.seed, f, arm)``, and fold f's held-out rows."""
    for f in range(folds.k):
        train, test = folds.train_test(data, f)
        yield run_chain(train, dc_replace(config, seed=derive_seed(config.seed, f, arm))), test


@dataclass(frozen=True)
class ComparisonReport:
    """Per-arm, per-fold evaluation reports plus shared experiment metadata."""

    weakest: int
    noise_intensity: float
    reports: dict[str, list[EvalReport]]
    omitted_counts: list[int]
    importance: np.ndarray

    def deltas(self, arm: str) -> dict[str, tuple[float, float]]:
        """Paired per-fold differences (arm - all_vars), mean and std."""
        pairs = list(zip(self.reports[arm], self.reports["all_vars"]))
        return {"performance_pct": _mean_std([a.performance_pct - b.performance_pct
                                              for a, b in pairs]),
                "entropy_bits": _mean_std([a.entropy_bits - b.entropy_bits
                                           for a, b in pairs])}


def run_comparison(data: Dataset, config: ChainConfig, weakest: int | None = None,
                   noise_intensity: float = 0.01, k: int = 5) -> ComparisonReport:
    """Run the four experiment arms per fold under one shared fold plan.

    Arms: (a) all variables; (b) drop the weakest variable; (c) train on all
    variables, then filter out trees that use the weakest; (d) drop the weakest
    and add range-scaled uniform noise to the remaining columns. Noise is added
    to the full dataset before the train/test split; that choice is recorded in
    the report metadata. When ``weakest`` is None it defaults to the argmin of
    arm (a)'s pooled variable importance. A fold whose arm-(a) trees all split on
    the weakest variable leaves arm (c) empty: that is a ValueError naming the fold
    and the variable, raised before any arm-(b) or arm-(d) chain runs. A ``weakest``
    outside the data's variables is refused before any chain runs.
    """
    if weakest is not None and not 0 <= weakest < data.m:
        raise DataValidationError(f"variable index {weakest} out of range [0, {data.m})")
    folds = make_folds(data, k, seed=config.seed)
    noised = add_noise(data, noise_intensity, seed=derive_seed(config.seed, 0, 99))

    # arm (a) ensembles are needed first: they define the default weakest
    # variable and are filtered into arm (c)
    arm_a = list(fold_chains(data, folds, config, 0))
    importance = np.zeros(data.m)
    for ens, _ in arm_a:
        importance += variable_importance(ens, m=data.m)
    importance /= k
    if weakest is None:
        weakest = int(np.argmin(importance))

    selections = []
    for f, (ens, _) in enumerate(arm_a):
        try:
            selections.append(filter_ensemble(ens, weakest))
        except ValueError as e:
            raise ValueError(f"fold {f}: {e} for the filtered arm") from None

    reports: dict[str, list[EvalReport]] = {arm: [] for arm in ARMS}
    runs = zip(arm_a, selections,
               fold_chains(drop_variable(data, weakest), folds, config, 1),
               fold_chains(drop_variable(noised, weakest), folds, config, 3))
    for (ens_a, test), sel, (ens_b, test_b), (ens_d, test_d) in runs:
        all_vars, filtered = evaluate_selection(ens_a, sel, test)  # one routing pass
        reports["all_vars"].append(all_vars)
        reports["filtered"].append(filtered)
        reports["dropped"].append(evaluate(ens_b, test_b))
        reports["dropped_noise"].append(evaluate(ens_d, test_d))

    return ComparisonReport(
        weakest=weakest,
        noise_intensity=noise_intensity,
        reports=reports,
        omitted_counts=[sel.omitted_count for sel in selections],
        importance=importance,
    )
