"""Bayesian model averaging over classification trees sampled by RJ-MCMC."""

__version__ = "0.1.0"

from .dataset import (
    DataValidationError,
    Dataset,
    FoldPlan,
    Schema,
    VariableSpec,
    add_noise,
    drop_variable,
    load_csv,
    make_folds,
    save_csv,
    synth_trauma,
    trauma_schema,
)
from .tree import (
    DecisionTree,
    SplitRule,
    deserialize,
    leaf_predictive,
    serialize,
)
from .bma import (
    ChainConfig,
    Ensemble,
    EvalReport,
    Prediction,
    evaluate,
    evaluate_selection,
    load_ensemble,
    predict,
    predict_batch,
    save_ensemble,
)
from .sampler import chain_diagnostics, run_chain
from .analysis import (
    ComparisonReport,
    SelectionResult,
    filter_ensemble,
    run_comparison,
    variable_importance,
)
