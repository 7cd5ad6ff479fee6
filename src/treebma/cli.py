"""Command-line surface: synth, train, eval, importance, filter, compare.

A command (``cmd_*``) checks its inputs and does its work without touching a
file. It hands back its artifacts by file name, its chain config and the text
it prints, and :func:`_finish` completes every command alike: it makes
``--out-dir``, writes the artifacts, then a ``manifest.json`` recording the
command line, resolved configuration, seed, input file digests and artifact
paths, so any run can be reproduced from its output directory, and prints the
text last. So a command whose checks or work fail makes no directory.

All randomness flows from ``--seed``. The per-fold chains of ``eval`` and
``compare`` all run in :func:`treebma.analysis.fold_chains`, the one place
their seeds are derived, with :func:`treebma.analysis.derive_seed` (a seed
sequence over (seed, fold, arm); ``eval`` is arm 0, as ``compare``'s arm (a)).

Exit codes: 0 success, 1 validation error, 2 I/O error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .analysis import filter_ensemble, fold_chains, run_comparison, variable_importance
from .bma import ChainConfig, evaluate, evaluate_selection, load_ensemble, save_ensemble
from .dataset import (
    DataValidationError,
    Dataset,
    Schema,
    load_csv,
    make_folds,
    save_csv,
    synth_trauma,
    trauma_schema,
)
from .reports import (
    comparison_csv,
    comparison_table,
    eval_reports_csv,
    eval_reports_table,
    importance_bar_chart,
    importance_csv,
)
from .sampler import chain_diagnostics, run_chain

DESK_SCHEDULE = {"burn_in_steps": 20_000, "collect_count": 1_000}  # eval, compare by default


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


class _Result(NamedTuple):
    """What a command hands :func:`_finish`: its artifacts by file name, in the manifest's
    order (text, or a Dataset or an Ensemble to save), its chain config, its printout."""

    artifacts: dict
    config: ChainConfig | None
    text: str


def _finish(args, command: list[str], result: _Result) -> int:
    """Make ``--out-dir``, write the artifacts in order (a Dataset by ``save_csv``, an
    Ensemble by ``save_ensemble``, which writes its ``metadata.json`` too) and
    ``manifest.json`` last, then print the text. The manifest's command is ``command``;
    its inputs are the files that ``--ensemble``, ``--data`` and ``--schema`` name."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, value in result.artifacts.items():
        path = out / name
        written.append(path)
        if isinstance(value, str):
            path.write_text(value, encoding="utf-8")
        elif isinstance(value, Dataset):
            save_csv(value, path)
        else:  # an Ensemble, whose chain record save_ensemble writes beside it
            written.append(out / "metadata.json")
            save_ensemble(value, path, written[-1])
    inputs = [Path(getattr(args, k)) for k in ("ensemble", "data", "schema")
              if getattr(args, k, None)]
    manifest = {
        "command": command,
        "subcommand": args.cmd,
        "args": {k: v for k, v in vars(args).items() if k not in ("func", "cmd")},
        "seed": getattr(args, "seed", None),
        "config": None if result.config is None else asdict(result.config),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "artifacts": [str(p) for p in written],
        "version": __version__,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True),
                                       encoding="utf-8")
    print(result.text)
    return 0


def _load(args) -> tuple:
    """The schema, the ``--data`` rows and the ``--ensemble`` trees the command names
    (None for a flag it lacks), with ``--variable`` checked before the trees load.

    An ``--out-dir`` that is the ``--ensemble``'s own directory is refused: the
    run would replace the model's ``manifest.json`` (and ``filter`` its
    ``metadata.json``).
    """
    ensemble = getattr(args, "ensemble", None)
    if ensemble is not None and Path(args.out_dir).resolve() == Path(ensemble).resolve().parent:
        raise ValueError(f"--out-dir {args.out_dir} is the ensemble's own directory; "
                         "its manifest.json and metadata.json would be overwritten")
    schema = Schema.from_file(args.schema) if args.schema else trauma_schema()
    data = load_csv(args.data, schema) if hasattr(args, "data") else None
    variable = getattr(args, "variable", None)
    if variable is not None and not 0 <= variable < schema.m:
        raise DataValidationError(f"variable index {variable} out of range [0, {schema.m})")
    if ensemble is not None:
        ensemble = load_ensemble(ensemble, schema=schema)
    return schema, data, ensemble


def _chain_config(args) -> ChainConfig:
    """ChainConfig's defaults (the full-scale recipe), DESK_SCHEDULE for eval and compare
    (the commands offering ``--paper-scale``) without it, then ``--burn-in``/``--collect``."""
    schedule = {} if getattr(args, "paper_scale", True) else DESK_SCHEDULE
    given = {"burn_in_steps": args.burn_in, "collect_count": args.collect}
    return ChainConfig(**schedule | {k: v for k, v in given.items() if v is not None},
                       thin=args.thin, min_leaf=args.min_leaf, s_max=args.s_max, seed=args.seed)


def _diagnostics_text(ensemble) -> str:
    d = chain_diagnostics(ensemble)
    acc = d["acceptance"]
    hist = d["leaf_count_histogram"]
    return "\n".join([
        f"acceptance overall: {acc['overall']:.3f}",
        *(f"  {mv:>12}: {rate:.3f} ({acc['accepted'][mv]}/{acc['proposed'][mv]})"
          for mv, rate in acc["per_move"].items()),
        f"loglik trace: mean {d['loglik_mean']:.2f}, max {d['loglik_max']:.2f}, "
        f"half-means {d['loglik_first_half_mean']:.2f} / "
        f"{d['loglik_second_half_mean']:.2f} (drift z={d['drift_z']:.2f})",
        "leaf-count histogram: " + ", ".join(f"{k}:{v}" for k, v in sorted(hist.items()))])


def cmd_synth(args) -> _Result:
    try:
        irrelevant = [int(s) for s in args.irrelevant.split(",")] if args.irrelevant else []
    except ValueError:
        raise ValueError(f"--irrelevant {args.irrelevant}: expected comma-separated "
                         "variable indices") from None
    data = synth_trauma(args.rows, args.seed, irrelevant)
    return _Result({"data.csv": data, "schema.json": data.schema.to_json(),
                    "provenance.txt": data.provenance + "\n"}, None,
                   f"wrote {data.n} rows x {data.m} variables to {Path(args.out_dir, 'data.csv')}")


def cmd_train(args) -> _Result:
    _, data, _ = _load(args)
    ensemble = run_chain(data, _chain_config(args))
    return _Result({"ensemble.jsonl": ensemble}, ensemble.chain.config,
                   f"{_diagnostics_text(ensemble)}\n"
                   f"wrote {len(ensemble)} trees to {Path(args.out_dir, 'ensemble.jsonl')}")


def cmd_eval(args) -> _Result:
    _, data, _ = _load(args)
    config = _chain_config(args)
    folds = make_folds(data, args.folds, seed=args.seed)
    reports = [evaluate(ens, test) for ens, test in fold_chains(data, folds, config, 0)]
    text = eval_reports_table(reports, title=f"{args.folds}-fold cross-validation")
    return _Result({"report.csv": eval_reports_csv(reports), "report.txt": text}, config, text)


def cmd_importance(args) -> _Result:
    schema, _, ensemble = _load(args)
    imp = variable_importance(ensemble, m=schema.m, per_tree=args.per_tree)
    text = importance_bar_chart(schema.names, imp)
    return _Result({"importance.csv": importance_csv(schema.names, imp),
                    "importance.txt": text}, None, text)


def cmd_filter(args) -> _Result:
    _, data, ensemble = _load(args)
    result = filter_ensemble(ensemble, args.variable)
    before, after = evaluate_selection(ensemble, result, data)
    text = (f"excluded variable: {args.variable}\n"
            f"trees omitted: {result.omitted_count} of {len(ensemble)}\n\n"
            + eval_reports_table([before], title="original ensemble")
            + "\n" + eval_reports_table([after], title="selected ensemble"))
    return _Result({"filtered_ensemble.jsonl": result.kept, "report.txt": text}, None, text)


def cmd_compare(args) -> _Result:
    schema, data, _ = _load(args)  # checks --variable before any chain runs
    config = _chain_config(args)
    report = run_comparison(data, config, weakest=args.variable,
                            noise_intensity=args.noise, k=args.folds)
    text = comparison_table(report, schema.names)
    return _Result({"compare.csv": comparison_csv(report), "compare.txt": text,
                    "importance.csv": importance_csv(schema.names, report.importance)},
                   config, text)


_SCHEDULE = "(default: {}; {} for eval and compare without --paper-scale)"
_OPTIONS = {  # each option's keyword arguments, once; --variable is each command's own
    "--rows": dict(type=int, required=True, help="number of rows to generate"),
    "--irrelevant": dict(default="", help="comma-separated variable indices carrying no "
                         "label signal (default: none)"),
    "--data": dict(required=True, help="CSV dataset path"),
    "--schema": dict(help="schema JSON path (default: bundled trauma schema)"),
    "--ensemble": dict(required=True, help="ensemble JSONL path"),
    "--seed": dict(type=int, default=0, help="seed of every random draw (default: %(default)s)"),
    "--folds": dict(type=int, default=5, help="cross-validation folds (default: %(default)s)"),
    "--noise": dict(type=float, default=0.01, help="arm (d)'s noise (default: %(default)s)"),
    "--per-tree": dict(action="store_true", help="report each variable's share of trees instead"),
    "--burn-in": dict(type=int, help="burn-in step count " + _SCHEDULE.format(
        ChainConfig.burn_in_steps, DESK_SCHEDULE["burn_in_steps"])),
    "--collect": dict(type=int, help="trees to collect " + _SCHEDULE.format(
        ChainConfig.collect_count, DESK_SCHEDULE["collect_count"])),
    "--thin": dict(type=int, default=ChainConfig.thin,
                   help="record every Nth step (default: %(default)s)"),
    "--min-leaf": dict(type=int, default=ChainConfig.min_leaf,
                       help="minimal rows per leaf (default: %(default)s)"),
    "--s-max": dict(type=int, help="maximal split count (default: max(1, n // min-leaf - 1), "
                                   "n the chain's training rows, which for eval and compare "
                                   "are each fold's)"),
    "--paper-scale": dict(action="store_true",
                          help="use the full-scale chain schedule, ChainConfig's defaults"),
    "--out-dir": dict(required=True, help="directory of the outputs and manifest.json"),
}
_CHAIN = ("--burn-in", "--collect", "--thin", "--min-leaf", "--s-max")


def _add_command(sub, func, help: str, *options) -> None:
    """The subcommand ``func`` names (``cmd_<name>``), taking ``options`` then ``--out-dir``:
    each a flag of :data:`_OPTIONS` or a (flag, keyword arguments) pair of its own."""
    p = sub.add_parser(func.__name__.removeprefix("cmd_"), help=help)
    for option in (*options, "--out-dir"):
        flag, kwargs = (option, _OPTIONS[option]) if isinstance(option, str) else option
        p.add_argument(flag, **kwargs)
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="treebma", description="Bayesian model averaging over "
                                 "RJ-MCMC-sampled classification trees")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)
    _add_command(sub, cmd_synth, "generate a synthetic trauma-schema dataset",
                 "--rows", "--seed", "--irrelevant")
    _add_command(sub, cmd_train, "run one chain and write the tree ensemble",
                 "--data", "--schema", "--seed", *_CHAIN)
    _add_command(sub, cmd_eval, "k-fold cross-validated performance report",
                 "--data", "--schema", "--folds", "--seed", *_CHAIN, "--paper-scale")
    _add_command(sub, cmd_importance, "posterior variable-importance report",
                 "--ensemble", "--schema", "--per-tree")
    _add_command(sub, cmd_filter, "drop trees using one variable, report before/after",
                 "--ensemble", "--data", "--schema",
                 ("--variable", dict(type=int, required=True, help="variable index to exclude")))
    _add_command(sub, cmd_compare, "four-arm drop/filter/noise comparison experiment",
                 "--data", "--schema", "--folds", "--seed", "--noise", *_CHAIN, "--paper-scale",
                 ("--variable", dict(type=int, help="weakest variable index "
                                     "(default: argmin importance)")))
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed {args.seed}: expected a non-negative integer")
        return _finish(args, ["treebma", *argv], args.func(args))
    except ValueError as e:  # a DataValidationError too
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
