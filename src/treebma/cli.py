"""Command-line surface: synth, train, eval, importance, filter, compare.

Every command writes its artifacts plus a ``manifest.json`` recording the
command line, resolved configuration, seed, input file digests, and emitted
artifact paths, so any run can be reproduced from its output directory.
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

from . import __version__
from .analysis import filter_ensemble, fold_chains, run_comparison, variable_importance
from .bma import ChainConfig, evaluate, evaluate_selection, load_ensemble, save_ensemble
from .dataset import (
    DataValidationError,
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

DESK_BURN_IN = 20_000
DESK_COLLECT = 1_000
PAPER_BURN_IN = 200_000
PAPER_COLLECT = 10_000


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, args: argparse.Namespace, inputs: list[Path],
                    artifacts: list[Path], config: ChainConfig | None = None) -> Path:
    manifest = {
        "command": sys.argv,
        "subcommand": args.cmd,
        "args": {k: v for k, v in vars(args).items() if k not in ("func", "cmd")},
        "seed": getattr(args, "seed", None),
        "config": None if config is None else asdict(config),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "artifacts": [str(p) for p in artifacts],
        "version": __version__,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return path


def _prepare(args, *inputs) -> tuple[Path, list[Path]]:
    """The output directory's path; the input files, plus ``--schema`` if given.

    An ``--out-dir`` that is the ``--ensemble``'s own directory is refused: the
    run would replace the model's ``manifest.json`` (and ``filter`` its
    ``metadata.json``). Each command makes the directory only when its first
    artifact is ready to be written, so a command that fails leaves none.
    """
    out = Path(args.out_dir)
    ensemble = getattr(args, "ensemble", None)
    if ensemble is not None and out.resolve() == Path(ensemble).resolve().parent:
        raise ValueError(f"--out-dir {out} is the ensemble's own directory; "
                         "its manifest.json and metadata.json would be overwritten")
    paths = [Path(p) for p in inputs]
    if getattr(args, "schema", None):
        paths.append(Path(args.schema))
    return out, paths


def _check_variable(variable: int, schema: Schema) -> None:
    if not 0 <= variable < schema.m:
        raise DataValidationError(f"variable index {variable} out of range [0, {schema.m})")


def _load(args) -> tuple:
    schema = Schema.from_file(args.schema) if args.schema else trauma_schema()
    data = load_csv(args.data, schema)
    return data, schema


def _chain_config(args, desk_default: bool = False) -> ChainConfig:
    if desk_default and not getattr(args, "paper_scale", False):
        burn, collect = DESK_BURN_IN, DESK_COLLECT
    else:
        burn, collect = PAPER_BURN_IN, PAPER_COLLECT
    if args.burn_in is not None:
        burn = args.burn_in
    if args.collect is not None:
        collect = args.collect
    return ChainConfig(
        burn_in_steps=burn,
        collect_count=collect,
        thin=args.thin,
        min_leaf=args.min_leaf,
        s_max=args.s_max,
        seed=args.seed,
    )


def _print_diagnostics(ensemble) -> None:
    d = chain_diagnostics(ensemble)
    acc = d["acceptance"]
    print(f"acceptance overall: {acc['overall']:.3f}")
    for mv, rate in acc["per_move"].items():
        print(f"  {mv:>12}: {rate:.3f} ({acc['accepted'][mv]}/{acc['proposed'][mv]})")
    print(f"loglik trace: mean {d['loglik_mean']:.2f}, max {d['loglik_max']:.2f}, "
          f"half-means {d['loglik_first_half_mean']:.2f} / "
          f"{d['loglik_second_half_mean']:.2f} (drift z={d['drift_z']:.2f})")
    hist = d["leaf_count_histogram"]
    print("leaf-count histogram: " + ", ".join(f"{k}:{v}" for k, v in sorted(hist.items())))


def cmd_synth(args) -> int:
    out, inputs = _prepare(args)
    irrelevant = frozenset(int(s) for s in args.irrelevant.split(",")) \
        if args.irrelevant else frozenset()
    data = synth_trauma(args.rows, args.seed, irrelevant)
    out.mkdir(parents=True, exist_ok=True)
    data_path, schema_path = out / "data.csv", out / "schema.json"
    save_csv(data, data_path)
    schema_path.write_text(data.schema.to_json(), encoding="utf-8")
    (out / "provenance.txt").write_text(data.provenance + "\n", encoding="utf-8")
    _write_manifest(out, args, inputs, [data_path, schema_path, out / "provenance.txt"])
    print(f"wrote {data.n} rows x {data.m} variables to {data_path}")
    return 0


def cmd_train(args) -> int:
    out, inputs = _prepare(args, args.data)
    data, _ = _load(args)
    ensemble = run_chain(data, _chain_config(args))
    out.mkdir(parents=True, exist_ok=True)
    ens_path, meta_path = out / "ensemble.jsonl", out / "metadata.json"
    save_ensemble(ensemble, ens_path, meta_path)
    _write_manifest(out, args, inputs, [ens_path, meta_path], ensemble.chain.config)
    _print_diagnostics(ensemble)
    print(f"wrote {len(ensemble)} trees to {ens_path}")
    return 0


def cmd_eval(args) -> int:
    out, inputs = _prepare(args, args.data)
    data, _ = _load(args)
    config = _chain_config(args, desk_default=True)
    folds = make_folds(data, args.folds, seed=args.seed)
    reports = [evaluate(ens, test) for ens, test in fold_chains(data, folds, config, 0)]
    out.mkdir(parents=True, exist_ok=True)
    csv_path, txt_path = out / "report.csv", out / "report.txt"
    csv_path.write_text(eval_reports_csv(reports), encoding="utf-8")
    text = eval_reports_table(reports, title=f"{args.folds}-fold cross-validation")
    txt_path.write_text(text, encoding="utf-8")
    _write_manifest(out, args, inputs, [csv_path, txt_path], config)
    print(text)
    return 0


def cmd_importance(args) -> int:
    out, inputs = _prepare(args, args.ensemble)
    schema = Schema.from_file(args.schema) if args.schema else trauma_schema()
    ensemble = load_ensemble(args.ensemble, schema=schema)
    imp = variable_importance(ensemble, m=schema.m, per_tree=args.per_tree)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, txt_path = out / "importance.csv", out / "importance.txt"
    csv_path.write_text(importance_csv(schema.names, imp), encoding="utf-8")
    text = importance_bar_chart(schema.names, imp)
    txt_path.write_text(text, encoding="utf-8")
    _write_manifest(out, args, inputs, [csv_path, txt_path])
    print(text)
    return 0


def cmd_filter(args) -> int:
    out, inputs = _prepare(args, args.ensemble, args.data)
    data, schema = _load(args)
    _check_variable(args.variable, schema)
    ensemble = load_ensemble(args.ensemble, schema=schema)
    result = filter_ensemble(ensemble, args.variable)
    before, after = evaluate_selection(ensemble, result, data)
    out.mkdir(parents=True, exist_ok=True)
    ens_path, meta_path = out / "filtered_ensemble.jsonl", out / "metadata.json"
    save_ensemble(result.kept, ens_path, meta_path)
    txt_path = out / "report.txt"
    text = (f"excluded variable: {args.variable}\n"
            f"trees omitted: {result.omitted_count} of {len(ensemble)}\n\n"
            + eval_reports_table([before], title="original ensemble")
            + "\n" + eval_reports_table([after], title="selected ensemble"))
    txt_path.write_text(text, encoding="utf-8")
    _write_manifest(out, args, inputs, [ens_path, meta_path, txt_path])
    print(text)
    return 0


def cmd_compare(args) -> int:
    out, inputs = _prepare(args, args.data)
    data, schema = _load(args)
    if args.variable is not None:  # before any chain runs
        _check_variable(args.variable, schema)
    config = _chain_config(args, desk_default=True)
    report = run_comparison(data, config, weakest=args.variable,
                            noise_intensity=args.noise, k=args.folds)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, txt_path = out / "compare.csv", out / "compare.txt"
    csv_path.write_text(comparison_csv(report), encoding="utf-8")
    text = comparison_table(report, schema.names)
    txt_path.write_text(text, encoding="utf-8")
    imp_path = out / "importance.csv"
    imp_path.write_text(importance_csv(schema.names, report.importance), encoding="utf-8")
    _write_manifest(out, args, inputs, [csv_path, txt_path, imp_path], config)
    print(text)
    return 0


def _add_chain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--burn-in", type=int, default=None, help="burn-in step count")
    p.add_argument("--collect", type=int, default=None, help="trees to collect")
    p.add_argument("--thin", type=int, default=7, help="record every Nth step")
    p.add_argument("--min-leaf", type=int, default=3, help="minimal rows per leaf")
    p.add_argument("--s-max", type=int, default=None, help="maximal split count")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="CSV dataset path")
    p.add_argument("--schema", default=None,
                   help="schema JSON path (default: bundled trauma schema)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="treebma",
        description="Bayesian model averaging over RJ-MCMC-sampled classification trees",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("synth", help="generate a synthetic trauma-schema dataset")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--irrelevant", default="",
                   help="comma-separated variable indices carrying no label signal")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="run one chain and write the tree ensemble")
    _add_data_flags(p)
    p.add_argument("--seed", type=int, default=0)
    _add_chain_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="k-fold cross-validated performance report")
    _add_data_flags(p)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    _add_chain_flags(p)
    p.add_argument("--paper-scale", action="store_true",
                   help="use the full-scale chain schedule (200k burn-in, 10k trees)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("importance", help="posterior variable-importance report")
    p.add_argument("--ensemble", required=True, help="ensemble JSONL path")
    p.add_argument("--schema", default=None)
    p.add_argument("--per-tree", action="store_true",
                   help="report fraction of trees using each variable instead")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("filter", help="drop trees using one variable, report before/after")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--variable", type=int, required=True)
    _add_data_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("compare", help="four-arm drop/filter/noise comparison experiment")
    _add_data_flags(p)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variable", type=int, default=None,
                   help="weakest variable index (default: argmin importance)")
    p.add_argument("--noise", type=float, default=0.01)
    _add_chain_flags(p)
    p.add_argument("--paper-scale", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_compare)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed {args.seed}: expected a non-negative integer")
        return args.func(args)
    except (DataValidationError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
