"""Plain-text and CSV rendering of evaluation and importance reports."""
from __future__ import annotations

import csv
import io

import numpy as np

from .analysis import ARMS, ComparisonReport, _mean_std
from .bma import EvalReport

HEADER_NOTE = (
    "loglikelihood column: best single sampled tree's TRAINING marginal "
    "likelihood; entropy column: predictive entropy in bits SUMMED over test "
    "rows (mean per row in parentheses)"
)


def eval_reports_csv(reports: list[EvalReport]) -> str:
    """One row per fold plus a mean/std footer."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["fold", "performance_pct", "entropy_bits", "entropy_bits_mean",
                "max_train_loglik"])
    for i, r in enumerate(reports):
        w.writerow([i, f"{r.performance_pct:.4f}", f"{r.entropy_bits:.4f}",
                    f"{r.entropy_bits_mean:.4f}", f"{r.max_train_loglik:.4f}"])
    pm, ps = _mean_std([r.performance_pct for r in reports])
    em, es = _mean_std([r.entropy_bits for r in reports])
    lm, ls = _mean_std([r.max_train_loglik for r in reports])
    w.writerow(["mean", f"{pm:.4f}", f"{em:.4f}", "", f"{lm:.4f}"])
    w.writerow(["std", f"{ps:.4f}", f"{es:.4f}", "", f"{ls:.4f}"])
    return buf.getvalue()


def eval_reports_table(reports: list[EvalReport], title: str = "") -> str:
    lines = []
    if title:
        lines.append(title)
    lines.append(f"# {HEADER_NOTE}")
    lines.append(f"{'Fold':>4}  {'Performance, %':>14}  {'Entropy':>10}  {'Loglikelihood':>14}")
    for i, r in enumerate(reports):
        lines.append(
            f"{i:>4}  {r.performance_pct:>14.2f}  {r.entropy_bits:>10.2f}  "
            f"{r.max_train_loglik:>14.2f}"
        )
    pm, ps = _mean_std([r.performance_pct for r in reports])
    em, es = _mean_std([r.entropy_bits for r in reports])
    lm, ls = _mean_std([r.max_train_loglik for r in reports])
    lines.append(
        f"{'':>4}  {pm:>8.2f} ± {ps:<4.2f} {em:>5.2f} ± {es:<4.2f} "
        f"{lm:>7.2f} ± {ls:<4.2f}"
    )
    return "\n".join(lines) + "\n"


def importance_csv(names: list[str], importance: np.ndarray) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["variable", "name", "posterior_probability"])
    for j, (name, p) in enumerate(zip(names, importance)):
        w.writerow([j, name, f"{p:.6f}"])
    return buf.getvalue()


def importance_bar_chart(names: list[str], importance: np.ndarray) -> str:
    """Horizontal text bar chart of posterior usage probabilities, the largest 50 wide."""
    top = max(float(importance.max()), 1e-12)
    name_w = max(len(n) for n in names)
    lines = ["Posterior probabilities of variables used in the ensemble"]
    for j, (name, p) in enumerate(zip(names, importance)):
        bar = "#" * max(1 if p > 0 else 0, round(50 * p / top))
        lines.append(f"{j:>3} {name:<{name_w}} {p:8.4f} {bar}")
    return "\n".join(lines) + "\n"


def comparison_table(report: ComparisonReport, names: list[str]) -> str:
    """All four arms side by side, per fold, with mean/std footers and deltas."""
    labels = {
        "all_vars": "all variables",
        "dropped": f"dropped {names[report.weakest]!r}",
        "filtered": "filtered ensemble",
        "dropped_noise": f"dropped + noise {report.noise_intensity:g}",
    }
    lines = [f"Comparison arms (weakest variable: {report.weakest} "
             f"{names[report.weakest]!r})", f"# {HEADER_NOTE}",
             "# noise added to the full dataset before the train/test split"]
    for arm in ARMS:
        lines.append("")
        lines.append(f"[{arm}] {labels[arm]}")
        lines.append(eval_reports_table(report.reports[arm]).rstrip("\n"))
        if arm != "all_vars":
            d = report.deltas(arm)
            dp, dps = d["performance_pct"]
            de, des = d["entropy_bits"]
            lines.append(
                f"  delta vs all_vars: performance {dp:+.2f} ± {dps:.2f} pp, "
                f"entropy {de:+.2f} ± {des:.2f} bits"
            )
    om, os_ = _mean_std(report.omitted_counts)
    lines.append("")
    lines.append(f"trees omitted by filtering, per fold: {report.omitted_counts} "
                 f"({om:.1f} ± {os_:.1f})")
    return "\n".join(lines) + "\n"


def comparison_csv(report: ComparisonReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["arm", "fold", "performance_pct", "entropy_bits", "max_train_loglik",
                "omitted_trees"])
    for arm in ARMS:
        for i, r in enumerate(report.reports[arm]):
            omitted = report.omitted_counts[i] if arm == "filtered" else ""
            w.writerow([arm, i, f"{r.performance_pct:.4f}", f"{r.entropy_bits:.4f}",
                        f"{r.max_train_loglik:.4f}", omitted])
    return buf.getvalue()
