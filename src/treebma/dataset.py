"""Typed datasets: schema validation, CSV ingestion, folds, perturbation, synthesis.

A :class:`Schema` declares an ordered list of continuous/categorical feature
variables plus the name of a binary outcome column. A :class:`Dataset` holds
the validated feature matrix and labels as immutable numpy arrays. All
randomized operations take an explicit seed and are pure functions of their
arguments.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from importlib import resources
from numbers import Integral
from pathlib import Path

import numpy as np

__all__ = [
    "DataValidationError",
    "VariableSpec",
    "Schema",
    "Dataset",
    "FoldPlan",
    "trauma_schema",
    "load_csv",
    "save_csv",
    "make_folds",
    "drop_variable",
    "add_noise",
    "synth_trauma",
]

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"


class DataValidationError(ValueError):
    """Raised when a dataset, schema, CSV or metadata file violates its contract."""


def _check_name(name) -> None:
    """A variable or outcome name is a string without leading or trailing whitespace, so
    the header cells that :func:`load_csv` strips give it back."""
    if type(name) is not str:
        raise DataValidationError(f"name {name!r} is not a string")
    if name != name.strip():
        raise DataValidationError(f"name {name!r} has leading or trailing whitespace")


def _known_keys(obj, known: set, where: str, required=()) -> None:
    """Refuse a JSON object that lacks a key of ``required`` or holds a key outside
    ``known``, naming ``where`` and each such key, the missing ones first; any other
    value is left to the checks that follow."""
    if type(obj) is dict:
        faults = [f"missing key {k!r}" for k in required if k not in obj] \
            + [f"unknown key {k!r}" for k in sorted(obj.keys() - known)]
        if faults:
            raise DataValidationError(f"{where}: {', '.join(faults)}")


@dataclass(frozen=True)
class VariableSpec:
    """One feature column: a name, a kind, and (if categorical) its level codes, distinct
    ascending integers of magnitude at most 2**53."""

    name: str
    kind: str
    levels: tuple[int, ...] | None = None

    def __post_init__(self):
        _check_name(self.name)
        if self.kind not in (CONTINUOUS, CATEGORICAL):
            raise DataValidationError(f"unknown variable kind {self.kind!r} for {self.name!r}")
        if self.kind == CATEGORICAL:
            try:
                lv = () if self.levels is None else tuple(self.levels)
            except TypeError:
                raise DataValidationError(f"levels of {self.name!r} are not a sequence: "
                                          f"{self.levels!r}") from None
            if not lv:
                raise DataValidationError(f"categorical variable {self.name!r} needs levels")
            if not all(isinstance(x, Integral) and not isinstance(x, bool) and abs(x) <= 2**53
                       for x in lv):
                raise DataValidationError(f"levels of {self.name!r} are not integers of "
                                          f"magnitude at most 2**53: {lv!r}")
            if sorted(set(lv)) != list(lv):
                raise DataValidationError(
                    f"levels of {self.name!r} must be distinct and ascending, got {lv}"
                )
            object.__setattr__(self, "levels", tuple(map(int, lv)))
        elif self.levels is not None:
            raise DataValidationError(f"continuous variable {self.name!r} must not list levels")

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL


@dataclass(frozen=True)
class Schema:
    """Ordered feature variables plus the binary outcome column name."""

    variables: tuple[VariableSpec, ...]
    outcome: str

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) < 1:
            raise DataValidationError("schema needs at least one feature variable")
        _check_name(self.outcome)
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise DataValidationError("variable names must be unique")
        if self.outcome in names:
            raise DataValidationError(f"outcome {self.outcome!r} clashes with a feature name")

    @property
    def m(self) -> int:
        return len(self.variables)

    @property
    def names(self) -> list[str]:
        return [v.name for v in self.variables]

    def to_json(self) -> str:
        doc = {
            "variables": [
                {"name": v.name, "kind": v.kind}
                | ({"levels": list(v.levels)} if v.is_categorical else {})
                for v in self.variables
            ],
            "outcome": self.outcome,
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Schema":
        """The schema in JSON text, checked as every :class:`Schema` is. A key that is
        neither the document's nor a variable's is refused, so a misspelt one is not
        dropped, and a missing one is named with its object."""
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as e:  # nested too deep; an integer too long
            raise DataValidationError(f"schema file is not valid JSON: {e}") from None
        try:
            _known_keys(doc, {"variables", "outcome"}, "schema document", ("variables", "outcome"))
            for i, v in enumerate(doc["variables"]):
                _known_keys(v, {"name", "kind", "levels"}, f"variable {i}", ("name", "kind"))
            return cls(tuple(VariableSpec(v["name"], v["kind"], v.get("levels"))
                             for v in doc["variables"]), doc["outcome"])
        except (KeyError, TypeError) as e:
            raise DataValidationError(f"malformed schema document: {e}") from e

    @classmethod
    def from_file(cls, path) -> "Schema":
        """The schema in a JSON file; a DataValidationError names the file."""
        try:
            return cls.from_json(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as e:
            raise DataValidationError(f"schema file {path} is not UTF-8 text: {e}") from None
        except DataValidationError as e:
            raise DataValidationError(f"{e} (in {path})") from None


def trauma_schema() -> Schema:
    """The bundled 16-variable trauma screening schema (5 continuous, 11 categorical)."""
    text = resources.files("treebma.data").joinpath("trauma_schema.json").read_text("utf-8")
    return Schema.from_json(text)


@dataclass(frozen=True)
class Dataset:
    """Validated feature matrix X (n, m) with binary labels y (n,).

    Arrays are read-only after construction; operations return new datasets.
    ``provenance`` records where the data came from (file path or generator tag).
    """

    schema: Schema
    X: np.ndarray
    y: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        if type(self.provenance) is not str:  # a chain's record holds it, as a string
            raise DataValidationError(f"provenance {self.provenance!r} is not a string")
        X = np.ascontiguousarray(np.asarray(self.X, dtype=np.float64))
        y = np.asarray(self.y)  # checked before the int64 cast, which would cut 0.7 to 0
        if X.ndim != 2 or X.shape[1] != self.schema.m:
            raise DataValidationError(
                f"feature matrix shape {X.shape} does not match schema m={self.schema.m}"
            )
        if X.shape[0] < 1:
            raise DataValidationError("dataset needs at least one row")
        if y.shape != (X.shape[0],):
            raise DataValidationError("label vector length does not match row count")
        cplx = (np.fromiter(map(np.iscomplexobj, y), bool, y.size) if y.dtype == object
                else y.dtype.kind == "c")  # 1 + 0j == 1, but is no 0/1 label
        bad = np.flatnonzero((y != 0) & (y != 1) | cplx)
        if bad.size:
            raise DataValidationError(f"label not in {{0,1}} at row {bad[0]}")
        y = y.astype(np.int64, copy=False)
        ok = np.isfinite(X)
        for j, var in enumerate(self.schema.variables):
            if var.is_categorical:  # levels ascend: the first level >= a value is it or not
                levels = np.asarray(var.levels, dtype=np.float64)
                ok[:, j] &= levels.take(levels.searchsorted(X[:, j]), mode="clip") == X[:, j]
        if not ok.all():  # name the first column at fault: a non-finite value, else a level
            j = int(np.argmin(ok.all(axis=0)))
            col, var, finite = X[:, j], self.schema.variables[j], np.isfinite(X[:, j])
            r = int(np.argmin(ok[:, j] if finite.all() else finite))
            if not finite.all():
                raise DataValidationError(f"non-finite value at row {r}, column {j} ({var.name!r})")
            raise DataValidationError(
                f"value {col[r]:g} outside levels of {var.name!r} at row {r}, column {j}")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    def class_counts(self) -> tuple[int, int]:
        n1 = int(self.y.sum())
        return self.n - n1, n1


@dataclass(frozen=True)
class FoldPlan:
    """Cross-validation assignment: per-row fold index in [0, k)."""

    k: int
    assignments: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=np.int64)
        a.setflags(write=False)
        object.__setattr__(self, "assignments", a)
        sizes = np.bincount(a, minlength=self.k)
        if sizes.min() < 1:
            raise DataValidationError("every fold must be nonempty")

    def train_test(self, data: Dataset, fold: int) -> tuple[Dataset, Dataset]:
        """Split a dataset into (train, test) for one held-out fold."""
        mask = self.assignments == fold
        tr = Dataset(data.schema, data.X[~mask], data.y[~mask],
                     provenance=f"{data.provenance}|fold{fold}:train")
        te = Dataset(data.schema, data.X[mask], data.y[mask],
                     provenance=f"{data.provenance}|fold{fold}:test")
        return tr, te


def _parse_cell(text: str, row: int, col: int, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataValidationError(
            f"non-numeric cell {text!r} at row {row}, column {col} ({name!r})"
        ) from None


def load_csv(path, schema: Schema) -> Dataset:
    """Load a header-row CSV, checked as every :class:`Dataset` is.

    The header must name the schema's variables in order, then the outcome
    column. A fault of its content is a DataValidationError starting with the path.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
        reader = csv.reader(fh)
        names = schema.names + [schema.outcome]
        rows = []
        try:  # a csv.Error (a cell over the field size limit) names its file line
            header = next(reader, None)
            if header is None:
                raise DataValidationError("empty file")
            if [h.strip() for h in header] != names:
                raise DataValidationError(f"header mismatch; expected {names}, got {header}")
            for r, rec in enumerate(reader):
                if len(rec) != len(names):
                    raise DataValidationError(
                        f"row {r} has {len(rec)} cells, expected {len(names)}")
                rows.append([_parse_cell(text, r, j, name)
                             for j, (text, name) in enumerate(zip(rec, names))])
            cells = np.array(rows, dtype=np.float64).reshape(-1, len(names))
            return Dataset(schema, cells[:, :-1], cells[:, -1], provenance=str(path))
        except csv.Error as e:
            raise DataValidationError(f"{path}: line {reader.line_num}: {e}") from None
        except UnicodeDecodeError as e:
            raise DataValidationError(f"{path}: not UTF-8 text ({e.reason})") from None
        except DataValidationError as e:  # the header, a row or the Dataset's checks
            raise DataValidationError(f"{path}: {e}") from None


def _fmt(v: float) -> str:
    # integers print without a trailing .0 so categorical codes round-trip cleanly;
    # the sign is written apart, so -0.0 prints as -0, which float() reads as -0.0
    v = float(v)
    return ("-" if np.signbit(v) else "") + str(abs(int(v))) if v.is_integer() else repr(v)


def save_csv(data: Dataset, path) -> None:
    """Write a dataset back out in the load_csv format (lossless round-trip)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(data.schema.names + [data.schema.outcome])
        for i in range(data.n):
            w.writerow([_fmt(v) for v in data.X[i]] + [str(int(data.y[i]))])


def make_folds(data: Dataset, k: int, seed: int) -> FoldPlan:
    """Class-stratified k-fold assignment, deterministic for a fixed seed.

    Depends only on the labels, n, k and seed, so fold assignments are
    unchanged by feature-only transformations (column drops, noise).
    """
    if k < 2:
        raise DataValidationError("k must be at least 2")
    n0, n1 = data.class_counts()
    if min(n0, n1) < k:
        raise DataValidationError(
            f"k={k} exceeds the smallest class count ({min(n0, n1)})"
        )
    rng = np.random.default_rng(seed)
    assignments = np.empty(data.n, dtype=np.int64)
    for cls in (0, 1):
        idx = np.flatnonzero(data.y == cls)
        perm = rng.permutation(idx)
        assignments[perm] = np.arange(perm.size) % k
    return FoldPlan(k, assignments)


def drop_variable(data: Dataset, var_index: int) -> Dataset:
    """Remove one feature column; everything else is unchanged."""
    if not 0 <= var_index < data.m:
        raise DataValidationError(f"variable index {var_index} out of range [0, {data.m})")
    if data.m == 1:
        raise DataValidationError("cannot drop the only feature variable")
    keep = [j for j in range(data.m) if j != var_index]
    schema = Schema(tuple(data.schema.variables[j] for j in keep), data.schema.outcome)
    name = data.schema.variables[var_index].name
    return Dataset(schema, data.X[:, keep], data.y,
                   provenance=f"{data.provenance}|drop:{name}")


def add_noise(data: Dataset, intensity: float, seed: int) -> Dataset:
    """Add zero-centered uniform noise scaled by each column's observed range.

    Every value v in column j becomes v + range_j * u with
    u ~ Uniform(-intensity/2, +intensity/2); range_j is the observed max - min
    (1 if the column is constant). All columns become continuous in the output
    schema, since integer codes plus fractional noise no longer match declared
    levels. Labels are untouched. An intensity taking a value past the float range
    is refused.
    """
    if not 0 <= intensity < np.inf:  # also refuses nan
        raise DataValidationError(f"noise intensity {intensity} is not finite and nonnegative")
    rng = np.random.default_rng(seed)
    ranges = data.X.max(axis=0) - data.X.min(axis=0)
    ranges[ranges == 0] = 1.0
    with np.errstate(over="ignore"):
        X = data.X + ranges * rng.uniform(-intensity / 2, intensity / 2, size=data.X.shape)
    if not np.isfinite(X).all():
        raise DataValidationError(f"noise intensity {intensity} takes values past the float range")
    schema = Schema(
        tuple(VariableSpec(v.name, CONTINUOUS) for v in data.schema.variables),
        data.schema.outcome,
    )
    return Dataset(schema, X, data.y,
                   provenance=f"{data.provenance}|noise:{intensity}:{seed}")


# ---------------------------------------------------------------------------
# Synthetic substrate under the trauma screening schema
# ---------------------------------------------------------------------------

# Danger indicators for the planted labeling rule. Each continuous vital sign
# contributes 1 when it is in its clinically alarming range; each categorical
# severity code contributes 1 when any injury is recorded (code >= 1), with
# double weight for the two-level flags whose single code must carry as much
# signal as a multi-level scale.
_CONT_INDICATORS = {
    0: lambda v: v > 65.0,                  # age: elderly
    9: lambda v: (v < 12.0) | (v > 25.0),   # respiration rate: abnormal
    10: lambda v: v < 100.0,                # systolic BP: hypotension
    14: lambda v: v < 92.0,                 # oximetry: desaturation
    15: lambda v: v > 115.0,                # heart rate: tachycardia
}

FLIP_PROB = 0.02
LABEL_QUANTILE = 0.5


def planted_risk_scores(X: np.ndarray, schema: Schema, included: list[int]) -> np.ndarray:
    """Risk score of the planted synthetic labeling rule.

    The score counts danger indicators over the ``included`` variable indices:
    each continuous vital sign adds 1 when inside its alarming range (see
    ``_CONT_INDICATORS``); each categorical severity code adds 1 when an injury
    is recorded (code >= 1), weighted 2 for two-level flags.
    """
    score = np.zeros(X.shape[0])
    for j in included:
        var = schema.variables[j]
        if var.is_categorical:
            weight = 2.0 if len(var.levels) == 2 else 1.0
            score += weight * (X[:, j] >= 1.0)
        else:
            score += _CONT_INDICATORS[j](X[:, j])
    return score


def _balanced_order(y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Row ordering whose every prefix has near-proportional class counts."""
    idx0 = rng.permutation(np.flatnonzero(y == 0))
    idx1 = rng.permutation(np.flatnonzero(y == 1))
    n = y.size
    order = np.empty(n, dtype=np.int64)
    c0 = c1 = 0
    for i in range(n):
        target0 = (i + 1) * idx0.size / n
        if c0 < idx0.size and (c1 >= idx1.size or target0 - c0 >= 0.5):
            order[i] = idx0[c0]
            c0 += 1
        else:
            order[i] = idx1[c1]
            c1 += 1
    return order


def synth_trauma(n: int, seed: int, irrelevant_vars=frozenset()) -> Dataset:
    """Generate an n-row dataset under the bundled trauma schema.

    All columns are drawn independently; the label is then computed from a
    planted rule that uses only the variables NOT in ``irrelevant_vars``:
    label = 1 iff planted_risk_scores(...) exceeds its in-sample median, after
    which each label flips independently with probability 0.02. The threshold
    is recorded in ``provenance``, so the rule can be re-evaluated by hand.

    Variables in ``irrelevant_vars`` carry no label signal by construction:
    their drawn values are dealt back to the rows in a class-balanced order
    (sorted values against a label sequence whose every prefix has
    near-proportional class counts), so every threshold or level split on such
    a column leaves the class mix essentially unchanged even in-sample.
    """
    if n < 20:
        raise DataValidationError("synthetic datasets need n >= 20")
    schema = trauma_schema()
    irrelevant = frozenset(int(j) for j in irrelevant_vars)
    for j in irrelevant:
        if not 0 <= j < schema.m:
            raise DataValidationError(f"irrelevant variable index {j} out of range")
    included = [j for j in range(schema.m) if j not in irrelevant]
    if not included:
        raise DataValidationError("irrelevant_vars may not cover every variable")

    rng = np.random.default_rng(seed)
    X = np.empty((n, schema.m))
    for j, var in enumerate(schema.variables):
        if var.is_categorical:
            # severity codes skew toward the low end
            levels = np.asarray(var.levels, dtype=np.float64)
            p = 0.6 ** np.arange(len(levels))
            X[:, j] = rng.choice(levels, size=n, p=p / p.sum())
        elif j == 0:
            X[:, j] = rng.uniform(16.0, 90.0, size=n)
        elif j == 9:
            X[:, j] = np.clip(rng.normal(18.0, 6.0, size=n), 4.0, 60.0)
        elif j == 10:
            X[:, j] = np.clip(rng.normal(120.0, 25.0, size=n), 50.0, 220.0)
        elif j == 14:
            X[:, j] = np.clip(rng.normal(95.0, 4.0, size=n), 60.0, 100.0)
        else:
            X[:, j] = np.clip(rng.normal(95.0, 25.0, size=n), 30.0, 200.0)

    score = planted_risk_scores(X, schema, included)
    threshold = float(np.quantile(score, LABEL_QUANTILE))
    labels = (score > threshold).astype(np.int64)
    flips = rng.random(n) < FLIP_PROB
    labels = labels ^ flips.astype(np.int64)

    # deal irrelevant columns back class-balanced so they carry no label
    # signal even in this finite sample
    for j in sorted(irrelevant):
        sorted_vals = np.sort(X[:, j])
        col = np.empty(n)
        col[_balanced_order(labels, rng)] = sorted_vals
        X[:, j] = col

    prov = (
        f"synth_trauma:n={n};seed={seed};irrelevant={sorted(irrelevant)};"
        f"rule=indicator_count>{threshold!r};flip_prob={FLIP_PROB}"
    )
    return Dataset(schema, X, labels, provenance=prov)
