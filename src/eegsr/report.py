"""Evaluation metrics and report emission.

Reconstruction quality is reported as MSE and MAE of the missing-channel
block per dataset, scale and method; classification quality as accuracy
plus per-class precision, recall and support for features taken from true
versus reconstructed signals. Reports serialise to markdown tables and to
CSV, written and read through `eegsr.table` (repr floats, so value-exact).
Malformed text, a table without rows and a row or group of rows that does
not make a valid record raise ParseError naming the file and the line.
Records check their own values, scoring checks row alignment and the class
set, and the writers check nothing.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import table
from .data import check_aligned
from .errors import DataError, ParseError

DATASETS = ("val", "test")
SR_METHODS = ("bicubic", "wgan")
CLASS_SOURCES = ("hr", "sr")


@dataclass(frozen=True)
class MetricsRecord:
    """Reconstruction error for one (dataset, scale, method) cell."""

    dataset: str
    scale: int
    method: str
    mse: float
    mae: float
    seed: int

    def __post_init__(self):
        if self.dataset not in DATASETS:
            raise DataError(f"dataset must be one of {DATASETS}, got {self.dataset!r}")
        if self.method not in SR_METHODS:
            raise DataError(f"method must be one of {SR_METHODS}, got {self.method!r}")
        if not (0 <= self.mse < np.inf and 0 <= self.mae < np.inf):
            raise DataError(f"mse {self.mse} and mae {self.mae} must be finite and not negative")
        # Mean absolute error can never exceed the RMS error.
        if self.mae > np.sqrt(self.mse) * (1.0 + 1e-12) + 1e-300:
            raise DataError(
                f"inconsistent metrics: mae {self.mae} exceeds rms {np.sqrt(self.mse)}"
            )


@dataclass(frozen=True)
class ClassMetrics:
    """Classifier quality for one (scale, feature source) condition."""

    scale: int
    source: str
    accuracy: float
    class_ids: tuple[int, ...]
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    support: tuple[int, ...]
    seed: int
    undefined: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.source not in CLASS_SOURCES:
            raise DataError(f"source must be one of {CLASS_SOURCES}, got {self.source!r}")
        n = len(self.class_ids)
        if len(self.precision) != n or len(self.recall) != n or len(self.support) != n:
            raise DataError("per-class metric lengths do not match class_ids")
        for name, vals in (("accuracy", (self.accuracy,)), ("precision", self.precision),
                           ("recall", self.recall)):
            for v in vals:
                if not 0.0 <= v <= 1.0:
                    raise DataError(f"{name} value {v} outside [0, 1]")


def sr_metrics(pred_set, truth_set):
    """(mse, mae) of predicted missing-channel blocks against the truth,
    whose rows they must match (`check_aligned`)."""
    check_aligned(pred_set, truth_set)
    if len(pred_set) == 0:
        raise DataError("cannot score an empty set")
    p = pred_set.rows()
    t = truth_set.rows()
    if p.shape != t.shape:
        raise DataError(f"prediction shape {p.shape} does not match truth {t.shape}")
    diff = p - t
    return float((diff**2).mean()), float(np.abs(diff).mean())


def classification_metrics(predicted, truth, class_ids, scale, source, seed):
    """Accuracy and per-class precision/recall from predicted vs true ids.

    A class with no predictions gets precision 0 and an `undefined` flag
    (likewise recall for a class with no true members); micro-average recall
    always equals accuracy.
    """
    predicted = np.asarray(predicted, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    class_ids = tuple(int(c) for c in class_ids)
    unknown = set(truth.tolist()) - set(class_ids)
    if unknown:
        raise DataError(f"true labels {sorted(unknown)} missing from class set {class_ids}")

    precision, recall, support, undefined = [], [], [], []
    for c in class_ids:
        pred_c = predicted == c
        true_c = truth == c
        tp = int((pred_c & true_c).sum())
        support.append(int(true_c.sum()))
        if pred_c.sum() == 0:
            precision.append(0.0)
            undefined.append(f"precision:{c}")
        else:
            precision.append(tp / int(pred_c.sum()))
        if true_c.sum() == 0:
            recall.append(0.0)
            undefined.append(f"recall:{c}")
        else:
            recall.append(tp / int(true_c.sum()))
    accuracy = float((predicted == truth).mean())
    return ClassMetrics(
        scale=scale, source=source, accuracy=accuracy, class_ids=class_ids,
        precision=tuple(precision), recall=tuple(recall), support=tuple(support),
        undefined=tuple(undefined), seed=seed,
    )


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

SR_CSV_HEADER = ["dataset", "scale", "method", "mse", "mae", "seed"]
CLASS_CSV_HEADER = ["scale", "source", "metric", "class", "value", "undefined", "seed"]
CLASS_METRICS = ("precision", "recall", "support")  # one row each per class


def write_sr_csv(path, records):
    table.write(path, SR_CSV_HEADER, ([r.dataset, r.scale, r.method, r.mse, r.mae, r.seed]
                                      for r in records))


def _read_rows(path, header):
    """The table at `path`, which must hold at least one row."""
    t = table.read(path, header)
    if not len(t.cells):
        raise ParseError(f"{path}: no rows below the header", line=t.first_line)
    return t


def _record(cls, path, line, **fields):
    """cls(**fields); a record it rejects is a ParseError at `line` of `path`."""
    try:
        return cls(**fields)
    except DataError as exc:
        raise ParseError(f"{path}: {exc}", line=line) from None


def read_sr_csv(path):
    t = _read_rows(path, SR_CSV_HEADER)
    return [_record(MetricsRecord, path, line, dataset=dataset, scale=scale, method=method,
                    mse=mse, mae=mae, seed=seed)
            for line, (dataset, scale, method, (mse, mae), seed) in enumerate(zip(
                t.cells[:, 0].tolist(), t.parse(1, int, "scale").tolist(),
                t.cells[:, 2].tolist(), t.parse(slice(3, 5), float, "error").tolist(),
                t.parse(5, int, "seed").tolist()), start=t.first_line)]


def write_class_csv(path, metrics_list):
    rows = []
    for m in metrics_list:
        rows.append([m.scale, m.source, "accuracy", "", m.accuracy, "", m.seed])
        for i, c in enumerate(m.class_ids):
            for name in CLASS_METRICS:
                flag = "1" if f"{name}:{c}" in m.undefined else ""
                rows.append([m.scale, m.source, name, c, getattr(m, name)[i], flag, m.seed])
    table.write(path, CLASS_CSV_HEADER, rows)


def read_class_csv(path):
    """Rebuild ClassMetrics rows grouped by (scale, source). Every row of a
    group carries the group's seed, and no (metric, class) row repeats."""
    t = _read_rows(path, CLASS_CSV_HEADER)
    metric = t.cells[:, 2]
    per_class = metric != "accuracy"
    support = metric == "support"
    class_ids = np.zeros(len(t.cells), dtype=np.int64)
    class_ids[per_class] = t.parse(3, int, "class", per_class)
    values = t.parse(4, float, "value").astype(object)
    values[support] = t.parse(4, int, "support", support).tolist()
    groups = {}
    for line, (scale, source, name, c, value, flag, seed) in enumerate(zip(
            t.parse(0, int, "scale").tolist(), t.cells[:, 1].tolist(), metric.tolist(),
            class_ids.tolist(), values.tolist(), t.cells[:, 5].tolist(),
            t.parse(6, int, "seed").tolist()), start=t.first_line):
        entry = groups.setdefault((scale, source), {"values": {}, "undefined": [],
                                                    "seed": seed, "line": line})
        what = "accuracy" if name == "accuracy" else f"{name} of class {c}"
        if seed != entry["seed"]:
            raise ParseError(f"{path}: scale {scale} {source} {what} has seed {seed}, its "
                             f"group's first row {entry['seed']}", line=line)
        if (name, c) in entry["values"]:
            raise ParseError(f"{path}: scale {scale} {source} repeats its {what} row",
                             line=line)
        entry["values"][name, c] = value
        if flag == "1" and name != "accuracy":
            entry["undefined"].append(f"{name}:{c}")
    out = []
    for (scale, source), entry in groups.items():
        values = entry["values"]
        ids = tuple(sorted({c for name, c in values if name != "accuracy"}))
        if values.keys() != {("accuracy", 0)} | {(name, c) for name in CLASS_METRICS
                                                   for c in ids}:
            raise ParseError(f"{path}: scale {scale} {source} needs an accuracy row and "
                             f"{'/'.join(CLASS_METRICS)} rows for every class",
                             line=entry["line"])
        per_class = {name: tuple(values[name, c] for c in ids) for name in CLASS_METRICS}
        out.append(_record(ClassMetrics, path, entry["line"], scale=scale, source=source,
                           accuracy=values["accuracy", 0], class_ids=ids,
                           undefined=tuple(entry["undefined"]), seed=entry["seed"],
                           **per_class))
    return out


def _fmt(v):
    return f"{v:.4f}"


def sr_markdown(records):
    """One row per (dataset, scale); bicubic and adversarial columns side
    by side, '-' where a method was not evaluated."""
    cells = {}
    for r in records:
        cells[(r.dataset, r.scale, r.method)] = r
    keys = sorted({(r.dataset, r.scale) for r in records},
                  key=lambda k: (DATASETS.index(k[0]), k[1]))
    lines = [
        "| Dataset | Scale | Bicubic MSE | Bicubic MAE | WGAN MSE | WGAN MAE |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for dataset, scale in keys:
        row = [dataset.capitalize(), str(scale)]
        for method in SR_METHODS:
            r = cells.get((dataset, scale, method))
            row.extend(["-", "-"] if r is None else [_fmt(r.mse), _fmt(r.mae)])
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def class_markdown(metrics_list):
    """Accuracy, then per-class precision and recall, per feature source."""
    by_key = {(m.scale, m.source): m for m in metrics_list}
    scales = sorted({m.scale for m in metrics_list})
    lines = [
        "| Scale | Metric | Class | True channels | Reconstructed |",
        "| --- | --- | --- | --- | --- |",
    ]

    def cell(scale, source, attr, idx=None):
        m = by_key.get((scale, source))
        if m is None:
            return "-"
        value = getattr(m, attr)
        if idx is not None:
            value = value[idx]
        return _fmt(value)

    for scale in scales:
        any_m = by_key.get((scale, "hr")) or by_key.get((scale, "sr"))
        lines.append(
            f"| {scale} | Accuracy | - | {cell(scale, 'hr', 'accuracy')} "
            f"| {cell(scale, 'sr', 'accuracy')} |"
        )
        for i, c in enumerate(any_m.class_ids):
            lines.append(
                f"| {scale} | Precision | {c} | {cell(scale, 'hr', 'precision', i)} "
                f"| {cell(scale, 'sr', 'precision', i)} |"
            )
        for i, c in enumerate(any_m.class_ids):
            lines.append(
                f"| {scale} | Recall | {c} | {cell(scale, 'hr', 'recall', i)} "
                f"| {cell(scale, 'sr', 'recall', i)} |"
            )
    return "\n".join(lines) + "\n"


def emit_report(out_dir, sr_records=None, class_metrics=None):
    """Write the CSV and markdown tables of whichever report families are
    present; returns written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if sr_records:
        write_sr_csv(out_dir / "reconstruction.csv", sr_records)
        (out_dir / "reconstruction.md").write_text(sr_markdown(sr_records))
        written += [out_dir / "reconstruction.csv", out_dir / "reconstruction.md"]
    if class_metrics:
        write_class_csv(out_dir / "classification.csv", class_metrics)
        (out_dir / "classification.md").write_text(class_markdown(class_metrics))
        written += [out_dir / "classification.csv", out_dir / "classification.md"]
    return written
