"""Evaluation metrics and report emission.

Reconstruction quality is reported as MSE and MAE of the missing-channel
block per dataset, scale and method; classification quality as accuracy
plus per-class precision, recall and support for features taken from true
versus reconstructed signals. Reports serialise to CSV (value-exact, repr floats)
and to markdown tables.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
    seed: int | None = None

    def __post_init__(self):
        if self.dataset not in DATASETS:
            raise DataError(f"dataset must be one of {DATASETS}, got {self.dataset!r}")
        if self.method not in SR_METHODS:
            raise DataError(f"method must be one of {SR_METHODS}, got {self.method!r}")
        if self.mse < 0 or self.mae < 0:
            raise DataError("error metrics cannot be negative")
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
    undefined: tuple[str, ...] = field(default_factory=tuple)
    seed: int | None = None

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
    """(mse, mae) of predicted missing-channel blocks against the truth."""
    if len(pred_set) != len(truth_set):
        raise DataError(
            f"prediction/truth mismatch: {len(pred_set)} vs {len(truth_set)} epochs"
        )
    if len(pred_set) == 0:
        raise DataError("cannot score an empty set")
    p = pred_set.values
    t = truth_set.values
    if p.shape != t.shape:
        raise DataError(f"prediction shape {p.shape} does not match truth {t.shape}")
    diff = p - t
    return float((diff**2).mean()), float(np.abs(diff).mean())


def classification_metrics(predicted, truth, class_ids, scale, source, seed=None):
    """Accuracy and per-class precision/recall from predicted vs true ids.

    A class with no predictions gets precision 0 and an `undefined` flag
    (likewise recall for a class with no true members); micro-average recall
    always equals accuracy.
    """
    predicted = np.asarray(predicted, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise DataError(
            f"prediction/truth must be equal-length vectors, got {predicted.shape} "
            f"and {truth.shape}"
        )
    if predicted.size == 0:
        raise DataError("cannot score an empty prediction set")
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
    if not records:
        raise DataError("no reconstruction records to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SR_CSV_HEADER)
        for r in records:
            writer.writerow([
                r.dataset, r.scale, r.method, repr(r.mse), repr(r.mae),
                "" if r.seed is None else r.seed,
            ])


def _read_rows(path, header, parse):
    """Call `parse` on each row of a metric table; a row of another width
    than `header`, or a cell that does not parse, raises ParseError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first != header:
            raise DataError(f"{path}: unexpected header {first}")
        for row in reader:
            if len(row) != len(header):
                raise ParseError(f"{path}: expected {len(header)} cells, found {len(row)}",
                                 line=reader.line_num)
            try:
                parse(row)
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}", line=reader.line_num) from None


def read_sr_csv(path):
    records = []
    _read_rows(path, SR_CSV_HEADER, lambda row: records.append(MetricsRecord(
        dataset=row[0], scale=int(row[1]), method=row[2],
        mse=float(row[3]), mae=float(row[4]),
        seed=None if row[5] == "" else int(row[5]),
    )))
    return records


def write_class_csv(path, metrics_list):
    if not metrics_list:
        raise DataError("no classification metrics to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CLASS_CSV_HEADER)
        for m in metrics_list:
            seed = "" if m.seed is None else m.seed
            writer.writerow([m.scale, m.source, "accuracy", "", repr(m.accuracy), "", seed])
            for i, c in enumerate(m.class_ids):
                for name in CLASS_METRICS:
                    flag = "1" if f"{name}:{c}" in m.undefined else ""
                    writer.writerow([m.scale, m.source, name, c, repr(getattr(m, name)[i]),
                                     flag, seed])


def read_class_csv(path):
    """Rebuild ClassMetrics rows grouped by (scale, source)."""
    groups = {}

    def parse(row):
        key = (int(row[0]), row[1])
        entry = groups.setdefault(
            key, {"accuracy": None, "classes": {}, "undefined": [],
                  "seed": None if row[6] == "" else int(row[6])},
        )
        if row[2] == "accuracy":
            entry["accuracy"] = float(row[4])
        else:
            c = int(row[3])
            value = int(row[4]) if row[2] == "support" else float(row[4])
            entry["classes"].setdefault(c, {})[row[2]] = value
            if row[5] == "1":
                entry["undefined"].append(f"{row[2]}:{c}")

    _read_rows(path, CLASS_CSV_HEADER, parse)
    out = []
    for (scale, source), entry in groups.items():
        ids = tuple(sorted(entry["classes"]))
        if entry["accuracy"] is None or any(entry["classes"][c].keys() != set(CLASS_METRICS)
                                            for c in ids):
            raise DataError(f"{path}: scale {scale} {source} needs an accuracy row and "
                            f"{'/'.join(CLASS_METRICS)} rows for every class")
        per_class = {name: tuple(entry["classes"][c][name] for c in ids)
                     for name in CLASS_METRICS}
        out.append(ClassMetrics(scale=scale, source=source, accuracy=entry["accuracy"],
                                class_ids=ids, undefined=tuple(entry["undefined"]),
                                seed=entry["seed"], **per_class))
    return out


def _fmt(v):
    return f"{v:.4f}"


def sr_markdown(records):
    """One row per (dataset, scale); bicubic and adversarial columns side
    by side, '-' where a method was not evaluated."""
    if not records:
        raise DataError("no reconstruction records to format")
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
    if not metrics_list:
        raise DataError("no classification metrics to format")
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


def emit_report(out_dir, sr_records=None, class_metrics=None, formats=("csv", "markdown")):
    """Write whichever report families are present; returns written paths."""
    if not sr_records and not class_metrics:
        raise DataError("nothing to report")
    for fmt in formats:
        if fmt not in ("csv", "markdown"):
            raise DataError(f"unknown report format {fmt!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if sr_records:
        if "csv" in formats:
            write_sr_csv(out_dir / "reconstruction.csv", sr_records)
            written.append(out_dir / "reconstruction.csv")
        if "markdown" in formats:
            (out_dir / "reconstruction.md").write_text(sr_markdown(sr_records))
            written.append(out_dir / "reconstruction.md")
    if class_metrics:
        if "csv" in formats:
            write_class_csv(out_dir / "classification.csv", class_metrics)
            written.append(out_dir / "classification.csv")
        if "markdown" in formats:
            (out_dir / "classification.md").write_text(class_markdown(class_metrics))
            written.append(out_dir / "classification.md")
    return written
