"""Metric math and report serialisation."""
import numpy as np
import pytest

from eegsr.errors import DataError, ParseError
from eegsr.report import (
    ClassMetrics,
    MetricsRecord,
    class_markdown,
    classification_metrics,
    emit_report,
    read_class_csv,
    read_sr_csv,
    sr_markdown,
    sr_metrics,
    write_class_csv,
    write_sr_csv,
)

from helpers import epoch_set


def small_set(values):
    return epoch_set(values)


# ---------------------------------------------------------------------------
# Reconstruction error
# ---------------------------------------------------------------------------

def test_sr_metrics_hand_values():
    pred = small_set([[[1.0, 2.0]], [[3.0, 4.0]]])
    truth = small_set([[[0.0, 2.0]], [[3.0, 2.0]]])
    mse, mae = sr_metrics(pred, truth)
    # errors are 1, 0, 0, 2
    assert mse == pytest.approx((1 + 0 + 0 + 4) / 4)
    assert mae == pytest.approx((1 + 0 + 0 + 2) / 4)


def test_sr_metrics_zero_for_identical():
    s = small_set(np.random.default_rng(0).normal(size=(3, 2, 5)))
    assert sr_metrics(s, s) == (0.0, 0.0)


def test_sr_metrics_rejects_mismatch():
    a = small_set(np.zeros((2, 1, 4)))
    b = small_set(np.zeros((3, 1, 4)))
    with pytest.raises(DataError):
        sr_metrics(a, b)
    c = small_set(np.zeros((2, 1, 6)))
    with pytest.raises(DataError):
        sr_metrics(a, c)
    empty = small_set(np.zeros((0, 1, 4)))
    with pytest.raises(DataError):
        sr_metrics(empty, empty)


def test_metrics_record_validation():
    MetricsRecord("val", 2, "bicubic", mse=4.0, mae=2.0, seed=0)
    with pytest.raises(DataError):
        MetricsRecord("train", 2, "bicubic", mse=1.0, mae=0.5, seed=0)
    with pytest.raises(DataError):
        MetricsRecord("val", 2, "nearest", mse=1.0, mae=0.5, seed=0)
    with pytest.raises(DataError):
        MetricsRecord("val", 2, "wgan", mse=-1.0, mae=0.5, seed=0)
    # mae above the rms bound is impossible for any real residual vector
    with pytest.raises(DataError):
        MetricsRecord("val", 2, "wgan", mse=1.0, mae=1.5, seed=0)
    for mse, mae in ((np.nan, 0.5), (1.0, np.nan), (np.inf, 0.5), (np.inf, np.inf)):
        with pytest.raises(DataError, match="must be finite and not negative"):
            MetricsRecord("val", 2, "wgan", mse=mse, mae=mae, seed=0)


# ---------------------------------------------------------------------------
# Classification metrics
# ---------------------------------------------------------------------------

def test_classification_known_confusion():
    # class 0: 2 correct of 3 true, 2 predictions; class 1: 2 of 3 predicted
    # correct, 2 true; class 2: all correct.
    truth = [0, 0, 0, 1, 1, 2, 2]
    pred = [0, 0, 1, 1, 1, 2, 2]
    m = classification_metrics(pred, truth, class_ids=(0, 1, 2), scale=2, source="hr", seed=0)
    assert m.accuracy == pytest.approx(6 / 7)
    assert m.precision == pytest.approx((1.0, 2 / 3, 1.0))
    assert m.recall == pytest.approx((2 / 3, 1.0, 1.0))
    assert m.support == (3, 2, 2)
    assert m.undefined == ()


def test_classification_micro_recall_equals_accuracy():
    rng = np.random.default_rng(11)
    truth = rng.integers(0, 3, size=200)
    pred = rng.integers(0, 3, size=200)
    m = classification_metrics(pred, truth, class_ids=(0, 1, 2), scale=2, source="sr", seed=0)
    micro = sum(r * s for r, s in zip(m.recall, m.support)) / sum(m.support)
    assert micro == pytest.approx(m.accuracy)


def test_classification_undefined_flags():
    # class 2 is never predicted; class 3 is in the class set but has no
    # true members.
    truth = [0, 0, 2, 2]
    pred = [0, 0, 0, 0]
    m = classification_metrics(pred, truth, class_ids=(0, 2, 3), scale=2, source="hr", seed=0)
    assert m.precision[1] == 0.0
    assert "precision:2" in m.undefined
    assert "recall:3" in m.undefined
    assert m.recall[2] == 0.0
    assert m.support == (2, 2, 0)


def test_classification_rejects_bad_input():
    with pytest.raises(DataError):
        classification_metrics([0], [5], (0, 1), 2, "hr", 0)
    with pytest.raises(DataError):
        classification_metrics([0], [0], (0,), 2, "train", 0)


def test_class_metrics_validation():
    with pytest.raises(DataError):
        ClassMetrics(2, "hr", accuracy=1.2, class_ids=(0,), precision=(1.0,),
                     recall=(1.0,), support=(1,), seed=0)
    with pytest.raises(DataError):
        ClassMetrics(2, "hr", accuracy=0.5, class_ids=(0, 1), precision=(1.0,),
                     recall=(1.0, 0.0), support=(1, 1), seed=0)


# ---------------------------------------------------------------------------
# CSV round-trips
# ---------------------------------------------------------------------------

def test_sr_csv_roundtrip(tmp_path):
    records = [
        MetricsRecord("val", 2, "bicubic", mse=1.23456789012345678, mae=0.9, seed=7),
        MetricsRecord("test", 4, "wgan", mse=2.0, mae=1.25, seed=0),
    ]
    path = tmp_path / "sr.csv"
    write_sr_csv(path, records)
    back = read_sr_csv(path)
    assert back == records


def test_sr_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "sr.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError, match="line 1"):
        read_sr_csv(path)


def test_class_csv_roundtrip(tmp_path):
    m = classification_metrics([0, 1, 1, 2], [0, 1, 2, 2], (0, 1, 2), scale=2,
                               source="sr", seed=3)
    path = tmp_path / "cls.csv"
    write_class_csv(path, [m])
    back = read_class_csv(path)
    assert len(back) == 1
    b = back[0]
    assert (b.scale, b.source, b.seed) == (2, "sr", 3)
    assert b.accuracy == m.accuracy
    assert b.class_ids == m.class_ids
    assert b.precision == pytest.approx(m.precision)
    assert b.recall == pytest.approx(m.recall)
    assert b.support == m.support == (1, 1, 2)
    assert set(b.undefined) == set(m.undefined)


def test_class_csv_keeps_undefined_flags(tmp_path):
    m = classification_metrics([0, 0], [0, 1], (0, 1), scale=2, source="hr", seed=0)
    path = tmp_path / "cls.csv"
    write_class_csv(path, [m])
    back = read_class_csv(path)[0]
    assert "precision:1" in back.undefined


def test_class_csv_needs_every_metric_row(tmp_path):
    m = classification_metrics([0, 1], [0, 1], (0, 1), scale=2, source="hr", seed=0)
    path = tmp_path / "cls.csv"
    write_class_csv(path, [m])
    lines = path.read_text().splitlines(keepends=True)
    for drop in (1, 2, len(lines) - 1):  # accuracy, a precision and a support row
        path.write_text("".join(lines[:drop] + lines[drop + 1:]))
        # named at the group's first row, line 2 after any of the drops
        with pytest.raises(ParseError, match="line 2: .*accuracy row"):
            read_class_csv(path)


# ---------------------------------------------------------------------------
# Markdown and emit
# ---------------------------------------------------------------------------

def test_sr_markdown_cells():
    records = [
        MetricsRecord("val", 2, "bicubic", mse=1.0, mae=0.5, seed=0),
        MetricsRecord("val", 2, "wgan", mse=0.25, mae=0.25, seed=0),
        MetricsRecord("test", 2, "bicubic", mse=2.0, mae=1.0, seed=0),
    ]
    text = sr_markdown(records)
    lines = text.strip().splitlines()
    assert lines[0].startswith("| Dataset | Scale |")
    assert "| Val | 2 | 1.0000 | 0.5000 | 0.2500 | 0.2500 |" in lines
    # method missing for the test split renders as '-'
    assert "| Test | 2 | 2.0000 | 1.0000 | - | - |" in lines


def test_class_markdown_pairs_sources():
    hr = classification_metrics([0, 1], [0, 1], (0, 1), scale=2, source="hr", seed=0)
    sr = classification_metrics([0, 0], [0, 1], (0, 1), scale=2, source="sr", seed=0)
    text = class_markdown([hr, sr])
    assert "| 2 | Accuracy | - | 1.0000 | 0.5000 |" in text
    assert "Precision" in text and "Recall" in text


def test_emit_report_writes_csv_and_markdown(tmp_path):
    records = [MetricsRecord("val", 2, "bicubic", mse=1.0, mae=0.5, seed=0)]
    cls = [classification_metrics([0], [0], (0,), scale=2, source="hr", seed=0)]
    written = emit_report(tmp_path, sr_records=records, class_metrics=cls)
    names = sorted(p.name for p in written)
    assert names == ["classification.csv", "classification.md",
                     "reconstruction.csv", "reconstruction.md"]
    only_sr = emit_report(tmp_path / "sr", sr_records=records)
    assert [p.name for p in only_sr] == ["reconstruction.csv", "reconstruction.md"]
