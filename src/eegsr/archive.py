"""File formats: recording CSVs, epoch-set archives and preprocessing info.

Recordings travel as CSV (one row per sample, one column per channel, an
optional trailing integer `label` column, and a leading `# key=value` line
for sampling rate and subject). Epoch sets persist as a directory holding a
text manifest, a raw little-endian value file and a per-epoch metadata CSV;
feature tables as one CSV of the same metadata columns plus the band
powers. Every CSV is written and read through `eegsr.table`, floats by
repr, so a write/read cycle is value-exact. The archive manifest and
`info.txt` are INI text in the format of `eegsr.ini`, with `MontageSplit`
and `NormStats` mapped field by field; the value file is read and written
by `eegsr.nn.serialize`. A missing file raises the OSError that opening it
raises; corrupt content (a malformed table or manifest, a value file of the
wrong size) raises ParseError.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from . import table
from .data import EpochSet, MontageSplit, NormStats, RawRecording
from .errors import DataError, ParseError
from .ini import from_section, read, section_of, write
from .nn.serialize import dtype_code, dtype_from_code, read_arrays, write_arrays
from .psd import N_FEATURES, FeatureTable

FORMAT_VERSION = "1"

# Written archives hold little-endian float64; reading honours the manifest.
ARCHIVE_DTYPE = np.dtype("<f8")


def save_recording(path, rec):
    """Write a recording as CSV below a `# fs=... subject=...` line."""
    header = list(rec.channel_labels)
    rows = rec.values.T.tolist()
    if rec.labels is not None:
        header.append("label")
        rows = [row + [label] for row, label in zip(rows, rec.labels.tolist())]
    table.write(path, header, rows, comment=f"fs={float(rec.fs)!r} subject={rec.subject_id}")


def load_recording(path):
    """Read a recording CSV; malformed content reports its line number. The
    `# fs=...` line must give the sampling rate; the subject defaults to s01."""
    t = table.read(path)
    meta = dict(token.split("=", 1) for token in (t.comment or "").split() if "=" in token)
    has_labels = t.header[-1] == "label"
    n_channels = len(t.header) - has_labels
    if not n_channels:
        raise ParseError(f"{path}: no channel columns", line=t.first_line - 1)
    if not len(t.cells):
        raise ParseError(f"{path}: recording has no samples", line=t.first_line - 1)
    if "fs" not in meta:
        raise ParseError("no sampling rate: include '# fs=...' metadata", line=1)
    try:
        fs = float(meta["fs"])
    except ValueError:
        raise ParseError(f"sampling rate must be a number, got {meta['fs']!r}", line=1) from None
    return RawRecording(
        t.parse(slice(0, n_channels), float, "sample").T,
        fs=fs,
        channel_labels=t.header[:n_channels],
        labels=t.parse(-1, int, "label") if has_labels else None,
        subject_id=meta.get("subject", "s01"),
    )


META_HEADER = ["epoch_index", "subject_id", "label", "origin_index"]
FEATURE_HEADER = META_HEADER + [f"f{i:03d}" for i in range(N_FEATURES)]


def _meta_rows(rows):
    """Metadata cells of each row of an epoch set or a feature table."""
    labels = [""] * len(rows) if rows.labels is None else rows.labels.tolist()
    return zip(range(len(rows)), rows.subject_ids.tolist(), labels, rows.origins.tolist())


def _read_metadata(t):
    """(labels, subject_ids, origins) from the leading columns of a table."""
    index = t.parse(0, int, "epoch_index")
    out_of_order = np.flatnonzero(index != np.arange(len(index)))
    if out_of_order.size:
        raise ParseError(f"{t.path}: rows out of order at {index[out_of_order[0]]}",
                         line=t.first_line + out_of_order[0])
    # A column of empty cells means an unlabelled table; one empty cell among
    # labels does not parse.
    labels = None if (t.cells[:, 2] == "").all() else t.parse(2, int, "label")
    return labels, t.cells[:, 1], t.parse(3, int, "origin_index")


def save_epoch_set(directory, epoch_set):
    """Persist an epoch set: manifest.txt + values.bin + meta.csv."""
    if not len(epoch_set):
        raise DataError("refusing to archive an empty epoch set")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    values = epoch_set.values
    write(directory / "manifest.txt", {"archive": {
        "format_version": FORMAT_VERSION,
        "dtype": dtype_code(ARCHIVE_DTYPE),
        "n_epochs": values.shape[0],
        "n_channels": values.shape[1],
        "n_samples": values.shape[2],
        "fs": float(epoch_set.fs),
        "split": epoch_set.split,
        "channel_labels": epoch_set.channel_labels or (),
        "has_channel_labels": int(epoch_set.channel_labels is not None),
    }})
    write_arrays(directory / "values.bin", [values], ARCHIVE_DTYPE)
    table.write(directory / "meta.csv", META_HEADER, _meta_rows(epoch_set))


def load_epoch_set(directory):
    """Rebuild an epoch set from save_epoch_set output."""
    directory = Path(directory)
    manifest = directory / "manifest.txt"
    try:
        head = read(manifest)["archive"]
        if head["format_version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported archive version {head['format_version']!r}")
        dtype = dtype_from_code(head["dtype"])
        shape = (int(head["n_epochs"]), int(head["n_channels"]), int(head["n_samples"]))
        fs = float(head["fs"])
        split = head["split"]
        if head["has_channel_labels"] == "1":
            raw = head["channel_labels"]
            channel_labels = tuple(raw.split(",")) if raw else ()
        else:
            channel_labels = None
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{manifest}: corrupt archive manifest ({exc})") from exc
    [values] = read_arrays(directory / "values.bin", [shape], dtype)
    t = table.read(directory / "meta.csv", META_HEADER)
    if len(t.cells) != shape[0]:
        raise ParseError(
            f"{directory}: meta.csv lists {len(t.cells)} epochs, manifest declares {shape[0]}"
        )
    labels, subject_ids, origins = _read_metadata(t)
    return EpochSet(values, labels, subject_ids, origins,
                    split=split, fs=fs, channel_labels=channel_labels)


def write_features_csv(path, features):
    """Feature table as CSV: metadata columns, then the 96 band powers."""
    table.write(path, FEATURE_HEADER, (meta + tuple(powers) for meta, powers in
                                       zip(_meta_rows(features), features.values.tolist())))


def read_features_csv(path):
    t = table.read(path, FEATURE_HEADER)
    return FeatureTable(t.parse(slice(len(META_HEADER), None), float, "band power"),
                        *_read_metadata(t))


def save_preprocess_info(path, montage, stats, window, stride, seg_len):
    """Record the preprocessing contract next to the epoch archives."""
    write(path, {
        "montage": section_of(montage),
        "normalization": section_of(stats),
        "epoching": {"window": window, "stride": stride, "seg_len": seg_len},
    })


def load_preprocess_info(path):
    try:
        sections = read(path)
        montage = from_section(MontageSplit, sections["montage"])
        stats = from_section(NormStats, sections["normalization"])
        epoching = {k: int(sections["epoching"][k]) for k in ("window", "stride", "seg_len")}
    except (KeyError, ValueError, DataError) as exc:
        raise ParseError(f"{path}: corrupt preprocessing info ({exc})") from exc
    return montage, stats, epoching
