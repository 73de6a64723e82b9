"""File formats: recording CSVs, epoch-set archives and preprocessing info.

Recordings travel as CSV (one row per sample, one column per channel, an
optional trailing integer `label` column, and a leading `# key=value` line
for sampling rate and subject). Epoch sets persist as a directory holding a
text manifest, a raw little-endian value file and a per-epoch metadata CSV;
feature tables as one CSV of the same metadata columns plus the band
powers. Overlapping windows repeat segments, so the value file holds each
bytewise-distinct row once, in order of first appearance (`n_distinct` in
the manifest), and the metadata CSV names in its archive-only `value_row`
column the distinct row each of its `n_epochs` rows holds; a loaded set
keeps them as `values` and `index`. An archive of another format version
is refused. Every CSV is written and read through `eegsr.table`, floats
by repr, so a write/read cycle is value-exact. The archive manifest and
`info.txt` are INI text in the format of `eegsr.ini`, with `MontageSplit`
and `NormStats` mapped field by field; the value file is read and written
by `eegsr.nn.serialize`. A missing file raises the OSError that opening it
raises; corrupt content (a malformed table or manifest, a value file of
the wrong size, a `value_row` that names no distinct row or a distinct
row that no row names) raises ParseError.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from . import table
from .data import EpochSet, MontageSplit, NormStats, RawRecording, distinct_rows
from .errors import DataError, ParseError
from .ini import from_section, read, section_of, write
from .nn.serialize import dtype_code, dtype_from_code, read_arrays, write_arrays
from .psd import N_FEATURES, FeatureTable

FORMAT_VERSION = "2"

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


def _samples(block):
    """(values, labels or None) of a block of recording rows."""
    has_labels = block.header[-1] == "label"
    n_channels = len(block.header) - has_labels
    return (block.parse(slice(0, n_channels), float, "sample"),
            block.parse(-1, int, "label") if has_labels else None)


def load_recording(path):
    """Read a recording CSV, a block of rows at a time; malformed content
    reports its line number. The `# fs=...` line must give the sampling
    rate; the subject defaults to s01."""
    t = table.read(path, each=_samples)
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
    values, labels = zip(*t.cells)
    return RawRecording(
        np.concatenate(values).T,
        fs=fs,
        channel_labels=t.header[:n_channels],
        labels=np.concatenate(labels) if has_labels else None,
        subject_id=meta.get("subject", "s01"),
    )


META_HEADER = ["epoch_index", "subject_id", "label", "origin_index"]
FEATURE_HEADER = META_HEADER + [f"f{i:03d}" for i in range(N_FEATURES)]
# An archive's meta.csv adds the row of values.bin that each row holds.
ARCHIVE_HEADER = META_HEADER + ["value_row"]


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
    """Persist an epoch set: manifest.txt + values.bin (its distinct rows) +
    meta.csv (every row, with the distinct row it holds), found anew from
    every row's bytes whatever `index` the set carries."""
    if not len(epoch_set):
        raise DataError("refusing to archive an empty epoch set")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    values = epoch_set.rows()
    distinct, index = distinct_rows(values)
    write(directory / "manifest.txt", {"archive": {
        "format_version": FORMAT_VERSION,
        "dtype": dtype_code(ARCHIVE_DTYPE),
        "n_epochs": values.shape[0],
        "n_distinct": len(distinct),
        "n_channels": values.shape[1],
        "n_samples": values.shape[2],
        "fs": float(epoch_set.fs),
        "split": epoch_set.split,
        "channel_labels": epoch_set.channel_labels or (),
        "has_channel_labels": int(epoch_set.channel_labels is not None),
    }})
    write_arrays(directory / "values.bin", [distinct], ARCHIVE_DTYPE)
    table.write(directory / "meta.csv", ARCHIVE_HEADER,
                (meta + (row,) for meta, row in zip(_meta_rows(epoch_set), index.tolist())))


def load_epoch_set(directory):
    """Rebuild a saved epoch set: its distinct rows, C-ordered, as `values` and
    `value_row` as `index`, so that `rows()` is bit for bit the rows saved."""
    directory = Path(directory)
    manifest = directory / "manifest.txt"
    try:
        head = read(manifest)["archive"]
        if head["format_version"] != FORMAT_VERSION:
            raise ParseError(f"{manifest}: archive format version {head['format_version']!r} "
                             f"is not {FORMAT_VERSION!r}; rerun the preprocess, baseline or "
                             "sr-infer command that wrote it")
        dtype = dtype_from_code(head["dtype"])
        shape = (int(head["n_epochs"]), int(head["n_channels"]), int(head["n_samples"]))
        n_distinct = int(head["n_distinct"])
        if not 0 <= n_distinct <= shape[0]:
            raise ValueError(f"n_distinct {n_distinct} outside [0, n_epochs]")
        fs = float(head["fs"])
        split = head["split"]
        if head["has_channel_labels"] == "1":
            raw = head["channel_labels"]
            channel_labels = tuple(raw.split(",")) if raw else ()
        else:
            channel_labels = None
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{manifest}: corrupt archive manifest ({exc})") from exc
    (values,) = read_arrays(directory / "values.bin", [(n_distinct,) + shape[1:]], dtype)
    t = table.read(directory / "meta.csv", ARCHIVE_HEADER)
    if len(t.cells) != shape[0]:
        raise ParseError(
            f"{directory}: meta.csv lists {len(t.cells)} epochs, manifest declares {shape[0]}"
        )
    labels, subject_ids, origins = _read_metadata(t)
    index = t.parse(len(META_HEADER), int, "value_row")
    limit = np.minimum(n_distinct, np.arange(len(index)) + 1)
    bad = np.flatnonzero((index < 0) | (index >= limit))
    if bad.size:
        raise ParseError(f"{t.path}: value_row must name a distinct row in [0, {n_distinct}) "
                         f"at or before its own, got {index[bad[0]]}",
                         line=t.first_line + bad[0])
    unnamed = np.flatnonzero(np.bincount(index, minlength=n_distinct) == 0)
    if unnamed.size:
        raise ParseError(f"{t.path}: no row names distinct row {unnamed[0]} of values.bin")
    return EpochSet(values, labels, subject_ids, origins,
                    split=split, fs=fs, channel_labels=channel_labels, index=index)


def write_features_csv(path, features):
    """Feature table as CSV: metadata columns, then the 96 band powers."""
    table.write(path, FEATURE_HEADER, (meta + tuple(powers) for meta, powers in
                                       zip(_meta_rows(features), features.values.tolist())))


def read_features_csv(path):
    t = table.read(path, FEATURE_HEADER)
    try:
        return FeatureTable(t.parse(slice(len(META_HEADER), None), float, "band power"),
                            *_read_metadata(t))
    except DataError as exc:
        raise ParseError(f"{path}: {exc}") from exc


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
