"""File formats: recording CSVs, epoch-set archives and preprocessing info.

Recordings travel as CSV (one row per sample, one column per channel, an
optional trailing integer `label` column, and a leading `# key=value` line
for sampling rate and subject). Epoch sets persist as a directory holding a
text manifest, a raw little-endian value file and a per-epoch metadata CSV;
feature tables as one CSV of the same metadata columns plus the band
powers. All float text uses repr, so a write/read cycle is value-exact.
The archive manifest and `info.txt` are INI text in the format of
`eegsr.ini`, with `MontageSplit` and `NormStats` mapped field by field.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .data import EpochSet, MontageSplit, NormStats, RawRecording
from .errors import ArtifactError, DataError, ParseError
from .ini import from_section, read, section_of, write
from .nn.serialize import dtype_code, dtype_from_code
from .psd import N_FEATURES, FeatureTable

FORMAT_VERSION = "1"


def save_recording(path, rec):
    """Write a recording as CSV with a metadata comment line."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        fh.write(f"# fs={float(rec.fs)!r} subject={rec.subject_id}\n")
        writer = csv.writer(fh)
        header = list(rec.channel_labels)
        if rec.labels is not None:
            header.append("label")
        writer.writerow(header)
        cols = rec.values.T
        for i in range(cols.shape[0]):
            row = [repr(float(v)) for v in cols[i]]
            if rec.labels is not None:
                row.append(str(int(rec.labels[i])))
            writer.writerow(row)


def load_recording(path, fs=None, subject_id=None):
    """Read a recording CSV; malformed content reports its line number."""
    path = Path(path)
    if not path.is_file():
        raise ArtifactError(f"recording not found: {path}")
    meta = {}
    with open(path, newline="") as fh:
        first = fh.readline()
        line_no = 1
        if first.startswith("#"):
            for token in first[1:].split():
                if "=" in token:
                    k, v = token.split("=", 1)
                    meta[k] = v
            header_line = fh.readline()
            line_no += 1
        else:
            header_line = first
        header = next(csv.reader([header_line]))
        if not header:
            raise ParseError("empty header", line=line_no)
        has_labels = header[-1] == "label"
        channel_labels = header[:-1] if has_labels else header
        if not channel_labels:
            raise ParseError("no channel columns", line=line_no)
        n_cols = len(header)
        rows = []
        labels = []
        for line in csv.reader(fh):
            line_no += 1
            if not line:
                continue
            if len(line) != n_cols:
                raise ParseError(
                    f"expected {n_cols} columns, found {len(line)}", line=line_no
                )
            try:
                rows.append([float(v) for v in line[: len(channel_labels)]])
            except ValueError as exc:
                raise ParseError(f"non-numeric value ({exc})", line=line_no) from None
            if has_labels:
                try:
                    labels.append(int(line[-1]))
                except ValueError:
                    raise ParseError(
                        f"label must be an integer, got {line[-1]!r}", line=line_no
                    ) from None
    if not rows:
        raise ParseError("recording has no samples", line=line_no)
    if fs is None:
        if "fs" not in meta:
            raise ParseError("no sampling rate: pass fs or include '# fs=...' metadata", line=1)
        try:
            fs = float(meta["fs"])
        except ValueError:
            raise ParseError(f"sampling rate must be a number, got {meta['fs']!r}", line=1) from None
    subject = subject_id or meta.get("subject", "s01")
    return RawRecording(
        np.asarray(rows).T,
        fs=fs,
        channel_labels=channel_labels,
        labels=np.asarray(labels, dtype=np.int64) if has_labels else None,
        subject_id=subject,
    )


META_HEADER = ["epoch_index", "subject_id", "label", "origin_index"]
FEATURE_HEADER = META_HEADER + [f"f{i:03d}" for i in range(N_FEATURES)]


def _write_table(path, header, rows, cells=None):
    """CSV of the metadata columns of `rows` (an epoch set or a feature
    table), each line followed by its entry of `cells` when given."""
    labels = [""] * len(rows) if rows.labels is None else rows.labels.tolist()
    lines = zip(range(len(rows)), rows.subject_ids.tolist(), labels, rows.origins.tolist())
    if cells is not None:
        lines = (line + tuple(extra) for line, extra in zip(lines, cells))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(lines)


def _read_table(path, header):
    """Cells of a CSV written by _write_table, as a (rows, columns) str array."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise ArtifactError(f"{path}: unexpected header")
        rows = list(reader)
    widths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    bad = np.flatnonzero(widths != len(header))
    if bad.size:
        raise ParseError(f"{path}: expected {len(header)} columns, found {widths[bad[0]]}",
                         line=bad[0] + 2)
    return np.array(rows, dtype=str).reshape(len(rows), len(header))


def _parse_cells(path, cells, kind, what):
    """Values of a text column (or block of columns) parsed by `kind`, int
    or float; a cell that does not parse raises ParseError with its line."""
    dtype = np.int64 if kind is int else np.float64
    flat = cells.ravel().tolist()
    try:
        return np.array(list(map(kind, flat)), dtype=dtype).reshape(cells.shape)
    except (ValueError, OverflowError):
        for i, cell in enumerate(flat):
            try:
                np.array(kind(cell), dtype=dtype)
            except (ValueError, OverflowError):
                expected = "an integer" if kind is int else "a number"
                raise ParseError(f"{path}: {what} must be {expected}, got {cell!r}",
                                 line=i // cells[0].size + 2) from None
        raise


def _read_metadata(path, table):
    """(labels, subject_ids, origins) from the leading columns of a table."""
    index = _parse_cells(path, table[:, 0], int, "epoch_index")
    out_of_order = np.flatnonzero(index != np.arange(len(index)))
    if out_of_order.size:
        raise ArtifactError(f"{path}: rows out of order at {index[out_of_order[0]]}")
    # A column of empty cells means an unlabelled table; one empty cell among
    # labels does not parse.
    labels = None if (table[:, 2] == "").all() else _parse_cells(path, table[:, 2], int, "label")
    return labels, table[:, 1], _parse_cells(path, table[:, 3], int, "origin_index")


def save_epoch_set(directory, epoch_set, dtype=np.float64):
    """Persist an epoch set: manifest.txt + values.bin + meta.csv."""
    if not len(epoch_set):
        raise ArtifactError("refusing to archive an empty epoch set")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    values = epoch_set.values
    write(directory / "manifest.txt", {"archive": {
        "format_version": FORMAT_VERSION,
        "dtype": dtype_code(dtype),
        "n_epochs": values.shape[0],
        "n_channels": values.shape[1],
        "n_samples": values.shape[2],
        "fs": float(epoch_set.fs),
        "split": epoch_set.split,
        "channel_labels": epoch_set.channel_labels or (),
        "has_channel_labels": int(epoch_set.channel_labels is not None),
    }})
    values.astype(np.dtype(dtype).newbyteorder("<")).tofile(directory / "values.bin")
    _write_table(directory / "meta.csv", META_HEADER, epoch_set)


def load_epoch_set(directory):
    """Rebuild an epoch set from save_epoch_set output."""
    directory = Path(directory)
    manifest = directory / "manifest.txt"
    if not manifest.is_file():
        raise ArtifactError(f"epoch archive not found: {directory}")
    try:
        head = read(manifest)["archive"]
        if head["format_version"] != FORMAT_VERSION:
            raise ArtifactError(f"unsupported archive version {head['format_version']!r}")
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
        raise ArtifactError(f"{manifest}: corrupt archive manifest ({exc})") from exc
    blob = directory / "values.bin"
    if not blob.is_file():
        raise ArtifactError(f"{directory}: missing values.bin")
    if not (directory / "meta.csv").is_file():
        raise ArtifactError(f"{directory}: missing meta.csv")
    values = np.fromfile(blob, dtype=dtype)
    if values.size != int(np.prod(shape)):
        raise ArtifactError(
            f"{directory}: values.bin holds {values.size} values, manifest declares "
            f"{int(np.prod(shape))}"
        )
    table = _read_table(directory / "meta.csv", META_HEADER)
    if len(table) != shape[0]:
        raise ArtifactError(
            f"{directory}: meta.csv lists {len(table)} epochs, manifest declares {shape[0]}"
        )
    labels, subject_ids, origins = _read_metadata(directory / "meta.csv", table)
    return EpochSet(values.reshape(shape), labels, subject_ids, origins,
                    split=split, fs=fs, channel_labels=channel_labels)


def write_features_csv(path, features):
    """Feature table as CSV: metadata columns, then the 96 band powers."""
    _write_table(path, FEATURE_HEADER, features,
                 (map(repr, row) for row in features.values.tolist()))


def read_features_csv(path):
    path = Path(path)
    if not path.is_file():
        raise ArtifactError(f"feature table not found: {path}")
    table = _read_table(path, FEATURE_HEADER)
    return FeatureTable(_parse_cells(path, table[:, len(META_HEADER):], float, "band power"),
                        *_read_metadata(path, table))


def save_preprocess_info(path, montage, stats, window, stride, seg_len):
    """Record the preprocessing contract next to the epoch archives."""
    write(path, {
        "montage": section_of(montage),
        "normalization": section_of(stats),
        "epoching": {"window": window, "stride": stride, "seg_len": seg_len},
    })


def load_preprocess_info(path):
    path = Path(path)
    if not path.is_file():
        raise ArtifactError(f"preprocessing info not found: {path}")
    try:
        sections = read(path)
        montage = from_section(MontageSplit, sections["montage"])
        stats = from_section(NormStats, sections["normalization"])
        epoching = {k: int(sections["epoching"][k]) for k in ("window", "stride", "seg_len")}
    except (KeyError, ValueError, DataError) as exc:
        raise ArtifactError(f"{path}: corrupt preprocessing info ({exc})") from exc
    return montage, stats, epoching
