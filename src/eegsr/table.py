"""The CSV table format shared by every tabular artifact.

The recording CSV, epoch-archive `meta.csv`, the feature tables, the metric
tables, `history.csv` and `loss.csv` are all a header line of column names
then one line per row, cells comma-separated, every line ended by `\\n`. A
cell is written by `eegsr.ini.format_value` (floats by repr, so exactly).
`read` checks the header and the width of every row and returns the cells
as text; `Table.parse` turns columns of them into int or float arrays. Any
malformed text, undecodable bytes included, raises ParseError naming the
file and the line. The recording's first line, `# fs=... subject=...`, is
the one line a table may carry above its header.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError
from .ini import format_value


def write(path, header, rows, comment=None):
    """Write `header`, then each row of cells by format_value; a `comment`
    is written first as a `# comment` line."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_value(v) for v in row] for row in rows)


@dataclass(frozen=True)
class Table:
    """The cells of a table file below its header, as a (rows, columns)
    object array of str, with the file line of the first row and the text of
    a leading `#` line (None without one)."""

    path: Path
    header: list
    cells: np.ndarray
    first_line: int
    comment: str | None

    def parse(self, columns, kind, what, rows=None):
        """Cells of `columns` (an index or a slice) parsed by `kind`, int or
        float, in the rows boolean mask `rows` selects (all by default). A
        cell that does not parse raises ParseError naming `what` and its line."""
        cells = self.cells[:, columns]
        lines = np.arange(len(cells)) + self.first_line
        if rows is not None:
            cells, lines = cells[rows], lines[rows]
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
                    raise ParseError(f"{self.path}: {what} must be {expected}, got {cell!r}",
                                     line=int(lines[i // (cells.size // len(cells))])) from None
            raise


def read(path, header=None):
    """Table of the CSV file at `path`. Its header must equal `header`, or
    with None hold at least one column; every row must be as wide."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})",
                         line=data.count(b"\n", 0, exc.start) + 1) from None
    fh = io.StringIO(text, newline="")
    comment = fh.readline()[1:].strip() if text.startswith("#") else None
    skipped = comment is not None
    reader = csv.reader(fh)
    try:
        found = next(reader, None)
        if not found or (header is not None and found != list(header)):
            want = "a header" if header is None else "header " + ",".join(header)
            raise ParseError(f"{path}: expected {want}, found {found or 'nothing'}",
                             line=skipped + 1)
        rows = list(reader)
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}", line=skipped + reader.line_num) from None
    widths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    bad = np.flatnonzero(widths != len(found))
    if bad.size:
        raise ParseError(f"{path}: expected {len(found)} columns, found {widths[bad[0]]}",
                         line=skipped + bad[0] + 2)
    cells = np.array(rows, dtype=object).reshape(len(rows), len(found))
    return Table(Path(path), found, cells, skipped + 2, comment)
