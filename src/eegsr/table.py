"""The CSV table format shared by every tabular artifact.

The recording CSV, epoch-archive `meta.csv`, the feature tables, the metric
tables, `history.csv` and `loss.csv` are all a header line of column names
then one line per row, cells comma-separated, every line ended by `\\n`. A
cell is written by `eegsr.ini.format_value` (floats by repr, so exactly).
`read` checks the header and the width of every row and returns the cells
as text, or hands them a block of rows at a time to a parser of the
caller's; `Table.parse` turns columns of them into int or float arrays. Any
malformed text, undecodable bytes included, raises ParseError naming the
file and the line. The recording's first line, `# fs=... subject=...`, is
the one line a table may carry above its header.
"""
from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError
from .ini import format_value


def write(path, header, rows, comment=None):
    """Write `header`, then each row of cells by format_value; a `comment`
    is written first as a `# comment` line.

    A row is its cells joined by commas, but one that csv may quote (a
    comma, quote or line break in a cell, or one empty cell alone) goes
    through csv.writer, so every row has csv's bytes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            cells = [format_value(v) for v in row]
            line = ",".join(cells)
            if (line.count(",") != len(cells) - 1 or cells == [""]
                    or '"' in line or "\n" in line or "\r" in line):
                writer.writerow(cells)
            else:
                fh.write(line + "\n")


@dataclass(frozen=True)
class Table:
    """The cells of a table file below its header, as a (rows, columns)
    object array of str (read with `each`, the list of what it returned for
    each block of rows), with the file line of the first row and the text of
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


def read(path, header=None, each=None):
    """Table of the CSV file at `path`. Its header must equal `header`, or
    with None hold at least one column; every row must be as wide.

    The file is read and its rows checked a block at a time. With `each`,
    each block goes to `each` as a Table of its own rows, and `cells` is the
    list of what it returns: a large table is parsed without its cells ever
    all being held as text."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            first = fh.readline()
            comment = first[1:].strip() if first.startswith("#") else None
            skipped = comment is not None
            reader = csv.reader(itertools.chain([] if skipped else [first], fh))
            try:
                found = next(reader, None)
                if not found or (header is not None and found != list(header)):
                    want = "a header" if header is None else "header " + ",".join(header)
                    raise ParseError(f"{path}: expected {want}, found {found or 'nothing'}",
                                     line=skipped + 1)
                blocks, line = [], skipped + 2
                while rows := list(itertools.islice(reader, 1024)):
                    bad = next((i for i, row in enumerate(rows) if len(row) != len(found)), None)
                    if bad is not None:
                        raise ParseError(f"{path}: expected {len(found)} columns, found "
                                         f"{len(rows[bad])}", line=line + bad)
                    block = Table(Path(path), found, np.array(rows, dtype=object), line, comment)
                    blocks.append(block.cells if each is None else each(block))
                    line += len(rows)
            except csv.Error as exc:
                raise ParseError(f"{path}: {exc}", line=skipped + reader.line_num) from None
    except UnicodeDecodeError:
        # The decoder reads ahead of the rows; the bytes locate the line.
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})",
                             line=data.count(b"\n", 0, exc.start) + 1) from None
        raise
    if each is None:
        blocks = np.concatenate(blocks) if blocks else np.empty((0, len(found)), dtype=object)
    return Table(Path(path), found, blocks, skipped + 2, comment)

