"""The CSV table codec: exact round trips, one line terminator, located errors."""
import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegsr import table
from eegsr.errors import ParseError
from eegsr.ini import format_value

HEADER = ["name", "count", "value"]
ROWS = [("a b", 3, 0.1), ("x,y", -2, 1e-300), ("", 0, -0.0)]


def test_round_trip_is_exact_and_ends_lines_with_newline(tmp_path):
    path = tmp_path / "t.csv"
    table.write(path, HEADER, ROWS, comment="fs=2.5 subject=s01")
    data = path.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")
    assert data.startswith(b"# fs=2.5 subject=s01\nname,count,value\n")
    t = table.read(path, HEADER)
    assert t.comment == "fs=2.5 subject=s01" and t.first_line == 3
    assert t.cells[:, 0].tolist() == ["a b", "x,y", ""]
    assert t.parse(1, int, "count").tolist() == [3, -2, 0]
    values = t.parse(2, float, "value")
    assert values.tobytes() == np.array([0.1, 1e-300, -0.0]).tobytes()


def test_crlf_lines_read_the_same(tmp_path):
    path = tmp_path / "t.csv"
    table.write(path, HEADER, ROWS)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert np.array_equal(table.read(crlf, HEADER).cells, table.read(path, HEADER).cells)


@pytest.mark.parametrize("data, line", [
    (b"name,count,value\na,1,2.0\nb,\xff,3.0\n", 3),  # not UTF-8
    (b"name,count,value\na,1,2.0\nb,2\n", 3),  # short row
    (b"name,count\na,1\n", 1),  # other header
    (b"# note\nname,count\n", 2),  # other header below a comment
    (b"", 1),  # no header
])
def test_malformed_text_names_file_and_line(tmp_path, data, line):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"^line {line}: .*bad.csv") as exc:
        table.read(path, HEADER)
    assert exc.value.line == line


def test_parse_error_names_the_line_of_the_cell(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("name,count,value\na,1,0.5\nb,,pear\nc,2.5,1\n")
    t = table.read(path, HEADER)
    with pytest.raises(ParseError, match="^line 3: .*value must be a number, got 'pear'"):
        t.parse(2, float, "value")
    # The mask skips line 3's empty count; line 4's does not parse as int.
    with pytest.raises(ParseError, match="^line 4: .*count must be an integer"):
        t.parse(1, int, "count", t.cells[:, 1] != "")
    path.write_text("name,count,value\na,1,0.5\nb,99999999999999999999,1\n")
    with pytest.raises(ParseError, match="^line 3: .*count must be an integer"):
        table.read(path, HEADER).parse(1, int, "count")


# A cell: text with every character csv quotes for, or a number or tuple
# for format_value.
CELLS = (st.text(list("ab1.-e \t\u00e9,\"\r\n"), max_size=4)
         | st.sampled_from([0.1, -0.0, 1e-300, 7, (1, 2)]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(CELLS, max_size=4), max_size=6))
def test_rows_have_the_bytes_of_csv_writer(tmp_path_factory, rows):
    # A row goes out as its cells joined by commas unless csv would quote
    # it: a comma, quote or line break in a cell, or one empty cell alone.
    rows = rows + [[""], [], ["", ""], ["a,b"], ['"'], ["x\ry"]]
    path = tmp_path_factory.mktemp("table") / "t.csv"
    table.write(path, HEADER, rows, comment="note")
    expected = io.StringIO(newline="")
    expected.write("# note\n")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows([format_value(v) for v in row] for row in rows)
    assert path.read_bytes() == expected.getvalue().encode("utf-8")
