"""On-disk artifacts: recordings, epoch archives, preprocessing info."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eegsr.archive import (
    load_epoch_set,
    load_preprocess_info,
    load_recording,
    save_epoch_set,
    save_preprocess_info,
    save_recording,
)
from eegsr.data import (
    SPLITS,
    EpochSet,
    NormStats,
    RawRecording,
    SyntheticConfig,
    generate_synthetic,
    make_montage,
)
from eegsr.errors import ParseError

from helpers import ODD_BITS, epoch_set, odd_rows, peak_bytes, same_set

RNG = np.random.default_rng(20260804)


def sample_recording(with_labels=True):
    values = RNG.normal(size=(3, 40)) * 17.3
    labels = np.repeat([2, 3, 7, 2], 10) if with_labels else None
    return RawRecording(values, fs=512.0, channel_labels=("Fp1", "Cz", "O2"),
                        labels=labels, subject_id="s07")


def sample_epoch_set():
    return EpochSet(RNG.normal(size=(5, 4, 16)), np.full(5, 3), np.full(5, "s07"),
                    np.arange(5) * 16, split="val", fs=256.0,
                    channel_labels=("a", "b", "c", "d"))


def test_recording_round_trip_exact(tmp_path):
    rec = sample_recording()
    path = tmp_path / "rec.csv"
    save_recording(path, rec)
    back = load_recording(path)
    assert np.array_equal(back.values, rec.values)
    assert back.fs == rec.fs
    assert back.channel_labels == rec.channel_labels
    assert np.array_equal(back.labels, rec.labels)
    assert back.subject_id == "s07"


def test_recording_round_trip_without_labels(tmp_path):
    rec = sample_recording(with_labels=False)
    save_recording(tmp_path / "rec.csv", rec)
    back = load_recording(tmp_path / "rec.csv")
    assert back.labels is None
    assert np.array_equal(back.values, rec.values)


def test_recording_missing_file():
    # The command line refuses an absent --recording (exit 2); a reader only reads.
    with pytest.raises(FileNotFoundError):
        load_recording("/nonexistent/rec.csv")


def test_recording_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# fs=100.0\na,b\n1.0,2.0\n1.0\n")
    with pytest.raises(ParseError, match="line 4"):
        load_recording(path)
    path.write_text("# fs=100.0\na,b\n1.0,oops\n")
    with pytest.raises(ParseError, match="line 3"):
        load_recording(path)
    path.write_text("# fs=100.0\na,label\n1.0,2.5\n")
    with pytest.raises(ParseError, match="line 3"):
        load_recording(path)


def desk_recording(path):
    """A desk-size recording (32 channels, 8544 labelled samples: 2.1 MiB
    of values, a 5 MiB file) written to `path`."""
    rec = generate_synthetic(SyntheticConfig(n_samples=8544, n_classes=3, label_block=1024))
    save_recording(path, rec)
    return rec


def test_recording_is_parsed_a_block_of_rows_at_a_time(tmp_path):
    # No cell is held as text beyond its block: the traced peak of reading a
    # desk-size recording stays within 4x its value bytes (3.4x here; 25x
    # with every cell, the text and the file's bytes held at once).
    rec = desk_recording(tmp_path / "rec.csv")
    back, peak = peak_bytes(lambda: load_recording(tmp_path / "rec.csv"))
    assert np.array_equal(back.values, rec.values) and np.array_equal(back.labels, rec.labels)
    assert peak <= 4 * back.values.nbytes, peak / back.values.nbytes


@pytest.mark.parametrize("row, cell, message", [
    (8000, 5, "sample must be a number, got 'pear'"),
    (6500, -1, "label must be an integer, got 'pear'"),
    (8543, None, "expected 33 columns, found 32"),
])
def test_a_bad_cell_in_a_late_block_names_its_line(tmp_path, row, cell, message):
    # Rows go a block at a time; an error in a late block still names the
    # file line of its row: row r of the table is line r + 3, below the
    # `# fs=` line and the header.
    path = tmp_path / "rec.csv"
    desk_recording(path)
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[row + 2].rstrip("\n").split(",")
    if cell is None:
        del cells[-1]
    else:
        cells[cell] = "pear"
    lines[row + 2] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ParseError, match=f"^line {row + 3}: .*{message}"):
        load_recording(path)


def test_recording_requires_sampling_rate(tmp_path):
    path = tmp_path / "nofs.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_recording(path)


@st.composite
def archivable_sets(draw):
    """Any shape (zero channels or samples too), rows drawn with repeats from
    a pool of rows of any float64 bits, labels or none, several subjects,
    channel labels none or one name per channel (() at zero channels)."""
    n, c, t = draw(st.integers(1, 6)), draw(st.integers(0, 5)), draw(st.integers(0, 9))
    column = lambda elements: st.lists(elements, min_size=n, max_size=n)  # noqa: E731
    name = st.text("abcXYZ019_-", min_size=1, max_size=4)
    bits = st.sampled_from(ODD_BITS) | st.integers(0, 2**64 - 1)
    pool = draw(hnp.arrays(np.uint64, (draw(st.integers(1, n)), c, t), elements=bits))
    return EpochSet(
        pool.view(np.float64)[draw(column(st.integers(0, len(pool) - 1)))],
        draw(st.none() | column(st.integers(-2**63, 2**63 - 1))),
        draw(column(name)),
        draw(column(st.integers(-2**63, 2**63 - 1))),
        split=draw(st.sampled_from(SPLITS)),
        fs=draw(st.floats(1e-3, 1e6)),
        channel_labels=draw(st.none() | st.lists(name, min_size=c, max_size=c)),
    )


@settings(max_examples=80, deadline=None)
@given(archivable_sets())
def test_epoch_set_round_trip_exact(tmp_path_factory, eset):
    # The fixed cases: labelled, one subject, named channels; repeated rows
    # of signed zeros and NaN payloads.
    for case in (sample_epoch_set(), epoch_set(odd_rows(), label=2, split="test"), eset):
        arc = tmp_path_factory.mktemp("arc")
        save_epoch_set(arc, case)
        back = load_epoch_set(arc)
        assert same_set(back, case) and back.values.flags.c_contiguous
        # The loader keeps the distinct rows; it does not expand them.
        n_distinct = len({row.tobytes() for row in case.rows()})
        assert back.values.shape == (n_distinct,) + case.values.shape[1:]


@settings(max_examples=40, deadline=None)
@given(archivable_sets())
def test_values_bin_holds_each_distinct_row_once(tmp_path_factory, eset):
    # In order of first appearance; meta.csv's last column names each row's.
    for case in (epoch_set(odd_rows(), label=2, split="test"), eset):
        arc = tmp_path_factory.mktemp("arc")
        save_epoch_set(arc, case)
        keys = [row.astype("<f8").tobytes() for row in case.values]
        firsts = list(dict.fromkeys(keys))
        assert (arc / "values.bin").read_bytes() == b"".join(firsts)
        lines = (arc / "meta.csv").read_text().splitlines()
        assert lines[0].endswith(",value_row")
        assert [int(line.rsplit(",", 1)[1]) for line in lines[1:]] == [
            firsts.index(key) for key in keys]


def test_epoch_set_round_trip_unlabelled(tmp_path):
    eset = epoch_set(RNG.normal(size=(3, 2, 8)), fs=100.0)
    save_epoch_set(tmp_path / "arc", eset)
    back = load_epoch_set(tmp_path / "arc")
    assert back.labels is None
    assert back.channel_labels is None
    assert same_set(back, eset)


def test_epoch_archive_missing_pieces(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_epoch_set(tmp_path / "nothing")
    save_epoch_set(tmp_path / "arc", sample_epoch_set())
    (tmp_path / "arc" / "values.bin").unlink()
    with pytest.raises(FileNotFoundError, match="values.bin"):
        load_epoch_set(tmp_path / "arc")


def test_epoch_archive_detects_truncated_values(tmp_path):
    # values.bin holds the 3 distinct rows of 5, 64 values each.
    eset = sample_epoch_set()
    save_epoch_set(tmp_path / "arc", replace(eset, values=eset.values[[0, 1, 0, 2, 1]]))
    blob = (tmp_path / "arc" / "values.bin").read_bytes()
    (tmp_path / "arc" / "values.bin").write_bytes(blob[:-8])
    with pytest.raises(ParseError, match="expected 192 values for declared shapes, found 191"):
        load_epoch_set(tmp_path / "arc")
    (tmp_path / "arc" / "values.bin").write_bytes(blob[:-4])
    with pytest.raises(ParseError, match="expected 192 values for declared shapes, found 1532 "
                                         "bytes"):
        load_epoch_set(tmp_path / "arc")


def test_epoch_archive_reads_the_dtype_its_manifest_names(tmp_path):
    # Archives are written as float64; one holding float32 values reads as such.
    eset = sample_epoch_set()
    save_epoch_set(tmp_path, eset)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("dtype = f64", "dtype = f32"))
    eset.values.astype("<f4").tofile(tmp_path / "values.bin")
    back = load_epoch_set(tmp_path)
    assert np.array_equal(back.values, eset.values.astype(np.float32))


def test_preprocess_info_round_trip(tmp_path):
    montage = make_montage(32, 4)
    stats = NormStats(mu=0.125, sigma=3.5)
    path = tmp_path / "info.txt"
    save_preprocess_info(path, montage, stats, 512, 32, 64)
    m2, s2, ep = load_preprocess_info(path)
    assert m2 == montage
    assert (s2.mu, s2.sigma) == (0.125, 3.5)
    assert ep == {"window": 512, "stride": 32, "seg_len": 64}


def test_preprocess_info_corrupt(tmp_path):
    path = tmp_path / "info.txt"
    path.write_text("[montage]\nn_channels = pear\n")
    with pytest.raises(ParseError):
        load_preprocess_info(path)
    with pytest.raises(FileNotFoundError):
        load_preprocess_info(tmp_path / "absent.txt")
