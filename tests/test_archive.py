"""On-disk artifacts: recordings, epoch archives, preprocessing info."""
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
    make_montage,
)
from eegsr.errors import ParseError

from helpers import epoch_set, same_set

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


def test_recording_requires_sampling_rate(tmp_path):
    path = tmp_path / "nofs.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_recording(path)


@st.composite
def archivable_sets(draw):
    """Any shape (zero channels or samples too), labels or none, several
    subjects, channel labels none or one name per channel (() at zero
    channels), any value but NaN."""
    n, c, t = draw(st.integers(1, 6)), draw(st.integers(0, 5)), draw(st.integers(0, 9))
    column = lambda elements: st.lists(elements, min_size=n, max_size=n)  # noqa: E731
    name = st.text("abcXYZ019_-", min_size=1, max_size=4)
    return EpochSet(
        draw(hnp.arrays(np.float64, (n, c, t), elements=st.floats(allow_nan=False, width=64))),
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
    # The first fixed case: labelled, one subject, named channels.
    for case in (sample_epoch_set(), eset):
        arc = tmp_path_factory.mktemp("arc")
        save_epoch_set(arc, case)
        assert same_set(load_epoch_set(arc), case)


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
    save_epoch_set(tmp_path / "arc", sample_epoch_set())
    blob = (tmp_path / "arc" / "values.bin").read_bytes()
    (tmp_path / "arc" / "values.bin").write_bytes(blob[:-8])
    with pytest.raises(ParseError, match="expected 320 values for declared shapes, found 319"):
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
