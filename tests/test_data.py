"""Synthetic data, epoching, montage handling and normalization."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eegsr.data import (
    CHANNEL_LABELS_32,
    SPLITS,
    EpochSet,
    NormStats,
    RawRecording,
    SyntheticConfig,
    assemble_channels,
    compute_norm_stats,
    denormalize_set,
    distinct_rows,
    downsample_set,
    extract_epochs,
    generate_synthetic,
    make_montage,
    normalize_set,
    regroup_segments,
    segment_epochs,
    split_dataset,
)
from eegsr.errors import DataError

from helpers import ODD_BITS, epoch_set, odd_rows, peak_bytes, same_set

RNG = np.random.default_rng(20260803)


def small_recording(n_samples=1152, n_classes=3, seed=5):
    cfg = SyntheticConfig(n_samples=n_samples, n_classes=n_classes, label_block=256)
    return generate_synthetic(cfg, seed=seed)


def random_set(n_epochs, channels, samples, subject="s01"):
    return epoch_set(RNG.normal(size=(n_epochs, channels, samples)), label=2,
                     subject=subject, fs=512.0)


@st.composite
def epoch_sets(draw, channels=st.integers(1, 6), samples=st.integers(1, 12)):
    """Sets of random values with labels or none, several subjects, any
    origins and channel labels or none."""
    n, c, t = draw(st.integers(1, 7)), draw(channels), draw(samples)
    subjects = draw(st.lists(st.sampled_from(["s01", "s02", "s10"]), min_size=n, max_size=n))
    labels = draw(st.none() | st.lists(st.integers(-5, 9), min_size=n, max_size=n))
    origins = draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))
    names = draw(st.none() | st.just(tuple(f"ch{i}" for i in range(c))))
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).normal(size=(n, c, t)) * 10.0 ** draw(st.integers(-3, 3))
    return EpochSet(values, labels, subjects, origins, split=draw(st.sampled_from(SPLITS)),
                    fs=draw(st.sampled_from([128.0, 512.0, 1000.5])), channel_labels=names)


def test_synthetic_shape_labels_and_determinism():
    rec = small_recording()
    assert rec.values.shape == (32, 1152)
    assert rec.channel_labels == CHANNEL_LABELS_32
    assert set(np.unique(rec.labels)) <= {2, 3, 7}
    assert np.array_equal(rec.labels[:256], np.full(256, 2))
    assert np.array_equal(rec.labels[256:512], np.full(256, 3))
    again = small_recording()
    assert np.array_equal(rec.values, again.values)


def test_synthetic_single_class_has_no_labels():
    rec = generate_synthetic(SyntheticConfig(n_samples=600, n_classes=1), seed=0)
    assert rec.labels is None


def test_synthetic_seed_changes_signal_but_not_mixing():
    a = generate_synthetic(SyntheticConfig(n_samples=600), seed=1)
    b = generate_synthetic(SyntheticConfig(n_samples=600), seed=2)
    assert not np.array_equal(a.values, b.values)


def test_synthetic_classes_differ_spectrally():
    # Class blocks shift every oscillator, so the dominant frequencies of the
    # same channel must differ between blocks.
    cfg = SyntheticConfig(n_samples=4096, n_classes=2, label_block=2048)
    rec = generate_synthetic(cfg, seed=3)
    spec_a = np.abs(np.fft.rfft(rec.values[0, :2048]))
    spec_b = np.abs(np.fft.rfft(rec.values[0, 2048:]))
    assert np.argmax(spec_a) != np.argmax(spec_b)


def test_validation_rejects_bad_configs():
    for bad in ({"n_channels": 3}, {"n_classes": 0}, {"n_classes": 4, "class_ids": (1, 2, 3, 4)},
                {"n_classes": 3, "class_ids": (1, 2)}, {"class_ids": (2, 2, 7)},
                {"label_block": 0}):
        with pytest.raises(DataError):
            SyntheticConfig(**bad)


def test_epoch_count_formula():
    rec = small_recording(n_samples=512 + 32 * 9)
    eps = extract_epochs(rec, window=512, stride=32)
    assert len(eps) == 10
    assert eps.values.shape[1:] == (32, 512)


def test_epoch_count_formula_property():
    # (n - window) // stride + 1 over random sizes.
    rng = np.random.default_rng(99)
    values = rng.normal(size=(4, 4000))
    rec = RawRecording(values, fs=128.0, channel_labels=("a", "b", "c", "d"))
    for _ in range(200):
        window = int(rng.integers(2, 500))
        stride = int(rng.integers(1, 400))
        eps = extract_epochs(rec, window=window, stride=stride)
        assert len(eps) == (4000 - window) // stride + 1
        last = eps.origins[-1]
        assert last + window <= 4000
        assert np.array_equal(eps.values[-1], values[:, last : last + window])
        assert np.array_equal(eps.origins, np.arange(len(eps)) * stride)


def test_extract_epochs_rejects_short_recording():
    rec = RawRecording(np.zeros((2, 100)), fs=10.0, channel_labels=("a", "b"))
    with pytest.raises(DataError):
        extract_epochs(rec, window=200, stride=10)


def test_epoch_labels_majority_and_tie():
    values = np.zeros((1, 8))
    labels = np.array([2, 2, 2, 3, 3, 3, 3, 2])
    rec = RawRecording(values, fs=8.0, channel_labels=("a",), labels=labels)
    eps = extract_epochs(rec, window=8, stride=1)
    assert eps.labels[0] == 3
    tied = RawRecording(np.zeros((1, 4)), fs=4.0, channel_labels=("a",),
                        labels=np.array([2, 3, 3, 2]))
    eps = extract_epochs(tied, window=4, stride=1)
    # Tie between 2 and 3 resolves to the centre sample (index 2).
    assert eps.labels[0] == 3


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_segment_then_regroup_is_identity(draw):
    seg_len, k = draw.draw(st.integers(1, 5)), draw.draw(st.integers(1, 4))
    eset = draw.draw(epoch_sets(samples=st.just(seg_len * k)))
    segs = segment_epochs(eset, seg_len=seg_len)
    n, c = eset.values.shape[:2]
    assert segs.values.shape == (n * k, c, seg_len)
    # Segment j of epoch i is samples j*seg_len.. of it, starting seg_len*j later.
    assert np.array_equal(segs.values[k - 1 :: k], eset.values[:, :, (k - 1) * seg_len :])
    assert np.array_equal(segs.origins[k - 1 :: k], eset.origins + (k - 1) * seg_len)
    assert same_set(regroup_segments(segs, k), eset)


def test_segment_origin_indices_advance():
    eset = random_set(1, 2, 128)
    segs = segment_epochs(eset, seg_len=32)
    assert segs.origins.tolist() == [0, 32, 64, 96]


def test_regroup_rejects_gaps():
    eset = random_set(1, 2, 128)
    segs = segment_epochs(eset, seg_len=32)
    order = [1, 0, 2, 3]
    shuffled = epoch_set(segs.values[order], label=2, origins=segs.origins[order])
    with pytest.raises(DataError, match="not contiguous"):
        regroup_segments(shuffled, 4)
    relabelled = replace(segs, labels=[2, 2, 3, 2])
    with pytest.raises(DataError, match="mix subjects or labels"):
        regroup_segments(relabelled, 4)


def test_split_is_a_partition_in_order():
    eset = random_set(40, 4, 64)
    train, val, test = split_dataset(eset, ratios=(0.75, 0.20, 0.05))
    assert (len(train), len(val), len(test)) == (30, 8, 2)
    assert train.split == "train" and val.split == "val" and test.split == "test"
    merged = np.concatenate([part.values for part in (train, val, test)])
    assert np.array_equal(merged, eset.values)
    origins = np.concatenate([part.origins for part in (train, val, test)])
    assert np.array_equal(origins, eset.origins)


def test_split_is_per_subject():
    # Interleaved subjects: each is split on its own, in order of appearance.
    subjects = ["s02", "s01"] * 10 + ["s01"] * 10
    eset = EpochSet(np.zeros((30, 2, 8)), None, subjects, np.arange(30))
    train, val, test = split_dataset(eset, ratios=(0.5, 0.25, 0.25))
    assert train.subject_ids.tolist() == ["s02"] * 5 + ["s01"] * 10
    assert train.origins.tolist()[:5] == [0, 2, 4, 6, 8]
    assert len(train) + len(val) + len(test) == 30


def test_montage_keeps_every_scale_th_channel():
    m = make_montage(32, 2)
    assert m.lr_indices == tuple(range(0, 32, 2))
    assert m.n_lr == 16 and m.n_hr == 16
    m4 = make_montage(32, 4)
    assert m4.n_lr == 8 and m4.n_hr == 24
    assert set(m4.lr_indices) | set(m4.hr_indices) == set(range(32))
    with pytest.raises(DataError):
        make_montage(30, 4)
    # The indices of scale 2 under scale 4 would place every missing channel
    # at the wrong distance from its neighbours.
    with pytest.raises(DataError, match="every 4th channel"):
        replace(m, scale=4)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_downsample_then_assemble_is_lossless(draw):
    scale = draw.draw(st.sampled_from([2, 4]))
    n_channels = scale * draw.draw(st.integers(2, 5))
    eset = draw.draw(epoch_sets(channels=st.just(n_channels)))
    m = make_montage(n_channels, scale)
    lr, hr = downsample_set(eset, m)
    assert lr.values.shape[1] == m.n_lr and hr.values.shape[1] == m.n_hr
    assert np.array_equal(hr.values, eset.values[:, list(m.hr_indices)])
    assert same_set(assemble_channels(lr, hr, m), eset)


def test_downsample_splits_channel_labels():
    rec = small_recording(n_samples=576)
    eset = extract_epochs(rec, window=64, stride=64)
    m = make_montage(32, 4)
    lr, hr = downsample_set(eset, m)
    assert lr.channel_labels == tuple(CHANNEL_LABELS_32[i] for i in m.lr_indices)
    assert hr.channel_labels == tuple(CHANNEL_LABELS_32[i] for i in m.hr_indices)


@pytest.mark.parametrize("scale", [2, 4])
@pytest.mark.parametrize("n_samples", [1152, 192])
def test_the_stages_of_a_recording_are_views_until_segmented(scale, n_samples):
    # The window view of a recording, its parts and their evenly spaced
    # channels stay views of the recording; segment_epochs copies each once,
    # into C order (a one-epoch part included, where its reshape is a view),
    # and the result is the part segmented, then split by the montage, as
    # the stages ran before.
    rec = small_recording(n_samples=n_samples)
    m = make_montage(32, scale)
    eps = extract_epochs(rec, window=128, stride=32)
    assert np.shares_memory(eps.values, rec.values)
    for part in split_dataset(eps, ratios=(0.34, 0.34, 0.32)):
        assert np.shares_memory(part.values, rec.values)
        sides = downsample_set(part, m)
        assert np.shares_memory(sides[0].values, rec.values)
        assert np.shares_memory(sides[1].values, rec.values) == (scale == 2)
        for side, ref in zip(sides, downsample_set(segment_epochs(part, seg_len=32), m)):
            seg = segment_epochs(side, seg_len=32)
            assert seg.values.flags.c_contiguous and seg.values.flags.writeable
            assert same_set(seg, ref)


def test_norm_stats_and_round_trip():
    eset = random_set(4, 8, 32)
    stats = compute_norm_stats(eset)
    vals = eset.values
    assert abs(stats.mu - vals.mean()) < 1e-15
    assert abs(stats.sigma - vals.std()) < 1e-15
    normed = normalize_set(eset, stats)
    nvals = normed.values
    assert abs(nvals.mean()) < 1e-12
    assert abs(nvals.std() - 1.0) < 1e-12
    back = denormalize_set(normed, stats)
    assert np.max(np.abs(back.values - vals)) < 1e-12


def test_norm_stats_reject_non_finite():
    with pytest.raises(DataError):
        NormStats(mu=np.nan, sigma=1.0)
    with pytest.raises(DataError):
        NormStats(mu=0.0, sigma=0.0)


def test_epoch_set_shape_consistency_enforced():
    with pytest.raises(DataError):
        EpochSet(np.zeros((2, 4)), None, ["s01", "s01"], [0, 4])
    with pytest.raises(DataError, match="origins"):
        EpochSet(np.zeros((2, 2, 4)), None, ["s01", "s01"], [0])
    with pytest.raises(DataError, match="labels"):
        EpochSet(np.zeros((2, 2, 4)), [2, 3, 7], ["s01", "s01"], [0, 4])
    with pytest.raises(DataError, match="split"):
        EpochSet(np.zeros((2, 2, 4)), None, ["s01", "s01"], [0, 4], split="holdout")
    labelled = random_set(2, 4, 8)
    labelled = replace(labelled, channel_labels=("a", "b", "c", "d"))
    with pytest.raises(DataError, match="channel label count"):
        replace(labelled, values=np.zeros((2, 3, 8)))
    out = replace(labelled, values=np.zeros((2, 3, 8)), channel_labels=None)
    assert out.channel_labels is None
    assert np.array_equal(out.origins, labelled.origins)


def test_with_values_clears_labels_explicitly():
    labelled = replace(random_set(2, 4, 8), channel_labels=("a", "b", "c", "d"))
    out = replace(labelled, values=np.zeros((2, 3, 8)), channel_labels=None)
    assert out.channel_labels is None
    kept = replace(labelled, values=np.ones((2, 4, 8)))
    assert kept.channel_labels == ("a", "b", "c", "d")


def test_biosemi_layout_has_the_feature_sites():
    for name in ("C3", "Cz", "C4", "CP1", "CP2", "P3", "Pz", "P4"):
        assert name in CHANNEL_LABELS_32
    assert len(CHANNEL_LABELS_32) == 32
    assert len(set(CHANNEL_LABELS_32)) == 32


@st.composite
def rows_with_repeats(draw):
    """n rows drawn with repeats from a pool of k rows of any float64 bits."""
    k, n = draw(st.integers(1, 5)), draw(st.integers(0, 12))
    c, t = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    bits = st.sampled_from(ODD_BITS) | st.integers(0, 2**64 - 1)
    pool = draw(hnp.arrays(np.uint64, (k, c, t), elements=bits)).view(np.float64)
    return pool[draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))]


@settings(max_examples=100, deadline=None)
@given(rows_with_repeats())
def test_distinct_rows_are_the_first_appearances_bit_for_bit(values):
    distinct, index = distinct_rows(values)
    keys = [row.tobytes() for row in values]
    firsts = list(dict.fromkeys(keys))
    assert [row.tobytes() for row in distinct] == firsts
    assert index.tolist() == [firsts.index(key) for key in keys]
    assert distinct[index].tobytes() == values.tobytes()
    assert (index <= np.arange(len(values))).all()
    if len(firsts) == len(values):
        assert np.shares_memory(distinct, values) or not values.size


def test_distinct_rows_tell_the_sign_of_zero_and_nan_payloads_apart():
    assert distinct_rows(odd_rows())[1].tolist() == [0, 1, 0, 2, 3, 2]


def test_distinct_rows_hold_at_most_the_distinct_rows():
    # Beyond its input, the helper holds the distinct rows once (as keys,
    # then as the rows it returns) and the index; sorting a copy of the set
    # to find its repeats would hold all 400 rows.
    values = RNG.normal(size=(50, 16, 64))[RNG.integers(0, 50, 400)]
    (distinct, index), peak = peak_bytes(lambda: distinct_rows(values))
    assert peak <= 1.25 * distinct.nbytes + index.nbytes, peak / distinct.nbytes
