"""Recordings, epoch extraction, montage splits and normalization.

A recording is channels x samples. Epochs are fixed windows cut from it on a
regular stride; segments are non-overlapping sub-windows of epochs. A montage
split keeps every `scale`-th channel as the low-resolution input and treats
the rest as the targets to reconstruct.

Window, stride, segment length, scale and split ratios are checked at config
load, recordings and epoch sets by their dataclasses. The functions here check
only what those cannot: a recording shorter than a window, a scale that does
not divide the channels, an empty split, rows that do not align.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DataError

# 32-channel cap layout, in recording order. Index 7 is C3, 31 is Cz, 22 is C4.
CHANNEL_LABELS_32 = (
    "Fp1", "AF3", "F7", "F3", "FC1", "FC5", "T7", "C3",
    "CP1", "CP5", "P7", "P3", "Pz", "PO3", "O1", "Oz",
    "O2", "PO4", "P4", "P8", "CP6", "CP2", "C4", "T8",
    "FC6", "FC2", "F4", "F8", "AF4", "Fp2", "Fz", "Cz",
)

SPLITS = ("unsplit", "train", "val", "test")

SIGMA_FLOOR = 1e-8


def check_finite(cfg):
    """Raise ValueError naming the first float field of dataclass `cfg` whose
    value is not finite."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass
class RawRecording:
    """A continuous multichannel recording with optional per-sample labels."""

    values: np.ndarray
    fs: float
    channel_labels: tuple[str, ...]
    labels: np.ndarray | None = None
    subject_id: str = "s01"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError(f"recording values must be 2-D, got shape {self.values.shape}")
        self.channel_labels = tuple(self.channel_labels)
        if len(self.channel_labels) != self.values.shape[0]:
            raise DataError(
                f"{len(self.channel_labels)} channel labels for {self.values.shape[0]} channels"
            )
        if not 0 < self.fs < math.inf:
            raise DataError(f"sampling rate fs must be finite and positive, got {self.fs}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.values.shape[1],):
                raise DataError(
                    f"per-sample labels must have shape ({self.values.shape[1]},), "
                    f"got {self.labels.shape}"
                )

    @property
    def n_channels(self):
        return self.values.shape[0]

    @property
    def n_samples(self):
        return self.values.shape[1]


def metadata_columns(n, labels, subject_ids, origins):
    """Validated per-row columns for n rows: labels as int64 (or None when
    the rows carry no labels), subject ids as str, origins as int64."""
    cols = (
        None if labels is None else np.array(labels, dtype=np.int64),
        np.array(subject_ids, dtype=str),
        np.array(origins, dtype=np.int64),
    )
    for name, col in zip(("labels", "subject_ids", "origins"), cols):
        if col is not None and col.shape != (n,):
            raise DataError(f"{name} column has shape {col.shape}, expected ({n},)")
    return cols


@dataclass
class EpochSet:
    """Same-shaped epochs as one (n, channels, samples) array plus per-row
    metadata columns: class label (`labels` is None for an unlabelled set),
    subject id, and origin, the sample index where the row starts in its
    subject's recording. Given an `index`, row i is `values[index[i]]`."""

    values: np.ndarray
    labels: np.ndarray | None
    subject_ids: np.ndarray
    origins: np.ndarray
    split: str = "unsplit"
    fs: float = 512.0
    channel_labels: tuple[str, ...] | None = None
    index: np.ndarray | None = None

    def __post_init__(self):
        if self.split not in SPLITS:
            raise DataError(f"unknown split {self.split!r}; expected one of {SPLITS}")
        if not 0 < self.fs < math.inf:
            raise DataError(f"sampling rate fs must be finite and positive, got {self.fs}")
        # C order fixes the summation order of every reduction over the set.
        # A read-only view (the windows of a recording, parts and channels of
        # them) stays a view until `segment_epochs` copies it.
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.flags.writeable:
            self.values = np.ascontiguousarray(self.values)
        if self.values.ndim != 3:
            raise DataError(
                f"epoch set values must be (epochs, channels, samples), got shape "
                f"{self.values.shape}"
            )
        self.labels, self.subject_ids, self.origins = metadata_columns(
            len(self), self.labels, self.subject_ids, self.origins)
        if self.channel_labels is not None:
            self.channel_labels = tuple(self.channel_labels)
            if len(self.channel_labels) != self.values.shape[1]:
                raise DataError("channel label count does not match epoch channel count")

    def __len__(self):
        return len(self.values if self.index is None else self.index)

    def rows(self):
        """Every row in order: `values`, or a copy of `values[index]`."""
        return self.values if self.index is None else self.values[self.index]


def _view_index(indices):
    """Ascending `indices` as a slice when they are evenly spaced, so that
    selecting them is a view; as a list otherwise."""
    i = [int(k) for k in indices]
    step = i[1] - i[0] if len(i) > 1 else 1
    if i and step > 0 and i == list(range(i[0], i[-1] + 1, step)):
        return slice(i[0], i[-1] + 1, step)
    return i


def distinct_rows(values):
    """(distinct, index): the rows of `values` that differ in their bytes, in
    order of first appearance, and for each row the position of its row in
    `distinct`, so that `distinct[index]` is `values` bit for bit and
    `index[i] <= i`. NaN payloads and the sign of zero tell rows apart.
    `distinct` is a view of `values` when every row is distinct."""
    index = np.empty(len(values), dtype=np.int64)
    first, seen = [], {}
    for i, row in enumerate(values):
        index[i] = seen.setdefault(row.tobytes(), len(first))
        if index[i] == len(first):
            first.append(i)
    del seen  # its keys are a copy of the distinct rows; freed before `distinct` is taken
    return values[_view_index(first)], index


def _rows(epoch_set, rows):
    """The metadata columns of the given rows, and no index, as keyword
    arguments of dataclasses.replace."""
    labels = epoch_set.labels
    return {"labels": None if labels is None else labels[rows], "index": None,
            "subject_ids": epoch_set.subject_ids[rows], "origins": epoch_set.origins[rows]}


def check_aligned(a, b):
    """Raise unless two sets are equally long and hold the same subject and
    origin row for row."""
    if len(a) != len(b):
        raise DataError(f"sets differ in length: {len(a)} vs {len(b)} epochs")
    bad = np.flatnonzero((a.subject_ids != b.subject_ids) | (a.origins != b.origins))
    if bad.size:
        i = bad[0]
        raise DataError(f"sets misaligned at epoch {i}: ({a.subject_ids[i]}, {a.origins[i]}) "
                        f"vs ({b.subject_ids[i]}, {b.origins[i]})")


@dataclass(frozen=True)
class MontageSplit:
    """Partition of channel indices into kept (lr) and missing (hr) sets."""

    n_channels: int
    scale: int
    lr_indices: tuple[int, ...]
    hr_indices: tuple[int, ...]

    def __post_init__(self):
        if self.scale < 2:
            raise DataError(f"montage scale must be >= 2, got {self.scale}")
        merged = sorted(self.lr_indices + self.hr_indices)
        if merged != list(range(self.n_channels)):
            raise DataError("lr and hr indices must partition the channel range")
        if self.lr_indices != tuple(range(0, self.n_channels, self.scale)):
            raise DataError(f"kept channels are not every {self.scale}th channel from 0")
        if len(self.lr_indices) < 2:
            raise DataError("montage needs at least two kept channels")

    @property
    def n_lr(self):
        return len(self.lr_indices)

    @property
    def n_hr(self):
        return len(self.hr_indices)


@dataclass(frozen=True)
class NormStats:
    """Global standardisation constants computed from training data."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not np.isfinite(self.mu) or not np.isfinite(self.sigma):
            raise DataError("normalization stats must be finite")
        if self.sigma < SIGMA_FLOOR:
            raise DataError(f"sigma below floor {SIGMA_FLOOR}: {self.sigma}")


# The surrogate's fixed shape. Channels are a fixed random mixture (drawn
# from MIXING_SEED) of N_SOURCES oscillators, each a sum of SINES_PER_SOURCE
# sines in BAND Hz, scaled by AMPLITUDE, plus white noise of NOISE_SIGMA.
# Class c shifts every sine by CLASS_BAND_OFFSETS[c] Hz, so class identity
# lives purely in the spectrum. The recording is sampled at FS Hz; its
# subject is RawRecording's default, s01.
FS = 512.0
N_SOURCES = 4
BAND = (7.0, 30.0)
SINES_PER_SOURCE = 3
AMPLITUDE = 10.0
NOISE_SIGMA = 1.0
MIXING_SEED = 90
CLASS_BAND_OFFSETS = (0.0, 6.0, -4.0)


@dataclass(frozen=True)
class SyntheticConfig:
    """What a run needs of its surrogate recording: `n_channels` x `n_samples`
    at FS Hz, in `n_classes` classes with ids `class_ids` whose labels change
    in contiguous blocks of `label_block` samples (a single class writes no
    labels)."""

    n_channels: int = 32
    n_samples: int = 8544
    n_classes: int = 3
    class_ids: tuple[int, ...] = (2, 3, 7)
    label_block: int = 2048

    def __post_init__(self):
        if self.n_channels < N_SOURCES:
            raise DataError(f"n_channels must be >= {N_SOURCES}, the surrogate's sources, "
                            f"got {self.n_channels}")
        if self.n_samples < 1:
            raise DataError(f"n_samples must be >= 1, got {self.n_samples}")
        if not 1 <= self.n_classes <= len(CLASS_BAND_OFFSETS):
            raise DataError(f"n_classes must be in [1, {len(CLASS_BAND_OFFSETS)}], "
                            f"got {self.n_classes}")
        if self.n_classes > 1 and len(self.class_ids) < self.n_classes:
            raise DataError("class_ids shorter than n_classes")
        if len(set(self.class_ids)) != len(self.class_ids):
            raise DataError(f"class_ids repeats an id: {self.class_ids}")
        if self.label_block < 1:
            raise DataError("label_block must be >= 1")


def generate_synthetic(cfg, seed=0):
    """Build a surrogate recording per `cfg`; `seed` drives everything except
    the mixing matrix, which is pinned by MIXING_SEED."""
    rng = np.random.default_rng(seed)
    mixing = np.random.default_rng(MIXING_SEED).normal(size=(cfg.n_channels, N_SOURCES))
    n = cfg.n_samples
    t = np.arange(n) / FS

    if cfg.n_classes > 1:
        block_of = (np.arange(n) // cfg.label_block) % cfg.n_classes
        labels = np.asarray(cfg.class_ids[: cfg.n_classes], dtype=np.int64)[block_of]
    else:
        block_of = np.zeros(n, dtype=np.int64)
        labels = None

    freqs = rng.uniform(*BAND, size=(N_SOURCES, SINES_PER_SOURCE))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=freqs.shape)
    amps = rng.uniform(0.5, 1.0, size=freqs.shape)

    sources = np.zeros((N_SOURCES, n))
    for c in range(cfg.n_classes):
        mask = block_of == c
        if not mask.any():
            continue
        fc = np.clip(freqs + CLASS_BAND_OFFSETS[c], 0.5, FS / 2.0 - 0.5)
        phase_term = 2.0 * np.pi * fc[:, :, None] * t[mask][None, None, :] + phases[:, :, None]
        sources[:, mask] = (amps[:, :, None] * np.sin(phase_term)).sum(axis=1)

    values = AMPLITUDE * (mixing @ sources)
    values = values + rng.normal(0.0, NOISE_SIGMA, size=values.shape)

    if cfg.n_channels == 32:
        names = CHANNEL_LABELS_32
    else:
        names = tuple(f"ch{i:02d}" for i in range(cfg.n_channels))
    return RawRecording(values, fs=FS, channel_labels=names, labels=labels)


def _window_label(labels, start, window):
    """Majority class over a window; ties resolve to the centre sample."""
    chunk = labels[start : start + window]
    vals, counts = np.unique(chunk, return_counts=True)
    winners = vals[counts == counts.max()]
    if winners.size == 1:
        return int(winners[0])
    return int(labels[start + window // 2])


def extract_epochs(rec, window=512, stride=32):
    """Cut overlapping windows from a recording.

    Yields (n_samples - window) // stride + 1 epochs; fails if the recording
    is shorter than one window.
    """
    if rec.n_samples < window:
        raise DataError(
            f"recording has {rec.n_samples} samples, shorter than one {window}-sample window"
        )
    starts = np.arange(0, rec.n_samples - window + 1, stride)
    windows = np.lib.stride_tricks.sliding_window_view(rec.values, window, axis=1)[:, ::stride]
    labels = None
    if rec.labels is not None:
        labels = [_window_label(rec.labels, start, window) for start in starts]
    return EpochSet(windows.transpose(1, 0, 2), labels, np.full(starts.size, rec.subject_id),
                    starts, split="unsplit", fs=rec.fs, channel_labels=rec.channel_labels)


def segment_epochs(epoch_set, seg_len=64):
    """Split every epoch into non-overlapping segments of seg_len samples."""
    if not len(epoch_set):
        raise DataError("cannot segment an empty epoch set")
    n, c, n_samples = epoch_set.values.shape
    k = n_samples // seg_len
    values = epoch_set.values.reshape(n, c, k, seg_len).transpose(0, 2, 1, 3)
    meta = _rows(epoch_set, np.repeat(np.arange(n), k))
    meta["origins"] += np.tile(np.arange(k) * seg_len, n)
    # In C order, also where the reshape of a read-only set is a view.
    values = np.ascontiguousarray(values.reshape(n * k, c, seg_len))
    return replace(epoch_set, values=values, **meta)


def regroup_segments(segment_set, group_size):
    """Invert segment_epochs: join each run of group_size segments in order."""
    n, (c, seg_len) = len(segment_set), segment_set.values.shape[1:]
    if n == 0 or n % group_size != 0:
        raise DataError(f"{n} segments do not regroup evenly by {group_size}")
    groups = n // group_size
    mixed = np.zeros(groups, dtype=bool)
    for col in (segment_set.subject_ids, segment_set.labels):
        if col is not None:
            col = col.reshape(groups, group_size)
            mixed |= (col != col[:, :1]).any(axis=1)
    origins = segment_set.origins.reshape(groups, group_size)
    gaps = (origins != origins[:, :1] + np.arange(group_size) * seg_len).any(axis=1)
    bad = np.flatnonzero(mixed | gaps)
    if bad.size:
        g = bad[0]
        what = "mix subjects or labels" if mixed[g] else "are not contiguous in time"
        raise DataError(f"group {g}: segments {what}")
    values = segment_set.rows().reshape(groups, group_size, c, seg_len).transpose(0, 2, 1, 3)
    return replace(segment_set, values=values.reshape(groups, c, group_size * seg_len),
                   **_rows(segment_set, slice(None, None, group_size)))


def split_dataset(epoch_set, ratios=(0.75, 0.20, 0.05)):
    """Chronological train/val/test split, applied per subject.

    Each subject's epochs stay in order; train and val take floor shares and
    test receives the remainder, so every epoch lands in exactly one part.
    Subjects follow each other in order of first appearance.
    """
    subjects, first = np.unique(epoch_set.subject_ids, return_index=True)
    parts = ([], [], [])
    for subject in subjects[np.argsort(first)]:
        rows = np.flatnonzero(epoch_set.subject_ids == subject)
        n_train = int(rows.size * ratios[0])
        n_val = int(rows.size * ratios[1])
        for part, chunk in zip(parts, np.split(rows, [n_train, n_train + n_val])):
            part.append(chunk)
    out = []
    for name, part in zip(("train", "val", "test"), parts):
        rows = np.concatenate(part)
        out.append(replace(epoch_set, values=epoch_set.values[_view_index(rows)], split=name,
                           **_rows(epoch_set, rows)))
    return tuple(out)


def make_montage(n_channels, scale):
    """Keep every scale-th channel (indices 0, scale, 2*scale, ...)."""
    if n_channels % scale != 0:
        raise DataError(f"{n_channels} channels do not divide evenly by scale {scale}")
    lr = tuple(range(0, n_channels, scale))
    hr = tuple(i for i in range(n_channels) if i % scale != 0)
    return MontageSplit(n_channels=n_channels, scale=scale, lr_indices=lr, hr_indices=hr)


def pick_channels(epoch_set, rows):
    """The set's channels at `rows`, with their labels; a view of the set
    when the rows are evenly spaced and the set is read-only."""
    names, index = epoch_set.channel_labels, _view_index(rows)
    # `take` copies into C order, where a list index gives a strided copy
    # that the set would copy again.
    values = (epoch_set.values[:, index] if isinstance(index, slice)
              else epoch_set.values.take(index, axis=1))
    return replace(epoch_set, values=values,
                   channel_labels=tuple(names[i] for i in rows) if names else None)


def downsample_set(epoch_set, montage):
    """Split a full-layout set into kept-channel and missing-channel sets;
    returns (lr_set, hr_set)."""
    return pick_channels(epoch_set, montage.lr_indices), pick_channels(epoch_set,
                                                                       montage.hr_indices)


def assemble_channels(lr_set, hr_set, montage, channels=None):
    """Scatter kept and reconstructed channels back to the full layout, or,
    given `channels` (full-layout indices), to those channels alone in that
    order: then each set holds only its channels among them, in that order.

    The rows of the two sets must align; the result has the metadata of
    `lr_set`, and channel labels when both sets carry them.
    """
    channels = range(montage.n_channels) if channels is None else channels
    lr_at = [k for k, i in enumerate(channels) if i in montage.lr_indices]
    hr_at = [k for k, i in enumerate(channels) if i in montage.hr_indices]
    (n, c_lr, t), (n_hr, c_hr, t_hr) = lr_set.values.shape, hr_set.values.shape
    if c_lr != len(lr_at):
        raise DataError(f"lr set has {c_lr} channels, expected {len(lr_at)}")
    if c_hr != len(hr_at):
        raise DataError(f"hr set has {c_hr} channels, expected {len(hr_at)}")
    if (n, t) != (n_hr, t_hr):
        raise DataError(f"lr and hr sets differ in epochs or samples: {(n, t)} vs {(n_hr, t_hr)}")
    check_aligned(lr_set, hr_set)
    full = np.empty((n, len(channels), t), dtype=np.float64)
    full[:, lr_at] = lr_set.values
    full[:, hr_at] = hr_set.values
    names = None
    if lr_set.channel_labels is not None and hr_set.channel_labels is not None:
        names = [""] * len(channels)
        for at, part in ((lr_at, lr_set), (hr_at, hr_set)):
            for k, name in zip(at, part.channel_labels):
                names[k] = name
    return replace(lr_set, values=full, channel_labels=names)


def compute_norm_stats(epoch_set):
    """Global mean and population standard deviation over every value."""
    vals = epoch_set.values
    return NormStats(mu=float(vals.mean()), sigma=max(float(vals.std()), SIGMA_FLOOR))


def normalize_set(epoch_set, stats):
    return replace(epoch_set, values=(epoch_set.values - stats.mu) / stats.sigma)


def denormalize_set(epoch_set, stats):
    return replace(epoch_set, values=epoch_set.values * stats.sigma + stats.mu)
