"""Band-power features over sensorimotor channels, and the dense classifier
that consumes them.

Power spectra come from Welch's method: 256-sample periodic Hann windows at
50% overlap, no detrending, scaled by 1 / (fs * sum(w^2)) with one-sided
doubling. At 512 Hz that grid has 2 Hz resolution, and the feature vector
concatenates the 12 bins from 8 to 30 Hz for each of 8 channels over the
motor strip, channel-major: 96 values per epoch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_finite, metadata_columns
from .errors import DataError
from .nn import functional as F
from .nn.optim import AdamState, adam_step, check_hyperparameters
from .nn.tensor import Tensor, grad, no_grad

FEATURE_CHANNELS = ("C3", "Cz", "C4", "CP1", "CP2", "P3", "Pz", "P4")
BAND_FREQS = tuple(float(f) for f in range(8, 31, 2))
N_FEATURES = len(FEATURE_CHANNELS) * len(BAND_FREQS)

WELCH_NPERSEG = 256
WELCH_STEP = WELCH_NPERSEG // 2  # 50% overlap


def hann_periodic(n):
    """Periodic Hann window of length n."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def welch_psd(x, fs):
    """One-sided Welch power spectral density along the last axis of x.

    Segments of WELCH_NPERSEG samples start every WELCH_STEP samples; each is
    Hann-windowed (periodic) and not detrended; per-segment periodograms
    |rfft(w*x)|^2 / (fs * sum(w^2)) are doubled at non-DC, non-Nyquist bins
    and averaged. Returns (freqs, psd), psd of shape
    x.shape[:-1] + (WELCH_NPERSEG // 2 + 1,).
    """
    x = np.asarray(x, dtype=np.float64)
    n = WELCH_NPERSEG
    if x.ndim < 1 or x.shape[-1] < n:
        raise DataError(f"signal of shape {x.shape} is shorter than one {n}-sample segment")
    window = hann_periodic(n)
    scale = 1.0 / (fs * float(window @ window))
    starts = range(0, x.shape[-1] - n + 1, WELCH_STEP)
    # One segment of every signal at a time, added to a running total: only
    # one segment's transform is held, and the batched result matches a
    # per-signal loop bit for bit.
    total = _periodogram(x[..., :n], window, scale)
    for start in starts[1:]:
        total += _periodogram(x[..., start : start + n], window, scale)
    return np.fft.rfftfreq(n, d=1.0 / fs), total / len(starts)


def _periodogram(segments, window, scale):
    """|rfft(window * segment)|^2 * scale along the last axis, doubled at
    non-DC, non-Nyquist bins: one Welch segment of each signal."""
    spec = np.fft.rfft(window * segments, axis=-1)
    p = spec.real**2
    p += spec.imag**2
    p *= scale
    p[..., 1:-1] *= 2.0
    return p


@dataclass
class FeatureTable:
    """Band powers of n epochs, (n, 96), with the label, subject and origin
    columns of the epochs they came from."""

    values: np.ndarray
    labels: np.ndarray | None
    subject_ids: np.ndarray
    origins: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != N_FEATURES:
            raise DataError(f"feature rows must have shape (n, {N_FEATURES}), "
                            f"got {self.values.shape}")
        bad = np.argwhere(~np.isfinite(self.values) | (self.values < 0))
        if bad.size:
            row, col = bad[0]
            raise DataError(f"band powers must be finite and not negative; epoch {row} has "
                            f"{float(self.values[row, col])!r} at feature {col}")
        self.labels, self.subject_ids, self.origins = metadata_columns(
            len(self), self.labels, self.subject_ids, self.origins)

    def __len__(self):
        return self.values.shape[0]

    def labelled(self):
        """(values, labels) for training or scoring; every row needs a label."""
        if not len(self):
            raise DataError("feature table has no rows")
        if self.labels is None:
            raise DataError("features are missing class labels")
        return self.values, self.labels


def epoch_features(epoch_set):
    """Band-power table of a set that holds every feature channel: a
    full-layout set, or the feature channels alone.

    Row i holds epoch i's 96 powers: channels in FEATURE_CHANNELS order,
    within each channel the 8-30 Hz bins in ascending frequency. Requires a
    Welch bin at each of those frequencies, as fs = 512 gives (a 2 Hz grid).
    """
    names = epoch_set.channel_labels
    if names is None:
        raise DataError("feature extraction needs channel labels")
    missing = [c for c in FEATURE_CHANNELS if c not in names]
    if missing:
        raise DataError(f"epoch set lacks required channels: {missing}")
    rows = [names.index(c) for c in FEATURE_CHANNELS]
    # A set of the feature channels alone, in their order, is read in place.
    values = epoch_set.values if rows == list(range(len(names))) else epoch_set.values[:, rows]
    freqs, power = welch_psd(values, epoch_set.fs)
    hits = [np.flatnonzero(np.isclose(freqs, f)) for f in BAND_FREQS]
    absent = [f for f, h in zip(BAND_FREQS, hits) if not h.size]
    if absent:
        raise DataError(f"fs={epoch_set.fs:g} Hz gives no Welch bin at {absent[0]:g} Hz; the "
                        "band features need one every 2 Hz from 8 to 30 Hz (fs=512 does)")
    bins = [int(h[0]) for h in hits]
    return FeatureTable(power[:, :, bins].reshape(len(epoch_set), N_FEATURES),
                        epoch_set.labels, epoch_set.subject_ids, epoch_set.origins)


@dataclass(frozen=True)
class FeatureScaler:
    """Per-dimension standardisation fitted on training features."""

    mu: np.ndarray
    sigma: np.ndarray

    @classmethod
    def fit(cls, matrix):
        matrix = np.asarray(matrix, dtype=np.float64)
        return cls(mu=matrix.mean(axis=0), sigma=np.maximum(matrix.std(axis=0), 1e-12))

    def apply(self, matrix):
        return (np.asarray(matrix, dtype=np.float64) - self.mu) / self.sigma


@dataclass(frozen=True)
class ClassifierTrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.99
    seed: int = 0

    def __post_init__(self):
        check_finite(self)
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        check_hyperparameters(self.lr, self.beta1, self.beta2)


def _one_hot(labels, class_ids):
    class_ids = list(class_ids)
    idx = np.empty(labels.shape, dtype=np.int64)
    for i, lab in enumerate(labels):
        if lab not in class_ids:
            raise DataError(f"label {lab} not in class set {class_ids}")
        idx[i] = class_ids.index(lab)
    return np.eye(len(class_ids))[idx]


def train_classifier(model, x, labels, cfg, class_ids=(2, 3, 7)):
    """Minimise cross-entropy over standardised feature rows.

    `x` is (n, features) already scaled, `labels` hold raw ids from
    `class_ids` (whose order fixes the output layout). Returns the per-epoch
    mean loss trace.
    """
    targets = _one_hot(np.asarray(labels), class_ids)
    x = np.asarray(x, dtype=np.float64)
    params = model.parameters()
    state = AdamState.for_params(params)
    rng = np.random.default_rng(cfg.seed)
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(x.shape[0])
        losses = []
        for i in range(0, len(order), cfg.batch_size):
            sel = order[i : i + cfg.batch_size]
            xb = Tensor(x[sel].astype(model.dtype))
            probs = model.forward(xb, rng=rng)
            loss = F.cross_entropy(probs, Tensor(targets[sel].astype(model.dtype)))
            losses.append(loss.item())
            adam_step(params, grad(loss, params), state, cfg)
        trace.append(float(np.mean(losses)))
    return trace


def predict(model, x, class_ids):
    """Class ids and probabilities for an (n, features) array of rows; argmax
    ties take the earliest class in `class_ids`."""
    x = np.asarray(x, dtype=np.float64)
    with no_grad():
        probs = model.forward(Tensor(x.astype(model.dtype))).data.astype(np.float64)
    ids = np.asarray(list(class_ids), dtype=np.int64)[np.argmax(probs, axis=1)]
    return ids, probs
