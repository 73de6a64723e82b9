"""Welch spectra, band-power features and the validation classifier."""
import weakref

import numpy as np
import pytest

from eegsr import psd
from eegsr.data import CHANNEL_LABELS_32
from eegsr.errors import DataError
from eegsr.models import ClassifierConfig, build_classifier
from eegsr.nn import functional as F
from eegsr.psd import (
    BAND_FREQS,
    FEATURE_CHANNELS,
    N_FEATURES,
    ClassifierTrainConfig,
    WELCH_NPERSEG,
    FeatureScaler,
    FeatureTable,
    epoch_features,
    hann_periodic,
    predict,
    train_classifier,
    welch_psd,
)

from helpers import epoch_set

RNG = np.random.default_rng(20260807)
FS = 512.0


def test_feature_contract_constants():
    assert FEATURE_CHANNELS == ("C3", "Cz", "C4", "CP1", "CP2", "P3", "Pz", "P4")
    assert BAND_FREQS == tuple(range(8, 31, 2))
    assert len(BAND_FREQS) == 12
    assert N_FEATURES == 96


def test_hann_periodic_definition():
    w = hann_periodic(8)
    expected = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(8) / 8)
    np.testing.assert_allclose(w, expected, atol=1e-15)
    # Periodic window: first sample 0, and n/2 hits exactly 1.
    assert w[0] == 0.0 and w[4] == 1.0


def test_welch_bin_spacing():
    x = RNG.normal(size=512)
    freqs, psd = welch_psd(x, FS)
    assert freqs.shape == psd.shape == (129,)
    assert freqs[0] == 0.0 and freqs[-1] == FS / 2
    np.testing.assert_allclose(np.diff(freqs), FS / 256, atol=1e-12)


def test_welch_parseval_on_white_noise():
    # One-sided PSD must integrate to the signal power within 1%.
    x = RNG.normal(size=1 << 15)
    freqs, psd = welch_psd(x, FS)
    df = freqs[1] - freqs[0]
    power = psd.sum() * df
    assert abs(power - x.var()) / x.var() < 0.01


def test_welch_localizes_pure_tone():
    t = np.arange(512) / FS
    x = np.sin(2 * np.pi * 10.0 * t)
    freqs, psd = welch_psd(x, FS)
    assert freqs[np.argmax(psd)] == 10.0
    # A 10 Hz tone of amplitude 1 carries power 1/2; the peak neighbourhood
    # holds nearly all of it.
    df = freqs[1] - freqs[0]
    k = np.argmax(psd)
    assert abs(psd[k - 2 : k + 3].sum() * df - 0.5) < 0.01


def test_welch_rejects_short_signal():
    with pytest.raises(DataError):
        welch_psd(np.zeros(100), FS)
    with pytest.raises(DataError):
        welch_psd(np.zeros((3, 100)), FS)


def welch_reference(x, fs, nperseg=WELCH_NPERSEG):
    """One 1-D signal at a time, segment by segment, as a running sum."""
    step = nperseg // 2
    window = hann_periodic(nperseg)
    scale = 1.0 / (fs * float(window @ window))
    n_segments = (x.size - nperseg) // step + 1
    acc = None
    for s in range(n_segments):
        spec = np.fft.rfft(window * x[s * step : s * step + nperseg])
        p = (spec.real**2 + spec.imag**2) * scale
        p[1:-1] *= 2.0
        acc = p if acc is None else acc + p
    return acc / n_segments


def test_welch_batched_is_bit_identical_to_per_signal_loop():
    # Feature rows are archived as artifacts, so the batched transform must
    # not move a bit: same windowing, same transform, same summation order.
    for shape in ((6, 8, 512), (5, 3, 256), (2, 1000), (777,)):
        x = RNG.normal(size=shape) * 20.0
        _, batched = welch_psd(x, FS)
        assert batched.shape == shape[:-1] + (129,)
        rows = x.reshape(-1, shape[-1])
        loop = np.stack([welch_reference(r, FS) for r in rows]).reshape(batched.shape)
        assert np.array_equal(batched, loop)


def full_epoch_set(values, label=2):
    return epoch_set(values, label=label, fs=FS, channel_labels=CHANNEL_LABELS_32)


def test_band_feature_vector_layout_channel_major():
    # Put a 10 Hz tone only on C3; its 12-bin block must hold the peak and
    # the Cz block must stay near zero.
    t = np.arange(512) / FS
    values = np.zeros((1, 32, 512))
    c3 = CHANNEL_LABELS_32.index("C3")
    values[0, c3] = np.sin(2 * np.pi * 10.0 * t) * 30.0
    vec = epoch_features(full_epoch_set(values)).values[0]
    assert vec.shape == (96,)
    c3_block = vec[:12]
    cz_block = vec[12:24]
    assert np.argmax(c3_block) == BAND_FREQS.index(10)
    assert c3_block.max() > 100 * max(cz_block.max(), 1e-30)


def test_band_feature_vector_needs_all_sites():
    values = np.zeros((2, 4, 512))
    with pytest.raises(DataError, match="lacks required channels"):
        epoch_features(epoch_set(values, fs=FS, channel_labels=("C3", "Cz", "C4", "CP1")))
    with pytest.raises(DataError, match="needs channel labels"):
        epoch_features(epoch_set(values, fs=FS))


def test_epoch_features_carry_metadata():
    values = RNG.normal(size=(3, 32, 512))
    eset = full_epoch_set(values, label=7)
    feats = epoch_features(eset)
    assert len(feats) == 3
    assert feats.values.shape == (3, 96)
    assert feats.labels.tolist() == [7, 7, 7]
    assert feats.subject_ids.tolist() == ["s01"] * 3
    assert feats.origins.tolist() == [0, 512, 1024]
    assert np.all(feats.values >= 0.0)
    # Row i is epoch i's features alone.
    one = epoch_features(full_epoch_set(values[1:2], label=7))
    assert np.array_equal(one.values[0], feats.values[1])


def test_feature_scaler_standardizes():
    x = RNG.normal(size=(50, 96)) * 7.0 + 3.0
    scaler = FeatureScaler.fit(x)
    z = scaler.apply(x)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-10)


def test_feature_scaler_keeps_a_constant_feature_finite():
    # A feature with one value in every row has no spread: its floored sigma
    # scales it to 0, where 0 / 0 would make it NaN.
    x = RNG.normal(size=(50, 96))
    x[:, 5] = 3.0
    z = FeatureScaler.fit(x).apply(x)
    assert np.isfinite(z).all() and not z[:, 5].any()


def test_feature_matrix_stacks_and_validates():
    values = RNG.normal(size=(2, 32, 512))
    feats = epoch_features(full_epoch_set(values, label=3))
    x, labels = feats.labelled()
    assert x.shape == (2, 96)
    assert np.array_equal(labels, [3, 3])
    with pytest.raises(DataError, match="missing class labels"):
        epoch_features(full_epoch_set(values, label=None)).labelled()
    with pytest.raises(DataError, match="no rows"):
        FeatureTable(np.zeros((0, 96)), [], [], []).labelled()
    with pytest.raises(DataError, match="negative"):
        FeatureTable(-x, labels, ["s01", "s01"], [0, 1])
    with pytest.raises(DataError, match="shape"):
        FeatureTable(x[:, :95], labels, ["s01", "s01"], [0, 1])


@pytest.mark.parametrize("power", [np.nan, np.inf, -np.inf, -1.0])
def test_feature_table_refuses_a_power_that_is_not_finite_or_is_negative(power):
    x = RNG.exponential(size=(3, 96))
    x[1, 17] = power
    with pytest.raises(DataError, match=f"epoch 1 has {power!r} at feature 17"):
        FeatureTable(x, [2, 3, 7], ["s01"] * 3, [0, 1, 2])


def separable_features(n_per_class, seed=0):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for k, cid in enumerate((2, 3, 7)):
        centre = np.zeros(96)
        centre[k * 12 : (k + 1) * 12] = 4.0
        xs.append(rng.normal(size=(n_per_class, 96)) * 0.3 + centre)
        ys.extend([cid] * n_per_class)
    return np.concatenate(xs), np.asarray(ys)


def test_classifier_learns_separable_classes():
    x, labels = separable_features(30)
    scaler = FeatureScaler.fit(x)
    model = build_classifier(ClassifierConfig(), seed=0, dtype=np.float64)
    cfg = ClassifierTrainConfig(epochs=10, seed=0)
    trace = train_classifier(model, scaler.apply(x), labels, cfg)
    assert len(trace) == 10
    assert trace[-1] < trace[0]
    pred, probs = predict(model, scaler.apply(x), (2, 3, 7))
    assert (pred == labels).mean() > 0.95
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_classifier_determinism():
    x, labels = separable_features(10)
    outs = []
    for _ in range(2):
        model = build_classifier(ClassifierConfig(), seed=4, dtype=np.float64)
        train_classifier(model, x, labels, ClassifierTrainConfig(epochs=2, seed=4))
        outs.append(np.concatenate([p.data.ravel() for p in model.parameters()]))
    assert np.array_equal(outs[0], outs[1])


def test_classifier_training_drops_each_step_graph(monkeypatch):
    # A step's gradient arrays must be gone before the next loss is built, and
    # its loss output before the next gradient is taken. Tensor has __slots__,
    # so the weak references go to its arrays.
    real_grad, real_loss = psd.grad, F.cross_entropy
    outputs, grads, batches = [], [], []

    def alive(refs):
        return sum(ref() is not None for ref in refs)

    def recording_grad(output, wrt, create_graph=False):
        assert alive(outputs) == 0, f"{alive(outputs)} loss outputs of a used step alive"
        result = real_grad(output, wrt, create_graph=create_graph)
        outputs.append(weakref.ref(output.data))
        grads.extend(weakref.ref(g.data) for g in result)
        return result

    def checked_loss(pred, target):
        assert alive(grads) == 0, f"{alive(grads)} gradient arrays of a used step alive"
        batches.append(pred.shape[0])
        return real_loss(pred, target)

    monkeypatch.setattr(psd, "grad", recording_grad)
    monkeypatch.setattr(F, "cross_entropy", checked_loss)
    x, labels = separable_features(10)
    model = build_classifier(ClassifierConfig(), seed=0, dtype=np.float64)
    train_classifier(model, x, labels, ClassifierTrainConfig(epochs=2, batch_size=8, seed=0))
    # 30 rows in batches of 8, two epochs.
    assert batches == [8, 8, 8, 6] * 2
    assert len(outputs) == 8 and alive(outputs) + alive(grads) == 0


def test_train_classifier_rejects_unknown_label():
    x, labels = separable_features(5)
    labels = labels.copy()
    labels[0] = 99
    model = build_classifier(ClassifierConfig(), seed=0)
    with pytest.raises(DataError):
        train_classifier(model, x, labels, ClassifierTrainConfig(epochs=1))


def test_predict_single_row():
    model = build_classifier(ClassifierConfig(), seed=0)
    ids, probs = predict(model, np.zeros((1, 96)), (2, 3, 7))
    assert ids.shape == (1,) and ids[0] in (2, 3, 7)
    assert probs.shape == (1, 3)
