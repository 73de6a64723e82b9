"""Keys cubic interpolation along the channel axis, against a naive oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegsr.bicubic import (
    bicubic_predict_set,
    cubic_kernel,
    interpolation_weights,
)
from eegsr.data import assemble_channels, make_montage
from eegsr.errors import DataError

from helpers import epoch_set

RNG = np.random.default_rng(20260806)


def oracle_missing(lr_values, montage):
    """Per-sample, per-channel scalar loop; no vectorization shortcuts."""
    n_lr, t = lr_values.shape
    out = np.zeros((montage.n_hr, t))
    for row, m in enumerate(montage.hr_indices):
        u = m / montage.scale
        j0 = int(np.floor(u))
        for col in range(t):
            acc = 0.0
            for j in range(j0 - 1, j0 + 3):
                acc += cubic_kernel(u - j) * lr_values[min(max(j, 0), n_lr - 1), col]
            out[row, col] = acc
    return out


def test_kernel_constants():
    assert abs(cubic_kernel(0.0) - 1.0) < 1e-15
    assert abs(cubic_kernel(1.0)) < 1e-15
    assert abs(cubic_kernel(2.0)) < 1e-15
    assert cubic_kernel(2.5) == 0.0
    # Half-offset taps of the a = -0.5 kernel.
    assert abs(cubic_kernel(0.5) - 0.5625) < 1e-15
    assert abs(cubic_kernel(1.5) - (-0.0625)) < 1e-15
    assert cubic_kernel(-0.5) == cubic_kernel(0.5)


def test_kernel_partition_of_unity():
    # For any offset u the four surrounding integer taps sum to 1.
    for u in np.linspace(0.0, 1.0, 23):
        total = sum(cubic_kernel(u - j) for j in (-1, 0, 1, 2))
        assert abs(total - 1.0) < 1e-12


def test_scale2_interior_weights_are_half_offset_taps():
    m = make_montage(32, 2)
    w = interpolation_weights(m)
    assert w.shape == (16, 16)
    # Missing channel 15 sits at u = 7.5: interior stencil, canonical weights.
    row = w[7]
    assert m.hr_indices[7] == 15
    np.testing.assert_allclose(
        row[6:10], [-0.0625, 0.5625, 0.5625, -0.0625], atol=1e-15
    )
    assert np.all(row[:6] == 0.0) and np.all(row[10:] == 0.0)


def test_weight_rows_sum_to_one():
    for scale in (2, 4):
        m = make_montage(32, scale)
        w = interpolation_weights(m)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_edge_rows_clamp_to_boundary_channels():
    m = make_montage(32, 2)
    w = interpolation_weights(m)
    # Last missing channel (index 31, u = 15.5) needs taps at kept positions
    # 16 and 17; clamping folds both onto the final kept channel.
    row = w[-1]
    np.testing.assert_allclose(row[14], -0.0625, atol=1e-15)
    np.testing.assert_allclose(row[15], 0.5625 + 0.5625 - 0.0625, atol=1e-15)
    assert np.all(row[:14] == 0.0)
    np.testing.assert_allclose(row.sum(), 1.0, atol=1e-15)


def missing(lr_values, m):
    """Missing rows reconstructed from (n, n_lr, t) kept-channel values."""
    return bicubic_predict_set(epoch_set(lr_values), m).values


def upsample(lr_values, m):
    """Full (n, n_channels, t) layout: kept rows plus reconstructed ones."""
    lr_set = epoch_set(lr_values)
    return assemble_channels(lr_set, bicubic_predict_set(lr_set, m), m).values


def test_matches_brute_force_oracle():
    for scale in (2, 4):
        m = make_montage(32, scale)
        lr = RNG.normal(size=(25, m.n_lr, 16)) * 40.0
        fast = missing(lr, m)
        for i in range(25):
            assert np.max(np.abs(fast[i] - oracle_missing(lr[i], m))) < 1e-9


def test_kept_channels_pass_through_bit_exact():
    m = make_montage(32, 2)
    lr = RNG.normal(size=(3, 16, 32))
    full = upsample(lr, m)
    assert full.shape == (3, 32, 32)
    assert np.array_equal(full[:, list(m.lr_indices)], lr)


def test_constant_signal_reproduced_exactly():
    m = make_montage(32, 4)
    lr = np.full((2, 8, 10), 3.25)
    full = upsample(lr, m)
    np.testing.assert_allclose(full, 3.25, atol=1e-12)


def test_linear_ramp_reproduced_on_interior():
    # Keys a=-0.5 reproduces degree-1 polynomials away from the clamped edge.
    m = make_montage(32, 2)
    ramp = np.arange(0, 32, 2, dtype=np.float64)[None, :, None] * np.ones((1, 1, 4))
    full = upsample(ramp, m)[0]
    interior = [i for i in m.hr_indices if 2 <= i <= 28]
    for i in interior:
        np.testing.assert_allclose(full[i], float(i), atol=1e-12)


def test_linearity_of_operator():
    m = make_montage(32, 2)
    a = RNG.normal(size=(2, 16, 8))
    b = RNG.normal(size=(2, 16, 8))
    lhs = missing(2.0 * a + 3.0 * b, m)
    rhs = 2.0 * missing(a, m) + 3.0 * missing(b, m)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_predict_set_matches_per_epoch():
    m = make_montage(32, 2)
    lr_set = epoch_set(RNG.normal(size=(3, 16, 12)), label=7, subject="s02",
                       origins=[96, 0, 12], fs=512.0,
                       channel_labels=[f"c{i}" for i in range(16)])
    pred = bicubic_predict_set(lr_set, m)
    assert pred.values.shape == (3, 16, 12)
    for got, src in zip(pred.values, lr_set.values):
        np.testing.assert_allclose(got, interpolation_weights(m) @ src, atol=1e-12)
    assert pred.labels.tolist() == [7, 7, 7]
    assert pred.subject_ids.tolist() == ["s02"] * 3
    assert pred.origins.tolist() == [96, 0, 12]
    assert pred.channel_labels is None


@settings(max_examples=60, deadline=None)
@given(scale=st.sampled_from([2, 4]), n=st.integers(2, 9), t=st.integers(1, 70),
       seed=st.integers(0, 2**32 - 1))
def test_a_row_does_not_depend_on_the_other_rows(scale, n, t, seed):
    # Bit for bit, so that the repeated rows of an archive predict to
    # repeated rows, and a row's result is the same at any place in a set.
    m = make_montage(32, scale)
    lr_set = epoch_set(np.random.default_rng(seed).normal(size=(n, m.n_lr, t)))
    whole = bicubic_predict_set(lr_set, m).values
    singles = [bicubic_predict_set(epoch_set(lr_set.values[i : i + 1]), m).values
               for i in range(n)]
    assert whole.tobytes() == np.concatenate(singles).tobytes()
    backwards = bicubic_predict_set(epoch_set(lr_set.values[::-1]), m).values
    assert backwards.tobytes() == whole[::-1].tobytes()


def test_bicubic_epoch_keeps_metadata():
    m = make_montage(32, 2)
    lr_set = epoch_set(RNG.normal(size=(1, 16, 6)), label=3, subject="s02", origins=[96])
    full = assemble_channels(lr_set, bicubic_predict_set(lr_set, m), m)
    assert full.values.shape == (1, 32, 6)
    assert (full.labels.tolist(), full.subject_ids.tolist(), full.origins.tolist()) == (
        [3], ["s02"], [96])


def test_shape_validation():
    m = make_montage(32, 2)
    with pytest.raises(DataError):
        missing(RNG.normal(size=(2, 15, 6)), m)
    lr_set = epoch_set(RNG.normal(size=(2, 16, 6)))
    with pytest.raises(DataError):
        assemble_channels(lr_set, epoch_set(RNG.normal(size=(2, 15, 6))), m)
    with pytest.raises(DataError):
        assemble_channels(lr_set, epoch_set(RNG.normal(size=(2, 16, 5))), m)
    with pytest.raises(DataError, match="misaligned"):
        assemble_channels(lr_set, epoch_set(RNG.normal(size=(2, 16, 6)), origins=[0, 7]), m)
