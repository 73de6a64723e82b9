"""Cubic-convolution interpolation across the channel axis.

The baseline treats the kept channels as samples of a smooth spatial signal
and fills each missing channel by Keys cubic convolution (a = -0.5) along
the channel index, per time sample. Kept channels pass through bit-exact;
each missing channel is a fixed 4-tap weighted sum of its nearest kept
neighbours, with the stencil clamped at the ends of the channel range.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import DataError

KEYS_A = -0.5


def cubic_kernel(t):
    """Keys cubic convolution kernel (a = KEYS_A) evaluated at |t|."""
    a = KEYS_A
    t = np.abs(np.asarray(t, dtype=np.float64))
    out = np.zeros_like(t)
    near = t <= 1.0
    far = (t > 1.0) & (t < 2.0)
    tn = t[near]
    out[near] = (a + 2.0) * tn**3 - (a + 3.0) * tn**2 + 1.0
    tf = t[far]
    out[far] = a * tf**3 - 5.0 * a * tf**2 + 8.0 * a * tf - 4.0 * a
    return out if out.ndim else float(out)


def interpolation_weights(montage):
    """(n_hr, n_lr) weight matrix mapping kept channels to missing ones.

    Missing channel m sits at position m / scale in kept-channel
    coordinates; its value is the kernel-weighted sum over the four kept
    neighbours floor(u)-1 .. floor(u)+2, with out-of-range taps clamped to
    the edge channel.
    """
    n_lr = montage.n_lr
    weights = np.zeros((montage.n_hr, n_lr))
    for row, m in enumerate(montage.hr_indices):
        u = m / montage.scale
        j0 = int(np.floor(u))
        for j in range(j0 - 1, j0 + 3):
            w = cubic_kernel(u - j)
            weights[row, min(max(j, 0), n_lr - 1)] += w
    return weights


def bicubic_predict_set(lr_set, montage):
    """Reconstruct the missing-channel block for every epoch in a set.

    Returns a set of (n_hr, samples) epochs with the metadata of `lr_set`
    and no channel labels; assemble_channels puts them back in place.
    """
    if lr_set.values.shape[1] != montage.n_lr:
        raise DataError(
            f"expected {montage.n_lr} kept channels, got {lr_set.values.shape[1]}"
        )
    pred = np.einsum("hc,nct->nht", interpolation_weights(montage), lr_set.values)
    return replace(lr_set, values=pred, channel_labels=None)
