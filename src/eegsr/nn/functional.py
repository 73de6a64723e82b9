"""Network-level operations composed from autodiff primitives.

The layer operations check nothing: `layers.Model` checks a stack once, when
it is built, and checks each batch's shape where its forward pass starts.
"""
from __future__ import annotations

import numpy as np

from .tensor import (
    as_tensor,
    conv2d,
    exp_t,
    log_t,
    matmul,
    mean_t,
    mul,
    mul_const,
    reshape,
    sum_t,
    transpose,
)

LOG_EPS = 1e-12


def relu(x):
    x = as_tensor(x)
    return mul_const(x, (x.data > 0).astype(x.dtype))


def softmax(x):
    """Softmax over the last axis, shift-stabilised."""
    x = as_tensor(x)
    shift = np.max(x.data, axis=-1, keepdims=True)
    e = exp_t(x - shift)
    return e / sum_t(e, axis=-1, keepdims=True)


def dropout(x, rate, training, rng):
    """Inverted dropout: identity at inference, mask/(1-rate) scaling in training."""
    if not training:
        return x
    mask = (rng.random(x.shape) >= rate).astype(x.dtype)
    mask /= 1.0 - rate
    return mul_const(x, mask)


def conv_layer(x, w, b, stride=(1, 1)):
    """Convolution plus per-map bias."""
    y = conv2d(x, w, stride)
    return y + reshape(b, (1, b.size, 1, 1))


def dense_layer(x, w, b):
    """Affine map x W^T + b over a (batch, features) input."""
    return matmul(x, transpose(w)) + reshape(b, (1, b.size))


def flatten(x):
    x = as_tensor(x)
    n = x.shape[0]
    return reshape(x, (n, x.size // n))


def _check_same_shape(pred, target):
    if pred.shape != target.shape:
        raise ValueError(f"loss shape mismatch: prediction {pred.shape} vs target {target.shape}")


def mse(pred, target):
    pred, target = as_tensor(pred), as_tensor(target)
    _check_same_shape(pred, target)
    d = pred - target
    return mean_t(mul(d, d))


def cross_entropy(pred, target):
    """-sum(target * log(pred + eps)) of each (n, k) row, averaged over rows."""
    pred, target = as_tensor(pred), as_tensor(target)
    _check_same_shape(pred, target)
    ll = mul(as_tensor(target, dtype=pred.dtype), log_t(pred + LOG_EPS))
    return mul_const(-sum_t(ll), 1.0 / pred.shape[0])
