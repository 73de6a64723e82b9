"""Network-level operations composed from autodiff primitives."""
from __future__ import annotations

import numpy as np

from .tensor import (
    as_tensor,
    concat_t,
    conv2d,
    elu_t,
    exp_t,
    log_t,
    matmul,
    mean_t,
    mul,
    mul_const,
    repeat_rows,
    reshape,
    sum_t,
    transpose,
)

LOG_EPS = 1e-12


def elu(x, alpha=1.0):
    """Exponential linear unit, one graph node (`elu_t`); the derivative at
    0 is exactly 1.

    Branch-free: max(x, 0) + alpha * (exp(min(x, 0)) - 1), so large positive
    inputs cannot overflow the exponential and no data-dependent select runs.
    """
    return elu_t(x, alpha)


def relu(x):
    x = as_tensor(x)
    return mul_const(x, (x.data > 0).astype(x.dtype))


def softmax(x):
    """Softmax over the last axis, shift-stabilised."""
    x = as_tensor(x)
    shift = np.max(x.data, axis=-1, keepdims=True)
    e = exp_t(x - shift)
    return e / sum_t(e, axis=-1, keepdims=True)


def dropout(x, rate, training, rng=None):
    """Inverted dropout: identity at inference, mask/(1-rate) scaling in training."""
    x = as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    mask = (rng.random(x.shape) >= rate).astype(x.dtype)
    mask /= 1.0 - rate
    return mul_const(x, mask)


def upsample_nn(x, factor):
    """Nearest-neighbour upsampling along the height axis of NCHW input."""
    return repeat_rows(as_tensor(x), factor, axis=2)


def concat_maps(parts):
    """Concatenate NCHW tensors along the map axis; spatial dims must agree."""
    parts = [as_tensor(p) for p in parts]
    base = parts[0]
    for p in parts[1:]:
        if p.shape[0] != base.shape[0] or p.shape[2:] != base.shape[2:]:
            raise ValueError(
                f"concat shape mismatch: {p.shape} vs {base.shape} (maps axis excepted)"
            )
    return concat_t(parts, axis=1)


def conv_layer(x, w, b, stride=(1, 1)):
    """Convolution plus per-map bias."""
    y = conv2d(x, w, stride)
    return y + reshape(b, (1, b.size, 1, 1))


def dense_layer(x, w, b):
    """Affine map x W^T + b over a (batch, features) input."""
    x = as_tensor(x)
    if x.ndim != 2:
        raise ValueError(f"dense input must be 2-D (batch, features), got {x.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"dense expects {w.shape[1]} features, got {x.shape[1]}")
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
