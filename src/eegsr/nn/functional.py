"""Network-level operations composed from autodiff primitives.

Nothing here checks its input: `layers.Model` checks a stack when it is
built and each batch where its forward pass starts, and `gan.check_pair`
checks training targets against the generator's output shape.
"""
from __future__ import annotations

import numpy as np

from .tensor import (
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
    return mul_const(x, (x.data > 0).astype(x.dtype))


def softmax(x):
    """Softmax over the last axis, shift-stabilised."""
    shift = np.max(x.data, axis=-1, keepdims=True)
    e = exp_t(x - shift)
    return e / sum_t(e, axis=-1, keepdims=True)


def dense_layer(x, w, b):
    """Affine map x W^T + b over a (batch, features) input."""
    return matmul(x, transpose(w)) + reshape(b, (1, b.size))


def flatten(x):
    n = x.shape[0]
    return reshape(x, (n, x.size // n))


def mse(pred, target):
    d = pred - target
    return mean_t(mul(d, d))


def cross_entropy(pred, target):
    """-sum(target * log(pred + eps)) of each (n, k) row, averaged over rows."""
    ll = mul(target, log_t(pred + LOG_EPS))
    return mul_const(-sum_t(ll), 1.0 / pred.shape[0])
