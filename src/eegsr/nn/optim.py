"""Adam with bias correction.

A step reads lr and the betas from the training config that checked them
(`TrainConfig`, `ClassifierTrainConfig`); `AdamState` holds what it changes.
It takes the gradients `grad` returns as they are, and refuses only a
parameter it cannot update in place. Moments lie in memory as their
parameter does, so a kernel-row-ordered conv weight (see `layers.Model`),
its moments and its gradient are updated block by block as one flat run.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Added to the root of the second moment before dividing by it.
EPS = 1e-8

BLOCK = 1 << 16  # elements updated at a time: a step's temporaries are two blocks


def check_hyperparameters(lr, beta1, beta2):
    """Raise ValueError unless lr > 0 and both betas lie in [0, 1); NaN fails."""
    if not lr > 0:
        raise ValueError(f"lr must be positive, got {lr}")
    for name, b in (("beta1", beta1), ("beta2", beta2)):
        if not 0.0 <= b < 1.0:
            raise ValueError(f"{name} must be in [0, 1), got {b}")


@dataclass
class AdamState:
    """Optimizer moments and step counter for one parameter list."""

    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params):
        """Zero moments, each in its parameter's memory order."""
        return cls(m=[np.zeros_like(p.data) for p in params],
                   v=[np.zeros_like(p.data) for p in params])


def adam_step(params, grads, state, cfg):
    """One Adam update at `cfg`'s lr and betas, in place on arrays contiguous in
    the parameter's memory order; gradients may be Tensors or arrays."""
    state.t += 1
    bc1 = 1.0 - cfg.beta1**state.t
    bc2 = 1.0 - cfg.beta2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = np.asarray(getattr(g, "data", g), dtype=p.dtype)
        # Axes from the largest stride to the smallest: the parameter's memory order.
        axes = np.argsort(p.data.strides)[::-1]
        p_, g_, m_, v_ = (a.transpose(axes) for a in (p.data, g, m, v))
        if not all(a.flags.c_contiguous for a in (p_, m_, v_)):
            raise ValueError(f"cannot update a non-contiguous {p.shape} parameter in place")
        flat = [a.reshape(-1) for a in (p_, g_, m_, v_)]
        for lo in range(0, p.size, BLOCK):
            pb, gb, mb, vb = (a[lo : lo + BLOCK] for a in flat)
            # p - lr * (m / bc1) / (sqrt(v / bc2) + eps), operation for operation.
            a = np.multiply(gb, 1.0 - cfg.beta1)
            mb *= cfg.beta1
            mb += a
            np.multiply(gb, gb, out=a)
            a *= 1.0 - cfg.beta2
            vb *= cfg.beta2
            vb += a
            np.divide(vb, bc2, out=a)
            np.sqrt(a, out=a)
            a += EPS
            b = np.divide(mb, bc1)
            b *= cfg.lr
            b /= a
            pb -= b
    return state
