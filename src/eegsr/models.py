"""Network architectures for channel super-resolution.

A segment enters the networks as a one-map image: channels run down the
height axis, time runs along the width axis. The generator reads the kept
channels (c_lr high) and emits only the missing ones (c_lr * (scale - 1)
high); the critic scores full-height blocks of missing channels.

Both networks share one idiom: two stem convolutions whose kernels span the
full and half channel extent, then a densely connected block where each
stage sees the concatenation of all previous stage outputs, then a closing
projection. `width` scales every kernel count, so a structurally identical
narrow variant can train quickly while width 1.0 reproduces the full-size
layout exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .nn.layers import Model, concat, conv, dense, dropout, flatten, upsample
from .nn.tensor import Tensor, no_grad
from .psd import N_FEATURES

GEN_STAGE_KERNELS = (128, 128, 128, 128, 256, 512)
DISC_STAGE_KERNELS = (64, 64, 128, 256)
DISC_DENSE_UNITS = 128
# Stride of the critic's downsampling conv; the config fingerprint names it.
DISC_FINAL_STRIDE = (4, 4)
CLASSIFIER_HIDDEN = (512, 256, 128, 64)
# Segments per inference batch.
INFER_BATCH = 256


def _scaled(kernels, width):
    return max(1, round(kernels * width))


def _check_layers(cfg):
    """Range checks shared by the generator and critic configs."""
    if not 0.0 < cfg.width <= 1.0:
        raise ValueError(f"width must be in (0, 1], got {cfg.width}")
    if not 0.0 < cfg.dropout_rate < 1.0:
        raise ValueError(f"dropout_rate must be in (0, 1), got {cfg.dropout_rate}")
    if not math.isfinite(cfg.elu_alpha):
        raise ValueError(f"elu_alpha must be finite, got {cfg.elu_alpha}")


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape of the reconstruction network.

    c_lr is the kept-channel count, scale the montage reduction factor; the
    output covers the c_lr * (scale - 1) missing channels over seg_len
    samples.
    """

    c_lr: int
    scale: int
    seg_len: int = 64
    dropout_rate: float = 0.1
    elu_alpha: float = 1.0
    width: float = 1.0

    def __post_init__(self):
        if self.scale not in (2, 4):
            raise ValueError(f"scale must be 2 or 4, got {self.scale}")
        if self.c_lr < 4:
            raise ValueError(f"c_lr must be >= 4, got {self.c_lr}")
        if self.seg_len < 1:
            raise ValueError(f"seg_len must be positive, got {self.seg_len}")
        _check_layers(self)

    @property
    def c_hr(self):
        return self.c_lr * (self.scale - 1)

    @property
    def input_shape(self):
        return (1, self.c_lr, self.seg_len)

    @property
    def output_shape(self):
        return (1, self.c_hr, self.seg_len)


def generator_specs(cfg):
    """Layer list for the generator.

    Stem: full-extent conv (linear) then half-extent conv (elu). For
    scale 4 the stem is followed by a nearest-neighbour height upsample to
    the output extent plus one more full-extent conv. Then three dense-block
    stages (128/256/512 kernels at width 1) whose inputs concatenate every
    earlier stage output, and a single-map full-extent projection.
    """
    k = [_scaled(n, cfg.width) for n in GEN_STAGE_KERNELS]
    tall = (cfg.c_lr + 1, 1)
    short = (cfg.c_lr // 2 + 1, 1)
    wide = (cfg.c_lr // 2 + 1, 3)
    rate = cfg.dropout_rate
    a = cfg.elu_alpha

    specs = [
        conv(k[0], tall, "linear"),
        dropout(rate),
        conv(k[1], short, "elu", elu_alpha=a),
        dropout(rate),
    ]
    if cfg.scale == 4:
        specs += [
            upsample(cfg.scale - 1),
            conv(k[2], tall, "elu", elu_alpha=a),
            dropout(rate),
        ]
    b0 = len(specs) - 1
    specs += [conv(k[3], short, "elu", elu_alpha=a), dropout(rate)]
    s1 = len(specs) - 1
    specs += [concat(b0, s1), conv(k[4], short, "elu", elu_alpha=a), dropout(rate)]
    s2 = len(specs) - 1
    specs += [concat(b0, s1, s2), conv(k[5], wide, "elu", elu_alpha=a), dropout(rate)]
    s3 = len(specs) - 1
    specs += [concat(b0, s1, s2, s3), conv(1, tall, "linear")]
    return specs


def build_generator(cfg, seed=0, dtype=np.float32):
    model = Model(generator_specs(cfg), cfg.input_shape, seed=seed, dtype=dtype)
    assert model.shapes[-1] == cfg.output_shape
    return model


@dataclass(frozen=True)
class DiscriminatorConfig:
    """Shape of the critic scoring reconstructed channel blocks."""

    c_hr: int
    seg_len: int = 64
    dropout_rate: float = 0.25
    elu_alpha: float = 1.0
    width: float = 1.0

    def __post_init__(self):
        if self.c_hr < 4:
            raise ValueError(f"c_hr must be >= 4, got {self.c_hr}")
        if self.seg_len < 1:
            raise ValueError(f"seg_len must be positive, got {self.seg_len}")
        _check_layers(self)

    @property
    def input_shape(self):
        return (1, self.c_hr, self.seg_len)


def discriminator_specs(cfg):
    """Layer list for the critic.

    Two stems (full channel extent, then a purely temporal kernel), a
    two-stage dense block, a strided downsampling conv, and a dense head
    ending in one unbounded score.
    """
    k = [_scaled(n, cfg.width) for n in DISC_STAGE_KERNELS]
    head = _scaled(DISC_DENSE_UNITS, cfg.width)
    rate = cfg.dropout_rate
    a = cfg.elu_alpha

    specs = [
        conv(k[0], (cfg.c_hr + 1, 1), "linear"),
        dropout(rate),
        conv(k[1], (1, 3), "elu", elu_alpha=a),
        dropout(rate),
    ]
    d1, d2 = 1, 3
    specs += [concat(d1, d2), conv(k[2], (cfg.c_hr // 2 + 1, 1), "elu", elu_alpha=a),
              dropout(rate)]
    d3 = len(specs) - 1
    specs += [
        concat(d1, d2, d3),
        conv(k[3], (cfg.c_hr // 4 + 1, 3), "elu", stride=DISC_FINAL_STRIDE, elu_alpha=a),
        dropout(rate),
        flatten(),
        dense(head, "elu"),
        dropout(rate),
        dense(1, "linear"),
    ]
    return specs


def build_discriminator(cfg, seed=0, dtype=np.float32):
    return Model(discriminator_specs(cfg), cfg.input_shape, seed=seed, dtype=dtype)


@dataclass(frozen=True)
class ClassifierConfig:
    """Dense softmax classifier over band-power feature vectors."""

    class_ids: tuple[int, ...] = (2, 3, 7)

    def __post_init__(self):
        if len(self.class_ids) < 2:
            raise ValueError("classifier needs at least two classes")
        if len(set(self.class_ids)) != len(self.class_ids):
            raise ValueError(f"duplicate class ids: {self.class_ids}")

    @property
    def n_classes(self):
        return len(self.class_ids)


def classifier_specs(cfg):
    specs = [dense(units, "relu") for units in CLASSIFIER_HIDDEN]
    specs.append(dense(cfg.n_classes, "softmax"))
    return specs


def build_classifier(cfg, seed=0, dtype=np.float32):
    return Model(classifier_specs(cfg), (N_FEATURES,), seed=seed, dtype=dtype)


def sr_predict_set(gen, lr_set):
    """Batched inference over a set of kept-channel segments.

    Returns a set of reconstructed missing-channel segments with the
    metadata of `lr_set` and no channel labels. Inference mode is
    deterministic.
    """
    if lr_set.values.shape[1:] != gen.input_shape[1:]:
        raise DataError(f"segment shape {lr_set.values.shape[1:]} does not match generator "
                        f"{gen.input_shape[1:]}")
    vals = lr_set.values.astype(gen.dtype)[:, None]
    outs = []
    with no_grad():
        for i in range(0, vals.shape[0], INFER_BATCH):
            out = gen.forward(Tensor(vals[i : i + INFER_BATCH]), training=False)
            outs.append(out.data[:, 0].astype(np.float64))
    pred = np.concatenate(outs, axis=0)
    return replace(lr_set, values=pred, channel_labels=None)
