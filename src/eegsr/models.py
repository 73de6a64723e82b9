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

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .nn.layers import Model, concat, conv, dense, flatten, upsample
from .nn.tensor import Tensor, no_grad
from .psd import N_FEATURES

GEN_STAGE_KERNELS = (128, 128, 128, 128, 256, 512)
DISC_STAGE_KERNELS = (64, 64, 128, 256)
DISC_DENSE_UNITS = 128
# Stride of the critic's downsampling conv; the config fingerprint names it.
DISC_FINAL_STRIDE = (4, 4)
CLASSIFIER_HIDDEN = (512, 256, 128, 64)
# Bytes of layer outputs one inference chunk may hold.
INFER_BYTES = 16 << 20


def _scaled(kernels, width):
    return max(1, round(kernels * width))


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape of the reconstruction network.

    c_lr is the kept-channel count, scale the montage reduction factor; the
    output covers the c_lr * (scale - 1) missing channels over seg_len
    samples. Only scale and c_lr are checked here; the run config checks
    seg_len and the [model] ranges when it is loaded.
    """

    c_lr: int
    scale: int
    seg_len: int = 64
    dropout_rate: float = 0.1
    width: float = 1.0

    def __post_init__(self):
        if self.scale not in (2, 4):
            raise ValueError(f"scale must be 2 or 4, got {self.scale}")
        if self.c_lr < 4:
            raise ValueError(f"c_lr must be >= 4, got {self.c_lr}")

    @property
    def c_hr(self):
        return self.c_lr * (self.scale - 1)

    @property
    def input_shape(self):
        return (1, self.c_lr, self.seg_len)


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

    specs = [conv(k[0], tall, "linear", dropout_rate=rate),
             conv(k[1], short, "elu", dropout_rate=rate)]
    if cfg.scale == 4:
        specs += [upsample(cfg.scale - 1), conv(k[2], tall, "elu", dropout_rate=rate)]
    b0 = len(specs) - 1
    specs += [conv(k[3], short, "elu", dropout_rate=rate)]
    s1 = len(specs) - 1
    specs += [concat(b0, s1), conv(k[4], short, "elu", dropout_rate=rate)]
    s2 = len(specs) - 1
    specs += [concat(b0, s1, s2), conv(k[5], wide, "elu", dropout_rate=rate)]
    s3 = len(specs) - 1
    specs += [concat(b0, s1, s2, s3), conv(1, tall, "linear")]
    return specs


def build_generator(cfg, seed=0, dtype=np.float32):
    return Model(generator_specs(cfg), cfg.input_shape, seed=seed, dtype=dtype)


@dataclass(frozen=True)
class DiscriminatorConfig:
    """Shape of the critic scoring reconstructed channel blocks; its values
    come from a checked `GeneratorConfig` and run config."""

    c_hr: int
    seg_len: int = 64
    dropout_rate: float = 0.25
    width: float = 1.0

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

    return [
        conv(k[0], (cfg.c_hr + 1, 1), "linear", dropout_rate=rate),
        conv(k[1], (1, 3), "elu", dropout_rate=rate),
        concat(0, 1),
        conv(k[2], (cfg.c_hr // 2 + 1, 1), "elu", dropout_rate=rate),
        concat(0, 1, 3),
        conv(k[3], (cfg.c_hr // 4 + 1, 3), "elu", stride=DISC_FINAL_STRIDE, dropout_rate=rate),
        flatten(),
        dense(head, "elu", dropout_rate=rate),
        dense(1, "linear"),
    ]


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
    """Chunked inference over a set of kept-channel segments.

    Each stored row of `lr_set` runs once, so a loaded set predicts each
    distinct segment once: a segment's reconstruction does not depend on the
    segments batched with it. Each chunk holds as many segments (at least
    one) as fit the layer outputs of their forward pass into INFER_BYTES,
    and is cast to the generator's dtype on its own. Returns a set of
    reconstructed missing-channel segments with the metadata and index of
    `lr_set` and no channel labels. Inference mode is deterministic.
    """
    if lr_set.values.shape[1:] != gen.input_shape[1:]:
        raise DataError(f"segment shape {lr_set.values.shape[1:]} does not match generator "
                        f"{gen.input_shape[1:]}")
    per_segment = sum(int(np.prod(s)) for s in gen.shapes) * gen.dtype.itemsize
    chunk = max(1, INFER_BYTES // per_segment)
    vals = lr_set.values
    pred = np.empty((len(vals),) + gen.shapes[-1][1:])
    with no_grad():
        for lo in range(0, len(vals), chunk):
            x = Tensor(vals[lo : lo + chunk, None].astype(gen.dtype))
            pred[lo : lo + chunk] = gen.forward(x).data[:, 0]
    return replace(lr_set, values=pred, channel_labels=None)
