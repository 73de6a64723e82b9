"""Declarative layer stacks: specs, shape inference, init and forward."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functional as F
from .tensor import Tensor, as_tensor, concat_t, conv_same_geometry, elu_t, repeat_rows

KINDS = ("conv", "dense", "upsample", "concat", "dropout", "flatten")
ACTIVATIONS = ("linear", "elu", "relu", "softmax")


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a feed-forward stack.

    kind
        conv: same-padded 2-D convolution, `kernels` output maps,
        `kernel_dims` (kh, kw), `stride` (sh, sw), then `activation`.
        dense: affine layer with `kernels` units, then `activation`.
        upsample: nearest-neighbour repeat along the height axis;
        the factor is `kernel_dims[0]`.
        concat: join the outputs of earlier layers (by index, -1 for the
        model input) along the map axis.
        dropout: inverted dropout at `dropout_rate`.
        flatten: collapse maps and spatial dims to a feature vector.
    """

    kind: str
    kernels: int = 0
    kernel_dims: tuple[int, int] = (1, 1)
    stride: tuple[int, int] = (1, 1)
    activation: str = "linear"
    elu_alpha: float = 1.0
    dropout_rate: float = 0.0
    concat_sources: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.kind in ("conv", "dense") and self.kernels < 1:
            raise ValueError(f"{self.kind} layer needs kernels >= 1, got {self.kernels}")
        if any(d < 1 for d in self.kernel_dims):
            raise ValueError(f"kernel_dims must be positive, got {self.kernel_dims}")
        if any(s < 1 for s in self.stride):
            raise ValueError(f"stride must be positive, got {self.stride}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.kind == "dropout" and self.dropout_rate == 0.0:
            raise ValueError("dropout layer with rate 0 is a no-op; remove it")
        if self.kind == "concat" and len(self.concat_sources) < 2:
            raise ValueError("concat needs at least two sources")


def conv(kernels, kernel_dims, activation="linear", stride=(1, 1), elu_alpha=1.0):
    return LayerSpec(
        "conv",
        kernels=kernels,
        kernel_dims=tuple(kernel_dims),
        stride=tuple(stride),
        activation=activation,
        elu_alpha=elu_alpha,
    )


def dense(units, activation="linear"):
    return LayerSpec("dense", kernels=units, activation=activation)


def upsample(factor):
    return LayerSpec("upsample", kernel_dims=(factor, 1))


def concat(*sources):
    return LayerSpec("concat", concat_sources=tuple(sources))


def dropout(rate):
    return LayerSpec("dropout", dropout_rate=rate)


def flatten():
    return LayerSpec("flatten")


def infer_shapes(specs, input_shape):
    """Per-layer output shapes, excluding the batch axis.

    Image shapes are (maps, height, width); flat shapes are (features,).
    """
    input_shape = tuple(input_shape)
    shapes = []

    def shape_of(idx):
        return input_shape if idx == -1 else shapes[idx]

    for i, ls in enumerate(specs):
        cur = shape_of(i - 1)
        if ls.kind == "conv":
            if len(cur) != 3:
                raise ValueError(f"layer {i}: conv needs an image input, got shape {cur}")
            oh, ow, *_ = conv_same_geometry(
                cur[1], cur[2], ls.kernel_dims[0], ls.kernel_dims[1], ls.stride[0], ls.stride[1]
            )
            shapes.append((ls.kernels, oh, ow))
        elif ls.kind == "dense":
            if len(cur) != 1:
                raise ValueError(f"layer {i}: dense needs a flat input, got shape {cur}")
            shapes.append((ls.kernels,))
        elif ls.kind == "upsample":
            if len(cur) != 3:
                raise ValueError(f"layer {i}: upsample needs an image input, got shape {cur}")
            shapes.append((cur[0], cur[1] * ls.kernel_dims[0], cur[2]))
        elif ls.kind == "concat":
            srcs = [shape_of(s) for s in ls.concat_sources]
            if any(len(s) != 3 for s in srcs):
                raise ValueError(f"layer {i}: concat sources must be images")
            hw = {s[1:] for s in srcs}
            if len(hw) != 1:
                raise ValueError(f"layer {i}: concat spatial dims differ: {sorted(hw)}")
            shapes.append((sum(s[0] for s in srcs),) + srcs[0][1:])
        elif ls.kind == "flatten":
            shapes.append((int(np.prod(cur)),))
        else:  # dropout
            shapes.append(cur)
    return shapes


class Model:
    """A layer stack with parameters, seeded init and a forward pass.

    Weights use uniform fan-in scaling (He for elu/relu layers, Glorot
    otherwise); biases start at zero. The same seed always produces the
    same parameters. With ``init=False`` every parameter starts at zero and
    no random numbers are drawn, for a caller that loads saved parameters
    with ``set_parameters``.
    """

    def __init__(self, specs, input_shape, seed=0, dtype=np.float32, init=True):
        self.specs = list(specs)
        self.input_shape = tuple(input_shape)
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        self.shapes = infer_shapes(self.specs, self.input_shape)
        self.params = []
        rng = np.random.default_rng(self.seed) if init else None
        for ls, cur in zip(self.specs, [self.input_shape] + self.shapes[:-1]):
            if ls.kind not in ("conv", "dense"):
                self.params.append(None)
                continue
            wshape = (ls.kernels, cur[0]) + (ls.kernel_dims if ls.kind == "conv" else ())
            if init:
                k = int(np.prod(wshape[2:]))
                fan_in, fan_out = wshape[1] * k, wshape[0] * k
                if ls.activation in ("elu", "relu"):
                    limit = np.sqrt(6.0 / fan_in)
                else:
                    limit = np.sqrt(6.0 / (fan_in + fan_out))
                w = rng.uniform(-limit, limit, size=wshape).astype(self.dtype)
            else:
                w = np.zeros(wshape, dtype=self.dtype)
            b = np.zeros(ls.kernels, dtype=self.dtype)
            self.params.append((Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)))

    def parameters(self):
        out = []
        for p in self.params:
            if p is not None:
                out.extend(p)
        return out

    def param_count(self):
        return sum(t.size for t in self.parameters())

    def set_parameters(self, arrays):
        """Load flat parameter arrays (w0, b0, w1, b1, ...) in layer order."""
        tensors = self.parameters()
        if len(arrays) != len(tensors):
            raise ValueError(f"expected {len(tensors)} parameter arrays, got {len(arrays)}")
        for t, a in zip(tensors, arrays):
            a = np.asarray(a, dtype=self.dtype)
            if a.shape != t.shape:
                raise ValueError(f"parameter shape mismatch: expected {t.shape}, got {a.shape}")
            t.data = a.copy()

    def _apply_activation(self, ls, x):
        if ls.activation == "elu":
            return elu_t(x, ls.elu_alpha)
        if ls.activation == "relu":
            return F.relu(x)
        if ls.activation == "softmax":
            return F.softmax(x)
        return x

    def forward(self, x, training=False, rng=None):
        """Run the stack over a batch; returns the final layer's Tensor.

        `x` must be (batch,) + input_shape. Training mode activates dropout
        and requires an rng; inference is deterministic.
        """
        x = as_tensor(x)
        if x.data.dtype != self.dtype and not x.requires_grad:
            x = Tensor(x.data.astype(self.dtype))
        if x.shape[1:] != self.input_shape:
            raise ValueError(
                f"input shape {x.shape[1:]} does not match model input {self.input_shape}"
            )
        if training and rng is None and any(ls.kind == "dropout" for ls in self.specs):
            raise ValueError("training forward with dropout layers needs an rng")
        outs = []

        def fetch(idx):
            return x if idx == -1 else outs[idx]

        for i, ls in enumerate(self.specs):
            cur = fetch(i - 1)
            if ls.kind == "conv":
                w, b = self.params[i]
                y = F.conv_layer(cur, w, b, ls.stride)
                y = self._apply_activation(ls, y)
            elif ls.kind == "dense":
                w, b = self.params[i]
                y = F.dense_layer(cur, w, b)
                y = self._apply_activation(ls, y)
            elif ls.kind == "upsample":
                y = repeat_rows(cur, ls.kernel_dims[0], axis=2)
            elif ls.kind == "concat":
                y = concat_t([fetch(s) for s in ls.concat_sources], axis=1)
            elif ls.kind == "flatten":
                y = F.flatten(cur)
            else:
                y = F.dropout(cur, ls.dropout_rate, training, rng)
            outs.append(y)
        return outs[-1]
