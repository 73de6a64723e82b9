"""Declarative layer stacks: specs, shape inference, init and forward."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functional as F
from .tensor import Tensor, concat_t, conv2d, conv_same_geometry, elu_dropout, repeat_rows

KINDS = ("conv", "dense", "upsample", "concat", "flatten")
ACTIVATIONS = ("linear", "elu", "relu", "softmax")


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a feed-forward stack.

    kind
        conv: same-padded 2-D convolution, `kernels` output maps,
        `kernel_dims` (kh, kw), `stride` (sh, sw), then `activation`, then
        inverted dropout at `dropout_rate` in training.
        dense: affine layer with `kernels` units, then `activation`, then
        dropout as for conv.
        upsample: nearest-neighbour repeat along the height axis;
        the factor is `kernel_dims[0]`.
        concat: join the outputs of earlier layers (by index, -1 for the
        model input) along the map axis.
        flatten: collapse maps and spatial dims to a feature vector.
    """

    kind: str
    kernels: int = 0
    kernel_dims: tuple[int, int] = (1, 1)
    stride: tuple[int, int] = (1, 1)
    activation: str = "linear"
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
        if self.kind not in ("conv", "dense") and self.dropout_rate:
            raise ValueError(f"{self.kind} layer takes no dropout_rate")
        if self.kind == "concat" and len(self.concat_sources) < 2:
            raise ValueError("concat needs at least two sources")


def conv(kernels, kernel_dims, activation="linear", stride=(1, 1), dropout_rate=0.0):
    return LayerSpec(
        "conv",
        kernels=kernels,
        kernel_dims=tuple(kernel_dims),
        stride=tuple(stride),
        activation=activation,
        dropout_rate=dropout_rate,
    )


def dense(units, activation="linear", dropout_rate=0.0):
    return LayerSpec("dense", kernels=units, activation=activation, dropout_rate=dropout_rate)


def upsample(factor):
    return LayerSpec("upsample", kernel_dims=(factor, 1))


def concat(*sources):
    return LayerSpec("concat", concat_sources=tuple(sources))


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
        else:  # flatten
            shapes.append((int(np.prod(cur)),))
    return shapes


def filter_blocks(a):
    """Views of `a` eight filters (entries of its first axis) at a time: a
    kernel-row-ordered weight moved by blocks stays in cache and needs no
    transient larger than a block."""
    return [a[lo : lo + 8] for lo in range(0, len(a), 8)]


def copy_into(arrays, sources):
    """Copy each source into its array, cast, by filter blocks."""
    for a, s in zip(arrays, sources):
        for dst, src in zip(filter_blocks(a), filter_blocks(s)):
            dst[...] = src


class Model:
    """A layer stack with parameters, seeded init and a forward pass over a
    Tensor in the model's dtype, which trains, with dropout, given an rng.

    Weights use uniform fan-in scaling (He for elu/relu layers, Glorot
    otherwise); biases start at zero. The same seed always produces the
    same parameters. With ``init=False`` every parameter starts at zero and
    no random numbers are drawn, for a caller that loads saved parameters
    with ``set_parameters``.

    A conv weight has the OIHW shape (co, ci, kh, kw) but lies in memory in
    kernel-row order (kh, co, kw, ci), the order the kernel-rows lowering of
    `tensor` reads: each kernel row is one (co, kw*ci) matrix, a view.

    A conv layer is one `conv2d` node that adds its bias, then, given an ELU
    or a dropout rate, one `elu_dropout` node for both; the nodes hold the
    layer's output, its conv output and a bool mask.
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
            if ls.kind == "conv":
                (kh, kw), co, ci = ls.kernel_dims, ls.kernels, cur[0]
                w = np.zeros((kh, co, kw, ci), dtype=self.dtype).transpose(1, 3, 0, 2)
            elif ls.kind == "dense":
                w = np.zeros((ls.kernels, cur[0]), dtype=self.dtype)
            else:
                self.params.append(None)
                continue
            if init:
                k = int(np.prod(w.shape[2:]))
                fan_in, fan_out = w.shape[1] * k, w.shape[0] * k
                if ls.activation in ("elu", "relu"):
                    limit = np.sqrt(6.0 / fan_in)
                else:
                    limit = np.sqrt(6.0 / (fan_in + fan_out))
                # Drawn in OIHW order a block at a time: the numbers of one draw,
                # with no float64 copy of the whole weight.
                for block in filter_blocks(w):
                    block[...] = rng.uniform(-limit, limit, size=block.shape)
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
        """Copy flat parameter arrays (w0, b0, w1, b1, ...), in layer order, into
        the model's own arrays, which keep their memory order."""
        copy_into([t.data for t in self.parameters()], arrays)

    def forward(self, x, rng=None):
        """Run the stack over a batch; returns the final layer's Tensor.

        `x` is a Tensor of shape (batch,) + input_shape in the model's dtype.
        Given an rng, the forward trains: each layer's dropout draws from it.
        Without one it is inference, deterministic.
        """
        if x.shape[1:] != self.input_shape:
            raise ValueError(
                f"input shape {x.shape[1:]} does not match model input {self.input_shape}"
            )
        outs = []

        def fetch(idx):
            return x if idx == -1 else outs[idx]

        for i, ls in enumerate(self.specs):
            cur = fetch(i - 1)
            if ls.kind in ("conv", "dense"):
                w, b = self.params[i]
                if ls.kind == "conv":
                    y = conv2d(cur, w, ls.stride, b)
                else:
                    y = F.dense_layer(cur, w, b)
                if ls.activation == "relu":
                    y = F.relu(y)
                elif ls.activation == "softmax":
                    y = F.softmax(y)
                rate = ls.dropout_rate
                y = elu_dropout(y, ls.activation == "elu", rate, rng if rate else None)
            elif ls.kind == "upsample":
                y = repeat_rows(cur, ls.kernel_dims[0], axis=2)
            elif ls.kind == "concat":
                y = concat_t([fetch(s) for s in ls.concat_sources], axis=1)
            else:  # flatten
                y = F.flatten(cur)
            outs.append(y)
        return outs[-1]
