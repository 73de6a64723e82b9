"""Reverse-mode automatic differentiation over numpy arrays.

Every primitive records a vector-Jacobian product that is itself built from
these primitives, so differentiating a gradient (as the critic's gradient
penalty requires) needs no special casing: the backward pass of a backward
pass is just another graph.

Convolution closes under differentiation through a triple of primitives:
``conv2d``, ``conv2d_input_grad`` and ``conv2d_weight_grad``. Each one's
vjp is expressed with the other two plus ``conv2d`` itself.

Each conv kernel lowers to matrix products, in one of two ways chosen from
shapes alone, by the same rule in all three kernels:

- banded, when ``co*oh <= n*ow``: the height taps and height padding are
  folded into the weight, one (co*oh x ci*h) band per width tap, and the
  input is read through width-only columns. The networks' kernels span
  most of the channel (height) axis, so this replaces the kh*kw copies of
  im2col and the strided scatter of its adjoint. The forward and the input
  gradient run one product of the band per sample, over that sample's
  (kw*ci*h x ow) columns in the NCHW layout already in memory: for a one-
  column kernel at width stride 1 these columns are a view of the input,
  and either way the product reshapes to NCHW without a transpose copy
  (low-memory GEMM convolution, Anderson et al. 2017, arXiv:1709.03395).
  The weight gradient sums over the batch, so it keeps one product over
  the whole batch's columns.
- im2col otherwise: the band does h/kh times the multiply-adds of im2col
  and grows with co*oh*ci*h*kw, which for the full-width 64-512-map layers
  at small batch is far larger than the columns (768 MiB for a 512->512
  9x3 layer), so there im2col is both smaller and faster.

The forward pass is the same whether or not a gradient follows, and keeps
nothing for the backward pass: the weight gradient builds its own columns.
The im2col forward runs one sample at a time, each sample's (ci*kh*kw x
oh*ow) columns freed before the next is built, so its memory is one
sample's columns whatever the batch (54 MiB for the full-width 512->512 9x3
layer on a 16x64 map in f32, against 3.4 GiB for a batch of 64 at once).

The ELU is one node, ``elu_t``, computed branch-free as
max(x, 0) + alpha*(exp(min(x, 0)) - 1); a select on a data-dependent mask
ran about seven times slower per element. Outside ``create_graph`` its vjp
is one numpy expression; under it, the vjp is composed from primitives, so
the gradient penalty differentiates through it.
"""
from __future__ import annotations

import contextlib
import functools

import numpy as np

_grad_enabled = True

# Floor used when dividing by a sqrt output in its derivative; keeps the
# backward pass finite at (and near) the non-differentiable point 0.
_SQRT_FLOOR = 1e-12


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A numpy array plus an optional record of how it was computed."""

    __slots__ = ("data", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    # Operator sugar; all routes through the module-level primitives.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x, dtype=None):
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype)
    if arr.dtype.kind != "f":
        arr = arr.astype(dtype or np.float64)
    return Tensor(arr)


def _coerce(x, like):
    """Wrap a non-Tensor operand as a constant matching `like`'s dtype."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _pair(a, b):
    if isinstance(a, Tensor):
        return a, _coerce(b, a)
    b = as_tensor(b)
    return _coerce(a, b), b


def _node(data, parents, vjp):
    """Create a graph node, or a plain constant when recording is off."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def zeros_like(t):
    return Tensor(np.zeros(t.shape, dtype=t.dtype))


# ---------------------------------------------------------------------------
# Elementwise and structural primitives
# ---------------------------------------------------------------------------


def _unbroadcast(g, shape):
    """Sum a broadcast cotangent back down to `shape` (differentiably)."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = sum_t(g, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = sum_t(g, axis=axes, keepdims=True)
    return g


def add(a, b):
    a, b = _pair(a, b)

    def vjp(g, needs):
        return (
            _unbroadcast(g, a.shape) if needs[0] else None,
            _unbroadcast(g, b.shape) if needs[1] else None,
        )

    return _node(a.data + b.data, (a, b), vjp)


def sub(a, b):
    a, b = _pair(a, b)

    def vjp(g, needs):
        return (
            _unbroadcast(g, a.shape) if needs[0] else None,
            _unbroadcast(neg(g), b.shape) if needs[1] else None,
        )

    return _node(a.data - b.data, (a, b), vjp)


def mul(a, b):
    a, b = _pair(a, b)

    def vjp(g, needs):
        return (
            _unbroadcast(mul(g, b), a.shape) if needs[0] else None,
            _unbroadcast(mul(g, a), b.shape) if needs[1] else None,
        )

    return _node(a.data * b.data, (a, b), vjp)


def div(a, b):
    a, b = _pair(a, b)

    def vjp(g, needs):
        ga = _unbroadcast(div(g, b), a.shape) if needs[0] else None
        gb = None
        if needs[1]:
            gb = _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape)
        return (ga, gb)

    return _node(a.data / b.data, (a, b), vjp)


def neg(a):
    a = as_tensor(a)

    def vjp(g, needs):
        return (neg(g),)

    return _node(-a.data, (a,), vjp)


def exp_t(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)

    # The vjp must not close over the output node itself: that reference
    # cycle keeps every step's whole graph alive until a cycle collection.
    def vjp(g, needs):
        e = exp_t(a) if _grad_enabled else Tensor(out_data)
        return (mul(g, e),)

    return _node(out_data, (a,), vjp)


def log_t(a):
    a = as_tensor(a)

    def vjp(g, needs):
        return (div(g, a),)

    return _node(np.log(a.data), (a,), vjp)


def sqrt_t(a):
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    # Cycle-free for the same reason as exp_t.
    def vjp(g, needs):
        root = sqrt_t(a) if _grad_enabled else Tensor(out_data)
        return (div(mul_const(g, 0.5), maximum_const(root, _SQRT_FLOOR)),)

    return _node(out_data, (a,), vjp)


def mul_const(a, c):
    """Multiply by a non-differentiated constant (scalar or array).

    The constant must broadcast to `a`'s shape without enlarging it; this is
    the workhorse behind dropout masks, relu masks and scalar scaling, and it
    is linear, so its vjp is itself.
    """
    a = as_tensor(a)
    c = np.asarray(c, dtype=a.dtype)
    if np.broadcast_shapes(a.shape, c.shape) != a.shape:
        raise ValueError(f"constant of shape {c.shape} does not broadcast into {a.shape}")

    def vjp(g, needs):
        return (mul_const(g, c),)

    return _node(a.data * c, (a,), vjp)


def minimum_const(a, c):
    a = as_tensor(a)
    mask = (a.data < c).astype(a.dtype)

    def vjp(g, needs):
        return (mul_const(g, mask),)

    return _node(np.minimum(a.data, c), (a,), vjp)


def maximum_const(a, c):
    a = as_tensor(a)
    mask = (a.data > c).astype(a.dtype)

    def vjp(g, needs):
        return (mul_const(g, mask),)

    return _node(np.maximum(a.data, c), (a,), vjp)


def elu_t(a, alpha=1.0):
    """Exponential linear unit as one node, branch-free:
    max(a, 0) + alpha * (exp(min(a, 0)) - 1)."""
    a = as_tensor(a)
    alpha = a.dtype.type(alpha)
    e = np.exp(np.minimum(a.data, 0))
    out = e - 1
    out *= alpha
    out += np.maximum(a.data, 0)

    # The derivative is 1 from 0 up, where e == 1, and alpha * e below 0.
    # Scaling g by alpha before e keeps the rounding of the composed ELU
    # (min, exp, -1, *alpha, select) that this node replaces.
    def vjp(g, needs):
        if alpha != 1:
            g = mul_const(g, np.where(a.data < 0, alpha, 1))
        if _grad_enabled:
            return (mul(g, exp_t(minimum_const(a, 0.0))),)
        return (Tensor(g.data * e),)

    return _node(out, (a,), vjp)


def sum_t(a, axis=None, keepdims=False):
    a = as_tensor(a)
    if axis is None:
        axes = tuple(range(a.ndim))
    elif isinstance(axis, int):
        axes = (axis % a.ndim,)
    else:
        axes = tuple(ax % a.ndim for ax in axis)
    kept = tuple(1 if i in axes else n for i, n in enumerate(a.shape))

    def vjp(g, needs):
        return (broadcast_to(reshape(g, kept), a.shape),)

    return _node(np.sum(a.data, axis=axes, keepdims=keepdims), (a,), vjp)


def mean_t(a, axis=None, keepdims=False):
    a = as_tensor(a)
    if axis is None:
        count = a.size
    elif isinstance(axis, int):
        count = a.shape[axis % a.ndim]
    else:
        count = 1
        for ax in axis:
            count *= a.shape[ax % a.ndim]
    return mul_const(sum_t(a, axis=axis, keepdims=keepdims), 1.0 / count)


def broadcast_to(a, shape):
    a = as_tensor(a)
    shape = tuple(shape)

    def vjp(g, needs):
        return (_unbroadcast(g, a.shape),)

    return _node(np.ascontiguousarray(np.broadcast_to(a.data, shape)), (a,), vjp)


def reshape(a, shape):
    a = as_tensor(a)
    shape = tuple(shape)

    def vjp(g, needs):
        return (reshape(g, a.shape),)

    return _node(np.reshape(a.data, shape), (a,), vjp)


def transpose(a, axes=None):
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    inv = tuple(int(i) for i in np.argsort(axes))

    def vjp(g, needs):
        return (transpose(g, inv),)

    return _node(np.transpose(a.data, axes), (a,), vjp)


def matmul(a, b):
    a, b = _pair(a, b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")

    def vjp(g, needs):
        ga = matmul(g, transpose(b)) if needs[0] else None
        gb = matmul(transpose(a), g) if needs[1] else None
        return (ga, gb)

    return _node(a.data @ b.data, (a, b), vjp)


def concat_t(parts, axis):
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat of zero tensors")
    axis = axis % parts[0].ndim
    bounds = []
    start = 0
    for p in parts:
        bounds.append((start, start + p.shape[axis]))
        start += p.shape[axis]

    def vjp(g, needs):
        return tuple(
            slice_axis(g, axis, lo, hi) if need else None
            for (lo, hi), need in zip(bounds, needs)
        )

    return _node(np.concatenate([p.data for p in parts], axis=axis), parts, vjp)


def slice_axis(a, axis, start, stop):
    a = as_tensor(a)
    axis = axis % a.ndim
    idx = tuple(slice(start, stop) if i == axis else slice(None) for i in range(a.ndim))
    after = a.shape[axis] - stop

    def vjp(g, needs):
        return (pad_axis(g, axis, start, after),)

    return _node(np.ascontiguousarray(a.data[idx]), (a,), vjp)


def pad_axis(a, axis, before, after):
    a = as_tensor(a)
    axis = axis % a.ndim
    widths = [(0, 0)] * a.ndim
    widths[axis] = (before, after)

    def vjp(g, needs):
        return (slice_axis(g, axis, before, before + a.shape[axis]),)

    return _node(np.pad(a.data, widths), (a,), vjp)


def repeat_rows(a, factor, axis=2):
    """Repeat each index along `axis` `factor` times (nearest-neighbour upsample)."""
    a = as_tensor(a)
    factor = int(factor)
    if factor < 1:
        raise ValueError(f"repeat factor must be >= 1, got {factor}")
    if factor == 1:
        return a
    axis = axis % a.ndim
    expanded = a.shape[:axis] + (a.shape[axis], factor) + a.shape[axis + 1 :]

    def vjp(g, needs):
        return (sum_t(reshape(g, expanded), axis=axis + 1),)

    return _node(np.repeat(a.data, factor, axis=axis), (a,), vjp)


# ---------------------------------------------------------------------------
# Convolution primitives (NCHW, stride >= 1, symmetric-as-possible zero
# padding with the extra row/column at the bottom/right, output ceil(n/s))
# ---------------------------------------------------------------------------


def conv_same_geometry(h, w, kh, kw, sh, sw):
    """Output size and pad widths for same-style padded convolution."""
    oh = -(-h // sh)
    ow = -(-w // sw)
    ph = max((oh - 1) * sh + kh - h, 0)
    pw = max((ow - 1) * sw + kw - w, 0)
    return oh, ow, ph // 2, ph - ph // 2, pw // 2, pw - pw // 2


def _im2col(xp, kh, kw, sh, sw, oh, ow):
    """(n, c, hp, wp) -> (c*kh*kw, n*oh*ow) patch matrix (one copy)."""
    n, c = xp.shape[0], xp.shape[1]
    v = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    v = v[:, :, ::sh, ::sw][:, :, :oh, :ow]
    return v.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, n * oh * ow)


def _pad_input(x, pt, pb, pl, pr):
    if pt or pb or pl or pr:
        return np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    return x


def _banded(co, oh, n, ow):
    """Shape rule shared by all three kernels: the band has co*oh rows and
    the width columns it multiplies have n*ow, so banded never needs more
    memory than those columns."""
    return co * oh <= n * ow


def _width_cols(x, kw, sw, ow, pl, pr):
    """(n, c, h, w) -> (n, kw, c*h, ow) view of each sample's width-only
    columns; reshaped to (n, kw*c*h, ow) it is still a view of a contiguous
    `x` when kw = sw = 1, and one copy otherwise."""
    n, c, h = x.shape[:3]
    v = np.lib.stride_tricks.sliding_window_view(_pad_input(x, 0, 0, pl, pr), kw, axis=3)
    v = v[:, :, :, ::sw][:, :, :, :ow]
    return v.transpose(0, 4, 1, 2, 3).reshape(n, kw, c * h, ow)


@functools.lru_cache(maxsize=64)
def _band_taps(h, kh, sh, oh, pt):
    """Index triples (r, s, i): output row r reads input row s through
    kernel row i. Rows that land in the zero padding have no triple.
    Cached per shape, so the arrays are read-only."""
    r, s = np.meshgrid(np.arange(oh), np.arange(h), indexing="ij")
    i = s + pt - r * sh
    keep = (i >= 0) & (i < kh)
    taps = r[keep], s[keep], i[keep]
    for t in taps:
        t.flags.writeable = False
    return taps


def _band(w, h, sh, oh, pt):
    """(co, ci, kh, kw) -> (co*oh, kw*ci*h) band: every height tap and the
    height padding folded into one matrix per width tap, side by side."""
    co, ci, kh, kw = w.shape
    r, s, i = _band_taps(h, kh, sh, oh, pt)
    band = np.zeros((co, oh, kw, ci, h), dtype=w.dtype)
    band[:, r, :, :, s] = w.transpose(2, 0, 3, 1)[i]
    return band.reshape(co * oh, kw * ci * h)


def _conv_forward(x, w, sh, sw):
    n, ci, h, wi = x.shape
    co, _, kh, kw = w.shape
    oh, ow, pt, pb, pl, pr = conv_same_geometry(h, wi, kh, kw, sh, sw)
    if _banded(co, oh, n, ow):
        # One product per sample on its own columns; (n, co*oh, ow) is NCHW.
        cols = _width_cols(x, kw, sw, ow, pl, pr).reshape(n, kw * ci * h, ow)
        return np.matmul(_band(w, h, sh, oh, pt), cols).reshape(n, co, oh, ow)
    # One sample at a time; each sample's columns die with its product.
    w2 = w.reshape(co, -1)
    y = np.empty((n, co, oh, ow), dtype=np.result_type(x, w))
    for k in range(n):
        xk = _pad_input(x[k : k + 1], pt, pb, pl, pr)
        np.matmul(w2, _im2col(xk, kh, kw, sh, sw, oh, ow), out=y[k].reshape(co, oh * ow))
    return y


def _conv_input_grad(gd, wd, h, wi, sh, sw):
    n, co, oh, ow = gd.shape
    ci, kh, kw = wd.shape[1], wd.shape[2], wd.shape[3]
    oh2, ow2, pt, pb, pl, pr = conv_same_geometry(h, wi, kh, kw, sh, sw)
    if (oh2, ow2) != (oh, ow):
        raise ValueError(f"output grad shape {(oh, ow)} does not match geometry {(oh2, ow2)}")
    if _banded(co, oh, n, ow):
        gc = np.matmul(_band(wd, h, sh, oh, pt).T, gd.reshape(n, co * oh, ow))
        if kw == 1 and sw == 1:
            return gc.reshape(n, ci, h, wi)
        gc = gc.reshape(n, kw, ci * h, ow)
        gxw = np.zeros((n, ci * h, wi + pl + pr), dtype=gd.dtype)
        for j in range(kw):
            gxw[..., j : j + sw * (ow - 1) + 1 : sw] += gc[:, j]
        return np.ascontiguousarray(gxw[..., pl : pl + wi]).reshape(n, ci, h, wi)
    g2 = gd.transpose(1, 0, 2, 3).reshape(co, n * oh * ow)
    gcols = wd.reshape(co, ci * kh * kw).T @ g2
    gc = gcols.reshape(ci, kh, kw, n, oh, ow)
    gxp = np.zeros((n, ci, h + pt + pb, wi + pl + pr), dtype=gd.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + sh * (oh - 1) + 1 : sh, j : j + sw * (ow - 1) + 1 : sw] += (
                gc[:, i, j].transpose(1, 0, 2, 3)
            )
    return np.ascontiguousarray(gxp[:, :, pt : pt + h, pl : pl + wi])


def _conv_weight_grad(gd, x, kh, kw, sh, sw):
    n, co, oh, ow = gd.shape
    ci, h = x.shape[1], x.shape[2]
    _, _, pt, pb, pl, pr = conv_same_geometry(h, x.shape[3], kh, kw, sh, sw)
    if _banded(co, oh, n, ow):
        # One whole-batch product, summing over samples and columns at once.
        cols = _width_cols(x, kw, sw, ow, pl, pr).transpose(1, 2, 0, 3)
        g2 = gd.transpose(1, 2, 0, 3).reshape(co * oh, n * ow)
        gband = (g2 @ cols.reshape(kw * ci * h, n * ow).T).reshape(co, oh, kw, ci, h)
        # Adjoint of the band build: sum each kernel row's diagonal.
        r, s, i = _band_taps(h, kh, sh, oh, pt)
        gw = np.zeros((kh, co, kw, ci), dtype=gband.dtype)
        np.add.at(gw, i, gband[:, r, :, :, s])
        return np.ascontiguousarray(gw.transpose(1, 3, 0, 2))
    cols = _im2col(_pad_input(x, pt, pb, pl, pr), kh, kw, sh, sw, oh, ow)
    g2 = gd.transpose(1, 0, 2, 3).reshape(co, n * oh * ow)
    return (g2 @ cols.T).reshape(co, ci, kh, kw)


def conv2d(x, w, stride=(1, 1)):
    """Same-padded 2-D convolution (cross-correlation), NCHW by OIHW."""
    x, w = as_tensor(x), as_tensor(w)
    sh, sw = int(stride[0]), int(stride[1])
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv2d expects 4-D input and weight, got {x.shape}, {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.shape[1]} maps, weight expects {w.shape[1]}"
        )
    y = _conv_forward(x.data, w.data, sh, sw)
    h, wi = x.shape[2], x.shape[3]
    kh, kw = w.shape[2], w.shape[3]

    def vjp(g, needs):
        gx = conv2d_input_grad(g, w, (h, wi), (sh, sw)) if needs[0] else None
        gw = conv2d_weight_grad(g, x, (kh, kw), (sh, sw)) if needs[1] else None
        return (gx, gw)

    return _node(y, (x, w), vjp)


def conv2d_input_grad(g, w, input_hw, stride=(1, 1)):
    """Adjoint of conv2d with respect to its input."""
    g, w = as_tensor(g), as_tensor(w)
    h, wi = int(input_hw[0]), int(input_hw[1])
    sh, sw = int(stride[0]), int(stride[1])
    y = _conv_input_grad(g.data, w.data, h, wi, sh, sw)
    kh, kw = w.shape[2], w.shape[3]

    def vjp(u, needs):
        gg = conv2d(u, w, (sh, sw)) if needs[0] else None
        gw = conv2d_weight_grad(g, u, (kh, kw), (sh, sw)) if needs[1] else None
        return (gg, gw)

    return _node(y, (g, w), vjp)


def conv2d_weight_grad(g, x, kernel_hw, stride=(1, 1)):
    """Adjoint of conv2d with respect to its weight."""
    g, x = as_tensor(g), as_tensor(x)
    kh, kw = int(kernel_hw[0]), int(kernel_hw[1])
    sh, sw = int(stride[0]), int(stride[1])
    y = _conv_weight_grad(g.data, x.data, kh, kw, sh, sw)
    h, wi = x.shape[2], x.shape[3]

    def vjp(u, needs):
        gg = conv2d(x, u, (sh, sw)) if needs[0] else None
        gx = conv2d_input_grad(g, u, (h, wi), (sh, sw)) if needs[1] else None
        return (gg, gx)

    return _node(y, (g, x), vjp)


# ---------------------------------------------------------------------------
# Backward engine
# ---------------------------------------------------------------------------


def _toposort(root):
    """Post-order over the recorded graph: parents before children."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def grad(output, wrt, create_graph=False):
    """Gradients of a scalar `output` with respect to each tensor in `wrt`.

    With ``create_graph=True`` the returned gradients carry their own
    computation graph and can be differentiated again. Targets the output
    does not depend on get zero gradients.
    """
    wrt = list(wrt)
    if not isinstance(output, Tensor):
        raise TypeError("grad output must be a Tensor")
    if output.size != 1:
        raise ValueError(f"grad expects a scalar output, got shape {output.shape}")
    if not output.requires_grad:
        raise RuntimeError("output does not depend on any tracked tensor; nothing to differentiate")

    order = _toposort(output)
    wrt_ids = {id(t) for t in wrt}
    # A node matters only if some wrt tensor is reachable from it.
    needed = {}
    for node in order:
        needed[id(node)] = id(node) in wrt_ids or any(
            needed.get(id(p), False) for p in node._parents
        )

    cot = {id(output): Tensor(np.ones(output.shape, dtype=output.dtype))}
    ctx = contextlib.nullcontext() if create_graph else no_grad()
    with ctx:
        for node in reversed(order):
            g = cot.get(id(node))
            if g is None or node._vjp is None:
                continue
            needs = tuple(
                p.requires_grad and needed.get(id(p), False) for p in node._parents
            )
            if id(node) not in wrt_ids:
                del cot[id(node)]
            if not any(needs):
                continue
            for p, pg in zip(node._parents, node._vjp(g, needs)):
                if pg is None:
                    continue
                prev = cot.get(id(p))
                cot[id(p)] = pg if prev is None else add(prev, pg)

    out = []
    for t in wrt:
        c = cot.get(id(t))
        out.append(c if c is not None else zeros_like(t))
    return out
