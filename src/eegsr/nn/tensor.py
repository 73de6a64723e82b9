"""Reverse-mode automatic differentiation over numpy arrays.

Every primitive records a vector-Jacobian product that is itself built from
these primitives, so differentiating a gradient (as the critic's gradient
penalty requires) needs no special casing: the backward pass of a backward
pass is just another graph.

A primitive takes Tensors. Only the second operand of a binary op (``add``,
``sub``, ``mul``, ``div``, ``matmul``) may be a constant, a number or an
array, which becomes a Tensor of the first operand's dtype.

Convolution closes under differentiation through a triple of primitives:
``conv2d``, ``conv2d_input_grad`` and ``conv2d_weight_grad``. Each one's
vjp is expressed with the other two plus ``conv2d`` itself.

Each conv kernel lowers to matrix products, neither way through a matrix of
kh*kw copies of its input nor keeping columns for the backward pass, by a
rule on the layer's shape and dtype that leaves out the batch, so a sample's
result does not depend on its batch:

- banded, while the band fits in ``BAND_MAX_BYTES``: the height taps and
  padding are folded into the weight, one (co*oh x ci*h) band per width tap,
  times each sample's (kw*ci*h x ow) width-only columns in the NCHW layout
  already in memory (a view of the input for a one-column kernel at width
  stride 1), or the batch's in the weight gradient. The band does h/kh times
  the kernel's multiply-adds, so it suits narrow layers only.
- by kernel rows otherwise (low-memory GEMM convolution, Anderson et al.
  2017, arXiv:1709.03395; kn2row accumulation, Vasudevan et al. 2017,
  arXiv:1704.04428): per sample, the sum over kernel rows i of w[:, :, i, :]
  as a (co x kw*ci) matrix times the view at row offset i of the sample's
  width columns of the height-padded input; the input gradient scatters the
  rows back, then the width taps. That holds one sample's columns, kw
  copies: 9.4 MiB on the full-width 512->512 9x3 layer, 54 MiB for im2col.
  A `layers.Model` weight lies in memory in that order, (kh, co, kw, ci)
  behind its (co, ci, kh, kw) shape: its rows are views, and the weight
  gradient is summed and returned in that order.

Work goes to one pool, one worker per usable core, and keeps the bits of the
serial code on any number of cores; the calling thread allocates every
buffer a pooled task writes:

- a sample's kh kernel-row products run whole, at most one per worker ahead
  of the sum, and are added in kernel-row order;
- at a batch of more than one sample, the banded forward and input-gradient
  products and ``elu_dropout`` both ways run by sample range, each range
  writing its own slice (``_by_sample``), and a banded weight gradient, one
  product summed over the batch, runs whole on the pool while ``grad`` goes
  on down the input-gradient chain; ``grad`` waits for it before it reads it.
  Work below ``SPLIT_MIN_MACS`` or ``SPLIT_MIN_ELEMENTS``, and any batch of
  one, where the kernel rows already hold every core, stays on the calling
  thread.

``grad`` without ``create_graph`` consumes the graph as it walks it: each
visited node drops its parents and its vjp, so an activation is freed once
its node is visited, during the backward pass rather than after it (memory
sharing, Chen et al. 2016, arXiv:1604.06174).

A conv layer with its activation and dropout is two nodes, so that each
holds one array the size of the layer's output: ``conv2d`` adds the bias in
place into its output, and ``elu_dropout`` applies the ELU, computed
branch-free as max(x, 0) + exp(min(x, 0)) - 1 (a select on a
data-dependent mask ran about seven times slower per element), then the
dropout mask, which it keeps as bools. Outside ``create_graph`` its vjp is
numpy expressions that recompute exp(min(x, 0)); under it, the vjp is
composed from primitives, so the gradient penalty differentiates through it.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools
import os

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
        self.data = np.asarray(data)
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

    # Operator sugar; all routes through the module-level primitives.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)


def _coerce(x, like):
    """A binary op's second operand: a Tensor as it is, a constant as a
    Tensor of `like`'s dtype."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _node(data, parents, vjp):
    """Create a graph node, or a plain constant when recording is off."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------

_pool = None  # (workers, executor) of the pooled work, made by `_row_pool`

# Least work that `_by_sample` splits over the workers, in multiply-adds of a
# banded product and in elements of an ELU and dropout, and least work of a
# banded weight gradient that goes to the pool: below it the hand-off costs
# more than it saves. Split over 2 cores at batch 64, a 4.2M multiply-add
# forward went from 0.25 to 0.33 ms and a 16.8M one from 0.49 to 0.44 ms; an
# ELU and dropout of 65,536 elements from 0.58 to 0.60 ms and of 131,072
# from 1.07 to 0.96 ms.
SPLIT_MIN_MACS = 8 << 20
SPLIT_MIN_ELEMENTS = 1 << 17

# Numbers a dropout mask draws at a time, so its float64 buffer stays small.
_CHUNK = 1 << 14

# Largest block of banded input-gradient columns, in bytes, that a sample
# range holds at a time.
_BLOCK_BYTES = 1 << 20


def _row_pool():
    """One worker per usable core, made on the first pooled task, and no
    executor on one core; a command without one loads no thread machinery."""
    global _pool
    if _pool is None:
        import concurrent.futures

        if hasattr(os, "sched_getaffinity"):
            workers = len(os.sched_getaffinity(0))
        else:  # macOS
            workers = os.cpu_count() or 1
        _pool = (workers, concurrent.futures.ThreadPoolExecutor(workers) if workers > 1 else None)
    return _pool


def _submit(pool, fn, *args):
    """fn(*args) on the pool, in the caller's context, so under its `np.errstate`."""
    return pool.submit(contextvars.copy_context().run, fn, *args)


def _sample_ranges(n, big):
    """(lo, hi) ranges that cut a batch of n samples for `_by_sample`: one
    per worker, at most n, for more than one sample with `big` work on more
    than one core; the one range (0, n) otherwise."""
    m = min(_row_pool()[0], n) if big and n > 1 else 1
    cuts = [n * k // m for k in range(m + 1)]
    return list(zip(cuts, cuts[1:]))


def _by_sample(ranges, task):
    """task(lo, hi) for each of `_sample_ranges`, the first on the calling
    thread and the others on the pool; returns once all are done, and on an
    error once those in flight are. The caller allocates every buffer a
    range writes, each range its own slice or array."""
    futures = []
    try:
        for lo, hi in ranges[1:]:
            futures.append(_submit(_pool[1], task, lo, hi))
        task(*ranges[0])
        for future in futures:
            future.result()
    finally:
        for future in futures:
            future.exception()  # waits; an error of its own gives way to the one raised


def _pcg64_at(state, skip):
    """A PCG64 in `state` (a PCG64 state dict) moved on by `skip` 64-bit
    numbers, keeping the buffered 32-bit half that `advance` clears."""
    bits = np.random.PCG64(0)
    bits.state = state
    moved = bits.advance(skip).state
    moved["has_uint32"], moved["uinteger"] = state["has_uint32"], state["uinteger"]
    bits.state = moved
    return bits


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
    b = _coerce(b, a)

    def vjp(g, needs):
        return (
            _unbroadcast(g, a.shape) if needs[0] else None,
            _unbroadcast(g, b.shape) if needs[1] else None,
        )

    return _node(a.data + b.data, (a, b), vjp)


def sub(a, b):
    b = _coerce(b, a)

    def vjp(g, needs):
        return (
            _unbroadcast(g, a.shape) if needs[0] else None,
            _unbroadcast(neg(g), b.shape) if needs[1] else None,
        )

    return _node(a.data - b.data, (a, b), vjp)


def mul(a, b):
    b = _coerce(b, a)

    def vjp(g, needs):
        return (
            _unbroadcast(mul(g, b), a.shape) if needs[0] else None,
            _unbroadcast(mul(g, a), b.shape) if needs[1] else None,
        )

    return _node(a.data * b.data, (a, b), vjp)


def div(a, b):
    b = _coerce(b, a)

    def vjp(g, needs):
        ga = _unbroadcast(div(g, b), a.shape) if needs[0] else None
        gb = None
        if needs[1]:
            gb = _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape)
        return (ga, gb)

    return _node(a.data / b.data, (a, b), vjp)


def neg(a):
    def vjp(g, needs):
        return (neg(g),)

    return _node(-a.data, (a,), vjp)


def exp_t(a):
    out_data = np.exp(a.data)

    # The vjp must not close over the output node itself: that reference
    # cycle keeps every step's whole graph alive until a cycle collection.
    def vjp(g, needs):
        e = exp_t(a) if _grad_enabled else Tensor(out_data)
        return (mul(g, e),)

    return _node(out_data, (a,), vjp)


def log_t(a):
    def vjp(g, needs):
        return (div(g, a),)

    return _node(np.log(a.data), (a,), vjp)


def sqrt_t(a):
    out_data = np.sqrt(a.data)

    # Cycle-free for the same reason as exp_t.
    def vjp(g, needs):
        root = sqrt_t(a) if _grad_enabled else Tensor(out_data)
        return (div(mul_const(g, 0.5), maximum_const(root, _SQRT_FLOOR)),)

    return _node(out_data, (a,), vjp)


def mul_const(a, c):
    """Multiply by a non-differentiated constant (scalar or array).

    The constant broadcasts into `a`'s shape without enlarging it; this is
    the workhorse behind dropout masks, relu masks and scalar scaling, and it
    is linear, so its vjp is itself.
    """
    c = np.asarray(c, dtype=a.dtype)

    def vjp(g, needs):
        return (mul_const(g, c),)

    return _node(a.data * c, (a,), vjp)


def minimum_const(a, c):
    mask = (a.data < c).astype(a.dtype)

    def vjp(g, needs):
        return (mul_const(g, mask),)

    return _node(np.minimum(a.data, c), (a,), vjp)


def maximum_const(a, c):
    mask = (a.data > c).astype(a.dtype)

    def vjp(g, needs):
        return (mul_const(g, mask),)

    return _node(np.maximum(a.data, c), (a,), vjp)


def elu_dropout(a, elu, rate, rng):
    """An activation and a dropout as one node: the ELU (alpha 1)
    max(a, 0) + exp(min(a, 0)) - 1 if `elu`, or none, then, given an rng, an
    inverted-dropout mask that keeps each element with probability 1 - rate
    and scales it by 1 / (1 - rate).

    The node keeps only a bool keep-mask, with the numbers of one float64
    draw of the whole mask from `rng`, a PCG64 Generator, and its backward
    recomputes exp(min(a, 0)) from its parent `a` instead of keeping it.
    Both run by sample range (`_by_sample`). Cut into ranges, each range
    draws its part of the mask `_CHUNK` numbers at a time from a copy of the
    rng moved to its first number, and the rng is left where the one draw
    leaves it.
    """
    if not elu and rng is None:
        return a
    x = a.data.reshape(-1)
    n = a.shape[0] if a.ndim else 1
    per = x.size // n
    ranges = _sample_ranges(n, x.size >= SPLIT_MIN_ELEMENTS)
    out = np.empty_like(x)
    tmp = np.empty_like(x) if elu else None
    keep = None if rng is None else np.empty(x.shape, dtype=bool)
    kept = a.dtype.type(1) / a.dtype.type(1.0 - rate)
    state = None if rng is None else rng.bit_generator.state
    # Each range's float64 draws, a chunk at a time.
    drawn = {lo: np.empty(min(_CHUNK, (hi - lo) * per)) for lo, hi in ranges if rng is not None}

    def forward(lo, hi):
        r = slice(lo * per, hi * per)
        o = out[r]
        if elu:
            np.exp(np.minimum(x[r], 0, out=o), out=o)
            o -= 1
            o += np.maximum(x[r], 0, out=tmp[r])
        else:
            o[...] = x[r]
        if keep is not None:
            draws = rng if len(ranges) == 1 else np.random.Generator(_pcg64_at(state, r.start))
            for c in range(r.start, r.stop, _CHUNK):
                u = drawn[lo][: min(_CHUNK, r.stop - c)]
                np.greater_equal(draws.random(out=u), rate, out=keep[c : c + len(u)])
            # Times keep, then times `kept`: the bits of one product with a
            # float mask of 0 and `kept`.
            o *= keep[r]
            o *= kept

    _by_sample(ranges, forward)
    if len(ranges) > 1 and rng is not None:
        rng.bit_generator.state = _pcg64_at(state, x.size).state

    # The ELU's derivative is exp(min(a, 0)): 1 from 0 up, exp(a) below 0.
    def vjp(g, needs):
        if _grad_enabled:
            if keep is not None:
                g = mul_const(g, np.where(keep.reshape(a.shape), kept, 0))
            if elu:
                g = mul(g, exp_t(minimum_const(a, 0.0)))
            return (g,)
        # In place: times keep, `kept`, then exp(min(a, 0)), the bits of
        # g * where(keep, kept, 0) * exp(min(a, 0)).
        gd, xa = g.data.reshape(-1), a.data.reshape(-1)
        gx = np.empty_like(gd)
        tmp = np.empty_like(xa) if elu else None

        def backward(lo, hi):
            r = slice(lo * per, hi * per)
            o = gx[r]
            if keep is not None:
                np.multiply(gd[r], keep[r], out=o)
                o *= kept
            if elu:
                e = np.exp(np.minimum(xa[r], 0, out=tmp[r]), out=tmp[r])
                np.multiply(gd[r] if keep is None else o, e, out=o)

        _by_sample(ranges, backward)
        return (Tensor(gx.reshape(g.shape)),)

    return _node(out.reshape(a.shape), (a,), vjp)


def sum_t(a, axis=None, keepdims=False):
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


def mean_t(a):
    """Mean over all elements."""
    return mul_const(sum_t(a), 1.0 / a.size)


def broadcast_to(a, shape):
    shape = tuple(shape)

    def vjp(g, needs):
        return (_unbroadcast(g, a.shape),)

    return _node(np.ascontiguousarray(np.broadcast_to(a.data, shape)), (a,), vjp)


def reshape(a, shape):
    shape = tuple(shape)

    def vjp(g, needs):
        return (reshape(g, a.shape),)

    return _node(np.reshape(a.data, shape), (a,), vjp)


def transpose(a, axes=None):
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    inv = tuple(int(i) for i in np.argsort(axes))

    def vjp(g, needs):
        return (transpose(g, inv),)

    return _node(np.transpose(a.data, axes), (a,), vjp)


def matmul(a, b):
    b = _coerce(b, a)

    def vjp(g, needs):
        ga = matmul(g, transpose(b)) if needs[0] else None
        gb = matmul(transpose(a), g) if needs[1] else None
        return (ga, gb)

    return _node(a.data @ b.data, (a, b), vjp)


def concat_t(parts, axis):
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
    axis = axis % a.ndim
    idx = tuple(slice(start, stop) if i == axis else slice(None) for i in range(a.ndim))
    after = a.shape[axis] - stop

    def vjp(g, needs):
        return (pad_axis(g, axis, start, after),)

    return _node(np.ascontiguousarray(a.data[idx]), (a,), vjp)


def pad_axis(a, axis, before, after):
    axis = axis % a.ndim
    widths = [(0, 0)] * a.ndim
    widths[axis] = (before, after)

    def vjp(g, needs):
        return (slice_axis(g, axis, before, before + a.shape[axis]),)

    return _node(np.pad(a.data, widths), (a,), vjp)


def repeat_rows(a, factor, axis=2):
    """Repeat each index along `axis` `factor` times (nearest-neighbour upsample)."""
    axis = axis % a.ndim
    expanded = a.shape[:axis] + (a.shape[axis], factor) + a.shape[axis + 1 :]

    def vjp(g, needs):
        return (sum_t(reshape(g, expanded), axis=axis + 1),)

    return _node(np.repeat(a.data, factor, axis=axis), (a,), vjp)


# ---------------------------------------------------------------------------
# Convolution primitives (NCHW, stride >= 1, symmetric-as-possible zero
# padding with the extra row/column at the bottom/right, output ceil(n/s)).
# They check no shapes: `layers.infer_shapes` checks a stack's maps and
# geometry once, when it is built, and `Model.forward` each batch's shape.
# ---------------------------------------------------------------------------


def conv_same_geometry(h, w, kh, kw, sh, sw):
    """Output size and pad widths for same-style padded convolution."""
    oh = -(-h // sh)
    ow = -(-w // sw)
    ph = max((oh - 1) * sh + kh - h, 0)
    pw = max((ow - 1) * sw + kw - w, 0)
    return oh, ow, ph // 2, ph - ph // 2, pw // 2, pw - pw // 2


# Largest band, in bytes: it keeps every desk-width conv, both full-width stems
# and the one-map projection banded, and no other full-width conv. Below it the
# band ran faster than kernel rows at batch 64, the projection's up to 20x.
BAND_MAX_BYTES = 2 << 20


def _banded(co, oh, kw, ci, h, dtype):
    """Lowering rule of all three kernels: the (co*oh x kw*ci*h) band fits."""
    return co * oh * kw * ci * h * np.dtype(dtype).itemsize <= BAND_MAX_BYTES


def _tap_span(j, sw, pl, wi, ow):
    """(lo, hi, s): output columns lo..hi-1 of width tap j read the input,
    from input column s on every sw-th; the others read the padding."""
    lo, hi = max(-((j - pl) // sw), 0), min((wi - 1 + pl - j) // sw + 1, ow)
    return lo, hi, j + sw * lo - pl


def _width_cols(x, kw, sw, ow, pads, by_sample):
    """(n, c, h, w) -> width-only columns of `x` padded by pads = (top,
    bottom, left, right): (n, kw, c*hp, ow) by sample, a view of a contiguous
    `x` when kw = sw = 1 and nothing is padded, or (kw*c*hp, n*ow), the
    operand of the banded weight gradient; otherwise one copy, a strided
    copy of `x` per tap into zeros."""
    pt, pb, pl, _ = pads
    n, c, h, wi = x.shape
    if by_sample and kw == sw == 1 and not any(pads):
        return x.reshape(n, 1, c * h, wi)
    shape = (n, kw, c, h + pt + pb, ow) if by_sample else (kw, c, h + pt + pb, n, ow)
    cols = np.zeros(shape, x.dtype)
    # Tap j's (n, c, hp, ow) columns, whichever the layout.
    taps = cols.transpose(1, 0, 2, 3, 4) if by_sample else cols.transpose(0, 3, 1, 2, 4)
    for j in range(kw):
        lo, hi, s = _tap_span(j, sw, pl, wi, ow)
        if lo < hi:
            taps[j, :, :, pt : pt + h, lo:hi] = x[..., s : s + sw * (hi - lo - 1) + 1 : sw]
    if by_sample:
        return cols.reshape(n, kw, -1, ow)
    return cols.reshape(-1, n * ow)


def _width_scatter(gc, gx, sw, pl):
    """Adjoint of `_width_cols` by sample: (n, kw, ..., ow) columns added into
    `gx`, (n, ..., wi) zeros, leaving out those in the padding."""
    ow, wi = gc.shape[-1], gx.shape[-1]
    for j in range(gc.shape[1]):
        lo, hi, s = _tap_span(j, sw, pl, wi, ow)
        if lo < hi:
            gx[..., s : s + sw * (hi - lo - 1) + 1 : sw] += gc[:, j, ..., lo:hi]


def _tap_rows(cols, ci, sh, oh, i):
    """(kw, ci, oh, ow) view of the rows of (kw, ci*hp, ow) columns that kernel row i reads."""
    kw, _, ow = cols.shape
    return cols.reshape(kw, ci, -1, ow)[:, :, i : i + sh * (oh - 1) + 1 : sh]


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


def _kernel_rows(kh, product, into, shape, dtype):
    """into(i) += product(i, out) for each kernel row i, in row order: on the
    pool at most one per worker ahead of the sum, each into one of that many
    `shape` buffers, inline if one; on an error, those in flight finish first."""
    workers, pool = _row_pool()
    bufs = [np.empty(shape, dtype) for _ in range(min(workers, kh))]
    if len(bufs) == 1:
        for i in range(kh):
            rows = into(i)
            rows += product(i, bufs[0]).reshape(rows.shape)
        return
    ahead, pending = len(bufs), []
    try:
        for i in range(kh + ahead):
            if i >= ahead:
                rows = into(i - ahead)
                rows += pending[0].result().reshape(rows.shape)
                pending.pop(0)
            if i < kh:
                pending.append(_submit(pool, product, i, bufs[i % ahead]))
    finally:
        for future in pending:
            future.exception()  # waits; an error of its own gives way to the one raised


def _conv_forward(x, w, sh, sw):
    n, ci, h, wi = x.shape
    co, _, kh, kw = w.shape
    oh, ow, pt, pb, pl, pr = conv_same_geometry(h, wi, kh, kw, sh, sw)
    if _banded(co, oh, kw, ci, h, x.dtype):
        # One product per sample on its own columns; (n, co*oh, ow) is NCHW.
        band = _band(w, h, sh, oh, pt)
        cols = _width_cols(x, kw, sw, ow, (0, 0, pl, pr), True).reshape(n, kw * ci * h, ow)
        y = np.empty((n, co * oh, ow), dtype=np.result_type(x, w))
        _by_sample(_sample_ranges(n, n * band.size * ow >= SPLIT_MIN_MACS),
                   lambda lo, hi: np.matmul(band, cols[lo:hi], out=y[lo:hi]))
        return y.reshape(n, co, oh, ow)
    rows_w = w.transpose(2, 0, 3, 1).reshape(kh, co, kw * ci)
    y = np.zeros((n, co, oh * ow), dtype=np.result_type(x, w))
    for k in range(n):
        cols = np.ascontiguousarray(
            _width_cols(x[k : k + 1], kw, sw, ow, (pt, pb, pl, pr), True)[0])
        _kernel_rows(kh, lambda i, out: np.matmul(
            rows_w[i], _tap_rows(cols, ci, sh, oh, i).reshape(kw * ci, oh * ow), out=out),
            lambda i: y[k], (co, oh * ow), y.dtype)
    return y.reshape(n, co, oh, ow)


def _conv_input_grad(gd, wd, h, wi, sh, sw):
    n, co, oh, ow = gd.shape
    ci, kh, kw = wd.shape[1], wd.shape[2], wd.shape[3]
    _, _, pt, pb, pl, pr = conv_same_geometry(h, wi, kh, kw, sh, sw)
    dtype = np.result_type(gd, wd)
    # A one-column kernel at width stride 1: the columns are the gradient.
    direct = kw == 1 and sw == 1
    if _banded(co, oh, kw, ci, h, gd.dtype):
        band_t = _band(wd, h, sh, oh, pt).T
        g3 = gd.reshape(n, co * oh, ow)
        ranges = _sample_ranges(n, n * band_t.size * ow >= SPLIT_MIN_MACS)
        if direct:
            gx = np.empty((n, ci * h, ow), dtype)
            _by_sample(ranges, lambda lo, hi: np.matmul(band_t, g3[lo:hi], out=gx[lo:hi]))
            return gx.reshape(n, ci, h, wi)
        # Each range computes the columns of `step` samples at a time, into
        # a block of its own, and adds them into its slice of the gradient.
        step = max(1, _BLOCK_BYTES // (band_t.shape[0] * ow * dtype.itemsize))
        blocks = {lo: np.empty((min(step, hi - lo), kw, ci * h, ow), dtype) for lo, hi in ranges}
        gx = np.zeros((n, ci * h, wi), dtype)

        def rows(lo, hi):
            for b in range(lo, hi, step):
                gc = blocks[lo][: min(step, hi - b)]
                np.matmul(band_t, g3[b : b + len(gc)], out=gc.reshape(len(gc), -1, ow))
                _width_scatter(gc, gx[b : b + len(gc)], sw, pl)

        _by_sample(ranges, rows)
        return gx.reshape(n, ci, h, wi)
    rows_w = wd.transpose(2, 0, 3, 1).reshape(kh, co, kw * ci)
    gx = np.zeros((n, ci, h, wi), dtype)
    for k in range(n):
        g2 = gd[k].reshape(co, oh * ow)
        gc = np.zeros((kw, ci * (h + pt + pb), ow), dtype=dtype)
        _kernel_rows(kh, lambda i, out: np.matmul(rows_w[i].T, g2, out=out),
                     lambda i: _tap_rows(gc, ci, sh, oh, i), (kw * ci, oh * ow), dtype)
        gc = gc.reshape(1, kw, ci, -1, ow)[:, :, :, pt : pt + h]  # the input's rows
        if direct:
            gx[k] = gc[0, 0]
        else:
            _width_scatter(gc, gx[k : k + 1], sw, pl)
    return gx


def _banded_weight_grad(gd, x, kh, kw, sh, sw):
    """The banded weight gradient as a task that returns it, its operands and
    its output allocated here: one whole-batch product, summing over samples
    and columns at once, then the adjoint of the band build."""
    n, co, oh, ow = gd.shape
    ci, h = x.shape[1], x.shape[2]
    _, _, pt, _, pl, pr = conv_same_geometry(h, x.shape[3], kh, kw, sh, sw)
    cols = _width_cols(x, kw, sw, ow, (0, 0, pl, pr), False)
    g2 = gd.transpose(1, 2, 0, 3).reshape(co * oh, n * ow)
    gband = np.empty((co * oh, kw * ci * h), dtype=np.result_type(gd, x))
    gw = np.zeros((kh, co, kw, ci), dtype=gband.dtype)
    r, s, i = _band_taps(h, kh, sh, oh, pt)

    def task():
        np.matmul(g2, cols.T, out=gband)
        # Adjoint of the band build: sum each kernel row's diagonal.
        np.add.at(gw, i, gband.reshape(co, oh, kw, ci, h)[:, r, :, :, s])
        return gw.transpose(1, 3, 0, 2)

    return task


def _conv_weight_grad(gd, x, kh, kw, sh, sw):
    n, co, oh, ow = gd.shape
    ci, h = x.shape[1], x.shape[2]
    if _banded(co, oh, kw, ci, h, x.dtype):
        return _banded_weight_grad(gd, x, kh, kw, sh, sw)()
    _, _, pt, pb, pl, pr = conv_same_geometry(h, x.shape[3], kh, kw, sh, sw)
    # Summed in the layout of the products: a strided add into (co, ci, kh,
    # kw) took as long as the product itself.
    gw = np.zeros((kh, co, kw, ci), dtype=np.result_type(gd, x))
    for k in range(n):
        cols = np.ascontiguousarray(
            _width_cols(x[k : k + 1], kw, sw, ow, (pt, pb, pl, pr), True)[0])
        g2 = gd[k].reshape(co, oh * ow)
        _kernel_rows(kh, lambda i, out: np.matmul(
            g2, _tap_rows(cols, ci, sh, oh, i).reshape(kw * ci, oh * ow).T, out=out),
            lambda i: gw[i], (co, kw * ci), gw.dtype)
    return gw.transpose(1, 3, 0, 2)  # (co, ci, kh, kw) in kernel-row order, as a Model weight


def _pooled_weight_grad(g, x, kh, kw, sh, sw):
    """A future of the weight gradient Tensor of a banded layer, its task on
    the pool, at a batch of more than one sample with enough work on more
    than one core; None otherwise. `grad` waits on it."""
    n, co, oh, ow = g.shape
    ci, h = x.shape[1], x.shape[2]
    if (n == 1 or not _banded(co, oh, kw, ci, h, x.dtype)
            or n * co * oh * kw * ci * h * ow < SPLIT_MIN_MACS):
        return None
    _, pool = _row_pool()
    if pool is None:
        return None
    task = _banded_weight_grad(g.data, x.data, kh, kw, sh, sw)
    return _submit(pool, lambda: Tensor(task()))


def conv2d(x, w, stride=(1, 1), b=None):
    """Same-padded 2-D convolution (cross-correlation), NCHW by OIHW, plus
    the per-map bias `b`, when given, added in place into the output."""
    sh, sw = int(stride[0]), int(stride[1])
    y = _conv_forward(x.data, w.data, sh, sw)
    h, wi = x.shape[2], x.shape[3]
    co, kh, kw = w.shape[0], w.shape[2], w.shape[3]
    parents = (x, w)
    if b is not None:
        y += b.data.reshape(1, co, 1, 1)
        parents = (x, w, b)

    def vjp(g, needs):
        # Outside a graph, a banded weight gradient can run on the pool
        # beside the input gradient, so it goes first.
        gw = _pooled_weight_grad(g, x, kh, kw, sh, sw) if needs[1] and not _grad_enabled else None
        done = False
        try:
            gx = conv2d_input_grad(g, w, (h, wi), (sh, sw)) if needs[0] else None
            done = True
        finally:
            if gw is not None and not done:
                gw.exception()  # waits, so that no task outlives an error
        if needs[1] and gw is None:
            gw = conv2d_weight_grad(g, x, (kh, kw), (sh, sw))
        gb = None
        if len(needs) > 2 and needs[2]:
            # Reduced as the vjp of a broadcast (1, co, 1, 1) add reduces it,
            # which fixes the summation order of the bias gradient.
            gb = reshape(_unbroadcast(g, (1, co, 1, 1)), b.shape)
        return (gx, gw, gb)

    return _node(y, parents, vjp)


def conv2d_input_grad(g, w, input_hw, stride=(1, 1)):
    """Adjoint of conv2d with respect to its input."""
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
        for p in node._parents or ():  # None once consumed; grad refuses it
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def grad(output, wrt, create_graph=False):
    """Gradients of a scalar `output` with respect to each tensor in `wrt`.

    With ``create_graph=True`` the returned gradients carry their own
    computation graph and can be differentiated again, and the graph of
    `output` is kept. Without it each node drops its parents and its vjp once
    visited, freeing activations during the backward pass; a later `grad`
    through any node of the consumed graph raises RuntimeError. Targets the
    output does not depend on get zero gradients. A weight gradient that runs
    on the pool is waited on before it is read, and before `grad` returns or
    raises, so every gradient returned is finished.
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
        if node._parents is None:
            raise RuntimeError("grad over a graph an earlier grad consumed; run the forward "
                               "again, or keep the graph with create_graph=True")
        needed[id(node)] = id(node) in wrt_ids or any(
            needed.get(id(p), False) for p in node._parents
        )

    # A cotangent is a Tensor, or a future of one: a weight gradient still
    # being computed on the pool, waited on before it is read.
    cot = {id(output): Tensor(np.ones(output.shape, dtype=output.dtype))}
    ctx = contextlib.nullcontext() if create_graph else no_grad()
    try:
        with ctx:
            while order:
                node = order.pop()
                parents, vjp = node._parents, node._vjp
                if vjp is not None and not create_graph:
                    node._parents, node._vjp = None, None
                g = cot.get(id(node))
                if g is None or vjp is None:
                    continue
                needs = tuple(p.requires_grad and needed.get(id(p), False) for p in parents)
                g = _done(g)
                if id(node) not in wrt_ids:
                    del cot[id(node)]
                if not any(needs):
                    continue
                for p, pg in zip(parents, vjp(g, needs)):
                    if pg is None:
                        continue
                    prev = cot.get(id(p))
                    cot[id(p)] = pg if prev is None else add(_done(prev), _done(pg))
        return [_done(cot[id(t)]) if id(t) in cot else Tensor(np.zeros_like(t.data))
                for t in wrt]
    finally:
        for c in cot.values():
            if not isinstance(c, Tensor):
                c.exception()  # waits; an error of its own gives way to the one raised


def _done(c):
    """A cotangent as a Tensor, once a pooled one is computed."""
    return c if isinstance(c, Tensor) else c.result()
