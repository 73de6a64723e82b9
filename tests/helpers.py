"""Shared test utilities: finite-difference gradients and small fixtures."""
from __future__ import annotations

import contextlib
import tracemalloc

import numpy as np

from eegsr.data import EpochSet
from eegsr.nn import functional as F
from eegsr.nn import tensor as T
from eegsr.nn.tensor import Tensor, grad


def epoch_set(values, label=None, subject="s01", origins=None, index=None, **kwargs):
    """EpochSet over `values` (n, channels, samples), or over the rows
    `values[index]` given an `index`: every row gets `label` and `subject`;
    origins default to back-to-back rows 0, t, 2t, ..."""
    values = np.asarray(values, dtype=np.float64)
    n, t = len(values if index is None else index), values.shape[2]
    return EpochSet(values, None if label is None else np.full(n, label), np.full(n, subject),
                    np.arange(n) * t if origins is None else origins, index=index, **kwargs)


# Float bit patterns that equality misjudges: both zeros, and NaNs of several
# payloads and signs. Rows holding them are distinct by their bytes.
ODD_BITS = (0, 1 << 63, 0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
            0x7FF0000000000001)


def odd_rows():
    """Six (1, 2) rows of ODD_BITS that differ only in the sign of a zero or
    the payload of a NaN: rows 0..5 repeat distinct rows 0, 1, 0, 2, 3, 2."""
    bits = np.array([ODD_BITS[:2], ODD_BITS[1:3], ODD_BITS[:2], ODD_BITS[2:4], ODD_BITS[3:5],
                     ODD_BITS[2:4]], dtype=np.uint64)
    return bits.view(np.float64)[:, None]


def same_set(a, b):
    """Bit-identical rows (`EpochSet.rows()`: -0.0 and 0.0 differ) and
    identical metadata."""
    a_rows, b_rows = a.rows(), b.rows()
    return (a_rows.shape == b_rows.shape and a_rows.tobytes() == b_rows.tobytes()
            and (a.labels is None) == (b.labels is None)
            and (a.labels is None or np.array_equal(a.labels, b.labels))
            and np.array_equal(a.subject_ids, b.subject_ids)
            and np.array_equal(a.origins, b.origins)
            and (a.split, a.fs, a.channel_labels) == (b.split, b.fs, b.channel_labels))


def same_bits(a, b):
    """Equal dtype, shape and bytes: -0.0 and 0.0 differ."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def fd_grad(fn, arrays, index, h=1e-5):
    """Central-difference gradient of scalar fn(*arrays) wrt arrays[index]."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    x = arrays[index]
    g = np.zeros_like(x)
    # By index, not through x.reshape(-1): that is a copy when x is not
    # C-ordered, such as a kernel-row-ordered conv weight.
    for i in np.ndindex(x.shape):
        orig = x[i]
        x[i] = orig + h
        fp = float(fn(*arrays))
        x[i] = orig - h
        fm = float(fn(*arrays))
        x[i] = orig
        g[i] = (fp - fm) / (2.0 * h)
    return g


def check_grads(fn, arrays, rtol=1e-4, h=1e-5):
    """Compare autodiff gradients of scalar fn against finite differences.

    fn is called with Tensor arguments when differentiating and numpy arrays
    when evaluating for finite differences. Returns the worst relative error.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    gs = grad(out, tensors)

    def numeric_fn(*args):
        return fn(*[Tensor(a) for a in args]).item()

    worst = 0.0
    for i, gt in enumerate(gs):
        gn = fd_grad(numeric_fn, arrays, i, h=h)
        err = np.abs(gt.data - gn) / (1.0 + np.abs(gn))
        worst = max(worst, float(err.max()) if err.size else 0.0)
        assert err.max() < rtol, (
            f"gradient {i} mismatch: max rel err {err.max():.3e} (rtol {rtol:.1e})"
        )
    return worst


LOWERINGS = ("banded", "tap_rows")


@contextlib.contextmanager
def lowering(name):
    """Run every conv kernel in the block by one lowering, "banded" or
    "tap_rows", whatever the size of its band."""
    cap = T.BAND_MAX_BYTES
    T.BAND_MAX_BYTES = float("inf") if name == "banded" else 0
    try:
        yield
    finally:
        T.BAND_MAX_BYTES = cap


def reference_conv(x, w, stride):
    """Same-padded conv2d and both adjoints by direct summation, f64.

    Independent of the library's lowering: explicit padding, a window view
    and einsum. Returns (y, input_grad(g), weight_grad(g)) as functions of g
    through a closure, with g the output cotangent.
    """
    (n, ci, h, wi), (co, _, kh, kw), (sh, sw) = x.shape, w.shape, stride
    oh, ow = -(-h // sh), -(-wi // sw)
    ph, pw = max((oh - 1) * sh + kh - h, 0), max((ow - 1) * sw + kw - wi, 0)
    xp = np.pad(x, ((0, 0), (0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::sh, ::sw][:, :, :oh, :ow]  # (n, ci, oh, ow, kh, kw)
    y = np.einsum("ncrqij,ocij->norq", win, w)

    def input_grad(g):
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i : i + sh * (oh - 1) + 1 : sh, j : j + sw * (ow - 1) + 1 : sw] += (
                    np.einsum("norq,oc->ncrq", g, w[:, :, i, j]))
        return gxp[:, :, ph // 2 : ph // 2 + h, pw // 2 : pw // 2 + wi]

    def weight_grad(g):
        return np.einsum("norq,ncrqij->ocij", g, win)

    return y, input_grad, weight_grad


# ---------------------------------------------------------------------------
# Earlier kernels, kept as bit-identity references for their replacements
# ---------------------------------------------------------------------------


def _select(mask, a, b):
    """`a` where the constant mask holds, else `b`, as one graph node."""
    fmask = mask.astype(a.dtype)

    def vjp(g, needs):
        return (T.mul_const(g, fmask) if needs[0] else None,
                T.mul_const(g, 1.0 - fmask) if needs[1] else None)

    return T._node(np.where(mask, a.data, b.data), (a, b), vjp)


def composed_elu(x):
    """The composed ELU that the one-node ELU replaced: min, exp, -1, then a
    select on x >= 0, node for node (its exact *alpha node at alpha 1 left out)."""
    neg_branch = T.exp_t(T.minimum_const(x, 0.0)) - 1.0
    return _select(x.data >= 0, x, neg_branch)


def elu_t(a):
    """The one-node ELU that `tensor.elu_dropout` took in, as it was at
    alpha 1: max(a, 0) + exp(min(a, 0)) - 1, branch-free."""
    e = np.exp(np.minimum(a.data, 0))
    out = e - 1
    out += np.maximum(a.data, 0)

    # The derivative is 1 from 0 up, where e == 1, and e below 0.
    def vjp(g, needs):
        if T._grad_enabled:
            return (T.mul(g, T.exp_t(T.minimum_const(a, 0.0))),)
        return (Tensor(g.data * e),)

    return T._node(out, (a,), vjp)


def composed_layers_forward(model, x, rng=None):
    """`Model.forward` as it was before the fused nodes, node for node: conv2d,
    then an add of the bias reshaped to (1, co, 1, 1), then the layer's
    activation (`elu_t` for an ELU), then its dropout as a float mask of 0
    and 1 / (1 - rate) drawn in one call and applied by mul_const."""
    outs = []
    for i, ls in enumerate(model.specs):
        cur = x if i == 0 else outs[i - 1]
        if ls.kind in ("conv", "dense"):
            w, b = model.params[i]
            if ls.kind == "conv":
                y = T.conv2d(cur, w, ls.stride) + T.reshape(b, (1, b.size, 1, 1))
            else:
                y = F.dense_layer(cur, w, b)
            if ls.activation == "elu":
                y = elu_t(y)
            elif ls.activation == "relu":
                y = F.relu(y)
            elif ls.activation == "softmax":
                y = F.softmax(y)
            if rng is not None and ls.dropout_rate:
                mask = (rng.random(y.shape) >= ls.dropout_rate).astype(y.dtype)
                mask /= 1.0 - ls.dropout_rate
                y = T.mul_const(y, mask)
        elif ls.kind == "upsample":
            y = T.repeat_rows(cur, ls.kernel_dims[0], axis=2)
        elif ls.kind == "concat":
            y = T.concat_t([x if s == -1 else outs[s] for s in ls.concat_sources], axis=1)
        else:
            y = F.flatten(cur)
        outs.append(y)
    return outs[-1]


def _whole_batch_width_cols(x, kw, sw, ow, pl, pr):
    """(n, c, h, w) -> (kw*c*h, n*ow): the columns of every sample side by side."""
    n, c, h = x.shape[:3]
    v = np.lib.stride_tricks.sliding_window_view(np.pad(x, ((0, 0),) * 3 + ((pl, pr),)), kw,
                                                 axis=3)
    v = v[:, :, :, ::sw][:, :, :, :ow]
    return v.transpose(4, 1, 2, 0, 3).reshape(kw * c * h, n * ow)


def whole_batch_banded_forward(x, w, sh, sw):
    """Banded conv forward as one product over the whole batch's columns."""
    n, ci, h, wi = x.shape
    co, _, kh, kw = w.shape
    oh, ow, pt, _, pl, pr = T.conv_same_geometry(h, wi, kh, kw, sh, sw)
    cols = _whole_batch_width_cols(x, kw, sw, ow, pl, pr)
    y = (T._band(w, h, sh, oh, pt) @ cols).reshape(co, oh, n, ow).transpose(2, 0, 1, 3)
    return np.ascontiguousarray(y)


def whole_batch_banded_input_grad(gd, wd, h, wi, sh, sw):
    """Banded conv input gradient as one product over the whole batch."""
    n, co, oh, ow = gd.shape
    ci, kh, kw = wd.shape[1:]
    _, _, pt, _, pl, pr = T.conv_same_geometry(h, wi, kh, kw, sh, sw)
    g2 = gd.transpose(1, 2, 0, 3).reshape(co * oh, n * ow)
    gc = (T._band(wd, h, sh, oh, pt).T @ g2).reshape(kw, ci, h, n, ow)
    gxw = np.zeros((ci, h, n, wi + pl + pr), dtype=gd.dtype)
    for j in range(kw):
        gxw[..., j : j + sw * (ow - 1) + 1 : sw] += gc[j]
    return np.ascontiguousarray(gxw[..., pl : pl + wi].transpose(2, 0, 1, 3))


def peak_bytes(run):
    """(result, tracemalloc peak in bytes above what was held before `run`)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = run()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
