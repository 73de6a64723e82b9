"""Autodiff engine: primitive gradients, convolution adjoints, grad-of-grad."""
import time
import weakref

import numpy as np
import pytest

from eegsr.models import (
    DiscriminatorConfig,
    GeneratorConfig,
    build_generator,
    discriminator_specs,
    generator_specs,
)
from eegsr.nn import functional as F
from eegsr.nn.layers import Model, conv
from eegsr.nn import tensor as tensor_module
from eegsr.nn.tensor import (
    Tensor,
    _banded,
    concat_t,
    conv2d,
    conv2d_input_grad,
    conv2d_weight_grad,
    conv_same_geometry,
    div,
    elu_dropout,
    grad,
    matmul,
    mul_const,
    no_grad,
    repeat_rows,
    reshape,
    slice_axis,
    sqrt_t,
    sum_t,
    transpose,
)

from helpers import (
    LOWERINGS,
    check_grads,
    composed_elu,
    elu_t,
    lowering,
    peak_bytes,
    reference_conv,
    same_bits,
    whole_batch_banded_forward,
    whole_batch_banded_input_grad,
)

RNG = np.random.default_rng(20260801)


def square(t):
    return t * t


def test_scalar_chain_matches_hand_derivative():
    x = Tensor(np.array(0.7), requires_grad=True)
    y = x * x * 3.0 + div(Tensor(np.array(2.0)), x)
    (g,) = grad(y, [x])
    expected = 6.0 * 0.7 - 2.0 / 0.7**2
    assert abs(g.item() - expected) < 1e-12


@pytest.mark.parametrize("name, const", [(name, const) for name in ("add", "sub", "mul", "div")
                                         for const in (1.5, np.full(3, 1.5))]
                         + [("matmul", np.full((3, 2), 1.5))])
def test_a_constant_second_operand_takes_the_tensors_dtype(name, const):
    # `norms - 1.0`, `x - shift`: a number or a float64 array beside a float32
    # Tensor is a float32 constant, so neither the result nor its gradient widens.
    a = Tensor(RNG.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
    out = getattr(tensor_module, name)(a, const)
    (g,) = grad(sum_t(out), [a])
    assert (out.dtype, g.dtype) == (np.float32, np.float32)


def test_grad_on_untracked_output_raises():
    x = Tensor(np.ones(3))
    y = sum_t(x * 2.0)
    with pytest.raises(RuntimeError):
        grad(y, [x])


def test_grad_of_nonscalar_raises():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        grad(x * 2.0, [x])


def test_unused_target_gets_zero_gradient():
    x = Tensor(np.array(2.0), requires_grad=True)
    z = Tensor(np.array(5.0), requires_grad=True)
    (gx, gz) = grad(x * x, [x, z])
    assert gx.item() == 4.0
    assert gz.item() == 0.0
    assert gz.shape == z.shape


def test_no_grad_blocks_recording():
    x = Tensor(np.array(1.5), requires_grad=True)
    with no_grad():
        y = x * x
    assert not y.requires_grad
    assert y._vjp is None


def test_broadcast_add_and_mul_grads():
    a = RNG.normal(size=(4, 3))
    b = RNG.normal(size=(3,))
    check_grads(lambda x, y: sum_t((x + y) * (x * y + 2.0)), [a, b])


def test_elementwise_primitives_against_fd():
    x = RNG.uniform(0.5, 2.0, size=(3, 5))
    check_grads(lambda t: sum_t(F.relu(t * t - 1.5)), [x])
    check_grads(lambda t: sum_t(sqrt_t(t)), [x])
    for elu, rate in ((True, 0.0), (True, 0.3), (False, 0.3)):
        # A fresh rng per call: every evaluation draws the same mask.
        check_grads(lambda t: sum_t(square(elu_dropout(
            t - 1.0, elu, rate, np.random.default_rng(2) if rate else None))), [x])


def test_structural_primitives_against_fd():
    x = RNG.normal(size=(2, 3, 4))
    check_grads(lambda t: sum_t(transpose(t, (2, 0, 1)) * 1.5), [x])
    check_grads(lambda t: sum_t(square(reshape(t, (6, 4)))), [x])
    check_grads(lambda t: sum_t(square(slice_axis(t, 1, 1, 3))), [x])
    check_grads(lambda t: sum_t(square(repeat_rows(t, 3, axis=2))), [x])
    a = RNG.normal(size=(2, 2, 4))
    check_grads(lambda t, u: sum_t(square(concat_t([t, u], 1))), [x, a])


def test_matmul_grads():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4, 2))
    check_grads(lambda x, y: sum_t(square(matmul(x, y))), [a, b])


def test_mul_const_mask_gradient_is_masked():
    x = Tensor(RNG.normal(size=(5,)), requires_grad=True)
    mask = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    (g,) = grad(sum_t(mul_const(x, mask)), [x])
    assert np.array_equal(g.data, mask)


def test_same_geometry_matches_ceil_rule():
    # (input, kernel, stride) -> output = ceil(input / stride)
    for h, k, s in [(16, 17, 1), (64, 3, 3), (16, 9, 4), (64, 3, 4), (5, 2, 2)]:
        oh, _, pt, pb, _, _ = conv_same_geometry(h, 1, k, 1, s, 1)
        assert oh == -(-h // s)
        assert pt + pb == max((oh - 1) * s + k - h, 0)
        assert pb - pt in (0, 1)


def test_conv2d_centre_value_hand_computed():
    # 3x3 all-ones kernel over a 5x5 ramp: centre output is the 3x3 sum.
    x = np.arange(25, dtype=np.float64).reshape(1, 1, 5, 5)
    w = np.ones((1, 1, 3, 3))
    y = conv2d(Tensor(x), Tensor(w)).data
    assert y.shape == (1, 1, 5, 5)
    assert y[0, 0, 2, 2] == x[0, 0, 1:4, 1:4].sum()
    # Top-left corner only sees the 2x2 valid patch.
    assert y[0, 0, 0, 0] == x[0, 0, 0:2, 0:2].sum()


def _lowering(x_shape, w_shape, stride=(1, 1), dtype=np.float32):
    """The lowering the shape rule picks; the batch, x_shape[0], plays no part."""
    oh, *_ = conv_same_geometry(x_shape[2], x_shape[3], w_shape[2], w_shape[3], *stride)
    co, ci, _, kw = w_shape
    return "banded" if _banded(co, oh, kw, ci, x_shape[2], dtype) else "tap_rows"


def test_conv2d_gradients_against_fd():
    for ws in ((4, 3, 3, 3), (1, 3, 5, 3)):
        x = RNG.normal(size=(2, 3, 6, 7))
        w = RNG.normal(size=ws) * 0.3
        for name in LOWERINGS:
            with lowering(name):
                check_grads(lambda a, b: sum_t(square(conv2d(a, b))), [x, w])


def test_strided_conv_gradients_against_fd():
    for ws in ((3, 2, 3, 3), (1, 2, 3, 3)):
        x = RNG.normal(size=(2, 2, 8, 9))
        w = RNG.normal(size=ws) * 0.3
        for name in LOWERINGS:
            with lowering(name):
                check_grads(lambda a, b: sum_t(square(conv2d(a, b, (2, 3)))), [x, w])


def test_conv_adjoint_identity():
    # <conv(x, w), g> == <x, input_grad(g, w)> == <w, weight_grad(g, x)>
    for ws in ((4, 3, 3, 3), (2, 3, 3, 3)):
        x = RNG.normal(size=(2, 3, 6, 6))
        w = RNG.normal(size=ws)
        g = RNG.normal(size=(2, ws[0], 3, 3))
        for name in LOWERINGS:
            with lowering(name):
                y = conv2d(Tensor(x), Tensor(w), (2, 2)).data
                gx = conv2d_input_grad(Tensor(g), Tensor(w), (6, 6), (2, 2)).data
                gw = conv2d_weight_grad(Tensor(g), Tensor(x), (3, 3), (2, 2)).data
            lhs = float((y * g).sum())
            assert abs(lhs - float((x * gx).sum())) < 1e-9 * abs(lhs)
            assert abs(lhs - float((w * gw).sum())) < 1e-9 * abs(lhs)


# (input, weight, stride), each run by both lowerings: kh > h, kh = 1 with
# kw = 3, strides (4, 4) and (2, 3), even kernel sizes, a single output map
# and a single input row.
REFERENCE_CASES = [
    pytest.param((64, 1, 8, 16), (2, 1, 9, 1), (1, 1), id="desk-stem"),
    pytest.param((3, 2, 16, 10), (1, 2, 17, 1), (1, 1), id="kh17-h16-co1"),
    pytest.param((1, 2, 16, 4), (3, 2, 17, 1), (1, 1), id="kh17-h16"),
    pytest.param((5, 3, 8, 11), (2, 3, 1, 3), (1, 1), id="1x3"),
    pytest.param((1, 2, 8, 5), (4, 2, 1, 3), (1, 1), id="1x3-n1"),
    pytest.param((4, 2, 16, 12), (3, 2, 9, 3), (4, 4), id="stride4x4"),
    pytest.param((1, 3, 16, 8), (6, 3, 5, 3), (4, 4), id="stride4x4-5x3"),
    pytest.param((2, 2, 8, 9), (1, 2, 3, 3), (2, 3), id="stride2x3-co1"),
    pytest.param((2, 3, 6, 7), (4, 3, 3, 3), (1, 1), id="3x3"),
    pytest.param((3, 2, 8, 6), (6, 2, 3, 3), (1, 1), id="3x3-n3"),
    pytest.param((3, 3, 16, 8), (6, 3, 5, 3), (2, 3), id="stride2x3-n3"),
    pytest.param((2, 3, 7, 6), (4, 3, 4, 2), (1, 1), id="4x2"),
    pytest.param((2, 3, 7, 6), (4, 3, 4, 2), (2, 2), id="4x2-stride2x2"),
    # h = 1 under a 3-row kernel: two of the three kernel rows never touch the input.
    pytest.param((1, 2, 1, 5), (2, 2, 3, 3), (1, 1), id="h1"),
]


@pytest.mark.parametrize("x_shape, w_shape, stride", REFERENCE_CASES)
@pytest.mark.parametrize("name", LOWERINGS)
def test_conv_kernels_match_reference(name, x_shape, w_shape, stride):
    rng = np.random.default_rng(5)
    x = rng.normal(size=x_shape)
    w = rng.normal(size=w_shape)
    y_ref, input_grad, weight_grad = reference_conv(x, w, stride)
    g = rng.normal(size=y_ref.shape)

    def rel(a, b):
        assert a.shape == b.shape
        return np.abs(a - b).max() / np.abs(b).max()

    with lowering(name):
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        y = conv2d(xt, wt, stride)
        assert rel(y.data, y_ref) <= 1e-12
        # The forward is the same computation whether or not a gradient follows.
        with no_grad():
            assert np.array_equal(conv2d(xt, wt, stride).data, y.data)
        gx = conv2d_input_grad(Tensor(g), Tensor(w), x_shape[2:], stride).data
        assert rel(gx, input_grad(g)) <= 1e-12
        gw = conv2d_weight_grad(Tensor(g), Tensor(x), w_shape[2:], stride).data
        assert rel(gw, weight_grad(g)) <= 1e-12
        # The vjp's weight gradient equals the primitive's.
        _, gw_vjp = grad(sum_t(mul_const(y, g)), [xt, wt])
        assert np.array_equal(gw_vjp.data, gw)
        # In f32 each kernel stays within 1e-6 of the f64 reference.
        x32, w32, g32 = (a.astype(np.float32) for a in (x, w, g))
        assert rel(conv2d(Tensor(x32), Tensor(w32), stride).data, y_ref) <= 1e-6
        gx = conv2d_input_grad(Tensor(g32), Tensor(w32), x_shape[2:], stride).data
        assert rel(gx, input_grad(g)) <= 1e-6
        gw = conv2d_weight_grad(Tensor(g32), Tensor(x32), w_shape[2:], stride).data
        assert rel(gw, weight_grad(g)) <= 1e-6


def _conv_layers(width):
    """(name, input shape, weight shape, stride) of every conv of the
    generator and critic at scale 2 over 32 channels and the given width."""
    gen = GeneratorConfig(c_lr=16, scale=2, width=width)
    disc = DiscriminatorConfig(c_hr=gen.c_hr, width=width)
    layers = []
    for net, specs, in_shape in (("gen", generator_specs(gen), gen.input_shape),
                                 ("disc", discriminator_specs(disc), disc.input_shape)):
        model = Model(specs, in_shape, init=False)
        for k, (ls, p, cur) in enumerate(zip(specs, model.params, [in_shape] + model.shapes)):
            if ls.kind == "conv":
                layers.append((f"{net}{k}", cur, p[0].shape, ls.stride))
    return layers


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lowering_rule_bands_the_narrow_convs_at_any_batch(dtype):
    # Every desk-width (1/64) conv is banded; at full width the two stems and
    # the generator's one-map projection are, and the other convs run by
    # kernel rows. The batch does not enter the rule.
    for width, banded in ((1 / 64, None), (1.0, {"gen0", "gen8", "disc0"})):
        for name, (ci, h, wi), w_shape, stride in _conv_layers(width):
            picks = {_lowering((n, ci, h, wi), w_shape, stride, dtype) for n in (1, 7, 64, 256)}
            assert picks == {"banded" if banded is None or name in banded else "tap_rows"}, name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 3, 64])
def test_banded_kernels_match_whole_batch_reference(n, dtype):
    # The per-sample products give the bits of one product over the batch.
    rng = np.random.default_rng(n)
    layers = _conv_layers(1 / 64)
    assert len(layers) == 10
    for _, (ci, h, wi), w_shape, stride in layers:
        assert _lowering((n, ci, h, wi), w_shape, stride, dtype) == "banded"
        x = rng.normal(size=(n, ci, h, wi)).astype(dtype)
        w = rng.normal(size=w_shape).astype(dtype)
        y = conv2d(Tensor(x), Tensor(w), stride).data
        assert y.dtype == dtype and y.flags.c_contiguous
        assert np.array_equal(y, whole_batch_banded_forward(x, w, *stride))
        g = rng.normal(size=y.shape).astype(dtype)
        gx = conv2d_input_grad(Tensor(g), Tensor(w), (h, wi), stride).data
        assert gx.dtype == dtype and gx.flags.c_contiguous
        assert np.array_equal(gx, whole_batch_banded_input_grad(g, w, h, wi, *stride))


def test_banded_one_column_conv_copies_no_columns():
    # kw = sw = 1: the forward multiplies views of x and the input gradient
    # views of g, so each allocates its output, the band and little else.
    x_shape, w_shape = (64, 8, 16, 64), (8, 8, 9, 1)
    assert _lowering(x_shape, w_shape) == "banded"
    rng = np.random.default_rng(0)
    x = rng.normal(size=x_shape).astype(np.float32)
    w = rng.normal(size=w_shape).astype(np.float32)
    g = rng.normal(size=x_shape).astype(np.float32)
    band = 8 * 16 * 8 * 16 * 4
    slack = 64 * 1024
    for run in (lambda: conv2d(Tensor(x), Tensor(w)),
                lambda: conv2d_input_grad(Tensor(g), Tensor(w), (16, 64))):
        out, peak = peak_bytes(run)
        assert out.shape == x_shape
        assert peak <= out.data.nbytes + band + slack


def test_tap_rows_kernels_hold_no_kernel_sized_copy_of_their_input():
    # Each kernel holds one sample's width columns (kw copies of its input),
    # never the kh*kw = 27 copies of im2col: every peak stays within four
    # times its input, output and weight together.
    x_shape, w_shape = (1, 64, 16, 64), (64, 64, 9, 3)
    assert _lowering(x_shape, w_shape) == "tap_rows"
    rng = np.random.default_rng(0)
    x = rng.normal(size=x_shape).astype(np.float32)
    w = rng.normal(size=w_shape).astype(np.float32)
    g = rng.normal(size=x_shape).astype(np.float32)
    for training in (False, True):
        out, peak = peak_bytes(lambda: conv2d(Tensor(x), Tensor(w, requires_grad=training)))
        assert out.requires_grad == training
        assert peak <= 4 * (x.nbytes + w.nbytes + out.data.nbytes), f"training={training}"
    for run in (lambda: conv2d_input_grad(Tensor(g), Tensor(w), (16, 64)),
                lambda: conv2d_weight_grad(Tensor(g), Tensor(x), (9, 3))):
        out, peak = peak_bytes(run)
        assert peak <= 4 * (x.nbytes + w.nbytes + g.nbytes)


def test_tap_rows_kernels_read_a_model_weight_where_it_lies():
    # A Model conv weight lies in kernel-row order, so the forward and the
    # input gradient read its rows as views and allocate nothing near its
    # size, and the weight gradient allocates its one kernel-row-ordered sum.
    x_shape, w_shape = (1, 128, 4, 4), (128, 128, 9, 3)
    assert _lowering(x_shape, w_shape) == "tap_rows"
    w = Model([conv(128, (9, 3))], x_shape[1:], seed=0).parameters()[0]
    assert w.shape == w_shape
    x = RNG.normal(size=x_shape).astype(np.float32)
    g = RNG.normal(size=x_shape).astype(np.float32)
    for run in (lambda: conv2d(Tensor(x), w), lambda: conv2d_input_grad(Tensor(g), w, (4, 4))):
        _, peak = peak_bytes(run)
        assert peak < w.data.nbytes / 2
    gw, peak = peak_bytes(lambda: conv2d_weight_grad(Tensor(g), Tensor(x), (9, 3)))
    assert w.data.nbytes <= peak < 1.5 * w.data.nbytes
    assert gw.shape == w_shape and gw.data.transpose(2, 0, 3, 1).flags.c_contiguous


@pytest.mark.parametrize("name, per_call", [pytest.param("banded", [3], id="banded"),
                                             pytest.param("tap_rows", [1, 1, 1], id="tap_rows")])
def test_width_columns_built_per_lowering(monkeypatch, name, per_call):
    # Banded, the forward and the weight gradient each build the columns of
    # the whole batch once; by kernel rows, one sample's at a time. Neither
    # input gradient builds any, with or without a gradient to follow.
    built = []
    width_cols = tensor_module._width_cols

    def counting(x, *args):
        built.append(x.shape[0])
        return width_cols(x, *args)

    monkeypatch.setattr(tensor_module, "_width_cols", counting)
    x = Tensor(RNG.normal(size=(3, 2, 8, 6)), requires_grad=True)
    w = Tensor(RNG.normal(size=(6, 2, 3, 3)), requires_grad=True)
    with lowering(name):
        y = conv2d(x, w)
        assert built == per_call
        built.clear()
        grad(sum_t(square(y)), [x, w])
        assert built == per_call
        built.clear()
        with no_grad():
            conv2d(x, w)
        assert built == per_call


@pytest.fixture
def pool_of(monkeypatch):
    """pool_of(n): remake the kernel-rows pool as if n cores were usable and
    return its executor (None for n = 1). Pools made here are shut down."""
    made = []

    def make(n):
        monkeypatch.setattr(tensor_module.os, "sched_getaffinity", lambda pid: set(range(n)))
        monkeypatch.setattr(tensor_module, "_pool", None)
        workers, pool = tensor_module._row_pool()
        assert workers == n and (pool is None) == (n == 1)
        made.append(pool)
        return pool

    yield make
    for pool in made:
        if pool is not None:
            pool.shutdown()


def _stagger(pool, monkeypatch):
    """Hold every other product back a few ms, so that products complete out
    of kernel-row order; returns the list of futures submitted."""
    submit, futures = pool.submit, []

    def late(fn, *args):
        delay = 0.005 if len(futures) % 2 == 0 else 0.0
        futures.append(submit(lambda: (time.sleep(delay), fn(*args))[1]))
        return futures[-1]

    monkeypatch.setattr(pool, "submit", late)
    return futures


def _kernels(x, w, stride):
    """Forward, input gradient and weight gradient of one conv layer."""
    y = conv2d(Tensor(x), Tensor(w), stride).data
    g = np.cos(y)
    return (y, conv2d_input_grad(Tensor(g), Tensor(w), x.shape[2:], stride).data,
            conv2d_weight_grad(Tensor(g), Tensor(x), w.shape[2:], stride).data)


# (input, weight, stride) of the kernel-rows layers of the full-width
# generator and critic, over fewer rows and columns, at batch 2.
POOLED_CASES = [
    pytest.param((2, m, 16, 8), (m, m, 9, kw), (1, 1), id=f"{m}-9x{kw}")
    for m in (128, 256, 512) for kw in (1, 3)
] + [
    pytest.param((2, 64, 4, 8), (64, 64, 1, 3), (1, 1), id="64-1x3"),
    pytest.param((2, 256, 16, 16), (256, 256, 5, 3), (4, 4), id="256-5x3-stride4x4"),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape, w_shape, stride", POOLED_CASES)
def test_kernel_rows_give_the_serial_bits_on_any_number_of_workers(
        pool_of, monkeypatch, x_shape, w_shape, stride, dtype):
    # The products are summed in kernel-row order whatever order they
    # complete in, so 2 and 3 workers give the bits of the serial loop.
    rng = np.random.default_rng(7)
    x = rng.normal(size=x_shape).astype(dtype)
    w = rng.normal(size=w_shape).astype(dtype)
    with lowering("tap_rows"):
        pool_of(1)
        serial = _kernels(x, w, stride)
        for n in (2, 3):
            _stagger(pool_of(n), monkeypatch)
            assert all(same_bits(a, b) for a, b in zip(_kernels(x, w, stride), serial)), n


def test_kernel_rows_hold_one_product_per_worker(pool_of):
    # At the full-width 512->512 9x3 layer, each extra worker adds at most one
    # product's buffer to a kernel's peak: the products run at most one per
    # worker ahead of the sum. The slack covers the futures' bookkeeping.
    x_shape, w_shape = (1, 512, 16, 64), (512, 512, 9, 3)
    assert _lowering(x_shape, w_shape) == "tap_rows"
    rng = np.random.default_rng(0)
    x = rng.normal(size=x_shape).astype(np.float32)
    w = Tensor(np.ascontiguousarray(rng.normal(size=(9, 512, 3, 512)).astype(np.float32))
               .transpose(1, 3, 0, 2))
    g = rng.normal(size=x_shape).astype(np.float32)
    runs = {  # kernel -> (run, bytes of one product)
        "forward": (lambda: conv2d(Tensor(x), w), 512 * 16 * 64 * 4),
        "input_grad": (lambda: conv2d_input_grad(Tensor(g), w, (16, 64)), 3 * 512 * 16 * 64 * 4),
        "weight_grad": (lambda: conv2d_weight_grad(Tensor(g), Tensor(x), (9, 3)), 512 * 3 * 512 * 4),
    }
    peaks = {}
    for n in (1, 2):
        pool_of(n)
        for name, (run, _) in runs.items():
            run()  # the first product starts the workers
            peaks[name, n] = peak_bytes(run)[1]
    slack = 64 * 1024
    for name, (_, product) in runs.items():
        assert peaks[name, 2] <= peaks[name, 1] + product + slack, name


@pytest.mark.parametrize("error", [RuntimeError("sum failed"), KeyboardInterrupt()],
                         ids=["RuntimeError", "KeyboardInterrupt"])
def test_an_error_while_products_are_in_flight_waits_for_them(pool_of, monkeypatch, error):
    # The sum raises at the second product: the error comes out as it was
    # raised, only after every product submitted has finished, and the pool
    # then gives the serial bits again.
    x = RNG.normal(size=(1, 8, 16, 4))
    w = RNG.normal(size=(8, 8, 9, 3))
    with lowering("tap_rows"):
        pool_of(1)
        serial = _kernels(x, w, (1, 1))
        futures = _stagger(pool_of(2), monkeypatch)
        u, v = RNG.normal(size=(2, 64, 64))
        sums = np.zeros((9, 64, 64))

        def into(i):
            if i == 1:
                raise error
            return sums[i]

        with pytest.raises(type(error)) as raised:
            tensor_module._kernel_rows(9, lambda i, out: np.matmul(u, v, out=out), into,
                                       (64, 64), u.dtype)
        assert raised.value is error
        assert len(futures) == 3 and all(f.done() for f in futures)
        assert all(same_bits(a, b) for a, b in zip(_kernels(x, w, (1, 1)), serial))


def test_pooled_products_run_under_the_callers_errstate(pool_of):
    # Training and sr-infer ignore overflow and check finiteness themselves:
    # the pool's threads, under numpy's default errstate, still warned.
    x = np.ones((1, 8, 16, 4), np.float32)
    w = np.full((8, 8, 9, 3), 3e38, np.float32)
    with lowering("tap_rows"), np.errstate(over="ignore", invalid="ignore"):
        pool_of(2)
        y = conv2d(Tensor(x), Tensor(w)).data
    assert np.isinf(y).all()


def test_a_pool_without_sched_getaffinity_counts_the_cpus(pool_of, monkeypatch):
    # macOS has no os.sched_getaffinity: the pool takes os.cpu_count()
    # workers, and the kernels keep the serial bits.
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 8, 16, 5)).astype(np.float32)
    w = rng.normal(size=(8, 8, 9, 3)).astype(np.float32)
    with lowering("tap_rows"):
        pool_of(1)
        serial = _kernels(x, w, (1, 1))
        monkeypatch.delattr(tensor_module.os, "sched_getaffinity")
        monkeypatch.setattr(tensor_module.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(tensor_module, "_pool", None)
        try:
            pooled = _kernels(x, w, (1, 1))
        finally:
            if tensor_module._pool is not None:
                tensor_module._pool[1].shutdown()
    assert tensor_module._pool[0] == 2
    assert all(same_bits(a, b) for a, b in zip(pooled, serial))


@pytest.fixture
def split_all(monkeypatch):
    """Split every batch of more than one sample by sample range, draw masks
    7 numbers at a time and compute banded input-gradient columns one sample
    at a time, so that small shapes take every pooled path."""
    monkeypatch.setattr(tensor_module, "SPLIT_MIN_MACS", 0)
    monkeypatch.setattr(tensor_module, "SPLIT_MIN_ELEMENTS", 0)
    monkeypatch.setattr(tensor_module, "_CHUNK", 7)
    monkeypatch.setattr(tensor_module, "_BLOCK_BYTES", 1)


def _banded_step(x, w, b, rate, rng):
    """A banded conv layer with its ELU and, at a rate above 0, its dropout,
    forward and backward without a graph: the output, the gradients of the
    input, weight and bias, and the rng's next numbers."""
    with lowering("banded"):
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        y = elu_dropout(conv2d(xt, wt, (1, 1) if w.shape[3] == 1 else (1, 2), bt), True, rate,
                        rng if rate else None)
        grads = grad(sum_t(mul_const(y, np.cos(y.data))), [xt, wt, bt])
    return [y.data] + [t.data for t in grads] + [rng.random(3)]


# (input, weight) of banded layers with a per-sample size that is not a
# multiple of 16: a one-column kernel, whose columns are the input gradient,
# and a 3x3 kernel at width stride 2, whose columns are scattered back.
SAMPLE_RANGE_CASES = [
    pytest.param((5, 3, 7, 5), (4, 3, 3, 1), id="3x1"),
    pytest.param((5, 3, 7, 5), (4, 3, 3, 3), id="3x3-stride1x2"),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape, w_shape", SAMPLE_RANGE_CASES)
def test_sample_ranges_give_the_serial_bits_on_any_number_of_workers(
        pool_of, monkeypatch, split_all, x_shape, w_shape, dtype):
    # The banded products, the ELU and dropout, its backward and the pooled
    # weight gradient each write their own part of the result, so 2 and 3
    # workers, their tasks finishing out of order, give the serial bits,
    # and the rng ends as after one draw.
    rng = np.random.default_rng(9)
    x, w, b = (rng.normal(size=s).astype(dtype) for s in (x_shape, w_shape, w_shape[:1]))
    for rate in (0.3, 0.0):
        pool_of(1)
        serial = _banded_step(x, w, b, rate, np.random.default_rng(10))
        for n in (2, 3):
            futures = _stagger(pool_of(n), monkeypatch)
            pooled = _banded_step(x, w, b, rate, np.random.default_rng(10))
            assert all(same_bits(a, c) for a, c in zip(pooled, serial)), (rate, n)
            # Forward and ELU, ELU and input-gradient ranges, and the weight gradient.
            assert len(futures) == 4 * (n - 1) + 1, (rate, n)


@pytest.mark.parametrize("n", [2, 3])
def test_a_split_mask_draw_is_one_draw(pool_of, monkeypatch, split_all, n):
    # Each range draws from a copy of the rng moved to its first number: the
    # mask is that of one rng.random(size) call, and the rng ends in that
    # call's state, the 32-bit half that permutation(2) leaves buffered kept.
    x = Tensor(np.random.default_rng(11).uniform(1.0, 2.0, size=(5, 3, 7)))
    rng = np.random.default_rng(12)
    rng.permutation(2)
    assert rng.bit_generator.state["has_uint32"] == 1
    one = np.random.default_rng(0)
    one.bit_generator.state = rng.bit_generator.state
    keep = one.random(x.size).reshape(x.shape) >= 0.4
    _stagger(pool_of(n), monkeypatch)
    y = elu_dropout(x, False, 0.4, rng).data
    assert same_bits(y, x.data * keep * (1 / 0.6))
    assert rng.bit_generator.state == one.bit_generator.state
    assert same_bits(rng.integers(0, 2**32, 4, dtype=np.uint32),
                     one.integers(0, 2**32, 4, dtype=np.uint32))


@pytest.mark.parametrize("error", [RuntimeError("gradient failed"), KeyboardInterrupt()],
                         ids=["RuntimeError", "KeyboardInterrupt"])
@pytest.mark.parametrize("failing", ["conv2d_input_grad", "_pooled_weight_grad"])
def test_an_error_while_deferred_gradients_are_in_flight_waits_for_them(
        pool_of, monkeypatch, split_all, failing, error):
    # Two banded layers: the second one's weight gradient goes to the pool,
    # held back 5 ms, and then the first one's input gradient raises, after
    # its weight gradient went to the pool too, or its weight gradient does.
    # The error comes out as it was raised once every task has finished, and
    # the pool then gives the serial bits again.
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 2, 6, 5))
    w1, w2 = rng.normal(size=(3, 2, 3, 3)), rng.normal(size=(2, 3, 3, 1))
    b = np.zeros(3)
    pool_of(1)
    serial = _banded_step(x, w1, b, 0.0, np.random.default_rng(14))
    futures = _stagger(pool_of(2), monkeypatch)
    real, calls = getattr(tensor_module, failing), []

    def fail_at_first_layer(*args):
        calls.append(args)
        if len(calls) == 2:
            raise error
        return real(*args)

    monkeypatch.setattr(tensor_module, failing, fail_at_first_layer)
    xt, w1t, w2t = (Tensor(a, requires_grad=True) for a in (x, w1, w2))
    with lowering("banded"):
        loss = sum_t(conv2d(conv2d(xt, w1t), w2t))
        with pytest.raises(type(error)) as raised:
            grad(loss, [xt, w1t, w2t])
    assert raised.value is error
    assert len(futures) >= 2 and all(f.done() for f in futures)
    monkeypatch.setattr(tensor_module, failing, real)
    again = _banded_step(x, w1, b, 0.0, np.random.default_rng(14))
    assert all(same_bits(a, c) for a, c in zip(again, serial))


def test_a_batch_of_one_submits_nothing_new(pool_of, monkeypatch):
    # At batch 1 the kernel-rows products already hold every core: the
    # full-width banded layers, with their ELU and dropout, split nothing
    # and send no weight gradient to the pool.
    submitted = []
    pool = pool_of(2)
    submit = pool.submit
    monkeypatch.setattr(pool, "submit", lambda fn, *args: submitted.append(args) or submit(fn, *args))
    rng = np.random.default_rng(15)
    for name, (ci, h, wi), w_shape, stride in _conv_layers(1.0):
        if _lowering((1, ci, h, wi), w_shape, stride) != "banded":
            continue
        xt = Tensor(rng.normal(size=(1, ci, h, wi)).astype(np.float32), requires_grad=True)
        wt = Tensor(rng.normal(size=w_shape).astype(np.float32), requires_grad=True)
        y = elu_dropout(conv2d(xt, wt, stride), True, 0.1, rng)
        grad(sum_t(y * y), [xt, wt])
        assert not submitted, name


def test_a_desk_training_step_on_two_workers_holds_one_more_weight_gradient(pool_of):
    # A desk-width generator step at batch 64. With 2 workers the traced
    # peak stays within 8 MiB of the 1-worker peak: the operands of the
    # largest deferred weight gradient, the 8->8 9x3 layer's columns (6 MiB)
    # and its output gradient (2 MiB), overlapping the input gradients.
    gen = build_generator(GeneratorConfig(16, 2, 64, width=1 / 64))
    rng = np.random.default_rng(16)
    x = Tensor(rng.normal(size=(64,) + gen.input_shape).astype(np.float32))
    y = Tensor(rng.normal(size=(64,) + gen.shapes[-1]).astype(np.float32))

    def step():
        return grad(F.mse(gen.forward(x, np.random.default_rng(17)), y), gen.parameters())

    peaks = {}
    for n in (1, 2):
        pool_of(n)
        step()  # the first pooled task starts the workers
        peaks[n] = peak_bytes(step)[1]
    assert peaks[2] <= peaks[1] + (8 << 20), (peaks[1], peaks[2])


def test_grad_consumes_the_graph_it_walks():
    # Without create_graph each node drops its parents and its vjp once
    # visited: an activation of a loss the caller still holds is freed by
    # grad, and a second grad through the graph is refused, not answered
    # with zeros.
    x = Tensor(RNG.normal(size=(2, 3, 4, 5)))
    w = Tensor(RNG.normal(size=(4, 3, 3, 3)), requires_grad=True)
    h = elu_dropout(conv2d(x, w), True, 0.0, None)
    activation = weakref.ref(h.data)
    loss = sum_t(h * h)
    del h
    (gw,) = grad(loss, [w])
    assert activation() is None
    assert np.abs(gw.data).sum() > 0
    for again in (loss, loss * 2.0):
        with pytest.raises(RuntimeError, match="consumed"):
            grad(again, [w])


def test_create_graph_keeps_the_graph():
    x = Tensor(RNG.normal(size=5), requires_grad=True)
    y = sum_t(x * x * x)
    (g1,) = grad(y, [x], create_graph=True)
    (g2,) = grad(y, [x])
    assert np.array_equal(g1.data, g2.data)
    assert np.allclose(g2.data, 3 * x.data**2)


def test_double_backward_scalar():
    # d/dx of (dy/dx) for y = x^3: second derivative 6x.
    x = Tensor(np.array(1.3), requires_grad=True)
    y = x * x * x
    (g1,) = grad(y, [x], create_graph=True)
    (g2,) = grad(g1, [x])
    assert abs(g2.item() - 6 * 1.3) < 1e-12


def test_double_backward_through_conv():
    # Gradient-norm penalty pattern: differentiate ||dy/dx||^2 wrt w.
    rng = np.random.default_rng(7)
    for ws in ((3, 2, 3, 3), (2, 2, 3, 3)):
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        wv = rng.normal(size=ws) * 0.4

        def penalty(w):
            y = sum_t(square(conv2d(x, w)))
            (gx,) = grad(y, [x], create_graph=True)
            return sum_t(gx * gx)

        for name in LOWERINGS:
            with lowering(name):
                check_grads(penalty, [wv], rtol=2e-4)


def test_dropout_inference_is_identity_and_training_scales():
    x = Tensor(RNG.normal(size=(1000,)))
    assert elu_dropout(x, False, 0.4, None) is x
    rng = np.random.default_rng(3)
    y = elu_dropout(x, False, 0.4, rng)
    kept = y.data != 0
    assert np.allclose(y.data[kept], x.data[kept] / 0.6)
    assert abs(kept.mean() - 0.6) < 0.05


def test_elu_fixed_points_and_continuity():
    x = Tensor(np.array([-1.0, 0.0, 1.0, -1e-8, 1e-8, 50.0]))
    y = elu_dropout(x, True, 0.0, None).data
    assert abs(y[0] - (np.exp(-1.0) - 1.0)) < 1e-15
    assert y[1] == 0.0
    assert y[2] == 1.0
    assert abs(y[3]) < 2e-8 and abs(y[4]) < 2e-8
    assert y[5] == 50.0
    # Derivative at 0 is exactly 1 (identity branch owns the boundary).
    x0 = Tensor(np.array(0.0), requires_grad=True)
    (g,) = grad(elu_dropout(x0, True, 0.0, None), [x0])
    assert g.item() == 1.0


ELU_INPUTS = np.concatenate([[0.0, -0.0, 1e-8, -1e-8, -30.0, -200.0, -1e4, -1e30, 50.0],
                             np.random.default_rng(4).normal(scale=3.0, size=64)])


def _elu_then_mask(elu):
    """`elu`, then a float mask of 0 and 1 / (1 - rate) drawn in one call and
    applied by mul_const: the nodes `elu_dropout` replaced."""
    def nodes(x, with_elu, rate, rng):
        y = elu(x) if with_elu else x
        if rng is None:
            return y
        mask = (rng.random(x.shape) >= rate).astype(x.dtype)
        mask /= 1.0 - rate
        return mul_const(y, mask)

    return nodes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_elu_node_matches_composed_elu(dtype):
    # The one node gives the bits of the one-node ELU and float mask it
    # replaced (zeros signed as before, infinities included), and the values
    # of the five-node ELU: forward, vjp, and the first and second derivative
    # through a create_graph backward; with and without a dropout, and a
    # dropout alone.
    def run(fn, xv, second):
        x = Tensor(xv.copy(), requires_grad=True)
        y = fn(x, with_elu, rate, np.random.default_rng(6) if rate else None)
        if not second:
            (gx,) = grad(sum_t(mul_const(y, g)), [x])
            return y.data, gx.data
        (g1,) = grad(sum_t(y * y), [x], create_graph=True)
        (g2,) = grad(sum_t(g1 * g1), [x])
        return g1.data, g2.data

    first = np.concatenate([ELU_INPUTS, [np.inf, -np.inf]]).astype(dtype).reshape(3, -1)
    g = np.random.default_rng(5).normal(size=first.shape).astype(dtype)
    for with_elu, rate in ((True, 0.0), (True, 0.15), (False, 0.25)):
        for xv, second in ((first, False), (ELU_INPUTS.astype(dtype).reshape(1, -1), True)):
            # Without an ELU, y * y of -1e30 overflows, on both sides alike.
            with np.errstate(over="ignore", invalid="ignore"):
                new = run(elu_dropout, xv, second)
                refs = [(run(_elu_then_mask(elu_t), xv, second), same_bits),
                        (run(_elu_then_mask(composed_elu), xv, second), np.array_equal)]
            for ref, same in refs:
                for a, b in zip(new, ref):
                    assert a.dtype == dtype and same(a, b)


def test_softmax_rows_sum_to_one_and_grads():
    z = RNG.normal(size=(4, 5)) * 3
    p = F.softmax(Tensor(z)).data
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert (p > 0).all()
    # Huge logits stay finite.
    big = F.softmax(Tensor(np.array([1000.0, 0.0, -1000.0]))).data
    assert np.isfinite(big).all() and abs(big.sum() - 1.0) < 1e-12
    check_grads(lambda t: sum_t(square(F.softmax(t))), [z])


def test_losses_reference_values_and_grads():
    p = np.array([[0.1, 0.5, 0.4]])
    t = np.array([[0.0, 1.0, 0.0]])
    assert abs(F.cross_entropy(Tensor(p), Tensor(t)).item() - (-np.log(0.5 + 1e-12))) < 1e-12
    u = np.full((1, 3), 1.0 / 3.0)
    assert abs(F.cross_entropy(Tensor(u), Tensor(u)).item() - np.log(3.0)) < 1e-9
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(3, 4))
    assert abs(F.mse(Tensor(a), Tensor(b)).item() - ((a - b) ** 2).mean()) < 1e-12
    check_grads(lambda x: F.mse(x, Tensor(b)), [a])
    probs = RNG.uniform(0.1, 0.9, size=(4, 3))
    onehot = np.eye(3)[[0, 2, 1, 0]]
    check_grads(lambda x: F.cross_entropy(x, Tensor(onehot)), [probs])


def test_repeat_rows_upsamples_the_height_axis():
    x = np.arange(6, dtype=np.float64).reshape(1, 1, 3, 2)
    y = repeat_rows(Tensor(x), 3, axis=2).data
    assert y.shape == (1, 1, 9, 2)
    assert np.array_equal(y[0, 0, 0:3], np.broadcast_to(x[0, 0, 0], (3, 2)))
    assert np.array_equal(y[0, 0, 3:6], np.broadcast_to(x[0, 0, 1], (3, 2)))


def test_gradient_accumulation_over_reused_node():
    x = Tensor(np.array(2.0), requires_grad=True)
    y = x * x + x * 3.0 + x
    (g,) = grad(y, [x])
    assert g.item() == 2 * 2.0 + 4.0
