"""Autodiff engine: primitive gradients, convolution adjoints, grad-of-grad."""
import tracemalloc

import numpy as np
import pytest

from eegsr.models import DiscriminatorConfig, GeneratorConfig, discriminator_specs, generator_specs
from eegsr.nn import functional as F
from eegsr.nn.layers import Model
from eegsr.nn import tensor as tensor_module
from eegsr.nn.tensor import (
    Tensor,
    _banded,
    concat_t,
    conv2d,
    conv2d_input_grad,
    conv2d_weight_grad,
    conv_same_geometry,
    elu_t,
    grad,
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
    lowering,
    reference_conv,
    whole_batch_banded_forward,
    whole_batch_banded_input_grad,
)

RNG = np.random.default_rng(20260801)


def square(t):
    return t * t


def test_scalar_chain_matches_hand_derivative():
    x = Tensor(np.array(0.7), requires_grad=True)
    y = x * x * 3.0 + 2.0 / x
    (g,) = grad(y, [x])
    expected = 6.0 * 0.7 - 2.0 / 0.7**2
    assert abs(g.item() - expected) < 1e-12


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
    check_grads(lambda t: sum_t(elu_t(t - 1.0)), [x])


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
    check_grads(lambda x, y: sum_t(square(x @ y)), [a, b])


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
    for width, banded in ((1 / 64, None), (1.0, {"gen0", "gen13", "disc0"})):
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


def _peak_bytes(run):
    """(result, tracemalloc peak in bytes above what was held before `run`)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = run()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


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
        out, peak = _peak_bytes(run)
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
        out, peak = _peak_bytes(lambda: conv2d(Tensor(x), Tensor(w, requires_grad=training)))
        assert out.requires_grad == training
        assert peak <= 4 * (x.nbytes + w.nbytes + out.data.nbytes), f"training={training}"
    for run in (lambda: conv2d_input_grad(Tensor(g), Tensor(w), (16, 64)),
                lambda: conv2d_weight_grad(Tensor(g), Tensor(x), (9, 3))):
        out, peak = _peak_bytes(run)
        assert peak <= 4 * (x.nbytes + w.nbytes + g.nbytes)


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


def test_conv_channel_mismatch_raises():
    x = Tensor(np.zeros((1, 3, 5, 5)))
    w = Tensor(np.zeros((2, 4, 3, 3)))
    with pytest.raises(ValueError, match="3 maps.*expects"):
        conv2d(x, w)


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
    assert F.dropout(x, 0.4, training=False, rng=None) is x
    rng = np.random.default_rng(3)
    y = F.dropout(x, 0.4, training=True, rng=rng)
    kept = y.data != 0
    assert np.allclose(y.data[kept], x.data[kept] / 0.6)
    assert abs(kept.mean() - 0.6) < 0.05


def test_elu_fixed_points_and_continuity():
    x = Tensor(np.array([-1.0, 0.0, 1.0, -1e-8, 1e-8, 50.0]))
    y = elu_t(x).data
    assert abs(y[0] - (np.exp(-1.0) - 1.0)) < 1e-15
    assert y[1] == 0.0
    assert y[2] == 1.0
    assert abs(y[3]) < 2e-8 and abs(y[4]) < 2e-8
    assert y[5] == 50.0
    # Derivative at 0 is exactly 1 (identity branch owns the boundary).
    x0 = Tensor(np.array(0.0), requires_grad=True)
    (g,) = grad(elu_t(x0), [x0])
    assert g.item() == 1.0


ELU_INPUTS = np.concatenate([[0.0, -0.0, 1e-8, -1e-8, -30.0, -200.0, -1e4, -1e30, 50.0],
                             np.random.default_rng(4).normal(scale=3.0, size=64)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("alpha", [1.0, 0.3])
def test_elu_node_matches_composed_elu(dtype, alpha):
    # The one-node ELU gives the composed ELU's bits: forward, vjp, and the
    # first and second derivative through a create_graph backward.
    xv = np.concatenate([ELU_INPUTS, [np.inf, -np.inf]]).astype(dtype)
    g = np.random.default_rng(5).normal(size=xv.shape).astype(dtype)
    outs = []
    for elu in (elu_t, composed_elu):
        x = Tensor(xv.copy(), requires_grad=True)
        y = elu(x, alpha)
        (gx,) = grad(sum_t(mul_const(y, g)), [x])
        outs.append((y.data, gx.data))
    for new, ref in zip(*outs):
        assert new.dtype == dtype and np.array_equal(new, ref)
    xv = ELU_INPUTS.astype(dtype)
    outs = []
    for elu in (elu_t, composed_elu):
        x = Tensor(xv.copy(), requires_grad=True)
        y = elu(x, alpha)
        (g1,) = grad(sum_t(y * y), [x], create_graph=True)
        (g2,) = grad(sum_t(g1 * g1), [x])
        outs.append((g1.data, g2.data))
    for new, ref in zip(*outs):
        assert np.array_equal(new, ref)


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


def test_loss_dispatch_and_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        F.mse(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


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
