"""Generated gradient oracle: random layer stacks against central differences.

Each example draws a small f64 stack of convolutions (one- and three-column
kernels, even and odd kernel heights, strides, linear or ELU),
nearest-neighbour upsampling, concatenation, flatten and dense layers, a
dropout rate on each conv and on the dense ELU layer (0, 0.25 or 0.5, its
mask drawn from a fixed rng), and the lowering every conv runs by: banded or
by kernel rows. Autodiff must match central differences for an MSE with
respect to the parameters and the input, and for the gradient penalty with
respect to the critic parameters.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eegsr.gan import gradient_penalty
from eegsr.nn import functional as F
from eegsr.nn.layers import Model, concat, conv, dense, flatten, upsample
from eegsr.nn.tensor import Tensor, _banded, conv_same_geometry

from helpers import LOWERINGS, check_grads, lowering

STRIDES = [(1, 1), (2, 1), (1, 2), (2, 2)]
RATES = [0.0, 0.25, 0.5]


@st.composite
def layer_stacks(draw, scored):
    """(specs, input shape, batch); a `scored` stack ends in one unit per
    sample, as a critic does."""
    n = draw(st.integers(1, 3))
    shape = (draw(st.integers(1, 2)), draw(st.integers(2, 5)), draw(st.integers(3, 6)))
    in_shape = shape
    shapes = {-1: shape}  # output shape of each layer; -1 is the input
    specs = []
    for step in range(draw(st.integers(1, 4))):
        kind = "conv" if step == 0 else draw(
            st.sampled_from(["conv", "conv", "upsample", "concat"]))
        c, h, w = shape
        if kind == "conv":
            kh, kw = draw(st.integers(1, h + 1)), draw(st.sampled_from([1, 3]))
            sh, sw = draw(st.sampled_from(STRIDES))
            oh, ow, *_ = conv_same_geometry(h, w, kh, kw, sh, sw)
            co = draw(st.integers(1, 3))
            specs.append(conv(co, (kh, kw), draw(st.sampled_from(["elu", "linear"])), (sh, sw),
                              dropout_rate=draw(st.sampled_from(RATES))))
            shape = (co, oh, ow)
        elif kind == "upsample" and h <= 4:
            specs.append(upsample(2))
            shape = (c, 2 * h, w)
        elif kind == "concat":
            last = len(specs) - 1
            earlier = [i for i, s in shapes.items() if i != last and s[1:] == shape[1:]]
            if not earlier:
                continue
            source = draw(st.sampled_from(earlier))
            specs.append(concat(source, last))
            shape = (c + shapes[source][0], h, w)
        else:
            continue
        shapes[len(specs) - 1] = shape
    if scored or draw(st.booleans()):
        specs += [flatten(), dense(draw(st.integers(1, 3)), "elu", draw(st.sampled_from(RATES))),
                  dense(1)]
    return specs, in_shape, n


# Two stacks run every time, one by each lowering.
BANDED = ([conv(1, (3, 1), "elu", dropout_rate=0.5), conv(1, (2, 3), "elu", (1, 2))], (1, 4, 6),
          2)
TAP_ROWS = ([conv(3, (3, 3), "elu"), conv(2, (1, 3), "linear", (2, 1))], (2, 4, 3), 1)


def _with_params(model, tensors):
    """Point the model's layers at `tensors` (w0, b0, w1, b1, ...)."""
    it = iter(tensors)
    model.params = [None if p is None else (next(it), next(it)) for p in model.params]


def _arrays(model):
    return [t.data for t in model.parameters()]


def test_fixed_stacks_cross_the_shape_rule():
    # Stacks this small are banded by the shape rule, so the oracle forces
    # the lowering; each fixed stack then runs every conv by its own.
    for (specs, in_shape, _), name in ((BANDED, "banded"), (TAP_ROWS, "tap_rows")):
        shapes = [in_shape] + Model(specs, in_shape).shapes
        for ls, (ci, h, w), (co, oh, ow) in zip(specs, shapes, shapes[1:]):
            if ls.kind == "conv":
                assert conv_same_geometry(h, w, *ls.kernel_dims, *ls.stride)[:2] == (oh, ow)
                rule = (co, oh, ls.kernel_dims[1], ci, h, np.float64)
                assert _banded(*rule)
                with lowering(name):
                    assert _banded(*rule) == (name == "banded")


@settings(max_examples=30, deadline=None)
@given(stack=layer_stacks(scored=False), seed=st.integers(0, 2**16),
       name=st.sampled_from(LOWERINGS))
@example(stack=BANDED, seed=1, name="banded")
@example(stack=TAP_ROWS, seed=2, name="tap_rows")
def test_mse_gradients_match_central_differences(stack, seed, name):
    specs, in_shape, n = stack
    rng = np.random.default_rng(seed)
    model = Model(specs, in_shape, seed=seed, dtype=np.float64)
    x = rng.normal(size=(n,) + in_shape)
    target = Tensor(rng.normal(size=(n,) + model.shapes[-1]))

    def loss(xt, *params):
        _with_params(model, params)
        out = model.forward(xt, rng=np.random.default_rng(seed))
        return F.mse(out, target)

    with lowering(name):
        check_grads(loss, [x] + _arrays(model))


@settings(max_examples=15, deadline=None)
@given(stack=layer_stacks(scored=True), seed=st.integers(0, 2**16),
       name=st.sampled_from(LOWERINGS))
@example(stack=(BANDED[0] + [flatten(), dense(2, "elu"), dense(1)],) + BANDED[1:], seed=3,
         name="banded")
@example(stack=(TAP_ROWS[0] + [flatten(), dense(1)],) + TAP_ROWS[1:], seed=4, name="tap_rows")
def test_gradient_penalty_matches_central_differences(stack, seed, name):
    specs, in_shape, n = stack
    rng = np.random.default_rng(seed)
    critic = Model(specs, in_shape, seed=seed, dtype=np.float64)
    real = rng.normal(size=(n,) + in_shape)
    fake = rng.normal(size=(n,) + in_shape)

    def penalty(*params):
        _with_params(critic, params)
        return gradient_penalty(critic, real, fake, 10.0, np.random.default_rng(seed))

    with lowering(name):
        check_grads(penalty, _arrays(critic))
