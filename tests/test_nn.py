"""Layer stack: shape inference, initialization, Adam, model serialization."""
import numpy as np
import pytest

from eegsr.config import TrainConfig
from eegsr.errors import ParseError
from eegsr.nn.layers import (
    Model,
    concat,
    conv,
    dense,
    dropout,
    flatten,
    infer_shapes,
    upsample,
)
from eegsr.nn import optim
from eegsr.nn.optim import AdamState, adam_step
from eegsr.nn.serialize import (
    dtype_code,
    dtype_from_code,
    load_model,
    read_arrays,
    save_model,
    write_arrays,
)
from eegsr.nn.tensor import Tensor, grad, sum_t

RNG = np.random.default_rng(20260802)


def test_infer_shapes_conv_stack():
    specs = [conv(8, (3, 1), "elu"), conv(4, (1, 3), "elu", stride=(2, 2))]
    shapes = infer_shapes(specs, (1, 6, 10))
    assert shapes[0] == (8, 6, 10)
    assert shapes[1] == (4, 3, 5)


def test_infer_shapes_upsample_concat_flatten_dense():
    specs = [
        conv(4, (3, 1), "elu"),
        upsample(3),
        concat(1, 1),
        flatten(),
        dense(5, "relu"),
    ]
    shapes = infer_shapes(specs, (1, 4, 6))
    assert shapes[1] == (4, 12, 6)
    assert shapes[2] == (8, 12, 6)
    assert shapes[3] == (8 * 12 * 6,)
    assert shapes[4] == (5,)


def test_concat_shape_mismatch_rejected():
    specs = [conv(4, (3, 1)), upsample(2), concat(0, 1)]
    with pytest.raises(ValueError):
        infer_shapes(specs, (1, 4, 6))


def test_model_weight_shapes_conv_and_dense():
    model = Model([conv(8, (5, 3)), flatten(), dense(7)], (2, 6, 10))
    assert [p.shape for p in model.parameters()] == [(8, 2, 5, 3), (8,), (7, 8 * 6 * 10), (7,)]
    assert model.params[1] is None


def test_model_param_count_small_closed_form():
    model = Model([conv(8, (5, 3)), flatten(), dense(7)], (2, 6, 10))
    expected = (8 * 2 * 5 * 3 + 8) + (7 * 8 * 60 + 7)
    assert model.param_count() == expected


def test_dense_init_bounds_and_zero_bias():
    model = Model([dense(64, "relu")], (128,), seed=3)
    w, b = model.params[0]
    limit = np.sqrt(6.0 / 128)
    assert np.all(np.abs(w.data) <= limit)
    assert np.abs(w.data).max() > limit * 0.5
    assert np.all(b.data == 0.0)


def test_linear_layer_uses_glorot_bound():
    model = Model([dense(64, "linear")], (128,), seed=3)
    w, _ = model.params[0]
    assert np.all(np.abs(w.data) <= np.sqrt(6.0 / (128 + 64)))


def test_same_seed_same_init():
    a = Model([conv(4, (3, 3)), flatten(), dense(2)], (1, 8, 8), seed=11)
    b = Model([conv(4, (3, 3)), flatten(), dense(2)], (1, 8, 8), seed=11)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_forward_shapes_and_dtype():
    model = Model([conv(4, (3, 1), "elu"), flatten(), dense(3, "softmax")],
                  (1, 4, 6), dtype=np.float64)
    out = model.forward(Tensor(RNG.normal(size=(5, 1, 4, 6))))
    assert out.shape == (5, 3)
    assert out.dtype == np.float64
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


def test_forward_rejects_wrong_input_shape():
    model = Model([dense(3)], (4,))
    with pytest.raises(ValueError):
        model.forward(Tensor(np.zeros((2, 5), dtype=np.float32)))


def test_dropout_needs_rng_in_training():
    model = Model([dropout(0.5), dense(2)], (4,))
    x = Tensor(np.zeros((1, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        model.forward(x, training=True)
    model.forward(x, training=True, rng=np.random.default_rng(0))
    model.forward(x, training=False)


def test_dropout_inactive_at_inference():
    model = Model([dropout(0.9)], (50,), dtype=np.float64)
    x = RNG.normal(size=(2, 50))
    out = model.forward(Tensor(x), training=False)
    assert np.array_equal(out.data, x)


def test_set_parameters_round_trip():
    model = Model([conv(4, (3, 3)), flatten(), dense(2)], (1, 8, 8), seed=0)
    arrays = [p.data.copy() * 2.0 for p in model.parameters()]
    model.set_parameters(arrays)
    for p, a in zip(model.parameters(), arrays):
        assert np.array_equal(p.data, a)


def test_gradients_flow_through_model():
    model = Model([conv(2, (3, 1), "elu"), flatten(), dense(1)], (1, 4, 6),
                  seed=5, dtype=np.float64)
    out = model.forward(Tensor(RNG.normal(size=(3, 1, 4, 6))))
    gs = grad(sum_t(out), model.parameters())
    assert all(np.isfinite(g.data).all() for g in gs)
    assert any(np.abs(g.data).sum() > 0 for g in gs)


# -- Adam --


def test_adam_first_step_matches_hand_computation():
    # With bias correction the very first step moves by lr * g/|g| elementwise
    # (for eps -> 0); check against the exact update formula instead.
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    g = Tensor(np.array([0.5, -1.5]))
    cfg = TrainConfig(lr=0.01, beta1=0.9, beta2=0.999)
    state = AdamState.for_params([p])
    adam_step([p], [g], state, cfg)
    m = 0.1 * g.data
    v = 0.001 * g.data**2
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.999)
    expected = np.array([1.0, -2.0]) - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
    np.testing.assert_allclose(p.data, expected, rtol=0, atol=1e-15)
    assert state.t == 1


def test_adam_two_steps_track_moments():
    p = Tensor(np.array([0.3]), requires_grad=True)
    cfg = TrainConfig(lr=0.1, beta1=0.5, beta2=0.75)
    state = AdamState.for_params([p])
    ref = 0.3
    m = v = 0.0
    for t, gval in enumerate((0.2, -0.4), start=1):
        adam_step([p], [Tensor(np.array([gval]))], state, cfg)
        m = 0.5 * m + 0.5 * gval
        v = 0.75 * v + 0.25 * gval**2
        mhat = m / (1 - 0.5**t)
        vhat = v / (1 - 0.75**t)
        ref -= 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
    np.testing.assert_allclose(p.data, [ref], atol=1e-15)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_bit_identical_to_reference_formula(dtype):
    rng = np.random.default_rng(3)
    shapes = [(4, 3, 5, 2), (7,), (1,)]
    params = [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in shapes]
    cfg = TrainConfig(lr=2e-3, beta1=0.9, beta2=0.999)
    state = AdamState.for_params(params)
    ref = [p.data.copy() for p in params]
    m = [np.zeros_like(r) for r in ref]
    v = [np.zeros_like(r) for r in ref]
    for t in range(1, 4):
        grads = [rng.normal(size=s).astype(dtype) for s in shapes]
        adam_step(params, grads, state, cfg)
        bc1, bc2 = 1.0 - 0.9**t, 1.0 - 0.999**t
        for k, g in enumerate(grads):
            m[k] = m[k] * 0.9 + (1.0 - 0.9) * g
            v[k] = v[k] * 0.999 + (1.0 - 0.999) * (g * g)
            ref[k] = ref[k] - 2e-3 * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + 1e-8)
        for p, r, mk, vk, sm, sv in zip(params, ref, m, v, state.m, state.v):
            assert p.data.dtype == dtype
            assert np.array_equal(p.data, r)
            assert np.array_equal(sm, mk) and np.array_equal(sv, vk)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_updates_in_place_block_by_block(dtype):
    # A parameter longer than one block and not a multiple of it gets the bits
    # of the whole-array formula; every array the step updates keeps its
    # identity, and a parameter it cannot update in place is refused.
    rng = np.random.default_rng(9)
    shapes = [(2, optim.BLOCK // 2 + 3), (7,)]
    params = [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in shapes]
    cfg = TrainConfig(lr=1e-3, beta1=0.5, beta2=0.9)
    state = AdamState.for_params(params)
    arrays = [p.data for p in params] + state.m + state.v
    ref = [p.data.copy() for p in params]
    m = [np.zeros_like(r) for r in ref]
    v = [np.zeros_like(r) for r in ref]
    for t in range(1, 3):
        grads = [rng.normal(size=s).astype(dtype) for s in shapes]
        adam_step(params, grads, state, cfg)
        bc1, bc2 = 1.0 - 0.5**t, 1.0 - 0.9**t
        for k, g in enumerate(grads):
            m[k] = m[k] * 0.5 + (1.0 - 0.5) * g
            v[k] = v[k] * 0.9 + (1.0 - 0.9) * (g * g)
            ref[k] = ref[k] - 1e-3 * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + 1e-8)
        assert all(np.array_equal(p.data, r) for p, r in zip(params, ref))
    assert all(a is b for a, b in zip([p.data for p in params] + state.m + state.v, arrays))
    strided = Tensor(np.zeros((4, 6), dtype=dtype)[:, ::2], requires_grad=True)
    state = AdamState.for_params([strided])
    with pytest.raises(ValueError, match="contiguous"):
        adam_step([strided], [np.ones(strided.shape, dtype=dtype)], state, cfg)
    assert not strided.data.any()


def test_adam_descends_on_quadratic():
    p = Tensor(np.array([5.0]), requires_grad=True)
    cfg = TrainConfig(lr=0.1, beta1=0.9, beta2=0.999)
    state = AdamState.for_params([p])
    for _ in range(200):
        (g,) = grad(sum_t(p * p), [p])
        adam_step([p], [g], state, cfg)
    assert abs(p.data[0]) < 0.5


# -- serialization --


def test_dtype_codes_round_trip():
    for dt in (np.float32, np.float64):
        assert dtype_from_code(dtype_code(dt)) == np.dtype(dt)
    with pytest.raises(ValueError):
        dtype_code(np.int32)
    with pytest.raises(ParseError):
        dtype_from_code("f16")


def test_write_read_arrays_round_trip(tmp_path):
    arrays = [RNG.normal(size=(3, 4)), RNG.normal(size=(7,))]
    path = tmp_path / "params.bin"
    write_arrays(path, arrays, np.float64)
    back = read_arrays(path, [a.shape for a in arrays], np.float64)
    for a, b in zip(arrays, back):
        assert np.array_equal(a, b)


def test_read_arrays_size_mismatch(tmp_path):
    path = tmp_path / "params.bin"
    write_arrays(path, [np.zeros(4)], np.float64)
    with pytest.raises(ParseError):
        read_arrays(path, [(5,)], np.float64)


def test_save_load_model_bit_exact(tmp_path):
    specs = [
        conv(4, (3, 1), "elu", elu_alpha=0.7),
        dropout(0.25),
        conv(2, (1, 3), "elu", stride=(2, 2)),
        concat(2, 2),
        flatten(),
        dense(3, "softmax"),
    ]
    model = Model(specs, (1, 6, 8), seed=9, dtype=np.float64)
    save_model(tmp_path / "m", model, extra={"note": "x"})
    back, extra = load_model(tmp_path / "m")
    assert extra["note"] == "x"
    assert back.input_shape == model.input_shape
    assert back.dtype == model.dtype
    assert [ls for ls in back.specs] == [ls for ls in model.specs]
    for p, q in zip(model.parameters(), back.parameters()):
        assert np.array_equal(p.data, q.data)
    x = RNG.normal(size=(2, 1, 6, 8))
    np.testing.assert_array_equal(
        model.forward(Tensor(x)).data, back.forward(Tensor(x)).data
    )


def test_load_model_draws_no_random_numbers(tmp_path, monkeypatch):
    model = Model([conv(4, (3, 3), "elu"), flatten(), dense(2)], (1, 6, 8), seed=4)
    save_model(tmp_path / "m", model)

    def no_rng(*args, **kwargs):
        raise AssertionError("load_model drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    back, _ = load_model(tmp_path / "m")
    for p, q in zip(model.parameters(), back.parameters()):
        assert q.requires_grad
        assert np.array_equal(p.data, q.data)


def test_load_model_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError, match="manifest.txt"):
        load_model(tmp_path / "nope")


def test_load_model_corrupt_manifest(tmp_path):
    model = Model([dense(2)], (3,))
    save_model(tmp_path / "m", model)
    (tmp_path / "m" / "manifest.txt").write_text("not an ini file at all\n")
    with pytest.raises(ParseError):
        load_model(tmp_path / "m")
