"""Network architectures: shape walks, map arithmetic, parameter counts."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegsr import models
from eegsr.models import (
    ClassifierConfig,
    DiscriminatorConfig,
    GeneratorConfig,
    build_classifier,
    build_discriminator,
    build_generator,
    sr_predict_set,
)
from eegsr.errors import DataError
from eegsr.nn.tensor import Tensor, _banded, _toposort

from helpers import epoch_set, peak_bytes

RNG = np.random.default_rng(20260805)

# Closed-form parameter totals for the full-width architectures, computed
# layer by layer from kernel geometry (weights + biases).
GEN_S2_PARAMS = 7_983_361
GEN_S4_PARAMS = 4_582_785
DISC_PARAMS = 3_241_793
CLF_PARAMS = 222_339


def test_generator_scale2_shapes():
    cfg = GeneratorConfig(c_lr=16, scale=2)
    gen = build_generator(cfg, seed=0)
    assert gen.input_shape == (1, 16, 64)
    assert gen.shapes[-1] == (1, 16, 64)
    # Every conv output keeps the input extent (same padding, stride 1).
    for shape in gen.shapes[:-1]:
        assert shape[1:] == (16, 64)
    out = gen.forward(Tensor(RNG.normal(size=(2, 1, 16, 64)).astype(np.float32)))
    assert out.shape == (2, 1, 16, 64)


def test_generator_scale4_upsamples_to_output_height():
    cfg = GeneratorConfig(c_lr=8, scale=4)
    gen = build_generator(cfg, seed=0)
    assert gen.input_shape == (1, 8, 64)
    assert gen.shapes[-1] == (1, 24, 64)
    heights = [s[1] for s in gen.shapes]
    # The stem runs at input height, everything after the upsample at 3x.
    assert heights[:2] == [8, 8]
    assert set(heights[2:]) == {24}
    out = gen.forward(Tensor(RNG.normal(size=(1, 1, 8, 64)).astype(np.float32)))
    assert out.shape == (1, 1, 24, 64)


def test_generator_dense_block_concat_arithmetic():
    cfg = GeneratorConfig(c_lr=16, scale=2)
    gen = build_generator(cfg, seed=0)
    maps = [s[0] for s in gen.shapes]
    # Stem 128/128, stages 128/256/512, concat inputs sum all earlier stages.
    assert maps[0] == 128 and maps[1] == 128
    concat_maps = [m for ls, m in zip(gen.specs, maps) if ls.kind == "concat"]
    assert concat_maps == [128 + 128, 128 + 128 + 256, 128 + 128 + 256 + 512]
    stage_maps = [m for ls, m in zip(gen.specs, maps) if ls.kind == "conv"]
    assert stage_maps == [128, 128, 128, 256, 512, 1]


def test_generator_first_layer_weight_count():
    cfg = GeneratorConfig(c_lr=16, scale=2)
    gen = build_generator(cfg, seed=0)
    w, b = gen.params[0]
    # 128 kernels x 1 input map x (c_lr + 1) x 1.
    assert w.shape == (128, 1, 17, 1)
    assert w.size + b.size == 128 * 17 + 128 == 2304


def test_generator_param_counts_exact():
    assert build_generator(GeneratorConfig(c_lr=16, scale=2), seed=0).param_count() == GEN_S2_PARAMS
    assert build_generator(GeneratorConfig(c_lr=8, scale=4), seed=0).param_count() == GEN_S4_PARAMS


def test_discriminator_stride_walk_and_flat_size():
    cfg = DiscriminatorConfig(c_hr=16)
    disc = build_discriminator(cfg, seed=0)
    assert disc.input_shape == (1, 16, 64)
    strided = [i for i, ls in enumerate(disc.specs) if ls.stride == (4, 4)]
    assert len(strided) == 1
    # (16, 64) / (4, 4) -> (4, 16) under same padding.
    assert disc.shapes[strided[0]] == (256, 4, 16)
    flat = [s for s in disc.shapes if len(s) == 1]
    assert flat[0] == (256 * 4 * 16,)
    assert disc.shapes[-1] == (1,)
    out = disc.forward(Tensor(RNG.normal(size=(3, 1, 16, 64)).astype(np.float32)))
    assert out.shape == (3, 1)


def test_discriminator_concat_arithmetic():
    disc = build_discriminator(DiscriminatorConfig(c_hr=16), seed=0)
    maps = [s[0] for s in disc.shapes]
    concat_maps = [m for ls, m in zip(disc.specs, maps) if ls.kind == "concat"]
    assert concat_maps == [64 + 64, 64 + 64 + 128]


def test_discriminator_score_is_unbounded_linear():
    disc = build_discriminator(DiscriminatorConfig(c_hr=16), seed=0)
    assert disc.specs[-1].activation == "linear"
    assert disc.specs[-1].kernels == 1


def test_discriminator_param_count_exact():
    assert build_discriminator(DiscriminatorConfig(c_hr=16), seed=0).param_count() == DISC_PARAMS


def test_classifier_layout_and_param_count():
    cfg = ClassifierConfig()
    clf = build_classifier(cfg, seed=0)
    assert clf.input_shape == (96,)
    assert [s[0] for s in clf.shapes] == [512, 256, 128, 64, 3]
    assert clf.specs[-1].activation == "softmax"
    assert clf.param_count() == CLF_PARAMS


def test_width_scales_kernel_counts_with_floor_one():
    gen = build_generator(GeneratorConfig(c_lr=16, scale=2, width=1 / 64), seed=0)
    stage_maps = [s[0] for ls, s in zip(gen.specs, gen.shapes) if ls.kind == "conv"]
    assert stage_maps == [2, 2, 2, 4, 8, 1]
    tiny = build_generator(GeneratorConfig(c_lr=16, scale=2, width=1e-6), seed=0)
    assert all(s[0] >= 1 for s in tiny.shapes)


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(c_lr=16, scale=3)
    with pytest.raises(ValueError):
        GeneratorConfig(c_lr=2, scale=2)
    with pytest.raises(ValueError):
        ClassifierConfig(class_ids=(2,))
    with pytest.raises(ValueError):
        ClassifierConfig(class_ids=(2, 2, 3))


def test_desk_training_forward_node_counts():
    # One node per conv, bias reshape, bias add, ELU and dropout: the graph
    # a desk-width (1/64) training step records and walks twice.
    gen_cfg = GeneratorConfig(c_lr=16, scale=2, width=1 / 64)
    disc_cfg = DiscriminatorConfig(c_hr=gen_cfg.c_hr, width=1 / 64)
    rng = np.random.default_rng(0)
    for model, most in ((build_generator(gen_cfg), 42), (build_discriminator(disc_cfg), 44)):
        x = Tensor(rng.normal(size=(64,) + model.input_shape).astype(np.float32))
        out = model.forward(x, rng=np.random.default_rng(1))
        assert len(_toposort(out)) <= most


def test_sr_predict_set_matches_single_forward():
    cfg = GeneratorConfig(c_lr=16, scale=2, width=1 / 64)
    gen = build_generator(cfg, seed=1, dtype=np.float64)
    lr_set = epoch_set(RNG.normal(size=(4, 16, 64)), label=2, fs=512.0,
                       channel_labels=tuple(f"c{i}" for i in range(16)))
    pred = sr_predict_set(gen, lr_set)
    assert pred.values.shape == (4, 16, 64)
    assert pred.channel_labels is None
    assert np.array_equal(pred.origins, lr_set.origins)
    assert pred.labels.tolist() == [2] * 4
    # One segment per call gives the set's result; inference is deterministic.
    singles = [sr_predict_set(gen, epoch_set(lr_set.values[i : i + 1])).values for i in range(4)]
    np.testing.assert_allclose(np.concatenate(singles), pred.values, atol=1e-12)
    assert np.array_equal(sr_predict_set(gen, lr_set).values, pred.values)
    with pytest.raises(DataError):
        sr_predict_set(gen, epoch_set(RNG.normal(size=(2, 16, 32))))


@pytest.mark.parametrize("width", [1 / 64, 0.125])
def test_sr_predict_set_memory_does_not_grow_with_the_set(width):
    # Segments run in chunks that hold INFER_BYTES of layer outputs, so four
    # chunks' worth of segments peak where one chunk does.
    gen = build_generator(GeneratorConfig(c_lr=16, scale=2, width=width), seed=0)
    chunk = models.INFER_BYTES // (sum(int(np.prod(s)) for s in gen.shapes) * 4)
    assert chunk == (87 if width < 0.1 else 11)
    peaks = []
    for n in (chunk, 4 * chunk):
        lr_set = epoch_set(RNG.normal(size=(n, 16, 64)))
        peaks.append(peak_bytes(lambda: sr_predict_set(gen, lr_set))[1])
    assert peaks[1] <= 1.25 * peaks[0], peaks


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [1 / 64, 0.125])
@settings(max_examples=4, deadline=None)
@given(n=st.integers(2, 7), seed=st.integers(0, 2**16), data=st.data())
def test_set_prediction_is_the_concatenation_of_single_segments(width, dtype, n, seed, data):
    # A segment's reconstruction does not depend on the segments batched
    # with it, bit for bit; at width 1/8 the 64-map layer runs by kernel rows.
    # Rows repeat, as the segments of overlapping epochs do.
    gen = build_generator(GeneratorConfig(c_lr=16, scale=2, width=width), seed=seed, dtype=dtype)
    pool = np.random.default_rng(seed).normal(size=(n, 16, 64))
    lr_set = epoch_set(pool[data.draw(st.lists(st.integers(0, n - 1), min_size=n,
                                               max_size=2 * n))])
    n = len(lr_set)
    whole = sr_predict_set(gen, lr_set).values
    singles = [sr_predict_set(gen, epoch_set(lr_set.values[i : i + 1])).values for i in range(n)]
    assert whole.tobytes() == np.concatenate(singles).tobytes()
    shapes = [gen.input_shape] + gen.shapes
    banded = {_banded(co, oh, ls.kernel_dims[1], ci, h, dtype)
              for ls, (ci, h, _), (co, oh, _) in zip(gen.specs, shapes, shapes[1:])
              if ls.kind == "conv"}
    assert banded == ({True} if width < 0.1 else {True, False})


def test_each_distinct_segment_is_predicted_once():
    gen = build_generator(GeneratorConfig(c_lr=16, scale=2, width=1 / 64), seed=0)
    pool = RNG.normal(size=(3, 16, 64))
    lr_set = epoch_set(pool, index=np.array([0, 1, 0, 2, 1, 1]))
    forward, rows = gen.forward, []
    gen.forward = lambda x, **kw: rows.append(len(x.data)) or forward(x, **kw)
    out = sr_predict_set(gen, lr_set)
    assert rows == [3] and out.index is lr_set.index
    pred = out.rows()
    assert pred[[0, 1, 3]].tobytes() == sr_predict_set(gen, epoch_set(pool)).values.tobytes()
    assert pred[[2, 4, 5]].tobytes() == pred[[0, 1, 1]].tobytes()


def test_generator_forward_single_segment():
    cfg = GeneratorConfig(c_lr=16, scale=2, width=1 / 64)
    gen = build_generator(cfg, seed=1)
    seg = epoch_set(RNG.normal(size=(1, 16, 64)))
    out = sr_predict_set(gen, seg)
    assert out.values.shape == (1, 16, 64)
    again = sr_predict_set(gen, seg)
    assert np.array_equal(out.values, again.values)
