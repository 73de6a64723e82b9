"""The benchmark's traced run patches eegsr functions by owner and name; a
rename or deletion here, or a signature change its work functions cannot
read, must fail the suite, not only the benchmark."""
import sys
from pathlib import Path

import numpy as np

from eegsr import cli
from eegsr.gan import TrainConfig, TrainState, train
from eegsr.models import GeneratorConfig, build_generator
from eegsr.nn.layers import Model, conv
from eegsr.nn.tensor import Tensor

from helpers import epoch_set

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def test_every_trace_target_exists():
    tracer = load_tracer()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracer.TARGETS if not callable(getattr(owner, attr, None))]
    assert not missing, f"trace targets gone: {missing}"


def test_work_functions_measure_a_training_run(tmp_path):
    tracer = load_tracer()
    rng = np.random.default_rng(0)
    pair = (epoch_set(rng.normal(size=(8, 4, 8))), epoch_set(rng.normal(size=(8, 4, 8))))
    gen = build_generator(GeneratorConfig(c_lr=4, scale=2, seg_len=8, width=1 / 64), seed=0)
    trace = tracer.install("test")
    try:
        cfg = TrainConfig(pretrain_epochs=1, batch_size=4)
        train(TrainState.fresh("pretrain", gen, None, cfg), pair, cfg, checkpoint_dir=tmp_path)
    finally:
        trace.uninstall()
    summary = tracer.summarize(trace.spans)
    assert summary["gan.save_checkpoint"]["work"] > 0, "checkpoint MiB not measured"
    assert summary["tensor.conv2d"]["work"] > 0, "conv GMAC not measured"


def test_runner_dispatches_through_the_patched_command(tmp_path):
    # cli.main must call the cmd_<name> the tracer patched over the module
    # global, not a function object it bound at import time.
    tracer = load_tracer()
    trace = tracer.install("test")
    try:
        rc = cli.main(["synth", "--out", str(tmp_path / "rec.csv"),
                       "--set", "synth.n_samples=576", "--set", "synth.label_block=64"])
    finally:
        trace.uninstall()
    assert rc == 0
    summary = tracer.summarize(trace.spans)
    assert summary["cli.synth"]["calls"] == 1
    assert summary["archive.save_recording"]["calls"] == 1


def test_a_features_run_records_its_assembly(tmp_path):
    # `data.assemble_channels` is a per-layer row of the benchmark: a
    # features that stopped calling it would drop that row without a word.
    overrides = ["--set", "synth.n_samples=1216", "--set", "synth.label_block=256"]
    rec, data, feats = tmp_path / "rec.csv", tmp_path / "data", tmp_path / "feats"
    assert cli.main(["synth", "--out", str(rec)] + overrides) == 0
    assert cli.main(["preprocess", "--recording", str(rec), "--out", str(data)] + overrides) == 0
    tracer = load_tracer()
    trace = tracer.install("test")
    try:
        rc = cli.main(["features", "--data", str(data), "--out", str(feats)] + overrides)
    finally:
        trace.uninstall()
    assert rc == 0
    summary = tracer.summarize(trace.spans)
    assert summary["data.assemble_channels"]["calls"] == 3  # one per split
    assert summary["psd.epoch_features"]["calls"] == 3


def test_conv_gmac_of_a_model_weight_is_exact():
    # The tracer reads a conv's MACs off the weight's shape, so a Model conv
    # weight keeps its OIHW shape (co, ci, kh, kw) whatever its memory order.
    tracer = load_tracer()
    model = Model([conv(6, (9, 3), stride=(2, 1))], (4, 16, 8), seed=0)
    trace = tracer.install("test")
    try:
        model.forward(Tensor(np.zeros((2, 4, 16, 8), dtype=np.float32)))
    finally:
        trace.uninstall()
    n, co, oh, ow, ci, kh, kw = 2, 6, 8, 8, 4, 9, 3
    assert tracer.summarize(trace.spans)["tensor.conv2d"]["work"] == (
        n * co * oh * ow * ci * kh * kw / 1e9)
