"""Span tracer for the benchmark's traced run.

The tracer replaces a function with a timing wrapper at every place the
program looks it up: the defining module and each eegsr module that bound
it with a from-import (``eegsr.gan.grad``, ``eegsr.psd.grad``,
``eegsr.nn.functional.conv2d``, ``eegsr.gan.save_model``,
``eegsr.cli.save_model`` ...). Functions called through their own module's
globals, such as the conv adjoints inside the vjp closures of
``eegsr.nn.tensor``, are caught by the patch in the defining module.
``Model.forward`` is patched on the class.

A span is (name, start, end, parent, run id, work); spans stay in memory
until ``write``. The work figure (MACs or MiB) is computed from the
call's arguments or from its output on disk after the span has closed.
Single-threaded only: the parent of a span is the innermost open span.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

from eegsr import archive, bicubic, cli, data, gan, models, psd, report
from eegsr.nn import functional, layers, optim, serialize, tensor

FIELDS = ("name", "start", "end", "parent", "run", "work")


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, work=None):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if work is not None:
                    span[5] = work(args, kwargs)

        return traced

    def patch_function(self, module, attr, name, work=None):
        """Wrap ``module.attr`` and every eegsr module global bound to it."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, work)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("eegsr"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def patch_method(self, cls, attr, name, work=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, work))
        self._undo.append((cls, attr, original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def write(self, path):
        Path(path).write_text(json.dumps({"fields": FIELDS, "spans": self.spans}))


def summarize(spans, into=None):
    """Add per-name calls, inclusive s, self s and work of ``spans`` to ``into``.

    Inclusive time counts only the outermost span of a name, so a function
    reached again below itself is not counted twice. Self time is a span's
    duration minus the part its direct children cover.
    """
    out = {} if into is None else into
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    for i, (name, start, end, parent, _, work) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        entry["work"] += work
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry["s"] += end - start
    return out


# ---------------------------------------------------------------------------
# eegsr trace points
# ---------------------------------------------------------------------------


def _conv_gmac(out_shape, ci, kh, kw):
    """Computed MACs of a same-padded conv: n*co*oh*ow*ci*kh*kw, in 1e9."""
    n, co, oh, ow = out_shape
    return n * co * oh * ow * ci * kh * kw / 1e9


def _gmac_forward(args, kwargs):  # conv2d(x, w, stride)
    (n, ci, h, w), (co, _, kh, kw) = args[0].shape, args[1].shape
    sh, sw = args[2] if len(args) > 2 else kwargs.get("stride", (1, 1))
    return _conv_gmac((n, co, -(-h // sh), -(-w // sw)), ci, kh, kw)


def _gmac_input_grad(args, kwargs):  # conv2d_input_grad(g, w, input_hw, stride)
    _, ci, kh, kw = args[1].shape
    return _conv_gmac(args[0].shape, ci, kh, kw)


def _gmac_weight_grad(args, kwargs):  # conv2d_weight_grad(g, x, kernel_hw, stride)
    kh, kw = args[2]
    return _conv_gmac(args[0].shape, args[1].shape[1], kh, kw)


def _path_mb(args, kwargs):
    """MiB at the path a save or load call was given."""
    path = Path(args[0])
    if path.is_dir():
        return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 2**20
    return path.stat().st_size / 2**20 if path.exists() else 0.0


CLI_STAGES = ("synth", "preprocess", "pretrain", "gan_train", "baseline", "sr_infer",
              "features", "train_clf", "evaluate", "report")

# (owner, attribute, span name, work function, work unit); methods on classes.
TARGETS = [
    (tensor, "conv2d", "tensor.conv2d", _gmac_forward, "gmac"),
    (tensor, "conv2d_input_grad", "tensor.conv2d_input_grad", _gmac_input_grad, "gmac"),
    (tensor, "conv2d_weight_grad", "tensor.conv2d_weight_grad", _gmac_weight_grad, "gmac"),
    (tensor, "matmul", "tensor.matmul", None, None),
    (tensor, "grad", "tensor.grad", None, None),
    (layers.Model, "forward", "layers.forward", None, None),
    (functional, "mse", "functional.mse", None, None),
    (optim, "adam_step", "optim.adam_step", None, None),
    (serialize, "save_model", "serialize.save_model", _path_mb, "mb"),
    (serialize, "load_model", "serialize.load_model", None, None),
    (models, "sr_predict_set", "models.sr_predict_set", None, None),
    (gan, "gradient_penalty", "gan.gradient_penalty", None, None),
    (gan, "generator_loss", "gan.generator_loss", None, None),
    (gan, "discriminator_loss", "gan.discriminator_loss", None, None),
    (gan, "save_checkpoint", "gan.save_checkpoint", _path_mb, "mb"),
    (gan, "load_checkpoint", "gan.load_checkpoint", None, None),
    (gan, "evaluate_mse", "gan.evaluate_mse", None, None),
    (bicubic, "bicubic_predict_set", "bicubic.bicubic_predict_set", None, None),
    (data, "generate_synthetic", "data.generate_synthetic", None, None),
    (data, "extract_epochs", "data.extract_epochs", None, None),
    (data, "segment_epochs", "data.segment_epochs", None, None),
    (data, "downsample_set", "data.downsample_set", None, None),
    (data, "normalize_set", "data.normalize_set", None, None),
    (data, "regroup_segments", "data.regroup_segments", None, None),
    (data, "assemble_channels", "data.assemble_channels", None, None),
    (psd, "epoch_features", "psd.epoch_features", None, None),
    (psd, "welch_psd", "psd.welch_psd", None, None),
    (psd, "train_classifier", "psd.train_classifier", None, None),
    (archive, "save_recording", "archive.save_recording", _path_mb, "mb"),
    (archive, "load_recording", "archive.load_recording", _path_mb, "mb"),
    (archive, "save_epoch_set", "archive.save_epoch_set", _path_mb, "mb"),
    (archive, "load_epoch_set", "archive.load_epoch_set", None, None),
    (report, "sr_metrics", "report.sr_metrics", None, None),
] + [(cli, f"cmd_{stage}", f"cli.{stage}", None, None) for stage in CLI_STAGES]


def install(run_id):
    tracer = Tracer(run_id)
    for owner, attr, name, work, _ in TARGETS:
        if isinstance(owner, type):
            tracer.patch_method(owner, attr, name, work)
        else:
            tracer.patch_function(owner, attr, name, work)
    return tracer
