"""Adversarial training for the reconstruction network.

The default regime is a Wasserstein critic with gradient penalty: the critic
has an unbounded score output, its loss is mean(D(fake)) - mean(D(real))
plus `gp_weight` times the penalty mean((||grad_xhat D(xhat)|| - 1)^2) taken
at per-sample random interpolates between real and generated blocks. The
generator minimises adv_weight * (-mean(D(G(lr)))) + MSE(G(lr), hr), so the
reconstruction term dominates and the adversarial term sharpens it.

The critic updates once every `training_ratio` generator updates, on the
same batch the generator just saw.

Two independent random streams keep trajectories comparable: the data
stream drives batch order and generator dropout; the adversarial stream
drives everything the critic touches. With adv_weight = 0 the generator
therefore follows the exact pretraining trajectory.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import table
from .config import TrainConfig
from .data import check_aligned
from .errors import ConfigError, DataError, NumericAbort, ParseError
from .ini import from_section, read, section_of, write
from .models import DISC_FINAL_STRIDE, sr_predict_set
from .nn import functional as F
from .nn.layers import copy_into
from .nn.optim import AdamState, adam_step
from .nn.serialize import (
    dtype_code,
    load_model,
    read_arrays,
    save_model,
    write_arrays,
)
from .nn.tensor import Tensor, grad, mean_t, no_grad, sqrt_t, sum_t
from .report import sr_metrics

HISTORY_COLUMNS = ("step", "g_total", "g_adv", "g_mse", "d_loss", "gp")

# Checkpoint manifest format; version 2 stores every TrainConfig field.
FORMAT_VERSION = "2"

# The [checkpoint] keys of a generator checkpoint (`best`): its format and
# fingerprint, which `load_generator` checks, and the epoch that selected it.
GENERATOR_KEYS = ("format_version", "phase", "epoch", "fingerprint", "best_val_mse")

# Offset separating the adversarial stream's seed from the data stream's.
_ADV_SEED_OFFSET = 0x9E3779B9


@dataclass(frozen=True)
class LossRecord:
    step: int
    g_total: float
    g_adv: float
    g_mse: float
    d_loss: float
    gp: float


class LossHistory:
    """Per-generator-step loss trace with exact CSV round-tripping."""

    def __init__(self, records=None):
        self.records = list(records or [])

    def append(self, step, g_total, g_adv, g_mse, d_loss, gp):
        rec = LossRecord(int(step), float(g_total), float(g_adv), float(g_mse),
                         float(d_loss), float(gp))
        self.records.append(rec)
        return rec

    def __len__(self):
        return len(self.records)

    def all_finite(self):
        for rec in self.records:
            vals = (rec.g_total, rec.g_adv, rec.g_mse, rec.d_loss, rec.gp)
            if not all(np.isfinite(v) for v in vals):
                return False
        return True

    def to_csv(self, path):
        table.write(path, HISTORY_COLUMNS, map(astuple, self.records))

    @classmethod
    def from_csv(cls, path):
        t = table.read(path, HISTORY_COLUMNS)
        steps = t.parse(0, int, "step").tolist()
        losses = t.parse(slice(1, None), float, "loss").tolist()
        return cls(LossRecord(step, *row) for step, row in zip(steps, losses))


def check_pair(lr_set, hr_set, gen):
    """The one check of training and validation segments, which allocates no
    copy of them: the pair is aligned and not empty, and (channels, samples)
    are the generator's input and output shapes, so no loss or layer meets
    another."""
    check_aligned(lr_set, hr_set)
    if len(lr_set) == 0:
        raise DataError(f"{lr_set.split} pair of epoch sets is empty")
    for side, s, want in (("lr", lr_set, gen.input_shape), ("hr", hr_set, gen.shapes[-1])):
        if s.values.shape[1:] != want[1:]:
            raise DataError(f"{s.split} {side} segments of shape {s.values.shape[1:]} do not "
                            f"match the generator's {side} shape {want[1:]}")


def pair_arrays(lr_set, hr_set, gen):
    """The training pair of a checked (lr, hr) pair of epoch sets: for each
    side, its stored rows (a loaded set's distinct rows) as 4-D batches in the
    generator's dtype and the set's index, each row its own without one, so
    that `x[index[sel]]` gathers the bits of the whole side cast."""
    check_pair(lr_set, hr_set, gen)
    return [(s.values.astype(gen.dtype)[:, None],
             np.arange(len(s)) if s.index is None else s.index) for s in (lr_set, hr_set)]


def config_fingerprint(gen_cfg, disc_cfg=None, dtype=np.float32, loss_mode="wgan_gp"):
    """Hash of everything that fixes network identity and loss semantics."""
    # The ELU's alpha is fixed at 1.0; still hashed, so older checkpoints keep their hash.
    parts = [
        f"gen:c_lr={gen_cfg.c_lr},scale={gen_cfg.scale},seg_len={gen_cfg.seg_len},"
        f"dropout={gen_cfg.dropout_rate!r},alpha=1.0,width={gen_cfg.width!r}",
        f"dtype={dtype_code(dtype)}",
        f"loss_mode={loss_mode}",
    ]
    if disc_cfg is not None:
        parts.insert(1, (
            f"disc:c_hr={disc_cfg.c_hr},seg_len={disc_cfg.seg_len},"
            f"dropout={disc_cfg.dropout_rate!r},alpha=1.0,"
            f"stride={DISC_FINAL_STRIDE},width={disc_cfg.width!r}"
        ))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def gradient_penalty(disc, real, fake, weight, rng):
    """weight * mean((||grad_xhat D(xhat)||_2 - 1)^2).

    xhat = eps * real + (1 - eps) * fake with per-sample eps ~ U[0, 1]. The
    inner gradient is taken with a live graph so the result is
    differentiable with respect to the critic parameters.
    """
    real = np.asarray(real, dtype=disc.dtype)
    fake = np.asarray(fake, dtype=disc.dtype)
    eps = rng.uniform(size=(real.shape[0], 1, 1, 1)).astype(disc.dtype)
    xhat = Tensor(eps * real + (1.0 - eps) * fake, requires_grad=True)
    scores = disc.forward(xhat, rng=rng)
    (gx,) = grad(sum_t(scores), [xhat], create_graph=True)
    norms = sqrt_t(sum_t(gx * gx, axis=(1, 2, 3)))
    return mean_t((norms - 1.0) * (norms - 1.0)) * weight


def discriminator_loss(disc, real, fake, gp_weight, rng):
    """Critic loss: mean(D(fake)) - mean(D(real)) + gradient penalty.

    Returns (loss, penalty) as graph tensors.
    """
    real_t = Tensor(np.asarray(real, dtype=disc.dtype))
    fake_t = Tensor(np.asarray(fake, dtype=disc.dtype))
    d_real = mean_t(disc.forward(real_t, rng=rng))
    d_fake = mean_t(disc.forward(fake_t, rng=rng))
    gp = gradient_penalty(disc, real, fake, gp_weight, rng)
    return d_fake - d_real + gp, gp


def generator_loss(gen, disc, lr_batch, hr_batch, adv_weight, data_rng, adv_rng):
    """Generator objective and its parts: (total, adv, mse).

    With adv_weight = 0 the critic is not evaluated at all and total is the
    MSE term itself, so the parameter trajectory matches plain pretraining.
    """
    pred = gen.forward(Tensor(lr_batch), rng=data_rng)
    mse = F.mse(pred, Tensor(np.asarray(hr_batch, dtype=gen.dtype)))
    if adv_weight == 0.0:
        return mse, Tensor(np.zeros((), dtype=gen.dtype)), mse
    adv = -mean_t(disc.forward(pred, rng=adv_rng))
    total = adv * adv_weight + mse
    return total, adv, mse


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    """Everything a training run carries from step to step: the result of a
    run, the contents of a checkpoint and the state a resumed run continues
    in place. `disc` and `d_state` are None when pretraining; `epoch` counts
    completed epochs."""

    phase: str
    gen: object
    disc: object | None
    g_state: AdamState
    d_state: AdamState | None
    data_rng: np.random.Generator
    adv_rng: np.random.Generator
    history: LossHistory = field(default_factory=LossHistory)
    epoch: int = 0
    g_steps: int = 0
    d_steps: int = 0
    best_val_mse: float | None = None
    fingerprint: str = ""

    @classmethod
    def fresh(cls, phase, gen, disc, cfg, fingerprint=""):
        """The state before the first step of `phase`: new Adam moments and
        the two random streams seeded from `cfg.seed`."""
        d_state = None if disc is None else AdamState.for_params(disc.parameters())
        return cls(phase, gen, disc, AdamState.for_params(gen.parameters()), d_state,
                   np.random.default_rng(cfg.seed),
                   np.random.default_rng(cfg.seed + _ADV_SEED_OFFSET),
                   fingerprint=fingerprint)


def evaluate_mse(gen, lr_set, hr_set):
    """Inference-mode MSE of the generator over an aligned epoch-set pair."""
    return sr_metrics(sr_predict_set(gen, lr_set), hr_set)[0]


def generator_step(state, xb, yb, cfg, abort):
    """One generator update of `state` on the batch (xb, yb): the loss of its
    phase, Adam, then the step's history row. Its critic values repeat the
    previous row's (0.0 in a first row), so that every value stays finite,
    until `critic_step` fills them in. A non-finite loss writes the checkpoint
    `abort`, if given, and raises NumericAbort before any row or update."""
    adv_w = cfg.adv_weight if state.phase == "gan" else 0.0
    total, adv, mse = generator_loss(state.gen, state.disc, xb, yb, adv_w,
                                     state.data_rng, state.adv_rng)
    if not np.isfinite(total.item()):
        if abort is not None:
            save_checkpoint(abort, state, cfg)
        raise NumericAbort(state.g_steps)
    params = state.gen.parameters()
    adam_step(params, grad(total, params), state.g_state, cfg)
    rows = state.history.records
    d_loss, gp = (rows[-1].d_loss, rows[-1].gp) if rows else (0.0, 0.0)
    state.history.append(state.g_steps, total.item(), adv.item(), mse.item(), d_loss, gp)
    state.g_steps += 1


def critic_step(state, xb, yb, cfg, abort):
    """One critic update of `state` on the batch the generator just stepped on,
    against the updated generator's output (no gradient, adversarial stream).
    Its loss and penalty first go into the last history row, so that the
    checkpoint `abort` a non-finite loss writes, if given, holds a row per
    generator step; NumericAbort is then raised with the critic unchanged."""
    with no_grad():
        fake = state.gen.forward(Tensor(xb), rng=state.adv_rng).data
    d_loss, gp = discriminator_loss(state.disc, yb, fake, cfg.gp_weight, state.adv_rng)
    rows = state.history.records
    rows[-1] = replace(rows[-1], d_loss=d_loss.item(), gp=gp.item())
    if not np.isfinite(rows[-1].d_loss):
        if abort is not None:
            save_checkpoint(abort, state, cfg)
        raise NumericAbort(rows[-1].step)
    params = state.disc.parameters()
    adam_step(params, grad(d_loss, params), state.d_state, cfg)
    state.d_steps += 1


def train(state, train_pair, cfg, val_pair=None, checkpoint_dir=None):
    """Continue `state` in place through the epochs of the phase it names and
    return it.

    "pretrain" trains the generator on MSE alone: the warm start for
    adversarial training. "gan" takes a `generator_step` on every batch and a
    `critic_step` on every `training_ratio`-th, on that same batch. When
    `checkpoint_dir` is given, writes the resumable checkpoints `last` every
    `checkpoint_every` epochs and, in the adversarial phase, `abort` before
    raising NumericAbort; and on validation improvement `best`, the selected
    generator alone (`save_generator`). A loaded checkpoint continues
    bit-exactly.
    """
    phase = state.phase
    n_epochs = cfg.pretrain_epochs if phase == "pretrain" else cfg.gan_epochs
    (x, x_index), (y, y_index) = pair_arrays(*train_pair, state.gen)
    del train_pair  # training reads only the pair: a caller keeping no reference frees the sets
    if val_pair is not None:  # refused here, not after the first epoch
        check_pair(*val_pair, state.gen)
    directory = None if checkpoint_dir is None else Path(checkpoint_dir)
    abort = directory / "abort" if directory is not None and phase == "gan" else None
    for epoch in range(state.epoch, n_epochs):
        order = state.data_rng.permutation(len(x_index))
        for lo in range(0, len(order), cfg.batch_size):
            sel = order[lo : lo + cfg.batch_size]
            xb, yb = x[x_index[sel]], y[y_index[sel]]
            # Each step checks its own loss: overflow ends in NumericAbort alone.
            with np.errstate(over="ignore", invalid="ignore"):
                generator_step(state, xb, yb, cfg, abort)
                if phase == "gan" and state.g_steps % cfg.training_ratio == 0:
                    critic_step(state, xb, yb, cfg, abort)

        state.epoch = epoch + 1
        if val_pair is not None:
            val_mse = evaluate_mse(state.gen, val_pair[0], val_pair[1])
            if state.best_val_mse is None or val_mse < state.best_val_mse:
                state.best_val_mse = val_mse
                if directory is not None:
                    save_generator(directory / "best", state)
        if directory is not None and (state.epoch % cfg.checkpoint_every == 0
                                      or state.epoch == n_epochs):
            save_checkpoint(directory / "last", state, cfg)

    return state


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def _save_adam(directory, prefix, state, dtype):
    write_arrays(directory / f"{prefix}_m.bin", state.m, dtype)
    write_arrays(directory / f"{prefix}_v.bin", state.v, dtype)


def _load_adam(directory, prefix, model, t):
    """Moments copied into arrays laid out as their parameters, so that none
    keeps a whole file's buffer alive."""
    state = AdamState.for_params(model.parameters())
    state.t = t
    for moments, name in ((state.m, "m"), (state.v, "v")):
        shapes = [a.shape for a in moments]
        copy_into(moments, read_arrays(directory / f"{prefix}_{name}.bin", shapes, model.dtype))
    return state


def _checkpoint_head(state):
    """The [checkpoint] section of a resumable checkpoint, in written order."""
    return {
        "format_version": FORMAT_VERSION,
        "phase": state.phase,
        "epoch": state.epoch,
        "g_steps": state.g_steps,
        "d_steps": state.d_steps,
        "fingerprint": state.fingerprint,
        "best_val_mse": "" if state.best_val_mse is None else state.best_val_mse,
        "g_adam_t": state.g_state.t,
        "d_adam_t": "" if state.d_state is None else state.d_state.t,
        "has_disc": int(state.disc is not None),
        "data_rng": json.dumps(state.data_rng.bit_generator.state),
        "adv_rng": json.dumps(state.adv_rng.bit_generator.state),
    }


def save_generator(directory, state):
    """Write the generator half of a checkpoint: `generator/` and a manifest
    whose [checkpoint] section holds only `GENERATOR_KEYS`, what
    `load_generator` reads. A generator checkpoint cannot be resumed."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_model(directory / "generator", state.gen)
    head = _checkpoint_head(state)
    write(directory / "manifest.txt", {"checkpoint": {k: head[k] for k in GENERATOR_KEYS}})


def save_checkpoint(directory, state, cfg):
    """Write a resumable TrainState: the generator half (`save_generator`), then
    the Adam moments, the critic, the full manifest and `history.csv`.
    Deterministic byte-for-byte for a fixed state (no timestamps)."""
    directory = Path(directory)
    save_generator(directory, state)
    _save_adam(directory, "gen_adam", state.g_state, state.gen.dtype)
    if state.disc is not None:
        save_model(directory / "discriminator", state.disc)
        _save_adam(directory, "disc_adam", state.d_state, state.disc.dtype)
    write(directory / "manifest.txt", {"checkpoint": _checkpoint_head(state),
                                       "train": section_of(cfg)})
    state.history.to_csv(directory / "history.csv")


def _rng(bit_state):
    rng = np.random.default_rng(0)
    rng.bit_generator.state = bit_state
    return rng


def _check_resume_config(saved, cfg, phase, epoch):
    """Refuse to continue a run under a TrainConfig other than the one it was
    trained with; only the epoch counts may change, and the count of the
    checkpoint's own phase not below the epochs it has completed."""
    own = "pretrain_epochs" if phase == "pretrain" else "gan_epochs"
    if getattr(cfg, own) < epoch:
        raise ConfigError(f"{own} {getattr(cfg, own)} is below the checkpoint's {epoch} epochs")
    for f in fields(TrainConfig):
        old, new = getattr(saved, f.name), getattr(cfg, f.name)
        if f.name not in ("pretrain_epochs", "gan_epochs") and old != new:
            raise ConfigError(f"train config {f.name} changed from {old!r} to {new!r} since "
                              "the checkpoint")


def load_generator(directory, expect_fingerprint=None):
    """(generator, manifest sections) of a generator or resumable checkpoint,
    its critic, Adam moments and history unread; refuses another format
    version and, given `expect_fingerprint`, another fingerprint
    (ParseError). A missing file raises the OSError that opening it raises."""
    directory = Path(directory)
    manifest = directory / "manifest.txt"
    try:
        sections = read(manifest)
        head = sections["checkpoint"]
        version, fingerprint = head["format_version"], head["fingerprint"]
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{manifest}: corrupt checkpoint manifest ({exc})") from exc
    if version != FORMAT_VERSION:
        raise ParseError(f"{manifest}: unsupported checkpoint format {version!r}")
    if expect_fingerprint is not None and fingerprint != expect_fingerprint:
        raise ParseError(f"checkpoint fingerprint {fingerprint!r} does not match expected "
                         f"{expect_fingerprint!r}; refusing to load")
    return load_model(directory / "generator")[0], sections


def load_checkpoint(directory, expect_fingerprint=None, expect_config=None):
    """Rebuild a TrainState; refuses what `load_generator` refuses, truncated,
    unparsable or inconsistent contents, a generator checkpoint and, given
    `expect_config`, a TrainConfig the run cannot resume under."""
    directory = Path(directory)
    gen, sections = load_generator(directory, expect_fingerprint)
    manifest, head = directory / "manifest.txt", sections["checkpoint"]
    if head.keys() == set(GENERATOR_KEYS):
        raise ParseError(f"{directory} holds only a generator, which cannot be resumed; "
                         "resume from the run's `last` checkpoint")
    try:
        phase = head["phase"]
        epoch = int(head["epoch"])
        g_steps = int(head["g_steps"])
        d_steps = int(head["d_steps"])
        best = head["best_val_mse"]
        best_val_mse = float(best) if best else None
        saved_cfg = from_section(TrainConfig, sections["train"])
        g_t = int(head["g_adam_t"])
        has_disc = head["has_disc"] == "1"
        d_t = int(head["d_adam_t"]) if has_disc else 0
        data_rng = _rng(json.loads(head["data_rng"]))
        adv_rng = _rng(json.loads(head["adv_rng"]))
        if has_disc != (phase == "gan"):
            raise ValueError(f"a {phase} checkpoint with has_disc = {int(has_disc)}")
        # Counts never fall below 0, and each step advances its network's Adam count.
        if min(epoch, g_steps, d_steps) < 0 or g_t != g_steps or (has_disc and d_t != d_steps):
            raise ValueError(f"inconsistent counters: epoch {epoch}, g/d steps {g_steps}/"
                             f"{d_steps}, g/d Adam steps {g_t}/{d_t}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{manifest}: corrupt checkpoint manifest ({exc})") from exc

    if expect_config is not None:
        _check_resume_config(saved_cfg, expect_config, phase, epoch)
    history = LossHistory.from_csv(directory / "history.csv")
    # One row per generator step, the step of an abort checkpoint included.
    if len(history) != g_steps:
        raise ParseError(f"{directory / 'history.csv'}: corrupt checkpoint "
                         f"({len(history)} history rows for {g_steps} generator steps)")

    g_state = _load_adam(directory, "gen_adam", gen, g_t)
    disc = d_state = None
    if has_disc:
        disc, _ = load_model(directory / "discriminator")
        d_state = _load_adam(directory, "disc_adam", disc, d_t)

    return TrainState(
        phase, gen, disc, g_state, d_state, data_rng, adv_rng,
        history=history, epoch=epoch,
        g_steps=g_steps, d_steps=d_steps, best_val_mse=best_val_mse,
        fingerprint=head["fingerprint"],
    )
