"""Adversarial training for the reconstruction network.

The default regime is a Wasserstein critic with gradient penalty: the critic
has an unbounded score output, its loss is mean(D(fake)) - mean(D(real))
plus `gp_weight` times the penalty mean((||grad_xhat D(xhat)|| - 1)^2) taken
at per-sample random interpolates between real and generated blocks. The
generator minimises adv_weight * (-mean(D(G(lr)))) + MSE(G(lr), hr), so the
reconstruction term dominates and the adversarial term sharpens it.

The critic updates once every `training_ratio` generator updates, on the
same batch the generator just saw. A smoothed non-saturating mode
("dcgan_smoothed") is available for comparison: sigmoid scores against a
softened real target, no penalty.

Two independent random streams keep trajectories comparable: the data
stream drives batch order and generator dropout; the adversarial stream
drives everything the critic touches. With adv_weight = 0 the generator
therefore follows the exact pretraining trajectory.
"""
from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import check_aligned
from .errors import CheckpointError, DataError, NumericAbort
from .nn import functional as F
from .nn.optim import AdamState, adam_step
from .nn.serialize import (
    dtype_code,
    load_model,
    read_arrays,
    save_model,
    write_arrays,
)
from .nn.tensor import Tensor, grad, mean_t, no_grad, sqrt_t, sum_t

LOSS_MODES = ("wgan_gp", "dcgan_smoothed")

HISTORY_COLUMNS = ("step", "g_total", "g_adv", "g_mse", "d_loss", "gp")

# Offset separating the adversarial stream's seed from the data stream's.
_ADV_SEED_OFFSET = 0x9E3779B9


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation hyperparameters shared by both training phases."""

    pretrain_epochs: int = 50
    gan_epochs: int = 20
    batch_size: int = 64
    lr: float = 1e-4
    beta1: float = 0.5
    beta2: float = 0.9
    gp_weight: float = 10.0
    training_ratio: int = 3
    adv_weight: float = 1e-2
    loss_mode: str = "wgan_gp"
    real_label: float = 0.9
    checkpoint_every: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.pretrain_epochs < 0 or self.gan_epochs < 0:
            raise ValueError("epoch counts cannot be negative")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.gp_weight < 0 or self.adv_weight < 0:
            raise ValueError("gp_weight and adv_weight cannot be negative")
        if self.training_ratio < 1:
            raise ValueError(f"training_ratio must be >= 1, got {self.training_ratio}")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}, got {self.loss_mode!r}")
        if not 0.0 < self.real_label <= 1.0:
            raise ValueError(f"real_label must be in (0, 1], got {self.real_label}")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


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
        with open(path, "w") as fh:
            fh.write(",".join(HISTORY_COLUMNS) + "\n")
            for r in self.records:
                fh.write(f"{r.step},{r.g_total!r},{r.g_adv!r},{r.g_mse!r},"
                         f"{r.d_loss!r},{r.gp!r}\n")

    @classmethod
    def from_csv(cls, path):
        with open(path) as fh:
            header = fh.readline().strip()
            if header != ",".join(HISTORY_COLUMNS):
                raise CheckpointError(f"{path}: unexpected history header {header!r}")
            records = []
            for line in fh:
                parts = line.strip().split(",")
                if len(parts) != len(HISTORY_COLUMNS):
                    raise CheckpointError(f"{path}: malformed history row {line!r}")
                records.append(LossRecord(int(parts[0]), *(float(p) for p in parts[1:])))
        return cls(records)


def pair_arrays(lr_set, hr_set, dtype):
    """Stack an aligned (lr, hr) pair of epoch sets into 4-D batches."""
    if len(lr_set) != len(hr_set):
        raise DataError(f"pair mismatch: {len(lr_set)} lr epochs vs {len(hr_set)} hr epochs")
    if len(lr_set) == 0:
        raise DataError("cannot train on an empty pair of epoch sets")
    check_aligned(lr_set, hr_set)
    x = lr_set.values.astype(dtype)[:, None]
    y = hr_set.values.astype(dtype)[:, None]
    return x, y


def config_fingerprint(gen_cfg, disc_cfg=None, dtype=np.float32, loss_mode="wgan_gp"):
    """Hash of everything that fixes network identity and loss semantics."""
    parts = [
        f"gen:c_lr={gen_cfg.c_lr},scale={gen_cfg.scale},seg_len={gen_cfg.seg_len},"
        f"dropout={gen_cfg.dropout_rate!r},alpha={gen_cfg.elu_alpha!r},width={gen_cfg.width!r}",
        f"dtype={dtype_code(dtype)}",
        f"loss_mode={loss_mode}",
    ]
    if disc_cfg is not None:
        parts.insert(1, (
            f"disc:c_hr={disc_cfg.c_hr},seg_len={disc_cfg.seg_len},"
            f"dropout={disc_cfg.dropout_rate!r},alpha={disc_cfg.elu_alpha!r},"
            f"stride={disc_cfg.final_stride},width={disc_cfg.width!r}"
        ))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def gradient_penalty(disc, real, fake, weight, rng, training=True):
    """weight * mean((||grad_xhat D(xhat)||_2 - 1)^2).

    xhat = eps * real + (1 - eps) * fake with per-sample eps ~ U[0, 1]. The
    inner gradient is taken with a live graph so the result is
    differentiable with respect to the critic parameters.
    """
    real = np.asarray(real, dtype=disc.dtype)
    fake = np.asarray(fake, dtype=disc.dtype)
    if real.shape != fake.shape:
        raise DataError(f"real {real.shape} and fake {fake.shape} batches differ in shape")
    eps = rng.uniform(size=(real.shape[0], 1, 1, 1)).astype(disc.dtype)
    xhat = Tensor(eps * real + (1.0 - eps) * fake, requires_grad=True)
    scores = disc.forward(xhat, training=training, rng=rng)
    (gx,) = grad(sum_t(scores), [xhat], create_graph=True)
    norms = sqrt_t(sum_t(gx * gx, axis=(1, 2, 3)))
    return mean_t((norms - 1.0) * (norms - 1.0)) * weight


def discriminator_loss(disc, real, fake, gp_weight, rng, training=True):
    """Critic loss: mean(D(fake)) - mean(D(real)) + gradient penalty.

    Returns (loss, penalty) as graph tensors.
    """
    real_t = Tensor(np.asarray(real, dtype=disc.dtype))
    fake_t = Tensor(np.asarray(fake, dtype=disc.dtype))
    d_real = mean_t(disc.forward(real_t, training=training, rng=rng))
    d_fake = mean_t(disc.forward(fake_t, training=training, rng=rng))
    gp = gradient_penalty(disc, real, fake, gp_weight, rng, training=training)
    return d_fake - d_real + gp, gp


def discriminator_loss_smoothed(disc, real, fake, real_label, rng, training=True):
    """Non-saturating sigmoid mode: BCE against a softened real target."""
    real_t = Tensor(np.asarray(real, dtype=disc.dtype))
    fake_t = Tensor(np.asarray(fake, dtype=disc.dtype))
    p_real = F.sigmoid(disc.forward(real_t, training=training, rng=rng))
    p_fake = F.sigmoid(disc.forward(fake_t, training=training, rng=rng))
    loss = F.binary_cross_entropy(p_real, real_label) + F.binary_cross_entropy(p_fake, 0.0)
    return loss, Tensor(np.zeros((), dtype=disc.dtype))


def generator_loss(gen, disc, lr_batch, hr_batch, adv_weight, data_rng, adv_rng,
                   loss_mode="wgan_gp", training=True):
    """Generator objective and its parts: (total, adv, mse).

    With adv_weight = 0 the critic is not evaluated at all and total is the
    MSE term itself, so the parameter trajectory matches plain pretraining.
    """
    pred = gen.forward(Tensor(lr_batch), training=training, rng=data_rng)
    mse = F.mse(pred, Tensor(np.asarray(hr_batch, dtype=gen.dtype)))
    if adv_weight == 0.0 or disc is None:
        return mse, Tensor(np.zeros((), dtype=gen.dtype)), mse
    scores = disc.forward(pred, training=training, rng=adv_rng)
    if loss_mode == "dcgan_smoothed":
        adv = F.binary_cross_entropy(F.sigmoid(scores), 1.0)
    else:
        adv = -mean_t(scores)
    total = adv * adv_weight + mse
    return total, adv, mse


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    gen: object
    disc: object
    history: LossHistory
    g_steps: int
    d_steps: int
    best_val_mse: float | None = None
    checkpoints: list = field(default_factory=list)


def evaluate_mse(gen, lr_set, hr_set, batch_size=256):
    """Inference-mode MSE of the generator over an epoch-set pair."""
    x, y = pair_arrays(lr_set, hr_set, gen.dtype)
    total = 0.0
    with no_grad():
        for i in range(0, x.shape[0], batch_size):
            pred = gen.forward(Tensor(x[i : i + batch_size]), training=False)
            diff = pred.data.astype(np.float64) - y[i : i + batch_size].astype(np.float64)
            total += float((diff * diff).sum())
    return total / y.size


def _check_finite(value, step, checkpoint_cb=None):
    if not np.isfinite(value):
        if checkpoint_cb is not None:
            checkpoint_cb()
        raise NumericAbort(step)


def pretrain_generator(gen, train_pair, cfg, val_pair=None, checkpoint_dir=None,
                       resume=None, fingerprint=""):
    """MSE-only generator training; the warm start for adversarial training.

    Returns a TrainResult (disc is None). When `checkpoint_dir` is given,
    writes `last` every `checkpoint_every` epochs and `best` on validation
    improvement; `resume` continues bit-exactly from a loaded checkpoint
    (whose models replace the ones passed in).
    """
    return _train(gen, None, train_pair, cfg, phase="pretrain", val_pair=val_pair,
                  checkpoint_dir=checkpoint_dir, resume=resume, fingerprint=fingerprint)


def train_wgan(gen, disc, train_pair, cfg, val_pair=None, checkpoint_dir=None,
               resume=None, fingerprint=""):
    """Adversarial phase: every batch updates the generator, and every
    `training_ratio`-th batch also updates the critic on that same batch."""
    if disc is None and resume is None:
        raise DataError("adversarial training needs a critic")
    return _train(gen, disc, train_pair, cfg, phase="gan", val_pair=val_pair,
                  checkpoint_dir=checkpoint_dir, resume=resume, fingerprint=fingerprint)


def _train(gen, disc, train_pair, cfg, phase, val_pair=None, checkpoint_dir=None,
           resume=None, fingerprint=""):
    n_epochs = cfg.pretrain_epochs if phase == "pretrain" else cfg.gan_epochs

    if resume is not None:
        if resume.phase != phase:
            raise CheckpointError(f"checkpoint phase {resume.phase!r} cannot resume {phase!r}")
        gen = resume.gen
        disc = resume.disc if phase == "gan" else disc
        g_state, d_state = resume.g_state, resume.d_state
        data_rng, adv_rng = resume.data_rng, resume.adv_rng
        history = resume.history
        start_epoch = resume.epoch
        g_steps, d_steps = resume.g_steps, resume.d_steps
        best_val = resume.best_val_mse
    else:
        g_state = AdamState.for_params(gen.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
        d_state = None
        if disc is not None:
            d_state = AdamState.for_params(disc.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
        data_rng = np.random.default_rng(cfg.seed)
        adv_rng = np.random.default_rng(cfg.seed + _ADV_SEED_OFFSET)
        history = LossHistory()
        start_epoch = 0
        g_steps = d_steps = 0
        best_val = None

    x, y = pair_arrays(train_pair[0], train_pair[1], gen.dtype)
    n = x.shape[0]
    result = TrainResult(gen, disc, history, g_steps, d_steps, best_val)
    g_params = gen.parameters()
    d_params = disc.parameters() if disc is not None else None
    # Rows between critic updates repeat the last critic values, so every
    # recorded value stays finite.
    if history.records:
        last_d_loss, last_gp = history.records[-1].d_loss, history.records[-1].gp
    else:
        last_d_loss = last_gp = 0.0

    def write_checkpoint(name, epoch):
        if checkpoint_dir is None:
            return None
        path = Path(checkpoint_dir) / name
        save_checkpoint(
            path, phase=phase, gen=gen, disc=disc if phase == "gan" else None,
            g_state=g_state, d_state=d_state if phase == "gan" else None,
            data_rng=data_rng, adv_rng=adv_rng, history=history, epoch=epoch,
            g_steps=result.g_steps, d_steps=result.d_steps,
            best_val_mse=result.best_val_mse, cfg=cfg, fingerprint=fingerprint,
        )
        if path not in result.checkpoints:
            result.checkpoints.append(path)
        return path

    for epoch in range(start_epoch, n_epochs):
        order = data_rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            sel = order[lo : lo + cfg.batch_size]
            xb, yb = x[sel], y[sel]

            adv_w = cfg.adv_weight if phase == "gan" else 0.0
            total, adv, mse = generator_loss(
                gen, disc, xb, yb, adv_w, data_rng, adv_rng,
                loss_mode=cfg.loss_mode,
            )
            step = result.g_steps
            _check_finite(total.item(), step,
                          None if phase == "pretrain" else lambda: write_checkpoint("abort", epoch))
            gs = grad(total, g_params)
            adam_step(g_params, gs, g_state)
            result.g_steps += 1

            run_disc = phase == "gan" and result.g_steps % cfg.training_ratio == 0
            if run_disc:
                with no_grad():
                    fake = gen.forward(Tensor(xb), training=True, rng=adv_rng)
                if cfg.loss_mode == "dcgan_smoothed":
                    d_loss, gp = discriminator_loss_smoothed(
                        disc, yb, fake.data, cfg.real_label, adv_rng)
                else:
                    d_loss, gp = discriminator_loss(
                        disc, yb, fake.data, cfg.gp_weight, adv_rng)
                _check_finite(d_loss.item(), step,
                              lambda: write_checkpoint("abort", epoch))
                ds = grad(d_loss, d_params)
                adam_step(d_params, ds, d_state)
                result.d_steps += 1
                last_d_loss, last_gp = d_loss.item(), gp.item()

            history.append(step, total.item(), adv.item(), mse.item(),
                           last_d_loss, last_gp)

        if val_pair is not None:
            val_mse = evaluate_mse(gen, val_pair[0], val_pair[1])
            if result.best_val_mse is None or val_mse < result.best_val_mse:
                result.best_val_mse = val_mse
                write_checkpoint("best", epoch + 1)
        if (epoch + 1) % cfg.checkpoint_every == 0 or epoch + 1 == n_epochs:
            write_checkpoint("last", epoch + 1)

    return result


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    phase: str
    epoch: int
    g_steps: int
    d_steps: int
    gen: object
    disc: object | None
    g_state: AdamState
    d_state: AdamState | None
    data_rng: np.random.Generator
    adv_rng: np.random.Generator
    history: LossHistory
    best_val_mse: float | None
    fingerprint: str


def _save_adam(directory, prefix, state, dtype):
    write_arrays(directory / f"{prefix}_m.bin", state.m, dtype)
    write_arrays(directory / f"{prefix}_v.bin", state.v, dtype)


def _load_adam(directory, prefix, shapes, dtype, lr, beta1, beta2, t):
    state = AdamState(lr=lr, beta1=beta1, beta2=beta2, t=t)
    state.m = read_arrays(directory / f"{prefix}_m.bin", shapes, dtype)
    state.v = read_arrays(directory / f"{prefix}_v.bin", shapes, dtype)
    return state


def save_checkpoint(directory, phase, gen, disc, g_state, d_state, data_rng,
                    adv_rng, history, epoch, g_steps, d_steps, best_val_mse, cfg,
                    fingerprint=""):
    """Write a resumable training state: models, moments, rng streams,
    loss history and counters. Deterministic byte-for-byte for a fixed
    state (no timestamps)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_model(directory / "generator", gen)
    _save_adam(directory, "gen_adam", g_state, gen.dtype)
    if disc is not None:
        save_model(directory / "discriminator", disc)
        _save_adam(directory, "disc_adam", d_state, disc.dtype)

    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp["checkpoint"] = {
        "format_version": "1",
        "phase": phase,
        "epoch": str(epoch),
        "g_steps": str(g_steps),
        "d_steps": str(d_steps),
        "fingerprint": fingerprint,
        "best_val_mse": "" if best_val_mse is None else repr(best_val_mse),
        "lr": repr(cfg.lr),
        "beta1": repr(cfg.beta1),
        "beta2": repr(cfg.beta2),
        "loss_mode": cfg.loss_mode,
        "g_adam_t": str(g_state.t),
        "d_adam_t": str(d_state.t) if d_state is not None else "",
        "has_disc": "1" if disc is not None else "0",
        "data_rng": json.dumps(data_rng.bit_generator.state),
        "adv_rng": json.dumps(adv_rng.bit_generator.state),
    }
    with open(directory / "manifest.txt", "w") as fh:
        cp.write(fh)
    history.to_csv(directory / "history.csv")


def load_checkpoint(directory, expect_fingerprint=None):
    """Rebuild a Checkpoint; refuses mismatched fingerprints and truncated
    or unparsable contents."""
    directory = Path(directory)
    manifest = directory / "manifest.txt"
    if not manifest.is_file():
        raise CheckpointError(f"{directory}: not a checkpoint (missing manifest.txt)")
    cp = configparser.ConfigParser()
    cp.optionxform = str
    try:
        cp.read(manifest)
        head = cp["checkpoint"]
        phase = head["phase"]
        epoch = int(head["epoch"])
        g_steps = int(head["g_steps"])
        d_steps = int(head["d_steps"])
        fingerprint = head["fingerprint"]
        best = head["best_val_mse"]
        best_val_mse = float(best) if best else None
        lr = float(head["lr"])
        beta1, beta2 = float(head["beta1"]), float(head["beta2"])
        g_t = int(head["g_adam_t"])
        has_disc = head["has_disc"] == "1"
        d_t = int(head["d_adam_t"]) if has_disc else 0
        data_state = json.loads(head["data_rng"])
        adv_state = json.loads(head["adv_rng"])
    except (KeyError, ValueError, json.JSONDecodeError, configparser.Error) as exc:
        raise CheckpointError(f"{manifest}: corrupt checkpoint manifest ({exc})") from exc

    if expect_fingerprint is not None and fingerprint != expect_fingerprint:
        raise CheckpointError(
            f"checkpoint fingerprint {fingerprint!r} does not match expected "
            f"{expect_fingerprint!r}; refusing to load"
        )

    gen, _ = load_model(directory / "generator")
    g_shapes = [t.shape for t in gen.parameters()]
    g_state = _load_adam(directory, "gen_adam", g_shapes, gen.dtype, lr, beta1, beta2, g_t)
    disc = d_state = None
    if has_disc:
        disc, _ = load_model(directory / "discriminator")
        d_shapes = [t.shape for t in disc.parameters()]
        d_state = _load_adam(directory, "disc_adam", d_shapes, disc.dtype, lr, beta1, beta2, d_t)

    data_rng = np.random.default_rng(0)
    data_rng.bit_generator.state = data_state
    adv_rng = np.random.default_rng(0)
    adv_rng.bit_generator.state = adv_state
    history = LossHistory.from_csv(directory / "history.csv")

    return Checkpoint(
        phase=phase, epoch=epoch, g_steps=g_steps, d_steps=d_steps, gen=gen,
        disc=disc, g_state=g_state, d_state=d_state, data_rng=data_rng,
        adv_rng=adv_rng, history=history, best_val_mse=best_val_mse,
        fingerprint=fingerprint,
    )
