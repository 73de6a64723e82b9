"""Acceptance suite.

One test per shipping criterion, in order: gradient correctness, architecture
conformance, interpolation oracle, preprocessing invariants, adversarial loss
anchors, end-to-end reconstruction ordering, classification transfer,
spectral feature contract, and byte determinism. Each test prints a single
PASS/FAIL line with its measured margin; the training-based checks share one
module-scoped pipeline run at reduced network width.
"""
import time

import numpy as np
import pytest

from eegsr import archive, psd
from eegsr.archive import read_features_csv
from eegsr.bicubic import bicubic_predict_set, cubic_kernel, interpolation_weights
from eegsr.cli import main as cli_main
from eegsr.cli import _load_classifier
from eegsr.data import (
    RawRecording,
    assemble_channels,
    compute_norm_stats,
    denormalize_set,
    downsample_set,
    extract_epochs,
    make_montage,
    normalize_set,
    split_dataset,
)
from eegsr.errors import DataError
from eegsr.gan import (
    TrainConfig,
    TrainState,
    discriminator_loss,
    generator_loss,
    gradient_penalty,
    train,
)
from eegsr.models import (
    ClassifierConfig,
    DiscriminatorConfig,
    GeneratorConfig,
    build_classifier,
    build_discriminator,
    build_generator,
)
from eegsr.nn import functional as F
from eegsr.nn.layers import Model, concat, conv, dense, flatten, upsample
from eegsr.nn.tensor import Tensor, grad
from eegsr.report import sr_metrics

from helpers import epoch_set

RNG = np.random.default_rng(20260820)


def _verdict(num, name, ok, detail):
    line = f"[{num}/9] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Gradient correctness: central differences vs backprop, 64-bit
# ---------------------------------------------------------------------------

FD_H = 1e-5
FD_TOL = 1e-4


def _fd_worst(targets, make_loss, per_tensor=10, seed=5):
    """Max relative error between FD and analytic gradients over a sample
    of components of each target tensor."""
    analytic = grad(make_loss(), targets)
    pick = np.random.default_rng(seed)
    worst = 0.0
    for t, g in zip(targets, analytic):
        # Perturbed by index: t.data.reshape(-1) is a copy for a conv weight,
        # which lies in kernel-row order.
        for k in pick.choice(t.size, size=min(per_tensor, t.size), replace=False):
            i = np.unravel_index(k, t.shape)
            keep = t.data[i]
            t.data[i] = keep + FD_H
            lp = make_loss().item()
            t.data[i] = keep - FD_H
            lm = make_loss().item()
            t.data[i] = keep
            fd = (lp - lm) / (2.0 * FD_H)
            gi = float(g.data[i])
            worst = max(worst, abs(fd - gi) / max(abs(fd), abs(gi), 1e-6))
    return worst


def test_01_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    results = {}

    def proj_case(name, specs, in_shape, batch=2, rng_seed=None, check_input=True):
        model = Model(specs, in_shape, seed=11, dtype=np.float64)
        x = Tensor(rng.normal(size=(batch,) + tuple(in_shape)), requires_grad=True)
        tgt = Tensor(rng.normal(size=(batch,) + model.shapes[-1]))

        def make():
            fwd_rng = None if rng_seed is None else np.random.default_rng(rng_seed)
            return F.mse(model.forward(x, rng=fwd_rng), tgt)

        targets = model.parameters() + ([x] if check_input else [])
        results[name] = _fd_worst(targets, make)

    proj_case("conv elu", [conv(3, (1, 9), "elu")], (1, 4, 16))
    proj_case("conv strided", [conv(2, (4, 4), "elu", stride=(4, 4))], (1, 8, 16))
    proj_case("conv 1x1 linear", [conv(2, (1, 1), "linear")], (2, 3, 8))
    proj_case("conv tall same-pad", [conv(2, (5, 1), "linear")], (1, 4, 8))
    proj_case("upsample", [upsample(3)], (2, 2, 6))
    proj_case("dense block concat",
              [conv(2, (1, 3), "elu"), conv(2, (1, 3), "elu"), concat(0, 1),
               conv(1, (1, 3), "elu")], (1, 2, 8))
    proj_case("dropout", [conv(2, (1, 3), "elu", dropout_rate=0.5),
                          conv(1, (1, 3), "linear")], (1, 2, 8), rng_seed=17)
    proj_case("flatten dense", [flatten(), dense(5)], (2, 3, 4))
    proj_case("dense relu", [dense(7, "relu"), dense(4, "relu")], (6,), batch=3)

    # softmax head scored by cross-entropy
    clf = Model([dense(3, "softmax")], (5,), seed=11, dtype=np.float64)
    xc = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    onehot = np.eye(3, dtype=np.float64)[rng.integers(0, 3, size=4)]
    results["softmax cross-entropy"] = _fd_worst(
        clf.parameters() + [xc],
        lambda: F.cross_entropy(clf.forward(xc), Tensor(onehot)))

    # composed gradient-penalty scalar wrt critic parameters
    critic = Model([conv(2, (2, 4), "elu", stride=(2, 4)), flatten(), dense(1)],
                   (1, 4, 8), seed=7, dtype=np.float64)
    real = rng.normal(size=(3, 1, 4, 8))
    fake = rng.normal(size=(3, 1, 4, 8))
    results["gradient penalty"] = _fd_worst(
        critic.parameters(),
        lambda: gradient_penalty(critic, real, fake, 10.0, np.random.default_rng(99)))

    elapsed = time.perf_counter() - t0
    worst_name = max(results, key=results.get)
    ok = all(v < FD_TOL for v in results.values()) and elapsed < 60.0
    _verdict(1, "gradient checks", ok,
             f"worst rel err {results[worst_name]:.2e} ({worst_name}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Architecture conformance
# ---------------------------------------------------------------------------

def test_02_architecture_conformance():
    failures = []

    g2 = build_generator(GeneratorConfig(c_lr=16, scale=2), seed=0)
    if g2.shapes[-1] != (1, 16, 64):
        failures.append(f"scale-2 output {g2.shapes[-1]}")
    g4 = build_generator(GeneratorConfig(c_lr=8, scale=4), seed=0)
    if g4.shapes[-1] != (1, 24, 64):
        failures.append(f"scale-4 output {g4.shapes[-1]}")
    heights = [s[1] for s in g4.shapes]
    if heights[:2] != [8, 8] or set(heights[2:]) != {24}:
        failures.append(f"scale-4 height walk {heights}")

    maps = [s[0] for s in g2.shapes]
    concat_maps = [m for ls, m in zip(g2.specs, maps) if ls.kind == "concat"]
    if concat_maps != [256, 512, 1024]:
        failures.append(f"generator concat sums {concat_maps}")
    stage_maps = [m for ls, m in zip(g2.specs, maps) if ls.kind == "conv"]
    if stage_maps != [128, 128, 128, 256, 512, 1]:
        failures.append(f"generator stage maps {stage_maps}")

    disc = build_discriminator(DiscriminatorConfig(c_hr=16), seed=0)
    strided = [i for i, ls in enumerate(disc.specs) if ls.stride == (4, 4)]
    if len(strided) != 1 or disc.shapes[strided[0]] != (256, 4, 16):
        failures.append("stride-(4,4) walk")
    if (256 * 4 * 16,) not in disc.shapes:
        failures.append("flatten size")

    counts = (g2.param_count(), g4.param_count(), disc.param_count(),
              build_classifier(ClassifierConfig(), seed=0).param_count())
    expected = (7_983_361, 4_582_785, 3_241_793, 222_339)
    if counts != expected:
        failures.append(f"param counts {counts} != {expected}")

    clf = build_classifier(ClassifierConfig(), seed=0)
    if [s[0] for s in clf.shapes] != [512, 256, 128, 64, 3]:
        failures.append("classifier layout")

    _verdict(2, "architecture conformance", not failures,
             "; ".join(failures) or f"params {expected}")


# ---------------------------------------------------------------------------
# 3. Interpolation oracle
# ---------------------------------------------------------------------------

def _oracle_missing(lr_values, montage):
    """Recompute missing rows from kernel evaluations with index clamping,
    independently of the operator-matrix construction."""
    n_lr, t = lr_values.shape
    out = np.zeros((montage.n_hr, t))
    for row, mi in enumerate(montage.hr_indices):
        u = mi / montage.scale
        j0 = int(np.floor(u))
        acc = np.zeros(t)
        for j in range(j0 - 1, j0 + 3):
            acc += cubic_kernel(u - j) * lr_values[min(max(j, 0), n_lr - 1)]
        out[row] = acc
    return out


def test_03_interpolation_oracle():
    t0 = time.perf_counter()
    failures = []

    for t_val, expect in ((0.0, 1.0), (1.0, 0.0), (2.0, 0.0),
                          (0.5, 0.5625), (1.5, -0.0625)):
        if abs(cubic_kernel(t_val) - expect) >= 1e-12:
            failures.append(f"kernel({t_val})")
    m2 = make_montage(32, 2)
    row = interpolation_weights(m2)[7]
    if np.abs(row[6:10] - [-0.0625, 0.5625, 0.5625, -0.0625]).max() >= 1e-12:
        failures.append("interior taps")
    for scale in (2, 4):
        m = make_montage(32, scale)
        if np.abs(interpolation_weights(m).sum(axis=1) - 1.0).max() >= 1e-12:
            failures.append(f"row sums scale {scale}")
        const = epoch_set(np.full((1, m.n_lr, 64), 3.25))
        if np.abs(bicubic_predict_set(const, m).values - 3.25).max() >= 1e-12:
            failures.append(f"constant reproduction scale {scale}")

    # 1000 montages, alternating scales, each reconstructed as part of a set.
    lr_values = {2: [], 4: []}
    for i in range(1000):
        scale = 2 if i % 2 == 0 else 4
        lr_values[scale].append(RNG.normal(size=(32 // scale, 64)) * 10.0)
    worst = 0.0
    for scale, lrs in lr_values.items():
        m = make_montage(32, scale)
        pred = bicubic_predict_set(epoch_set(lrs), m).values
        for lr, got in zip(lrs, pred):
            worst = max(worst, np.abs(got - _oracle_missing(lr, m)).max())
    if worst >= 1e-9:
        failures.append(f"oracle mismatch {worst:.2e}")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _verdict(3, "interpolation oracle", ok,
             "; ".join(failures) or f"1000 epochs, worst {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Preprocessing invariants
# ---------------------------------------------------------------------------

def test_04_preprocessing_invariants():
    failures = []
    rng = np.random.default_rng(4)
    labels32 = tuple(f"ch{i}" for i in range(32))

    # epoch-count formula over 1000 random geometries
    for _ in range(1000):
        window = int(rng.integers(16, 257))
        stride = int(rng.integers(max(1, window // 4), window + 1))
        n = int(rng.integers(0, 2049))
        rec = RawRecording(np.zeros((2, n)), fs=64.0, channel_labels=("a", "b"))
        if n < window:
            with pytest.raises(DataError):
                extract_epochs(rec, window=window, stride=stride)
            continue
        got = len(extract_epochs(rec, window=window, stride=stride))
        want = (n - window) // stride + 1
        if got != want:
            failures.append(f"count {got} != {want} for n={n} w={window} s={stride}")
            break

    # downsample/assemble losslessness, both scales
    full = epoch_set(rng.normal(size=(16, 32, 64)), label=3, fs=512.0,
                     channel_labels=labels32)
    for scale in (2, 4):
        m = make_montage(32, scale)
        back = assemble_channels(*downsample_set(full, m), m)
        if not np.array_equal(back.values, full.values) or back.channel_labels != labels32:
            failures.append(f"lossy reassembly at scale {scale}")

    # 75/20/5 split partitions the set in order
    seq = epoch_set(np.zeros((252, 2, 8)), origins=np.arange(252), fs=512.0)
    train, val, test = split_dataset(seq, ratios=(0.75, 0.20, 0.05))
    sizes = (len(train), len(val), len(test))
    if sizes != (189, 50, 13):
        failures.append(f"split sizes {sizes}")
    order = np.concatenate([part.origins for part in (train, val, test)])
    if order.tolist() != list(range(252)):
        failures.append("split does not partition in order")

    # normalization round-trip and train stats
    m = make_montage(32, 2)
    lr_set, _ = downsample_set(full, m)
    stats = compute_norm_stats(lr_set)
    normed = normalize_set(lr_set, stats)
    flat = normed.values
    mean_err = abs(flat.mean())
    std_err = abs(flat.std() - 1.0)
    if mean_err >= 1e-9 or std_err >= 1e-9:
        failures.append(f"train stats off by ({mean_err:.1e}, {std_err:.1e})")
    back = denormalize_set(normed, stats)
    round_err = np.abs(back.values - lr_set.values).max()
    if round_err >= 1e-12:
        failures.append(f"normalization round-trip {round_err:.1e}")

    _verdict(4, "preprocessing invariants", not failures,
             "; ".join(failures) or
             f"1000 geometries, round-trip {round_err:.1e}, stats ({mean_err:.1e}, {std_err:.1e})")


# ---------------------------------------------------------------------------
# 5. Adversarial loss anchors
# ---------------------------------------------------------------------------

def _linear_critic(weights, bias=0.0, shape=(1, 2, 2)):
    model = Model([flatten(), dense(1)], shape, seed=0, dtype=np.float64)
    model.set_parameters([np.asarray(weights, dtype=np.float64).reshape(1, -1),
                          np.array([bias])])
    return model


class _IdentityGen:
    dtype = np.float64

    def forward(self, x, rng=None):
        return x


class _ConstCritic:
    dtype = np.float64

    def __init__(self, value):
        self.value = value

    def forward(self, x, rng=None):
        return Tensor(np.full((x.shape[0], 1), self.value))


def test_05_adversarial_loss_anchors():
    failures = []
    real = RNG.normal(size=(6, 1, 2, 2))
    fake = RNG.normal(size=(6, 1, 2, 2))

    gp = gradient_penalty(_linear_critic([0.5] * 4), real, fake, 10.0,
                          np.random.default_rng(0)).item()
    if abs(gp) > 1e-9:
        failures.append(f"unit-slope penalty {gp:.2e}")
    gp2 = gradient_penalty(_linear_critic([1.0] * 4), real, fake, 10.0,
                           np.random.default_rng(1)).item()
    if abs(gp2 - 10.0) > 1e-9:
        failures.append(f"slope-2 penalty {gp2!r}")

    # D(real) = 1, D(fake) = 0, no penalty -> loss -1 exactly
    r = np.zeros((3, 1, 2, 2))
    r[:, 0, 0, 0] = 1.0
    loss, _ = discriminator_loss(_linear_critic([1, 0, 0, 0]), r,
                                 np.zeros((3, 1, 2, 2)), 0.0,
                                 np.random.default_rng(0))
    if abs(loss.item() + 1.0) > 1e-12:
        failures.append(f"substitution loss {loss.item()!r}")
    # constant-zero critic: both means vanish, loss is the full penalty
    loss0, _ = discriminator_loss(_linear_critic([0, 0, 0, 0]), real[:3], fake[:3],
                                  10.0, np.random.default_rng(0))
    if abs(loss0.item() - 10.0) > 1e-9:
        failures.append(f"zero-critic loss {loss0.item()!r}")

    lr = RNG.normal(size=(4, 1, 2, 2))
    total, adv, mse = generator_loss(_IdentityGen(), _ConstCritic(5.0), lr, lr + 0.5,
                                     1e-2, np.random.default_rng(0),
                                     np.random.default_rng(1))
    if abs(mse.item() - 0.25) > 1e-12 or abs(adv.item() + 5.0) > 1e-12 \
            or abs(total.item() - 0.2) > 1e-12:
        failures.append(f"generator substitution ({total.item()!r})")
    total0, _, mse0 = generator_loss(_IdentityGen(), _ConstCritic(5.0), lr, lr + 0.5,
                                     0.0, np.random.default_rng(0),
                                     np.random.default_rng(1))
    if total0 is not mse0:
        failures.append("zero adversarial weight does not reduce to mse")

    # floor(N / ratio) critic bookkeeping on a short real run
    gen = build_generator(GeneratorConfig(c_lr=4, scale=2, seg_len=8, width=1 / 64),
                          seed=3, dtype=np.float64)
    disc = build_discriminator(DiscriminatorConfig(c_hr=4, seg_len=8, width=1 / 64),
                               seed=4, dtype=np.float64)
    lr_values = RNG.normal(size=(24, 4, 8))
    pair = (epoch_set(lr_values, fs=512.0), epoch_set(lr_values * 0.5, fs=512.0))
    cfg = TrainConfig(pretrain_epochs=0, gan_epochs=4, batch_size=5, lr=1e-3,
                      training_ratio=3, seed=9)
    result = train(TrainState.fresh("gan", gen, disc, cfg), pair, cfg)
    if result.g_steps != 20 or result.d_steps != 20 // 3:
        failures.append(f"bookkeeping {result.g_steps}G/{result.d_steps}D")

    _verdict(5, "adversarial loss anchors", not failures,
             "; ".join(failures) or
             f"penalties ({gp:.1e}, {gp2 - 10:.1e}), 20G/{result.d_steps}D")


# ---------------------------------------------------------------------------
# 6 + 7. Desk-scale pipeline: reconstruction ordering, classification transfer
# ---------------------------------------------------------------------------

DESK_ARGS = [
    "--set", "synth.n_samples=8544",
    "--set", "synth.n_classes=3",
    "--set", "synth.label_block=1024",
    "--set", "model.width=0.015625",
    "--set", "train.pretrain_epochs=50",
    "--set", "train.gan_epochs=10",
    "--set", "train.batch_size=64",
    "--set", "classifier.epochs=30",
    "--set", "run.seed=0",
]


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    times = {}

    def step(name, argv):
        t0 = time.perf_counter()
        rc = cli_main(argv + DESK_ARGS)
        times[name] = time.perf_counter() - t0
        assert rc == 0, f"{name} exited {rc}"

    step("synth", ["synth", "--out", str(root / "rec.csv")])
    step("preprocess", ["preprocess", "--recording", str(root / "rec.csv"),
                        "--out", str(root / "data")])
    step("pretrain", ["pretrain", "--data", str(root / "data"),
                      "--out", str(root / "pre")])
    step("sr_pre", ["sr-infer", "--data", str(root / "data"),
                    "--checkpoint", str(root / "pre" / "best"),
                    "--out", str(root / "sr_pre")])
    step("gan", ["gan-train", "--data", str(root / "data"),
                 "--out", str(root / "adv"), "--init", str(root / "pre" / "last")])
    step("sr_adv", ["sr-infer", "--data", str(root / "data"),
                    "--checkpoint", str(root / "adv" / "best"),
                    "--out", str(root / "sr_adv")])
    step("baseline", ["baseline", "--data", str(root / "data"),
                      "--out", str(root / "base")])
    step("features", ["features", "--data", str(root / "data"),
                      "--sr", str(root / "sr_adv"), "--out", str(root / "feats")])
    step("train_clf", ["train-clf", "--features", str(root / "feats"),
                       "--out", str(root / "clf")])
    return {"root": root, "times": times}


def test_06_reconstruction_ordering(desk):
    t0 = time.perf_counter()
    root = desk["root"]
    n_total = sum(
        len(archive.load_epoch_set(root / "data" / f"{split}_lr"))
        for split in ("train", "val", "test")
    )
    test_hr = archive.load_epoch_set(root / "data" / "test_hr")
    mse = {}
    for name, sub in (("bicubic", "base"), ("pretrain", "sr_pre"), ("wgan", "sr_adv")):
        pred = archive.load_epoch_set(root / sub / "test")
        mse[name], _ = sr_metrics(pred, test_hr)

    train_time = sum(desk["times"][k] for k in
                     ("synth", "preprocess", "pretrain", "sr_pre", "gan", "sr_adv",
                      "baseline")) + (time.perf_counter() - t0)

    failures = []
    if n_total < 2000:
        failures.append(f"only {n_total} segments")
    if not mse["wgan"] < mse["bicubic"]:
        failures.append(f"wgan {mse['wgan']:.4g} !< bicubic {mse['bicubic']:.4g}")
    if not mse["wgan"] <= mse["pretrain"] * 1.05:
        failures.append(f"wgan {mse['wgan']:.4g} > 1.05 x pretrain {mse['pretrain']:.4g}")
    if train_time >= 900.0:
        failures.append(f"{train_time:.0f}s over budget")

    _verdict(6, "reconstruction ordering", not failures,
             "; ".join(failures) or
             f"test mse bicubic {mse['bicubic']:.4g} / pretrain {mse['pretrain']:.4g}"
             f" / wgan {mse['wgan']:.4g}, {n_total} segments, {train_time:.0f}s")


def test_07_classification_transfer(desk):
    t0 = time.perf_counter()
    root = desk["root"]
    model, class_ids, scaler = _load_classifier(root / "clf")

    def accuracy(source):
        tables = [read_features_csv(root / "feats" / f"{split}_{source}.csv").labelled()
                  for split in ("val", "test")]
        x = np.concatenate([t[0] for t in tables])
        labels = np.concatenate([t[1] for t in tables])
        pred, _ = psd.predict(model, scaler.apply(x), class_ids)
        return float(np.mean(np.asarray(pred) == labels)), len(labels)

    acc_hr, n = accuracy("hr")
    acc_sr, _ = accuracy("sr")
    clf_time = desk["times"]["features"] + desk["times"]["train_clf"] \
        + (time.perf_counter() - t0)

    failures = []
    if acc_hr < 0.633:
        failures.append(f"hr accuracy {acc_hr:.3f} below 0.633")
    if acc_sr < 0.633:
        failures.append(f"sr accuracy {acc_sr:.3f} below 0.633")
    if acc_hr - acc_sr > 0.10:
        failures.append(f"transfer gap {acc_hr - acc_sr:.3f} over 0.10")
    if clf_time >= 600.0:
        failures.append(f"{clf_time:.0f}s over budget")

    _verdict(7, "classification transfer", not failures,
             "; ".join(failures) or
             f"hr {acc_hr:.3f} vs sr {acc_sr:.3f} on {n} epochs, {clf_time:.0f}s")


# ---------------------------------------------------------------------------
# 8. Spectral feature contract
# ---------------------------------------------------------------------------

def test_08_spectral_features():
    failures = []
    if psd.N_FEATURES != 96:
        failures.append(f"{psd.N_FEATURES} features")
    if psd.BAND_FREQS != tuple(float(f) for f in range(8, 31, 2)):
        failures.append(f"bands {psd.BAND_FREQS}")

    fs = 512.0
    x = RNG.normal(size=1 << 15)
    freqs, spec = psd.welch_psd(x, fs)
    df = freqs[1] - freqs[0]
    if df != 2.0:
        failures.append(f"bin spacing {df}")
    parseval = abs(spec.sum() * df - x.var()) / x.var()
    if parseval >= 0.01:
        failures.append(f"parseval error {parseval:.3f}")

    t = np.arange(512) / fs
    tone = np.sin(2 * np.pi * 10.0 * t)
    freqs, spec = psd.welch_psd(tone, fs)
    peak = freqs[np.argmax(spec)]
    if peak != 10.0:
        failures.append(f"tone peak at {peak} Hz")
    k = int(np.argmax(spec))
    captured = spec[k - 2 : k + 3].sum() * df
    if abs(captured - 0.5) >= 0.01:
        failures.append(f"tone power {captured:.3f}")

    _verdict(8, "spectral feature contract", not failures,
             "; ".join(failures) or
             f"96 bands, parseval {parseval:.4f}, peak {peak:g} Hz")


# ---------------------------------------------------------------------------
# 9. Byte determinism of a full 64-bit pipeline rerun
# ---------------------------------------------------------------------------

TOY_ARGS = [
    "--set", "synth.n_samples=1216",
    "--set", "synth.n_classes=3",
    "--set", "synth.label_block=256",
    "--set", "model.width=0.015625",
    "--set", "train.pretrain_epochs=2",
    "--set", "train.gan_epochs=2",
    "--set", "train.batch_size=16",
    "--set", "classifier.epochs=3",
    "--set", "run.seed=11",
    "--set", "run.precision=f64",
]


def _toy_pipeline(root):
    def step(argv, args=TOY_ARGS):
        rc = cli_main(argv + args)
        assert rc == 0, f"{argv[0]} exited {rc}"

    step(["synth", "--out", str(root / "rec.csv")])
    step(["preprocess", "--recording", str(root / "rec.csv"), "--out", str(root / "data")])
    step(["pretrain", "--data", str(root / "data"), "--out", str(root / "pre")])
    step(["gan-train", "--data", str(root / "data"), "--out", str(root / "adv"),
          "--init", str(root / "pre" / "last")])
    step(["baseline", "--data", str(root / "data"), "--out", str(root / "base")])
    step(["sr-infer", "--data", str(root / "data"),
          "--checkpoint", str(root / "adv" / "best"), "--out", str(root / "sr")])
    step(["features", "--data", str(root / "data"), "--sr", str(root / "sr"),
          "--out", str(root / "feats")])
    step(["train-clf", "--features", str(root / "feats"), "--out", str(root / "clf")])
    step(["evaluate", "--data", str(root / "data"), "--baseline", str(root / "base"),
          "--sr", str(root / "sr"), "--features", str(root / "feats"),
          "--classifier", str(root / "clf"), "--out", str(root / "metrics")])
    step(["report", "--metrics", str(root / "metrics"), "--out", str(root / "report")],
         args=[])


def test_09_byte_determinism(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        _toy_pipeline(tmp_path / name)

    files_a = sorted(p.relative_to(tmp_path / "a")
                     for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b")
                     for p in (tmp_path / "b").rglob("*") if p.is_file())
    failures = []
    if files_a != files_b:
        failures.append("file listings differ")
    else:
        for rel in files_a:
            if (tmp_path / "a" / rel).read_bytes() != (tmp_path / "b" / rel).read_bytes():
                failures.append(f"bytes differ: {rel}")
    _verdict(9, "byte determinism", not failures,
             "; ".join(failures) or f"{len(files_a)} files byte-identical")
