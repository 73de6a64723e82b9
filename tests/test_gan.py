"""Adversarial training: penalty anchors, loss algebra, loops, checkpoints."""
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from eegsr import gan
from eegsr.errors import ConfigError, DataError, NumericAbort, ParseError
from eegsr.gan import (
    LossHistory,
    TrainConfig,
    TrainState,
    config_fingerprint,
    discriminator_loss,
    evaluate_mse,
    generator_loss,
    gradient_penalty,
    load_checkpoint,
    pair_arrays,
    train,
)
from eegsr.models import DiscriminatorConfig, GeneratorConfig, build_discriminator, build_generator
from eegsr.nn.layers import Model, dense, flatten

from helpers import epoch_set

RNG = np.random.default_rng(20260808)


def linear_critic(weights, bias=0.0, shape=(1, 2, 2)):
    """D(x) = w . x + b as a real Model with exactly set parameters."""
    model = Model([flatten(), dense(1)], shape, seed=0, dtype=np.float64)
    n = int(np.prod(shape))
    w = np.asarray(weights, dtype=np.float64).reshape(1, n)
    model.set_parameters([w, np.array([bias])])
    return model


def paired_sets(n, c_lr=4, c_hr=4, seg_len=8, seed=0):
    rng = np.random.default_rng(seed)
    lr, hr = [], []
    for _ in range(n):
        base = rng.normal(size=(c_lr, seg_len))
        lr.append(base)
        hr.append(base[::-1] * 0.5 + rng.normal(size=(c_hr, seg_len)) * 0.05)
    return (epoch_set(lr, label=2, fs=512.0), epoch_set(hr, label=2, fs=512.0))


def tiny_models(dtype=np.float64, seed=3):
    gen = build_generator(GeneratorConfig(c_lr=4, scale=2, seg_len=8, width=1 / 64),
                          seed=seed, dtype=dtype)
    disc = build_discriminator(DiscriminatorConfig(c_hr=4, seg_len=8, width=1 / 64),
                               seed=seed + 1, dtype=dtype)
    return gen, disc


def run_phase(phase, gen, disc, pair, cfg, **kw):
    """Train a fresh state of `phase`, as the training commands do."""
    return train(TrainState.fresh(phase, gen, disc, cfg), pair, cfg, **kw)


def tiny_cfg(**kw):
    base = dict(pretrain_epochs=2, gan_epochs=2, batch_size=4, lr=1e-3,
                checkpoint_every=1, seed=9)
    base.update(kw)
    return TrainConfig(**base)


# -- gradient penalty anchors --


def test_unit_slope_critic_gives_zero_penalty():
    w = np.array([0.5, 0.5, 0.5, 0.5])  # ||w|| = 1
    disc = linear_critic(w)
    real = RNG.normal(size=(6, 1, 2, 2))
    fake = RNG.normal(size=(6, 1, 2, 2))
    gp = gradient_penalty(disc, real, fake, 10.0, np.random.default_rng(0))
    assert abs(gp.item()) < 1e-9


def test_slope_two_critic_gives_lambda():
    w = np.array([1.0, 1.0, 1.0, 1.0])  # ||w|| = 2
    disc = linear_critic(w)
    real = RNG.normal(size=(5, 1, 2, 2))
    fake = RNG.normal(size=(5, 1, 2, 2))
    gp = gradient_penalty(disc, real, fake, 10.0, np.random.default_rng(1))
    assert abs(gp.item() - 10.0) < 1e-9


def test_constant_critic_gives_lambda():
    disc = linear_critic(np.zeros(4), bias=3.0)
    real = RNG.normal(size=(4, 1, 2, 2))
    fake = RNG.normal(size=(4, 1, 2, 2))
    gp = gradient_penalty(disc, real, fake, 7.0, np.random.default_rng(2))
    assert abs(gp.item() - 7.0) < 1e-9


def test_penalty_nonnegative_and_seeded():
    gen, disc = tiny_models()
    real = RNG.normal(size=(4, 1, 4, 8))
    fake = RNG.normal(size=(4, 1, 4, 8))
    a = gradient_penalty(disc, real, fake, 10.0, np.random.default_rng(5)).item()
    b = gradient_penalty(disc, real, fake, 10.0, np.random.default_rng(5)).item()
    assert a >= 0.0
    assert a == b


# -- loss substitution cases --


def test_discriminator_loss_substitution():
    # D = projection onto the first input element: D(real) = 1, D(fake) = 0.
    w = np.array([1.0, 0.0, 0.0, 0.0])
    disc = linear_critic(w)
    real = np.zeros((3, 1, 2, 2))
    real[:, 0, 0, 0] = 1.0
    fake = np.zeros((3, 1, 2, 2))
    loss, gp = discriminator_loss(disc, real, fake, 0.0, np.random.default_rng(0))
    assert abs(loss.item() - (-1.0)) < 1e-12
    assert gp.item() == 0.0


def test_discriminator_loss_zero_critic_is_lambda():
    disc = linear_critic(np.zeros(4))
    real = RNG.normal(size=(3, 1, 2, 2))
    fake = RNG.normal(size=(3, 1, 2, 2))
    loss, gp = discriminator_loss(disc, real, fake, 10.0, np.random.default_rng(0))
    assert abs(loss.item() - 10.0) < 1e-9
    assert abs(gp.item() - 10.0) < 1e-9


class _IdentityGen:
    dtype = np.float64

    def forward(self, x, training=False, rng=None):
        return x


class _ConstCritic:
    dtype = np.float64

    def __init__(self, value):
        self.value = value

    def forward(self, x, training=False, rng=None):
        from eegsr.nn.tensor import Tensor

        return Tensor(np.full((x.shape[0], 1), self.value))


class _ExplodingCritic:
    dtype = np.float64

    def forward(self, x, training=False, rng=None):
        raise AssertionError("critic must not be evaluated when adv_weight is 0")


def test_generator_loss_substitution():
    # G identity, D constant 5, hr offset 0.5 -> mse 0.25:
    # total = 1e-2 * (-5) + 0.25 = 0.2.
    lr = RNG.normal(size=(4, 1, 2, 2))
    hr = lr + 0.5
    total, adv, mse = generator_loss(_IdentityGen(), _ConstCritic(5.0), lr, hr,
                                     1e-2, np.random.default_rng(0),
                                     np.random.default_rng(1))
    assert abs(mse.item() - 0.25) < 1e-12
    assert abs(adv.item() - (-5.0)) < 1e-12
    assert abs(total.item() - 0.2) < 1e-12


def test_generator_loss_zero_weight_skips_critic():
    lr = RNG.normal(size=(2, 1, 2, 2))
    hr = lr * 0.5
    total, adv, mse = generator_loss(_IdentityGen(), _ExplodingCritic(), lr, hr,
                                     0.0, np.random.default_rng(0),
                                     np.random.default_rng(1))
    assert total is mse
    assert adv.item() == 0.0


# -- training loops --


def test_pretrain_bookkeeping_and_loss_decrease():
    gen, _ = tiny_models()
    pair = paired_sets(20)
    cfg = tiny_cfg(pretrain_epochs=8)
    result = run_phase("pretrain", gen, None, pair, cfg)
    # 20 segments / batch 4 = 5 steps per epoch.
    assert result.g_steps == 40
    assert len(result.history) == 40
    assert result.history.all_finite()
    first = np.mean([r.g_mse for r in result.history.records[:5]])
    last = np.mean([r.g_mse for r in result.history.records[-5:]])
    assert last < first


def test_pretrain_determinism():
    pair = paired_sets(12)
    outs = []
    for _ in range(2):
        gen, _ = tiny_models()
        run_phase("pretrain", gen, None, pair, tiny_cfg())
        outs.append(np.concatenate([p.data.ravel() for p in gen.parameters()]))
    assert np.array_equal(outs[0], outs[1])


def test_wgan_update_ratio_floor():
    # 30 generator steps at ratio 3 -> exactly 10 critic steps.
    gen, disc = tiny_models()
    pair = paired_sets(20)
    cfg = tiny_cfg(gan_epochs=6)
    result = run_phase("gan", gen, disc, pair, cfg)
    assert result.g_steps == 30
    assert result.d_steps == 10
    assert result.history.all_finite()


def test_wgan_ratio_one_updates_every_step():
    gen, disc = tiny_models()
    pair = paired_sets(8)
    result = run_phase("gan", gen, disc, pair, tiny_cfg(gan_epochs=1, training_ratio=1))
    assert result.g_steps == 2
    assert result.d_steps == 2


def test_zero_adv_weight_matches_pretraining_exactly():
    pair = paired_sets(16, seed=4)
    gen_a, _ = tiny_models(seed=6)
    run_phase("pretrain", gen_a, None, pair, tiny_cfg(pretrain_epochs=3))
    gen_b, disc = tiny_models(seed=6)
    run_phase("gan", gen_b, disc, pair, tiny_cfg(gan_epochs=3, adv_weight=0.0))
    for a, b in zip(gen_a.parameters(), gen_b.parameters()):
        assert np.array_equal(a.data, b.data)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_numeric_abort_reports_step():
    gen, _ = tiny_models()
    pair = (epoch_set(np.full((4, 4, 8), 1e200), fs=512.0),
            epoch_set(np.full((4, 4, 8), -1e200), fs=512.0))
    with pytest.raises(NumericAbort) as err:
        run_phase("pretrain", gen, None, pair, tiny_cfg(pretrain_epochs=1))
    assert err.value.step == 0
    assert "step 0" in str(err.value)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_adversarial_numeric_abort_writes_a_loadable_checkpoint(tmp_path):
    gen, disc = tiny_models()
    pair = (epoch_set(np.full((4, 4, 8), 1e200), fs=512.0),
            epoch_set(np.full((4, 4, 8), -1e200), fs=512.0))
    with pytest.raises(NumericAbort) as err:
        run_phase("gan", gen, disc, pair, tiny_cfg(gan_epochs=1), checkpoint_dir=tmp_path)
    assert err.value.step == 0
    state = load_checkpoint(tmp_path / "abort")
    assert state.phase == "gan" and state.g_steps == 0 and state.d_steps == 0


def test_critic_abort_checkpoint_holds_a_row_per_generator_step(tmp_path, monkeypatch):
    # The generator step before a failing critic step is counted; its row,
    # carrying the non-finite critic loss, must be in the abort checkpoint.
    real_loss = gan.discriminator_loss

    def nan_loss(*args, **kwargs):
        loss, gp = real_loss(*args, **kwargs)
        return loss * np.nan, gp

    monkeypatch.setattr(gan, "discriminator_loss", nan_loss)
    gen, disc = tiny_models()
    with pytest.raises(NumericAbort) as err:
        run_phase("gan", gen, disc, paired_sets(8), tiny_cfg(gan_epochs=1, training_ratio=1),
                  checkpoint_dir=tmp_path)
    assert err.value.step == 0
    state = load_checkpoint(tmp_path / "abort")
    assert (state.g_steps, state.d_steps, len(state.history)) == (1, 0, 1)
    assert np.isnan(state.history.records[0].d_loss)


def test_training_drops_each_step_graph(monkeypatch):
    # Every loss output `grad` saw and every gradient it returned must be
    # gone before the next loss is built. Tensor has __slots__, so the
    # weak references go to its arrays.
    real_grad = gan.grad
    held, entries = [], []

    def recording_grad(output, wrt, create_graph=False):
        grads = real_grad(output, wrt, create_graph=create_graph)
        held.append(weakref.ref(output.data))
        held.extend(weakref.ref(g.data) for g in grads)
        return grads

    def checked(loss_fn):
        def wrapper(*args, **kwargs):
            alive = sum(ref() is not None for ref in held)
            assert alive == 0, f"{loss_fn.__name__}: {alive} arrays of a used graph alive"
            entries.append(loss_fn.__name__)
            return loss_fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gan, "grad", recording_grad)
    monkeypatch.setattr(gan, "generator_loss", checked(gan.generator_loss))
    monkeypatch.setattr(gan, "discriminator_loss", checked(gan.discriminator_loss))
    gen, disc = tiny_models()
    pair = paired_sets(8)
    run_phase("pretrain", gen, None, pair, tiny_cfg(pretrain_epochs=2))
    run_phase("gan", gen, disc, pair, tiny_cfg(gan_epochs=2, training_ratio=2))
    # 2 steps per epoch: 4 pretrain steps, then 4 generator and 2 critic steps.
    assert entries.count("generator_loss") == 8
    assert entries.count("discriminator_loss") == 2


def test_pair_arrays_validates_alignment():
    gen, _ = tiny_models()
    lr, hr = paired_sets(4)
    hr.origins[2] += 1
    with pytest.raises(DataError, match="misaligned at epoch 2"):
        pair_arrays(lr, hr, gen)
    hr.origins[2] -= 1
    hr.subject_ids[3] = "s02"
    with pytest.raises(DataError, match="misaligned at epoch 3"):
        pair_arrays(lr, hr, gen)


def test_pair_arrays_refuses_segments_of_another_shape():
    # The generator reads 4 x 8 segments and writes 4 x 8.
    gen, _ = tiny_models()
    lr, hr = paired_sets(3)
    for side, lr_values, hr_values in (("lr", lr.values[:, :2], hr.values),
                                       ("hr", lr.values, hr.values[:, :, :4])):
        with pytest.raises(DataError, match=f"unsplit {side} segments of shape"):
            pair_arrays(replace(lr, values=lr_values), replace(hr, values=hr_values), gen)


def test_evaluate_mse_matches_direct_computation():
    gen, _ = tiny_models()
    lr, hr = paired_sets(6)
    got = evaluate_mse(gen, lr, hr)
    x, y = pair_arrays(lr, hr, gen)
    from eegsr.nn.tensor import Tensor, no_grad

    with no_grad():
        pred = gen.forward(Tensor(x)).data
    expected = float(((pred - y) ** 2).mean())
    assert abs(got - expected) < 1e-12


# -- history and checkpoints --


def test_history_csv_round_trip_exact(tmp_path):
    hist = LossHistory()
    rng = np.random.default_rng(3)
    for i in range(10):
        vals = rng.normal(size=5) * 1e-3
        hist.append(i, *vals)
    hist.to_csv(tmp_path / "h.csv")
    back = LossHistory.from_csv(tmp_path / "h.csv")
    assert back.records == hist.records


def test_history_rejects_bad_header(tmp_path):
    (tmp_path / "h.csv").write_text("step,nope\n")
    with pytest.raises(ParseError):
        LossHistory.from_csv(tmp_path / "h.csv")


def test_checkpoint_round_trip_bit_exact(tmp_path):
    gen, disc = tiny_models()
    pair = paired_sets(8)
    cfg = tiny_cfg(gan_epochs=1)
    result = run_phase("gan", gen, disc, pair, cfg, checkpoint_dir=tmp_path)
    ck = load_checkpoint(tmp_path / "last")
    assert ck.phase == "gan"
    assert (ck.g_steps, ck.d_steps) == (result.g_steps, result.d_steps)
    for a, b in zip(gen.parameters(), ck.gen.parameters()):
        assert np.array_equal(a.data, b.data)
    for a, b in zip(disc.parameters(), ck.disc.parameters()):
        assert np.array_equal(a.data, b.data)
    assert ck.history.records == result.history.records


def test_checkpoint_resume_equals_uninterrupted(tmp_path):
    pair = paired_sets(16, seed=8)

    gen_a, disc_a = tiny_models(seed=2)
    straight = run_phase("gan", gen_a, disc_a, pair, tiny_cfg(gan_epochs=4))

    gen_b, disc_b = tiny_models(seed=2)
    run_phase("gan", gen_b, disc_b, pair, tiny_cfg(gan_epochs=2), checkpoint_dir=tmp_path)
    ck = load_checkpoint(tmp_path / "last")
    resumed = train(ck, pair, tiny_cfg(gan_epochs=4))

    assert resumed.g_steps == straight.g_steps
    assert resumed.d_steps == straight.d_steps
    for a, b in zip(straight.gen.parameters(), resumed.gen.parameters()):
        assert np.array_equal(a.data, b.data)
    for a, b in zip(straight.disc.parameters(), resumed.disc.parameters()):
        assert np.array_equal(a.data, b.data)
    assert straight.history.records == resumed.history.records


def test_resume_checks_the_training_config(tmp_path):
    pair = paired_sets(16, seed=8)
    gen_a, disc_a = tiny_models(seed=2)
    straight = run_phase("gan", gen_a, disc_a, pair, tiny_cfg(gan_epochs=3))
    gen_b, disc_b = tiny_models(seed=2)
    run_phase("gan", gen_b, disc_b, pair, tiny_cfg(gan_epochs=2), checkpoint_dir=tmp_path)

    for changed, name in ((tiny_cfg(gan_epochs=3, lr=2e-3), "lr"),
                          (tiny_cfg(gan_epochs=3, batch_size=8), "batch_size"),
                          (tiny_cfg(gan_epochs=3, seed=10), "seed"),
                          (tiny_cfg(gan_epochs=1), "gan_epochs")):
        with pytest.raises(ConfigError, match=name):
            load_checkpoint(tmp_path / "last", expect_config=changed)

    # Raised epoch counts pass the check and continue the same trajectory.
    cfg = tiny_cfg(gan_epochs=3, pretrain_epochs=5)
    resumed = train(load_checkpoint(tmp_path / "last", expect_config=cfg), pair, cfg)
    assert (resumed.epoch, resumed.g_steps, resumed.d_steps) == \
        (3, straight.g_steps, straight.d_steps)
    for a, b in zip(straight.gen.parameters() + straight.disc.parameters(),
                    resumed.gen.parameters() + resumed.disc.parameters()):
        assert np.array_equal(a.data, b.data)
    assert straight.history.records == resumed.history.records


def test_fingerprint_guard(tmp_path):
    gen, disc = tiny_models()
    pair = paired_sets(8)
    fp = config_fingerprint(GeneratorConfig(c_lr=4, scale=2, seg_len=8, width=1 / 64),
                            DiscriminatorConfig(c_hr=4, seg_len=8, width=1 / 64),
                            np.float64)
    cfg = tiny_cfg(gan_epochs=1)
    train(TrainState.fresh("gan", gen, disc, cfg, fp), pair, cfg, checkpoint_dir=tmp_path)
    assert load_checkpoint(tmp_path / "last", fp).fingerprint == fp
    other = config_fingerprint(GeneratorConfig(c_lr=8, scale=2), None, np.float32)
    with pytest.raises(ParseError):
        load_checkpoint(tmp_path / "last", other)


def test_corrupt_checkpoint_manifest(tmp_path):
    gen, disc = tiny_models()
    run_phase("gan", gen, disc, paired_sets(8), tiny_cfg(gan_epochs=1), checkpoint_dir=tmp_path)
    manifest = tmp_path / "last" / "manifest.txt"
    current = f"format_version = {gan.FORMAT_VERSION}\n"
    text = manifest.read_text()
    assert current in text
    # A negative count, or an Adam step count other than its network's step
    # count, would resume a trajectory the run never took.
    counters = [re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
                for key, value in (("epoch", "-1"), ("g_steps", "-5"), ("d_steps", "-1"),
                                   ("g_adam_t", "99"), ("d_adam_t", "99"))]
    assert text not in counters
    for bad, match in (("[checkpoint]\nepoch = soup\n", "corrupt"),
                       (text.replace(current, "format_version = 1\n"), "checkpoint format '1'"),
                       *((bad, "inconsistent counters") for bad in counters),
                       # a critic step on a resumed run had no critic: a traceback
                       (text.replace("has_disc = 1", "has_disc = 0"), "has_disc = 0")):
        manifest.write_text(bad)
        with pytest.raises(ParseError, match=match):
            load_checkpoint(tmp_path / "last")
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "missing")


def test_best_checkpoint_tracks_validation(tmp_path):
    gen, _ = tiny_models()
    train_pair = paired_sets(12, seed=1)
    val_pair = paired_sets(8, seed=2)
    result = run_phase("pretrain", gen, None, train_pair, tiny_cfg(pretrain_epochs=3),
                       val_pair=val_pair, checkpoint_dir=tmp_path)
    assert result.best_val_mse is not None
    assert (tmp_path / "best").is_dir()
    best = load_checkpoint(tmp_path / "best")
    assert best.best_val_mse == result.best_val_mse
