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
    load_generator,
    pair_arrays,
    train,
)
from eegsr.models import DiscriminatorConfig, GeneratorConfig, build_discriminator, build_generator
from eegsr.nn.layers import Model, dense, flatten

from helpers import epoch_set, peak_bytes, same_bits

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

    def forward(self, x, rng=None):
        return x


class _ConstCritic:
    dtype = np.float64

    def __init__(self, value):
        self.value = value

    def forward(self, x, rng=None):
        from eegsr.nn.tensor import Tensor

        return Tensor(np.full((x.shape[0], 1), self.value))


class _ExplodingCritic:
    dtype = np.float64

    def forward(self, x, rng=None):
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


def test_train_is_the_two_steps_in_a_loop():
    # A twin state driven by hand through the batches its own data stream
    # draws: 10 segments in batches of 4 give steps of 4, 4 and 2, and
    # training_ratio 2 puts a critic step after generator steps 2, 4 and 6.
    pair = paired_sets(10, seed=5)
    cfg = tiny_cfg(gan_epochs=2, training_ratio=2)
    trained, by_hand = (TrainState.fresh("gan", *tiny_models(seed=4), cfg) for _ in range(2))
    train(trained, pair, cfg)
    (x, x_index), (y, y_index) = pair_arrays(*pair, by_hand.gen)
    for _ in range(cfg.gan_epochs):
        order = by_hand.data_rng.permutation(len(x_index))
        for lo in range(0, len(order), cfg.batch_size):
            sel = order[lo : lo + cfg.batch_size]
            xb, yb = x[x_index[sel]], y[y_index[sel]]
            gan.generator_step(by_hand, xb, yb, cfg, None)
            if by_hand.g_steps % cfg.training_ratio == 0:
                gan.critic_step(by_hand, xb, yb, cfg, None)

    assert (trained.epoch, trained.g_steps, trained.d_steps) == (2, 6, 3)
    assert (by_hand.g_steps, by_hand.d_steps) == (6, 3)
    for a, b in ((trained.gen, by_hand.gen), (trained.disc, by_hand.disc)):
        assert all(same_bits(p.data, q.data) for p, q in zip(a.parameters(), b.parameters()))
    for a, b in ((trained.g_state, by_hand.g_state), (trained.d_state, by_hand.d_state)):
        assert a.t == b.t
        assert all(same_bits(p, q) for p, q in zip(a.m + a.v, b.m + b.v))
    for rng in ("data_rng", "adv_rng"):
        assert (getattr(trained, rng).bit_generator.state
                == getattr(by_hand, rng).bit_generator.state)
    assert trained.history.records == by_hand.history.records
    assert [r.step for r in trained.history.records] == list(range(6))


def test_pair_arrays_validates_alignment():
    gen, _ = tiny_models()
    lr, hr = paired_sets(4)
    for check in (gan.check_pair, pair_arrays):
        hr.origins[2] += 1
        with pytest.raises(DataError, match="misaligned at epoch 2"):
            check(lr, hr, gen)
        hr.origins[2] -= 1
        hr.subject_ids[3] = "s02"
        with pytest.raises(DataError, match="misaligned at epoch 3"):
            check(lr, hr, gen)
        hr.subject_ids[3] = "s01"


def test_pair_arrays_refuses_segments_of_another_shape():
    # The generator reads 4 x 8 segments and writes 4 x 8.
    gen, _ = tiny_models()
    lr, hr = paired_sets(3)
    for check in (gan.check_pair, pair_arrays):
        for side, lr_values, hr_values in (("lr", lr.values[:, :2], hr.values),
                                           ("hr", lr.values, hr.values[:, :, :4])):
            with pytest.raises(DataError, match=f"unsplit {side} segments of shape"):
                check(replace(lr, values=lr_values), replace(hr, values=hr_values), gen)


def test_check_pair_allocates_no_copy_of_the_pair():
    # The val pair is only checked: a cast of both sides, thrown away, was
    # 2 x 32 KiB here.
    gen, _ = tiny_models(dtype=np.float32)
    lr, hr = paired_sets(256)
    _, peak = peak_bytes(lambda: gan.check_pair(lr, hr, gen))
    assert peak < lr.values.nbytes / 16, peak


def repeated_pair(rows):
    """`paired_sets` rows repeated in the order of `rows`, each repeat at the
    origin of its row, as overlapping epochs repeat a segment and a loaded
    archive stores it: the distinct rows once, with `rows` as the index."""
    lr, hr = paired_sets(max(rows) + 1)
    return tuple(epoch_set(s.values, label=2, origins=s.origins[rows], index=np.array(rows))
                 for s in (lr, hr))


class RecordingRng:
    """A numpy Generator that keeps every permutation it draws."""

    def __init__(self, rng):
        self.rng, self.orders = rng, []

    def permutation(self, n):
        self.orders.append(self.rng.permutation(n))
        return self.orders[-1]

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_training_pair_holds_distinct_rows_and_gathers_every_batch(monkeypatch):
    rows = [0, 1, 0, 2, 1, 3, 4, 0, 2, 2, 1, 4, 4, 3]  # 14 rows, 5 distinct
    lr, hr = repeated_pair(rows)
    gen, disc = tiny_models(dtype=np.float32)
    (x, x_index), (y, y_index) = pair_arrays(lr, hr, gen)
    held = sum((a if a.base is None else a.base).nbytes for a in (x, x_index, y, y_index))
    row_bytes = 4 * 8 * np.dtype(np.float32).itemsize
    assert held <= 2 * 5 * row_bytes + 2 * len(rows) * x_index.itemsize, held

    batches, pairs = [], []
    real_loss, real_pair = gan.generator_loss, gan.pair_arrays

    def recording_loss(gen, disc, lr_batch, hr_batch, *args):
        batches.append((lr_batch.copy(), hr_batch.copy()))
        return real_loss(gen, disc, lr_batch, hr_batch, *args)

    def recording_pair(*args):
        pairs.append(args)
        return real_pair(*args)

    monkeypatch.setattr(gan, "generator_loss", recording_loss)
    monkeypatch.setattr(gan, "pair_arrays", recording_pair)
    cfg = tiny_cfg(gan_epochs=2, batch_size=4, training_ratio=2)
    state = TrainState.fresh("gan", gen, disc, cfg)
    state.data_rng = RecordingRng(state.data_rng)
    train(state, (lr, hr), cfg, val_pair=repeated_pair([1, 1, 0]))
    # Only the train pair is cast; the val pair is only checked.
    assert len(pairs) == 1
    whole_x, whole_y = (s.rows().astype(np.float32)[:, None] for s in (lr, hr))
    expected = [(whole_x[sel], whole_y[sel]) for order in state.data_rng.orders
                for sel in np.array_split(order, range(4, len(rows), 4))]
    assert len(batches) == len(expected) == 8
    for (xb, yb), (want_x, want_y) in zip(batches, expected):
        assert same_bits(xb, want_x) and same_bits(yb, want_y)


def test_evaluate_mse_matches_direct_computation():
    gen, _ = tiny_models()
    lr, hr = paired_sets(6)
    got = evaluate_mse(gen, lr, hr)
    (x, x_index), (y, y_index) = pair_arrays(lr, hr, gen)
    from eegsr.nn.tensor import Tensor, no_grad

    with no_grad():
        pred = gen.forward(Tensor(x[x_index])).data
    expected = float(((pred - y[y_index]) ** 2).mean())
    assert abs(got - expected) < 1e-12


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


def test_checkpoint_files_are_c_ordered_and_weights_stay_kernel_row_ordered(tmp_path):
    # The files hold each array in C order of its shape, as before conv
    # weights lay in kernel-row order; built, stepped, loaded and resumed
    # networks and their Adam moments keep that order.
    def c_bytes(arrays):
        return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)

    def kernel_row_ordered(arrays):
        convs = [a for a in arrays if a.ndim == 4]
        return convs and all(a.transpose(2, 0, 3, 1).flags.c_contiguous for a in convs)

    gen, disc = tiny_models()
    assert kernel_row_ordered([p.data for p in gen.parameters() + disc.parameters()])
    pair = paired_sets(8)
    state = run_phase("gan", gen, disc, pair, tiny_cfg(gan_epochs=1), checkpoint_dir=tmp_path)
    last = tmp_path / "last"
    for net, model, adam, moments in (("generator", gen, "gen_adam", state.g_state),
                                      ("discriminator", disc, "disc_adam", state.d_state)):
        params = [p.data for p in model.parameters()]
        assert (last / net / "params.bin").read_bytes() == c_bytes(params)
        assert (last / f"{adam}_m.bin").read_bytes() == c_bytes(moments.m)
        assert (last / f"{adam}_v.bin").read_bytes() == c_bytes(moments.v)
        assert kernel_row_ordered(params + moments.m + moments.v)
    ck = load_checkpoint(last)
    for s in (ck, train(load_checkpoint(last), pair, tiny_cfg(gan_epochs=2))):
        for model, moments in ((s.gen, s.g_state), (s.disc, s.d_state)):
            assert kernel_row_ordered([p.data for p in model.parameters()] + moments.m + moments.v)
    for a, b in zip(state.g_state.m + state.d_state.v, ck.g_state.m + ck.d_state.v):
        assert np.array_equal(a, b)


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
    _, sections = load_generator(tmp_path / "best")
    assert float(sections["checkpoint"]["best_val_mse"]) == result.best_val_mse


def test_best_keeps_the_first_of_equal_validation_scores(tmp_path, monkeypatch):
    # At an lr too small to move a float32 weight every epoch validates the
    # same, and only a lower score replaces `best`: it stays the first epoch.
    scores = []

    def evaluate_and_keep(*args):
        scores.append(evaluate_mse(*args))
        return scores[-1]

    monkeypatch.setattr(gan, "evaluate_mse", evaluate_and_keep)
    gen, _ = tiny_models(dtype=np.float32)
    run_phase("pretrain", gen, None, paired_sets(12, seed=1),
              tiny_cfg(pretrain_epochs=3, lr=1e-30), val_pair=paired_sets(8, seed=2),
              checkpoint_dir=tmp_path)
    assert len(scores) == 3 and len(set(scores)) == 1, scores
    _, sections = load_generator(tmp_path / "best")
    assert int(sections["checkpoint"]["epoch"]) == 1


def test_best_checkpoint_holds_only_the_generator(tmp_path):
    # `best` is the selected generator, which sr-infer and --init read;
    # resuming needs the critic, Adam moments and history that `last` holds.
    train_pair, val_pair = paired_sets(12, seed=1), paired_sets(8, seed=2)
    # At lr 1e-3 the last of 3 epochs validates best, at lr 0.1 the first.
    for lr, best_epoch in ((1e-3, 3), (0.1, 1)):
        out, validated = tmp_path / f"lr{lr}", []

        def evaluate_and_keep(g, lr_set, hr_set):
            validated.append([p.data.copy() for p in g.parameters()])
            return evaluate_mse(g, lr_set, hr_set)

        gen, disc = tiny_models()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gan, "evaluate_mse", evaluate_and_keep)
            result = run_phase("gan", gen, disc, train_pair, tiny_cfg(gan_epochs=3, lr=lr),
                               val_pair=val_pair, checkpoint_dir=out)
        best = out / "best"
        assert sorted(p.relative_to(best).as_posix() for p in best.rglob("*")
                      if p.is_file()) == ["generator/manifest.txt", "generator/params.bin",
                                          "manifest.txt"]
        best_gen, sections = load_generator(best)
        assert int(sections["checkpoint"]["epoch"]) == best_epoch
        assert float(sections["checkpoint"]["best_val_mse"]) == result.best_val_mse
        for a, b in zip(best_gen.parameters(), validated[best_epoch - 1], strict=True):
            assert np.array_equal(a.data, b)
        if best_epoch == 3:
            for name in ("manifest.txt", "params.bin"):
                assert (best / "generator" / name).read_bytes() == \
                    (out / "last" / "generator" / name).read_bytes()
        with pytest.raises(ParseError, match=r"only a generator.*`last`"):
            load_checkpoint(best)
