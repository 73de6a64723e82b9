"""The text of every INI manifest, pinned for fixed inputs.

Criterion 9 compares reruns of one version of the code; these goldens
compare the manifest text across versions, so a change to the one manifest
codec that alters a byte of config.txt, a checkpoint or model manifest, an
epoch-archive manifest or info.txt fails here.
"""
import numpy as np

from eegsr.archive import save_epoch_set, save_preprocess_info
from eegsr.config import TrainConfig, load_config, save_config
from eegsr.data import NormStats, make_montage
from eegsr.gan import TrainState, save_checkpoint
from eegsr.nn.layers import Model, concat, conv, dense, dropout, flatten
from eegsr.nn.serialize import save_model

from helpers import epoch_set

CONFIG = """\
[run]
seed = 42
precision = f64

[synth]
n_channels = 16
n_samples = 8544
fs = 512.0
n_sources = 4
band_low = 6.25
band_high = 30.0
sines_per_source = 3
amplitude = 10.0
noise_sigma = 1.0
mixing_seed = 90
n_classes = 3
class_ids = 1,4,6
class_band_offsets = 0.0,6.0,-4.0
label_block = 2048
subject = s07

[preprocess]
scale = 4
window = 512
stride = 32
seg_len = 64
ratio_train = 0.75
ratio_val = 0.2
ratio_test = 0.05

[model]
width = 0.015625
gen_dropout = 0.1
disc_dropout = 0.25
elu_alpha = 1.0

[train]
pretrain_epochs = 50
gan_epochs = 20
batch_size = 64
lr = 3e-05
beta1 = 0.5
beta2 = 0.9
gp_weight = 10.0
training_ratio = 3
adv_weight = 0.01
loss_mode = wgan_gp
checkpoint_every = 1

[classifier]
epochs = 30
batch_size = 32
lr = 0.001
beta1 = 0.9
beta2 = 0.99

"""

MODEL = """\
[model]
format_version = 1
dtype = f64
seed = 5
input_shape = 1,4,2
layers = 6

[layer0]
kind = conv
kernels = 2
kernel_dims = 3,1
stride = 1,1
activation = elu
elu_alpha = 0.5
dropout_rate = 0.0
concat_sources =\x20

[layer1]
kind = concat
kernels = 0
kernel_dims = 1,1
stride = 1,1
activation = linear
elu_alpha = 1.0
dropout_rate = 0.0
concat_sources = -1,0

[layer2]
kind = conv
kernels = 1
kernel_dims = 1,2
stride = 2,1
activation = linear
elu_alpha = 1.0
dropout_rate = 0.0
concat_sources =\x20

[layer3]
kind = flatten
kernels = 0
kernel_dims = 1,1
stride = 1,1
activation = linear
elu_alpha = 1.0
dropout_rate = 0.0
concat_sources =\x20

[layer4]
kind = dropout
kernels = 0
kernel_dims = 1,1
stride = 1,1
activation = linear
elu_alpha = 1.0
dropout_rate = 0.25
concat_sources =\x20

[layer5]
kind = dense
kernels = 3
kernel_dims = 1,1
stride = 1,1
activation = softmax
elu_alpha = 1.0
dropout_rate = 0.0
concat_sources =\x20

[extra]
class_ids = 2,3,7
scaler_mu = 0.5,-1.25

"""

CHECKPOINT = """\
[checkpoint]
format_version = 2
phase = gan
epoch = 3
g_steps = 12
d_steps = 4
fingerprint = 0123456789abcdef
best_val_mse = 0.3333333333333333
g_adam_t = 0
d_adam_t = 0
has_disc = 1
data_rng = {"bit_generator": "PCG64", "state": {"state": 35399562948360463058890781895381311971, "inc": 87136372517582989555478159403783844777}, "has_uint32": 0, "uinteger": 0}
adv_rng = {"bit_generator": "PCG64", "state": {"state": 212261176692097735821178635025805671832, "inc": 251861733285428254093864503361061940705}, "has_uint32": 0, "uinteger": 0}

[train]
pretrain_epochs = 2
gan_epochs = 4
batch_size = 8
lr = 0.00025
beta1 = 0.5
beta2 = 0.9
gp_weight = 7.5
training_ratio = 3
adv_weight = 0.01
loss_mode = wgan_gp
checkpoint_every = 1
seed = 0

"""

ARCHIVE = """\
[archive]
format_version = 1
dtype = f32
n_epochs = 2
n_channels = 3
n_samples = 4
fs = 256.5
split = val
channel_labels = Fp1,Fz,Cz
has_channel_labels = 1

"""

INFO = """\
[montage]
n_channels = 8
scale = 4
lr_indices = 0,4
hr_indices = 1,2,3,5,6,7

[normalization]
mu = -0.1
sigma = 19.039530762210784

[epoching]
window = 256
stride = 16
seg_len = 32

"""


def small_model():
    return Model([conv(2, (3, 1), "elu", elu_alpha=0.5), concat(-1, 0),
                  conv(1, (1, 2), stride=(2, 1)), flatten(), dropout(0.25), dense(3, "softmax")],
                 (1, 4, 2), seed=5, dtype=np.float64)


def test_config_text(tmp_path):
    cfg = load_config(overrides={
        "run.seed": "42", "run.precision": "f64", "synth.n_channels": "16",
        "synth.band_low": "6.25", "synth.n_classes": "3", "synth.class_ids": "1,4,6",
        "synth.subject": "s07", "preprocess.scale": "4", "model.width": "0.015625",
        "train.lr": "3e-05"})
    save_config(tmp_path / "config.txt", cfg)
    assert (tmp_path / "config.txt").read_text() == CONFIG


def test_model_manifest_text(tmp_path):
    save_model(tmp_path, small_model(), extra={"class_ids": "2,3,7", "scaler_mu": "0.5,-1.25"})
    assert (tmp_path / "manifest.txt").read_text() == MODEL


def test_checkpoint_manifest_text(tmp_path):
    cfg = TrainConfig(pretrain_epochs=2, gan_epochs=4, batch_size=8, lr=2.5e-4, gp_weight=7.5)
    state = TrainState.fresh("gan", small_model(), small_model(), cfg,
                             fingerprint="0123456789abcdef")
    state.epoch, state.g_steps, state.d_steps, state.best_val_mse = 3, 12, 4, 1 / 3
    save_checkpoint(tmp_path, state, cfg)
    assert (tmp_path / "manifest.txt").read_text() == CHECKPOINT


def test_archive_manifest_text(tmp_path):
    save_epoch_set(tmp_path, epoch_set(np.zeros((2, 3, 4)), label=2, split="val", fs=256.5,
                                       channel_labels=("Fp1", "Fz", "Cz")), dtype=np.float32)
    assert (tmp_path / "manifest.txt").read_text() == ARCHIVE


def test_preprocess_info_text(tmp_path):
    save_preprocess_info(tmp_path / "info.txt", make_montage(8, 4),
                         NormStats(mu=-0.1, sigma=19.039530762210784), 256, 16, 32)
    assert (tmp_path / "info.txt").read_text() == INFO
