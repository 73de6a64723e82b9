"""Configuration loading, overrides, validation and round-tripping."""
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegsr.config import SCHEMA, RunConfig, TrainConfig, load_config, save_config
from eegsr.data import SIGMA_FLOOR, NormStats, SyntheticConfig, make_montage
from eegsr.errors import ConfigError
from eegsr.ini import format_value, from_section, section_of
from eegsr.nn.layers import LayerSpec, concat, conv, dense
from eegsr.psd import ClassifierTrainConfig

# A value other than the default for every key of the dataclass sections
# that has one: train.loss_mode has a single legal value.
NON_DEFAULT = {
    "synth.n_channels": "16", "synth.n_samples": "4096", "synth.n_classes": "2",
    "synth.class_ids": "1,4,6", "synth.label_block": "512",
    "train.pretrain_epochs": "3", "train.gan_epochs": "4", "train.batch_size": "8",
    "train.lr": "3e-05", "train.beta1": "0.25", "train.beta2": "0.875",
    "train.gp_weight": "5.5", "train.training_ratio": "2", "train.adv_weight": "0.125",
    "train.checkpoint_every": "2",
    "classifier.epochs": "5", "classifier.batch_size": "16", "classifier.lr": "0.002",
    "classifier.beta1": "0.8", "classifier.beta2": "0.95",
}


def test_defaults():
    cfg = load_config()
    assert cfg["run"]["seed"] == 0
    assert cfg["run"]["precision"] == "f32"
    assert cfg["synth"]["n_channels"] == 32
    assert cfg["preprocess"]["scale"] == 2
    assert cfg["preprocess"]["window"] == 512
    assert cfg["preprocess"]["seg_len"] == 64
    assert cfg["model"]["width"] == 1.0
    assert cfg["train"]["lr"] == 1e-4
    assert cfg["train"]["beta1"] == 0.5
    assert cfg["train"]["beta2"] == 0.9
    assert cfg["train"]["gp_weight"] == 10.0
    assert cfg["train"]["training_ratio"] == 3
    assert cfg["train"]["adv_weight"] == 1e-2
    assert cfg["classifier"]["lr"] == 1e-3


def test_defaults_cover_schema():
    cfg = RunConfig()
    for section, keys in SCHEMA.items():
        for key in keys:
            assert key in cfg[section]


def test_file_values_applied(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[train]\nlr = 0.001\nbatch_size = 16  # inline comment\n"
                    "[run]\nprecision = f64\n")
    cfg = load_config(path)
    assert cfg["train"]["lr"] == 0.001
    assert cfg["train"]["batch_size"] == 16
    assert cfg["run"]["precision"] == "f64"
    assert cfg.dtype() is np.float64


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[train]\nlr = 0.001\n")
    cfg = load_config(path, overrides={"train.lr": "0.01", "run.seed": "5"})
    assert cfg["train"]["lr"] == 0.01
    assert cfg["run"]["seed"] == 5


def test_unknown_names_rejected(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[nosuch]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(path)
    path.write_text("[train]\nnosuch = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(overrides={"train.nosuch": "1"})
    with pytest.raises(ConfigError, match="section.key"):
        load_config(overrides={"justakey": "1"})
    with pytest.raises(ConfigError):
        RunConfig()["nosuch"]


def test_parse_and_validation_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(overrides={"train.lr": "abc"})
    with pytest.raises(ConfigError, match="precision"):
        load_config(overrides={"run.precision": "f16"})
    with pytest.raises(ConfigError, match="sum to 1"):
        load_config(overrides={"preprocess.ratio_train": "0.9"})
    with pytest.raises(ConfigError, match="divide evenly"):
        load_config(overrides={"preprocess.seg_len": "60"})
    with pytest.raises(ConfigError, match="train"):
        load_config(overrides={"train.training_ratio": "0"})
    with pytest.raises(ConfigError, match="train"):
        load_config(overrides={"train.loss_mode": "hinge"})
    with pytest.raises(ConfigError, match="file not found"):
        load_config(tmp_path / "absent.ini")


def test_save_load_roundtrip(tmp_path):
    cfg = load_config(overrides={**NON_DEFAULT, "model.width": "0.015625", "run.seed": "42"})
    for name in NON_DEFAULT:
        section, key = name.split(".")
        assert cfg[section][key] != SCHEMA[section][key], name
    path = tmp_path / "resolved.ini"
    save_config(path, cfg)
    back = load_config(path)
    assert back.values == cfg.values
    # One codec serves every manifest: each dataclass written as a section,
    # tuples (empty ones too) and numpy floats included, reads back as it was.
    for obj in (cfg.synth_config(), cfg.train_config(), cfg.classifier_train_config(),
                SyntheticConfig(), TrainConfig(), ClassifierTrainConfig(),
                LayerSpec("flatten"), conv(3, (9, 3), "elu", stride=(2, 1)),
                concat(-1, 0, 2), dense(4, "elu", dropout_rate=0.25), make_montage(32, 4),
                NormStats(mu=np.float64(-0.1), sigma=np.float64(1 / 3))):
        assert from_section(type(obj), section_text(obj)) == obj, obj


def section_text(obj):
    """The text a manifest holds for dataclass `obj`, key by key."""
    return {k: format_value(v) for k, v in section_of(obj).items()}


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(mu=finite, sigma=st.floats(min_value=SIGMA_FLOOR, allow_infinity=False),
       rate=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       sources=st.lists(st.integers(-1, 10**6), min_size=2), numpy=st.booleans())
def test_sections_round_trip_exactly(mu, sigma, rate, sources, numpy):
    wrap = np.float64 if numpy else float
    stats = NormStats(mu=wrap(mu), sigma=wrap(sigma))
    back = from_section(NormStats, section_text(stats))
    assert (back.mu, back.sigma) == (mu, sigma) and type(back.mu) is float
    for spec in (LayerSpec("concat", concat_sources=tuple(sources)),
                 LayerSpec("dense", kernels=len(sources), dropout_rate=wrap(rate)),
                 LayerSpec("conv", kernels=1, dropout_rate=rate)):
        assert from_section(LayerSpec, section_text(spec)) == spec


def test_dataclass_sections_come_from_the_dataclasses():
    assert list(SCHEMA["synth"]) == [
        "n_channels", "n_samples", "n_classes", "class_ids", "label_block"]
    for section, cls in (("train", TrainConfig), ("classifier", ClassifierTrainConfig)):
        assert list(SCHEMA[section]) == [f.name for f in fields(cls) if f.name != "seed"]
    assert sum(len(keys) for keys in SCHEMA.values()) == 33
    cfg = load_config(overrides={"run.seed": "9"})
    assert cfg.synth_config() == SyntheticConfig()
    assert cfg.train_config() == TrainConfig(seed=9)
    assert cfg.classifier_train_config() == ClassifierTrainConfig(seed=9)


def test_derived_configs():
    cfg = load_config(overrides={"preprocess.scale": "4", "model.width": "0.5"})
    gen = cfg.generator_config()
    assert gen.c_lr == 8
    assert gen.c_hr == 24
    assert gen.scale == 4
    disc = cfg.discriminator_config()
    assert disc.c_hr == 24
    assert cfg.dtype() is np.float32
    sy = cfg.synth_config()
    assert sy.n_channels == 32
    tr = cfg.train_config()
    assert tr.seed == cfg["run"]["seed"]
    cl = cfg.classifier_train_config()
    assert cl.seed == cfg["run"]["seed"]


def test_classifier_config_class_count():
    cfg = load_config()
    assert cfg.classifier_config().class_ids == (2, 3, 7)
    # single-class synthesis still yields a 2-way head so training is defined
    cfg1 = load_config(overrides={"synth.n_classes": "1"})
    assert len(cfg1.classifier_config().class_ids) == 2
