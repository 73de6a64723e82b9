"""Run configuration: a typed INI schema with defaults and strict parsing.

The [synth], [train] and [classifier] keys and defaults are the fields of
`SyntheticConfig`, `TrainConfig` and `ClassifierTrainConfig`, written only
there; [run], [preprocess] and [model] are written in `SCHEMA`. Every value
parses as the type of its default. Unknown sections or keys are rejected
rather than ignored, so a typo in a config file fails fast instead of
silently running defaults. The resolved configuration (defaults + file +
command-line overrides) can be written back out as `config.txt`, in the INI
format of `eegsr.ini`; rerunning from that file reproduces the run.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .data import SyntheticConfig, check_finite
from .errors import ConfigError
from .ini import parse_value, read, write
from .models import ClassifierConfig, DiscriminatorConfig, GeneratorConfig
from .nn.optim import check_hyperparameters
from .psd import ClassifierTrainConfig

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
    # The one adversarial objective. The key stays because config files,
    # checkpoint manifests and the benchmark harness name it.
    loss_mode: str = "wgan_gp"
    checkpoint_every: int = 1
    seed: int = 0

    def __post_init__(self):
        check_finite(self)
        if self.pretrain_epochs < 0 or self.gan_epochs < 0:
            raise ValueError("epoch counts cannot be negative")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        check_hyperparameters(self.lr, self.beta1, self.beta2)
        if self.gp_weight < 0 or self.adv_weight < 0:
            raise ValueError("gp_weight and adv_weight cannot be negative")
        if self.training_ratio < 1:
            raise ValueError(f"training_ratio must be >= 1, got {self.training_ratio}")
        if self.loss_mode != "wgan_gp":
            raise ValueError(f"loss_mode must be 'wgan_gp', got {self.loss_mode!r}")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


def _section_keys(cls):
    """Keys and defaults of a config dataclass in field order, without `seed`."""
    return {f.name: f.default for f in fields(cls) if f.name != "seed"}


# section -> key -> default.
SCHEMA = {
    "run": {
        "seed": 0,
        "precision": "f32",
    },
    "synth": _section_keys(SyntheticConfig),
    "preprocess": {
        "scale": 2,
        "window": 512,
        "stride": 32,
        "seg_len": 64,
        "ratio_train": 0.75,
        "ratio_val": 0.20,
        "ratio_test": 0.05,
    },
    "model": {
        "width": 1.0,
        "gen_dropout": 0.1,
        "disc_dropout": 0.25,
    },
    "train": _section_keys(TrainConfig),
    "classifier": _section_keys(ClassifierTrainConfig),
}

PRECISIONS = ("f32", "f64")


class RunConfig:
    """Resolved configuration values, addressable as cfg[section][key]."""

    def __init__(self):
        self.values = {s: dict(keys) for s, keys in SCHEMA.items()}

    def __getitem__(self, section):
        try:
            return self.values[section]
        except KeyError:
            raise ConfigError(f"unknown config section [{section}]") from None

    def set(self, section, key, value):
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        if key not in SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        if isinstance(value, str):
            default = SCHEMA[section][key]
            kind = tuple[type(default[0]), ...] if isinstance(default, tuple) else type(default)
            try:
                value = parse_value(kind, value)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: cannot parse {value!r} ({exc})") from None
        self.values[section][key] = value

    def _validate(self):
        if self["run"]["seed"] < 0:
            raise ConfigError(f"run.seed must be >= 0, got {self['run']['seed']}")
        if self["run"]["precision"] not in PRECISIONS:
            raise ConfigError(
                f"precision must be one of {PRECISIONS}, got {self['run']['precision']!r}"
            )
        pp = self["preprocess"]
        ratios = (pp["ratio_train"], pp["ratio_val"], pp["ratio_test"])
        if not (all(0.0 <= r <= 1.0 for r in ratios) and abs(sum(ratios) - 1.0) <= 1e-9):
            raise ConfigError(f"split ratios must lie in [0, 1] and sum to 1, got {ratios}")
        for key, least in (("scale", 2), ("window", 1), ("stride", 1), ("seg_len", 1)):
            if pp[key] < least:
                raise ConfigError(f"preprocess.{key} must be >= {least}, got {pp[key]}")
        if pp["window"] % pp["seg_len"] != 0:
            raise ConfigError(
                f"window {pp['window']} must divide evenly into segments of {pp['seg_len']}"
            )
        # The one check of these ranges: the model configs take them as they
        # are, and commands that build no network refuse them too.
        m = self["model"]
        for key in ("gen_dropout", "disc_dropout"):
            if not 0.0 < m[key] < 1.0:
                raise ConfigError(f"model.{key} must be in (0, 1), got {m[key]}")
        if not 0.0 < m["width"] <= 1.0:
            raise ConfigError(f"model.width must be in (0, 1], got {m['width']}")
        # Constructing the derived configs runs their own validation.
        self.synth_config()
        self.train_config()
        self.classifier_train_config()

    # -- derived, domain-specific config objects --

    @staticmethod
    def _build(what, cls, **kwargs):
        try:
            return cls(**kwargs)
        except Exception as exc:
            raise ConfigError(f"invalid {what} config: {exc}") from exc

    def _dataclass(self, section, cls):
        """Build `cls` from its section; `seed` comes from [run]."""
        values = {**self[section], "seed": self["run"]["seed"]}
        return self._build(f"[{section}]", cls, **{f.name: values[f.name] for f in fields(cls)})

    def synth_config(self):
        return self._dataclass("synth", SyntheticConfig)

    def train_config(self):
        return self._dataclass("train", TrainConfig)

    def classifier_train_config(self):
        return self._dataclass("classifier", ClassifierTrainConfig)

    def generator_config(self):
        pp, m = self["preprocess"], self["model"]
        return self._build("generator", GeneratorConfig,
                           c_lr=self["synth"]["n_channels"] // pp["scale"], scale=pp["scale"],
                           seg_len=pp["seg_len"], dropout_rate=m["gen_dropout"], width=m["width"])

    def discriminator_config(self):
        gen, m = self.generator_config(), self["model"]
        return self._build("critic", DiscriminatorConfig,
                           c_hr=gen.c_hr, seg_len=gen.seg_len, dropout_rate=m["disc_dropout"],
                           width=m["width"])

    def classifier_config(self):
        ids = tuple(self["synth"]["class_ids"])[: max(self["synth"]["n_classes"], 2)]
        return self._build("classifier", ClassifierConfig, class_ids=ids)

    def dtype(self):
        import numpy as np

        return np.float64 if self["run"]["precision"] == "f64" else np.float32


def load_config(path=None, overrides=None):
    """Build a RunConfig from defaults, an optional INI file and overrides.

    `overrides` maps "section.key" to raw string values (as from command
    line flags). Unknown names anywhere raise ConfigError.
    """
    cfg = RunConfig()
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            sections = read(path, inline_comments=True)
        except ValueError as exc:
            raise ConfigError(f"{path}: cannot parse config ({exc})") from exc
        for section, values in sections.items():
            for key, raw in values.items():
                cfg.set(section, key, raw)
    for name, raw in (overrides or {}).items():
        if "." not in name:
            raise ConfigError(f"override {name!r} must look like section.key")
        section, key = name.split(".", 1)
        cfg.set(section, key, raw)
    cfg._validate()
    return cfg


def save_config(path, cfg):
    """Write the resolved configuration in schema order."""
    write(path, cfg.values)
