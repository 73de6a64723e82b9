"""Command-line pipeline driver.

Each subcommand reads and writes artifacts under a run directory, so the
experiment decomposes into resumable, individually rerunnable steps, listed
in pipeline order in `COMMANDS`. `main` is the one runner: it resolves the
config from --config and repeatable --set section.key=value overrides
(every command but report takes them), refuses an absent input path (every
option in `COMMANDS` names one), creates --out (for synth, its directory;
removed again if the command fails without writing to it), calls
`cmd_<name>(args, cfg, out)` and then writes the resolved config beside the
outputs: `config.txt`, for synth `<out>.config.txt`. Exit codes
(`EXIT_CODES`): 2 an absent input path or a usage error, 3 an invalid
config (including a training phase of zero epochs and a --resume under a
changed training config), 4 a numeric abort in training, 130 an
interrupt (Ctrl-C), 1 any other error: an input that exists but is
incomplete (a file inside it missing), malformed, inconsistent or
incompatible (a generator or a classifier with non-finite outputs among
them), or another OSError. Each error ends in one line on stderr.
"""
from __future__ import annotations

import argparse
import ctypes
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import archive, bicubic, data, gan, models, psd, report, table
from .config import load_config, save_config
from .errors import ArtifactError, ConfigError, DataError, EegsrError, NumericAbort, ParseError
from .ini import parse_value
from .nn.serialize import load_model, save_model


def _overrides(args):
    out = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        name, value = item.split("=", 1)
        out[name.strip()] = value.strip()
    return out


def _info(args):
    """(montage, stats, epoching) of the preprocess output under --data."""
    return archive.load_preprocess_info(Path(args.data) / "info.txt")


def _load_set(args, split, side):
    return archive.load_epoch_set(Path(args.data) / f"{split}_{side}")


def _fingerprint(cfg, disc_cfg=None):
    return gan.config_fingerprint(cfg.generator_config(), disc_cfg, cfg.dtype())


def cmd_synth(args, cfg, out):
    rec = data.generate_synthetic(cfg.synth_config(), seed=cfg["run"]["seed"])
    archive.save_recording(out, rec)
    print(f"wrote {rec.n_channels}x{rec.n_samples} recording to {out}")


def cmd_preprocess(args, cfg, out):
    pp = cfg["preprocess"]
    rec = archive.load_recording(args.recording)
    montage = data.make_montage(rec.n_channels, pp["scale"])
    train, *rest = data.split_dataset(
        data.extract_epochs(rec, window=pp["window"], stride=pp["stride"]),
        ratios=(pp["ratio_train"], pp["ratio_val"], pp["ratio_test"]))

    def segments(part):
        return (len(part), *(data.segment_epochs(side, seg_len=pp["seg_len"])
                             for side in data.downsample_set(part, montage)))

    # Build every split before writing any, so a failing split leaves no
    # archives behind. The epochs, their parts and their channel sets are
    # views of the recording, and segmenting copies each side of a split
    # once, so the segments to be written are all that is held. The train
    # statistics come before the other splits, which their transient copy
    # of the train lr values then does not meet.
    splits = [segments(train)]
    stats = data.compute_norm_stats(splits[0][1])
    splits += map(segments, rest)
    for n_epochs, lr_set, hr_set in splits:
        archive.save_epoch_set(out / f"{lr_set.split}_lr", lr_set)
        archive.save_epoch_set(out / f"{hr_set.split}_hr", hr_set)
        print(f"{lr_set.split}: {n_epochs} epochs -> {len(lr_set)} segments")
    archive.save_preprocess_info(out / "info.txt", montage, stats,
                                 pp["window"], pp["stride"], pp["seg_len"])


# glibc mallopt(3) settings, each value a C int. 32 MiB is glibc's own
# ceiling for the dynamic mmap threshold; 2**31 - 1 means the heap top is
# never trimmed in practice.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
HEAP_SETTINGS = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 2**31 - 1))


def keep_freed_heap():
    """Keep freed heap pages in the process for the next training step.

    Every step frees its graph once its gradients are taken; by default glibc
    trims the heap top that leaves and the next step faults the same pages
    back in. Blocks below 32 MiB come from the heap and stay there; larger
    ones are still mapped and unmapped. Does nothing without `mallopt`.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in HEAP_SETTINGS:
        mallopt(param, value)


def _training_run(args, cfg, out, phase, build):
    """One training phase, shared by pretrain and gan-train: keep freed heap
    pages, refuse zero epochs or an archive of another scale or segment
    shape, continue --resume (a checkpoint of this phase) or start from the
    (generator, critic) that `build()` returns, load the normalised train and
    val pairs, train with checkpoints under `out` and write history.csv."""
    keep_freed_heap()
    disc_cfg = cfg.discriminator_config() if phase == "gan" else None
    epochs_key = f"{phase}_epochs"
    if cfg["train"][epochs_key] < 1:
        raise ConfigError(f"train.{epochs_key} is 0: nothing would be trained and no "
                          "checkpoint written")
    montage, stats, epoching = _info(args)
    gen_cfg = cfg.generator_config()
    want = (gen_cfg.scale, gen_cfg.c_lr, gen_cfg.seg_len)
    have = (montage.scale, montage.n_lr, epoching["seg_len"])
    if want != have:
        raise ConfigError(f"config (scale, kept channels, segment length) {want} does not "
                          f"match the archive's {have}")
    fingerprint = _fingerprint(cfg, disc_cfg)
    train_cfg = cfg.train_config()
    if args.resume:
        state = gan.load_checkpoint(args.resume, fingerprint, train_cfg)
        if state.phase != phase:
            raise ParseError(f"checkpoint phase {state.phase!r} cannot resume {phase!r}")
    else:
        state = gan.TrainState.fresh(phase, *build(), train_cfg, fingerprint)

    def pair(split):
        return [data.normalize_set(_load_set(args, split, side), stats) for side in ("lr", "hr")]

    # No reference to the float64 train pair is kept here, so `train` frees
    # it once it holds each side's distinct rows in the generator's dtype.
    gan.train(state, pair("train"), train_cfg, pair("val"), checkpoint_dir=out)
    state.history.to_csv(out / "history.csv")
    return state


def cmd_pretrain(args, cfg, out):
    def build():
        return models.build_generator(cfg.generator_config(), seed=cfg["run"]["seed"],
                                      dtype=cfg.dtype()), None

    state = _training_run(args, cfg, out, "pretrain", build)
    print(f"pretrain: {state.g_steps} generator steps, "
          f"best val mse {state.best_val_mse:.6g}")


def cmd_gan_train(args, cfg, out):
    def build():
        gen = gan.load_generator(args.init, _fingerprint(cfg))[0]
        return gen, models.build_discriminator(cfg.discriminator_config(),
                                               seed=cfg["run"]["seed"] + 1, dtype=cfg.dtype())

    state = _training_run(args, cfg, out, "gan", build)
    print(f"gan: {state.g_steps} generator / {state.d_steps} critic steps, "
          f"best val mse {state.best_val_mse:.6g}")


def cmd_baseline(args, cfg, out):
    montage, _, _ = _info(args)
    for split in ("val", "test"):
        lr_set = _load_set(args, split, "lr")
        pred = bicubic.bicubic_predict_set(lr_set, montage)
        archive.save_epoch_set(out / split, pred)
        print(f"baseline {split}: {len(pred)} segments")


def cmd_sr_infer(args, cfg, out):
    _, stats, _ = _info(args)
    gen_cfg = cfg.generator_config()
    gen = gan.load_generator(args.checkpoint)[0]
    if gen.input_shape != gen_cfg.input_shape:
        raise ConfigError(
            f"checkpoint generator input {gen.input_shape} does not match config "
            f"{gen_cfg.input_shape}"
        )
    for split in ("val", "test"):
        pred = data.denormalize_set(models.sr_predict_set(
            gen, data.normalize_set(_load_set(args, split, "lr"), stats)), stats)
        if not np.isfinite(pred.values).all():
            raise ParseError(f"--checkpoint {args.checkpoint}: the generator's {split} "
                             "reconstructions are not finite")
        archive.save_epoch_set(out / split, pred)
        print(f"sr {split}: {len(pred)} segments")


def cmd_features(args, cfg, out):
    montage, _, epoching = _info(args)
    group = epoching["window"] // epoching["seg_len"]

    def picked(path, layout, rows=None):
        # The archive's segments on `rows` of its channels (by default the
        # feature channels among them, in FEATURE_CHANNELS order) joined into
        # epochs, and those rows. Its channels sit at `layout` in the full
        # montage; the others are dropped before the regroup copies the rest.
        segments = archive.load_epoch_set(path)
        if segments.values.shape[1] != len(layout):
            raise DataError(f"{path} has {segments.values.shape[1]} channels; the montage "
                            f"places {len(layout)}")
        if rows is None:
            names = segments.channel_labels or ()
            rows = [names.index(c) for c in psd.FEATURE_CHANNELS if c in names]
        segments = data.pick_channels(segments, rows)  # a copy: the loaded set goes
        return data.regroup_segments(segments, group), rows

    def assembled(split):
        # (table name, set) for each table of the split: its feature channels
        # in FEATURE_CHANNELS order, the kept ones with the true missing ones
        # and, given --sr, with the reconstructed ones. The sides are freed
        # on return, before any table is computed.
        hr_set, hr_rows = picked(Path(args.data) / f"{split}_hr", montage.hr_indices)
        lr_set, lr_rows = picked(Path(args.data) / f"{split}_lr", montage.lr_indices)
        where = dict(zip((lr_set.channel_labels or ()) + (hr_set.channel_labels or ()),
                         [montage.lr_indices[i] for i in lr_rows]
                         + [montage.hr_indices[i] for i in hr_rows]))
        channels = [where[c] for c in psd.FEATURE_CHANNELS if c in where]
        sets = [(f"{split}_hr", data.assemble_channels(lr_set, hr_set, montage, channels))]
        if args.sr and split in ("val", "test"):
            pred = picked(Path(args.sr) / split, montage.hr_indices, hr_rows)[0]
            pred = replace(pred, channel_labels=hr_set.channel_labels)
            sets.append((f"{split}_sr", data.assemble_channels(lr_set, pred, montage, channels)))
        return sets

    # Build every table before writing any: a failing split leaves none behind.
    tables = [(name, psd.epoch_features(full)) for split in ("train", "val", "test")
              for name, full in assembled(split)]
    for name, features in tables:
        archive.write_features_csv(out / f"{name}.csv", features)
        print(f"features {name}: {len(features)} epochs")


def cmd_train_clf(args, cfg, out):
    keep_freed_heap()
    x, labels = archive.read_features_csv(Path(args.features) / "train_hr.csv").labelled()
    scaler = psd.FeatureScaler.fit(x)
    clf_cfg = cfg.classifier_config()
    model = models.build_classifier(clf_cfg, seed=cfg["run"]["seed"], dtype=cfg.dtype())
    trace = psd.train_classifier(model, scaler.apply(x), labels,
                                 cfg.classifier_train_config(),
                                 class_ids=clf_cfg.class_ids)
    save_model(out / "model", model, extra={"class_ids": clf_cfg.class_ids,
                                             "scaler_mu": tuple(scaler.mu.tolist()),
                                             "scaler_sigma": tuple(scaler.sigma.tolist())})
    table.write(out / "loss.csv", ("epoch", "loss"), enumerate(trace))
    print(f"classifier: final training loss {trace[-1]:.4f}")


def _load_classifier(directory):
    model, extra = load_model(Path(directory) / "model")
    try:
        clf_cfg = models.ClassifierConfig(parse_value(tuple[int, ...], extra["class_ids"]))
        mu = np.asarray(parse_value(tuple[float, ...], extra["scaler_mu"]))
        sigma = np.asarray(parse_value(tuple[float, ...], extra["scaler_sigma"]))
        if len(mu) != psd.N_FEATURES or len(sigma) != psd.N_FEATURES:
            raise ValueError(f"scaler has {len(mu)} means and {len(sigma)} deviations "
                             f"for {psd.N_FEATURES} features")
        if clf_cfg.n_classes != model.shapes[-1][0]:
            raise ValueError(f"{clf_cfg.n_classes} class ids for {model.shapes[-1][0]} outputs")
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{directory}: corrupt classifier model ({exc})") from exc
    return model, clf_cfg.class_ids, psd.FeatureScaler(mu=mu, sigma=sigma)


def cmd_evaluate(args, cfg, out):
    if bool(args.classifier) != bool(args.features):
        raise ArtifactError("--classifier and --features go together")
    if not (args.baseline or args.sr or args.classifier):
        raise ArtifactError("nothing to evaluate: give --baseline, --sr, or --classifier "
                            "with --features")
    montage, _, _ = _info(args)
    seed = cfg["run"]["seed"]
    scale = montage.scale

    sr_records = []
    for split in ("val", "test"):
        hr_set = _load_set(args, split, "hr")
        for method, root in (("bicubic", args.baseline), ("wgan", args.sr)):
            if not root:
                continue
            pred = archive.load_epoch_set(Path(root) / split)
            mse, mae = report.sr_metrics(pred, hr_set)
            sr_records.append(report.MetricsRecord(
                dataset=split, scale=scale, method=method, mse=mse, mae=mae, seed=seed,
            ))
    class_rows = []
    if args.classifier:
        model, class_ids, scaler = _load_classifier(args.classifier)
        for source in ("hr", "sr"):
            path = Path(args.features) / f"test_{source}.csv"
            if source == "sr" and not path.exists():  # written only by features --sr
                continue
            x, labels = archive.read_features_csv(path).labelled()
            pred_ids, probs = psd.predict(model, scaler.apply(x), class_ids)
            if not np.isfinite(probs).all():
                raise ParseError(f"--classifier {args.classifier}: the classifier's {source} "
                                 "class probabilities are not finite")
            class_rows.append(report.classification_metrics(
                pred_ids, labels, class_ids, scale=scale, source=source, seed=seed,
            ))
    # Written only once every input has been read: a refused input leaves no table.
    if sr_records:
        report.write_sr_csv(out / "reconstruction.csv", sr_records)
        print(f"wrote {len(sr_records)} reconstruction rows")
    if class_rows:
        report.write_class_csv(out / "classification.csv", class_rows)
        print(f"wrote {len(class_rows)} classification conditions")


def cmd_report(args, cfg, out):
    sr_path = Path(args.metrics) / "reconstruction.csv"
    class_path = Path(args.metrics) / "classification.csv"
    if not sr_path.exists() and not class_path.exists():
        raise ArtifactError(f"no metric tables under {args.metrics}")
    sr_records = report.read_sr_csv(sr_path) if sr_path.exists() else []
    class_rows = report.read_class_csv(class_path) if class_path.exists() else []
    written = report.emit_report(out, sr_records, class_rows)
    for path in written:
        print(f"wrote {path}")


DATA = ("--data", {"required": True, "help": "preprocess output directory"})

# name: (help, whether it takes the config options, its options). An option
# is an input path's flag and its add_argument keywords; a list of options is
# a group of which exactly one is required. Every command also takes --out.
COMMANDS = {
    "synth": ("write a surrogate labelled recording", True, []),
    "preprocess": ("epochs, montage split, archives and normalization stats", True,
                   [("--recording", {"required": True})]),
    "pretrain": ("MSE-only generator training", True,
                 [DATA, ("--resume", {"help": "checkpoint to continue from"})]),
    "gan-train": ("adversarial refinement from the pretrain checkpoint", True,
                  [DATA, [("--init", {"help": "pretrain checkpoint to start from"}),
                          ("--resume", {"help": "adversarial checkpoint to continue from"})]]),
    "baseline": ("cubic-interpolation reconstruction of val/test epochs", True, [DATA]),
    "sr-infer": ("generator reconstruction of val/test epochs", True,
                 [DATA, ("--checkpoint", {"required": True})]),
    "features": ("band-power feature tables from true and reconstructed data", True,
                 [DATA, ("--sr", {"help": "sr-infer output directory (adds *_sr tables)"})]),
    "train-clf": ("fit the feature classifier on training features", True,
                  [("--features", {"required": True, "help": "features directory"})]),
    "evaluate": ("reconstruction and classification metric tables", True,
                 [DATA, ("--baseline", {"help": "baseline output directory"}),
                  ("--sr", {"help": "sr-infer output directory"}),
                  ("--features", {"help": "features directory"}),
                  ("--classifier", {"help": "train-clf output directory"})]),
    "report": ("render metric tables to CSV and markdown", False,
               [("--metrics", {"required": True, "help": "evaluate output directory"})]),
}


def build_parser():
    """The parser of every command. Each sets `fn` to the module's current
    `cmd_<name>`, looked up now, so a wrapper patched over it is the one run,
    and `inputs` to the actions of its input path options."""
    parser = argparse.ArgumentParser(
        prog="eegsr",
        description="EEG channel super-resolution: training, baselines and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, configured, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if configured:
            p.add_argument("--config", help="INI config file; defaults apply when omitted")
            p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                           help="override one config value (repeatable)")
        p.add_argument("--out", required=True, help="output directory (synth: recording CSV)")
        inputs = []
        for option in options:
            if isinstance(option, list):
                group = p.add_mutually_exclusive_group(required=True)
                inputs += [group.add_argument(flag, **kwargs) for flag, kwargs in option]
            else:
                inputs.append(p.add_argument(option[0], **option[1]))
        p.set_defaults(fn=globals()["cmd_" + name.replace("-", "_")], inputs=inputs)
    return parser


def _run(args):
    """Resolve the config, refuse absent inputs, run the command into --out, save the config."""
    cfg = load_config(args.config, _overrides(args)) if "config" in args else None
    for action in args.inputs:
        path = getattr(args, action.dest)
        if path is not None and not Path(path).exists():
            raise ArtifactError(f"{action.option_strings[0]} {path}: not found")
    out = Path(args.out)
    if args.command == "synth":  # --out names the recording file
        directory, config_path = out.parent, out.with_suffix(".config.txt")
    else:
        directory, config_path = out, out / "config.txt"
    created = not directory.exists()
    directory.mkdir(parents=True, exist_ok=True)
    try:
        args.fn(args, cfg, out)
        if cfg is not None:
            save_config(config_path, cfg)
    finally:
        if created and not any(directory.iterdir()):
            directory.rmdir()


# (error, exit code, message prefix), the first that matches applies.
EXIT_CODES = ((ArtifactError, 2, "error"), (ConfigError, 3, "config error"),
              (NumericAbort, 4, "numeric abort"), ((EegsrError, OSError), 1, "error"),
              (KeyboardInterrupt, 130, "interrupted"))


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _run(args)
    except (EegsrError, OSError, KeyboardInterrupt) as exc:
        code, prefix = next((code, prefix) for kind, code, prefix in EXIT_CODES
                            if isinstance(exc, kind))
        print(f"{prefix}: {exc}" if str(exc) else prefix, file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
