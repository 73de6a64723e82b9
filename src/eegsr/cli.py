"""Command-line pipeline driver.

Each subcommand reads and writes artifacts under a run directory, so the
whole experiment decomposes into resumable, individually rerunnable steps:

    synth       write a surrogate labelled recording
    preprocess  epochs, montage split, archives and normalization stats
    pretrain    MSE-only generator training
    gan-train   adversarial refinement from the pretrain checkpoint
    baseline    cubic-interpolation reconstruction of val/test epochs
    sr-infer    generator reconstruction of val/test epochs
    features    band-power feature tables from true and reconstructed data
    train-clf   fit the feature classifier on training features
    evaluate    reconstruction and classification metric tables
    report      render metric tables to markdown

Every command accepts --config plus repeatable --set section.key=value
overrides, writes the fully resolved config next to its outputs, and exits
2 on a missing input artifact or a command-line usage error, 3 on an
invalid config (including a training phase of zero epochs and a --resume
under a changed training config), 4 on a numeric abort during training, and
1 on any other error, such as a malformed input file or an OSError (say,
--out below an existing file).
"""
from __future__ import annotations

import argparse
import ctypes
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import archive, bicubic, data, gan, models, psd, report
from .config import load_config, save_config
from .errors import ArtifactError, CheckpointError, ConfigError, EegsrError, NumericAbort
from .ini import parse_value
from .nn.serialize import load_model, save_model


def _overrides(args):
    out = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        name, value = item.split("=", 1)
        out[name.strip()] = value.strip()
    for flag, name in (("seed", "run.seed"), ("precision", "run.precision"),
                       ("scale", "preprocess.scale"), ("width", "model.width")):
        if getattr(args, flag, None) is not None:
            out[name] = str(getattr(args, flag))
    return out


def _config(args):
    return load_config(args.config, _overrides(args))


def _require(path, what):
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"{what} not found: {path}")
    return path


def _require_epochs(cfg, key):
    if cfg["train"][key] < 1:
        raise ConfigError(f"train.{key} is 0: nothing would be trained and no checkpoint written")


def _load_pair(root, split):
    lr = archive.load_epoch_set(_require(Path(root) / f"{split}_lr", f"{split} lr archive"))
    hr = archive.load_epoch_set(_require(Path(root) / f"{split}_hr", f"{split} hr archive"))
    return lr, hr


def _norm_pair(pair, stats):
    return (data.normalize_set(pair[0], stats), data.normalize_set(pair[1], stats))


def cmd_synth(args):
    cfg = _config(args)
    rec = data.generate_synthetic(cfg.synth_config(), seed=cfg["run"]["seed"])
    rec.subject_id = cfg["synth"]["subject"]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    archive.save_recording(out, rec)
    save_config(out.with_suffix(".config.txt"), cfg)
    print(f"wrote {rec.n_channels}x{rec.n_samples} recording to {out}")
    return 0


def cmd_preprocess(args):
    cfg = _config(args)
    pp = cfg["preprocess"]
    rec = archive.load_recording(_require(args.recording, "recording"))
    epochs = data.extract_epochs(rec, window=pp["window"], stride=pp["stride"])
    train, val, test = data.split_dataset(
        epochs, ratios=(pp["ratio_train"], pp["ratio_val"], pp["ratio_test"])
    )
    montage = data.make_montage(rec.n_channels, pp["scale"])
    # Build every split before writing any, so a failing split leaves no
    # archives behind.
    splits = []
    for name, part in (("train", train), ("val", val), ("test", test)):
        segments = data.segment_epochs(part, seg_len=pp["seg_len"])
        splits.append((name, len(part), *data.downsample_set(segments, montage)))
    stats = data.compute_norm_stats(splits[0][2])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, n_epochs, lr_set, hr_set in splits:
        archive.save_epoch_set(out / f"{name}_lr", lr_set)
        archive.save_epoch_set(out / f"{name}_hr", hr_set)
        print(f"{name}: {n_epochs} epochs -> {len(lr_set)} segments")
    archive.save_preprocess_info(out / "info.txt", montage, stats,
                                 pp["window"], pp["stride"], pp["seg_len"])
    save_config(out / "config.txt", cfg)
    return 0


def _training_inputs(cfg, data_dir):
    montage, stats, epoching = archive.load_preprocess_info(
        _require(Path(data_dir) / "info.txt", "preprocessing info"))
    if montage.scale != cfg["preprocess"]["scale"]:
        raise ConfigError(
            f"config scale {cfg['preprocess']['scale']} does not match archived "
            f"scale {montage.scale}"
        )
    train_pair = _norm_pair(_load_pair(data_dir, "train"), stats)
    val_pair = _norm_pair(_load_pair(data_dir, "val"), stats)
    return montage, stats, epoching, train_pair, val_pair


def cmd_pretrain(args):
    cfg = _config(args)
    _require_epochs(cfg, "pretrain_epochs")
    dtype = cfg.dtype()
    montage, stats, _, train_pair, val_pair = _training_inputs(cfg, args.data)
    gen_cfg = cfg.generator_config()
    train_cfg = cfg.train_config()
    fingerprint = gan.config_fingerprint(gen_cfg, None, dtype, cfg["train"]["loss_mode"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    resume = None
    if args.resume:
        resume = gan.load_checkpoint(_require(args.resume, "checkpoint"), fingerprint, train_cfg)
    gen = models.build_generator(gen_cfg, seed=cfg["run"]["seed"], dtype=dtype)
    result = gan.pretrain_generator(
        gen, train_pair, train_cfg, val_pair=val_pair,
        checkpoint_dir=out, resume=resume, fingerprint=fingerprint,
    )
    result.history.to_csv(out / "history.csv")
    save_config(out / "config.txt", cfg)
    print(f"pretrain: {result.g_steps} generator steps, "
          f"best val mse {result.best_val_mse:.6g}")
    return 0


def cmd_gan_train(args):
    cfg = _config(args)
    _require_epochs(cfg, "gan_epochs")
    dtype = cfg.dtype()
    montage, stats, _, train_pair, val_pair = _training_inputs(cfg, args.data)
    gen_cfg = cfg.generator_config()
    disc_cfg = cfg.discriminator_config()
    fingerprint = gan.config_fingerprint(gen_cfg, disc_cfg, dtype, cfg["train"]["loss_mode"])
    pre_fingerprint = gan.config_fingerprint(gen_cfg, None, dtype, cfg["train"]["loss_mode"])
    train_cfg = cfg.train_config()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    resume = gen = disc = None
    if args.resume:
        resume = gan.load_checkpoint(_require(args.resume, "checkpoint"), fingerprint, train_cfg)
    else:
        # Only the generator: the rest of the checkpoint (its Adam moments
        # among it) would otherwise stay referenced for the whole run.
        gen = gan.load_checkpoint(_require(args.init, "pretrain checkpoint"),
                                  pre_fingerprint).gen
        disc = models.build_discriminator(disc_cfg, seed=cfg["run"]["seed"] + 1, dtype=dtype)
    result = gan.train_wgan(
        gen, disc, train_pair, train_cfg, val_pair=val_pair,
        checkpoint_dir=out, resume=resume, fingerprint=fingerprint,
    )
    result.history.to_csv(out / "history.csv")
    save_config(out / "config.txt", cfg)
    print(f"gan: {result.g_steps} generator / {result.d_steps} critic steps, "
          f"best val mse {result.best_val_mse:.6g}")
    return 0


def cmd_baseline(args):
    cfg = _config(args)
    montage, stats, _, = archive.load_preprocess_info(
        _require(Path(args.data) / "info.txt", "preprocessing info"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for split in ("val", "test"):
        lr_set, _ = _load_pair(args.data, split)
        pred = bicubic.bicubic_predict_set(lr_set, montage)
        archive.save_epoch_set(out / split, pred)
        print(f"baseline {split}: {len(pred)} segments")
    save_config(out / "config.txt", cfg)
    return 0


def cmd_sr_infer(args):
    cfg = _config(args)
    montage, stats, _ = archive.load_preprocess_info(
        _require(Path(args.data) / "info.txt", "preprocessing info"))
    gen_cfg = cfg.generator_config()
    # Only the generator, as for gan-train --init.
    gen = gan.load_checkpoint(_require(args.checkpoint, "checkpoint")).gen
    if gen.input_shape != gen_cfg.input_shape:
        raise ConfigError(
            f"checkpoint generator input {gen.input_shape} does not match config "
            f"{gen_cfg.input_shape}"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for split in ("val", "test"):
        lr_set, _ = _load_pair(args.data, split)
        lr_norm = data.normalize_set(lr_set, stats)
        pred_norm = models.sr_predict_set(gen, lr_norm)
        pred = data.denormalize_set(pred_norm, stats)
        archive.save_epoch_set(out / split, pred)
        print(f"sr {split}: {len(pred)} segments")
    save_config(out / "config.txt", cfg)
    return 0


def _reassemble_full(lr_set, hr_set, montage, group):
    """Segments -> full-length epochs with all channels in place."""
    return data.assemble_channels(data.regroup_segments(lr_set, group),
                                  data.regroup_segments(hr_set, group), montage)


def cmd_features(args):
    cfg = _config(args)
    montage, stats, epoching = archive.load_preprocess_info(
        _require(Path(args.data) / "info.txt", "preprocessing info"))
    group = epoching["window"] // epoching["seg_len"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for split in ("train", "val", "test"):
        lr_set, hr_set = _load_pair(args.data, split)
        full = _reassemble_full(lr_set, hr_set, montage, group)
        archive.write_features_csv(out / f"{split}_hr.csv", psd.epoch_features(full))
        print(f"features {split}_hr: {len(full)} epochs")
        if args.sr and split in ("val", "test"):
            pred = archive.load_epoch_set(
                _require(Path(args.sr) / split, f"{split} reconstruction"))
            pred = replace(pred, channel_labels=hr_set.channel_labels)
            full_sr = _reassemble_full(lr_set, pred, montage, group)
            archive.write_features_csv(out / f"{split}_sr.csv", psd.epoch_features(full_sr))
            print(f"features {split}_sr: {len(full_sr)} epochs")
    save_config(out / "config.txt", cfg)
    return 0


def cmd_train_clf(args):
    cfg = _config(args)
    x, labels = archive.read_features_csv(Path(args.features) / "train_hr.csv").labelled()
    scaler = psd.FeatureScaler.fit(x)
    clf_cfg = cfg.classifier_config()
    model = models.build_classifier(clf_cfg, seed=cfg["run"]["seed"], dtype=cfg.dtype())
    trace = psd.train_classifier(model, scaler.apply(x), labels,
                                 cfg.classifier_train_config(),
                                 class_ids=clf_cfg.class_ids)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(out / "model", model, extra={"class_ids": clf_cfg.class_ids,
                                             "scaler_mu": tuple(scaler.mu.tolist()),
                                             "scaler_sigma": tuple(scaler.sigma.tolist())})
    with open(out / "loss.csv", "w") as fh:
        fh.write("epoch,loss\n")
        for i, v in enumerate(trace):
            fh.write(f"{i},{v!r}\n")
    save_config(out / "config.txt", cfg)
    print(f"classifier: final training loss {trace[-1]:.4f}")
    return 0


def _load_classifier(directory):
    model, extra = load_model(_require(Path(directory) / "model", "classifier model"))
    try:
        class_ids = parse_value(tuple[int, ...], extra["class_ids"])
        mu = np.asarray(parse_value(tuple[float, ...], extra["scaler_mu"]))
        sigma = np.asarray(parse_value(tuple[float, ...], extra["scaler_sigma"]))
        if len(mu) != psd.N_FEATURES or len(sigma) != psd.N_FEATURES:
            raise ValueError(f"scaler has {len(mu)} means and {len(sigma)} deviations "
                             f"for {psd.N_FEATURES} features")
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"{directory}: corrupt classifier model ({exc})") from exc
    return model, class_ids, psd.FeatureScaler(mu=mu, sigma=sigma)


def cmd_evaluate(args):
    cfg = _config(args)
    montage, stats, _ = archive.load_preprocess_info(
        _require(Path(args.data) / "info.txt", "preprocessing info"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg["run"]["seed"]
    scale = montage.scale

    sr_records = []
    for split in ("val", "test"):
        _, hr_set = _load_pair(args.data, split)
        for method, root in (("bicubic", args.baseline), ("wgan", args.sr)):
            if not root:
                continue
            pred = archive.load_epoch_set(_require(Path(root) / split,
                                                   f"{split} {method} reconstruction"))
            mse, mae = report.sr_metrics(pred, hr_set)
            sr_records.append(report.MetricsRecord(
                dataset=split, scale=scale, method=method, mse=mse, mae=mae, seed=seed,
            ))
    if sr_records:
        report.write_sr_csv(out / "reconstruction.csv", sr_records)
        print(f"wrote {len(sr_records)} reconstruction rows")

    class_rows = []
    if args.classifier and args.features:
        model, class_ids, scaler = _load_classifier(args.classifier)
        for source in ("hr", "sr"):
            path = Path(args.features) / f"test_{source}.csv"
            if not path.exists():
                continue
            x, labels = archive.read_features_csv(path).labelled()
            pred_ids, _ = psd.predict(model, scaler.apply(x), class_ids)
            class_rows.append(report.classification_metrics(
                pred_ids, labels, class_ids, scale=scale, source=source, seed=seed,
            ))
        if class_rows:
            report.write_class_csv(out / "classification.csv", class_rows)
            print(f"wrote {len(class_rows)} classification conditions")
    save_config(out / "config.txt", cfg)
    return 0


def cmd_report(args):
    metrics_dir = Path(args.metrics)
    sr_path = metrics_dir / "reconstruction.csv"
    class_path = metrics_dir / "classification.csv"
    sr_records = report.read_sr_csv(sr_path) if sr_path.exists() else []
    class_rows = report.read_class_csv(class_path) if class_path.exists() else []
    if not sr_records and not class_rows:
        raise ArtifactError(f"no metric tables under {metrics_dir}")
    written = report.emit_report(args.out, sr_records, class_rows,
                                 formats=tuple(args.formats.split(",")))
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eegsr",
        description="EEG channel super-resolution: training, baselines and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", help="INI config file; defaults apply when omitted")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override one config value (repeatable)")
        if seed:
            p.add_argument("--seed", type=int, help="override run.seed")
            p.add_argument("--precision", choices=("f32", "f64"),
                           help="override run.precision")
            p.add_argument("--scale", type=int, help="override preprocess.scale")
            p.add_argument("--width", type=float, help="override model.width")

    p = sub.add_parser("synth", help="generate a surrogate recording")
    common(p)
    p.add_argument("--out", required=True, help="output recording CSV path")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("preprocess", help="epoch, split and archive a recording")
    common(p)
    p.add_argument("--recording", required=True)
    p.add_argument("--out", required=True, help="archive directory")
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("pretrain", help="MSE-only generator training")
    common(p)
    p.add_argument("--data", required=True, help="preprocess output directory")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("gan-train", help="adversarial training from a pretrain checkpoint")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    start = p.add_mutually_exclusive_group(required=True)
    start.add_argument("--init", help="pretrain checkpoint to start from")
    start.add_argument("--resume", help="adversarial checkpoint to continue from")
    p.set_defaults(fn=cmd_gan_train)

    p = sub.add_parser("baseline", help="cubic-interpolation reconstruction")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("sr-infer", help="generator reconstruction")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sr_infer)

    p = sub.add_parser("features", help="band-power feature tables")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--sr", help="sr-infer output directory (adds *_sr tables)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_features)

    p = sub.add_parser("train-clf", help="fit the band-power classifier")
    common(p)
    p.add_argument("--features", required=True, help="features directory")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train_clf)

    p = sub.add_parser("evaluate", help="compute metric tables")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--baseline", help="baseline output directory")
    p.add_argument("--sr", help="sr-infer output directory")
    p.add_argument("--features", help="features directory")
    p.add_argument("--classifier", help="train-clf output directory")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("report", help="render metric tables to markdown")
    common(p, seed=False)
    p.add_argument("--metrics", required=True, help="evaluate output directory")
    p.add_argument("--out", required=True)
    p.add_argument("--formats", default="csv,markdown")
    p.set_defaults(fn=cmd_report)

    return parser


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


def main(argv=None):
    keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except NumericAbort as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 4
    except (EegsrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
