"""End-to-end command-line pipeline at toy scale, plus exit-code contract."""
import csv
import ctypes
import json
import re
import shutil

import numpy as np
import pytest

from eegsr import archive, gan, models, psd
from eegsr.archive import FEATURE_HEADER, read_features_csv, write_features_csv
from eegsr.cli import COMMANDS, HEAP_SETTINGS, main
from eegsr.errors import ParseError
from eegsr.psd import FeatureTable

OVERRIDES = [
    "--set", "synth.n_samples=1216",
    "--set", "synth.n_classes=3",
    "--set", "synth.label_block=256",
    "--set", "model.width=0.015625",
    "--set", "train.pretrain_epochs=2",
    "--set", "train.gan_epochs=3",
    "--set", "train.batch_size=16",
    "--set", "classifier.epochs=3",
    "--set", "run.seed=7",
]


def run(*argv):
    rc = main(list(argv) + OVERRIDES)
    assert rc == 0, f"command {argv[0]} exited {rc}"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "rec": root / "rec.csv",
        "data": root / "data",
        "pre": root / "pre",
        "adv": root / "adv",
        "base": root / "base",
        "sr": root / "sr",
        "feats": root / "feats",
        "clf": root / "clf",
        "metrics": root / "metrics",
        "report": root / "report",
    }
    run("synth", "--out", str(paths["rec"]))
    run("preprocess", "--recording", str(paths["rec"]), "--out", str(paths["data"]))
    run("pretrain", "--data", str(paths["data"]), "--out", str(paths["pre"]))
    run("gan-train", "--data", str(paths["data"]), "--out", str(paths["adv"]),
        "--init", str(paths["pre"] / "last"))
    run("baseline", "--data", str(paths["data"]), "--out", str(paths["base"]))
    run("sr-infer", "--data", str(paths["data"]),
        "--checkpoint", str(paths["adv"] / "best"), "--out", str(paths["sr"]))
    run("features", "--data", str(paths["data"]), "--sr", str(paths["sr"]),
        "--out", str(paths["feats"]))
    run("train-clf", "--features", str(paths["feats"]), "--out", str(paths["clf"]))
    run("evaluate", "--data", str(paths["data"]), "--baseline", str(paths["base"]),
        "--sr", str(paths["sr"]), "--features", str(paths["feats"]),
        "--classifier", str(paths["clf"]), "--out", str(paths["metrics"]))
    rc = main(["report", "--metrics", str(paths["metrics"]),
               "--out", str(paths["report"])])
    assert rc == 0
    return paths


def test_synth_and_preprocess_artifacts(pipeline):
    assert pipeline["rec"].is_file()
    assert pipeline["rec"].with_suffix(".config.txt").is_file()
    for split in ("train", "val", "test"):
        for side in ("lr", "hr"):
            d = pipeline["data"] / f"{split}_{side}"
            assert (d / "values.bin").is_file()
            assert (d / "meta.csv").is_file()
    assert (pipeline["data"] / "info.txt").is_file()
    assert (pipeline["data"] / "config.txt").is_file()
    # 1216 samples, window 512, stride 32 -> 23 epochs; 8 segments each
    lr = archive.load_epoch_set(pipeline["data"] / "train_lr")
    hr = archive.load_epoch_set(pipeline["data"] / "train_hr")
    assert len(lr) == 17 * 8
    assert lr.values.shape[1:] == (16, 64)
    assert hr.values.shape[1:] == (16, 64)


def test_training_artifacts(pipeline):
    for stage in ("pre", "adv"):
        out = pipeline[stage]
        assert (out / "history.csv").is_file()
        assert (out / "config.txt").is_file()
        for name in ("best", "last"):
            assert (out / name / "manifest.txt").is_file()


def test_reconstruction_artifacts(pipeline):
    for stage in ("base", "sr"):
        for split in ("val", "test"):
            pred = archive.load_epoch_set(pipeline[stage] / split)
            assert pred.values.shape[1:] == (16, 64)
    assert len(archive.load_epoch_set(pipeline["base"] / "val")) == 4 * 8
    assert len(archive.load_epoch_set(pipeline["base"] / "test")) == 2 * 8


def test_feature_tables(pipeline):
    counts = {"train_hr": 17, "val_hr": 4, "test_hr": 2, "val_sr": 4, "test_sr": 2}
    for name, expect in counts.items():
        feats = read_features_csv(pipeline["feats"] / f"{name}.csv")
        assert len(feats) == expect
        assert feats.values.shape == (expect, psd.N_FEATURES)
        assert set(feats.labels.tolist()) <= {2, 3, 7}


def test_classifier_artifacts(pipeline):
    assert (pipeline["clf"] / "model" / "manifest.txt").is_file()
    with open(pipeline["clf"] / "loss.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "loss"]
    assert len(rows) == 1 + 3


def test_metric_tables(pipeline):
    with open(pipeline["metrics"] / "reconstruction.csv") as fh:
        rows = list(csv.reader(fh))
    # header + (val, test) x (bicubic, wgan)
    assert len(rows) == 5
    methods = {(r[0], r[2]) for r in rows[1:]}
    assert methods == {("val", "bicubic"), ("val", "wgan"),
                       ("test", "bicubic"), ("test", "wgan")}
    assert (pipeline["metrics"] / "classification.csv").is_file()


def test_report_files(pipeline):
    names = sorted(p.name for p in pipeline["report"].iterdir())
    assert names == ["classification.csv", "classification.md",
                     "reconstruction.csv", "reconstruction.md"]
    text = (pipeline["report"] / "reconstruction.md").read_text()
    assert "| Dataset | Scale |" in text


def test_pretrain_resume_noop(pipeline):
    # resuming a finished run performs no further steps and exits cleanly
    rc = main(["pretrain", "--data", str(pipeline["data"]),
               "--out", str(pipeline["pre"]),
               "--resume", str(pipeline["pre"] / "last")] + OVERRIDES)
    assert rc == 0


def test_resume_builds_no_network(tmp_path, pipeline, monkeypatch):
    # The checkpoint holds the networks; a fresh one would be thrown away.
    def refuse(*args, **kwargs):
        raise AssertionError("a resumed run built a network")

    monkeypatch.setattr(models, "build_generator", refuse)
    monkeypatch.setattr(models, "build_discriminator", refuse)
    for cmd, ck in (("pretrain", "pre"), ("gan-train", "adv")):
        assert main([cmd, "--data", str(pipeline["data"]), "--out", str(tmp_path / cmd),
                     "--resume", str(pipeline[ck] / "last")] + OVERRIDES) == 0


def test_resume_refuses_a_checkpoint_of_the_other_phase(tmp_path, pipeline, capsys):
    # A checkpoint of the other phase carries the other fingerprint, so only
    # one whose fingerprint line was replaced reaches the phase check.
    ck = tmp_path / "last"
    shutil.copytree(pipeline["adv"] / "last", ck)
    fingerprint = re.search(r"fingerprint = \w+",
                            (pipeline["pre"] / "last" / "manifest.txt").read_text()).group()
    _sub_in(ck / "manifest.txt", r"fingerprint = \w+", fingerprint)
    argv = ["pretrain", "--data", str(pipeline["data"]), "--out", str(tmp_path / "o"),
            "--resume", str(ck)]
    assert main(argv + OVERRIDES) == 1
    err = capsys.readouterr().err
    assert err == "error: checkpoint phase 'gan' cannot resume 'pretrain'\n"
    assert not (tmp_path / "o").exists()


def test_resume_refuses_a_changed_training_config(tmp_path, pipeline, capsys):
    # A changed lr would be ignored (the checkpoint's Adam state wins) and a
    # changed batch size would leave the uninterrupted trajectory: exit 3
    # naming the field. A raised epoch count resumes.
    for cmd, ck, key, value, rc in (("pretrain", "pre", "lr", "0.002", 3),
                                    ("gan-train", "adv", "batch_size", "8", 3),
                                    ("gan-train", "adv", "gan_epochs", "2", 3),
                                    ("gan-train", "adv", "gan_epochs", "4", 0)):
        argv = [cmd, "--data", str(pipeline["data"]), "--out", str(tmp_path / f"{key}{value}"),
                "--resume", str(pipeline[ck] / "last")]
        assert main(argv + OVERRIDES + ["--set", f"train.{key}={value}"]) == rc
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if rc:
            assert err.startswith("config error: ") and key in err


def test_exit_codes(tmp_path, pipeline):
    assert main(["preprocess", "--recording", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["sr-infer", "--data", str(pipeline["data"]),
                 "--checkpoint", str(tmp_path / "absent"),
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["synth", "--out", str(tmp_path / "r.csv"),
                 "--set", "train.lr=abc"]) == 3
    assert main(["synth", "--out", str(tmp_path / "r.csv"),
                 "--set", "train.nosuch=1"]) == 3
    assert main(["synth", "--out", str(tmp_path / "r.csv"),
                 "--set", "run.precision=f16"]) == 3
    assert main(["synth", "--out", str(tmp_path / "r.csv"),
                 "--set", "baditem"]) == 3


def input_flags():
    """(command, flag) of every input path option in `COMMANDS`."""
    return [(name, flag) for name, (_, _, options) in COMMANDS.items() for option in options
            for flag, _ in (option if isinstance(option, list) else [option])]


def other_required(command, flag):
    """The flags `command` requires besides `flag`: its required options and
    the first of each required group that `flag` is not in."""
    for option in COMMANDS[command][2]:
        if isinstance(option, list):
            if flag not in dict(option):
                yield option[0][0]
        elif option[1].get("required") and option[0] != flag:
            yield option[0]


# An input of each required kind that exists, as a pipeline path.
PRESENT = {"--recording": ("rec",), "--data": ("data",), "--init": ("pre", "last"),
           "--checkpoint": ("adv", "best"), "--features": ("feats",), "--metrics": ("metrics",)}


@pytest.mark.parametrize("command, flag", input_flags())
def test_absent_input_path_is_a_usage_error(tmp_path, pipeline, capsys, command, flag):
    absent, out = tmp_path / "absent", tmp_path / "out"
    argv = [command, flag, str(absent), "--out", str(out)]
    for other in other_required(command, flag):
        key, *rest = PRESENT[other]
        argv += [other, str(pipeline[key].joinpath(*rest))]
    assert main(argv + (OVERRIDES if COMMANDS[command][1] else [])) == 2
    assert capsys.readouterr().err == f"error: {flag} {absent}: not found\n"
    assert not out.exists()


# A part removed from an input that exists, and the command run on the copy.
# Each was refused as absent (exit 2) by whichever reader missed it.
INCOMPLETE_INPUTS = {
    "checkpoint-generator": (("adv", "best"), "generator", lambda p, c: [
        "sr-infer", "--data", str(p["data"]), "--checkpoint", str(c)]),
    "resume-discriminator": (("adv", "last"), "discriminator", lambda p, c: [
        "gan-train", "--data", str(p["data"]), "--resume", str(c)]),
    "data-values": (("data",), "val_lr/values.bin", lambda p, c: ["baseline", "--data", str(c)]),
    "data-info": (("data",), "info.txt", lambda p, c: ["features", "--data", str(c)]),
    "features-table": (("feats",), "train_hr.csv", lambda p, c: [
        "train-clf", "--features", str(c)]),
}


@pytest.mark.parametrize("case", sorted(INCOMPLETE_INPUTS))
def test_part_missing_from_an_input_is_a_one_line_error(tmp_path, pipeline, capsys, case):
    (key, *rest), part, argv = INCOMPLETE_INPUTS[case]
    copy, out = tmp_path / "copy", tmp_path / "out"
    shutil.copytree(pipeline[key].joinpath(*rest), copy)
    removed = copy / part
    if removed.is_dir():
        shutil.rmtree(removed)
    else:
        removed.unlink()
    capsys.readouterr()
    assert main(argv(pipeline, copy) + ["--out", str(out)] + OVERRIDES) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(removed) in err, err
    assert "Traceback" not in err and not out.exists()


# Epoching geometry out of range: each ended in a ZeroDivisionError traceback,
# a DataError (exit 1) or a command that ran; a NaN split ratio, in a
# ValueError traceback from the split.
GEOMETRY_FAULTS = {
    "seg_len": ["--set", "preprocess.seg_len=0"],
    "window": ["--set", "preprocess.window=0"],
    "stride": ["--set", "preprocess.stride=0"],
    "scale": ["--set", "preprocess.scale=0"],
    "ratio": ["--set", "preprocess.ratio_train=nan"],
}


@pytest.mark.parametrize("key", sorted(GEOMETRY_FAULTS))
def test_out_of_range_geometry_is_a_config_error(tmp_path, pipeline, capsys, key):
    for argv in (["synth", "--out", str(tmp_path / "r.csv")],
                 ["preprocess", "--recording", str(pipeline["rec"]), "--out", str(tmp_path / "d")]):
        assert main(argv + GEOMETRY_FAULTS[key]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and key in err


TRAINING_FAULTS = ["model.gen_dropout=1.0", "model.gen_dropout=0.0", "model.disc_dropout=-0.5",
                   "model.disc_dropout=nan", "model.elu_alpha=nan", "model.elu_alpha=inf",
                   "model.width=0", "model.width=1.5", "train.beta1=-1", "train.beta2=1.0",
                   "train.lr=nan", "train.lr=inf", "train.adv_weight=nan",
                   # the removed smoothed loss mode and its target label
                   "train.loss_mode=dcgan_smoothed", "train.real_label=0.9"]


@pytest.mark.parametrize("setting", TRAINING_FAULTS)
def test_out_of_range_training_value_is_a_config_error(tmp_path, pipeline, capsys, setting):
    # Refused before any training starts, by both training commands.
    key = setting.split("=")[0].split(".")[1]
    for cmd, extra in (("pretrain", []), ("gan-train", ["--init", str(pipeline["pre"] / "last")])):
        rc = main([cmd, "--data", str(pipeline["data"]), "--out", str(tmp_path / cmd)]
                  + extra + OVERRIDES + ["--set", setting])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert err.startswith("config error: ") and err.count("\n") == 1 and key in err
        assert not (tmp_path / cmd).exists()


# Values that escaped config validation: a [classifier] lr or beta out of
# range ended in a traceback from the optimizer, a non-finite one trained to
# a nan loss, and each [synth] value ran and exited 0.
LOAD_FAULTS = ["classifier.lr=0", "classifier.lr=nan", "classifier.lr=inf", "classifier.beta1=1",
               "classifier.beta2=-0.5", "synth.noise_sigma=nan", "synth.amplitude=inf",
               "synth.fs=inf", "synth.class_band_offsets=nan,0,0"]


@pytest.mark.parametrize("setting", LOAD_FAULTS)
def test_out_of_range_value_is_refused_at_config_load(tmp_path, pipeline, capsys, setting):
    key = setting.split("=")[0].split(".")[1]
    for argv in (["synth", "--out", str(tmp_path / "r.csv")],
                 ["train-clf", "--features", str(pipeline["feats"]), "--out", str(tmp_path / "c")]):
        assert main(argv + OVERRIDES + ["--set", setting]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and key in err
    assert not list(tmp_path.iterdir())


def test_evaluate_with_nothing_to_evaluate_is_a_usage_error(tmp_path, pipeline, capsys):
    # Each wrote only config.txt and exited 0.
    argv = ["evaluate", "--data", str(pipeline["data"]), "--out", str(tmp_path / "metrics")]
    for extra, named in (([], "--baseline, --sr, or --classifier"),
                         (["--classifier", str(pipeline["clf"])], "--features"),
                         (["--sr", str(pipeline["sr"]), "--features", str(pipeline["feats"])],
                          "--classifier")):
        assert main(argv + extra + OVERRIDES) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert not (tmp_path / "metrics").exists()


def test_corrupt_classifier_is_a_one_line_error(tmp_path, pipeline, capsys):
    clf = tmp_path / "clf"
    shutil.copytree(pipeline["clf"], clf)
    _sub_in(clf / "model" / "manifest.txt", r"scaler_mu = .*", "scaler_mu = 0.5,pear")
    argv = ["evaluate", "--data", str(pipeline["data"]), "--baseline", str(pipeline["base"]),
            "--sr", str(pipeline["sr"]), "--features", str(pipeline["feats"]),
            "--classifier", str(clf), "--out", str(tmp_path / "metrics")]
    assert main(argv + OVERRIDES) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "corrupt classifier model" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("key", ["scaler_mu", "scaler_sigma"])
def test_classifier_scaler_length_is_checked(tmp_path, pipeline, capsys, key):
    clf = tmp_path / "clf"
    shutil.copytree(pipeline["clf"], clf)
    _sub_in(clf / "model" / "manifest.txt", rf"{key} = .*", f"{key} = 0.5,1.5")
    argv = ["evaluate", "--data", str(pipeline["data"]), "--features", str(pipeline["feats"]),
            "--classifier", str(clf), "--out", str(tmp_path / "metrics")]
    assert main(argv + OVERRIDES) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "corrupt classifier model" in err
    assert f"for {psd.N_FEATURES} features" in err and err.count("\n") == 1


@pytest.mark.parametrize("ids, named", [("2,3", "2 class ids for 3 outputs"),
                                        ("2,2,7", "duplicate class ids")])
def test_classifier_class_ids_are_checked(tmp_path, pipeline, capsys, ids, named):
    # Two ids for three outputs were scored, or ended in an IndexError
    # traceback once a row's argmax was the third; duplicate ids were scored.
    clf = tmp_path / "clf"
    shutil.copytree(pipeline["clf"], clf)
    _sub_in(clf / "model" / "manifest.txt", r"class_ids = .*", f"class_ids = {ids}")
    argv = ["evaluate", "--data", str(pipeline["data"]), "--features", str(pipeline["feats"]),
            "--classifier", str(clf), "--out", str(tmp_path / "metrics")]
    assert main(argv + OVERRIDES) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "corrupt classifier model" in err and named in err
    assert err.count("\n") == 1 and not (tmp_path / "metrics").exists()


def test_heap_settings_fit_a_c_int():
    # ctypes truncates a wider value without a word: 1 << 40 would pass 0.
    for param, value in HEAP_SETTINGS:
        assert ctypes.c_int(param).value == param
        assert ctypes.c_int(value).value == value


def test_unwritable_output_is_a_one_line_error(tmp_path, pipeline, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for argv in (["synth", "--out", str(blocker / "r.csv")],
                 ["preprocess", "--recording", str(pipeline["rec"]), "--out", str(blocker / "d")]):
        assert main(argv + OVERRIDES) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_zero_epoch_training_is_a_config_error(tmp_path, pipeline, capsys):
    # a phase of zero epochs would write no checkpoint; refuse it up front
    for cmd, key, extra in (("pretrain", "pretrain_epochs", []),
                            ("gan-train", "gan_epochs", ["--init", str(pipeline["pre"] / "last")])):
        rc = main([cmd, "--data", str(pipeline["data"]), "--out", str(tmp_path / cmd)]
                  + extra + OVERRIDES + ["--set", f"train.{key}=0"])
        assert rc == 3
        assert f"train.{key} is 0" in capsys.readouterr().err
        assert not (tmp_path / cmd).exists()


def test_gan_train_needs_exactly_one_start(tmp_path, pipeline):
    base = ["gan-train", "--data", str(pipeline["data"]), "--out", str(tmp_path / "o")]
    both = ["--init", str(pipeline["pre"] / "last"), "--resume", str(pipeline["adv"] / "last")]
    for argv in (base, base + both):
        with pytest.raises(SystemExit) as exc:
            main(argv + OVERRIDES)
        assert exc.value.code == 2


def test_preprocess_failure_leaves_no_archives(tmp_path):
    # 576 samples make 3 epochs at the default window and stride: the test
    # split is empty and fails after train and val were built.
    rec = tmp_path / "short.csv"
    assert main(["synth", "--out", str(rec), "--set", "synth.n_samples=576",
                 "--set", "synth.label_block=64"]) == 0
    out = tmp_path / "data"
    assert main(["preprocess", "--recording", str(rec), "--out", str(out)]) == 1
    assert not list(out.glob("*_lr")) and not list(out.glob("*_hr"))


def test_scale_mismatch_rejected(tmp_path, pipeline):
    # archive was made at scale 2; asking for scale 4 must fail, not misread
    rc = main(["pretrain", "--data", str(pipeline["data"]),
               "--out", str(tmp_path / "o"), "--set", "preprocess.scale=4"] + OVERRIDES)
    assert rc == 3
    rc = main(["sr-infer", "--data", str(pipeline["data"]),
               "--checkpoint", str(pipeline["adv"] / "best"),
               "--out", str(tmp_path / "o"), "--set", "preprocess.scale=4"] + OVERRIDES)
    assert rc == 3


def test_features_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    for labels in ([2, 7], None):
        feats = FeatureTable(rng.exponential(size=(2, psd.N_FEATURES)), labels,
                             ["s01", "s02"], [5, 9])
        path = tmp_path / "f.csv"
        write_features_csv(path, feats)
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        assert header == FEATURE_HEADER
        back = read_features_csv(path)
        assert np.array_equal(back.values, feats.values)
        assert back.labels is None if labels is None else back.labels.tolist() == labels
        assert back.subject_ids.tolist() == ["s01", "s02"]
        assert back.origins.tolist() == [5, 9]


def test_features_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ParseError, match="line 1"):
        read_features_csv(path)


def corrupt_cell(path, line, column, text):
    """Replace one cell of a CSV file; `line` counts from 1 with the header."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[line - 1][column] = text
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def assert_parse_failure(capsys, argv, line):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ")
    assert "Traceback" not in err


def test_corrupt_archive_metadata_is_a_parse_error(tmp_path, pipeline, capsys):
    # Non-integer epoch_index, label or origin_index cells, a missing label
    # among labelled rows, a short row: exit 1 naming the line, no traceback.
    for line, column, text in ((3, 0, "x"), (4, 2, "2.5"), (2, 2, ""), (5, 3, "12a"),
                               (6, slice(3, None), [])):
        data = tmp_path / f"data{line}"
        shutil.copytree(pipeline["data"], data)
        corrupt_cell(data / "val_lr" / "meta.csv", line, column, text)
        assert_parse_failure(capsys, ["baseline", "--data", str(data),
                                      "--out", str(tmp_path / "base")], line)


def test_corrupt_feature_table_is_a_parse_error(tmp_path, pipeline, capsys):
    # A non-numeric band power, a non-integer label, a short row.
    for line, column, text in ((2, 7, "n/a"), (5, 2, "two"), (9, slice(50, None), [])):
        feats = tmp_path / f"feats{line}"
        shutil.copytree(pipeline["feats"], feats)
        corrupt_cell(feats / "train_hr.csv", line, column, text)
        assert_parse_failure(capsys, ["train-clf", "--features", str(feats),
                                      "--out", str(tmp_path / "clf")] + OVERRIDES, line)


def test_malformed_sampling_rate_is_a_parse_error(tmp_path, pipeline, capsys):
    rec = tmp_path / "rec.csv"
    text = pipeline["rec"].read_text()  # starts "# fs=512.0 subject=..."
    rec.write_text(text.replace(text.split()[1], "fs=abc", 1))
    assert_parse_failure(capsys, ["preprocess", "--recording", str(rec),
                                  "--out", str(tmp_path / "data")], 1)


def test_malformed_metric_table_is_a_parse_error(tmp_path, pipeline, capsys):
    # A non-numeric mse, a short row, a non-integer scale, a non-numeric value,
    # and rows whose record is refused: an unknown dataset, an unknown source.
    for name, line, column, text in (("reconstruction.csv", 2, 3, "zero"),
                                     ("reconstruction.csv", 3, slice(3, None), []),
                                     ("classification.csv", 3, 0, "two"),
                                     ("classification.csv", 4, 4, "high"),
                                     ("reconstruction.csv", 4, 0, "foo"),
                                     ("classification.csv", 2, 1, "xx")):
        metrics = tmp_path / f"metrics-{name}-{line}"
        shutil.copytree(pipeline["metrics"], metrics)
        corrupt_cell(metrics / name, line, column, text)
        assert_parse_failure(capsys, ["report", "--metrics", str(metrics),
                                      "--out", str(tmp_path / "report")], line)


# Every table a command reads: (what to copy, the table in the copy, the
# command run on the copy). Each fault below hits the header or the first row.
TABLES = {
    "rec": ("rec", "rec.csv", lambda p, d: ["preprocess", "--recording", str(d / "rec.csv"),
                                            "--out", str(d / "out")]),
    "meta": ("data", "val_lr/meta.csv", lambda p, d: ["baseline", "--data", str(d),
                                                      "--out", str(d / "out")]),
    "features": ("feats", "train_hr.csv", lambda p, d: ["train-clf", "--features", str(d),
                                                         "--out", str(d / "out")]),
    "reconstruction": ("metrics", "reconstruction.csv",
                       lambda p, d: ["report", "--metrics", str(d), "--out", str(d / "out")]),
    "classification": ("metrics", "classification.csv",
                       lambda p, d: ["report", "--metrics", str(d), "--out", str(d / "out")]),
    "history": ("pre", "last/history.csv",
                lambda p, d: ["pretrain", "--data", str(p["data"]), "--out", str(d / "out"),
                              "--resume", str(d / "last")]),
}


def _header_index(lines):
    return next(i for i, line in enumerate(lines) if not line.startswith(b"#"))


def _fault_in_first_row(change):
    def apply(lines):
        row = _header_index(lines) + 1
        lines[row] = change(lines[row])
        return lines
    return apply


def _fault_in_header(lines):
    lines[_header_index(lines)] += b",extra"
    return lines


# A non-UTF-8 byte ended in a UnicodeDecodeError traceback in every reader
# but history.csv's.
TABLE_FAULTS = {
    "non-utf8": _fault_in_first_row(lambda row: b"\xff" + row),
    "non-numeric": _fault_in_first_row(lambda row: row.rsplit(b",", 1)[0] + b",pear"),
    "short-row": _fault_in_first_row(lambda row: row.rsplit(b",", 1)[0]),
    "wrong-header": _fault_in_header,
    "empty": lambda lines: [],
}


@pytest.mark.parametrize("fault", sorted(TABLE_FAULTS))
@pytest.mark.parametrize("name", sorted(TABLES))
def test_corrupt_table_is_a_one_line_parse_error(tmp_path, pipeline, capsys, name, fault):
    source, table, argv = TABLES[name]
    copy = tmp_path / "copy"
    if pipeline[source].is_dir():
        shutil.copytree(pipeline[source], copy)
    else:
        copy.mkdir()
        shutil.copy(pipeline[source], copy / table)
    path = copy / table
    lines = path.read_bytes().replace(b"\r\n", b"\n").split(b"\n")
    path.write_bytes(b"\n".join(TABLE_FAULTS[fault](lines)))
    argv = argv(pipeline, copy)
    assert main(argv + (OVERRIDES if argv[0] != "report" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path.name in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["reconstruction.csv", "classification.csv"])
def test_header_only_metric_table_is_a_parse_error(tmp_path, pipeline, capsys, name):
    # The table exists, so this is not the missing-artifact exit 2.
    metrics = tmp_path / "metrics"
    shutil.copytree(pipeline["metrics"], metrics)
    path = metrics / name
    path.write_text(path.read_text().splitlines(keepends=True)[0])
    argv = ["report", "--metrics", str(metrics), "--out", str(tmp_path / "report")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
    for table in metrics.iterdir():
        table.unlink()
    assert main(argv) == 2
    assert "no metric tables" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def test_montage_of_another_scale_is_refused(tmp_path, pipeline, capsys):
    # info.txt claiming scale 4 over the scale-2 channel indices made
    # baseline at scale 4 write a wrong reconstruction and exit 0.
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    _sub_in(data / "info.txt", r"scale = 2", "scale = 4")
    argv = ["baseline", "--data", str(data), "--out", str(tmp_path / "base"),
            "--set", "preprocess.scale=4"]
    assert main(argv + OVERRIDES) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "every 4th channel" in err


def _sub_in(path, pattern, new):
    text, n = re.subn(pattern, lambda _: new, path.read_text(), count=1)
    assert n == 1
    path.write_text(text)


def test_resume_reads_format_2_train_sections(tmp_path, pipeline, capsys):
    # Checkpoints written before the smoothed loss mode was removed carry a
    # real_label line, which is ignored; one that trained with that mode is
    # refused.
    ck = tmp_path / "last"
    shutil.copytree(pipeline["adv"] / "last", ck)
    manifest = ck / "manifest.txt"
    _sub_in(manifest, r"loss_mode = wgan_gp\n", "loss_mode = wgan_gp\nreal_label = 0.875\n")
    argv = ["gan-train", "--data", str(pipeline["data"]), "--resume", str(ck)] + OVERRIDES
    assert main(argv + ["--out", str(tmp_path / "resumed")]) == 0
    _sub_in(manifest, r"loss_mode = wgan_gp", "loss_mode = dcgan_smoothed")
    assert main(argv + ["--out", str(tmp_path / "refused")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "dcgan_smoothed" in err


FOREIGN_RNG = json.dumps(np.random.Philox(0).state, default=lambda a: a.tolist())
MODEL = ("generator", "manifest.txt")

# Faults in a pretrain checkpoint, each of which ended in a traceback.
CHECKPOINT_FAULTS = {
    "history-cell": lambda ck: corrupt_cell(ck / "history.csv", 2, 3, "n/a"),
    "history-missing": lambda ck: (ck / "history.csv").unlink(),
    # a row fewer than the generator steps the manifest counts
    "history-row": lambda ck: _sub_in(ck / "history.csv", r"\n[^\n]*\n$", "\n"),
    "params-missing": lambda ck: (ck / "generator" / "params.bin").unlink(),
    "layer-kind": lambda ck: _sub_in(ck.joinpath(*MODEL), "kind = conv", "kind = dense"),
    "layer-source": lambda ck: _sub_in(ck.joinpath(*MODEL), r"concat_sources = (?=\d)",
                                       "concat_sources = 99,"),
    "rng-kind": lambda ck: _sub_in(ck / "manifest.txt", r"data_rng = .*",
                                   f"data_rng = {FOREIGN_RNG}"),
    # these two loaded; with g_steps = -5, --resume restarted history.csv at step -5
    "negative-steps": lambda ck: _sub_in(ck / "manifest.txt", r"g_steps = \d+", "g_steps = -5"),
    "adam-count": lambda ck: _sub_in(ck / "manifest.txt", r"g_adam_t = \d+", "g_adam_t = 1"),
}


@pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS))
def test_corrupt_checkpoint_is_a_one_line_error(tmp_path, pipeline, capsys, fault):
    # sr-infer reads only the generator, so only a fault in it stops sr-infer.
    ck = tmp_path / "last"
    shutil.copytree(pipeline["pre"] / "last", ck)
    CHECKPOINT_FAULTS[fault](ck)
    data, out = str(pipeline["data"]), str(tmp_path / "out")
    infer = ["sr-infer", "--data", data, "--checkpoint", str(ck), "--out", out]
    resume = ["pretrain", "--data", data, "--out", out, "--resume", str(ck)]
    for argv in ([infer] if fault in GENERATOR_FAULTS else []) + [resume]:
        assert main(argv + OVERRIDES) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


GENERATOR_FAULTS = ("params-missing", "layer-kind", "layer-source")


def test_gan_train_init_refuses_a_generator_of_another_config(tmp_path, pipeline, capsys):
    # --init reads only the generator, and the fingerprint from the manifest.
    rc = main(["gan-train", "--data", str(pipeline["data"]), "--out", str(tmp_path / "adv"),
               "--init", str(pipeline["pre"] / "last")] + OVERRIDES
              + ["--set", "run.precision=f64"])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: ") and "fingerprint" in err


@pytest.mark.parametrize("fault", sorted(set(CHECKPOINT_FAULTS) - set(GENERATOR_FAULTS)))
def test_sr_infer_reads_only_the_generator(tmp_path, pipeline, fault):
    # A damaged history, Adam state or counter, which only --resume needs,
    # used to stop sr-infer as well; it now reconstructs what it did before.
    ck = tmp_path / "last"
    shutil.copytree(pipeline["pre"] / "last", ck)
    CHECKPOINT_FAULTS[fault](ck)
    for name, checkpoint in (("intact", pipeline["pre"] / "last"), ("damaged", ck)):
        run("sr-infer", "--data", str(pipeline["data"]), "--checkpoint", str(checkpoint),
            "--out", str(tmp_path / name))
    for split in ("val", "test"):
        intact, damaged = (archive.load_epoch_set(tmp_path / name / split).values
                           for name in ("intact", "damaged"))
        assert intact.tobytes() == damaged.tobytes()


def test_features_at_another_sampling_rate_is_a_data_error(tmp_path, capsys):
    # At 1000 Hz the 256-point Welch grid has no bin at 8 Hz; features used
    # to end in an IndexError traceback.
    fs = ["--set", "synth.fs=1000"]
    rec, data = tmp_path / "rec.csv", tmp_path / "data"
    run("synth", "--out", str(rec), *fs)
    run("preprocess", "--recording", str(rec), "--out", str(data), *fs)
    capsys.readouterr()
    assert main(["features", "--data", str(data), "--out", str(tmp_path / "f")] + OVERRIDES) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fs=1000 Hz") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
def test_non_finite_sampling_rate_is_a_data_error(tmp_path, pipeline, capsys, value):
    # A NaN or infinite rate used to pass the `fs <= 0` check of a recording
    # and of an epoch archive.
    rec = tmp_path / "rec.csv"
    text = pipeline["rec"].read_text()  # starts "# fs=512.0 subject=..."
    rec.write_text(text.replace(text.split()[1], f"fs={value}", 1))
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    _sub_in(data / "val_lr" / "manifest.txt", r"fs = 512\.0", f"fs = {value}")
    for argv in (["preprocess", "--recording", str(rec), "--out", str(tmp_path / "pre")],
                 ["baseline", "--data", str(data), "--out", str(tmp_path / "base")]):
        capsys.readouterr()
        assert main(argv + OVERRIDES) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "sampling rate fs must be finite and positive" in err


@pytest.mark.parametrize("command, setting", [("pretrain", "synth.n_channels=64"),
                                              ("gan-train", "synth.n_channels=64"),
                                              ("pretrain", "preprocess.seg_len=32")])
def test_training_on_segments_of_another_shape_is_a_config_error(tmp_path, pipeline, capsys,
                                                                 command, setting):
    # An archive of 16 kept channels x 64 samples against a config of 32
    # channels or 32 samples used to end in a ValueError traceback from the
    # first forward pass.
    argv = [command, "--data", str(pipeline["data"]), "--out", str(tmp_path / "o")]
    if command == "gan-train":
        argv += ["--init", str(pipeline["pre"] / "last")]
    assert main(argv + OVERRIDES + ["--set", setting]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "does not match the archive's (2, 16, 64)" in err


@pytest.fixture(scope="module")
def scale4(pipeline, tmp_path_factory):
    """A scale-4 preprocess of the pipeline's recording: 8 kept channels, 24 missing."""
    out = tmp_path_factory.mktemp("scale4") / "data"
    run("preprocess", "--recording", str(pipeline["rec"]), "--out", str(out),
        "--set", "preprocess.scale=4")
    return out


# One archive of the scale-2 preprocess swapped for its scale-4 twin, whose
# info.txt still says scale 2. pretrain and gan-train used to end in a
# ValueError traceback, from Model.forward (train_lr) or F.mse (train_hr),
# and to refuse a val archive only after a full epoch; the other commands
# already exited 1, features after writing train_hr.csv.
SWAPPED_ARCHIVES = [("pretrain", "train_lr"), ("pretrain", "train_hr"), ("pretrain", "val_lr"),
                    ("gan-train", "train_lr"), ("gan-train", "train_hr"),
                    ("gan-train", "val_hr"), ("sr-infer", "val_lr"), ("baseline", "val_lr"),
                    ("features", "val_hr"), ("evaluate", "val_hr")]


@pytest.mark.parametrize("command, name", SWAPPED_ARCHIVES)
def test_archive_of_another_shape_is_a_data_error(tmp_path, pipeline, scale4, capsys,
                                                  monkeypatch, command, name):
    data, out = tmp_path / "data", tmp_path / "out"
    shutil.copytree(pipeline["data"], data)
    shutil.rmtree(data / name)
    shutil.copytree(scale4 / name, data / name)
    steps = []
    monkeypatch.setattr(gan, "generator_loss", lambda *a: steps.append(a))
    extra = {"gan-train": ["--init", str(pipeline["pre"] / "last")],
             "sr-infer": ["--checkpoint", str(pipeline["adv"] / "best")],
             "evaluate": ["--baseline", str(pipeline["base"])]}.get(command, [])
    capsys.readouterr()
    assert main([command, "--data", str(data), "--out", str(out)] + extra + OVERRIDES) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if command in ("pretrain", "gan-train"):
        split, side = name.split("_")
        have = {"lr": "(8, 64)", "hr": "(24, 64)"}[side]
        assert (f"{split} {side} segments of shape {have} do not match the generator's "
                f"{side} shape (16, 64)") in err
    assert not steps and not out.exists()


def test_evaluate_refuses_unaligned_predictions(tmp_path, pipeline, capsys):
    # A baseline row that starts elsewhere than its truth row is not scored.
    base, out = tmp_path / "base", tmp_path / "out"
    shutil.copytree(pipeline["base"], base)
    meta = base / "val" / "meta.csv"
    with open(meta, newline="") as fh:
        origin = int(list(csv.reader(fh))[3][3])
    corrupt_cell(meta, 4, 3, str(origin + 1))
    capsys.readouterr()
    assert main(["evaluate", "--data", str(pipeline["data"]), "--baseline", str(base),
                 "--out", str(out)] + OVERRIDES) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sets misaligned at epoch 2: ") and err.count("\n") == 1, err
    assert not out.exists()
