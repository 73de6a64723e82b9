"""Benchmark worker: one workload of the eegsr CLI pipeline.

Start it through ``perfbench/run.py``, which pins BLAS and OpenMP to one
thread before this process (and the commands it starts) import numpy, and
keeps two workloads from running at once. Each workload is a closed loop
with a single client: the CLI pipeline runs command after command, each in
a fresh process as a user would run it, and the whole pipeline repeats for
as long as ``--seconds`` allows, at least twice. The repetitions use one
seed, so their artifacts must hash identically.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs the pipeline once untraced and once under the span tracer and prints
the per-layer metrics. The last stdout line is the JSON result; a record
with every sample and the environment goes to ``.bench_out/``.
"""
import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS reads its thread count once, when numpy loads, so check before importing it.
if __name__ == "__main__" and any(os.environ.get(v) != "1" for v in THREAD_VARS):
    sys.exit("perfbench/bench.py: start it through perfbench/run.py, which sets "
             + ", ".join(f"{v}=1" for v in THREAD_VARS))

import argparse  # noqa: E402
import configparser  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from eegsr import gan, models, report  # noqa: E402
from eegsr.config import load_config  # noqa: E402
from eegsr.errors import CheckpointError  # noqa: E402

import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_out")
SETUP_REPS = 7

# Parameter counts of the paper-size generator and critic at scale 2.
PAPER_PARAMS = (7_983_361, 3_241_793)


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict  # section.key -> value, given to every command as --set
    expect_params: tuple | None = None
    expect_sr_better: bool = False  # generator must beat bicubic on test MSE


# Why each workload exists is in perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    # The acceptance desk fixture with 2 + 2 epochs instead of 50 + 10; with
    # fewer, some seeds leave the generator behind bicubic (see README.md).
    Workload("desk", {
        "synth.n_samples": "8544",
        "synth.n_classes": "3",
        "synth.label_block": "1024",
        "model.width": "0.015625",
        "train.pretrain_epochs": "2",
        "train.gan_epochs": "2",
        "train.batch_size": "64",
        "classifier.epochs": "30",
        "run.precision": "f32",
    }, expect_sr_better=True),
    # 3 epochs of 256 samples, one per split: 4 train segments, so 4 generator
    # steps of batch 1 with a critic step on the third; val and test 4 each.
    Workload("full_width", {
        "synth.n_samples": "320",
        "synth.n_classes": "3",
        "synth.label_block": "64",
        "preprocess.window": "256",
        "preprocess.ratio_train": "0.34",
        "preprocess.ratio_val": "0.34",
        "preprocess.ratio_test": "0.32",
        "model.width": "1.0",
        "train.pretrain_epochs": "1",
        "train.gan_epochs": "1",
        "train.batch_size": "1",
        "classifier.epochs": "5",
        "run.precision": "f32",
    }, expect_params=PAPER_PARAMS),
)}

# Stage rates: metric -> (stage, output fact counting its work, epoch-count key).
RATES = {
    "prep_epochs_per_s": ("preprocess", "epochs", None),
    "pretrain_seg_per_s": ("pretrain", "train_segments", "pretrain_epochs"),
    "gan_seg_per_s": ("gan_train", "train_segments", "gan_epochs"),
    "infer_seg_per_s": ("sr_infer", "infer_segments", None),
    "features_epochs_per_s": ("features", "feature_epochs", None),
}


# ---------------------------------------------------------------------------
# Set-up and pipeline
# ---------------------------------------------------------------------------


def set_up(cfg, seed):
    """Build the workload's generator and critic; returns their parameter counts."""
    dtype = cfg.dtype()
    gen = models.build_generator(cfg.generator_config(), seed=seed, dtype=dtype)
    disc = models.build_discriminator(cfg.discriminator_config(), seed=seed + 1, dtype=dtype)
    return gen.param_count(), disc.param_count()


def pipeline(it, cli_args):
    """(stage, argv) for one pass of the CLI pipeline into directory ``it``."""
    p = lambda *parts: str(it.joinpath(*parts))  # noqa: E731
    steps = [
        ("synth", ["synth", "--out", p("rec.csv")]),
        ("preprocess", ["preprocess", "--recording", p("rec.csv"), "--out", p("data")]),
        ("pretrain", ["pretrain", "--data", p("data"), "--out", p("pre")]),
        ("gan_train", ["gan-train", "--data", p("data"), "--out", p("adv"),
                       "--init", p("pre", "last")]),
        ("baseline", ["baseline", "--data", p("data"), "--out", p("base")]),
        ("sr_infer", ["sr-infer", "--data", p("data"), "--checkpoint", p("adv", "best"),
                      "--out", p("sr")]),
        ("features", ["features", "--data", p("data"), "--sr", p("sr"),
                      "--out", p("feats")]),
        ("train_clf", ["train-clf", "--features", p("feats"), "--out", p("clf")]),
        ("evaluate", ["evaluate", "--data", p("data"), "--baseline", p("base"),
                      "--sr", p("sr"), "--features", p("feats"), "--classifier", p("clf"),
                      "--out", p("metrics")]),
    ]
    steps = [(stage, argv + cli_args) for stage, argv in steps]
    # report has no --set overrides of its own to take.
    steps.append(("report", ["report", "--metrics", p("metrics"), "--out", p("report")]))
    return steps


def timed_set_up(cfg, seed):
    """One set-up as a command pays it: a fresh interpreter importing eegsr,
    then the workload's set-up. Returns (seconds, param counts)."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import eegsr.cli"], check=True)
    counts = set_up(cfg, seed)
    return time.perf_counter() - t, counts


def run_pipeline(steps, checks, spans_dir=None, run_id=""):
    """Run each command in a fresh process; returns (stage s, wall s, completed).

    No timeout here: a wait with a timeout polls in steps of up to 50 ms,
    which would quantise every command time. run.py stops the whole process
    group if the run overstays.
    """
    times = {}
    t0 = time.perf_counter()
    for stage, argv in steps:
        trace = [] if spans_dir is None else ["--spans", str(spans_dir / f"{stage}.json"),
                                              run_id]
        cmd = [sys.executable, str(HERE / "command.py"), *trace, *argv]
        t = time.perf_counter()
        rc = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
        times[stage] = time.perf_counter() - t
        if not checks.expect(rc == 0, f"{stage} exited {rc}"):
            return times, time.perf_counter() - t0, False
    return times, time.perf_counter() - t0, True


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class Checks:
    """Output checks; every one counts into attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {message}", file=sys.stderr)
        return ok


def artifact_hashes(root):
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def archived_count(directory):
    cp = configparser.ConfigParser()
    cp.read(directory / "manifest.txt")
    return int(cp["archive"]["n_epochs"])


def output_facts(cfg, it):
    """Sizes and quality figures of one pipeline pass, read from its files."""
    pp = cfg["preprocess"]
    group = pp["window"] // pp["seg_len"]
    segs = {s: archived_count(it / "data" / f"{s}_lr") for s in ("train", "val", "test")}
    epochs = {s: n // group for s, n in segs.items()}
    test_mse = {r.method: r.mse
                for r in report.read_sr_csv(it / "metrics" / "reconstruction.csv")
                if r.dataset == "test"}
    accuracy = {m.source: m.accuracy
                for m in report.read_class_csv(it / "metrics" / "classification.csv")}
    return {
        "train_segments": segs["train"],
        "infer_segments": segs["val"] + segs["test"],
        "epochs": sum(epochs.values()),
        # features reads true data of every split and reconstructions of val and test
        "feature_epochs": sum(epochs.values()) + epochs["val"] + epochs["test"],
        "sr_mse_ratio": test_mse["wgan"] / test_mse["bicubic"],
        "clf_acc_sr": accuracy["sr"],
    }


def check_outputs(wl, cfg, it, counts, facts, checks):
    if wl.expect_params is not None:
        checks.expect(counts == wl.expect_params,
                      f"parameter counts {counts} != {wl.expect_params}")
    if wl.expect_sr_better:
        checks.expect(facts["sr_mse_ratio"] < 1.0,
                      f"sr_mse_ratio {facts['sr_mse_ratio']:.4f} is not below 1")
    fingerprint = gan.config_fingerprint(cfg.generator_config(), cfg.discriminator_config(),
                                         cfg.dtype(), cfg["train"]["loss_mode"])
    try:
        last = gan.load_checkpoint(it / "adv" / "last", fingerprint)
    except CheckpointError as exc:
        checks.expect(False, f"adv/last refused: {exc}")
    else:
        loaded = (last.gen.param_count(), last.disc.param_count())
        checks.expect(loaded == counts, f"checkpoint parameter counts {loaded} != {counts}")
    for phase in ("pre", "adv"):
        try:
            history = gan.LossHistory.from_csv(it / phase / "history.csv")
        except CheckpointError as exc:
            checks.expect(False, f"{phase}/history.csv unreadable: {exc}")
            continue
        checks.expect(len(history) > 0 and history.all_finite(),
                      f"{phase}/history.csv has no rows or non-finite losses")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans_dir, wall_s):
    """Per-layer metrics of the traced pass, and its spans by command."""
    summary, runs = {}, {}
    for path in sorted(spans_dir.glob("*.json")):
        spans = json.loads(path.read_text())["spans"]
        tracer.summarize(spans, summary)
        runs[path.stem] = spans
    values = {}
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0}
    for _, _, name, _, unit in tracer.TARGETS:
        entry = summary.get(name, empty)
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.s"] = entry["s"]
        values[f"{name}.self_s"] = entry["self_s"]
        if unit is not None:
            values[f"{name}.{unit}"] = entry["work"]
    # The share of the traced wall time spent in layer spans below a command.
    covered = sum(summary[f"cli.{s}"]["s"] - summary[f"cli.{s}"]["self_s"]
                  for s in tracer.CLI_STAGES if f"cli.{s}" in summary)
    values["trace.coverage"] = covered / wall_s
    return values, runs


def spread(values):
    """(median, q1, q3, n), quartiles as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def _proc_field(path, key):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu": _proc_field("/proc/cpuinfo", "model name"),
        "nproc": len(os.sched_getaffinity(0)),
        "ram": _proc_field("/proc/meminfo", "MemTotal"),
        "seed": seed,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in Path("src").rglob("*.py")),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def run_passes(wl, cfg, args, root, counts, cli_args, checks):
    """Repeat the pipeline; with --trace 1, once untraced and once traced.

    Returns (wall s per pass, stage s per pass, output facts, spans directory).
    """
    walls, stage_times, facts, reference, spans_dir = [], [], None, None, None
    t_measure = time.perf_counter()
    while True:
        k = len(walls)
        it = root / f"pass{k}"
        if args.trace and k == 1:
            spans_dir = root / "spans"
            spans_dir.mkdir()
        times, wall, ok = run_pipeline(pipeline(it, cli_args), checks,
                                       spans_dir, f"{wl.name}-seed{args.seed}-pass{k}")
        walls.append(wall)
        stage_times.append(times)
        if not ok:
            break
        hashes = artifact_hashes(it)
        if reference is None:
            reference = hashes
            facts = output_facts(cfg, it)
            facts["artifacts_mb"] = sum(f.stat().st_size for f in it.rglob("*")
                                        if f.is_file()) / 2**20
            check_outputs(wl, cfg, it, counts, facts, checks)
        else:
            differ = sorted(n for n in reference.keys() | hashes.keys()
                            if reference.get(n) != hashes.get(n))
            checks.expect(not differ, f"artifacts differ between repetitions: {differ[:5]}")
        shutil.rmtree(it)
        if checks.failed or spans_dir is not None:
            break
        # Start another pass only if it should end within --seconds.
        elapsed = time.perf_counter() - t_measure
        if not args.trace and k >= 1 and elapsed * (k + 2) / (k + 1) > args.seconds:
            break
    return walls, stage_times, facts, spans_dir


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())

    wl = WORKLOADS[args.workload]
    overrides = {**wl.overrides, "run.seed": str(args.seed)}
    cfg = load_config(None, overrides)
    cli_args = [a for k, v in overrides.items() for a in ("--set", f"{k}={v}")]
    shutil.rmtree(OUT_DIR / "work", ignore_errors=True)
    root = OUT_DIR / "work" / wl.name
    root.mkdir(parents=True)
    checks = Checks()

    # The first set-up of a run reads cold files and runs slower than the rest.
    counts = timed_set_up(cfg, args.seed)[1]
    setup_times = [timed_set_up(cfg, args.seed)[0] for _ in range(SETUP_REPS)]
    walls, stage_times, facts, spans_dir = run_passes(wl, cfg, args, root, counts,
                                                      cli_args, checks)

    # A traced pass is slower by the tracer's cost, so timings use untraced passes.
    untraced = stage_times[:1] if args.trace else stage_times
    samples = {"setup_s": setup_times,
               "wall_s": walls[:len(untraced)]}
    for stage in stage_times[0]:
        samples[f"{stage}_s"] = [t[stage] for t in untraced if stage in t]
    values = {
        # The largest resident set of any command; the worker itself is smaller.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "error_rate": checks.failed / max(checks.attempted, 1),
    }
    if facts is not None:
        for metric, (stage, fact, epochs_key) in RATES.items():
            work = facts[fact] * (cfg["train"][epochs_key] if epochs_key else 1)
            if all(stage in t for t in untraced):
                samples[metric] = [work / t[stage] for t in untraced]
        for name in ("artifacts_mb", "sr_mse_ratio", "clf_acc_sr"):
            values[name] = facts[name]
    for name, vals in samples.items():
        values[name] = spread(vals)[0]

    env = environment(args.seed)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  passes {len(walls)}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    for name in sorted(values):
        if name in samples:
            med, q1, q3, n = spread(samples[name])
            print(f"  {name:24s} {med:12.5g}   q1 {q1:.5g}  q3 {q3:.5g}  n={n}")
        else:
            print(f"  {name:24s} {values[name]:12.5g}")

    metrics, specs = values, spec["end_to_end"]
    if args.trace:
        metrics, specs = {}, spec["per_layer"]
        if spans_dir is not None and len(walls) == 2:
            metrics, runs = layer_metrics(spans_dir, walls[1])
            metrics["trace.overhead_s"] = walls[1] - walls[0]
            for metric, (stage, _, _) in RATES.items():
                metrics[f"cli.{stage}.{metric.split('_', 1)[1]}"] = values.get(metric, 0.0)
            for name in ("sr_mse_ratio", "clf_acc_sr", "error_rate"):
                metrics[f"eval.{name}"] = values.get(name, 0.0)
            (OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json").write_text(
                json.dumps({"fields": tracer.FIELDS, "commands": runs}))
    shutil.rmtree(OUT_DIR / "work", ignore_errors=True)

    result = {}
    for m in specs:
        if m["name"] in metrics:
            result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        elif not checks.failed:
            sys.exit(f"metric {m['name']} was not measured")
    (OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "values": values, "samples": samples,
                    "metrics": metrics}, indent=1))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
