import csv
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sleepshare import cli


def run(*argv):
    return cli.main(list(argv))


def read_rows(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def read_manifest(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, val = line.partition("=")
        out[key] = val
    return out


SMALL_SLEEP = ["--k", "3", "--gamma", "1e-2", "--seeds", "1", "--iters", "20"]
TINY_TRAIN = ["--train-size", "32", "--test-size", "16", "--image", "8",
              "--channels", "2", "--epochs", "2", "--batch-size", "16"]


def test_flag_overrides_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("iters=10\nseeds=1\nk=3\ngamma=1e-2\n")
    out = tmp_path / "out"
    assert run("sleep-ideal", "--config", str(cfgfile), "--iters", "25",
               "--out", str(out)) == 0
    man = read_manifest(out / "manifest.txt")
    assert man["cfg.iters"] == "25"
    assert man["cfg.seeds"] == "1"
    assert man["cfg.n"] == "100"
    assert man["subcommand"] == "sleep-ideal"


def test_config_and_replay_exclusive(tmp_path):
    f = tmp_path / "a.cfg"
    f.write_text("iters=1\n")
    assert run("sleep-ideal", "--config", str(f), "--replay", str(f),
               "--out", str(tmp_path / "o")) == cli.EXIT_USAGE


def test_unknown_config_key(tmp_path):
    f = tmp_path / "a.cfg"
    f.write_text("learning_rate=1\n")
    assert run("sleep-ideal", "--config", str(f),
               "--out", str(tmp_path / "o")) == cli.EXIT_USAGE


def test_bad_flag_value(tmp_path):
    assert run("sleep-ideal", "--iters", "many",
               "--out", str(tmp_path / "o")) == cli.EXIT_USAGE


def test_zero_iters_writes_summary_only(tmp_path):
    out = tmp_path / "o"
    assert run("sleep-ideal", "--k", "3", "--gamma", "1e-2", "--seeds", "2",
               "--iters", "0", "--out", str(out)) == 0
    assert (out / "summary.csv").exists()
    assert not list(out.glob("traj_*.csv"))
    assert len(read_rows(out / "summary.csv")) == 2


def test_summary_floor_column(tmp_path):
    out = tmp_path / "o"
    assert run("sleep-ideal", *SMALL_SLEEP, "--out", str(out)) == 0
    row = read_rows(out / "summary.csv")[0]
    assert abs(float(row["neg_log_snr_floor"]) - 2 * math.log(0.01 / 1.01)) < 1e-9
    assert row["k"] == "3"


def test_trajectory_schema(tmp_path):
    out = tmp_path / "o"
    assert run("sleep-ideal", *SMALL_SLEEP, "--out", str(out)) == 0
    rows = read_rows(out / "traj_k3_g0.01_s0.csv")
    assert list(rows[0]) == ["iteration", "neg_log_snr", "grid"]
    assert len(rows) == 20
    assert rows[0]["grid"] == "-1"
    assert rows[-1]["iteration"] == "19"


def test_ode_terminal_plasticity_tracks_discrete(tmp_path):
    # one update per settled presentation equals the discrete rule at the
    # same alpha (sleep-ideal --alpha) up to the exp(-present/tau)
    # settling error
    common = ["--k", "3", "--gamma", "1e-2", "--seeds", "1", "--iters", "300",
              "--schedule", "inverse_time", "--eta-a", "0.5", "--eta-b", "1000",
              "--warmup", "0", "--alpha", "10"]
    d, o = tmp_path / "disc", tmp_path / "ode"
    assert run("sleep-ideal", *common, "--momentum", "0", "--out", str(d)) == 0
    assert run("sleep-rate", "--mode", "ode", "--plasticity", "terminal",
               *common, "--out", str(o)) == 0
    terms = [float(read_rows(p / "summary.csv")[0]["terminal_neg_log_snr"])
             for p in (d, o)]
    assert abs(terms[0] - terms[1]) < 0.05


def test_rate_meta_sidecar(tmp_path):
    out = tmp_path / "o"
    assert run("sleep-rate", "--mode", "ode", "--alpha", "10", "--iters", "3",
               "--k", "3", "--gamma", "1e-2", "--seeds", "1",
               "--out", str(out)) == 0
    meta = (out / "traj_k3_g0.01_s0.meta").read_text()
    assert "alpha=" in meta and "tau_ms=" in meta and "dt_ms=" in meta
    fields = dict(line.split("=", 1) for line in meta.splitlines())
    assert 0.0 <= float(fields["frac_nonneg"]) <= 1.0


def test_rate_rejects_coarse_dt(tmp_path):
    assert run("sleep-rate", "--dt-ms", "5", "--tau-ms", "30",
               "--out", str(tmp_path / "o")) == cli.EXIT_USAGE


def test_rate_rejects_unknown_plasticity(tmp_path):
    out = tmp_path / "o"
    assert run("sleep-rate", "--plasticity", "foo", *SMALL_SLEEP,
               "--out", str(out)) == cli.EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--present-ms", "-150"),   # inverse Euler steps
    ("--present-ms", "0"),
    ("--present-ms", "inf"),
    ("--tau-ms", "nan"),
    ("--dt-ms", "nan"),
    ("--bias", "nan"),
    ("--rate-const", "-2"),     # Hebbian, not anti-Hebbian
    ("--rate-const", "nan"),
    ("--rate-const", "inf"),
])
def test_rate_rejects_bad_circuit(tmp_path, flag, value):
    out = tmp_path / "o"
    assert run("sleep-rate", flag, value, *SMALL_SLEEP, "--out", str(out)) == cli.EXIT_USAGE
    assert not out.exists()


def test_rate_divergence_prints_only_the_failure(tmp_path, capfd):
    out = tmp_path / "o"
    assert run("sleep-rate", "--k", "3", "--gamma", "1e-3", "--seeds", "1",
               "--iters", "400", "--warmup", "0", "--schedule", "constant",
               "--eta-a", "3", "--out", str(out)) == cli.EXIT_DIVERGENCE
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numerical failure: ")
    assert "[presentation 19, " in err[0]


@pytest.mark.parametrize("alpha", ["-1", "0", "nan"])
@pytest.mark.parametrize("argv", [
    ["sleep-rate", "--mode", "ode", *SMALL_SLEEP],
    ["sleep-ideal", *SMALL_SLEEP],
    ["fixed-point", "--instances", "1"],
], ids=["ode", "sleep-ideal", "fixed-point"])
def test_rate_rejects_nonpositive_alpha(tmp_path, argv, alpha):
    out = tmp_path / "o"
    assert run(*argv, "--alpha", alpha, "--out", str(out)) == cli.EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("sub", ["sleep-ideal", "sleep-rate"])
def test_sweep_rejects_nonpositive_gamma(tmp_path, sub):
    # the summary's floor column is undefined at gamma <= 0
    out = tmp_path / "o"
    assert run(sub, *SMALL_SLEEP, "--gamma", "1e-2,0", "--out", str(out)) == cli.EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("sub,flag", [("sleep-ideal", "--schedule"),
                                      ("sleep-rate", "--mode")])
def test_rejects_unknown_choice(tmp_path, sub, flag):
    out = tmp_path / "o"
    assert run(sub, flag, "foo", "--out", str(out)) == cli.EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sleep-rate", *SMALL_SLEEP, "--mode", "discrete"],
    ["sleep-rate", *SMALL_SLEEP, "--momentum", "0.5"],
    ["sleep-rate", *SMALL_SLEEP, "--sigma", "0.1"],
    ["train", *TINY_TRAIN, "--optimizer", "sgd"],
    ["train", *TINY_TRAIN, "--val-fraction", "0.25"],
], ids=["mode-discrete", "momentum", "sigma", "optimizer", "val-fraction"])
def test_deleted_settings_exit_2_before_work(tmp_path, argv):
    out = tmp_path / "o"
    assert run(*argv, "--out", str(out)) == cli.EXIT_USAGE
    assert not out.exists()


def test_replay_refuses_the_deleted_reset_rates_key(tmp_path):
    out = tmp_path / "o"
    assert run("sleep-rate", *SMALL_SLEEP, "--iters", "2", "--out", str(out)) == 0
    old = tmp_path / "old_manifest.txt"
    old.write_text((out / "manifest.txt").read_text() + "cfg.reset_rates=False\n")
    redo = tmp_path / "r"
    assert run("sleep-rate", "--replay", str(old), "--out", str(redo)) == cli.EXIT_USAGE
    assert not redo.exists()


@pytest.mark.parametrize("sub,line", [
    ("sleep-rate", "cfg.momentum=0.0"),
    ("sleep-rate", "cfg.sigma=0.0"),
    ("sleep-rate", "cfg.mode=discrete"),
    ("train", "cfg.optimizer=adamw"),
    ("train", "cfg.val_fraction=0.0"),
], ids=["momentum", "sigma", "mode-discrete", "optimizer", "val_fraction"])
def test_replay_refuses_deleted_keys(tmp_path, sub, line):
    # a manifest written while the setting existed records it
    out = tmp_path / "o"
    size = [*SMALL_SLEEP, "--iters", "2"] if sub == "sleep-rate" else TINY_TRAIN
    assert run(sub, *size, "--out", str(out)) == 0
    old = tmp_path / "old_manifest.txt"
    old.write_text((out / "manifest.txt").read_text() + line + "\n")
    redo = tmp_path / "r"
    assert run(sub, "--replay", str(old), "--out", str(redo)) == cli.EXIT_USAGE
    assert not redo.exists()


@pytest.mark.parametrize("sweep", [["--gamma", "0.001,0.0010000001"],
                                   ["--k", "3,3"]])
@pytest.mark.parametrize("sub", ["sleep-ideal", "sleep-rate"])
def test_sweep_rejects_colliding_cells(tmp_path, sub, sweep):
    # cells that share a stream or a file name would overwrite each other
    out = tmp_path / "o"
    assert run(sub, "--k", "3", "--gamma", "1e-2", "--seeds", "1", "--iters", "5",
               *sweep, "--out", str(out)) == cli.EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("sigmas", ["0.1,0.10000000001", "0,0.1", "0.2,0.2"])
def test_noise_floor_rejects_colliding_sigmas(tmp_path, sigmas):
    # sigma 0 is the slope cells' stream and file name
    out = tmp_path / "o"
    assert run("noise-floor", "--sigma", sigmas, "--seeds", "1", "--iters", "5",
               "--slope-iters", "20", "--out", str(out)) == cli.EXIT_USAGE
    assert not out.exists()


def test_fixed_point_clean_run(tmp_path):
    out = tmp_path / "o"
    assert run("fixed-point", "--instances", "6", "--out", str(out)) == 0
    report = (out / "report.txt").read_text()
    assert "max_rel_error" in report


def test_fixed_point_singular_inputs_exit_code(tmp_path):
    out = tmp_path / "o"
    assert run("fixed-point", "--instances", "2", "--gamma", "0",
               "--out", str(out)) == cli.EXIT_DIVERGENCE
    assert (out / "manifest.txt").exists()


def test_fixed_point_tolerance_breach(tmp_path):
    assert run("fixed-point", "--instances", "6", "--tol", "1e-12",
               "--out", str(tmp_path / "o")) == cli.EXIT_TOLERANCE


def test_noise_floor_artifacts(tmp_path):
    out = tmp_path / "o"
    assert run("noise-floor", "--seeds", "2", "--iters", "5",
               "--slope-iters", "60", "--out", str(out)) == 0
    assert len(read_rows(out / "slopes.csv")) == 2
    rows = read_rows(out / "summary.csv")
    assert [r["sigma"] for r in rows] == ["0.1", "0.2", "0.4"]
    assert list(rows[0]) == ["sigma", "plateau_mean", "ratio_to_prev"]


def test_manifest_hashes_and_replay(tmp_path):
    out = tmp_path / "first"
    assert run("sleep-ideal", *SMALL_SLEEP, "--out", str(out)) == 0
    man = read_manifest(out / "manifest.txt")
    digest = hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest()
    assert man["sha256.summary.csv"] == digest

    redo = tmp_path / "second"
    assert run("sleep-ideal", "--replay", str(out / "manifest.txt"),
               "--out", str(redo)) == 0
    for name in ("summary.csv", "traj_k3_g0.01_s0.csv"):
        assert (out / name).read_bytes() == (redo / name).read_bytes()


def test_replay_rejects_other_subcommand(tmp_path):
    out = tmp_path / "o"
    assert run("sleep-ideal", *SMALL_SLEEP, "--out", str(out)) == 0
    assert run("noise-floor", "--replay", str(out / "manifest.txt"),
               "--out", str(tmp_path / "x")) == cli.EXIT_USAGE


def _assert_jobs_byte_identical(tmp_path, argv):
    # every output but the manifest (which records jobs and the duration)
    a, b = tmp_path / "j1", tmp_path / "j4"
    assert run(*argv, "--jobs", "1", "--out", str(a)) == 0
    assert run(*argv, "--jobs", "4", "--out", str(b)) == 0
    names = sorted(p.name for p in a.iterdir() if p.name != "manifest.txt")
    assert names == sorted(p.name for p in b.iterdir() if p.name != "manifest.txt")
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_parallel_cells_byte_identical(tmp_path):
    _assert_jobs_byte_identical(tmp_path, ["sleep-ideal", "--k", "3,6", "--gamma", "1e-2",
                                           "--seeds", "2", "--iters", "20"])


@pytest.mark.parametrize("argv", [
    ["sleep-rate", "--k", "3,6", "--gamma", "1e-2", "--seeds", "2", "--iters", "20"],
    ["noise-floor", "--seeds", "2", "--iters", "5", "--slope-iters", "20"],
    ["compare", "--arms", "conv,lc-ws:1", "--seeds", "2", *TINY_TRAIN],
], ids=lambda argv: argv[0])
def test_pooled_cells_byte_identical(tmp_path, argv):
    _assert_jobs_byte_identical(tmp_path, argv)


def test_train_schema_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("train", "--arm", "lc", *TINY_TRAIN, "--out", str(a)) == 0
    assert run("train", "--arm", "lc", *TINY_TRAIN, "--out", str(b)) == 0
    rows = read_rows(a / "metrics.csv")
    assert list(rows[0]) == ["epoch", "split", "accuracy_top1", "loss"]
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert read_rows(a / "events.csv") == []


def test_train_ws_arm_events(tmp_path):
    out = tmp_path / "o"
    assert run("train", "--arm", "lc-ws:1", *TINY_TRAIN, "--out", str(out)) == 0
    rows = read_rows(out / "events.csv")
    assert rows, "no sharing events logged"
    assert list(rows[0]) == ["event", "layer", "neg_log_snr_pre", "neg_log_snr_post"]
    assert all(float(r["neg_log_snr_post"]) == -1000.0 for r in rows)


def test_train_rejects_unknown_arm(tmp_path):
    assert run("train", "--arm", "mlp",
               "--out", str(tmp_path / "o")) == cli.EXIT_USAGE


def test_divergence_exit_code_writes_manifest(tmp_path, capsys):
    out = tmp_path / "o"
    # eta * gamma = 10 makes the decay term flip sign and grow 9x per step
    # in the gamma=1e4 cells only; the gamma=1e-2 cells of the same stack
    # stay finite, so the error must name the failing cell; no numpy
    # RuntimeWarning may bury it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("sleep-ideal", "--schedule", "constant", "--eta-a", "1e-3",
                   "--k", "3", "--gamma", "1e-2,1e4", "--seeds", "2", "--iters", "1000",
                   "--out", str(out)) == cli.EXIT_DIVERGENCE
    assert (out / "manifest.txt").exists()
    err = capsys.readouterr().err
    assert "k=3, gamma=10000, seed=1" in err
    assert "iteration " in err


def test_unknown_flag_is_usage_error(tmp_path):
    assert run("sleep-ideal", "--granularity", "9") == cli.EXIT_USAGE


def test_missing_subcommand_is_usage_error():
    assert run() == cli.EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["sleep-ideal", *SMALL_SLEEP, "--eta-a", "nan"],
    ["sleep-rate", *SMALL_SLEEP, "--warmup", "0", "--eta-a", "nan"],
    ["sleep-rate", *SMALL_SLEEP, "--alpha", "-inf"],
    ["fixed-point", "--instances", "1", "--tol", "inf"],
    ["noise-floor", "--seeds", "1", "--iters", "5", "--slope-iters", "20",
     "--sigma", "0.1,nan"],
    ["train", "--arm", "lc", *TINY_TRAIN, "--lr", "nan"],
    ["compare", "--arms", "lc", "--seeds", "1", *TINY_TRAIN, "--weight-decay", "inf"],
], ids=["sleep-ideal", "sleep-rate", "sleep-rate-alpha", "fixed-point", "noise-floor",
        "train", "compare"])
def test_rejects_non_finite_values(tmp_path, argv):
    out = tmp_path / "o"
    assert run(*argv, "--out", str(out)) == cli.EXIT_USAGE
    assert not out.exists()


def test_rejects_non_finite_config_and_replay_values(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("lr=inf\n")
    out = tmp_path / "o"
    assert run("train", "--config", str(cfgfile), "--out", str(out)) == cli.EXIT_USAGE
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("subcommand=sleep-ideal\nseed=0\ncfg.gamma=0.01,nan\n")
    assert run("sleep-ideal", "--replay", str(manifest), "--out", str(out)) == cli.EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("sub", ["sleep-ideal", "sleep-rate"])
def test_alpha_inf_is_accepted(tmp_path, sub):
    out = tmp_path / "o"
    assert run(sub, *SMALL_SLEEP, "--alpha", "inf", "--out", str(out)) == 0
    assert read_manifest(out / "manifest.txt")["cfg.alpha"] == "inf"


def test_rate_decay_overflow_names_presentation(tmp_path, capfd):
    # (1 - eta * gamma)^steps = (-99)^150 overflows a float
    out = tmp_path / "o"
    assert run("sleep-rate", "--k", "3", "--gamma", "1", "--seeds", "1", "--iters", "5",
               "--schedule", "constant", "--eta-a", "100", "--warmup", "0",
               "--out", str(out)) == cli.EXIT_DIVERGENCE
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numerical failure: ")
    assert "[presentation 0]" in err[0]
    assert (out / "manifest.txt").exists()


def test_train_divergence_exits_3_without_warnings(tmp_path, capfd):
    # the one step at lr 1e300 leaves weights whose logits are not finite
    out = tmp_path / "o"
    assert run("train", "--arm", "lc", "--epochs", "1", "--lr", "1e300",
               "--train-size", "64", "--test-size", "64",
               "--out", str(out)) == cli.EXIT_DIVERGENCE
    err = capfd.readouterr().err.splitlines()
    assert err == ["numerical failure: non-finite loss [epoch 0, train]"]
    assert (out / "manifest.txt").exists()


def test_module_entry_point(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "sleepshare", "fixed-point", "--instances", "1",
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "max_rel_error" in proc.stdout
    assert (out / "manifest.txt").exists()


@pytest.mark.parametrize("argv", [
    ["noise-floor", "--m", "0"],
    ["noise-floor", "--slope-iters", "2"],
    ["noise-floor", "--iters", "0"],
    ["sleep-ideal", "--seeds", "0"],
    ["sleep-ideal", "--iters", "-5"],
    ["sleep-ideal", "--k", "0"],
    ["sleep-ideal", "--k", "3,0"],
    ["sleep-ideal", "--n", "1"],
    ["sleep-rate", "--warmup", "-1"],
    ["fixed-point", "--n-max", "1"],
    ["fixed-point", "--d-max", "1"],
    ["fixed-point", "--m-factor", "0"],
    ["sleep-ideal", "--jobs", "0"],
    ["sleep-ideal", "--input-std", "-1"],
    ["sleep-ideal", "--init-std", "-1"],
    ["sleep-ideal", "--sigma", "-0.3"],
    ["sleep-rate", "--input-std", "-1"],
    ["sleep-rate", "--init-std", "-1"],
    ["noise-floor", "--w-init-std", "-1"],
    ["noise-floor", "--input-std", "-1"],
    ["noise-floor", "--sigma=-0.1,0.2"],
], ids=lambda argv: " ".join(argv))
def test_rejects_sweep_sizes_below_bound(tmp_path, argv):
    out = tmp_path / "o"
    assert run(*argv, "--out", str(out)) == cli.EXIT_USAGE
    assert not out.exists()


def _idx_files(tmp_path, n=20, side=8, header_only=False):
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    pixels = np.random.default_rng(0).integers(0, 256, size=(n, side, side), dtype=np.uint8)
    images.write_bytes(struct.pack(">II", 0x803, n) if header_only else
                       struct.pack(">IIII", 0x803, n, side, side) + pixels.tobytes())
    labels.write_bytes(struct.pack(">II", 0x801, n) + (np.arange(n) % 4).astype(np.uint8).tobytes())
    return images, labels


@pytest.mark.parametrize("case", [
    "missing-idx", "short-idx-header", "labels-without-images", "odd-idx-side",
    "idx-leaves-no-test", "image-odd", "kernel-even", "channels-0", "train-size-0",
    "test-size-0", "epochs-0", "reps-not-dividing-batch",
    "arm-parameter-0", "arm-parameter-on-conv", "ws-kernel-over-half-image",
    "compare-reps-not-dividing-batch", "noise-negative", "compare-noise-negative",
])
def test_train_rejects_bad_input_before_work(tmp_path, case):
    images, labels = _idx_files(tmp_path, side=7 if case == "odd-idx-side" else 8,
                                header_only=case == "short-idx-header")
    argv = {
        "missing-idx": ["--idx-images", str(tmp_path / "absent.idx"), "--idx-labels", str(labels)],
        "short-idx-header": ["--idx-images", str(images), "--idx-labels", str(labels)],
        "labels-without-images": ["--idx-labels", str(labels)],
        "odd-idx-side": ["--idx-images", str(images), "--idx-labels", str(labels)],
        "idx-leaves-no-test": ["--idx-images", str(images), "--idx-labels", str(labels),
                               "--train-size", "20"],
        "image-odd": ["--image", "15"],
        "kernel-even": ["--kernel", "2"],
        "channels-0": ["--channels", "0"],
        "train-size-0": ["--train-size", "0"],
        "test-size-0": ["--test-size", "0"],
        "epochs-0": ["--epochs", "0"],
        "reps-not-dividing-batch": ["--arm", "lc-reps:16", "--batch-size", "50"],
        "arm-parameter-0": ["--arm", "lc-reps:0"],
        "arm-parameter-on-conv": ["--arm", "conv:5"],
        "ws-kernel-over-half-image": ["--arm", "lc-ws:1", "--image", "6", "--kernel", "5"],
        "compare-reps-not-dividing-batch": ["--arms", "lc,lc-reps:16", "--batch-size", "50"],
        "noise-negative": ["--noise", "-1"],
        "compare-noise-negative": ["--arms", "lc", "--noise", "-1"],
    }[case]
    sub = "compare" if case.startswith("compare") else "train"
    out = tmp_path / "o"
    assert run(sub, *argv, "--out", str(out)) == cli.EXIT_USAGE
    assert not out.exists()


def test_train_reads_an_idx_pair(tmp_path):
    images, labels = _idx_files(tmp_path, n=20, side=8)
    out = tmp_path / "o"
    assert run("train", "--arm", "lc-ws:1", "--idx-images", str(images), "--idx-labels",
               str(labels), "--train-size", "12", "--test-size", "8", "--epochs", "1",
               "--batch-size", "4", "--channels", "2", "--out", str(out)) == 0
    assert [r["split"] for r in read_rows(out / "metrics.csv")] == ["train", "test"]


def _python(code):
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cold_start_loads_no_scipy():
    # scipy.linalg alone took about half of every subcommand's set-up;
    # numpy.random is loaded up front so that no first draw pays for it
    out = _python("import sys\nimport sleepshare.cli\n"
                  "print('scipy' in sys.modules, 'numpy.random' in sys.modules)")
    assert out.split() == ["False", "True"]


def test_subcommands_import_nothing_after_start_up(tmp_path):
    # a module first imported inside a call moves its import cost from
    # set-up into the call's own time
    calls = [
        ["sleep-ideal", *SMALL_SLEEP],
        ["sleep-rate", *SMALL_SLEEP, "--mode", "ode"],
        ["fixed-point", "--instances", "2", "--n-max", "3", "--d-max", "3"],
        ["fixed-point", "--instances", "1", "--gamma", "0"],
        ["noise-floor", "--seeds", "1", "--iters", "5", "--slope-iters", "20"],
        ["train", "--arm", "lc-reps:2", *TINY_TRAIN],
        ["compare", "--arms", "conv,lc-ws:1", "--seeds", "1", *TINY_TRAIN],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from sleepshare import cli\n"
        "before = set(sys.modules)\n"
        f"for i, argv in enumerate({calls!r}):\n"
        f"    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"        rc = cli.main(argv + ['--out', {str(tmp_path)!r} + '/r%d' % i])\n"
        "    assert rc in (0, 3), (argv, rc)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    new = json.loads(_python(code))
    assert [m for m in new if m.split(".")[0] in ("numpy", "sleepshare")] == []
    # argparse's gettext loads the stdlib locale
    assert set(new) <= {"locale", "_locale"}, new
