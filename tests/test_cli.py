import csv
import hashlib
import inspect
import json
import math
import multiprocessing
import os
import pickle
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sleepshare as ss
from sleepshare import cli, trainer
from sleepshare.errors import DivergenceError, SingularMatrixError, ToleranceError


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
# every subcommand at sizes where a run takes milliseconds
TINY = {
    "sleep-ideal": ["--n", "4", "--k", "2", "--gamma", "1e-2", "--seeds", "1", "--iters", "3"],
    "sleep-rate": ["--n", "4", "--k", "2", "--gamma", "1e-2", "--seeds", "1", "--iters", "3"],
    "fixed-point": ["--instances", "2", "--n-max", "3", "--d-max", "3"],
    "noise-floor": ["--n", "3", "--d", "2", "--m", "3", "--seeds", "1", "--iters", "3",
                    "--slope-iters", "6"],
    "train": ["--arm", "lc", "--train-size", "8", "--test-size", "4", "--image", "6",
              "--channels", "1", "--epochs", "1", "--batch-size", "4"],
    "compare": ["--arms", "conv", "--seeds", "1", "--train-size", "8", "--test-size", "4",
                "--image", "6", "--channels", "1", "--epochs", "1", "--batch-size", "4"],
}


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
    ["train", *TINY_TRAIN, "--arm", "lc-reps:16", "--reps", "2"],
    ["train", *TINY_TRAIN, "--arm", "lc-ws", "--ws-every", "0"],
    ["compare", *TINY_TRAIN, "--arms", "conv", "--full", "1"],
], ids=["mode-discrete", "momentum", "sigma", "optimizer", "val-fraction",
        "reps", "ws-every", "full"])
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
    ("train", "cfg.reps=16"),
    ("train", "cfg.ws_every=1"),
    ("compare", "cfg.full=False"),
], ids=["momentum", "sigma", "mode-discrete", "optimizer", "val_fraction",
        "reps", "ws_every", "full"])
def test_replay_refuses_deleted_keys(tmp_path, sub, line):
    # a manifest written while the setting existed records it
    out = tmp_path / "o"
    size = {"sleep-rate": [*SMALL_SLEEP, "--iters", "2"], "train": TINY_TRAIN,
            "compare": [*TINY_TRAIN, "--arms", "conv", "--seeds", "1"]}[sub]
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


def _assert_jobs_byte_identical(tmp_path, argv, jobs=4):
    # every output but the manifest (which records jobs and the duration)
    a, b = tmp_path / "j1", tmp_path / f"j{jobs}"
    assert run(*argv, "--jobs", "1", "--out", str(a)) == 0
    assert run(*argv, "--jobs", str(jobs), "--out", str(b)) == 0
    names = sorted(p.name for p in a.iterdir() if p.name != "manifest.txt")
    assert names == sorted(p.name for p in b.iterdir() if p.name != "manifest.txt")
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_parallel_cells_byte_identical(tmp_path):
    _assert_jobs_byte_identical(tmp_path, ["sleep-ideal", "--k", "3,6", "--gamma", "1e-2",
                                           "--seeds", "2", "--iters", "20"])


@pytest.mark.parametrize("argv", [
    # the benchmark's shape: two workers split the k = 9 stack
    ["sleep-ideal", "--k", "3,9", "--seeds", "2", "--iters", "20"],
    # two workers split one of the three sigma stacks
    ["noise-floor", "--sigma", "0.1,0.2,0.4", "--seeds", "2", "--iters", "5",
     "--slope-iters", "20"],
], ids=lambda argv: argv[0])
def test_split_stacks_byte_identical(tmp_path, argv):
    _assert_jobs_byte_identical(tmp_path, argv, jobs=2)


def _shares(stacks, per_step, per_cell, workers):
    return cli._balance([len(cells) for cells in stacks],
                        lambda i, c: per_step + c * per_cell(stacks[i]), workers)


def test_balance_splits_the_longest_stack():
    # sleep-ideal --k 3,9 --seeds 2 at two jobs: the k = 9 stack alone
    # outlasts the k = 3 one, so one of its cells joins the k = 3 stack's
    # worker, as one stack of its own
    stacks = [[(3, g, s) for g in (1e-2, 1e-3) for s in range(2)],
              [(9, g, s) for g in (1e-2, 1e-3) for s in range(2)]]

    def weights(cells):
        return 100 * cells[0][0] ** 2 * cli._SLEEP_WEIGHT_S
    assert _shares(stacks, cli._SLEEP_STEP_S, weights, 2) == [[0, 3], [4, 1]]
    # noise-floor's three sigma stacks of two seeds: one is split
    stacks = [[(sig, s) for s in range(2)] for sig in (0.1, 0.2, 0.4)]
    assert _shares(stacks, cli._PLATEAU_STEP_S, lambda c: 3240 * cli._PLATEAU_INPUT_S,
                   2) == [[1, 0, 2], [1, 2, 0]]


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=5), workers=st.integers(1, 4),
       per_step=st.floats(0.0, 10.0), per_cell=st.floats(0.1, 10.0))
def test_balance_shares_every_cell_once_and_never_lengthens(sizes, workers, per_step,
                                                           per_cell):
    def cost(i, c):
        return per_step + c * per_cell * (i + 1)
    shares = cli._balance(sizes, cost, workers)
    assert len(shares) == workers
    assert [sum(col) for col in zip(*shares)] == sizes
    makespan = max(sum(cost(i, c) for i, c in enumerate(share) if c) for share in shares)
    # never longer than the whole stacks placed longest first
    whole = [0.0] * workers
    for i in sorted(range(len(sizes)), key=lambda i: -cost(i, sizes[i])):
        whole[whole.index(min(whole))] += cost(i, sizes[i])
    assert makespan <= max(whole) + 1e-12


def reference_csv_text(header, rows):
    """The formatter's former form: each value through `_csv_cell`."""
    return "\n".join([header] + [",".join(cli._csv_cell(v) for v in row) for row in rows]) + "\n"


MIXED_VALUES = [0, -1, 7, 10**13, -10**20, True, 0.0, -0.0, 0.1, -2.5, 1e-300, 5e-324, 1e300,
                -1.7976931348623157e308, 123456789.123456789, 1e12, 1e-5, math.inf, -math.inf,
                math.nan, np.float64(0.3), np.float64(-0.0), np.int64(42), np.float32(0.1),
                "", "lc-ws:1", "train", "1e5", None]


@settings(max_examples=200, deadline=None)
@given(rows=st.one_of(
    # every row of one length and column types: the one-format path
    st.integers(1, 4).flatmap(lambda width: st.lists(
        st.tuples(*[st.sampled_from(MIXED_VALUES) for _ in range(width)]), max_size=6)),
    # ragged rows and columns of mixed types: the value-by-value path
    st.lists(st.lists(st.sampled_from(MIXED_VALUES), max_size=4), max_size=6),
    st.lists(st.tuples(st.integers(-10**15, 10**15),
                       st.floats(allow_nan=True, allow_infinity=True)), max_size=8)))
def test_csv_text_matches_the_value_by_value_formatter(rows):
    assert cli._csv_text("a,b", rows) == reference_csv_text("a,b", rows)
    assert cli._csv_text("a,b", iter(rows)) == reference_csv_text("a,b", rows)


def test_csv_text_on_a_trajectory():
    traj = np.random.default_rng(0).normal(size=2000) * np.logspace(-300, 300, 2000)
    rows = [(i, v, -1) for i, v in enumerate(traj.tolist())] + [(2000, -0.0, -1)]
    assert cli._csv_text("iteration,neg_log_snr,grid", rows) == \
        reference_csv_text("iteration,neg_log_snr,grid", rows)


def test_serial_run_keeps_one_stack_per_k(tmp_path, monkeypatch):
    stacks_run = []
    real = cli._sleep_cells

    def spy(cfg, cells, rate):
        stacks_run.append([cell[0] for cell in cells])
        return real(cfg, cells, rate)
    monkeypatch.setattr(cli, "_sleep_cells", spy)
    assert run("sleep-ideal", "--k", "3,9", "--seeds", "2", "--iters", "3", "--jobs", "1",
               "--out", str(tmp_path / "o")) == 0
    assert stacks_run == [[3] * 4, [9] * 4]


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


def test_pooled_divergence_exit_code_writes_manifest(tmp_path, capfd):
    # the same divergence with two k units in the worker processes: the
    # failing unit's error crosses back and names the same cell; worker
    # stderr goes to the file descriptor, hence capfd
    argv = ["sleep-ideal", "--schedule", "constant", "--eta-a", "1e-3", "--k", "3,6",
            "--gamma", "1e-2,1e4", "--seeds", "2", "--iters", "1000"]
    err = {}
    for jobs in (1, 2):
        out = tmp_path / f"j{jobs}"
        assert run(*argv, "--jobs", str(jobs), "--out", str(out)) == cli.EXIT_DIVERGENCE
        assert (out / "manifest.txt").exists()
        err[jobs] = capfd.readouterr().err.splitlines()
    assert len(err[1]) == 1 and err[1][0].startswith("numerical failure: ")
    assert "k=3, gamma=10000, seed=1" in err[1][0]
    assert err[2] == err[1]
    assert multiprocessing.active_children() == []


def test_pooled_runs_leave_no_worker_running(tmp_path):
    # a process may make several pooled calls in a row; each gets its own
    # pool and leaves no worker behind
    argv = ["sleep-ideal", "--k", "3,6", "--gamma", "1e-2", "--seeds", "2", "--iters", "20",
            "--jobs", "2"]
    for i in range(2):
        assert run(*argv, "--out", str(tmp_path / f"r{i}")) == 0
        assert multiprocessing.active_children() == []
    for name in ("summary.csv", "traj_k6_g0.01_s1.csv"):
        assert (tmp_path / "r0" / name).read_bytes() == (tmp_path / "r1" / name).read_bytes()


@pytest.mark.parametrize("err", [
    SingularMatrixError(3, "detail"),
    DivergenceError("non-finite weights", "iteration 7", cell=2),
    ToleranceError("breach", 0.5),
], ids=lambda e: type(e).__name__)
def test_errors_survive_pickling(err):
    # a pooled unit's error reaches the main process pickled
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err)
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)


@pytest.mark.parametrize("below", ["", "run"])
def test_out_under_a_file_exits_2_before_work(tmp_path, capsys, below):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    assert run("noise-floor", "--out", str(taken / below)) == cli.EXIT_USAGE
    assert taken.read_text() == "keep\n"
    assert capsys.readouterr().out == ""  # no cell ran


def test_unknown_flag_is_usage_error(tmp_path):
    assert run("sleep-ideal", "--granularity", "9") == cli.EXIT_USAGE


def test_missing_subcommand_is_usage_error():
    assert run() == cli.EXIT_USAGE


@pytest.mark.parametrize("subcommand", sorted(cli.SPECS))
def test_subcommand_help_lists_its_flags(subcommand, capsys):
    # the parser adds flags only to the subcommand named on the command line
    assert run(subcommand, "--help") == cli.EXIT_OK
    text = capsys.readouterr().out
    flags = [f"--{key.replace('_', '-')} " for key in cli.SPECS[subcommand]]
    assert [f for f in flags + ["--out ", "--config ", "--replay "] if f not in text] == []


def test_top_level_help_exits_0(capsys):
    assert run("--help") == cli.EXIT_OK
    text = capsys.readouterr().out
    assert all(name in text for name in cli.SPECS)


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


def test_rejects_negative_seed_from_config_and_replay(tmp_path):
    # numpy's SeedSequence takes no negative entropy
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("seed=-1\n")
    out = tmp_path / "o"
    assert run("train", "--config", str(cfgfile), "--out", str(out)) == cli.EXIT_USAGE
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("subcommand=fixed-point\nseed=-1\n")
    assert run("fixed-point", "--replay", str(manifest), "--out", str(out)) == cli.EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("sub", ["sleep-ideal", "sleep-rate"])
def test_alpha_inf_is_accepted(tmp_path, sub):
    out = tmp_path / "o"
    assert run(sub, *SMALL_SLEEP, "--alpha", "inf", "--out", str(out)) == 0
    assert read_manifest(out / "manifest.txt")["cfg.alpha"] == "inf"


NUMERICAL_FAILURES = {
    "noise-floor --w-init-std 1e-300": "[iterations 2 to 3] [sigma=0, seed=0]",
    "noise-floor --input-std 1e300": "input covariance",
    "noise-floor --gamma 1e300": "non-finite weights",
    "noise-floor --b 1e-300": "plateau mean inf",
    "fixed-point --gamma 1e-300": "[instance 0, gamma=1e-300, alpha=10]",
    "noise-floor --slope-a 1e300": "non-finite weights in noise-floor run [cell 0, iteration 1]",
    # the squares of the snr overflow: inf/inf, or inf over a finite variance
    "sleep-ideal --init-std 1e300": "snr overflows on finite weights in sleep run "
                                    "[cell 0, initial weights] [k=2, gamma=0.01, seed=0]",
    "sleep-rate --init-std 1e300": "snr overflows on finite weights in rate sleep run",
    "sleep-ideal --init-mean 1e300 --init-std 1e290": "snr overflows on finite weights",
    "sleep-rate --init-mean 1e300 --init-std 1e290": "snr overflows on finite weights",
}


@pytest.mark.parametrize("argv", NUMERICAL_FAILURES)
def test_numerical_failures_exit_3_with_the_manifest(tmp_path, capfd, argv):
    # each overflows or underflows: no traceback and no RuntimeWarning
    # (the suite makes one an error), one line that says where
    sub, *flags = argv.split()
    out = tmp_path / "o"
    assert run(sub, *TINY[sub], *flags, "--out", str(out)) == cli.EXIT_DIVERGENCE
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")
    assert NUMERICAL_FAILURES[argv] in err[0]
    assert (out / "manifest.txt").exists()


@pytest.mark.parametrize("sub", ["sleep-ideal", "sleep-rate"])
def test_equal_rows_keep_the_converged_sentinel(tmp_path, sub):
    # 1e300 + N(0, 1) rounds to 1e300: every row is exactly equal, so the
    # converged sentinel is the true -log snr, however large the weights
    out = tmp_path / "o"
    assert run(sub, *TINY[sub], "--init-mean", "1e300", "--out", str(out)) == 0
    rows = read_rows(out / "traj_k2_g0.01_s0.csv")
    assert [float(r["neg_log_snr"]) for r in rows] == [ss.NEG_LOG_SNR_CONVERGED] * 3


def test_snr_overflow_names_the_iteration():
    # finite weights whose squares overflow partway through a run: the run
    # fails, naming the first such iteration, and writes no nan row
    gen = np.random.default_rng(0)
    bundle = ss.WeightBundle.from_rng(gen, 4, 3, mean=1e150, std=1e149)
    config = ss.SleepConfig(gamma=1e-2, schedule=ss.Schedule("constant", 1.0), iterations=5,
                            input_mean=30.0, input_std=0.0)
    with pytest.raises(DivergenceError, match=r"snr overflows on finite weights in sleep run "
                                              r"\[cell 0, iteration \d\]"):
        ss.sleep_run([bundle], [config], [gen])


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
    ["fixed-point", "--gamma", ","],
    ["sleep-ideal", "--k", ","],
    ["compare", "--arms", ","],
    ["sleep-ideal", "--eta-b", "0"],
    ["sleep-ideal", "--eta-b", "-2.5"],
    ["sleep-ideal", "--schedule", "inverse_sqrt", "--eta-b", "-2"],
    ["sleep-rate", "--iters", "60", "--eta-b", "-2"],
    ["noise-floor", "--b", "0"],
    ["noise-floor", "--slope-b", "0"],
    ["sleep-ideal", "--eta-a", "-0.5"],
    ["sleep-ideal", "--eta-a", "0"],
    ["sleep-rate", "--eta-a=-3e-4"],
    ["noise-floor", "--a", "-16"],
    ["noise-floor", "--slope-a", "0"],
    ["fixed-point", "--tol", "-1"],
    ["fixed-point", "--tol", "0"],
    ["noise-floor", "--gamma", "-1"],
    ["noise-floor", "--gamma", "0"],
    ["sleep-ideal", "--momentum", "1.5"],
    ["sleep-ideal", "--momentum", "1"],
    ["sleep-ideal", "--momentum", "-0.1"],
    ["sleep-ideal", "--seed", "-1"],
    ["compare", "--seed", "-1"],
    ["sleep-ideal", "--gamma", "1e-2,1e300"],
    ["sleep-rate", "--gamma", "1e300"],
    ["noise-floor", "--sigma", "0.1,1e300"],
    ["noise-floor", "--w-init-std", "0"],
    ["sleep-rate", "--present-ms", "1e-300"],
    ["sleep-rate", "--tau-ms", "-30"],
], ids=lambda argv: " ".join(argv))
def test_rejects_sweep_sizes_below_bound(tmp_path, argv):
    out = tmp_path / "o"
    assert run(*argv, "--out", str(out)) == cli.EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("sub,key,value", [
    ("sleep-ideal", "eta_a", "-0.5"),
    ("sleep-rate", "eta_a", "-0.5"),
    ("noise-floor", "a", "-16"),
    ("noise-floor", "slope_a", "-0.034"),
    ("noise-floor", "gamma", "-1"),
    ("fixed-point", "tol", "-1"),
    ("sleep-ideal", "momentum", "1.5"),
])
def test_replay_refuses_values_outside_the_domain(tmp_path, sub, key, value):
    # a manifest may hold a value that an older parser let through
    out = tmp_path / "o"
    size = {"sleep-ideal": SMALL_SLEEP, "sleep-rate": [*SMALL_SLEEP, "--iters", "2"],
            "noise-floor": ["--seeds", "1", "--slope-iters", "20", "--iters", "5"],
            "fixed-point": ["--instances", "1", "--n-max", "3", "--d-max", "3"]}[sub]
    assert run(sub, *size, "--out", str(out)) == 0
    text = (out / "manifest.txt").read_text()
    old = tmp_path / "old_manifest.txt"
    old.write_text(re.sub(rf"^cfg\.{key}=.*$", f"cfg.{key}={value}", text, flags=re.M))
    assert f"cfg.{key}={value}\n" in old.read_text()
    redo = tmp_path / "r"
    assert run(sub, "--replay", str(old), "--out", str(redo)) == cli.EXIT_USAGE
    assert not redo.exists()


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
    "compare-duplicate-arm", "lr-0", "lr-negative", "weight-decay-negative",
    "compare-lr-negative", "compare-arm-spelled-twice", "compare-reps-spelled-twice",
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
        "compare-duplicate-arm": ["--arms", "conv,lc,conv", "--epochs", "1"],
        "lr-0": ["--lr", "0"],
        "lr-negative": ["--lr", "-1"],
        "weight-decay-negative": ["--weight-decay", "-5"],
        "compare-lr-negative": ["--arms", "lc", "--lr", "-1"],
        "compare-arm-spelled-twice": ["--arms", "lc-ws,lc-ws:1", "--epochs", "1"],
        "compare-reps-spelled-twice": ["--arms", "conv,lc-reps:16,lc-reps", "--epochs", "1"],
    }[case]
    sub = "compare" if case.startswith("compare") else "train"
    out = tmp_path / "o"
    assert run(sub, *argv, "--out", str(out)) == cli.EXIT_USAGE
    assert not out.exists()


def test_arm_kwargs_are_run_experiment_keywords():
    cfg = cli.resolve_config("train", {}, None, None)
    params = inspect.signature(trainer.run_experiment).parameters.values()
    assert set(cli._arm_kwargs(cfg, "lc", cfg["image"])) == {
        p.name for p in params if p.kind is p.KEYWORD_ONLY}


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


def test_cold_start_loads_no_pool():
    # a serial run never uses the process pool, so nothing of it loads up
    # front: concurrent.futures.process alone takes about 24 ms
    out = _python("import sys\nimport sleepshare.cli\n"
                  "print([m for m in ('concurrent.futures.thread', 'concurrent.futures.process',"
                  " 'multiprocessing') if m in sys.modules])")
    assert out.strip() == "[]"


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


# Every key of every subcommand, at tiny sizes, with each probe value in
# place of its own: an accepted value runs to a result (0) or a reported
# failure (3, 4) that keeps the manifest, a refused one exits 2 and
# leaves no run directory, and none raises or warns (the suite makes a
# RuntimeWarning an error). The largest integer probe is 2, so --jobs
# starts at most 2 workers.
WALK_PROBES = ["-1", "-0.5", "0", "0.5", "1", "2", "1e-300", "1e300", "3,3"]


@pytest.mark.parametrize("sub,key", [(sub, key) for sub, spec in cli.SPECS.items()
                                     for key in spec])
def test_walk_specs(tmp_path, capfd, sub, key):
    failures = []
    for i, probe in enumerate(WALK_PROBES):
        out = tmp_path / f"p{i}"
        argv = [sub, *TINY[sub], f"--{key.replace('_', '-')}", probe, "--out", str(out)]
        try:
            code = run(*argv)
        except Exception as e:
            failures.append((probe, f"{type(e).__name__}: {e}"))
            continue
        kept = (out / "manifest.txt").exists()
        if code not in (0, 2, 3, 4) or out.exists() != (code != 2) or kept != (code != 2):
            failures.append((probe, code, out.exists(), kept))
    capfd.readouterr()
    assert failures == []


@pytest.mark.parametrize("sub", sorted(cli.SPECS))
def test_defaults_round_trip(sub):
    # a manifest records each value as _fmt_value writes it; replay must
    # read the same value back
    for key, (parse, default) in cli.SPECS[sub].items():
        assert parse(cli._fmt_value(default)) == default, key
