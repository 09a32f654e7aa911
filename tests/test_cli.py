import csv
import hashlib
import math
import warnings

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


def test_discrete_rate_run_equals_ideal_run(tmp_path):
    ideal, rate = tmp_path / "ideal", tmp_path / "rate"
    common = [*SMALL_SLEEP, "--iters", "50"]
    assert run("sleep-ideal", *common, "--out", str(ideal)) == 0
    assert run("sleep-rate", "--mode", "discrete", "--alpha", "inf",
               "--schedule", "inverse_time", "--eta-a", "0.5", "--eta-b", "1000",
               "--warmup", "0", "--momentum", "0.95", *common,
               "--out", str(rate)) == 0
    for name in ("traj_k3_g0.01_s0.csv", "summary.csv"):
        assert (ideal / name).read_bytes() == (rate / name).read_bytes()


def test_ode_terminal_plasticity_tracks_discrete(tmp_path):
    # one update per settled presentation equals the discrete rule up to
    # the exp(-present/tau) settling error
    common = ["--k", "3", "--gamma", "1e-2", "--seeds", "1", "--iters", "300",
              "--schedule", "inverse_time", "--eta-a", "0.5", "--eta-b", "1000",
              "--warmup", "0", "--momentum", "0", "--alpha", "10"]
    d, o = tmp_path / "disc", tmp_path / "ode"
    assert run("sleep-rate", "--mode", "discrete", *common, "--out", str(d)) == 0
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


@pytest.mark.parametrize("alpha", ["-1", "0", "nan"])
@pytest.mark.parametrize("mode", ["ode", "discrete"])
def test_rate_rejects_nonpositive_alpha(tmp_path, mode, alpha):
    out = tmp_path / "o"
    assert run("sleep-rate", "--mode", mode, "--alpha", alpha, *SMALL_SLEEP,
               "--out", str(out)) == cli.EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("sub", ["sleep-ideal", "sleep-rate"])
def test_sweep_rejects_nonpositive_gamma(tmp_path, sub):
    # the summary's floor column is undefined at gamma <= 0
    out = tmp_path / "o"
    assert run(sub, *SMALL_SLEEP, "--gamma", "1e-2,0", "--out", str(out)) == cli.EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("sub,flag", [("sleep-ideal", "--schedule"),
                                      ("train", "--optimizer"),
                                      ("train", "--share-mode")])
def test_rejects_unknown_choice(tmp_path, sub, flag):
    out = tmp_path / "o"
    assert run(sub, flag, "foo", "--out", str(out)) == cli.EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--momentum", "--sigma"])
def test_ode_rejects_discrete_only_flags(tmp_path, flag):
    out = tmp_path / "o"
    assert run("sleep-rate", "--mode", "ode", flag, "0.5", *SMALL_SLEEP,
               "--out", str(out)) == cli.EXIT_USAGE
    assert not out.exists()


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


def test_parallel_cells_byte_identical(tmp_path):
    a, b = tmp_path / "j1", tmp_path / "j4"
    args = ["--k", "3,6", "--gamma", "1e-2", "--seeds", "2", "--iters", "20"]
    assert run("sleep-ideal", *args, "--jobs", "1", "--out", str(a)) == 0
    assert run("sleep-ideal", *args, "--jobs", "4", "--out", str(b)) == 0
    names = sorted(p.name for p in a.glob("*.csv"))
    assert names == sorted(p.name for p in b.glob("*.csv"))
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


TINY_TRAIN = ["--train-size", "32", "--test-size", "16", "--image", "8",
              "--channels", "2", "--epochs", "2", "--batch-size", "16"]


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
