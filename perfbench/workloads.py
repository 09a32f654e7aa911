"""Workloads of the benchmark and the checks on their outputs.

Each workload is a fixed list of `sleepshare` subcommand calls. Sizes
keep every call's default protocol flags except its size flags, and are
chosen so that one round of calls takes a few seconds: long enough to
time, short enough that a run holds several rounds to take medians over.
The `tiny` sizes exist only for the benchmark's self-test.

A check reads the run directory back, taking the expected sizes from the
resolved configuration in `manifest.txt`, and returns a list of
problems (empty when the call's output is correct).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

# Tolerances of the acceptance criteria, applied where a call runs at the
# criterion's own protocol size (the sizes below keep them meaningful).
FLOOR_LIMIT_NAT = 1.0          # criterion 1: |terminal - floor| <= 1 nat
FLOOR_MIN_ITERS = 2000         # criterion 1's iteration count
SLOPE_BAND = (-1.3, -0.7)      # criterion 4: sigma-0 log-log slope
SLOPE_MIN_ITERS = 3000         # criterion 4's slope iteration count


@dataclass(frozen=True)
class Call:
    metric: str                 # per-call wall-time metric, in seconds
    argv: Tuple[str, ...]       # subcommand and size flags
    jobs: int


RATE_CELL = ("--n", "100", "--k", "3", "--gamma", "0.001", "--seeds", "1")


def calls(workload: str, tiny: bool = False) -> List[Call]:
    if workload == "rate-circuit":
        iters = "3" if tiny else "400"
        cell = RATE_CELL + ("--iters", iters)
        return [
            Call("sleep_rate_ode_s", ("sleep-rate", "--mode", "ode", *cell, "--alpha", "10",
                                      "--plasticity", "continuous"), 1),
            Call("sleep_rate_terminal_s", ("sleep-rate", "--mode", "ode", *cell, "--alpha", "10",
                                           "--plasticity", "terminal"), 1),
            Call("sleep_rate_inf_s", ("sleep-rate", "--mode", "ode", *cell, "--alpha", "inf",
                                      "--plasticity", "continuous"), 1),
        ]
    if workload == "sleep-sweeps":
        if tiny:
            ideal = ("--k", "3", "--seeds", "1", "--iters", "5")
            noise = ("--seeds", "1", "--slope-iters", "20", "--iters", "5")
            fixed = ("--instances", "2", "--n-max", "3", "--d-max", "3")
        else:
            ideal = ("--k", "3,9", "--seeds", "2")
            # noise-floor at --jobs 2 runs pool threads over 2-thread BLAS
            # calls and slows by up to 70% when the machine takes a vCPU
            # away; two seeds keep it a small share of the round.
            noise = ("--seeds", "2")
            # Descent iterations per instance depend on the instance's
            # conditioning, which the seed draws; the count is heavy-tailed
            # (gamma=1e-3 with alpha=10 takes 3k to 60k iterations), so any
            # instance past the first (gamma=1e-1, 2k to 5k iterations)
            # makes fixed-point's time vary with the seed by a factor of
            # several.
            fixed = ("--instances", "1")
        return [
            Call("sleep_ideal_s", ("sleep-ideal", *ideal), 2),
            Call("noise_floor_s", ("noise-floor", *noise), 2),
            Call("fixed_point_s", ("fixed-point", *fixed), 1),
        ]
    if workload == "train-arms":
        if tiny:
            short = long = ("--epochs", "1", "--train-size", "64", "--test-size", "64")
        else:
            short, long = ("--epochs", "2"), ("--epochs", "1")
        return [
            Call("train_conv_s", ("train", "--arm", "conv", *short), 1),
            Call("train_lc_s", ("train", "--arm", "lc", *short), 1),
            Call("train_lc_ws_s", ("train", "--arm", "lc-ws:1", *short), 1),
            Call("train_lc_reps_s", ("train", "--arm", "lc-reps:16", *long), 1),
        ]
    raise KeyError(workload)


WORKLOADS = ("rate-circuit", "sleep-sweeps", "train-arms")


# ---------------------------------------------------------------------------
# output checks


def read_manifest(out: Path) -> Dict[str, str]:
    fields = {}
    for line in (out / "manifest.txt").read_text().splitlines():
        key, _, val = line.partition("=")
        fields[key] = val
    return fields


def digests(manifest: Dict[str, str]) -> Dict[str, str]:
    return {k[len("sha256."):]: v for k, v in manifest.items() if k.startswith("sha256.")}


def _rows(path: Path) -> List[Dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _nonfinite(rows: List[Dict[str, str]]) -> int:
    bad = 0
    for row in rows:
        for value in row.values():
            try:
                bad += not math.isfinite(float(value))
            except (TypeError, ValueError):
                pass        # text columns (split names, layer names, blanks)
    return bad


def _ints(s: str) -> List[int]:
    return [int(v) for v in s.split(",") if v]


def _floats(s: str) -> List[float]:
    return [float(v) for v in s.split(",") if v]


def check(out: Path) -> Tuple[List[str], Dict[str, str]]:
    """Problems with one call's run directory, and its artifact digests."""
    if not (out / "manifest.txt").is_file():
        return ["no manifest.txt"], {}
    man = read_manifest(out)
    digest = digests(man)
    problems = []
    counts: Dict[str, int] = {}
    for name in digest:
        path = out / name
        if not path.is_file():
            problems.append(f"{name}: listed in manifest but missing")
        elif name.endswith(".csv"):
            rows = _rows(path)
            counts[name] = len(rows)
            if _nonfinite(rows):
                problems.append(f"{name}: {_nonfinite(rows)} non-finite values")

    def expect_rows(name: str, n: int) -> None:
        if name not in counts:
            problems.append(f"{name}: missing")
        elif counts[name] != n:
            problems.append(f"{name}: {counts[name]} rows, expected {n}")

    sub = man.get("subcommand")
    cfg = {k[4:]: v for k, v in man.items() if k.startswith("cfg.")}
    if sub in ("sleep-ideal", "sleep-rate"):
        ks, gammas, seeds, iters = (_ints(cfg["k"]), _floats(cfg["gamma"]),
                                    int(cfg["seeds"]), int(cfg["iters"]))
        expect_rows("summary.csv", len(ks) * len(gammas) * seeds)
        for k in ks:
            for g in gammas:
                for s in range(seeds):
                    traj = f"traj_k{k}_g{g:g}_s{s}.csv"
                    expect_rows(traj, iters)
                    if sub == "sleep-rate" and traj.replace(".csv", ".meta") not in digest:
                        problems.append(f"{traj}: no .meta sidecar")
        if sub == "sleep-ideal" and iters >= FLOOR_MIN_ITERS and "summary.csv" in counts:
            for row in _rows(out / "summary.csv"):
                dev = abs(float(row["terminal_neg_log_snr"]) - float(row["neg_log_snr_floor"]))
                if dev > FLOOR_LIMIT_NAT:
                    problems.append(f"floor distance {dev:.3f} nat > {FLOOR_LIMIT_NAT} "
                                    f"(k={row['k']}, gamma={row['gamma']}, seed={row['seed']})")
    elif sub == "noise-floor":
        seeds, sigmas = int(cfg["seeds"]), _floats(cfg["sigma"])
        expect_rows("slopes.csv", seeds)
        expect_rows("summary.csv", len(sigmas))
        for s in range(seeds):
            expect_rows(f"traj_sigma0_s{s}.csv", int(cfg["slope_iters"]))
            for sig in sigmas:
                expect_rows(f"traj_sigma{sig:g}_s{s}.csv", int(cfg["iters"]))
        if int(cfg["slope_iters"]) >= SLOPE_MIN_ITERS and "slopes.csv" in counts:
            lo, hi = SLOPE_BAND
            for row in _rows(out / "slopes.csv"):
                if not lo <= float(row["loglog_slope"]) <= hi:
                    problems.append(f"slope {row['loglog_slope']} outside [{lo}, {hi}] "
                                    f"(seed {row['seed']})")
    elif sub == "fixed-point":
        # the solver tolerances are the command's own: a breach exits 4
        report = (out / "report.txt").read_text() if "report.txt" in digest else ""
        if f"instances={cfg['instances']}" not in report:
            problems.append("report.txt: no instance count")
    elif sub == "train":
        epochs = int(cfg["epochs"])
        expect_rows("metrics.csv", 2 * epochs)      # one train and one test row per epoch
        arm, _, param = cfg["arm"].partition(":")
        events = 0
        if arm == "lc-ws":
            batches = epochs * -(-int(cfg["train_size"]) // int(cfg["batch_size"]))
            events = 2 * (batches // int(param or cfg["ws_every"]))   # two LC layers
        expect_rows("events.csv", events)
    else:
        problems.append(f"unexpected subcommand {sub!r}")
    return problems, digest
