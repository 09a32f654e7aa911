"""Command-line entry point: every experiment is a subcommand that emits
CSV files plus a manifest sufficient to reproduce the run.

Config precedence: built-in defaults < config file (flat key=value
lines) < command-line flags. The fully resolved config is echoed into
the manifest; --replay points at a previous manifest and reruns it.

Exit codes: 0 success, 2 usage error, 3 numerical divergence or
singularity, 4 tolerance breach.

--jobs N runs work on up to N forked workers. `sleep-rate` and
`compare` cells are units of their own. `sleep-ideal` runs the cells of
one k, and `noise-floor` the plateau cells of one sigma, as one stack:
with one job each stack runs whole, and with more `_balance` splits the
stacks among the workers by their estimated cost, longest first, and
each worker runs its cells of a stack as one stack. A cell's result
does not depend on its stack or its worker, and files are written in
cell order, so the output is byte for byte that of one job.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import ratecircuit, sharing, trainer
from .errors import DivergenceError, SingularMatrixError, ToleranceError
from .mathcore import RngStream
from .sharing import Schedule, SleepConfig, WeightBundle

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3
EXIT_TOLERANCE = 4


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# config plumbing


def _finite(s) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {s!r}")
    return v


def _nonneg(s) -> float:
    """A finite value >= 0: a noise level or a standard deviation."""
    v = _finite(s)
    if v < 0:
        raise ValueError(f"must be >= 0, got {s!r}")
    return v


def _positive(s) -> float:
    """A finite value > 0: a schedule's a or b, a learning rate, a
    tolerance or a decay strength."""
    v = _finite(s)
    if not v > 0:
        raise ValueError(f"must be > 0, got {s!r}")
    return v


def _momentum(s) -> float:
    """A finite value in [0, 1): a heavy-ball velocity that decays."""
    v = _finite(s)
    if not 0 <= v < 1:
        raise ValueError(f"must be in [0, 1), got {s!r}")
    return v


def _positive_or_inf(s) -> float:
    """A value > 0, +inf included (alpha: the idealized limit)."""
    v = float(s)
    if not v > 0:
        raise ValueError(f"must be > 0 or inf, got {s!r}")
    return v


def _int_min(lo: int, step: int = 1):
    """An integer >= lo; with step 2, one of lo's parity (odd kernels,
    even images)."""
    what = "an integer" if step == 1 else f"an {'odd' if lo % 2 else 'even'} integer"

    def parse(s):
        v = int(s)
        if v < lo or (v - lo) % step:
            raise ValueError(f"must be {what} >= {lo}, got {s!r}")
        return v
    return parse


def _list_of(item):
    """A comma-separated list of at least one item; empty entries are
    skipped."""
    def parse(s):
        values = [item(v) for v in str(s).split(",") if v != ""]
        if not values:
            raise ValueError(f"must list at least one value, got {s!r}")
        return values
    return parse


def _arm(s) -> str:
    """An arm spec `trainer.parse_arm` reads, kept as written: manifests
    and file names carry its bytes."""
    trainer.parse_arm(s)
    return s


def _arm_list(s) -> List[str]:
    """Arm specs that name each arm once: a second spelling of an arm
    would train it twice and weigh it twice in the means."""
    arms = _list_of(_arm)(s)
    if len({trainer.parse_arm(a) for a in arms}) < len(arms):
        raise ValueError(f"names an arm more than once, got {s!r}")
    return arms


def _keyed(parse):
    """parse, for a value that keys its cells' RNG streams: its
    `_gamma_key` must be finite."""
    def keyed(s):
        v = parse(s)
        if not math.isfinite(v * 1e9):
            raise ValueError(f"must be at most {sys.float_info.max / 1e9:.6g}, got {s!r}")
        return v
    return keyed


def _choice(*options):
    def parse(s):
        if str(s) not in options:
            raise ValueError(f"{s!r} is not one of {', '.join(options)}")
        return str(s)
    return parse


COMMON_SPEC = {
    # numpy's SeedSequence takes no negative entropy
    "seed": (_int_min(0), 0),
    "jobs": (_int_min(1), 1),
}

SLEEP_IDEAL_SPEC = {
    **COMMON_SPEC,
    "n": (_int_min(2), 100),
    "k": (_list_of(_int_min(1)), [3, 6, 9]),
    "gamma": (_list_of(_keyed(_positive)), [1e-2, 1e-3]),
    "iters": (_int_min(0), 2000),
    "seeds": (_int_min(1), 10),
    "schedule": (_choice(*Schedule.KINDS), "inverse_time"),
    "eta_a": (_positive, 0.5),
    "eta_b": (_positive, 1000.0),
    "warmup": (_int_min(0), 0),
    "momentum": (_momentum, 0.95),
    "input_mean": (_finite, 1.0),
    "input_std": (_nonneg, 1.0),
    "init_mean": (_finite, 1.0),
    "init_std": (_nonneg, 1.0),
    "sigma": (_nonneg, 0.0),
    "alpha": (_positive_or_inf, math.inf),
}

# the rate circuit has no heavy-ball state and one shared input, so
# sleep-ideal's momentum and sigma have no rate counterpart
SLEEP_RATE_SPEC = {
    **{k: v for k, v in SLEEP_IDEAL_SPEC.items() if k not in ("momentum", "sigma")},
    "alpha": (_positive_or_inf, 10.0),
    "tau_ms": (_positive, 30.0),
    "dt_ms": (_positive, 1.0),
    "present_ms": (_positive, 150.0),
    "iters": (_int_min(0), 10000),
    # one value: the key stays only while the benchmark's calls
    # (perfbench/workloads.py) pass --mode ode
    "mode": (_choice("ode"), "ode"),
    "plasticity": (_choice("continuous", "terminal"), "continuous"),
    # a negative gain would flip the anti-Hebbian rule to Hebbian
    "rate_const": (_nonneg, 2.0),
    "bias": (_finite, 1.0),
    "schedule": (_choice(*Schedule.KINDS), "inverse_sqrt"),
    "eta_a": (_positive, 3e-4),
    "eta_b": (_positive, 2.0),
    "warmup": (_int_min(0), 50),
}

FIXED_POINT_SPEC = {
    **COMMON_SPEC,
    "instances": (_int_min(1), 50),
    "n_max": (_int_min(2), 20),
    "d_max": (_int_min(2), 16),
    "m_factor": (_int_min(1), 2),
    "gamma": (_list_of(_finite), [1e-1, 1e-3]),
    "alpha": (_positive_or_inf, 10.0),
    "tol": (_positive, 1e-4),
}

NOISE_FLOOR_SPEC = {
    **COMMON_SPEC,
    "n": (_int_min(2), 20),
    "d": (_int_min(1), 9),
    "m": (_int_min(1), 18),
    "gamma": (_positive, 10.0),
    "sigma": (_list_of(_keyed(_nonneg)), [0.1, 0.2, 0.4]),
    "seeds": (_int_min(1), 10),
    "a": (_positive, 16.0),
    "b": (_positive, 200.0),
    "iters": (_int_min(1), 300),
    "slope_a": (_positive, 0.034),
    "slope_b": (_positive, 50.0),
    # the log-log fit needs two points: sharing.loglog_slope's window
    "slope_iters": (_int_min(3), 3000),
    "w_init_mean": (_finite, 0.0),
    # a zero spread starts every slope cell at its fixed point, where the
    # log-log fit would take log 0
    "w_init_std": (_positive, 1.0),
    "input_mean": (_finite, 1.0),
    "input_std": (_nonneg, 1.0),
}

TRAIN_SPEC = {
    **COMMON_SPEC,
    "arm": (_arm, "lc"),
    "train_size": (_int_min(1), 512),
    "test_size": (_int_min(1), 2048),
    # a 5x5 glyph fits, and one 2x2 pool runs between the layers
    "image": (_int_min(6, step=2), 16),
    "noise": (_nonneg, 0.15),
    "channels": (_int_min(1), 8),
    "kernel": (_int_min(1, step=2), 3),
    "epochs": (_int_min(1), 60),
    "batch_size": (_int_min(1), 64),
    "lr": (_positive, 3e-3),
    "weight_decay": (_nonneg, 1e-4),
    "pad": (_int_min(0), 4),
    "idx_images": (str, ""),
    "idx_labels": (str, ""),
}

COMPARE_SPEC = {
    **TRAIN_SPEC,
    "arms": (_arm_list, ["conv", "lc", "lc-reps:16", "lc-ws:1"]),
    "seeds": (_int_min(1), 3),
}
COMPARE_SPEC.pop("arm")

SPECS = {
    "sleep-ideal": SLEEP_IDEAL_SPEC,
    "sleep-rate": SLEEP_RATE_SPEC,
    "fixed-point": FIXED_POINT_SPEC,
    "noise-floor": NOISE_FLOOR_SPEC,
    "train": TRAIN_SPEC,
    "compare": COMPARE_SPEC,
}


def _parse_kv_file(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line (need key=value): {line!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _load_replay(path: str, subcommand: str) -> Dict[str, str]:
    raw = _parse_kv_file(path)
    if raw.get("subcommand", subcommand) != subcommand:
        raise UsageError(
            f"manifest is for {raw.get('subcommand')!r}, not {subcommand!r}")
    cfg = {k[4:]: v for k, v in raw.items() if k.startswith("cfg.")}
    if "seed" in raw:
        cfg["seed"] = raw["seed"]
    return cfg


def resolve_config(subcommand: str, cli_values: Dict[str, object],
                   config_file: Optional[str], replay: Optional[str]) -> Dict[str, object]:
    spec = SPECS[subcommand]
    if config_file and replay:
        raise UsageError("--config and --replay are mutually exclusive")
    resolved = {k: default for k, (_, default) in spec.items()}
    layered: Dict[str, str] = {}
    if config_file:
        layered = _parse_kv_file(config_file)
    elif replay:
        layered = _load_replay(replay, subcommand)
    for key, val in layered.items():
        if key not in spec:
            raise UsageError(f"unknown config key {key!r} for {subcommand}")
        try:
            resolved[key] = spec[key][0](val)
        except ValueError as e:
            raise UsageError(f"bad value for {key}: {e}")
    for key, val in cli_values.items():
        if val is not None:
            try:
                resolved[key] = spec[key][0](val)
            except ValueError as e:
                raise UsageError(f"bad value for --{key.replace('_', '-')}: {e}")
    return resolved


def _fmt_value(v) -> str:
    if isinstance(v, list):
        return ",".join(str(x) for x in v)
    return str(v)


class RunDir:
    """Owns a run's output directory, tracks artifacts, writes the manifest."""

    def __init__(self, path: Path):
        # created on the first write, so a rejected run leaves no directory
        self.path = Path(path)
        self.artifacts: List[str] = []
        self.t0 = time.time()

    def write_csv(self, name: str, header: str, rows) -> Path:
        return self.write_text(name, _csv_text(header, rows))

    def write_text(self, name: str, text: str) -> Path:
        self.path.mkdir(parents=True, exist_ok=True)
        p = self.path / name
        p.write_text(text)
        if name not in self.artifacts:
            self.artifacts.append(name)
        return p

    def finish(self, subcommand: str, cfg: Dict[str, object]) -> Path:
        lines = [f"subcommand={subcommand}", f"seed={cfg.get('seed', 0)}"]
        for key in sorted(cfg):
            if key == "seed":
                continue
            lines.append(f"cfg.{key}={_fmt_value(cfg[key])}")
        lines.append(f"duration_s={time.time() - self.t0:.3f}")
        for name in sorted(self.artifacts):
            digest = hashlib.sha256((self.path / name).read_bytes()).hexdigest()
            lines.append(f"sha256.{name}={digest}")
        self.path.mkdir(parents=True, exist_ok=True)
        p = self.path / "manifest.txt"
        p.write_text("\n".join(lines) + "\n")
        return p


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _csv_text(header: str, rows) -> str:
    """header and rows as CSV text, each value as `_csv_cell` writes it.
    Rows of one length whose columns each hold values of one type take
    one %-format for the whole file (%.12g and %s write what `_csv_cell`
    does); any other rows are written value by value."""
    rows = list(rows)
    types = [set(map(type, column)) for column in zip(*rows)]
    if len(set(map(len, rows))) == 1 and all(len(t) == 1 for t in types):
        fmt = ",".join("%.12g" if issubclass(t.pop(), float) else "%s" for t in types)
        lines = [fmt % tuple(row) for row in rows]
    else:
        lines = [",".join(_csv_cell(v) for v in row) for row in rows]
    return "\n".join([header, *lines, ""])


def _write_files(out: RunDir, files) -> None:
    for name, text in files:
        out.write_text(name, text)


# (fn, cells) of the pool being forked; its workers inherit it, so fn (a
# closure) is never pickled
_POOL_WORK = None


def _pool_unit(i: int):
    fn, cells = _POOL_WORK
    return fn(cells[i])


def _run_cells(cells, fn, jobs: int):
    """[fn(cell) for cell in cells], on up to `jobs` forked worker
    processes; each result comes back pickled. A pooled fn must not
    touch the RunDir: it returns its files, and the caller writes them
    in cell order."""
    workers = min(jobs, len(cells))
    if workers <= 1:
        return [fn(c) for c in cells]
    # imported here: a serial run never pays for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _POOL_WORK
    _POOL_WORK = (fn, cells)
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as ex:
            return list(ex.map(_pool_unit, range(len(cells))))
    finally:
        _POOL_WORK = None


def _balance(sizes: Sequence[int], cost, workers: int) -> List[List[int]]:
    """How many cells of each stack each worker runs, shares[w][i], for
    stacks of the given sizes, where cost(i, c) is the time of c cells
    of stack i run as one stack. Whole stacks go first, longest first,
    each to the least-loaded worker (LPT); then one cell at a time moves
    from the most-loaded worker to the least-loaded one, the move that
    leaves the longer of the two shortest, while that shortens it."""
    shares = [[0] * len(sizes) for _ in range(workers)]

    def load(share):
        return sum(cost(i, c) for i, c in enumerate(share) if c)

    for i in sorted(range(len(sizes)), key=lambda i: -cost(i, sizes[i])):
        min(shares, key=load)[i] = sizes[i]
    while True:
        hi, lo = max(shares, key=load), min(shares, key=load)
        longest, best = load(hi), None
        for i in range(len(sizes) if hi is not lo else 0):
            if hi[i]:
                hi[i] -= 1
                lo[i] += 1
                after = max(load(hi), load(lo))
                hi[i] += 1
                lo[i] -= 1
                if after < longest:
                    longest, best = after, i
        if best is None:
            return shares
        hi[best] -= 1
        lo[best] += 1


def _run_stacks(stacks, cost, fn, jobs: int):
    """The results of every cell of the stacks (lists of cells), in
    order, where fn(cells) runs cells of one stack as one stack and
    returns one result per cell. With one job each stack runs whole.
    With more, `_balance` splits the stacks among the workers, and each
    worker runs its cells of a stack as one stack: a cell's result does
    not depend on its stack, so the results are those of one job. A
    failure raises the error of the first sub-stack in cell order that
    failed."""
    workers = min(jobs, sum(map(len, stacks)))
    if workers <= 1:
        return [r for cells in stacks for r in fn(cells)]
    shares = _balance([len(cells) for cells in stacks], cost, workers)
    taken = [0] * len(stacks)
    plans = []
    for share in shares:
        plan = []
        for i, c in enumerate(share):
            if c:
                plan.append(stacks[i][taken[i]:taken[i] + c])
                taken[i] += c
        if plan:
            plans.append(plan)

    def run_plan(plan):
        results = []
        for cells in plan:
            try:
                results.append(fn(cells))
            except (DivergenceError, SingularMatrixError) as e:
                results.append(e)
        return results

    order = [cell for cells in stacks for cell in cells]
    by_cell, failed = {}, {}
    for plan, results in zip(plans, _run_cells(plans, run_plan, workers)):
        for cells, res in zip(plan, results):
            if isinstance(res, Exception):
                failed[order.index(cells[0])] = res
            else:
                by_cell.update(zip(cells, res))
    if failed:
        raise failed[min(failed)]
    return [by_cell[cell] for cell in order]


def _schedule_from_cfg(cfg) -> Schedule:
    return Schedule(kind=cfg["schedule"], a=cfg["eta_a"], b=cfg["eta_b"],
                    warmup=cfg["warmup"])


def _gamma_key(gamma: float) -> int:
    return int(round(gamma * 1e9))


def _reject_collisions(cells, streams, names) -> None:
    """Refuses a sweep in which two cells would draw from one RNG stream
    or write one file: one would silently repeat or overwrite the other."""
    for what, values in (("RNG stream", streams), ("output file", names)):
        seen = {}
        for cell, value in zip(cells, values):
            if value in seen:
                raise UsageError(f"cells {seen[value]} and {cell} share the {what} {value}")
            seen[value] = cell


# ---------------------------------------------------------------------------
# sleep-ideal and sleep-rate


def _sleep_stream(k: int, gamma: float, seed_idx: int) -> Tuple[int, ...]:
    return (7, k, _gamma_key(gamma), seed_idx)


def _sleep_traj_name(k: int, gamma: float, seed_idx: int) -> str:
    return f"traj_k{k}_g{gamma:g}_s{seed_idx}.csv"


def _sleep_cells(cfg, cells, rate: bool):
    """Runs cells of one k and returns, per cell, its summary row and its
    trajectory files, as (name, text) pairs. Idealized cells run as one
    stack through the idealized runner; rate cells run through the
    circuit one at a time."""
    gens = [RngStream(cfg["seed"], _sleep_stream(*cell)).generator() for cell in cells]
    bundles = [WeightBundle.from_rng(gen, cfg["n"], k * k, mean=cfg["init_mean"],
                                     std=cfg["init_std"])
               for gen, (k, _, _) in zip(gens, cells)]
    # the rate circuit reads neither momentum nor sigma
    ideal = {} if rate else dict(momentum=cfg["momentum"], sigma=cfg["sigma"])
    configs = [SleepConfig(
        gamma=gamma, schedule=_schedule_from_cfg(cfg), iterations=cfg["iters"],
        input_mean=cfg["input_mean"], input_std=cfg["input_std"], alpha=cfg["alpha"],
        **ideal,
    ) for (_, gamma, _) in cells]
    try:
        if rate:
            results = [ratecircuit.rate_sleep_run(
                bundle, _circuit(cfg), config, gen, plasticity=cfg["plasticity"],
                rate_const=cfg["rate_const"])
                for bundle, config, gen in zip(bundles, configs, gens)]
        else:
            results = sharing.sleep_run(bundles, configs, gens)
    except DivergenceError as e:
        k, gamma, seed_idx = cells[e.cell or 0]
        raise DivergenceError(str(e), f"k={k}, gamma={gamma:g}, seed={seed_idx}") from e
    out = []
    for (k, gamma, seed_idx), result in zip(cells, results):
        name = _sleep_traj_name(k, gamma, seed_idx)
        files = []
        if cfg["iters"] > 0:
            files.append((name, _csv_text(
                "iteration,neg_log_snr,grid",
                [(i, v, -1) for i, v in enumerate(result.trajectory.tolist())])))
            if rate:
                files.append((name.replace(".csv", ".meta"),
                              f"alpha={cfg['alpha']}\ntau_ms={cfg['tau_ms']}\n"
                              f"dt_ms={cfg['dt_ms']}\n"
                              f"frac_nonneg={_csv_cell(result.frac_nonneg)}\n"))
        out.append(((k, gamma, seed_idx, result.terminal), files))
    return out


def _circuit(cfg) -> ratecircuit.RateCircuit:
    return ratecircuit.RateCircuit(tau=cfg["tau_ms"], alpha=cfg["alpha"],
                                   b=cfg["bias"], dt=cfg["dt_ms"],
                                   present_ms=cfg["present_ms"])


# Seconds per iteration of a stacked run: a fixed part, and a part per
# weight of each cell (sleep-ideal: n k^2) or per noisy input value
# (noise-floor plateaus: n m d). Measured on a 2-core x86 machine (numpy
# 2.4.6, OpenBLAS 0.3.31); only their ratios steer `_balance`.
_SLEEP_STEP_S, _SLEEP_WEIGHT_S = 35e-6, 5e-9
_PLATEAU_STEP_S, _PLATEAU_INPUT_S = 50e-6, 19e-9


def _cmd_sleep(cfg: Dict[str, object], out: RunDir, rate: bool) -> int:
    cells = [(k, g, s) for k in cfg["k"] for g in cfg["gamma"]
             for s in range(cfg["seeds"])]
    _reject_collisions(cells, [_sleep_stream(*c) for c in cells],
                       [_sleep_traj_name(*c) for c in cells])

    def run(unit):
        return _sleep_cells(cfg, unit, rate)

    if rate:
        results = [r for unit in _run_cells([[cell] for cell in cells], run, cfg["jobs"])
                   for r in unit]
    else:
        # one stack per k: its cells share the weight shape (n, k*k)
        stacks = [[cell for cell in cells if cell[0] == k] for k in cfg["k"]]

        def cost(i, count):
            size = cfg["n"] * stacks[i][0][0] ** 2
            return cfg["iters"] * (_SLEEP_STEP_S + count * size * _SLEEP_WEIGHT_S)
        results = _run_stacks(stacks, cost, run, cfg["jobs"])
    summary = []
    for (k, g, s, term), files in results:
        _write_files(out, files)
        summary.append((k, g, s, term, sharing.neg_log_snr_floor(g)))
    out.write_csv("summary.csv",
                  "k,gamma,seed,terminal_neg_log_snr,neg_log_snr_floor", summary)
    return EXIT_OK


def cmd_sleep_ideal(cfg, out: RunDir) -> int:
    return _cmd_sleep(cfg, out, rate=False)


def cmd_sleep_rate(cfg, out: RunDir) -> int:
    # a circuit checks what spans its keys: dt <= tau/10, and present_ms a
    # multiple of dt
    try:
        _circuit(cfg)
    except ValueError as e:
        raise UsageError(str(e))
    return _cmd_sleep(cfg, out, rate=True)


# ---------------------------------------------------------------------------
# fixed-point


def cmd_fixed_point(cfg, out: RunDir) -> int:
    gammas = cfg["gamma"]
    alphas = (math.inf, cfg["alpha"])
    worst = [0.0, 0.0]  # plain, biased
    report: List[str] = []
    for i in range(cfg["instances"]):
        gen = RngStream(cfg["seed"], (13, i)).generator()
        n = int(gen.integers(2, cfg["n_max"] + 1))
        d = int(gen.integers(2, cfg["d_max"] + 1))
        m = cfg["m_factor"] * d
        gamma = gammas[i % len(gammas)]
        w0 = gen.normal(1.0, 1.0, size=(n, d))
        if gamma <= 0:
            # deliberately rank-deficient: fewer inputs than dimensions
            x_sing = gen.normal(1.0, 1.0, size=(max(1, d // 2), d))
            sharing.fixed_point(w0, x_sing, gamma)  # raises SingularMatrixError
            continue
        x = gen.normal(1.0, 1.0, size=(m, d))
        for j, alpha in enumerate(alphas):
            w_solve = sharing.fixed_point(w0, x, gamma, alpha=alpha)
            w_desc = sharing.full_batch_descent(w0, x, gamma, alpha=alpha)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                rel = float(np.linalg.norm(w_desc - w_solve) / np.linalg.norm(w_solve))
            if not math.isfinite(rel):
                # a fixed point whose norm underflows to 0 or overflows
                raise DivergenceError("relative error of the descent is not finite",
                                      f"instance {i}, gamma={gamma:g}, alpha={alpha:g}")
            worst[j] = max(worst[j], rel)
    worst_plain, worst_biased = worst
    report.append(f"instances={cfg['instances']}")
    report.append(f"max_rel_error_descent_vs_solve={worst_plain:.3e}")
    report.append(f"max_rel_error_biased_alpha{cfg['alpha']:g}={worst_biased:.3e}")
    report.append(f"tol={cfg['tol']:g}")
    text = "\n".join(report)
    print(text)
    out.write_text("report.txt", text + "\n")
    if worst_plain > 1e-6 or worst_biased > cfg["tol"]:
        raise ToleranceError(
            f"fixed-point mismatch above tolerance (plain {worst_plain:.3e}, "
            f"biased {worst_biased:.3e})", max(worst_plain, worst_biased))
    return EXIT_OK


# ---------------------------------------------------------------------------
# noise-floor


def _sigma_stream(sigma: float, seed_idx: int) -> Tuple[int, ...]:
    return (11, _gamma_key(sigma), seed_idx)


def _sigma_traj_name(sigma: float, seed_idx: int) -> str:
    return f"traj_sigma{sigma:g}_s{seed_idx}.csv"


def cmd_noise_floor(cfg, out: RunDir) -> int:
    slope_cells = list(range(cfg["seeds"]))
    plateau_cells = [(sig, s) for sig in cfg["sigma"] for s in range(cfg["seeds"])]
    # the slope cells run at sigma 0, so a plateau sigma of 0 collides too
    cells = [(0.0, s) for s in slope_cells] + plateau_cells
    _reject_collisions(cells, [_sigma_stream(*c) for c in cells],
                       [_sigma_traj_name(*c) for c in cells])

    def run(cells, a, b, iters):
        """The cells of one sigma as one stack: per cell, its result and
        its trajectory file."""
        sig = cells[0][0]
        try:
            results = sharing.noise_floor_run(
                cfg["n"], cfg["d"], cfg["m"], cfg["gamma"], sig, a, b, iters,
                [RngStream(cfg["seed"], _sigma_stream(*cell)) for cell in cells],
                w_init_mean=cfg["w_init_mean"], w_init_std=cfg["w_init_std"],
                input_mean=cfg["input_mean"], input_std=cfg["input_std"])
        except DivergenceError as e:
            _, s = cells[e.cell]
            raise DivergenceError(str(e), f"sigma={sig:g}, seed={s}") from e
        return [(res, (_sigma_traj_name(*cell), _csv_text(
            "iteration,dist_sq", enumerate(res.dist_sq.tolist()))))
            for cell, res in zip(cells, results)]

    slope_runs = run([(0.0, s) for s in slope_cells],
                     cfg["slope_a"], cfg["slope_b"], cfg["slope_iters"])
    _write_files(out, [file for _, file in slope_runs])
    slopes = []
    for s, (res, _) in enumerate(slope_runs):
        try:
            slopes.append(sharing.loglog_slope(res.dist_sq))
        except DivergenceError as e:
            raise DivergenceError(str(e), f"sigma=0, seed={s}") from e
    out.write_csv("slopes.csv", "seed,loglog_slope",
                  [(s, sl) for s, sl in enumerate(slopes)])

    # one stack per sigma, split among the workers by cost
    stacks = [[(sig, s) for s in range(cfg["seeds"])] for sig in cfg["sigma"]]

    def cost(i, count):
        size = cfg["n"] * cfg["m"] * cfg["d"]
        return cfg["iters"] * (_PLATEAU_STEP_S + count * size * _PLATEAU_INPUT_S)

    def run_plateaus(cells):
        return [(res.plateau, file)
                for res, file in run(cells, cfg["a"], cfg["b"], cfg["iters"])]

    results = _run_stacks(stacks, cost, run_plateaus, cfg["jobs"])
    _write_files(out, [file for _, file in results])
    plateaus = [[plat for plat, _ in results[i:i + cfg["seeds"]]]
                for i in range(0, len(results), cfg["seeds"])]
    summary = []
    report = [f"slope range over seeds: [{min(slopes):.3f}, {max(slopes):.3f}]"]
    prev = None
    for sig, plats in zip(cfg["sigma"], plateaus):
        mean_plat = float(np.mean(plats))
        if not 0 < mean_plat < math.inf:
            # the ratio to this plateau would divide by it
            raise DivergenceError(f"plateau mean {mean_plat:g} is not > 0 and finite",
                                  f"sigma={sig:g}")
        ratio = "" if prev is None else f"{mean_plat / prev:.6g}"
        summary.append((f"{sig:g}", f"{mean_plat:.12g}", ratio))
        if prev is not None:
            report.append(f"plateau ratio sigma {sig:g} vs previous: {mean_plat / prev:.3f}")
        prev = mean_plat
    out.write_csv("summary.csv", "sigma,plateau_mean,ratio_to_prev", summary)
    text = "\n".join(report)
    print(text)
    out.write_text("report.txt", text + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train and compare


def _history_files(prefix: str, history: trainer.TrainHistory) -> List[Tuple[str, str]]:
    return [
        (f"{prefix}metrics.csv", _csv_text("epoch,split,accuracy_top1,loss", history.metrics)),
        (f"{prefix}events.csv", _csv_text("event,layer,neg_log_snr_pre,neg_log_snr_post",
                                          history.events)),
    ]


def _idx_image_side(cfg) -> int:
    """The image side a training run will see: the IDX images' side,
    read and checked here so that a bad pair fails before any run, or
    the synthetic --image."""
    paths = (cfg["idx_images"], cfg["idx_labels"])
    if not any(paths):
        return cfg["image"]
    if not all(paths):
        raise UsageError("--idx-images and --idx-labels go together")
    try:
        images, _ = trainer.read_idx_pair(*paths)
    except (OSError, ValueError) as e:
        raise UsageError(str(e))
    n, h, w = images.shape
    if h != w or h % 2:
        raise UsageError(f"{paths[0]}: images must be square with an even side, got {h}x{w}")
    if cfg["train_size"] >= n:
        raise UsageError(f"{paths[0]} holds {n} images: --train-size {cfg['train_size']} "
                         "leaves none to test on")
    return h


def _arm_kwargs(cfg, arm_spec: str, image: int) -> Dict[str, object]:
    """`trainer.run_experiment`'s keywords for one arm spec, the spec
    checked against the batch and layer sizes before any run starts."""
    arm, param = trainer.parse_arm(arm_spec)
    if arm == "lc-reps" and cfg["batch_size"] % param:
        raise UsageError(f"{arm_spec}: reps ({param}) must divide the batch size "
                         f"({cfg['batch_size']})")
    if arm == "lc-ws" and cfg["kernel"] > image // 2:
        # every one of layer 2's k*k sharing grids needs a position
        raise UsageError(f"{arm_spec}: kernel ({cfg['kernel']}) must be <= half the "
                         f"image side ({image})")
    return dict(
        train_size=cfg["train_size"], test_size=cfg["test_size"],
        image=cfg["image"], noise=cfg["noise"], channels=cfg["channels"],
        kernel=cfg["kernel"], epochs=cfg["epochs"], batch_size=cfg["batch_size"],
        lr=cfg["lr"], weight_decay=cfg["weight_decay"],
        idx_images=cfg["idx_images"] or None, idx_labels=cfg["idx_labels"] or None,
        pad=cfg["pad"],
    )


def cmd_train(cfg, out: RunDir) -> int:
    kwargs = _arm_kwargs(cfg, cfg["arm"], _idx_image_side(cfg))
    history = trainer.run_experiment(cfg["arm"], cfg["seed"], **kwargs)
    _write_files(out, _history_files("", history))
    print(f"{cfg['arm']} seed {cfg['seed']}: final test accuracy "
          f"{history.final_test_accuracy:.3f}")
    return EXIT_OK


def cmd_compare(cfg, out: RunDir) -> int:
    arms = cfg["arms"]
    image = _idx_image_side(cfg)
    runs = {a: _arm_kwargs(cfg, a, image) for a in arms}
    cells = [(a, s) for a in arms for s in range(cfg["seeds"])]

    def run(cell):
        arm_spec, s = cell
        history = trainer.run_experiment(arm_spec, cfg["seed"] + s, **runs[arm_spec])
        tag = arm_spec.replace(":", "")
        return history.final_test_accuracy, _history_files(f"{tag}_s{s}_", history)

    acc_by_arm: Dict[str, List[float]] = {}
    rows = []
    for (arm_spec, s), (acc, files) in zip(cells, _run_cells(cells, run, cfg["jobs"])):
        _write_files(out, files)
        rows.append((arm_spec, s, acc))
        acc_by_arm.setdefault(arm_spec, []).append(acc)
    out.write_csv("summary.csv", "arm,seed,test_accuracy_top1", rows)
    means = {a: float(np.mean(v)) for a, v in acc_by_arm.items()}
    report = [f"mean {a}: {m:.4f}" for a, m in means.items()]
    checks = _ordering_checks(means)
    report += checks
    text = "\n".join(report)
    print(text)
    out.write_text("report.txt", text + "\n")
    return EXIT_OK


def _ordering_checks(means: Dict[str, float]) -> List[str]:
    out = []

    def check(label: str, ok: Optional[bool]):
        if ok is None:
            return
        out.append(f"ordering {label}: {'PASS' if ok else 'FAIL'}")

    conv = means.get("conv")
    lc = means.get("lc")
    if conv is not None and lc is not None:
        check(f"conv ({conv:.3f}) > lc ({lc:.3f})", conv > lc)
        ws = next((v for a, v in means.items() if a.startswith("lc-ws")), None)
        if ws is not None:
            mid = lc + 0.5 * (conv - lc)
            check(f"lc-ws ({ws:.3f}) >= midpoint ({mid:.3f})", ws >= mid)
    reps = next((v for a, v in means.items() if a.startswith("lc-reps")), None)
    if reps is not None and lc is not None:
        check(f"lc-reps ({reps:.3f}) > lc ({lc:.3f})", reps > lc)
    return out


# ---------------------------------------------------------------------------
# argument parsing


def _add_flags(p: argparse.ArgumentParser, spec) -> None:
    for key in spec:
        flag = "--" + key.replace("_", "-")
        p.add_argument(flag, default=None, metavar="V")
    p.add_argument("--out", default=None, metavar="DIR")
    p.add_argument("--config", default=None, metavar="FILE")
    p.add_argument("--replay", default=None, metavar="MANIFEST")


@functools.lru_cache(maxsize=None)
def build_parser(subcommand: Optional[str] = None) -> argparse.ArgumentParser:
    """The command-line parser for a command line that names subcommand,
    built once per process and subcommand (parsing leaves it unchanged).
    Only that subcommand's parser gets its flags: adding all six
    subcommands' flags costs milliseconds, and a run parses one."""
    p = argparse.ArgumentParser(
        prog="sleepshare",
        description="Weight-equalization experiments for locally connected layers.")
    sub = p.add_subparsers(dest="subcommand", required=True)
    helps = {
        "sleep-ideal": "idealized equalization sweeps over (k, gamma, seed)",
        "sleep-rate": "E/I rate-circuit equalization (the ODE)",
        "fixed-point": "closed-form vs simulated stationary weights",
        "noise-floor": "decay-rate and noise-plateau measurements",
        "train": "one desk-scale training arm",
        "compare": "the arm matrix with an ordering summary",
    }
    for name, spec in SPECS.items():
        parser = sub.add_parser(name, help=helps[name])
        if name == subcommand:
            _add_flags(parser, spec)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the subcommand, if any, is the first word: the top level has no flags but --help
    subcommand = argv[0] if argv and argv[0] in SPECS else None
    try:
        args = build_parser(subcommand).parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    sub = args.subcommand
    spec = SPECS[sub]
    cli_values = {k: getattr(args, k) for k in spec}
    try:
        cfg = resolve_config(sub, cli_values, args.config, args.replay)
    except (UsageError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    out = RunDir(Path(args.out) if args.out else Path("runs") / sub)
    # the nearest existing ancestor: the run would make the directory there
    there = next(p for p in (out.path, *out.path.parents) if p.exists())
    if not there.is_dir():
        print(f"error: cannot make the run directory {out.path}: {there} is a file",
              file=sys.stderr)
        return EXIT_USAGE
    handler = {
        "sleep-ideal": cmd_sleep_ideal,
        "sleep-rate": cmd_sleep_rate,
        "fixed-point": cmd_fixed_point,
        "noise-floor": cmd_noise_floor,
        "train": cmd_train,
        "compare": cmd_compare,
    }[sub]
    try:
        code = handler(cfg, out)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DivergenceError, SingularMatrixError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        out.finish(sub, cfg)
        return EXIT_DIVERGENCE
    except ToleranceError as e:
        print(f"tolerance breach: {e}", file=sys.stderr)
        out.finish(sub, cfg)
        return EXIT_TOLERANCE
    out.finish(sub, cfg)
    return code


if __name__ == "__main__":
    sys.exit(main())
