"""sleepshare benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in rounds; each round is a fresh
child process (child.py) that imports sleepshare from the checkout's
`src/` and runs the workload's subcommand calls through `cli.main`.
This process starts no threads and runs one child at a time.

--trace 0  untraced rounds for S seconds (at least MIN_ROUNDS). Reports
           the end-to-end metrics as medians over rounds; set-up is also
           sampled by SETUP_SAMPLES import-only child after each round,
           and `setup_s` is the median of all set-up samples.
--trace 1  alternating untraced and traced rounds (at least one of
           each), then one single-threaded reference round, in S seconds
           (OPENBLAS_NUM_THREADS=1, --jobs 1). Reports per-layer metrics
           from the traced rounds and the tracing overhead.

Every round's outputs are checked (workloads.check), and the artifact
digests of every round must equal the first round's: all rounds of a
run use the same seed, thread count and job count never change the
bytes, and neither may tracing. Human-readable lines, the environment
block and the digests go to stdout; the last line is the JSON result.
A full record is written to perfbench/.work/result-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
MIN_ROUNDS = 3
SETUP_SAMPLES = 1
CHILD_TIMEOUT_S = 150

# units of the declared metrics; the undeclared diagnostics are per-call
# times (s) and st.<declared end-to-end metric>
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def unit_of(metric: str) -> str:
    return UNITS.get(metric.removeprefix("st."), "s")


class ChildFailed(Exception):
    pass


def run_child(workload: str, seed: int, tiny: bool, trace: bool = False,
              single_thread: bool = False, spans: Path = None, setup_only: bool = False) -> dict:
    work = WORK / f"{workload}-round"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report = work / "report.json"
    env = dict(os.environ)
    if single_thread:
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--single-thread", str(int(single_thread)), "--tiny", str(int(tiny)),
           "--setup-only", str(int(setup_only)), "--work", str(work), "--report", str(report)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.time()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"round of {workload} exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not report.is_file():
        raise ChildFailed(f"round of {workload} exited {proc.returncode}")
    rep = json.loads(report.read_text())
    rep["setup_s"] = rep["ready_at"] - started
    rep["round_s"] = time.time() - started
    shutil.rmtree(work)
    return rep


def median_of(rounds: List[dict], key) -> float:
    return statistics.median(key(r) for r in rounds)


def call_seconds(rounds: List[dict]) -> Dict[str, float]:
    names = [c["metric"] for c in rounds[0]["calls"]]
    return {n: median_of(rounds, lambda r, i=i: r["calls"][i]["seconds"])
            for i, n in enumerate(names)}


def end_to_end(rounds: List[dict]) -> Dict[str, float]:
    setups = [t for r in rounds for t in [r["setup_s"], *r.get("setup_samples", [])]]
    return {"setup_s": statistics.median(setups),
            "wall_s": median_of(rounds, lambda r: r["wall_s"]),
            "peak_rss_mb": median_of(rounds, lambda r: r["peak_rss_mb"])}


def failures(rounds: List[dict]) -> Dict[str, List[str]]:
    """Problems of each failed call: bad exit, failed output check, or
    digests that differ from the first round's."""
    out = {}
    ref = rounds[0]["calls"]
    for n, r in enumerate(rounds):
        for i, c in enumerate(r["calls"]):
            problems = list(c["problems"])
            if c["digests"] != ref[i]["digests"]:
                problems.append("artifact digests differ from round 0")
            if problems:
                out[f"round {n} {c['metric']}"] = problems
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", type=int, choices=(0, 1), default=0,
                   help="self-test sizes; never used for measurements")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "sleepshare" / "cli.py").is_file():
        print(f"error: no sleepshare source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
    tiny = bool(args.tiny)
    begin = time.perf_counter()

    def another(rounds_done: List[float], minimum: int, reserve: float = 0.0) -> bool:
        """Whether one more round (and `reserve` seconds after it) fits."""
        if len(rounds_done) < minimum:
            return True
        typical = statistics.median(rounds_done)
        return time.perf_counter() - begin + typical + reserve <= args.seconds

    plain: List[dict] = []
    traced: List[dict] = []
    single: List[dict] = []
    try:
        if not args.trace:
            while another([r["round_s"] for r in plain], MIN_ROUNDS):
                rnd = run_child(args.workload, args.seed, tiny)
                samples = [run_child(args.workload, args.seed, tiny, setup_only=True)
                           for _ in range(SETUP_SAMPLES)]
                rnd["setup_samples"] = [r["setup_s"] for r in samples]
                rnd["round_s"] += sum(r["round_s"] for r in samples)
                plain.append(rnd)
        else:
            pairs: List[float] = []
            # keep about a plain round's time for the single-threaded round
            while another(pairs, 1, reserve=pairs[-1] / 2 if pairs else 0.0):
                plain.append(run_child(args.workload, args.seed, tiny))
                traced.append(run_child(args.workload, args.seed, tiny, trace=True,
                                        spans=spans_path))
                pairs.append(plain[-1]["round_s"] + traced[-1]["round_s"])
            single.append(run_child(args.workload, args.seed, tiny, single_thread=True))
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    everything = plain + traced + single
    by_call = failures(everything)
    failed = [f"{call}: {p}" for call, problems in by_call.items() for p in problems]
    failed_calls = len(by_call)
    attempted = sum(len(r["calls"]) for r in everything)
    run_problems = [f"tracer wrapper installed during untraced round: {w}"
                    for r in plain + single for w in r["wrappers_in_untraced"]]
    for n, r in enumerate(traced):
        t = r["trace"]
        run_problems += [f"traced round {n}: {w} not restored" for w in t["left_installed"]]
        if t["top_level_self_s"] > r["wall_s"]:
            run_problems.append(f"traced round {n}: top-level self time "
                                f"{t['top_level_self_s']:.6f} s exceeds wall {r['wall_s']:.6f} s")

    e2e = end_to_end(plain)
    per_call = call_seconds(plain)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced rounds"
          + (f", {len(traced)} traced, {len(single)} single-threaded" if args.trace else ""))
    setup_samples = len(plain) * (1 + SETUP_SAMPLES) if not args.trace else len(plain)
    for name, value in {**e2e, **per_call}.items():
        n = setup_samples if name == "setup_s" else len(plain)
        print(f"  {name:<24} {value:12.6f} {unit_of(name):<6} median of {n}")
    print(f"  {'failed_frac':<24} {failed_calls / attempted:12.6f} {'':<6} "
          f"{failed_calls} of {attempted} calls")
    result: Dict[str, object] = {"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "rounds": len(plain),
                                 "end_to_end": e2e, "calls": per_call,
                                 "failed_frac": failed_calls / attempted,
                                 "per_round": [{"setup_s": r["setup_s"], "wall_s": r["wall_s"],
                                                "setup_samples": r.get("setup_samples", []),
                                                "peak_rss_mb": r["peak_rss_mb"],
                                                **{c["metric"]: c["seconds"] for c in r["calls"]}}
                                               for r in plain]}
    if args.trace:
        layer = {name: statistics.median(r["trace"]["metrics"][name] for r in traced)
                 for name in traced[0]["trace"]["metrics"]}
        layer["cli.write_bytes"] = median_of(traced, lambda r: r["write_bytes"])
        layer["trace.overhead_frac"] = (median_of(traced, lambda r: r["wall_s"])
                                        / median_of(plain, lambda r: r["wall_s"]) - 1.0)
        st = {f"st.{k}": v for k, v in {**end_to_end(single), **call_seconds(single)}.items()}
        for name, value in st.items():
            print(f"  {name:<24} {value:12.6f} {unit_of(name):<6} single-threaded, diagnostic")
        for name, value in layer.items():
            print(f"  {name:<40} {value:14.6f} {unit_of(name):<8} median of {len(traced)} traced")
        absent = traced[0]["trace"]["absent"]
        if absent:
            print(f"  absent (no such function): {', '.join(absent)}")
        print("env.st " + json.dumps(single[0]["env"]))
        result.update(per_layer=layer, single_threaded=st, absent=absent,
                      single_threaded_env=single[0]["env"],
                      spans_file=str(spans_path.relative_to(ROOT)))
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}

    env = plain[0]["env"]
    env["calibration_probe_s"] = [r["env"]["calibration_probe_s"] for r in plain]
    print("env " + json.dumps(env))
    digests = {c["metric"]: c["digests"] for c in plain[0]["calls"]}
    print("digests " + json.dumps(digests, sort_keys=True))
    for line in failed + run_problems:
        print(f"FAILED {line}")
    result.update(env=env, digests=digests, failures=failed + run_problems)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))

    correct = not failed and not run_problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed_calls, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
