"""Self-test of the benchmark, at tiny sizes (under a minute).

    python3 perfbench/selftest.py

Checks that
- every workload, untraced and traced, emits every metric that
  BENCHMARK.json names and passes its output checks;
- untraced rounds run with no tracer wrapper installed (run.py fails a
  run otherwise), and the tracer puts back the very objects it replaced;
- a wrapped name that does not exist is reported as absent and its
  metrics are left out, without failing the pass;
- without the sleepshare sources the benchmark exits non-zero and prints
  no result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    script = cwd / "perfbench" / "run.py"
    return subprocess.run([sys.executable, str(script), "--workload", workload, "--seed", "3",
                           "--seconds", "0", "--trace", str(trace), "--tiny", "1"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_emitted_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the workloads of workloads.py")
    for workload in workloads.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(workload, trace)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{workload} trace {trace}: no JSON result\n{proc.stderr}")
                continue
            label = f"{workload} trace {trace}"
            expect(proc.returncode == 0 and result["correct"] and result["failed"] == 0,
                   f"{label}: exits 0 with correct outputs")
            got = result["metrics"]
            missing = [m["name"] for m in declared if m["name"] not in got]
            expect(not missing, f"{label}: emits every declared metric {missing or ''}")


def check_wrapping() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from sleepshare import cli, trainer
    targets = tracer.TARGETS + [
        ("missing.function", "trainer", "_no_such_function"),
        ("missing.method", "trainer", "AdamW.no_such_method"),
        ("missing.module", "no_such_module", "f"),
    ]
    before = {(m.__name__, k): v for m in tracer.package_modules() for k, v in vars(m).items()}
    methods = {k: v for k, v in vars(trainer.LayerStack).items()}
    synthetic = vars(trainer.Dataset)["synthetic"]
    expect(tracer.installed_wrappers() == [], "no wrapper installed before the traced pass")

    trc = tracer.Tracer(targets)
    trc.install()
    expect(sorted(trc.absent) == ["missing.function", "missing.method", "missing.module"],
           f"missing names reported absent: {trc.absent}")
    wrapped = tracer.installed_wrappers()
    expect("sleepshare.ratecircuit.neg_log_snr" in wrapped
           and "sleepshare.sharing.neg_log_snr" in wrapped,
           "a function is wrapped where it is defined and where it is imported")
    out = HERE / ".work" / "selftest-call"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["train", "--arm", "lc-ws:1", "--epochs", "1", "--train-size", "64",
                       "--test-size", "64", "--out", str(out)])
    shutil.rmtree(out, ignore_errors=True)
    trc.restore()
    expect(rc == 0, "a call runs under the tracer")

    after = {(m.__name__, k): v for m in tracer.package_modules() for k, v in vars(m).items()}
    expect(tracer.installed_wrappers() == [], "no wrapper left after restore")
    expect(all(after[key] is obj for key, obj in before.items()),
           "every module name is the original object again")
    expect(all(vars(trainer.LayerStack)[k] is v for k, v in methods.items())
           and vars(trainer.Dataset)["synthetic"] is synthetic,
           "every class attribute is the original object again")

    metrics = tracer.summarize(trc.spans, trc.absent)
    expect(not any(k.startswith("missing.") for k in metrics), "absent names emit no metrics")
    expect(metrics.get("trainer.forward_backward.calls", 0) > 0
           and metrics.get("trainer.AdamW.share_state.calls", 0) > 0,
           "wrapped functions and methods record spans")

    # as after a change that deletes _scatter_windows
    gone = [t if t[0] != "trainer.scatter_windows" else (t[0], "trainer", "_scatter_windows_gone")
            for t in tracer.TARGETS]
    trc = tracer.Tracer(gone)
    trc.install()
    trc.restore()
    metrics = tracer.summarize(trc.spans, trc.absent)
    expect(trc.absent == ["trainer.scatter_windows"]
           and "trainer.scatter_windows.calls" not in metrics
           and "trainer.AdamW.step.calls" in metrics,
           "a deleted target drops only its own metrics")


def check_without_sources() -> None:
    bare = HERE / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench("rate-circuit", 0, cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and "correct" not in proc.stdout,
           "without sources: non-zero exit and no result")


def main() -> int:
    check_wrapping()
    check_without_sources()
    check_emitted_metrics()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
