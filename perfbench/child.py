"""One round of a workload, in a fresh process.

Imports sleepshare from the checkout's `src/`, runs the workload's calls
through `cli.main`, checks their outputs and writes a JSON report. The
parent (`run.py`) measures set-up as the time from starting this process
to the `ready_at` stamp taken once sleepshare is imported.

With --trace 1 the calls run under the span tracer; with --trace 0 the
round verifies that no tracer wrapper is installed. With --setup-only 1
the child stops once sleepshare is ready: a set-up sample and nothing else.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--single-thread", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--setup-only", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    sys.path.insert(0, str(SRC))
    import sleepshare
    from sleepshare import cli
    ready_at = time.time()
    if Path(sleepshare.__file__).resolve().parent != SRC / "sleepshare":
        print(f"sleepshare imported from {sleepshare.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        Path(args.report).write_text(json.dumps({"ready_at": ready_at}))
        return 0

    import envinfo
    env = envinfo.environment()
    work = Path(args.work)
    trc = tracer.Tracer() if args.trace else None
    wrapped_untraced = []
    if trc is not None:
        trc.install()
    else:
        wrapped_untraced += tracer.installed_wrappers()

    results = []
    start = time.perf_counter()
    with open(os.devnull, "w") as devnull:
        for call in workloads.calls(args.workload, bool(args.tiny)):
            out = work / call.metric
            jobs = 1 if args.single_thread else call.jobs
            argv = [*call.argv, "--seed", str(args.seed), "--jobs", str(jobs), "--out", str(out)]
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(devnull):
                    rc = cli.main(argv)
            except Exception:
                traceback.print_exc()
                rc = "exception"
            results.append({"metric": call.metric, "argv": argv, "rc": rc,
                            "seconds": time.perf_counter() - t0, "out": out})
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    trace = None
    if trc is not None:
        trc.restore()
        trace = {
            "metrics": tracer.summarize(trc.spans, trc.absent),
            "absent": trc.absent,
            "top_level_self_s": tracer.top_level_self_s(trc.spans),
            "spans": len(trc.spans),
            "left_installed": tracer.installed_wrappers(),
        }
        if args.spans:
            _write_spans(Path(args.spans), trc.spans)
    else:
        wrapped_untraced += tracer.installed_wrappers()

    write_bytes = 0
    for r in results:
        out = r.pop("out")
        problems, digest = workloads.check(out) if r["rc"] == 0 else ([f"exit {r['rc']}"], {})
        r["problems"], r["digests"] = problems, digest
        write_bytes += sum((out / name).stat().st_size for name in digest if (out / name).is_file())
        if (out / "manifest.txt").is_file():
            write_bytes += (out / "manifest.txt").stat().st_size

    report = {"ready_at": ready_at, "env": env, "calls": results, "wall_s": wall,
              "peak_rss_mb": peak_rss_mb, "write_bytes": write_bytes,
              "wrappers_in_untraced": sorted(set(wrapped_untraced)), "trace": trace}
    Path(args.report).write_text(json.dumps(report))
    return 0


def _write_spans(path: Path, spans) -> None:
    with open(path, "w") as f:
        f.write("id,name,start_s,end_s,parent\n")
        for i, (name, start, end, parent, _) in enumerate(spans):
            f.write(f"{i},{name},{start!r},{end!r},{'' if parent is None else parent}\n")


if __name__ == "__main__":
    sys.exit(main())
