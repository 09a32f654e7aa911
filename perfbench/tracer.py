"""In-memory span tracer for the traced pass.

The tracer wraps sleepshare functions from outside the package: each
target is replaced at every name where callers look it up (the defining
module, every module that imported it by name, and the class for
methods), so no program source changes. `restore()` puts every original
object back. A target that no longer exists is recorded in `absent`
instead of failing the pass.

A span is (name, start, end, parent, extra). Parents come from a
per-thread stack, because `--jobs N` runs sweep cells on pool threads;
a pool cell names the pool span as its parent explicitly.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

MARK = "__perfbench_original__"

# (metric base name, module, attribute path inside the module). The
# metric name is what per_layer metrics are keyed by; it does not change
# when the attribute is renamed or moved.
TARGETS: List[Tuple[str, str, str]] = [
    ("mathcore.solve_spd", "mathcore", "solve_spd"),
    ("sharing.sleep_step", "sharing", "sleep_step"),
    ("sharing.neg_log_snr", "sharing", "neg_log_snr"),
    ("sharing.sleep_run", "sharing", "sleep_run"),
    ("sharing.full_batch_descent", "sharing", "full_batch_descent"),
    ("sharing.noise_floor_run", "sharing", "noise_floor_run"),
    ("sharing.share_kernel_grid_means", "sharing", "share_kernel_grid_means"),
    ("sharing.kernel_grid_neg_log_snr", "sharing", "kernel_grid_neg_log_snr"),
    ("ratecircuit.rate_step", "ratecircuit", "rate_step"),
    ("ratecircuit.rate_sleep_run", "ratecircuit", "rate_sleep_run"),
    ("topology.padded_windows", "topology", "padded_windows"),
    ("trainer.forward_backward", "trainer", "forward_backward"),
    ("trainer.LayerStack.forward", "trainer", "LayerStack.forward"),
    ("trainer.LayerStack.backward", "trainer", "LayerStack.backward"),
    ("trainer.layer_forward", "trainer", "LayerStack._layer_forward"),
    ("trainer.layer_backward", "trainer", "LayerStack._layer_backward"),
    ("trainer.scatter_windows", "trainer", "_scatter_windows"),
    ("trainer.AdamW.step", "trainer", "AdamW.step"),
    ("trainer.AdamW.share_state", "trainer", "AdamW.share_state"),
    ("trainer.augment_translate", "trainer", "augment_translate"),
    ("trainer.Dataset.synthetic", "trainer", "Dataset.synthetic"),
    ("cli.main", "cli", "main"),
    ("cli.run_cells", "cli", "_run_cells"),
    ("cli.RunDir.write_csv", "cli", "RunDir.write_csv"),
    ("cli.RunDir.finish", "cli", "RunDir.finish"),
]

PACKAGE = "sleepshare"


def package_modules() -> List[object]:
    """The loaded sleepshare package and its submodules."""
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def installed_wrappers() -> List[str]:
    """Names in the package that currently hold a tracer wrapper; empty
    when no tracer is installed."""
    found = []
    for mod in package_modules():
        for attr, obj in list(vars(mod).items()):
            if hasattr(obj, MARK):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                for meth, fn in vars(obj).items():
                    inner = getattr(fn, "__func__", fn)
                    if hasattr(inner, MARK):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: List[list] = []     # [name, start, end, parent, extra]
        self.absent: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: Optional[int] = None, extra=None) -> int:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, extra])
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == sid:
            stack.pop()

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        mods = {m.__name__.rpartition(".")[2]: m for m in package_modules()}
        for metric, modname, path in self.targets:
            mod = mods.get(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = mod
            if mod is not None and owner_name:
                owner = getattr(mod, owner_name, None)
            if owner is None or attr not in vars(owner):
                self.absent.append(metric)
                continue
            original = vars(owner)[attr]
            wrapper = self._make_wrapper(metric, original)
            if owner_name:
                self._set(owner, attr, wrapper)
                continue
            # a module function: replace it wherever it was imported by name
            for m in package_modules():
                if vars(m).get(attr) is original:
                    self._set(m, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _make_wrapper(self, metric: str, original):
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        if metric == "cli.run_cells":
            wrapper = _run_cells(self, metric, fn)
        else:
            wrapper = _plain(self, metric, fn, _EXTRA.get(metric))
        wrapper = functools.wraps(fn)(wrapper)
        setattr(wrapper, MARK, fn)
        return classmethod(wrapper) if is_classmethod else wrapper


# ---------------------------------------------------------------------------
# wrappers


def _plain(tracer: Tracer, metric: str, fn: Callable, extra: Optional[Callable] = None) -> Callable:
    """One span per call; `extra(args, result)`, if given, attaches data
    to the span of a call that returned."""
    def wrapper(*args, **kwargs):
        sid = tracer.open(metric)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if extra is not None:
            tracer.spans[sid][4] = extra(args, result)
        return result
    return wrapper


def _run_cells(tracer: Tracer, metric: str, fn: Callable) -> Callable:
    """The pool span, with each cell as a child span on its pool thread."""
    def wrapper(cells, cell_fn, jobs):
        pool = tracer.open(metric, extra={"jobs": max(1, int(jobs))})

        def cell(c):
            sid = tracer.open("cli.cell", parent=pool)
            try:
                return cell_fn(c)
            finally:
                tracer.close(sid)
        try:
            return fn(cells, cell, jobs)
        finally:
            tracer.close(pool)
    return wrapper


def _layer(stack, x_shape, kernels, direction: str, contractions: int) -> dict:
    b, c, h, w = x_shape
    k = stack.kernel
    layer = "layer1" if kernels is stack.params.get("layer1") else "layer2"
    return {"layer": f"trainer.{stack.kind}.{layer}.{direction}",
            "madds": contractions * b * kernels.shape[0] * c * h * w * k * k}


_EXTRA: Dict[str, Callable] = {
    # _layer_forward(self, x, kernels)
    "trainer.layer_forward": lambda a, _: _layer(a[0], a[1].shape, a[2], "fwd", 1),
    # _layer_backward(self, grad_out, win, kernels, x_shape): kernel grad
    # and input grad, two contractions of the forward's size
    "trainer.layer_backward": lambda a, _: _layer(a[0], a[4], a[3], "bwd", 2),
    "ratecircuit.rate_sleep_run": lambda _, r: {"presentations": len(r.trajectory),
                                                "frac_nonneg": float(r.frac_nonneg)},
}


# ---------------------------------------------------------------------------
# per-layer metrics from recorded spans

# metric -> (name suffix, scale from seconds, percentiles) of its per-call durations
PERCENTILES = {
    "sharing.sleep_step": ("us", 1e6, (50, 99)),
    "sharing.neg_log_snr": ("us", 1e6, (50,)),
    "ratecircuit.rate_step": ("us", 1e6, (50, 99)),
    "trainer.forward_backward": ("ms", 1e3, (50, 99)),
}
# reported through derived metrics rather than as calls/self_s
DERIVED_ONLY = {"trainer.layer_forward", "trainer.layer_backward",
                "trainer.LayerStack.forward", "cli.main", "cli.run_cells"}
LAYER_KEYS = [f"trainer.{kind}.{layer}.{d}" for kind in ("conv", "lc")
              for layer in ("layer1", "layer2") for d in ("fwd", "bwd")]


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part of it its children cover.
    Children on one thread never overlap; pool cells on several threads
    can, so covered time is the union of the child intervals."""
    children: List[List[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        lo = start
        for cs, ce in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            cs, ce = max(cs, lo), min(ce, end)
            if ce > cs:
                covered += ce - cs
                lo = ce
        out.append((end - start) - covered)
    return out


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def summarize(spans: List[list], absent: List[str]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name. Metrics
    of absent targets are left out; a target that exists but was never
    called reports 0 calls and 0 s (and 0 for its percentiles)."""
    selft = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
    out: Dict[str, float] = {}
    for metric, _, _ in TARGETS:
        if metric in absent or metric in DERIVED_ONLY:
            continue
        idx = by_name.get(metric, [])
        out[f"{metric}.calls"] = len(idx)
        out[f"{metric}.self_s"] = sum(selft[i] for i in idx)
        if metric in PERCENTILES:
            unit, scale, qs = PERCENTILES[metric]
            durs = sorted((spans[i][2] - spans[i][1]) * scale for i in idx)
            for q in qs:
                out[f"{metric}.p{q}_{unit}"] = percentile(durs, q)

    if "trainer.LayerStack.forward" not in absent:
        def under_fb(i):
            p = spans[i][3]
            while p is not None:
                if spans[p][0] == "trainer.forward_backward":
                    return True
                p = spans[p][3]
            return False
        evals = [i for i in by_name.get("trainer.LayerStack.forward", []) if not under_fb(i)]
        out["trainer.eval_forward.calls"] = len(evals)
        out["trainer.eval_forward.self_s"] = sum(selft[i] for i in evals)
        out["trainer.eval_forward.total_s"] = sum(spans[i][2] - spans[i][1] for i in evals)

    if "trainer.layer_forward" not in absent and "trainer.layer_backward" not in absent:
        layer_s = dict.fromkeys(LAYER_KEYS, 0.0)
        madds = 0
        for i in by_name.get("trainer.layer_forward", []) + by_name.get("trainer.layer_backward", []):
            if spans[i][4] is None:     # a call that raised
                continue
            layer_s[spans[i][4]["layer"]] += selft[i]
            madds += spans[i][4]["madds"]
        for key, secs in layer_s.items():
            out[f"{key}_s"] = secs
        busy = sum(layer_s.values())
        # computed from shapes, not measured: 2 flops per multiply-add
        out["trainer.layer_gflop"] = 2.0 * madds / 1e9
        out["trainer.layer_gflops"] = out["trainer.layer_gflop"] / busy if busy else 0.0

    if "ratecircuit.rate_sleep_run" not in absent:
        # a run that raised returned no result to read
        runs = [spans[i][4] for i in by_name.get("ratecircuit.rate_sleep_run", []) if spans[i][4]]
        pres = sum(r["presentations"] for r in runs)
        out["ratecircuit.presentations"] = pres
        out["ratecircuit.frac_nonneg"] = (
            sum(r["presentations"] * r["frac_nonneg"] for r in runs) / pres if pres else 0.0)

    if "cli.run_cells" not in absent:
        pools = by_name.get("cli.run_cells", [])
        capacity = sum(spans[i][4]["jobs"] * (spans[i][2] - spans[i][1]) for i in pools)
        busy = sum(spans[i][2] - spans[i][1] for i in by_name.get("cli.cell", []))
        out["cli.jobs_efficiency"] = busy / capacity if capacity else 0.0
    return out


def top_level_self_s(spans: List[list]) -> float:
    """Summed self time of spans without a parent."""
    selft = self_times(spans)
    return sum(t for s, t in zip(spans, selft) if s[3] is None)
