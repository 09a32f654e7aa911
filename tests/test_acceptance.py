"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a `[criterion N] PASS/FAIL` line (visible under
`pytest -s`) and asserts the stated tolerance. The slow entry is the
desk-scale arm comparison (~2 min at --jobs 1 on 2 cores); the
rate-circuit cell takes a few seconds. The whole file runs in under an
hour on one core.
"""

import csv
import math

import numpy as np
import pytest

import sleepshare as ss
from sleepshare import cli
from sleepshare.mathcore import RngStream
from sleepshare.topology import (ConvLayer, LocalLayer, conv_forward,
                                 lc_forward, tie_lc_to_conv)
from sleepshare.trainer import LayerStack, forward_backward, run_experiment


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def read_rows(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def test_idealized_sweep_reaches_floor(tmp_path):
    out = tmp_path / "sweep"
    rc = cli.main(["sleep-ideal", "--out", str(out)])
    assert rc == 0
    worst = 0.0
    cells = set()
    for row in read_rows(out / "summary.csv"):
        dev = abs(float(row["terminal_neg_log_snr"]) - float(row["neg_log_snr_floor"]))
        worst = max(worst, dev)
        cells.add((row["k"], row["gamma"]))
    report(1, len(cells) == 6 and worst <= 1.0,
           f"6 cells x 10 seeds, worst |terminal - floor| = {worst:.3f} nat (limit 1.0)")


def test_rate_circuit_equalizes_with_bias():
    def run(alpha):
        gen = RngStream(0, (7, 3, 1_000_000, 0)).generator()
        bundle = ss.WeightBundle.from_rng(gen, 100, 9)
        circuit = ss.RateCircuit(tau=30.0, alpha=alpha, b=1.0, dt=1.0,
                                 present_ms=150.0)
        cfg = ss.SleepConfig(
            gamma=1e-3,
            schedule=ss.Schedule("inverse_sqrt", 3e-4, 2.0, warmup=50),
            iterations=10_000, momentum=0.0, alpha=alpha)
        return ss.rate_sleep_run(bundle, circuit, cfg, gen,
                                 plasticity="continuous", rate_const=2.0)

    biased = run(10.0)
    ideal = run(math.inf)
    improve = biased.initial - float(biased.trajectory.min())
    argmin = int(biased.trajectory.argmin()) + 1
    ok = improve >= 5.0 and 500 <= argmin <= 6000 and biased.terminal > ideal.terminal
    report(2, ok,
           f"improvement {improve:.2f} nat (>= 5), best at presentation {argmin} "
           f"(in [500, 6000]), terminal {biased.terminal:.2f} > ideal {ideal.terminal:.2f}")


def test_fixed_point_solvers_agree(tmp_path):
    out = tmp_path / "fp"
    rc = cli.main(["fixed-point", "--out", str(out)])
    vals = {}
    for line in (out / "report.txt").read_text().splitlines():
        key, _, val = line.partition("=")
        vals[key] = val
    plain = float(vals["max_rel_error_descent_vs_solve"])
    biased = float(vals["max_rel_error_biased_alpha10"])
    ok = rc == 0 and plain <= 1e-6 and biased <= 1e-4
    report(3, ok, f"50 instances, descent vs solve {plain:.2e} (<= 1e-6), "
                  f"biased {biased:.2e} (<= 1e-4)")


def test_decay_rate_and_noise_plateaus(tmp_path):
    out = tmp_path / "nf"
    rc = cli.main(["noise-floor", "--out", str(out)])
    assert rc == 0
    slopes = [float(r["loglog_slope"]) for r in read_rows(out / "slopes.csv")]
    ratios = [float(r["ratio_to_prev"]) for r in read_rows(out / "summary.csv")
              if r["ratio_to_prev"]]
    ok = (len(slopes) == 10 and all(-1.3 <= s <= -0.7 for s in slopes)
          and len(ratios) == 2 and all(2.0 <= r <= 8.0 for r in ratios))
    report(4, ok,
           f"slopes in [{min(slopes):.2f}, {max(slopes):.2f}] (band [-1.3, -0.7]), "
           f"plateau ratios {ratios[0]:.2f}, {ratios[1]:.2f} (band [2, 8])")


def test_structural_exactness_bundle():
    checks = []

    # tied LC reproduces conv bit for bit, both padding modes
    for mode in ("zeros", "circular"):
        gen = np.random.default_rng(50)
        conv = ConvLayer.kaiming(gen, 2, 3, 9, 9, 3, padding_mode=mode)
        lc = LocalLayer.kaiming(gen, 2, 3, 9, 9, 3, padding_mode=mode)
        tied = tie_lc_to_conv(lc, conv.weights)
        x = gen.normal(size=(2, 9, 9))
        checks.append(("conv = tied-LC " + mode,
                       np.array_equal(conv_forward(conv, x), lc_forward(tied, x))))

    # instant_share: idempotent bitwise, and lands on the grid means
    layer = LocalLayer.kaiming(np.random.default_rng(51), 2, 3, 9, 9, 3)
    before = layer.weights.copy()
    ss.instant_share(layer)
    once = layer.weights.copy()
    mean_err = 0.0
    for gy in range(3):
        for gx in range(3):
            manual = before[gy::3, gx::3].mean(axis=(0, 1))
            got = once[gy, gx]
            mean_err = max(mean_err, float(np.abs(manual - got).max()))
    ss.instant_share(layer)
    checks.append(("share idempotent", np.array_equal(once, layer.weights)))
    checks.append((f"share = grid means ({mean_err:.1e})", mean_err <= 1e-12))

    # stride-k equivariance after sharing, circular boundary
    eq_layer = LocalLayer.kaiming(np.random.default_rng(52), 1, 2, 9, 9, 3,
                                  padding_mode="circular")
    ss.instant_share(eq_layer)
    x = np.random.default_rng(53).normal(size=(1, 9, 9))
    eq_err = 0.0
    for dy, dx in ((3, 0), (0, 6), (6, 3)):
        shifted = np.roll(x, (dy, dx), axis=(1, 2))
        out_shift = lc_forward(eq_layer, shifted)
        shift_out = np.roll(lc_forward(eq_layer, x), (dy, dx), axis=(1, 2))
        eq_err = max(eq_err, float(np.abs(out_shift - shift_out).max()))
    checks.append((f"stride-k equivariance ({eq_err:.1e})", eq_err <= 1e-9))

    checks.append(("snr hand value",
                   ss.neg_log_snr(np.array([[1.0, 0.0], [0.0, 1.0]])) == 0.0))

    stack = np.random.default_rng(54).normal(0, 1, (6, 4, 10))
    shared = ss.patch_share(stack, 1e-9, rng=np.random.default_rng(55))
    patch_err = float(np.abs(shared - stack.mean(axis=0)[None]).max())
    checks.append((f"patch share gamma->0 ({patch_err:.1e})", patch_err <= 1e-6))

    circuit = ss.RateCircuit(tau=30.0, alpha=10.0, b=1.0, dt=1.0, present_ms=150.0)
    drive = np.array([2.0, -1.0, 0.5, 4.0])
    circuit.reset(4)
    circuit.r = ss.rate_fixed_point(circuit, drive)
    circuit.r_inh = drive.mean() / (1.0 + circuit.alpha)
    held = circuit.r.copy()
    ss.rate_step(circuit, drive)
    resid = float(np.abs(circuit.r - held).max())
    checks.append((f"rate fixed-point residual ({resid:.1e})", resid < 1e-12))

    ok = all(c[1] for c in checks)
    report(5, ok, "; ".join(name for name, _ in checks) if ok else
           "failed: " + "; ".join(name for name, good in checks if not good))


def test_gradients_match_finite_differences():
    worst = 0.0
    for kind in ("lc", "conv"):
        gen = np.random.default_rng(60)
        stack = LayerStack(kind, gen, image=8, channels=4)
        x = gen.normal(size=(2, 1, 8, 8))
        y = np.array([1, 3])
        _, grads = forward_backward(stack, x, y)
        names = list(stack.params)
        sizes = np.array([stack.params[n].size for n in names])
        coord_gen = np.random.default_rng(61)
        picks = coord_gen.choice(int(sizes.sum()), size=100, replace=False)
        eps = 1e-6
        for flat_idx in picks:
            j = int(np.searchsorted(np.cumsum(sizes), flat_idx, side="right"))
            idx = int(flat_idx - np.concatenate([[0], np.cumsum(sizes)])[j])
            # perturb the parameter itself, never a copy of it
            p = stack.params[names[j]]
            pos = np.unravel_index(idx, p.shape)
            old = p[pos]
            p[pos] = old + eps
            lp, _ = forward_backward(stack, x, y)
            p[pos] = old - eps
            lm, _ = forward_backward(stack, x, y)
            p[pos] = old
            fd = (lp - lm) / (2 * eps)
            an = grads[names[j]][pos]
            rel = abs(fd - an) / max(1.0, abs(fd))
            worst = max(worst, rel)
    report(6, worst <= 1e-4,
           f"100 coordinates per stack (lc and conv), worst relative error {worst:.2e}")


@pytest.mark.slow
def test_training_arm_ordering(tmp_path):
    out = tmp_path / "compare"
    rc = cli.main(["compare", "--jobs", "1", "--out", str(out)])
    assert rc == 0
    by_arm = {}
    for row in read_rows(out / "summary.csv"):
        by_arm.setdefault(row["arm"], []).append(float(row["test_accuracy_top1"]))
    means = {a: float(np.mean(v)) for a, v in by_arm.items()}
    conv, lc = means["conv"], means["lc"]
    ws1, reps = means["lc-ws:1"], means["lc-reps:16"]
    mid = lc + 0.5 * (conv - lc)
    ok = conv > lc and ws1 >= mid and reps > lc
    report(7, ok,
           f"3 seeds: conv {conv:.3f} > lc {lc:.3f}; ws(1) {ws1:.3f} >= "
           f"midpoint {mid:.3f}; reps(16) {reps:.3f} > lc {lc:.3f}")


def test_sharing_cadence_lr_monotonicity():
    # The diagnostic saturates to the converged sentinel when a learning
    # rate kills a feature channel outright (zero gradient freezes its
    # coordinates at the shared point, making the per-coordinate SNR
    # infinite). Monotonicity is required wherever all three rates give a
    # finite measurement; the input layer must be finite everywhere.
    lrs = [5e-4, 5e-3, 5e-2]
    pre = {}
    for lr in lrs:
        h = run_experiment("lc-ws:10", 0, epochs=5, lr=lr)
        for nb, layer, p, _ in h.events:
            pre[(nb, layer, lr)] = p
    keys = sorted({(nb, layer) for nb, layer, _ in pre})
    assert keys, "no sharing events recorded"
    finite, saturated, bad = [], [], []
    for k in keys:
        vals = [pre[(*k, lr)] for lr in lrs]
        if any(v == ss.NEG_LOG_SNR_CONVERGED for v in vals):
            saturated.append(k)
        else:
            finite.append(k)
            if not vals[0] < vals[1] < vals[2]:
                bad.append(k)
    layer1_all_finite = all(k in finite for k in keys if k[1] == "layer1")
    ok = not bad and layer1_all_finite and len(finite) >= len(keys) // 2
    report(8, ok,
           f"pre-share spread monotone in lr at all {len(finite)} finitely "
           f"measured (batch, layer) events; {len(saturated)} saturated at the "
           f"sentinel (dead channel at the largest rate)" if ok else
           f"reversals at {bad}; saturated {saturated}")
