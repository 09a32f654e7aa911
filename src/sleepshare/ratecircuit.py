"""Excitatory/inhibitory rate dynamics realizing the equalization rule.

N excitatory units share one inhibitory unit:

    tau dr_i/dt    = -r_i + w_i . x - alpha * r_inh + b
    tau dr_inh/dt  = -r_inh + mean_j r_j - b

Discretized with forward Euler (dt <= tau/10). At the fixed point the
deviation r_i - b equals z_i - c * mean z with c = alpha/(1+alpha), so
anti-Hebbian plasticity -(r_i - b) x reproduces the finite-alpha
equalization update.

Plasticity modes:
    "continuous" (default): the weight update is applied at every Euler
    step with gain rate_const per ms, so one presentation does
    present_ms * rate_const small updates worth of work. This is what
    makes the published iteration counts reachable.
    "terminal": a single update per presentation from the settled rates;
    equals the discrete finite-alpha rule once the ODE has settled.

`rate_sleep_run` does not loop over the Euler steps. Within one
presentation the input x and the step size eta are fixed, so the Euler
recurrence on (rates, inhibitory rate, weights) is affine and splits
exactly, with x_hat = x/|x|, a_i = (w_i - w0_i) . x_hat and
z0_i = w0_i . x, into

    a 5x5 mean mode on (mean r, mean a, r_inh, mean z0, 1),
    a 3x3 deviation mode on (r_i - mean r, a_i - mean a, z0_i - mean z0)
        shared by all neurons,
    a scalar decay (1 - eta*gain*gamma)^T of the part of w_i - w0_i
        orthogonal to x_hat,

so T Euler steps are two matrix powers and one O(N*D) reconstruction of
the weights. `rate_step` is the single Euler step the propagator is the
T-fold power of.

Only the reconstruction depends on the state. The runner takes the
presentations in blocks of `_BLOCK`: per block, one draw gives the
inputs, and stacked calls give their norms, x_hat, z0 = w0 x, the
(m, 5, 5) step matrices and both matrix powers, before the
per-presentation loop applies them in order. Each stacked call is
bitwise the per-presentation one, so the output does not depend on the
block size.

The loop allocates nothing. It works through in-place `out=` forms in
buffers made once per run: the weight difference, the rank-1 update,
the (3, N) deviations and the 5-vector of means. It writes each
presentation's weights into a neuron-major (N, m, D) snapshot block and
its rates into an (m, N) block. One `neg_log_snr` call fills the
block's trajectory, reading a full block's snapshots in place (for
D = 1 it sums a cell-major copy, as one (N, 1) group does).

The divergence checks run once per block, on those records, in the
order each presentation takes them: an overflowing decay factor (found
in the set-up; the block stops before it), then non-finite rates, then
non-finite weights. The first failing presentation raises, with the
message, presentation and t a check after every presentation gives.
Non-finite weights show in the snapshots' -log snr (see
`sharing._maybe_nonfinite`), so the full weight check runs only then.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DivergenceError
from .sharing import (SleepConfig, SleepResult, WeightBundle, _maybe_nonfinite,
                      neg_log_snr)

__all__ = [
    "RateCircuit",
    "rate_step",
    "rate_fixed_point",
    "rate_sleep_run",
    "RateSleepResult",
]


# equality is identity: the generated == would compare array fields and raise
@dataclass(eq=False)
class RateCircuit:
    tau: float            # membrane time constant, ms
    alpha: float          # inhibition strength; inf runs the settled limit
    b: float              # shared bias rate
    dt: float             # Euler step, ms
    present_ms: float     # presentation duration per input
    r: Optional[np.ndarray] = field(default=None, init=False)
    r_inh: float = field(default=0.0, init=False)
    t_ms: float = field(default=0.0, init=False)  # elapsed simulated time, for error context

    def __post_init__(self):
        for name in ("tau", "b", "dt", "present_ms"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.dt > self.tau / 10.0 + 1e-12:
            raise ValueError(f"dt must be <= tau/10 for stability, got dt={self.dt}, tau={self.tau}")
        if self.present_ms <= 0:
            raise ValueError(f"present_ms must be > 0, got {self.present_ms}")
        steps = self.present_ms / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError(f"present_ms ({self.present_ms}) must be a multiple of dt ({self.dt})")

    @property
    def steps_per_presentation(self) -> int:
        return int(round(self.present_ms / self.dt))

    def reset(self, n: int) -> None:
        self.r = np.full(n, self.b, dtype=np.float64)
        self.r_inh = 0.0


def rate_step(circuit: RateCircuit, drive: np.ndarray) -> np.ndarray:
    """One forward-Euler step of both populations, in place."""
    if math.isinf(circuit.alpha):
        raise ValueError("rate_step needs finite alpha; the inf limit bypasses the ODE")
    r = circuit.r
    if r is None or r.shape != drive.shape:
        raise ValueError("circuit state not initialized for this drive size")
    coef = circuit.dt / circuit.tau
    dr = (-r + drive - circuit.alpha * circuit.r_inh + circuit.b) * coef
    dri = (-circuit.r_inh + r.mean() - circuit.b) * coef
    r += dr
    circuit.r_inh += dri
    circuit.t_ms += circuit.dt
    if not np.all(np.isfinite(r)) or not math.isfinite(circuit.r_inh):
        raise DivergenceError("rate dynamics diverged",
                              f"t = {circuit.t_ms:.1f} ms")
    return r


def rate_fixed_point(circuit: RateCircuit, drive: np.ndarray) -> np.ndarray:
    """The unique stationary rates for a fixed drive:
    r_i* = b + drive_i - mean + mean / (1 + alpha)."""
    drive = np.asarray(drive, dtype=np.float64)
    m = drive.mean()
    if math.isinf(circuit.alpha):
        return circuit.b + drive - m
    return circuit.b + drive - m + m / (1.0 + circuit.alpha)


@dataclass
class RateSleepResult(SleepResult):
    frac_nonneg: float = 1.0   # presentations whose settled rates stayed >= 0


def _euler_step_matrix(c: float, s: np.ndarray, h: np.ndarray, gamma: float,
                       alpha: float, b: float) -> np.ndarray:
    """One Euler step of (mean r, mean a, r_inh, mean z0, 1) as a 5x5 matrix
    for each presentation of a block, an (m, 5, 5) stack from the input
    norms s and per-step gains h, both (m,): the rate update at the step's
    starting weights, then the plasticity update with gain h from the new
    rates. Rows and columns (0, 1, 3) are the step of the per-neuron
    deviations from those means, which the shared r_inh and the constants
    do not reach."""
    rates = np.tile(np.eye(5), (len(s), 1, 1))
    rates[:, 0] = (1.0 - c, 0.0, -c * alpha, c, c * b)
    rates[:, 0, 1] = c * s
    rates[:, 2] = (c, 0.0, 1.0 - c, 0.0, -c * b)
    plastic = np.tile(np.eye(5), (len(s), 1, 1))
    plastic[:, 1, 0] = -h * s
    plastic[:, 1, 1] = 1.0 - h * gamma
    plastic[:, 1, 4] = h * s * b
    return plastic @ rates


_DEVIATION = (slice(None),) + np.ix_((0, 1, 3), (0, 1, 3))

# Presentations per block. Each block draws its inputs and builds its
# propagators in stacked calls; a larger block buys no more speed and
# costs memory for the (m, N, D) weight snapshots.
_BLOCK = 32


def rate_sleep_run(bundle: WeightBundle, circuit: RateCircuit, config: SleepConfig,
                   rng: np.random.Generator, plasticity: str = "continuous",
                   rate_const: float = 2.0) -> RateSleepResult:
    """Present config.iterations inputs through the circuit and adapt the
    bundle with the anti-Hebbian rule.

    The Euler-discretized rate equations advance by one exact propagator
    per presentation (alpha = inf degenerates to the exactly-centered
    update applied at the same per-step gain, the settled limit of the
    circuit).

    A weight decay factor that overflows, non-finite rates and non-finite
    weights raise DivergenceError naming the first presentation at which
    one of them happens, checked in that order within a presentation.
    The checks run once per block, so after the error the bundle's
    weights and the circuit's rates, inhibitory rate and t_ms are those
    after the last presentation the block ran: the block's last, or the
    one before a decay overflow, which may lie past the presentation
    named (by up to `_BLOCK - 1`).
    """
    if plasticity not in ("continuous", "terminal"):
        raise ValueError(f"unknown plasticity {plasticity!r}")
    # a diverging cell overflows before its check names the presentation,
    # and the block's later presentations may overflow in the stacked set-up
    with np.errstate(over="ignore", invalid="ignore"):
        return _ode_run(bundle, circuit, config, rng, plasticity, rate_const)


def _ode_run(bundle, circuit, config, gen, plasticity, rate_const):
    w = bundle.weights
    w0 = bundle.init
    n, d = bundle.n, bundle.d
    ideal = math.isinf(circuit.alpha)
    if not ideal:
        circuit.reset(n)
    steps = circuit.steps_per_presentation
    t_step = steps * circuit.dt
    # The settled limit follows the centered drive within each step (c = 1)
    # and propagates only the deviation mode, which alpha does not reach.
    c = 1.0 if ideal else circuit.dt / circuit.tau
    alpha = 0.0 if ideal else circuit.alpha
    gain = rate_const * circuit.dt if plasticity == "continuous" else 0.0
    terminal = plasticity == "terminal"
    traj = np.empty(config.iterations)
    initial = neg_log_snr(w)
    nonneg = 0
    # the per-run workspace
    block = min(_BLOCK, config.iterations)
    snap = np.empty((n, block, d))      # neuron-major weights after each presentation
    rates = np.empty((block, n))        # rates after each presentation
    dw = np.empty((n, d))
    rank1 = np.empty((n, d))
    dev = np.empty((3, n))              # per-neuron (r_i, a_i, z0_i) less their means
    dev_end = np.empty((3, n))
    coef = np.empty(n)
    means = np.empty(3)
    state = np.ones(5)                  # (mean r, mean a, r_inh, mean z0, 1)
    r = np.zeros(n) if ideal else circuit.r
    r_inh = circuit.r_inh
    for k0 in range(0, config.iterations, _BLOCK):
        m = min(_BLOCK, config.iterations - k0)
        # what depends only on the block's inputs and step sizes
        xs = gen.normal(config.input_mean, config.input_std, size=(m, d))
        etas = [config.schedule(k) for k in range(k0, k0 + m)]
        hs = [eta * gain for eta in etas]
        decs = []
        for h in hs:
            try:
                # a Python float's power raises OverflowError; a numpy
                # scalar's (from gamma, rate_const or dt) would be a silent inf
                decs.append(float(1.0 - h * config.gamma) ** steps)
            except OverflowError:
                break
        run = len(decs)  # the block stops before a decay overflow
        if not ideal or any(hs):
            s = np.sqrt(np.matmul(xs[:, None, :], xs[:, :, None]))[:, 0, 0]
            x_hats = xs / np.where(s == 0.0, 1.0, s)[:, None]
            z0 = np.matmul(w0[None], xs[:, :, None])[..., 0]
            step = _euler_step_matrix(c, s, np.array(hs), config.gamma, alpha,
                                      circuit.b)
            dev_powers = np.linalg.matrix_power(step[_DEVIATION], steps)
            if not ideal:
                mean_powers = np.linalg.matrix_power(step, steps)
        r_inhs = []
        for j in range(run):
            eta, h = etas[j], hs[j]
            if h or not ideal:
                np.subtract(w, w0, out=dw)
                dev[0] = r
                np.matmul(dw, x_hats[j], out=dev[1])
                dev[2] = z0[j]
                np.add.reduce(dev, axis=1, out=means)
                means /= n
                dev -= means[:, None]
                np.matmul(dev_powers[j], dev, out=dev_end)
                dec = decs[j]
                if ideal:
                    a_mean_end = dec * means[1]
                else:
                    state[:2] = means[:2]
                    state[2] = r_inh
                    state[3] = means[2]
                    mean_end = mean_powers[j] @ state
                    r = rates[j]
                    np.add(dev_end[0], mean_end[0], out=r)
                    r_inh = float(mean_end[2])
                    r_inhs.append(r_inh)
                    a_mean_end = mean_end[1]
                if h:
                    # w <- w0 + dec (w - w0) + (a_end - dec a) x_hat
                    dw *= dec
                    np.add(dev_end[1], a_mean_end - dec * means[1], out=coef)
                    dev[1] *= dec
                    coef -= dev[1]
                    np.multiply(coef[:, None], x_hats[j], out=rank1)
                    dw += rank1
                    np.add(w0, dw, out=w)
            if terminal:
                # w <- w - eta (settled x + gamma (w - w0))
                if ideal:
                    np.matmul(w, xs[j], out=coef)
                    coef -= coef.mean()
                else:
                    np.subtract(r, circuit.b, out=coef)
                np.subtract(w, w0, out=dw)
                dw *= config.gamma
                np.multiply(coef[:, None], xs[j], out=rank1)
                rank1 += dw
                rank1 *= eta
                w -= rank1
            snap[:, j] = w
        found = traj[k0:k0 + run]
        if run:
            found[:] = neg_log_snr(snap[:, :run].transpose(1, 0, 2))
        bad_weights = np.zeros(run, dtype=bool)
        if _maybe_nonfinite(found):
            bad_weights = ~np.isfinite(snap[:, :run]).all(axis=(0, 2))
        bad_rates = np.zeros(run, dtype=bool)
        t_block = circuit.t_ms
        if ideal:
            nonneg += run
        elif run:
            bad_rates = ~(np.isfinite(rates[:run]).all(axis=1) & np.isfinite(r_inhs))
            nonneg += int(np.count_nonzero(rates[:run].min(axis=1) >= 0.0))
            circuit.r[:] = r
            r = circuit.r
            circuit.r_inh = r_inh
            for _ in range(run):
                circuit.t_ms += t_step
        if run < m or bad_rates.any() or bad_weights.any():
            raise _first_divergence(k0, run, bad_rates, bad_weights, t_block, t_step)
    frac = nonneg / config.iterations if config.iterations else 1.0
    return RateSleepResult(trajectory=traj, initial=initial, bundle=bundle,
                           frac_nonneg=frac)


def _first_divergence(k0: int, run: int, bad_rates: np.ndarray, bad_weights: np.ndarray,
                      t_ms: float, t_step: float) -> DivergenceError:
    """The error of the first failing presentation of the block starting
    at presentation k0, found in the order each presentation is checked:
    a decay overflow (which ended the block after `run` presentations),
    non-finite rates, non-finite weights. t_ms is the circuit's time at
    the block's start."""
    bad = bad_rates | bad_weights
    j = int(np.argmax(bad)) if bad.any() else run
    k = k0 + j
    if j == run:
        return DivergenceError("weight decay factor overflowed", f"presentation {k}")
    if bad_rates[j]:
        for _ in range(j + 1):
            t_ms += t_step
        return DivergenceError("rate dynamics diverged", f"presentation {k}, t = {t_ms:.1f} ms")
    return DivergenceError("non-finite weights in rate sleep run", f"presentation {k}")
