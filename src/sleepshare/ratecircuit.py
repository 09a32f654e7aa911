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
exactly, with x_hat = x/|x|, u_i = w_i - w0_i, a_i = u_i . x_hat and
z0_i = w0_i . x, into

    a 5x5 mean mode on (mean r, mean a, r_inh, mean z0, 1),
    a 3x3 deviation mode on (r_i - mean r, a_i - mean a, z0_i - mean z0)
        shared by all neurons,
    a scalar decay dec = (1 - eta*gain*gamma)^T of the part of u_i
        orthogonal to x_hat,

so T Euler steps are two matrix powers (`rate_step` is the single Euler
step they are the T-fold power of). The weights follow from a_end:
u_i <- dec u_i + c_i x_hat with c_i = a_end_i - dec a_i.

The shared map. Written on u instead of a, the same three pieces are
one affine map per presentation that all neurons share. A neuron's
deviations (r_i - mean r, u_i - mean u) take, from the deviation
power P,

    r_i - mean r  <- P_rr (r_i - mean r) + P_ra x_hat . (u_i - mean u)
                     + P_rz (z0_i - mean z0)
    c_i - mean c   = P_ar (r_i - mean r) + (P_aa - dec) x_hat . (u_i - mean u)
                     + P_az (z0_i - mean z0)
    u_i - mean u  <- dec (u_i - mean u) + (c_i - mean c) x_hat,

and the means (mean r, mean u, r_inh) take the same form from the mean
power, with r_inh and 1 as two more inputs. Each neuron's own input is
its z0_i - mean z0; everything else is the same for every neuron. So a
state is one (D+5, N+1) array, a column per neuron and one for the
means, and three calls advance it: a (2, D+5) map gives (c, r) for the
neurons, a (3, D+5) one (c, r, r_inh) for the means, and one
(D, D+1) map [dec I | x_hat] gives u from (u, c) for both. The maps
cost O(D) per presentation to build, and the last call O(D^2) per
neuron: at D = 81 (k = 9) it costs more than rebuilding each neuron's
weights from the two propagators in ~20 calls of O(D) would.
Terminal plasticity composes one more plasticity half step at gain
eta onto both powers; alpha = inf drops the rates and leaves the means
a decay.

The runner takes the presentations in blocks of `_BLOCK`: per block,
one draw gives the inputs, and stacked calls give their norms, x_hat,
z0 = w0 x, the (m, 5, 5) step matrices, both matrix powers and the
maps, before the per-presentation loop applies them in order. Each
stacked call is bitwise the per-presentation one, and the state carries
over from block to block as it is, so the output does not depend on the
block size. After its loop, a block's weights w0 + (mean u +
(u_i - mean u)) and rates are formed in batch, and one `neg_log_snr`
call fills its trajectory. They differ by rounding from the
propagators' and the per-step Euler loop's (1e-9 in the tests).

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
        if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
            raise ValueError(f"present_ms ({self.present_ms}) must be a positive multiple "
                             f"of dt ({self.dt})")

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


_EYE5 = np.eye(5)


def _euler_step_matrix(c: float, s: np.ndarray, h: np.ndarray, gamma: float,
                       alpha: float, b: float) -> np.ndarray:
    """One Euler step of (mean r, mean a, r_inh, mean z0, 1) as a 5x5 matrix
    for each presentation of a block, an (m, 5, 5) stack from the input
    norms s and per-step gains h, both (m,): the rate update at the step's
    starting weights, then the plasticity update with gain h from the new
    rates. Rows and columns (0, 1, 3) are the step of the per-neuron
    deviations from those means, which the shared r_inh and the constants
    do not reach."""
    rates = _EYE5[None].repeat(len(s), 0)
    rates[:, 0] = (1.0 - c, 0.0, -c * alpha, c, c * b)
    rates[:, 0, 1] = c * s
    rates[:, 2] = (c, 0.0, 1.0 - c, 0.0, -c * b)
    plastic = _EYE5[None].repeat(len(s), 0)
    plastic[:, 1, 0] = -h * s
    plastic[:, 1, 1] = 1.0 - h * gamma
    plastic[:, 1, 4] = h * s * b
    return plastic @ rates


_DEVIATION_MASK = np.zeros((5, 5))
_DEVIATION_MASK[np.ix_((0, 1, 3), (0, 1, 3))] = 1.0

# Presentations per block. Each block draws its inputs and builds its
# maps in stacked calls; a larger block buys little more speed and costs
# memory for the block's states and weight snapshots.
_BLOCK = 32


def rate_sleep_run(bundle: WeightBundle, circuit: RateCircuit, config: SleepConfig,
                   rng: np.random.Generator, plasticity: str = "continuous",
                   rate_const: float = 2.0) -> RateSleepResult:
    """Present config.iterations inputs through the circuit and adapt the
    bundle with the anti-Hebbian rule.

    The Euler-discretized rate equations advance by one exact affine map
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
    n, d = bundle.n, bundle.d
    ideal = math.isinf(circuit.alpha)
    if not ideal:
        circuit.reset(n)
    steps = circuit.steps_per_presentation
    t_step = steps * circuit.dt
    gain = rate_const * circuit.dt if plasticity == "continuous" else 0.0
    traj = np.empty(config.iterations)
    initial = neg_log_snr(w)
    nonneg = 0
    runner = _SharedMap(bundle, circuit, config, plasticity == "terminal",
                        min(_BLOCK, config.iterations))
    for k0 in range(0, config.iterations, _BLOCK):
        m = min(_BLOCK, config.iterations - k0)
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
        # the weights (run, N, D), rates (run, N) and r_inh after each presentation
        ws, rates, r_inhs = runner.block(xs[:run], etas[:run], hs[:run], decs)
        found = traj[k0:k0 + run]
        if run:
            found[:] = neg_log_snr(ws)
            w[:] = ws[-1]
        bad_weights = np.zeros(run, dtype=bool)
        if _maybe_nonfinite(found):
            bad_weights = ~np.isfinite(ws).all(axis=(1, 2))
        bad_rates = np.zeros(run, dtype=bool)
        t_block = circuit.t_ms
        if ideal:
            nonneg += run
        elif run:
            bad_rates = ~(np.isfinite(rates).all(axis=1) & np.isfinite(r_inhs))
            nonneg += int(np.count_nonzero(rates.min(axis=1) >= 0.0))
            circuit.r[:] = rates[-1]
            circuit.r_inh = float(r_inhs[-1])
            for _ in range(run):
                circuit.t_ms += t_step
        if run < m or bad_rates.any() or bad_weights.any():
            raise _first_divergence(k0, run, bad_rates, bad_weights, t_block, t_step)
    frac = nonneg / config.iterations if config.iterations else 1.0
    return RateSleepResult(trajectory=traj, initial=initial, bundle=bundle,
                           frac_nonneg=frac)


class _SharedMap:
    """Every neuron's values less the means, (r_i, u_i = w_i - w0_i, z0_i)
    less (mean r, mean u, mean z0), follow one affine map per
    presentation; the means follow another. A state is the (D+5, N+1)
    array of rows (c, r, r_inh, 1, z0, u) with a column per neuron (its
    values less the means, so its r_inh and 1 are 0) and a last column
    for the means; c is the coefficient of x_hat in the weight update
    that led to it. Three calls advance a state: (c, r) of the next one
    for the neurons, (c, r, r_inh) for the means, then u of the next,
    dec u + c x_hat, for both. The settled limit (alpha = inf) follows
    the centered drive within each step (c = 1) and carries no rates."""

    # the step-matrix coordinate of c (a), r, r_inh, 1 and z0
    STEP_OF = (1, 0, 2, 4, 3)
    R, INH, ONE, Z0, U = 1, 2, 3, 4, 5

    def __init__(self, bundle, circuit, config, terminal, block):
        self.w0 = bundle.init
        n, d = self.n, self.d = bundle.n, bundle.d
        self.ideal = math.isinf(circuit.alpha)
        self.steps = circuit.steps_per_presentation
        self.c = 1.0 if self.ideal else circuit.dt / circuit.tau
        self.alpha = 0.0 if self.ideal else circuit.alpha
        self.b = circuit.b
        self.gamma = config.gamma
        self.terminal = terminal
        # The states of a block: the one it starts from, then the one after
        # each presentation. In memory, u of one state runs on into c of
        # the next.
        self.states = np.zeros((block + 1, self.U + d, n + 1))
        self.states[:, self.ONE, n] = 1.0
        r = np.zeros(n) if self.ideal else circuit.r
        u = bundle.weights - self.w0
        first = self.states[0]
        first[self.R, n] = r.mean()
        first[self.R, :n] = r - first[self.R, n]
        first[self.INH, n] = circuit.r_inh
        first[self.U:, n] = u.mean(axis=0)
        first[self.U:, :n] = (u - first[self.U:, n]).T
        # the weight maps [dec I | x_hat]; only their diagonal and last
        # column change
        self.updates = np.zeros((block, d, d + 1))
        self.w0_t = self.w0.T.copy()
        self.snap = np.empty((block, d, n))     # weights after each presentation
        # each presentation's operands: its state, the next one's (c, r),
        # the means' column and the next one's (c, r, r_inh) in it, (u, c)
        # running on into the next state, and the next one's u
        height = self.U + d
        flat = self.states.reshape(-1, n + 1)
        self.operands = [
            (self.states[j], self.states[j + 1, :2], self.states[j, :, n],
             self.states[j + 1, :3, n], flat[j * height + self.U:(j + 1) * height + 1],
             self.states[j + 1, self.U:])
            for j in range(block)]

    def maps(self, xs, etas, hs, decs):
        """The block's maps: (c, r) of the next state for the neurons,
        (m, 2, D+5); (c, r, r_inh) for the means, (m, 3, D+5); u of the
        next state from (u, c), (m, D, D+1); and the inputs' z0, (m, N)."""
        m, d = xs.shape
        s = np.sqrt(np.matmul(xs[:, None, :], xs[:, :, None]))[:, 0, 0]
        x_hats = xs / np.where(s == 0.0, 1.0, s)[:, None]
        z0 = np.matmul(self.w0[None], xs[:, :, None])[..., 0]
        step = _euler_step_matrix(self.c, s, np.array(hs), self.gamma, self.alpha, self.b)
        # the deviations' step is the means' with r_inh and 1 cut off; the
        # settled limit's means take no step
        steps = [step * _DEVIATION_MASK] + ([] if self.ideal else [step])
        powers = np.linalg.matrix_power(np.stack(steps), self.steps)
        decs = np.array(decs)
        if self.terminal:
            # then w <- w - eta (settled x + gamma (w - w0)): the plasticity
            # half of an Euler step at gain eta, from the settled rates (at
            # alpha = inf, from the centered drive)
            etas = np.array(etas)
            settle = _euler_step_matrix(float(self.ideal), s, etas, self.gamma,
                                        self.alpha, self.b)
            settles = [settle * _DEVIATION_MASK] + ([] if self.ideal else [settle])
            powers = np.matmul(np.stack(settles), powers)
            decs = decs * (1.0 - etas * self.gamma)
        if self.ideal:
            # the settled limit carries no rates, and its mean weight
            # difference only decays
            powers[0, :, 0] = 0.0
            powers[0, :, :, 0] = 0.0
            mean = _EYE5[None].repeat(m, 0)
            mean[:, 1, 1] = decs
            powers = np.stack((powers[0], mean))
        # u moves by c x_hat, c = a_end - dec a with a = x_hat . u
        powers[:, :, 1, 1] -= decs
        rows = np.zeros((2, m, 3, self.U + d))
        outputs = powers[:, :, (1, 0, 2)]
        rows[..., 1:self.U] = outputs[..., self.STEP_OF[1:]]
        np.multiply(outputs[..., 1:2], x_hats[:, None, :], out=rows[..., self.U:])
        updates = self.updates[:m]
        updates.reshape(m, d * (d + 1))[:, ::d + 2] = decs[:, None]
        updates[:, :, d] = x_hats
        return rows[0, :, :2], rows[1], updates, z0

    def block(self, xs, etas, hs, decs):
        n, run, states = self.n, len(decs), self.states
        dev_maps, mean_maps, updates, z0 = self.maps(xs, etas, hs, decs)
        now, after = states[:run], states[1:run + 1]
        now[:, self.Z0, n] = np.add.reduce(z0, axis=1) / n
        np.subtract(z0, now[:, self.Z0, n:], out=now[:, self.Z0, :n])
        for dev_map, mean_map, update, (state, dev_out, mean, mean_out, u_c, u_out) in zip(
                dev_maps, mean_maps, updates, self.operands):
            np.dot(dev_map, state, out=dev_out)
            np.matmul(mean_map, mean, out=mean_out)
            np.dot(update, u_c, out=u_out)
        rates = after[:, self.R, :n] + after[:, self.R, n:]
        r_inhs = after[:, self.INH, n].copy()
        # each presentation's weights w0 + (mean u + (u_i - mean u))
        ws = self.snap[:run]
        np.add(after[:, self.U:, :n], after[:, self.U:, n:], out=ws)
        ws += self.w0_t
        states[0] = states[run]
        return ws.transpose(0, 2, 1), rates, r_inhs


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
