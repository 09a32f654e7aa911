"""Sleep-phase weight equalization.

A group of N neurons with private weight vectors w_i (rows of W) sees a
common input x each iteration and moves toward the group mean under

    dw_i = -eta * [ (z_i - c * mean_j z_j) * x_i  +  gamma * (w_i - w_i_init) ]

with z_i = w_i . x_i, x_i = x (plus optional per-neuron noise), and
c = alpha / (1 + alpha) for finite lateral inhibition strength alpha
(c = 1 in the idealized limit). The decay anchor to the initial weights
bounds how far the group can equalize; the best attainable diagnostic is
neg_log_snr_floor(gamma).

The runner `sleep_run` takes S cells (bundle, config, random stream)
whose bundles share one shape and whose configs differ at most in gamma,
and advances them as one (S, N, D) stack: each iteration draws every
cell's input from that cell's own stream, makes one `sleep_step` on the
stack with gamma as an (S, 1, 1) array, and one `neg_log_snr` of the
stack. Every reduction runs along one cell's own axis in the order a
single (N, D) cell uses, so each cell's trajectory is bitwise what it is
when run alone; one cell is the S = 1 case. `noise_floor_run` stacks its
per-stream cells the same way.

The snr diagnostic reduces a neuron-major (N, S, D) layout: its sums
over the leading neuron axis add whole (S, D) rows in turn, the order
np.mean uses on one (N, D) cell, without strided D-wide inner loops. A
cell-major stack is copied into that layout once per call; a stack laid
out neuron-major (the rate runner's snapshots) is read in place. For
D = 1, np.mean sums the contiguous neuron axis pairwise, so that case
reduces a cell-major copy instead and keeps those bits.

Also here: closed-form fixed points of the averaged dynamics (unbiased
and finite-alpha), deterministic full-batch descent used to cross-check
them, instant grid-mean projection for layers, patch-stack sharing, and
the fixed-input harness that exposes the 1/k decay and sigma^2 noise
floor of the stochastic iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DivergenceError, ShapeError
from .mathcore import RngStream, solve_spd
from .topology import LocalLayer, generate_pattern, grid_slices, padded_windows

__all__ = [
    "NEG_LOG_SNR_CONVERGED",
    "NEG_LOG_SNR_ZERO_MEAN",
    "WeightBundle",
    "Schedule",
    "SleepConfig",
    "SleepResult",
    "bias_coefficient",
    "sleep_step",
    "sleep_run",
    "snr",
    "neg_log_snr",
    "neg_log_snr_floor",
    "fixed_point",
    "full_batch_descent",
    "descent_step_cap",
    "instant_share",
    "share_kernel_grid_means",
    "kernel_grid_neg_log_snr",
    "layer_sleep_run",
    "patch_share",
    "noise_floor_run",
    "NoiseFloorResult",
    "loglog_slope",
]

# Finite stand-ins for +-inf so trajectory CSVs stay parseable.
# -1000.0 marks exact convergence (zero across-neuron variance, snr = inf);
# +1000.0 marks the degenerate zero-mean case (snr = 0). Both sit far
# outside the reachable range (floors are > -14 for gamma >= 1e-3).
NEG_LOG_SNR_CONVERGED = -1000.0
NEG_LOG_SNR_ZERO_MEAN = 1000.0


# ---------------------------------------------------------------------------
# diagnostics


def _as_stack(w) -> Tuple[np.ndarray, bool]:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim not in (2, 3):
        raise ShapeError(f"expected (N, D) or a stack (S, N, D), got {w.shape}")
    return (w, True) if w.ndim == 3 else (w[None], False)


# A column whose rows all hold one value v has a computed mean within
# n * eps * |v| of v, so its variance is at most (n * eps * mean)^2.
_EPS = float(np.finfo(np.float64).eps)


def _snr_stack(w: np.ndarray) -> np.ndarray:
    """snr of each (N, D) cell of an (S, N, D) stack.

    The sums run over a neuron-major (N, S, D) layout: w's own memory when
    w is the transposed view of a C-contiguous (N, S, D) array, else one
    copy, which the squared deviations then overwrite. One sum over the
    neurons gives both the mean and the variance. Adding whole (S, D)
    rows neuron by neuron is the order np.mean and np.var use on one
    (N, D) cell for D >= 2, so each cell's value is bitwise the one it
    has on its own. For D = 1 they sum a contiguous neuron axis pairwise,
    so that case reduces a cell-major copy instead.

    A column counts as zero-variance when its rows are exactly equal,
    whatever rounding error its computed variance holds: only the
    columns whose variance is within that error are compared, on w
    itself, which is never overwritten. A variance that underflows to
    zero counts too.
    """
    n, d = w.shape[1], w.shape[2]
    if d == 1:
        wn = scratch = w.copy()
        axis = 1
    else:
        wn = w.transpose(1, 0, 2)
        if wn.flags.c_contiguous:
            scratch = np.empty(wn.shape)
        else:
            wn = scratch = np.ascontiguousarray(wn)
        axis = 0
    means = np.add.reduce(wn, axis=axis, keepdims=True)
    means /= n
    sq = np.subtract(wn, means, out=scratch)
    np.multiply(sq, sq, out=sq)
    variances = np.add.reduce(sq, axis=axis)  # population variance
    variances /= n
    means = means.squeeze(axis)
    ratio = means * means
    zero = variances <= ratio * (n * _EPS) ** 2
    if zero.any():
        zero &= (variances == 0.0) | (w == w[:, :1]).all(axis=1)
        if zero.any():
            return _snr_flat_columns(means, variances, zero)
    ratio /= variances
    return np.add.reduce(ratio, axis=1) / d


def _snr_flat_columns(means, variances, zero) -> np.ndarray:
    out = np.empty(len(means))
    for i, (m, v, z) in enumerate(zip(means, variances, zero)):
        if z.all() or np.any(m[z] != 0.0):
            out[i] = math.inf
        else:
            # 0/0 coordinates carry no signal either way; drop them
            m, v = m[~z], v[~z]
            out[i] = np.mean(m * m / v)
    return out


def snr(w: np.ndarray):
    """Mean over coordinates of (across-neuron mean)^2 / across-neuron
    variance: a float for one (N, D) group, one value per cell for an
    (S, N, D) stack. inf where the rows agree exactly."""
    stack, many = _as_stack(w)
    vals = _snr_stack(stack)
    return vals if many else float(vals[0])


def neg_log_snr(w: np.ndarray):
    """-log snr with finite sentinels, per cell for an (S, N, D) stack.

    A stack that is the transposed view of a C-contiguous (N, S, D) array
    is read in place; any other is copied neuron-major first (see
    `_snr_stack`). A cell holding a non-finite weight gives nan or the
    converged sentinel (its snr is nan or inf).
    """
    stack, many = _as_stack(w)
    vals = [NEG_LOG_SNR_CONVERGED if math.isinf(s) else
            NEG_LOG_SNR_ZERO_MEAN if s <= 0.0 else -math.log(s)
            for s in _snr_stack(stack).tolist()]
    return np.array(vals) if many else vals[0]


def _maybe_nonfinite(neg_log: np.ndarray) -> bool:
    """Whether some cell of a neg_log_snr row may hold a non-finite weight:
    only then is a full check of the weights needed. nan and the converged
    sentinel both fail the comparison."""
    return not (neg_log > NEG_LOG_SNR_CONVERGED).all()


def neg_log_snr_floor(gamma: float) -> float:
    """Best attainable -log snr under decay strength gamma: the anchor
    keeps a gamma/(1+gamma) share of the initial spread."""
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    return 2.0 * math.log(gamma / (1.0 + gamma))


def bias_coefficient(alpha: float) -> float:
    # c = alpha/(1+alpha); the idealized rule is the alpha -> inf limit
    if math.isinf(alpha):
        return 1.0
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0 or inf, got {alpha}")
    return alpha / (1.0 + alpha)


# ---------------------------------------------------------------------------
# bundles and configuration


@dataclass
class WeightBundle:
    """N weight vectors plus the frozen snapshot they are anchored to; or,
    with (S, N, D) arrays, a stack of S such bundles."""

    weights: np.ndarray
    init: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.init = np.asarray(self.init, dtype=np.float64)
        if self.weights.ndim not in (2, 3) or self.weights.shape != self.init.shape:
            raise ShapeError(
                f"bundle needs matching (N, D) or (S, N, D) arrays, "
                f"got {self.weights.shape} and {self.init.shape}")

    @classmethod
    def from_rng(cls, rng: np.random.Generator, n: int, d: int, mean: float = 1.0,
                 std: float = 1.0) -> "WeightBundle":
        w = rng.normal(mean, std, size=(n, d))
        return cls(w, w.copy())

    @property
    def n(self) -> int:
        return self.weights.shape[-2]

    @property
    def d(self) -> int:
        return self.weights.shape[-1]


@dataclass(frozen=True)
class Schedule:
    """Learning-rate schedule eta_k, declarative so runs can echo it.

    kinds: "constant" (a), "inverse_time" (a / (b + k)),
    "inverse_sqrt" (a / sqrt(1 + k / b), zero before warmup).
    """

    KINDS = ("constant", "inverse_time", "inverse_sqrt")

    kind: str
    a: float
    b: float = 1.0
    warmup: int = 0

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        # Python floats, so step sizes are too: a numpy scalar would make
        # an overflowing decay power in rate_sleep_run a silent inf, not
        # the OverflowError it reports
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))

    def __call__(self, k: int) -> float:
        if self.kind == "constant":
            return self.a
        if self.kind == "inverse_time":
            return self.a / (self.b + k)
        if k < self.warmup:
            return 0.0
        return self.a / math.sqrt(1.0 + k / self.b)


@dataclass
class SleepConfig:
    gamma: float
    schedule: Schedule
    iterations: int
    momentum: float = 0.0
    input_mean: float = 1.0
    input_std: float = 1.0
    sigma: float = 0.0          # per-neuron input noise
    alpha: float = math.inf     # lateral inhibition strength


@dataclass
class SleepResult:
    trajectory: np.ndarray      # -log snr after each iteration
    initial: float
    bundle: WeightBundle

    @property
    def terminal(self) -> float:
        return float(self.trajectory[-1]) if len(self.trajectory) else self.initial


# ---------------------------------------------------------------------------
# dynamics


def sleep_step(bundle: WeightBundle, x, gamma, eta: float,
               alpha: float = math.inf, momentum: float = 0.0,
               velocity: Optional[np.ndarray] = None) -> np.ndarray:
    """One update of every neuron in the bundle, in place.

    For an (N, D) bundle, x is one shared input (D,) or per-neuron inputs
    (N, D). For an (S, N, D) stack, x is one shared input per cell (S, D)
    or per-neuron inputs (S, N, D), and gamma may differ per cell as an
    (S, 1, 1) array. Returns the heavy-ball velocity, updated in place
    when one is passed in; pass it back to continue a momentum run.
    """
    w, w0 = bundle.weights, bundle.init
    x = np.asarray(x, dtype=np.float64)
    if w.ndim == 2:
        w, w0, x = w[None], w0[None], x[None]
    shared = x.shape == (w.shape[0], w.shape[2])
    if not shared and x.shape != w.shape:
        raise ShapeError(f"x must be one input or one per neuron for a bundle of shape "
                         f"{bundle.weights.shape}, got {x.shape}")
    n = w.shape[1]
    c = bias_coefficient(alpha)
    z = np.einsum("snd,sd->sn" if shared else "snd,snd->sn", w, x)
    zbar = np.add.reduce(z, axis=1, keepdims=True)
    zbar /= n
    z -= c * zbar
    # velocity <- momentum * velocity - (dev * x + gamma * (w - w0))
    pull = w - w0
    pull *= gamma
    push = np.einsum("sn,sd->snd", z, x) if shared else z[:, :, None] * x
    push += pull
    if velocity is None:
        velocity = np.zeros_like(bundle.weights)
    v = velocity if velocity.ndim == 3 else velocity[None]
    v *= momentum
    v -= push
    np.multiply(v, eta, out=push)
    w += push
    return velocity


def _check_finite(w: np.ndarray, run: str, iteration: int) -> None:
    """Raises DivergenceError naming the first cell of the (S, N, D) stack
    w that holds a non-finite weight."""
    if not np.isfinite(w).all():
        cell = int(np.argmin(np.isfinite(w).all(axis=(1, 2))))
        raise DivergenceError(f"non-finite weights in {run}",
                              f"cell {cell}, iteration {iteration}", cell=cell)


# Iterations whose noiseless inputs one draw per cell gives.
_DRAW_BLOCK = 32


def sleep_run(bundles: Sequence[WeightBundle], configs: Sequence[SleepConfig],
              rngs: Sequence[np.random.Generator]) -> List[SleepResult]:
    """Run the stochastic equalization of S same-shape cells as one
    (S, N, D) stack, for config.iterations steps.

    Cell i has its own bundle, config and random stream; the configs may
    differ only in gamma. Each iteration draws every cell's input from
    that cell's own stream, in the order a run of the cell alone would;
    with sigma > 0 every neuron then sees its own noisy copy. Records
    -log snr after every step. Each cell's trajectory and weights are
    bitwise those of the cell run on its own (S = 1), and the bundles'
    weights are updated in place.

    Without noise a cell draws the inputs of `_DRAW_BLOCK` iterations in
    one call, which gives the same numbers as one draw per iteration. The
    weights are checked for non-finite values only when the -log snr row
    is nan or the converged sentinel, which every cell holding one gives.
    """
    if not len(bundles) == len(configs) == len(rngs) > 0:
        raise ValueError("sleep_run needs one config and one rng per bundle")
    config = configs[0]
    if any(replace(c, gamma=config.gamma) != config for c in configs):
        raise ValueError("stacked sleep cells may differ only in gamma")
    stack = WeightBundle(np.stack([b.weights for b in bundles]),
                         np.stack([b.init for b in bundles]))
    s, n, d = stack.weights.shape
    gamma = np.array([c.gamma for c in configs])[:, None, None]
    mean, std = config.input_mean, config.input_std
    noisy = config.sigma > 0
    if noisy:
        x = np.empty((s, n, d))
    else:
        xs = np.empty((s, min(_DRAW_BLOCK, config.iterations), d))
    velocity = None
    traj = np.empty((s, config.iterations))
    initial = neg_log_snr(stack.weights)
    # DivergenceError reports a blow-up; numpy's warnings would bury it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.iterations):
            if noisy:
                for i, gen in enumerate(rngs):
                    xi = gen.normal(mean, std, size=d)
                    gen.standard_normal(out=x[i])
                    x[i] *= config.sigma
                    x[i] += xi
            else:
                j = k % _DRAW_BLOCK
                if j == 0:
                    m = min(_DRAW_BLOCK, config.iterations - k)
                    for i, gen in enumerate(rngs):
                        xs[i, :m] = gen.normal(mean, std, size=(m, d))
                x = xs[:, j]
            velocity = sleep_step(stack, x, gamma, config.schedule(k),
                                  alpha=config.alpha, momentum=config.momentum,
                                  velocity=velocity)
            row = traj[:, k] = neg_log_snr(stack.weights)
            if _maybe_nonfinite(row):
                _check_finite(stack.weights, "sleep run", k)
    for bundle, w in zip(bundles, stack.weights):
        bundle.weights[...] = w
    return [SleepResult(trajectory=t, initial=float(i0), bundle=b)
            for t, i0, b in zip(traj, initial, bundles)]


# ---------------------------------------------------------------------------
# fixed points


def _empirical_cov(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"inputs must be (M, D), got {x.shape}")
    return x.T @ x / x.shape[0]


def fixed_point(w_init: np.ndarray, inputs: np.ndarray, gamma: float,
                alpha: float = math.inf) -> np.ndarray:
    """Stationary weights of the averaged dynamics over the given input
    set, under inhibition strength alpha (the idealized rule at inf).

    The group mean contracts to wbar* = gamma ((1/(1+alpha)) C + gamma I)^-1
    mu_init, which is mu_init itself at alpha = inf, and each row solves
    (C + gamma I) w* = gamma w_init + c C wbar*, c = alpha/(1+alpha).
    """
    w_init = np.asarray(w_init, dtype=np.float64)
    cov = _empirical_cov(inputs)
    d = cov.shape[0]
    c = bias_coefficient(alpha)
    mu = w_init.mean(axis=0)
    if math.isinf(alpha):
        wbar = mu
    else:
        wbar = gamma * solve_spd(cov / (1.0 + alpha) + gamma * np.eye(d), mu)
    rhs = gamma * w_init.T + (c * (cov @ wbar))[:, None]
    return solve_spd(cov + gamma * np.eye(d), rhs).T


def descent_step_cap(inputs: np.ndarray, gamma: float) -> float:
    """Step size guaranteeing contraction of the full-batch iteration."""
    cov = _empirical_cov(inputs)
    lam = float(np.linalg.eigvalsh(cov)[-1])
    return 1.0 / (lam + gamma)


def _averaged_gradient(w: np.ndarray, w0: np.ndarray, cov: np.ndarray, c: float,
                       gamma: float) -> np.ndarray:
    """Gradient of the averaged objective at w, anchored at w0, with
    input covariance cov and inhibition coefficient c; zero at the
    closed-form fixed points."""
    return (w - c * w.mean(axis=-2, keepdims=True)) @ cov + gamma * (w - w0)


# full_batch_descent stops once a step moves no weight by more than
# _DESCENT_TOL of the largest initial one (at least 1), or after
# _DESCENT_MAX_ITERS steps.
_DESCENT_TOL = 1e-13
_DESCENT_MAX_ITERS = 200_000


def full_batch_descent(w_init: np.ndarray, inputs: np.ndarray, gamma: float,
                       alpha: float = math.inf) -> np.ndarray:
    """Deterministic descent of the averaged objective over a fixed input
    set, at the step size `descent_step_cap`; converges to the
    corresponding closed-form fixed point. w_init is one (N, D) group or
    an (S, N, D) stack of groups, all driven by the same inputs (the stop
    test then covers the whole stack)."""
    w = np.asarray(w_init, dtype=np.float64).copy()
    w0 = w.copy()
    cov = _empirical_cov(inputs)
    c = bias_coefficient(alpha)
    eta = descent_step_cap(inputs, gamma)
    scale = max(1.0, float(np.abs(w).max()))
    for _ in range(_DESCENT_MAX_ITERS):
        grad = _averaged_gradient(w, w0, cov, c, gamma)
        w -= eta * grad
        if np.abs(grad).max() * eta < _DESCENT_TOL * scale:
            break
    return w


# ---------------------------------------------------------------------------
# layer-level sharing


def share_kernel_grid_means(kernels: np.ndarray, k: int,
                            scale_by_group: bool = False) -> np.ndarray:
    """Project per-position kernels (indexed (out, in, y, x, ky, kx))
    onto their grid means; ragged edge grids (H, W not multiples of k)
    just average fewer members. With scale_by_group the mean is further
    divided by the grid's member count, the right pooling for
    squared-gradient statistics (the variance of a mean of G independent
    gradients is ~1/G of one position's)."""
    out = np.array(kernels, dtype=np.float64, copy=True)
    for ys, xs in grid_slices(k):
        sel = out[:, :, ys, xs]
        # centered form: exact (bitwise) when the grid already agrees,
        # which is what makes repeated sharing a true projection
        ref = sel[:, :, :1, :1]
        mean = ref + (sel - ref).mean(axis=(2, 3), keepdims=True)
        if scale_by_group:
            mean = mean / (sel.shape[2] * sel.shape[3])
        out[:, :, ys, xs] = mean
    return out


def instant_share(layer: LocalLayer) -> LocalLayer:
    """Set every kernel to its grid mean, in place. Idempotent, and the
    per-grid total weight mean is preserved exactly."""
    layer.weights = share_kernel_grid_means(layer.weights, layer.kernel)
    return layer


def kernel_grid_neg_log_snr(kernels: np.ndarray, k: int) -> float:
    """-log snr of a position-indexed kernel tensor: each grid is one
    group (rows = positions, features = flattened kernel), averaged over
    the k^2 grids. Converged grids contribute the finite sentinel."""
    vals = []
    for ys, xs in grid_slices(k):
        sel = kernels[:, :, ys, xs]
        o, ci, gh, gw, kh, kw = sel.shape
        rows = sel.transpose(2, 3, 0, 1, 4, 5).reshape(gh * gw, o * ci * kh * kw)
        vals.append(neg_log_snr(rows))
    return float(np.mean(vals))


def layer_sleep_run(layer: LocalLayer, config: SleepConfig, rng: RngStream):
    """Equalize a 2-D LocalLayer's kernels by presenting k-periodic patterns.

    Iteration t activates input grid (t mod k^2); every output position
    in one output grid then sees identical receptive content, so each
    output grid's kernels form one (out, P, C_in*k*k) bundle: P positions
    per out channel, all driven by that content. Receptive fields are
    taken with circular padding, where that equality is exact. The layer's
    weights are written back once, at the end.
    Returns rows (iteration, grid_index, neg_log_snr) for all grids.
    """
    k, o, c = layer.kernel, layer.out_channels, layer.in_channels
    height, width = layer.height, layer.width
    if height < k or width < k:
        # a side shorter than k leaves some grid without a member
        raise ValueError(f"layer_sleep_run needs a 2-D layer at least k = {k} positions "
                         f"high and wide, got {height}x{width}")
    gen = rng.generator()
    grids = grid_slices(k)
    bundles = []
    for ys, xs in grids:
        w = np.array(layer.weights[:, :, ys, xs].transpose(0, 2, 3, 1, 4, 5))
        w = w.reshape(o, -1, c * k * k)
        bundles.append(WeightBundle(w, w.copy()))
    velocities: List[Optional[np.ndarray]] = [None] * len(grids)
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(config.iterations):
            planes = [
                generate_pattern(gen.normal(0.0, 1.0, (k, k)), t % len(grids), height, width)
                * config.input_std + config.input_mean
                for _ in range(c)
            ]
            win = padded_windows(np.stack(planes), k, k // 2, "circular")  # (C, H, W, k, k)
            eta = config.schedule(t)
            for g, ((ys, xs), bundle) in enumerate(zip(grids, bundles)):
                # the grid's shared receptive content, at its first member
                x = win[:, ys.start, xs.start].reshape(-1)
                velocities[g] = sleep_step(bundle, np.broadcast_to(x, (o, bundle.d)),
                                           config.gamma, eta, alpha=config.alpha,
                                           momentum=config.momentum, velocity=velocities[g])
            if not all(np.isfinite(b.weights).all() for b in bundles):
                raise DivergenceError("non-finite weights in layer sleep run", f"iteration {t}")
            for g, b in enumerate(bundles):
                # one group per grid: rows are positions, all out channels' kernels the features
                rows.append((t, g, neg_log_snr(b.weights.transpose(1, 0, 2).reshape(b.n, -1))))
    for (ys, xs), bundle in zip(grids, bundles):
        view = layer.weights[:, :, ys, xs]
        back = bundle.weights.reshape(o, *view.shape[2:4], c, k, k)
        view[...] = back.transpose(0, 3, 1, 2, 4, 5)
    return rows


# ---------------------------------------------------------------------------
# patch-stack sharing


def patch_share(stack: np.ndarray, gamma: float, rng: np.random.Generator) -> np.ndarray:
    """Equalize matching columns of a stack of patch matrices (P, D, K):
    column j across the P patches forms one group, all groups driven by
    the same identity-covariance input set, drawn from rng. With
    gamma -> 0 the result is the element-wise mean of the patches."""
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ShapeError(f"patch stack must be (P, D, K), got {stack.shape}")
    d = stack.shape[1]
    inputs = rng.standard_normal((max(4 * d, 32), d))
    w = full_batch_descent(stack.transpose(2, 0, 1), inputs, gamma)
    return w.transpose(1, 2, 0)


# ---------------------------------------------------------------------------
# fixed-input stochastic harness (decay rate and noise floor)


@dataclass
class NoiseFloorResult:
    dist_sq: np.ndarray
    w_star: np.ndarray
    plateau: float


def noise_floor_run(n: int, d: int, m: int, gamma: float, sigma: float,
                    a: float, b: float, iterations: int, rngs: Sequence[RngStream],
                    w_init_mean: float = 0.0, w_init_std: float = 1.0,
                    input_mean: float = 1.0, input_std: float = 1.0) -> List[NoiseFloorResult]:
    """Stochastic full-batch equalization against a frozen input set,
    tracking ||W_k - W*||_F^2 with eta_k = a / (b + k).

    One cell per stream, all run as one (S, N, D) stack; each cell draws
    its weights, inputs and noise from its own stream, so its result is
    bitwise that of the cell run on its own. The base gradient is
    deterministic (all M inputs each step), so with sigma = 0 the
    distance contracts at the 1/k envelope of the schedule; sigma > 0
    injects fresh per-neuron-per-input noise whose variance sets the
    plateau. W* is the noiseless fixed point.
    """
    gens = [r.generator() for r in rngs]
    w_init, x = [], []
    for gen in gens:
        w_init.append(gen.normal(w_init_mean, w_init_std, size=(n, d)))
        x.append(gen.normal(input_mean, input_std, size=(m, d)))
    w_star = np.stack([fixed_point(w0, xs, gamma) for w0, xs in zip(w_init, x)])
    w_init, x = np.stack(w_init), np.stack(x)
    cov = x.transpose(0, 2, 1) @ x / m
    w = w_init.copy()
    dist_sq = np.empty((len(gens), iterations))
    for k in range(iterations):
        eta = a / (b + k)
        if sigma > 0:
            xi = np.stack([x[i][None, :, :] + sigma * gen.standard_normal((n, m, d))
                           for i, gen in enumerate(gens)])
            z = np.einsum("snd,snmd->snm", w, xi)
            upd = np.einsum("snm,snmd->snd", z - z.mean(axis=1, keepdims=True), xi) / m
            w -= eta * (upd + gamma * (w - w_init))
        else:
            w -= eta * _averaged_gradient(w, w_init, cov, 1.0, gamma)
        _check_finite(w, "noise-floor run", k)
        diff = w - w_star
        dist_sq[:, k] = np.add.reduce((diff * diff).reshape(len(gens), -1), axis=1)
    tail = max(1, iterations // 5)
    return [NoiseFloorResult(dist_sq=dsq, w_star=ws, plateau=float(dsq[-tail:].mean()))
            for dsq, ws in zip(dist_sq, w_star)]


def loglog_slope(dist_sq: np.ndarray) -> float:
    """Log-log slope of a decay trajectory over its mid-range, from a
    tenth to a half of it."""
    kmax = len(dist_sq)
    lo = max(1, int(0.1 * kmax))
    hi = max(lo + 2, int(0.5 * kmax))
    # entry i holds the value after update i + 1
    ks = np.arange(lo, hi) + 1.0
    return float(np.polyfit(np.log(ks), np.log(dist_sq[lo:hi]), 1)[0])
