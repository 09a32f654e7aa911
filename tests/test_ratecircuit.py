import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sleepshare as ss
from sleepshare.errors import DivergenceError
from sleepshare.mathcore import RngStream


def make_circuit(**kw):
    args = dict(tau=30.0, alpha=10.0, b=1.0, dt=1.0, present_ms=150.0)
    args.update(kw)
    return ss.RateCircuit(**args)


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_circuit(tau=0.0)
    with pytest.raises(ValueError):
        make_circuit(dt=-1.0)
    with pytest.raises(ValueError):
        make_circuit(dt=4.0)  # > tau/10
    with pytest.raises(ValueError):
        make_circuit(present_ms=151.5)
    for bad in (dict(present_ms=0.0), dict(present_ms=-150.0),
                dict(present_ms=math.inf), dict(tau=math.nan), dict(tau=math.inf),
                dict(b=math.nan), dict(dt=math.nan),
                dict(present_ms=1e-300)):  # a presentation of no Euler step
        with pytest.raises(ValueError):
            make_circuit(**bad)


def test_steps_per_presentation():
    assert make_circuit().steps_per_presentation == 150
    assert make_circuit(dt=3.0, present_ms=150.0).steps_per_presentation == 50


def test_rate_step_rejects_infinite_alpha():
    c = make_circuit(alpha=math.inf)
    c.reset(4)
    with pytest.raises(ValueError):
        ss.rate_step(c, np.ones(4))


def test_fixed_point_formula():
    c = make_circuit(alpha=10.0, b=0.5)
    drive = np.array([3.0, 1.0, 2.0])
    m = 2.0
    expect = 0.5 + drive - m + m / 11.0
    assert np.abs(ss.rate_fixed_point(c, drive) - expect).max() < 1e-15
    c_inf = make_circuit(alpha=math.inf, b=0.5)
    assert np.abs(ss.rate_fixed_point(c_inf, drive) - (0.5 + drive - m)).max() < 1e-15


def test_fixed_point_is_stationary():
    c = make_circuit()
    drive = np.array([2.0, -1.0, 0.5, 4.0])
    c.reset(4)
    c.r = ss.rate_fixed_point(c, drive)
    c.r_inh = drive.mean() / (1.0 + c.alpha)
    before = c.r.copy()
    ss.rate_step(c, drive)
    assert np.abs(c.r - before).max() < 1e-12


def test_settles_from_reset():
    c = make_circuit(present_ms=900.0)  # 30 tau
    drive = np.array([2.0, -1.0, 0.5, 4.0])
    c.reset(4)
    for _ in range(c.steps_per_presentation):
        ss.rate_step(c, drive)
    assert np.abs(c.r - ss.rate_fixed_point(c, drive)).max() < 1e-9


def test_divergence_reports_sim_time():
    c = make_circuit()
    c.reset(3)
    with pytest.raises(DivergenceError) as exc:
        ss.rate_step(c, np.array([np.inf, 0.0, 0.0]))
    assert "ms" in str(exc.value)


def test_settled_deviation_matches_biased_update():
    # after a long presentation the settled rule equals one biased step
    gen = RngStream(0, (40,)).generator()
    bundle = ss.WeightBundle.from_rng(gen, 12, 9)
    twin = ss.WeightBundle(bundle.weights.copy(), bundle.init.copy())
    x = gen.normal(1.0, 1.0, 9)

    c = make_circuit(present_ms=900.0)
    cfg = ss.SleepConfig(gamma=1e-2, schedule=ss.Schedule("constant", 1e-3),
                         iterations=1, alpha=10.0)
    fixed_gen = FixedDraw(x)
    ss.rate_sleep_run(bundle, c, cfg, fixed_gen, plasticity="terminal")

    ss.sleep_step(twin, x, gamma=1e-2, eta=1e-3, alpha=10.0)
    assert np.abs(bundle.weights - twin.weights).max() < 1e-6


class FixedDraw:
    """Stands in for a Generator, returning a fixed vector once, as one
    draw of size d or as a block of one row, size (1, d)."""

    def __init__(self, x):
        self.x = x
        self.drawn = False

    def normal(self, mean, std, size):
        assert not self.drawn and size in (self.x.shape[0], (1, self.x.shape[0]))
        self.drawn = True
        return self.x.reshape(size).copy()


def test_mode_and_plasticity_validation():
    gen = np.random.default_rng(0)
    bundle = ss.WeightBundle.from_rng(gen, 5, 4)
    cfg = ss.SleepConfig(gamma=1e-2, schedule=ss.Schedule("constant", 1e-4),
                         iterations=1)
    with pytest.raises(ValueError):
        ss.rate_sleep_run(bundle, make_circuit(), cfg, gen, plasticity="batch")


@pytest.mark.parametrize("eta,gamma,rate_const,dt", [
    (100.0, 1.0, 2.0, 1.0), (np.float64(100.0), 1.0, 2.0, 1.0),
    (100.0, np.float64(1.0), 2.0, 1.0), (100.0, 1.0, np.float64(2.0), 1.0),
    (100.0, 1.0, 2.0, np.float64(1.0))],
    ids=["float", "numpy-float", "numpy-float-gamma", "numpy-float-rate-const",
         "numpy-float-dt"])
def test_decay_overflow_reported_for_any_float_schedule(eta, gamma, rate_const, dt):
    # (1 - eta * gamma)^150 = (-99)^150 overflows a Python float with an
    # OverflowError; a numpy float step size, gamma, rate gain or Euler step
    # would overflow to inf silently
    gen = np.random.default_rng(0)
    bundle = ss.WeightBundle.from_rng(gen, 6, 9)
    schedule = ss.Schedule("constant", eta)
    assert type(schedule.a) is float and type(schedule.b) is float
    cfg = ss.SleepConfig(gamma=gamma, schedule=schedule, iterations=5)
    with pytest.raises(DivergenceError,
                       match=r"^weight decay factor overflowed \[presentation 0\]$"):
        ss.rate_sleep_run(bundle, make_circuit(dt=dt), cfg, gen, rate_const=rate_const)


def test_frac_nonneg_accounting():
    # equalized weights leave every settled rate at the bias, so the
    # nonnegative fraction is 1; a huge spread drives rates negative
    cfg = ss.SleepConfig(gamma=1e-3,
                         schedule=ss.Schedule("constant", 1e-6),
                         iterations=20, alpha=10.0)

    w = np.ones((40, 9))
    res = ss.rate_sleep_run(ss.WeightBundle(w.copy(), w.copy()),
                            make_circuit(b=1.0), cfg,
                            RngStream(0, (42,)).generator())
    assert res.frac_nonneg == 1.0
    assert len(res.trajectory) == 20

    gen = RngStream(0, (42,)).generator()
    wide = ss.WeightBundle.from_rng(gen, 40, 9, mean=0.0, std=50.0)
    res_wide = ss.rate_sleep_run(wide, make_circuit(b=1.0), cfg, gen)
    assert res_wide.frac_nonneg < 0.5


def test_ideal_ode_tracks_discrete_shape():
    # alpha = inf ode path applies the centered update at every Euler step;
    # trajectory must fall toward the floor like the discrete rule does
    gen = RngStream(0, (44,)).generator()
    bundle = ss.WeightBundle.from_rng(gen, 60, 9)
    cfg = ss.SleepConfig(gamma=1e-2,
                         schedule=ss.Schedule("inverse_sqrt", 3e-4, 2.0, warmup=10),
                         iterations=300, alpha=math.inf)
    res = ss.rate_sleep_run(bundle, make_circuit(alpha=math.inf), cfg, gen)
    assert res.trajectory[-1] < res.initial - 2.0


def euler_rate_sleep_run(bundle, circuit, config, gen, plasticity="continuous",
                         rate_const=2.0):
    """Reference for rate_sleep_run's ode mode: every presentation steps
    the circuit one forward-Euler step at a time with rate_step (alpha =
    inf: the centered update) and applies the plasticity at each step."""
    w, w0 = bundle.weights, bundle.init
    ideal = math.isinf(circuit.alpha)
    if not ideal:
        circuit.reset(bundle.n)
    gain = rate_const * circuit.dt
    traj = np.empty(config.iterations)
    nonneg = 0
    for k in range(config.iterations):
        x = gen.normal(config.input_mean, config.input_std, size=bundle.d)
        eta = config.schedule(k)

        def settled():
            if ideal:
                z = w @ x
                return z - z.mean()
            return circuit.r - circuit.b

        for _ in range(circuit.steps_per_presentation):
            if not ideal:
                ss.rate_step(circuit, w @ x)
            if plasticity == "continuous":
                w -= eta * gain * (settled()[:, None] * x[None, :]
                                   + config.gamma * (w - w0))
        if plasticity == "terminal":
            w -= eta * (settled()[:, None] * x[None, :] + config.gamma * (w - w0))
        if ideal or circuit.r.min() >= 0.0:
            nonneg += 1
        traj[k] = ss.neg_log_snr(w)
    return traj, nonneg / config.iterations


def propagator_and_oracle(alpha, plasticity, n, iterations, k=3):
    """Runs rate_sleep_run, then the Euler reference, on the same cell and
    stream; returns (output, bundle, circuit, generator) for each."""
    runs = []
    for runner in (ss.rate_sleep_run, euler_rate_sleep_run):
        gen = RngStream(0, (7, k, 1_000_000, 0)).generator()
        bundle = ss.WeightBundle.from_rng(gen, n, k * k)
        circuit = make_circuit(alpha=alpha)
        cfg = ss.SleepConfig(
            gamma=1e-3, schedule=ss.Schedule("inverse_sqrt", 3e-4, 2.0, warmup=50),
            iterations=iterations, alpha=alpha)
        out = runner(bundle, circuit, cfg, gen, plasticity=plasticity)
        runs.append((out, bundle, circuit, gen))
    return runs


def assert_matches_oracle(runs):
    (res, bundle, circuit, gen), ((traj, frac), ref_bundle, ref_circuit, ref_gen) = runs
    assert np.abs(res.trajectory - traj).max() <= 1e-9
    w_err = np.abs(bundle.weights - ref_bundle.weights).max()
    assert w_err <= 1e-9 * np.abs(ref_bundle.weights).max()
    assert res.frac_nonneg == frac
    if not math.isinf(circuit.alpha):
        assert np.abs(circuit.r - ref_circuit.r).max() <= 1e-9
        assert abs(circuit.r_inh - ref_circuit.r_inh) <= 1e-9
        assert circuit.t_ms == ref_circuit.t_ms
    # the same draws in the same order leave both streams at one position
    assert np.array_equal(gen.random(4), ref_gen.random(4))


@pytest.mark.parametrize("plasticity", ["continuous", "terminal"])
@pytest.mark.parametrize("alpha", [10.0, math.inf])
def test_propagator_matches_euler_oracle(alpha, plasticity):
    assert_matches_oracle(propagator_and_oracle(alpha, plasticity, n=10, iterations=200))


@pytest.mark.parametrize("plasticity", ["continuous", "terminal"])
@pytest.mark.parametrize("alpha", [10.0, math.inf])
def test_runner_matches_euler_oracle_at_k6(alpha, plasticity):
    # D = 36: the weight map is a (D, D+1) matrix, dense for every D
    assert_matches_oracle(propagator_and_oracle(alpha, plasticity, n=10, iterations=100,
                                                k=6))


@pytest.mark.slow
@pytest.mark.parametrize("alpha", [10.0, math.inf])
def test_propagator_matches_euler_oracle_on_criterion_cell(alpha):
    # the acceptance criterion-2 cell: N = 100, k = 3, 10 000 presentations
    assert_matches_oracle(propagator_and_oracle(alpha, "continuous",
                                                n=100, iterations=10_000))


def assert_diverges_at_first_presentation(alpha, k):
    gen = RngStream(0, (45,)).generator()
    bundle = ss.WeightBundle.from_rng(gen, 10, k * k)
    cfg = ss.SleepConfig(gamma=1e-3, schedule=ss.Schedule("constant", 1e3),
                         iterations=5, alpha=alpha)
    # pytest turns a RuntimeWarning into an error: the runner must not warn
    with pytest.raises(DivergenceError) as exc:
        ss.rate_sleep_run(bundle, make_circuit(alpha=alpha), cfg, gen)
    assert "presentation 0" in str(exc.value)


@pytest.mark.parametrize("alpha", [10.0, math.inf])
def test_propagator_divergence_names_presentation(alpha):
    assert_diverges_at_first_presentation(alpha, 3)


@pytest.mark.parametrize("alpha", [10.0, math.inf])
def test_divergence_names_presentation_at_k6(alpha):
    assert_diverges_at_first_presentation(alpha, 6)


def step_matrix(c, s, h, gamma, alpha, b):
    """One Euler step of (mean r, mean a, r_inh, mean z0, 1) for a single
    presentation: the rate update, then the plasticity update."""
    rates = np.eye(5)
    rates[0] = (1.0 - c, c * s, -c * alpha, c, c * b)
    rates[2] = (c, 0.0, 1.0 - c, 0.0, -c * b)
    plastic = np.eye(5)
    plastic[1] = (-h * s, 1.0 - h * gamma, 0.0, 0.0, h * s * b)
    return plastic @ rates


DEVIATION = np.ix_((0, 1, 3), (0, 1, 3))


def propagator_rate_sleep_run(bundle, circuit, config, gen, plasticity="continuous",
                              rate_const=2.0):
    """A second reference, which rounds otherwise than the shared map:
    draws, builds and powers each presentation's propagator on its own,
    applies it to each neuron's (r_i, a_i, z0_i) and rebuilds the weights
    from a_end, then checks for a decay overflow, non-finite rates and
    non-finite weights."""
    w, w0 = bundle.weights, bundle.init
    n, d = bundle.n, bundle.d
    ideal = math.isinf(circuit.alpha)
    if not ideal:
        circuit.reset(n)
    steps = circuit.steps_per_presentation
    c = 1.0 if ideal else circuit.dt / circuit.tau
    alpha = 0.0 if ideal else circuit.alpha
    gain = rate_const * circuit.dt if plasticity == "continuous" else 0.0
    traj = np.empty(config.iterations)
    nonneg = 0
    for k in range(config.iterations):
        x = gen.normal(config.input_mean, config.input_std, size=d)
        eta = config.schedule(k)
        h = eta * gain
        if h or not ideal:
            s = math.sqrt(float(x @ x))
            x_hat = x / s if s else x
            dw = w - w0
            dev = np.stack((np.zeros(n) if ideal else circuit.r, dw @ x_hat, w0 @ x))
            mean = dev.mean(axis=1)
            dev -= mean[:, None]
            step = step_matrix(c, s, h, config.gamma, alpha, circuit.b)
            dev_end = np.linalg.matrix_power(step[DEVIATION], steps) @ dev
            try:
                dec = (1.0 - h * config.gamma) ** steps
            except OverflowError:
                raise DivergenceError("weight decay factor overflowed",
                                      f"presentation {k}") from None
            if ideal:
                a_mean_end = dec * mean[1]
            else:
                mean_end = np.linalg.matrix_power(step, steps) @ (
                    mean[0], mean[1], circuit.r_inh, mean[2], 1.0)
                circuit.r[:] = mean_end[0] + dev_end[0]
                circuit.r_inh = float(mean_end[2])
                circuit.t_ms += steps * circuit.dt
                if not np.all(np.isfinite(circuit.r)) or not math.isfinite(circuit.r_inh):
                    raise DivergenceError("rate dynamics diverged",
                                          f"presentation {k}, t = {circuit.t_ms:.1f} ms")
                a_mean_end = mean_end[1]
            if h:
                dw *= dec
                dw += np.outer(a_mean_end - dec * mean[1] + dev_end[1] - dec * dev[1], x_hat)
                np.add(w0, dw, out=w)
        if plasticity == "terminal":
            if ideal:
                z = w @ x
                settled = z - z.mean()
            else:
                settled = circuit.r - circuit.b
            w -= eta * (settled[:, None] * x[None, :] + config.gamma * (w - w0))
        if ideal or circuit.r.min() >= 0.0:
            nonneg += 1
        if not np.all(np.isfinite(w)):
            raise DivergenceError("non-finite weights in rate sleep run", f"presentation {k}")
        traj[k] = ss.neg_log_snr(w)
    return traj, nonneg / config.iterations if config.iterations else 1.0


DEVIATION_MASK = np.zeros((5, 5))
DEVIATION_MASK[DEVIATION] = 1.0


def map_rows(powers, x_hat):
    """The rows that give (c, r, r_inh) of the next state from a state on
    (c, r, r_inh, 1, z0, u), from a map on (r, a, r_inh, z0, 1) whose a
    entry already has dec taken off."""
    rows = np.zeros((3, 5 + len(x_hat)))
    for i, t in enumerate((1, 0, 2)):
        rows[i, 1:5] = powers[t, [0, 2, 4, 3]]
        rows[i, 5:] = powers[t, 1] * x_hat
    return rows


def map_rate_sleep_run(bundle, circuit, config, gen, plasticity="continuous",
                       rate_const=2.0):
    """Reference for rate_sleep_run's shared per-neuron map: draws, builds
    and applies each presentation's maps on its own, to a state of
    (c, r, r_inh, 1, z0, u) rows with a column per neuron (its values less
    the means) and one for the means, then checks it for a decay overflow,
    non-finite rates and non-finite weights."""
    w, w0 = bundle.weights, bundle.init
    n, d = bundle.n, bundle.d
    ideal = math.isinf(circuit.alpha)
    if not ideal:
        circuit.reset(n)
    steps = circuit.steps_per_presentation
    c = 1.0 if ideal else circuit.dt / circuit.tau
    alpha = 0.0 if ideal else circuit.alpha
    gain = rate_const * circuit.dt if plasticity == "continuous" else 0.0
    terminal = plasticity == "terminal"
    # the state and the next one, u of the first running on into c of the next
    pair = np.zeros((2, 5 + d, n + 1))
    state, nxt = pair
    pair[:, 3, n] = 1.0
    r = np.zeros(n) if ideal else circuit.r
    state[1, n] = r.mean()
    state[1, :n] = r - state[1, n]
    state[2, n] = circuit.r_inh
    state[5:, n] = (w - w0).mean(axis=0)
    state[5:, :n] = ((w - w0) - state[5:, n]).T
    traj = np.empty(config.iterations)
    nonneg = 0
    for k in range(config.iterations):
        x = gen.normal(config.input_mean, config.input_std, size=d)
        eta = config.schedule(k)
        h = eta * gain
        try:
            dec = (1.0 - h * config.gamma) ** steps
        except OverflowError:
            raise DivergenceError("weight decay factor overflowed",
                                  f"presentation {k}") from None
        s = math.sqrt(float(x @ x))
        x_hat = x / s if s else x
        z0 = w0 @ x
        step = step_matrix(c, s, h, config.gamma, alpha, circuit.b)
        powers = np.linalg.matrix_power(np.stack((step * DEVIATION_MASK, step)), steps)
        if terminal:
            settle = step_matrix(1.0 if ideal else 0.0, s, eta, config.gamma, alpha,
                                 circuit.b)
            powers = np.stack((settle * DEVIATION_MASK, settle)) @ powers
            dec = dec * (1.0 - eta * config.gamma)
        if ideal:
            powers[0, 0] = 0.0
            powers[0, :, 0] = 0.0
            powers[1] = np.eye(5)
            powers[1, 1, 1] = dec
        powers[:, 1, 1] -= dec
        update = np.zeros((d, d + 1))
        update[:, :d] = dec * np.eye(d)
        update[:, d] = x_hat
        state[4, n] = np.add.reduce(z0) / n
        state[4, :n] = z0 - state[4, n]
        np.dot(map_rows(powers[0], x_hat)[:2], state, out=nxt[:2])
        np.matmul(map_rows(powers[1], x_hat), state[:, n], out=nxt[:3, n])
        np.dot(update, pair.reshape(-1, n + 1)[5:6 + d], out=nxt[5:])
        if not ideal:
            circuit.r[:] = nxt[1, :n] + nxt[1, n]
            circuit.r_inh = float(nxt[2, n])
            circuit.t_ms += steps * circuit.dt
            if not np.all(np.isfinite(circuit.r)) or not math.isfinite(circuit.r_inh):
                raise DivergenceError("rate dynamics diverged",
                                      f"presentation {k}, t = {circuit.t_ms:.1f} ms")
        w[:] = ((nxt[5:, :n] + nxt[5:, n:]) + w0.T).T
        if ideal or circuit.r.min() >= 0.0:
            nonneg += 1
        if not np.all(np.isfinite(w)):
            raise DivergenceError("non-finite weights in rate sleep run", f"presentation {k}")
        traj[k] = ss.neg_log_snr(w)
        state[...] = nxt
    return traj, nonneg / config.iterations if config.iterations else 1.0


BLOCK = ss.ratecircuit._BLOCK


@settings(max_examples=60, deadline=None)
@given(alpha=st.sampled_from([10.0, math.inf]),
       plasticity=st.sampled_from(["continuous", "terminal"]),
       warmup=st.sampled_from([0, 5, BLOCK + 2]),
       iterations=st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]),
       k=st.sampled_from([1, 2, 3, 6]), n=st.integers(2, 12), seed=st.integers(0, 2**16))
def test_blocked_runner_equals_per_presentation_oracle(alpha, plasticity, warmup,
                                                       iterations, k, n, seed):
    # the stacked per-block set-up gives the per-presentation bits exactly
    runs = []
    for runner in (ss.rate_sleep_run, map_rate_sleep_run):
        gen = RngStream(seed, (46,)).generator()
        bundle = ss.WeightBundle.from_rng(gen, n, k * k)
        circuit = make_circuit(alpha=alpha)
        cfg = ss.SleepConfig(
            gamma=1e-3, schedule=ss.Schedule("inverse_sqrt", 3e-4, 2.0, warmup=warmup),
            iterations=iterations, alpha=alpha)
        out = runner(bundle, circuit, cfg, gen, plasticity=plasticity)
        runs.append((out, bundle, circuit, gen))
    (res, bundle, circuit, gen), ((traj, frac), ref_bundle, ref_circuit, ref_gen) = runs
    assert np.array_equal(res.trajectory, traj)
    assert np.array_equal(bundle.weights, ref_bundle.weights)
    assert res.frac_nonneg == frac
    if math.isinf(alpha):
        assert circuit.r is None and ref_circuit.r is None
    else:
        assert np.array_equal(circuit.r, ref_circuit.r)
    assert circuit.r_inh == ref_circuit.r_inh
    assert circuit.t_ms == ref_circuit.t_ms
    assert np.array_equal(gen.random(4), ref_gen.random(4))


@settings(max_examples=40, deadline=None)
@given(alpha=st.sampled_from([10.0, math.inf]),
       plasticity=st.sampled_from(["continuous", "terminal"]),
       warmup=st.sampled_from([0, 5, BLOCK + 2]),
       iterations=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]),
       k=st.sampled_from([1, 2, 3, 6]), n=st.integers(2, 12), seed=st.integers(0, 2**16))
def test_shared_map_matches_propagator_oracle(alpha, plasticity, warmup, iterations, k, n,
                                              seed):
    # the shared map moves the propagator's bits by rounding only
    runs = []
    for runner in (ss.rate_sleep_run, propagator_rate_sleep_run):
        gen = RngStream(seed, (48,)).generator()
        bundle = ss.WeightBundle.from_rng(gen, n, k * k)
        circuit = make_circuit(alpha=alpha)
        cfg = ss.SleepConfig(
            gamma=1e-3, schedule=ss.Schedule("inverse_sqrt", 3e-4, 2.0, warmup=warmup),
            iterations=iterations, alpha=alpha)
        out = runner(bundle, circuit, cfg, gen, plasticity=plasticity)
        runs.append((out, bundle, circuit, gen))
    (res, bundle, circuit, gen), ((traj, frac), ref_bundle, ref_circuit, ref_gen) = runs
    assert np.abs(res.trajectory - traj).max() <= 1e-9
    assert (np.abs(bundle.weights - ref_bundle.weights).max()
            <= 1e-9 * np.abs(ref_bundle.weights).max())
    assert res.frac_nonneg == frac
    assert circuit.t_ms == ref_circuit.t_ms
    assert np.array_equal(gen.random(4), ref_gen.random(4))


def constant_from(start, eta):
    """A constant schedule that starts at presentation `start` (zero
    before), so that a blow-up can fall anywhere in a block."""
    return lambda k: eta if k >= start else 0.0


def divergence_outcome(runner, alpha, plasticity, start, eta, gamma, n, seed, k=3):
    """The DivergenceError text a run raises, or its trajectory's bytes."""
    gen = RngStream(seed, (47,)).generator()
    bundle = ss.WeightBundle.from_rng(gen, n, k * k)
    cfg = ss.SleepConfig(gamma=gamma, schedule=constant_from(start, eta),
                         iterations=80, alpha=alpha)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = runner(bundle, make_circuit(alpha=alpha), cfg, gen, plasticity=plasticity)
    except DivergenceError as e:
        return str(e)
    return (out.trajectory if isinstance(out, ss.RateSleepResult) else out[0]).tobytes()


@settings(max_examples=80, deadline=None)
@given(alpha=st.sampled_from([10.0, math.inf]),
       plasticity=st.sampled_from(["continuous", "terminal"]),
       start=st.integers(0, 70), log_eta=st.floats(-1.5, 4.5),
       gamma=st.sampled_from([1e-3, 1.0]), n=st.integers(2, 12), seed=st.integers(0, 2**16),
       k=st.sampled_from([3, 6]))
# a decay overflow, non-finite rates and non-finite weights, each mid-block
@example(alpha=10.0, plasticity="continuous", start=40, log_eta=2.0, gamma=1.0, n=6, seed=0,
         k=3)
@example(alpha=10.0, plasticity="continuous", start=20, log_eta=0.5, gamma=1e-3, n=6, seed=0,
         k=3)
@example(alpha=math.inf, plasticity="continuous", start=45, log_eta=-0.5, gamma=1e-3, n=6,
         seed=0, k=3)
@example(alpha=10.0, plasticity="terminal", start=0, log_eta=4.0, gamma=1e-3, n=6, seed=0,
         k=3)
# the same kinds at D = 36
@example(alpha=10.0, plasticity="continuous", start=40, log_eta=2.0, gamma=1.0, n=6, seed=0,
         k=6)
@example(alpha=10.0, plasticity="continuous", start=20, log_eta=0.0, gamma=1e-3, n=6, seed=0,
         k=6)
@example(alpha=math.inf, plasticity="continuous", start=45, log_eta=-0.5, gamma=1e-3, n=6,
         seed=0, k=6)
@example(alpha=10.0, plasticity="terminal", start=0, log_eta=4.0, gamma=1e-3, n=6, seed=0,
         k=6)
def test_blocked_runner_diverges_as_per_presentation_oracle(alpha, plasticity, start, log_eta,
                                                            gamma, n, seed, k):
    # the once-per-block checks raise the first error the per-presentation
    # checks would, with the same presentation and t
    args = (alpha, plasticity, start, 10.0 ** log_eta, gamma, n, seed, k)
    assert (divergence_outcome(ss.rate_sleep_run, *args)
            == divergence_outcome(map_rate_sleep_run, *args))


@pytest.mark.parametrize("k,alpha,plasticity,start,log_eta,gamma,error", [
    (3, 10.0, "continuous", 40, 2.0, 1.0, "weight decay factor overflowed [presentation 40]"),
    (3, 10.0, "continuous", 20, 0.5, 1e-3, "rate dynamics diverged [presentation 34,"),
    (3, math.inf, "continuous", 45, -0.5, 1e-3,
     "non-finite weights in rate sleep run [presentation 47]"),
    (3, 10.0, "terminal", 0, 4.0, 1e-3, "non-finite weights in rate sleep run [presentation 63]"),
    (6, 10.0, "continuous", 40, 2.0, 1.0, "weight decay factor overflowed [presentation 40]"),
    (6, 10.0, "continuous", 20, 0.0, 1e-3, "rate dynamics diverged [presentation 25,"),
    (6, math.inf, "continuous", 45, -0.5, 1e-3,
     "non-finite weights in rate sleep run [presentation 46]"),
    (6, 10.0, "terminal", 0, 4.0, 1e-3, "non-finite weights in rate sleep run [presentation 55]"),
])
def test_divergence_examples_raise_their_kind(k, alpha, plasticity, start, log_eta, gamma,
                                              error):
    # the examples above, each written for one of the three checks
    out = divergence_outcome(ss.rate_sleep_run, alpha, plasticity, start, 10.0 ** log_eta,
                             gamma, 6, 0, k)
    assert isinstance(out, str) and out.startswith(error)


def test_circuit_and_bundle_equality_is_identity():
    # a field-wise == would compare the rate and weight arrays and raise
    circuit = make_circuit()
    circuit.reset(4)
    bundle = ss.WeightBundle(np.ones((3, 4)), np.ones((3, 4)))
    for obj in (circuit, bundle):
        assert (obj == copy.deepcopy(obj)) is False
        assert (obj == obj) is True
