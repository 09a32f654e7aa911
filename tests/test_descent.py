"""The closed-form averaged-gradient descent against the step loops it
replaced, which live on here as oracles."""

import math
import re
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sleepshare as ss
from sleepshare import sharing
from sleepshare.errors import DivergenceError
from sleepshare.mathcore import RngStream

PROPERTY = settings(max_examples=40, deadline=None)


def loop_descent(w_init, inputs, gamma, alpha, cap):
    """full_batch_descent one step at a time: the iterate and the number
    of steps taken."""
    w = np.asarray(w_init, dtype=np.float64).copy()
    w0 = w.copy()
    cov = inputs.T @ inputs / inputs.shape[0]
    c = ss.bias_coefficient(alpha)
    eta = 1.0 / (float(np.linalg.eigvalsh(cov)[-1]) + gamma)
    scale = max(1.0, float(np.abs(w).max()))
    for k in range(cap):
        grad = sharing._averaged_gradient(w, w0, cov, c, gamma)
        w -= eta * grad
        if np.abs(grad).max() * eta < sharing._DESCENT_TOL * scale:
            return w, k + 1
    return w, cap


def loop_sigma0(n, d, m, gamma, a, b, iterations, rngs):
    """noise_floor_run's sigma-0 cells one step at a time: their distances
    to the solved fixed point, the first (iteration, cell) whose weights
    are not finite (None if none), and each cell's largest initial or
    fixed-point weight."""
    w_init, x = [], []
    for gen in (r.generator() for r in rngs):
        w_init.append(gen.normal(0.0, 1.0, size=(n, d)))
        x.append(gen.normal(1.0, 1.0, size=(m, d)))
    w_init, x = np.stack(w_init), np.stack(x)
    cov = x.transpose(0, 2, 1) @ x / m
    w_star = np.stack([ss.fixed_point(w0, xs, gamma) for w0, xs in zip(w_init, x)])
    scale = np.maximum(np.abs(w_init).max(axis=(1, 2)), np.abs(w_star).max(axis=(1, 2)))
    w = w_init.copy()
    dist_sq = np.empty((len(rngs), iterations))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(iterations):
            w -= a / (b + k) * sharing._averaged_gradient(w, w_init, cov, 1.0, gamma)
            finite = np.isfinite(w).all(axis=(1, 2))
            if not finite.all():
                return dist_sq, (k, int(np.argmin(finite))), scale
            diff = w - w_star
            dist_sq[:, k] = (diff * diff).reshape(len(rngs), -1).sum(axis=1)
    return dist_sq, None, scale


@PROPERTY
@given(s=st.sampled_from([0, 1, 3]), n=st.integers(2, 8), d=st.integers(1, 7),
       m=st.integers(1, 14), gamma=st.floats(1e-2, 10.0),
       alpha=st.one_of(st.just(math.inf), st.floats(0.1, 100.0)),
       seed=st.integers(0, 2**32 - 1))
@example(s=0, n=5, d=6, m=3, gamma=1e-2, alpha=10.0, seed=0)   # m < d, runs to the cap
def test_closed_form_descent_matches_the_loop(s, n, d, m, gamma, alpha, seed):
    # one group (s = 0) or a stack of s groups on the same inputs
    rng = np.random.default_rng(seed)
    w0 = rng.normal(1, 1, (s, n, d) if s else (n, d))
    x = rng.normal(1, 1, (m, d))
    cap = 3000
    with mock.patch.object(sharing, "_DESCENT_MAX_ITERS", cap):
        got, steps = sharing._descent_to_stop(w0, x, gamma, alpha)
        assert np.array_equal(got, ss.full_batch_descent(w0, x, gamma, alpha))
    want, want_steps = loop_descent(w0, x, gamma, alpha, cap)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    # the loop tests a step of ~1e-13 of the weights, computed with
    # rounding error ~1e-16 of them: near its threshold that may move its
    # stop by a step or so where the slowest mode decays slowly
    assert abs(steps - want_steps) <= max(2, want_steps // 100)
    assert steps <= cap


def test_descent_stops_at_the_cap():
    rng = np.random.default_rng(3)
    w0, x = rng.normal(1, 1, (6, 5)), rng.normal(1, 1, (10, 5))
    for cap in (1, 2, 7, 50):
        with mock.patch.object(sharing, "_DESCENT_MAX_ITERS", cap):
            got, steps = sharing._descent_to_stop(w0, x, 1e-3, 10.0)
        want, want_steps = loop_descent(w0, x, 1e-3, 10.0, cap)
        assert steps == want_steps == cap
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_first_settled_finds_the_first_index():
    for first in range(0, 40):
        for cap in (1, 2, 5, 16, 17, 33, 64):
            assert sharing._first_settled(lambda j: j >= first, cap) == min(first, cap)


@PROPERTY
@given(s=st.integers(1, 3), n=st.integers(2, 8), d=st.integers(1, 6), m=st.integers(1, 12),
       gamma=st.floats(0.1, 10.0), a=st.floats(0.003, 0.1), b=st.floats(10.0, 100.0),
       iters=st.integers(1, 300), seed=st.integers(0, 2**16))
def test_sigma0_trajectories_match_the_loop(s, n, d, m, gamma, a, b, iters, seed):
    streams = [RngStream(seed, (11, 0, i)) for i in range(s)]
    want, failed, scale = loop_sigma0(n, d, m, gamma, a, b, iters, streams)
    assert failed is None
    got = ss.noise_floor_run(n, d, m, gamma, 0.0, a, b, iters, streams)
    for res, row, top in zip(got, want, scale):
        # 1e-9 relative, above the loop's own rounding: its weights carry an
        # error of a few eps of the largest weight per step, which a
        # distance near 0 (W0 next to W*) cannot resolve
        err = 8 * np.finfo(float).eps * (iters + 1) * top
        assert np.all(np.abs(res.dist_sq - row) <= 1e-9 * row + 2 * np.sqrt(row) * err + err**2)


@PROPERTY
@given(s=st.integers(1, 3), n=st.integers(2, 6), d=st.integers(1, 5), m=st.integers(1, 10),
       gamma=st.floats(0.1, 10.0), log_a=st.floats(0.0, 300.0), b=st.floats(1.0, 100.0),
       iters=st.integers(1, 200), seed=st.integers(0, 2**16))
@example(s=2, n=20, d=9, m=18, gamma=10.0, log_a=300.0, b=50.0, iters=3000, seed=0)
def test_diverging_schedule_fails_where_the_loop_does(s, n, d, m, gamma, log_a, b, iters,
                                                      seed):
    # a schedule whose first steps overshoot: the closed form hands the
    # run to the step loop before anything overflows, so the error names
    # the iteration and cell the loop's weights first turn non-finite at
    streams = [RngStream(seed, (11, 0, i)) for i in range(s)]
    a = 10.0 ** log_a
    _, failed, _ = loop_sigma0(n, d, m, gamma, a, b, iters, streams)
    try:
        ss.noise_floor_run(n, d, m, gamma, 0.0, a, b, iters, streams)
        got = None
    except DivergenceError as e:
        cell, k = map(int, re.search(r"cell (\d+), iteration (\d+)", str(e)).groups())
        assert e.cell == cell
        got = (k, cell)
    assert got == failed
