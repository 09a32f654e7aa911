"""Property tests of the stacked runners: a stack of S cells gives each
cell bitwise what the cell gives on its own."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sleepshare as ss
from sleepshare.mathcore import RngStream

PROPERTY = settings(max_examples=40, deadline=None)


def reference_neg_log_snr(w):
    """The per-group diagnostic written with np.mean and np.var; a
    column of exactly equal rows has zero variance whatever rounding
    error np.var leaves."""
    means = w.mean(axis=0)
    variances = w.var(axis=0)
    zero = (variances == 0.0) | (w == w[0]).all(axis=0)
    if np.all(zero):
        return ss.NEG_LOG_SNR_CONVERGED
    if np.any(zero):
        if np.any(means[zero] != 0.0):
            return ss.NEG_LOG_SNR_CONVERGED
        means, variances = means[~zero], variances[~zero]
    s = float(np.mean(means * means / variances))
    if math.isinf(s):
        return ss.NEG_LOG_SNR_CONVERGED
    if s <= 0.0:
        return ss.NEG_LOG_SNR_ZERO_MEAN
    return -math.log(s)


# few distinct values, so that equal columns (zero variance, with zero or
# nonzero mean) and zero-mean columns are common
coarse = st.sampled_from([-1.0, 0.0, 1.0, 2.5])
fine = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def stacks(draw):
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 10)))
    return draw(arrays(np.float64, shape, elements=st.one_of(coarse, fine)))


@PROPERTY
@given(stacks())
@example(np.array([[[1.0, 0.0], [0.0, 1.0]], [[2.0, -1.0], [2.0, -1.0]]]))  # 0 nat, converged
@example(np.array([[[1.0], [-1.0]], [[0.0], [0.0]]]))                       # zero mean, converged
@example(np.array([[[1.0, 0.0, 3.0], [-1.0, 0.0, 5.0]]]))                   # a dropped 0/0 column
@example(np.full((2, 3, 2), 0.1))                                         # equal rows, rounded mean
def test_stacked_neg_log_snr_equals_per_cell(w):
    stacked = ss.neg_log_snr(w)
    assert stacked.shape == (w.shape[0],)
    for i, cell in enumerate(w):
        assert stacked[i] == ss.neg_log_snr(cell) == reference_neg_log_snr(cell)


def test_sentinels_reached_in_a_stack():
    w = np.array([[[2.0, -1.0], [2.0, -1.0]], [[1.0, 3.0], [-1.0, 3.0]], [[1.0, 0.0], [0.0, 1.0]]])
    assert ss.neg_log_snr(w).tolist() == [ss.NEG_LOG_SNR_CONVERGED, ss.NEG_LOG_SNR_CONVERGED, 0.0]
    assert ss.neg_log_snr(np.array([[[1.0], [-1.0]]])).tolist() == [ss.NEG_LOG_SNR_ZERO_MEAN]


def cell_major_snr(w):
    """snr of each cell of a C-contiguous cell-major (S, N, D) stack,
    reduced along each cell's own neuron axis as np.mean and np.var
    reduce one (N, D) cell."""
    n, d = w.shape[1], w.shape[2]
    means = np.add.reduce(w, axis=1, keepdims=True)
    means /= n
    sq = w - means
    np.multiply(sq, sq, out=sq)
    variances = np.add.reduce(sq, axis=1)
    variances /= n
    means = means[:, 0]
    zero = (variances == 0.0) | (w == w[:, :1]).all(axis=1)
    if zero.any():
        return ss.sharing._snr_flat_columns(means, variances, zero)
    ratio = means * means
    ratio /= variances
    return np.add.reduce(ratio, axis=1) / d


@st.composite
def wide_stacks(draw):
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 40)), draw(st.integers(1, 12)))
    return draw(arrays(np.float64, shape, elements=st.one_of(coarse, fine)))


@PROPERTY
@given(wide_stacks())
@example(np.linspace(-1.0, 2.0, 66).reshape(2, 33, 1))             # D = 1, pairwise sums
@example(np.array([[[1.0, 0.0, 3.0], [1.0, 0.0, 5.0], [1.0, 0.0, 4.0]]]))  # flat columns
def test_neuron_major_snr_equals_cell_major(w):
    expect = cell_major_snr(w).tobytes()
    # a cell-major stack is copied neuron-major; a neuron-major one is read in place
    assert ss.sharing._snr_stack(w).tobytes() == expect
    wn = np.ascontiguousarray(w.transpose(1, 0, 2))
    kept = wn.copy()
    assert ss.sharing._snr_stack(wn.transpose(1, 0, 2)).tobytes() == expect
    assert np.array_equal(wn, kept)


def _cells(s, n, d, seed):
    gens = [RngStream(seed, (7, i)).generator() for i in range(s)]
    return gens, [ss.WeightBundle.from_rng(g, n, d) for g in gens]


@PROPERTY
@given(s=st.integers(1, 4), n=st.integers(2, 12), d=st.integers(1, 10),
       gammas=st.lists(st.floats(1e-4, 1.0), min_size=4, max_size=4),
       momentum=st.sampled_from([0.0, 0.5, 0.95]),
       alpha=st.sampled_from([0.5, 10.0, math.inf]),
       sigma=st.sampled_from([0.0, 0.3]),
       iters=st.integers(1, 25), seed=st.integers(0, 2**16))
def test_stacked_sleep_run_equals_single_runs(s, n, d, gammas, momentum, alpha, sigma,
                                              iters, seed):
    configs = [ss.SleepConfig(gamma=g, schedule=ss.Schedule("inverse_time", 0.5, 100.0),
                              iterations=iters, momentum=momentum, sigma=sigma, alpha=alpha)
               for g in gammas[:s]]
    gens, bundles = _cells(s, n, d, seed)
    stacked = ss.sleep_run(bundles, configs, gens)
    for i, config in enumerate(configs):
        g1, b1 = _cells(s, n, d, seed)
        [alone] = ss.sleep_run([b1[i]], [config], [g1[i]])
        assert np.array_equal(stacked[i].trajectory, alone.trajectory)
        assert stacked[i].initial == alone.initial
        assert np.array_equal(bundles[i].weights, b1[i].weights)
        assert stacked[i].bundle is bundles[i]


def test_stacked_sleep_run_rejects_mixed_configs():
    gens, bundles = _cells(2, 5, 4, 0)
    base = ss.SleepConfig(gamma=1e-2, schedule=ss.Schedule("constant", 1e-3), iterations=2)
    other = ss.SleepConfig(gamma=1e-2, schedule=ss.Schedule("constant", 1e-3), iterations=3)
    with pytest.raises(ValueError):
        ss.sleep_run(bundles, [base, other], gens)


@PROPERTY
@given(s=st.integers(1, 4), n=st.integers(2, 8), d=st.integers(1, 6), m=st.integers(1, 12),
       sigma=st.sampled_from([0.0, 0.2]), iters=st.integers(1, 40),
       seed=st.integers(0, 2**16))
def test_stacked_noise_floor_equals_per_seed_runs(s, n, d, m, sigma, iters, seed):
    streams = [RngStream(seed, (11, 0, i)) for i in range(s)]
    stacked = ss.noise_floor_run(n, d, m, 10.0, sigma, 0.034, 50.0, iters, streams)
    for res, stream in zip(stacked, streams):
        [alone] = ss.noise_floor_run(n, d, m, 10.0, sigma, 0.034, 50.0, iters, [stream])
        assert np.array_equal(res.dist_sq, alone.dist_sq)
        assert np.array_equal(res.w_star, alone.w_star)
        assert res.plateau == alone.plateau
