import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sleepshare as ss
from sleepshare import sharing
from sleepshare.errors import DivergenceError, ShapeError
from sleepshare.mathcore import RngStream


def test_snr_hand_values():
    assert ss.snr(np.array([[1.0, 0.0], [0.0, 1.0]])) == 1.0
    assert ss.neg_log_snr(np.array([[1.0, 0.0], [0.0, 1.0]])) == 0.0


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["spread", "converged", "flat-column", "dead-column",
                             "zero-mean"]),
       n=st.integers(3, 8), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3))
@example(kind="converged", n=3, d=1, seed=26, scale=0.1)
def test_snr_invariant_under_row_permutation(kind, n, d, seed, scale):
    gen = np.random.default_rng(seed)
    w = scale * gen.normal(1.0, 1.0, size=(n, d))
    if kind == "converged":
        w[:] = w[0]
    elif kind == "flat-column":
        w[:, -1] = w[0, -1]
    elif kind == "dead-column":
        w[:, -1] = 0.0
    elif kind == "zero-mean":
        # a row and its negative sum to exactly zero in either order
        w = np.stack([w[0], -w[0]])
    want = ss.snr(w)
    if kind in ("converged", "flat-column"):
        # exactly equal rows in a column read as converged at any scale
        assert want == math.inf
    moved = w[gen.permutation(len(w))]
    got = ss.snr(moved)
    if want in (0.0, math.inf) or got in (0.0, math.inf):
        assert got == want
        assert ss.neg_log_snr(moved) == ss.neg_log_snr(w)
    else:
        assert abs(got - want) <= 1e-12 * want


def test_snr_converged_sentinel():
    w = np.tile(np.array([[2.0, -1.0, 3.0]]), (5, 1))
    assert math.isinf(ss.snr(w))
    assert ss.neg_log_snr(w) == ss.NEG_LOG_SNR_CONVERGED


def test_snr_zero_mean_sentinel():
    w = np.array([[1.0], [-1.0]])
    assert ss.neg_log_snr(w) == ss.NEG_LOG_SNR_ZERO_MEAN


def test_snr_shape_error():
    with pytest.raises(ShapeError):
        ss.snr(np.zeros(4))


def test_floor_values():
    assert abs(ss.neg_log_snr_floor(1e-2) - 2 * math.log(0.01 / 1.01)) < 1e-12
    assert abs(ss.neg_log_snr_floor(1e-2) + 9.230) < 1e-3
    assert ss.neg_log_snr_floor(1e-3) < ss.neg_log_snr_floor(1e-2)
    with pytest.raises(ValueError):
        ss.neg_log_snr_floor(0.0)


def test_bias_coefficient():
    assert ss.bias_coefficient(math.inf) == 1.0
    assert abs(ss.bias_coefficient(10.0) - 10.0 / 11.0) < 1e-15
    with pytest.raises(ValueError):
        ss.bias_coefficient(-1.0)


def test_schedules():
    assert ss.Schedule("constant", 0.3)(17) == 0.3
    assert ss.Schedule("inverse_time", 0.5, 1000.0)(0) == 0.5 / 1000.0
    sched = ss.Schedule("inverse_sqrt", 3e-4, 2.0, warmup=50)
    assert sched(49) == 0.0
    assert abs(sched(50) - 3e-4 / math.sqrt(26.0)) < 1e-18
    with pytest.raises(ValueError):
        ss.Schedule("linear", 1.0)(0)


@pytest.mark.parametrize("kind", ss.Schedule.KINDS)
def test_schedule_warmup_holds_for_every_kind(kind):
    sched = ss.Schedule(kind, 0.5, 10.0, warmup=5)
    plain = ss.Schedule(kind, 0.5, 10.0)
    assert [sched(k) for k in range(5)] == [0.0] * 5
    assert [sched(k) for k in range(5, 20)] == [plain(k) for k in range(5, 20)]


@pytest.mark.parametrize("kind", ["inverse_time", "inverse_sqrt"])
@pytest.mark.parametrize("b", [0.0, -2.0])
def test_inverse_schedules_refuse_nonpositive_b(kind, b):
    with pytest.raises(ValueError, match="b > 0"):
        ss.Schedule(kind, 0.5, b)
    # constant reads no b
    assert ss.Schedule("constant", 0.5, b)(3) == 0.5


def test_sleep_step_preserves_group_mean():
    rng = np.random.default_rng(0)
    w = rng.normal(1, 1, (20, 9))
    bundle = ss.WeightBundle(w, w.copy())
    before = bundle.weights.mean(axis=0).copy()
    x = rng.normal(1, 1, 9)
    ss.sleep_step(bundle, x, gamma=0.0, eta=1e-3)
    after = bundle.weights.mean(axis=0)
    assert np.abs(after - before).max() < 1e-14


def test_sleep_step_shape_error():
    bundle = ss.WeightBundle(np.ones((3, 4)), np.ones((3, 4)))
    with pytest.raises(ShapeError):
        ss.sleep_step(bundle, np.ones((2, 4)), 0.1, 0.01)


def test_sleep_run_reaches_floor_band():
    # one sweep cell of the idealized protocol; the full grid runs in the
    # acceptance suite
    gen = RngStream(0, (7, 3, 10_000_000, 0)).generator()
    bundle = ss.WeightBundle.from_rng(gen, 100, 9)
    cfg = ss.SleepConfig(gamma=1e-2,
                         schedule=ss.Schedule("inverse_time", 0.5, 1000.0),
                         iterations=2000, momentum=0.95)
    [res] = ss.sleep_run([bundle], [cfg], [gen])
    assert abs(res.terminal - ss.neg_log_snr_floor(1e-2)) < 1.0
    assert res.initial > res.terminal


def test_sleep_run_divergence_error():
    gen = np.random.default_rng(1)
    bundle = ss.WeightBundle.from_rng(gen, 10, 9)
    cfg = ss.SleepConfig(gamma=1e-2, schedule=ss.Schedule("constant", 50.0),
                         iterations=200)
    # DivergenceError is the run's only report: no numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError):
            ss.sleep_run([bundle], [cfg], [gen])


def test_biased_terminal_worse_than_unbiased():
    def run(alpha):
        gen = RngStream(3, (7,)).generator()
        bundle = ss.WeightBundle.from_rng(gen, 50, 9)
        cfg = ss.SleepConfig(gamma=1e-3,
                             schedule=ss.Schedule("inverse_time", 0.5, 1000.0),
                             iterations=1500, momentum=0.95, alpha=alpha)
        return ss.sleep_run([bundle], [cfg], [gen])[0].terminal

    assert run(10.0) > run(math.inf)


def test_fixed_point_identity_covariance():
    # whitened inputs make C = I exactly, where the solve has a hand form
    rng = np.random.default_rng(4)
    w0 = rng.normal(1, 1, (6, 5))
    x = rng.normal(0, 1, (40, 5))
    l = np.linalg.cholesky(x.T @ x / 40)
    xw = x @ np.linalg.inv(l).T
    gamma = 0.1
    got = ss.fixed_point(w0, xw, gamma)
    mu = w0.mean(axis=0)
    expect = (mu[None, :] + gamma * w0) / (1.0 + gamma)
    assert np.abs(got - expect).max() < 1e-10


def test_biased_fixed_point_identity_covariance():
    rng = np.random.default_rng(5)
    w0 = rng.normal(1, 1, (7, 5))
    x = rng.normal(0, 1, (40, 5))
    l = np.linalg.cholesky(x.T @ x / 40)
    xw = x @ np.linalg.inv(l).T
    gamma, alpha = 0.1, 10.0
    got = ss.fixed_point(w0, xw, gamma, alpha=alpha)
    mu = w0.mean(axis=0)
    expect = (gamma / (1 + gamma)) * (w0 + (alpha / (1 + gamma * (1 + alpha))) * mu[None, :])
    assert np.abs(got - expect).max() < 1e-10


def test_descent_matches_solve():
    rng = np.random.default_rng(6)
    w0 = rng.normal(1, 1, (8, 6))
    x = rng.normal(1, 1, (24, 6))
    for gamma in (1e-1, 1e-3):
        solve = ss.fixed_point(w0, x, gamma)
        desc = ss.full_batch_descent(w0, x, gamma)
        assert np.linalg.norm(desc - solve) / np.linalg.norm(solve) < 1e-6
    biased_solve = ss.fixed_point(w0, x, 1e-1, alpha=10.0)
    biased_desc = ss.full_batch_descent(w0, x, 1e-1, alpha=10.0)
    assert np.linalg.norm(biased_desc - biased_solve) / np.linalg.norm(biased_solve) < 1e-4


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), d=st.integers(1, 10),
       m=st.integers(1, 24), gamma=st.floats(1e-3, 10.0),
       alpha=st.one_of(st.just(math.inf), st.floats(0.1, 100.0)))
def test_fixed_points_are_stationary_under_descent(seed, n, d, m, gamma, alpha):
    # the averaged gradient that full_batch_descent follows vanishes at the
    # closed forms, up to the solves' rounding (m < d leaves C singular)
    rng = np.random.default_rng(seed)
    w0 = rng.normal(1, 1, (n, d))
    x = rng.normal(1, 1, (m, d))
    cov = x.T @ x / m
    w_star = ss.fixed_point(w0, x, gamma, alpha=alpha)
    grad = sharing._averaged_gradient(w_star, w0, cov, ss.bias_coefficient(alpha), gamma)
    scale = np.linalg.norm(cov, 2) * np.linalg.norm(w_star) + gamma * np.linalg.norm(w0)
    assert np.linalg.norm(grad) <= 1e-12 * scale


def test_descent_step_contracts(monkeypatch):
    # full_batch_descent's step, 1 / (largest covariance eigenvalue +
    # gamma), takes every iterate strictly closer to the fixed point
    rng = np.random.default_rng(7)
    x = rng.normal(1, 1, (20, 4))
    w0 = rng.normal(1, 1, (5, 4))
    w_star = ss.fixed_point(w0, x, 0.1)
    dists = [np.linalg.norm(w0 - w_star)]
    for steps in range(1, 6):
        monkeypatch.setattr(sharing, "_DESCENT_MAX_ITERS", steps)
        dists.append(np.linalg.norm(ss.full_batch_descent(w0, x, 0.1) - w_star))
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_share_grid_means_hand_case():
    # two positions per grid in one axis: both end at the average
    w = np.zeros((6, 3, 1, 1, 3, 3))
    a = np.arange(9, dtype=float).reshape(3, 3)
    b = a + 10.0
    w[0, 0, 0, 0] = a
    w[3, 0, 0, 0] = b
    out = ss.share_kernel_grid_means(w, 3)
    assert np.allclose(out[0, 0, 0, 0], (a + b) / 2, atol=1e-14)
    assert np.allclose(out[3, 0, 0, 0], (a + b) / 2, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([2, 3, 5]), h=st.integers(2, 17), w=st.integers(2, 17),
       o=st.integers(1, 2), c=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(k=3, h=9, w=9, o=2, c=3, seed=8)
def test_share_grid_means_idempotent_bitwise(k, h, w, o, c, seed):
    # every grid needs a member; where H or W is not a multiple of k (most
    # draws) the edge grids hold fewer members than the others
    assume(min(h, w) >= k)
    kernels = np.random.default_rng(seed).normal(size=(h, w, o, c, k, k))
    once = ss.share_kernel_grid_means(kernels, k)
    assert np.array_equal(ss.share_kernel_grid_means(once, k), once)
    for gy in range(k):
        for gx in range(k):
            mean = kernels[gy::k, gx::k].mean(axis=(0, 1), keepdims=True)
            assert np.abs(once[gy::k, gx::k] - mean).max() <= 1e-12


def test_share_scale_by_group():
    w = np.random.default_rng(9).normal(size=(9, 9, 1, 1, 3, 3))
    plain = ss.share_kernel_grid_means(w, 3)
    scaled = ss.share_kernel_grid_means(w, 3, scale_by_group=True)
    assert np.allclose(scaled, plain / 9.0, atol=1e-14)


def test_instant_share_projection():
    layer = ss.LocalLayer.kaiming(np.random.default_rng(10), 2, 3, 9, 9, 3)
    before = layer.weights.copy()
    ss.instant_share(layer)
    for gy in range(3):
        for gx in range(3):
            manual = before[gy::3, gx::3].mean(axis=(0, 1))
            got = layer.weights[gy, gx]
            assert np.abs(manual - got).max() < 1e-13
    w_once = layer.weights.copy()
    ss.instant_share(layer)
    assert np.array_equal(w_once, layer.weights)


@pytest.mark.parametrize("height,width", [(2, 9), (9, 2)])
@pytest.mark.parametrize("fn", [ss.share_kernel_grid_means, ss.kernel_grid_neg_log_snr])
def test_kernel_grid_functions_reject_plane_smaller_than_kernel(fn, height, width):
    # a side shorter than k leaves some of the k*k grids without a member
    kernels = np.random.default_rng(16).normal(size=(height, width, 2, 1, 3, 3))
    with pytest.raises(ValueError, match="at least k = 3"):
        fn(kernels, 3)


def test_kernel_grid_neg_log_snr_sentinel_when_shared():
    layer = ss.LocalLayer.kaiming(np.random.default_rng(11), 1, 2, 9, 9, 3)
    assert ss.kernel_grid_neg_log_snr(layer.weights, 3) > ss.NEG_LOG_SNR_CONVERGED
    ss.instant_share(layer)
    assert ss.kernel_grid_neg_log_snr(layer.weights, 3) == ss.NEG_LOG_SNR_CONVERGED


def test_patch_share_gamma_to_zero_recovers_mean():
    rng = np.random.default_rng(12)
    stack = rng.normal(0, 1, (6, 4, 10))
    shared = ss.patch_share(stack, 1e-9, rng=np.random.default_rng(13))
    mean = stack.mean(axis=0)
    assert np.abs(shared - mean[None]).max() < 1e-6


def test_layer_sleep_run_equalizes():
    layer = ss.LocalLayer.kaiming(np.random.default_rng(14), 1, 2, 9, 9, 3,
                                  padding_mode="circular")
    start = ss.kernel_grid_neg_log_snr(layer.weights, 3)
    cfg = ss.SleepConfig(gamma=1e-4,
                         schedule=ss.Schedule("inverse_time", 0.5, 10.0),
                         iterations=400, momentum=0.9)
    rows = ss.layer_sleep_run(layer, cfg, RngStream(0, (15,)))
    grids = {int(r[1]) for r in rows}
    assert grids == set(range(9))
    end = ss.kernel_grid_neg_log_snr(layer.weights, 3)
    assert end < start - 3.0


def test_layer_sleep_run_divergence_error():
    layer = ss.LocalLayer.kaiming(np.random.default_rng(14), 1, 2, 6, 6, 3)
    cfg = ss.SleepConfig(gamma=1e-2, schedule=ss.Schedule("constant", 50.0),
                         iterations=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError, match="layer sleep run"):
            ss.layer_sleep_run(layer, cfg, RngStream(0, (15,)))


def test_layer_sleep_run_rejects_height_one_layer():
    layer = ss.LocalLayer.kaiming(np.random.default_rng(14), 1, 2, 1, 9, 3)
    before = layer.weights.copy()
    cfg = ss.SleepConfig(gamma=1e-4, schedule=ss.Schedule("constant", 0.1),
                         iterations=5)
    with pytest.raises(ValueError, match="2-D"):
        ss.layer_sleep_run(layer, cfg, RngStream(0, (15,)))
    assert np.array_equal(layer.weights, before)


@pytest.mark.parametrize("height,width,k", [(2, 9, 3), (4, 4, 5)])
def test_layer_sleep_run_rejects_layer_smaller_than_kernel(height, width, k):
    # some of the k*k grids would have no member to read an input at
    layer = ss.LocalLayer.kaiming(np.random.default_rng(14), 1, 2, height, width, k)
    before = layer.weights.copy()
    cfg = ss.SleepConfig(gamma=1e-4, schedule=ss.Schedule("constant", 0.1),
                         iterations=5)
    with pytest.raises(ValueError, match="2-D"):
        ss.layer_sleep_run(layer, cfg, RngStream(0, (15,)))
    assert np.array_equal(layer.weights, before)


def test_noise_floor_slope_band():
    [res] = ss.noise_floor_run(20, 9, 18, 10.0, 0.0, 0.034, 50.0, 3000,
                               [RngStream(0, (11, 0, 0))])
    slope = ss.loglog_slope(res.dist_sq)
    assert -1.3 < slope < -0.7


def test_noise_floor_plateau_monotone():
    plateaus = []
    for sigma in (0.1, 0.2, 0.4):
        vals = [r.plateau for r in ss.noise_floor_run(
            20, 9, 18, 10.0, sigma, 16.0, 200.0, 300,
            [RngStream(0, (11, s, int(sigma * 10))) for s in range(3)])]
        plateaus.append(np.mean(vals))
    assert plateaus[0] < plateaus[1] < plateaus[2]


def test_loglog_slope_recovers_power_law():
    k = np.arange(1, 2001, dtype=float)
    assert abs(ss.loglog_slope(5.0 / k) + 1.0) < 1e-6


@pytest.mark.parametrize("value", [0.0, math.inf, math.nan])
def test_loglog_slope_refuses_a_distance_without_a_logarithm(value):
    dist_sq = 5.0 / np.arange(1, 21, dtype=float)
    dist_sq[5] = value
    with pytest.raises(DivergenceError):
        ss.loglog_slope(dist_sq)


def test_bundle_shape_error():
    with pytest.raises(ShapeError):
        ss.WeightBundle(np.ones((3, 4)), np.ones((4, 3)))
