import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sleepshare.errors import ShapeError
from sleepshare.sharing import instant_share
from sleepshare.topology import (ConvLayer, LocalLayer, conv_forward,
                                 generate_pattern, kaiming_std, lc_forward,
                                 make_partition, padded_windows,
                                 receptive_field, tie_lc_to_conv)


def test_lc_zero_input_zero_output():
    layer = LocalLayer.kaiming(np.random.default_rng(0), 2, 3, 4, 4, 3)
    out = lc_forward(layer, np.zeros((2, 4, 4)))
    assert np.array_equal(out, np.zeros((3, 4, 4)))


def test_lc_1x1_k1_is_matrix_product():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(3, 2, 1, 1, 1, 1))
    layer = LocalLayer(2, 3, 1, 1, 1, w)
    x = rng.normal(size=(2, 1, 1))
    out = lc_forward(layer, x)
    expect = w[:, :, 0, 0, 0, 0] @ x[:, 0, 0]
    assert np.allclose(out[:, 0, 0], expect, atol=1e-14)


def test_lc_forward_loop_oracle():
    rng = np.random.default_rng(2)
    layer = LocalLayer.kaiming(np.random.default_rng(3), 1, 2, 4, 4, 3)
    x = rng.normal(size=(1, 4, 4))
    out = lc_forward(layer, x)
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    for o in range(2):
        for y in range(4):
            for c in range(4):
                ref = float((layer.weights[o, 0, y, c] * xp[0, y:y + 3, c:c + 3]).sum())
                assert abs(out[o, y, c] - ref) < 1e-12


def test_conv_delta_stamps_flipped_kernel():
    w = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
    layer = ConvLayer(1, 1, 5, 5, 3, w)
    x = np.zeros((1, 5, 5))
    x[0, 2, 2] = 1.0
    out = conv_forward(layer, x)
    # cross-correlation: out[y, c] = w[2+1-y? ] -> w[2-(y-2)+... ] check directly
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            assert out[0, 2 + dy, 2 + dx] == w[0, 0, 1 - dy, 1 - dx]


def test_conv_ones_interior_count():
    layer = ConvLayer(1, 1, 5, 5, 3, np.ones((1, 1, 3, 3)))
    out = conv_forward(layer, np.ones((1, 5, 5)))
    assert out[0, 2, 2] == 9.0


def test_conv_zero_kernel():
    layer = ConvLayer(1, 1, 5, 5, 3, np.zeros((1, 1, 3, 3)))
    assert np.array_equal(conv_forward(layer, np.ones((1, 5, 5))), np.zeros((1, 5, 5)))


@pytest.mark.parametrize("mode", ["zeros", "circular"])
@settings(max_examples=40, deadline=None)
@given(in_ch=st.integers(1, 4), out_ch=st.integers(1, 4), height=st.integers(1, 9),
       width=st.integers(1, 9), kernel=st.sampled_from([1, 3, 5]), seed=st.integers(0, 2**16))
@example(in_ch=3, out_ch=2, height=9, width=9, kernel=3, seed=4)
def test_tied_lc_equals_conv_bitwise(mode, in_ch, out_ch, height, width, kernel, seed):
    rng = np.random.default_rng(seed)
    shape = (in_ch, out_ch, height, width, kernel)
    lc = LocalLayer.kaiming(rng, *shape, padding_mode=mode)
    cv = ConvLayer.kaiming(rng, *shape, padding_mode=mode)
    tied = tie_lc_to_conv(lc, cv.weights)
    for _ in range(3):
        x = rng.normal(size=(in_ch, height, width))
        assert np.array_equal(lc_forward(tied, x), conv_forward(cv, x))


def test_tie_zero_kernel_zero_layer():
    lc = LocalLayer.kaiming(np.random.default_rng(7), 1, 2, 4, 4, 3)
    tied = tie_lc_to_conv(lc, np.zeros((2, 1, 3, 3)))
    assert np.array_equal(tied.weights, np.zeros_like(tied.weights))


def test_tie_perturbation_is_local():
    rng = np.random.default_rng(8)
    cv = ConvLayer.kaiming(np.random.default_rng(9), 1, 2, 6, 6, 3)
    lc = LocalLayer(1, 2, 6, 6, 3, np.zeros((2, 1, 6, 6, 3, 3)))
    tied = tie_lc_to_conv(lc, cv.weights)
    x = rng.normal(size=(1, 6, 6))
    base = lc_forward(tied, x)
    tied.weights[1, 0, 2, 3] += rng.normal(size=(3, 3))
    bumped = lc_forward(tied, x)
    diff = bumped - base
    mask = np.zeros_like(diff, dtype=bool)
    mask[1, 2, 3] = True
    assert np.all(diff[~mask] == 0.0)
    assert diff[1, 2, 3] != 0.0


def test_tie_shape_error():
    lc = LocalLayer(1, 2, 4, 4, 3, np.zeros((2, 1, 4, 4, 3, 3)))
    with pytest.raises(ShapeError):
        tie_lc_to_conv(lc, np.zeros((2, 1, 5, 5)))


def test_partition_k1_single_grid():
    p = make_partition(1, 3, 4)
    assert p.count == 1
    assert len(p.positions(0)) == 12


def test_partition_k2_4x4():
    p = make_partition(2, 4, 4)
    assert p.count == 4
    seen = set()
    for g in range(4):
        pos = p.positions(g)
        assert len(pos) == 4
        seen.update((int(y), int(x)) for y, x in pos)
    assert seen == {(y, x) for y in range(4) for x in range(4)}


def test_pattern_constant_base():
    p = make_partition(3, 9, 9)
    pat = generate_pattern(p, 0, base=np.full((3, 3), 2.5))
    assert np.array_equal(pat.values, np.full((9, 9), 2.5))


def test_pattern_out_of_range():
    p = make_partition(3, 9, 9)
    with pytest.raises(ValueError):
        generate_pattern(p, 9, base=np.zeros((3, 3)))


def test_pattern_same_receptive_field_within_grid():
    # geometry must let the tiling close: spatial extent a multiple of k,
    # windows taken with circular padding
    p = make_partition(3, 9, 9)
    rng = np.random.default_rng(10)
    for trial in range(200):
        g = trial % p.count
        pat = generate_pattern(p, g, rng=rng)
        x = np.broadcast_to(pat.values, (2, 9, 9))
        win = padded_windows(x, 3, 1, "circular")
        pos = p.positions(g)
        patches = win[:, pos[:, 0], pos[:, 1]]
        assert np.array_equal(patches, np.broadcast_to(patches[:, :1], patches.shape))


def test_pattern_set_spans_full_rank():
    p = make_partition(3, 9, 9)
    rng = np.random.default_rng(11)
    rows = []
    for trial in range(3 * p.count):
        pat = generate_pattern(p, trial % p.count, rng=rng)
        win = padded_windows(pat.values[None], 3, 1, "circular")
        rows.append(win[0, 0, 0].ravel())
    assert np.linalg.matrix_rank(np.array(rows)) == 9


def test_stride_k_equivariance_after_sharing():
    rng = np.random.default_rng(13)
    layer = LocalLayer.kaiming(np.random.default_rng(14), 1, 2, 9, 9, 3,
                               padding_mode="circular")
    instant_share(layer)
    x = rng.normal(size=(1, 9, 9))
    # cyclic shifts by multiples of k along each spatial axis
    lhs = lc_forward(layer, np.roll(x, 3, axis=-2))
    rhs = np.roll(lc_forward(layer, x), 3, axis=-2)
    assert np.abs(lhs - rhs).max() < 1e-9
    lhs = lc_forward(layer, np.roll(x, 6, axis=-1))
    rhs = np.roll(lc_forward(layer, x), 6, axis=-1)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_receptive_field_matches_forward():
    rng = np.random.default_rng(15)
    layer = LocalLayer.kaiming(np.random.default_rng(16), 2, 1, 5, 5, 3)
    x = rng.normal(size=(2, 5, 5))
    patch = receptive_field(layer, x, 2, 3)
    out = lc_forward(layer, x)
    assert abs(float((layer.weights[0, :, 2, 3] * patch).sum()) - out[0, 2, 3]) < 1e-12


def test_kaiming_std_value():
    assert abs(kaiming_std(8, 3) - np.sqrt(2.0 / 72.0)) < 1e-15


def test_padded_windows_mode_error():
    with pytest.raises(ValueError):
        padded_windows(np.zeros((1, 4, 4)), 3, 1, "reflect")


def test_layer_shape_validation():
    with pytest.raises(ShapeError):
        LocalLayer(1, 1, 4, 4, 3, np.zeros((1, 1, 4, 4, 5, 5)))
    with pytest.raises(ValueError):
        LocalLayer(1, 1, 4, 4, 2, np.zeros((1, 1, 4, 4, 2, 2)))  # even kernel
