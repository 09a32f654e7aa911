import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sleepshare as ss
from sleepshare import topology
from sleepshare.errors import DivergenceError
from sleepshare.mathcore import RngStream
from sleepshare.trainer import (AdamW, Dataset, LayerStack, TrainConfig, _assemble,
                                _evaluate, augment_translate, forward_backward,
                                read_idx, load_idx_pair,
                                run_experiment, shape_masks,
                                softmax_cross_entropy, train)
from sleepshare.topology import padded_windows, tile_kernel


def test_shape_masks():
    masks = shape_masks()
    assert masks.shape == (4, 5, 5)
    assert np.all(masks.sum(axis=(1, 2)) == 9)
    assert set(np.unique(masks)) == {0.0, 1.0}
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(masks[i], masks[j])


def test_synthetic_dataset_deterministic():
    d1 = Dataset.synthetic(20, np.random.default_rng(5), image=12)
    d2 = Dataset.synthetic(20, np.random.default_rng(5), image=12)
    assert np.array_equal(d1.images, d2.images)
    assert np.array_equal(d1.labels, d2.labels)
    assert len(d1) == 20
    assert d1.images.shape == (20, 1, 12, 12)
    assert d1.labels.min() >= 0 and d1.labels.max() < 4


def loop_synthetic(n, gen, image=16, noise=0.15):
    """Reference for Dataset.synthetic: places each image's glyph in turn."""
    masks = shape_masks()
    s = masks.shape[1]
    y = gen.integers(0, len(masks), size=n)
    x = gen.normal(0.0, noise, size=(n, 1, image, image))
    pos = gen.integers(0, image - s + 1, size=(n, 2))
    for i in range(n):
        r, c = pos[i]
        x[i, 0, r:r + s, c:c + s] += masks[y[i]]
    return x, y, float(x.mean())


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 70),
       image=st.integers(5, 16), noise=st.sampled_from([0.0, 0.15, 2.0]))
@example(seed=0, n=512, image=16, noise=0.15)
def test_synthetic_matches_per_image_loop(seed, n, image, noise):
    gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
    ds = Dataset.synthetic(n, gen, image=image, noise=noise)
    x, y, mean = loop_synthetic(n, ref_gen, image=image, noise=noise)
    assert np.array_equal(ds.images, x)
    assert np.array_equal(ds.labels, y)
    assert ds.mean_value == mean
    # both drew the same values in the same order
    assert np.array_equal(gen.random(4), ref_gen.random(4))


def _write_idx_images(path, arr):
    n, h, w = arr.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, n, h, w))
        f.write(arr.astype(np.uint8).tobytes())


def _write_idx_labels(path, labels):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x801, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, size=(3, 4, 5)).astype(np.uint8)
    labels = np.array([2, 0, 1], dtype=np.uint8)
    ip, lp = str(tmp_path / "imgs"), str(tmp_path / "labels")
    _write_idx_images(ip, imgs)
    _write_idx_labels(lp, labels)
    assert np.array_equal(read_idx(ip), imgs)
    assert np.array_equal(read_idx(lp), labels)

    ds = load_idx_pair(ip, lp)
    assert ds.images.shape == (3, 1, 4, 5)
    assert abs(ds.images.mean()) < 1e-12
    assert np.array_equal(ds.labels, labels)
    assert ds.mean_value == 0.0


def test_idx_error_paths(tmp_path):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\x00\x00")
    with pytest.raises(ValueError, match="truncated"):
        read_idx(str(bad))

    magic = tmp_path / "magic"
    magic.write_bytes(struct.pack(">II", 0x9999, 0))
    with pytest.raises(ValueError, match="magic"):
        read_idx(str(magic))

    short = tmp_path / "short"
    short.write_bytes(struct.pack(">IIII", 0x803, 4, 2, 2) + b"\x00" * 8)
    with pytest.raises(ValueError, match="expected"):
        read_idx(str(short))

    ip, lp = str(tmp_path / "i"), str(tmp_path / "l")
    _write_idx_images(ip, np.zeros((3, 4, 4), dtype=np.uint8))
    _write_idx_labels(lp, [0, 1])
    with pytest.raises(ValueError, match="counts differ"):
        load_idx_pair(ip, lp)
    with pytest.raises(ValueError, match="images"):
        load_idx_pair(lp, lp)


def test_augment_pad_zero_identity():
    img = np.random.default_rng(1).normal(size=(2, 6, 6))
    out = augment_translate(img, 0, np.random.default_rng(2))
    assert np.array_equal(out, img)
    assert out is not img


def test_augment_constant_image_invariant():
    img = np.full((1, 6, 6), 3.5)
    out = augment_translate(img, 2, np.random.default_rng(3), fill=3.5)
    assert np.array_equal(out, img)


def test_augment_offsets_cover_grid_uniformly():
    # marker at the centre lands at (6-dy, 6-dx); all 25 offsets reachable
    img = np.zeros((1, 8, 8))
    img[0, 4, 4] = 99.0
    gen = np.random.default_rng(4)
    counts = {}
    for _ in range(1200):
        out = augment_translate(img, 2, gen)
        r, c = np.unravel_index(np.argmax(out[0]), out[0].shape)
        counts[(r, c)] = counts.get((r, c), 0) + 1
    assert len(counts) == 25
    assert set(counts) == {(r, c) for r in range(2, 7) for c in range(2, 7)}
    assert min(counts.values()) > 15


@pytest.mark.parametrize("reps,pad", [(1, 2), (4, 3), (3, 0), (1, 0)])
def test_assemble_matches_copy_by_copy_crops(reps, pad):
    # one padded batch and one gather give the crops, labels and generator
    # state of padding and cropping each copy on its own, dy then dx
    ds = Dataset.synthetic(12, np.random.default_rng(16), image=8)
    idx = np.array([5, 0, 7])
    # Philox, the bit generator of the training streams (RngStream)
    gen, ref = (np.random.Generator(np.random.Philox(17)) for _ in "ab")
    xb, yb = _assemble(ds, idx, reps, pad, gen)
    crops, labels = [], []
    for i in idx:
        for _ in range(reps):
            padded = np.pad(ds.images[i], ((0, 0), (pad, pad), (pad, pad)),
                            constant_values=ds.mean_value)
            dy = int(ref.integers(0, 2 * pad + 1)) if pad else 0
            dx = int(ref.integers(0, 2 * pad + 1)) if pad else 0
            crops.append(padded[:, dy:dy + 8, dx:dx + 8])
            labels.append(ds.labels[i])
    assert np.array_equal(xb, np.stack(crops))
    assert np.array_equal(yb, labels) and yb.dtype == ds.labels.dtype
    assert gen.integers(0, 2**62) == ref.integers(0, 2**62)


def _identity_readable(n, value_scale=1.0):
    imgs = np.array([np.full((1, 4, 4), float(i) * value_scale) for i in range(n)])
    return Dataset(images=imgs, labels=np.arange(n) % 4, mean_value=0.0)


@pytest.mark.parametrize("reps", [1, 4, 8])
def test_train_batches_hold_each_image_reps_times(reps):
    # per epoch every training image enters reps times, its copies side
    # by side in one batch of the fixed size: reps 1 gives all-distinct
    # batches, reps 8 one image per batch
    ds = _identity_readable(16)
    stack = LayerStack("lc", np.random.default_rng(5), image=4, channels=2)
    seen = []

    def record(stack, xb, yb):
        seen.append(xb[:, 0, 0, 0].astype(int))
        assert np.array_equal(yb, seen[-1] % 4)
        return forward_backward(stack, xb, yb)

    with mock.patch("sleepshare.trainer.forward_backward", side_effect=record):
        train(stack, ds, ds, TrainConfig(batch_size=8, epochs=2, reps=reps),
              np.random.default_rng(6))
    assert all(len(ids) == 8 for ids in seen)
    per_epoch = len(seen) // 2
    for epoch in (seen[:per_epoch], seen[per_epoch:]):
        ids = np.concatenate(epoch)
        assert np.array_equal(np.bincount(ids, minlength=16), np.full(16, reps))
        groups = ids.reshape(-1, reps)
        assert np.all(groups == groups[:, :1])


def test_softmax_cross_entropy_hand():
    logits = np.zeros((1, 4))
    loss, grad = softmax_cross_entropy(logits, np.array([2]))
    # the log carries a 1e-12 guard, so the hand value is off by ~4e-12
    assert abs(loss - np.log(4.0)) < 1e-9
    expect = np.full((1, 4), 0.25)
    expect[0, 2] -= 1.0
    assert np.abs(grad - expect).max() < 1e-12


def test_zero_stack_gives_uniform_loss():
    stack = LayerStack("lc", np.random.default_rng(9), image=4, channels=2)
    for name in stack.params:
        stack.params[name] = np.zeros_like(stack.params[name])
    x = np.random.default_rng(10).normal(size=(3, 1, 4, 4))
    loss, _ = forward_backward(stack, x, np.array([0, 1, 2]))
    assert abs(loss - np.log(4.0)) < 1e-9


@pytest.mark.parametrize("kind", ["lc", "conv"])
def test_gradients_match_finite_differences(kind):
    gen = np.random.default_rng(11)
    stack = LayerStack(kind, gen, image=4, channels=2)
    x = gen.normal(size=(2, 1, 4, 4))
    y = np.array([1, 3])
    _, grads = forward_backward(stack, x, y)
    eps = 1e-6
    check_gen = np.random.default_rng(12)
    for name, p in stack.params.items():
        flat = p.reshape(-1)
        for idx in check_gen.choice(flat.size, size=min(4, flat.size), replace=False):
            old = flat[idx]
            flat[idx] = old + eps
            lp, _ = forward_backward(stack, x, y)
            flat[idx] = old - eps
            lm, _ = forward_backward(stack, x, y)
            flat[idx] = old
            fd = (lp - lm) / (2 * eps)
            an = grads[name].reshape(-1)[idx]
            assert abs(fd - an) < 1e-4 * max(1.0, abs(fd)), (name, idx, fd, an)


def test_loss_and_grads_are_batch_means():
    gen = np.random.default_rng(13)
    stack = LayerStack("lc", gen, image=4, channels=2)
    xs = gen.normal(size=(2, 1, 4, 4))
    ys = np.array([0, 2])
    loss_pair, grads_pair = forward_backward(stack, xs, ys)
    loss_a, grads_a = forward_backward(stack, xs[:1], ys[:1])
    loss_b, grads_b = forward_backward(stack, xs[1:], ys[1:])
    assert abs(loss_pair - (loss_a + loss_b) / 2) < 1e-12
    for name in grads_pair:
        mean = (grads_a[name] + grads_b[name]) / 2
        assert np.abs(grads_pair[name] - mean).max() < 1e-12


def test_adamw_zero_grad_and_decay():
    p = {"w": np.array([2.0, -3.0])}
    g = {"w": np.zeros(2)}
    opt = AdamW(p, lr=0.1, weight_decay=0.0)
    assert np.array_equal(opt.step(p, g)["w"], p["w"])
    opt2 = AdamW(p, lr=0.1, weight_decay=0.01)
    out = opt2.step(p, g)["w"]
    assert np.abs(out - p["w"] * (1 - 0.1 * 0.01)).max() < 1e-15


def test_adamw_step_size_invariant_to_gradient_scale():
    # with a constant gradient the update approaches lr regardless of |g|
    for scale in (1e-3, 1.0, 1e3):
        p = {"w": np.array([0.0])}
        g = {"w": np.array([scale])}
        opt = AdamW(p, lr=0.01)
        cur = p
        for _ in range(600):
            prev = cur["w"].copy()
            cur = opt.step(cur, g)
        assert abs(abs(cur["w"][0] - prev[0]) - 0.01) < 0.01 * 0.02, scale


def test_optimizer_steps_match_out_of_place_updates():
    # the in-place state updates keep the operation order of the textbook
    # expressions, so 20 steps (with a grid projection of the state
    # between) agree bit for bit
    gen = np.random.default_rng(18)
    shapes = {"layer1": (2, 1, 6, 6, 3, 3), "head_w": (2, 4)}
    params = {n: gen.normal(size=s) for n, s in shapes.items()}
    b1, b2, eps, wd, lr = 0.9, 0.999, 1e-8, 0.01, 0.01
    opt = AdamW(params, lr, weight_decay=wd)
    m = {n: np.zeros(s) for n, s in shapes.items()}
    v = {n: np.zeros(s) for n, s in shapes.items()}
    p, want = params, dict(params)
    for t in range(1, 21):
        # position-major LC gradients, as backward hands them over
        grads = {"layer1": gen.normal(size=(6, 6, 2, 1, 3, 3)).transpose(2, 3, 0, 1, 4, 5),
                 "head_w": gen.normal(size=(2, 4))}
        p = opt.step(p, grads)
        for n, g in grads.items():
            m[n] = b1 * m[n] + (1 - b1) * g
            v[n] = b2 * v[n] + (1 - b2) * g * g
            mh, vh = m[n] / (1 - b1 ** t), v[n] / (1 - b2 ** t)
            want[n] = want[n] - lr * (mh / (np.sqrt(vh) + eps) + wd * want[n])
        if t % 7 == 0:
            opt.share_state("layer1", 3)
            m["layer1"] = ss.share_kernel_grid_means(m["layer1"], 3)
            v["layer1"] = ss.share_kernel_grid_means(v["layer1"], 3, scale_by_group=True)
        for n in shapes:
            assert np.array_equal(p[n], want[n]), (t, n)


def test_optimizer_share_state_projects_to_grids():
    gen = np.random.default_rng(14)
    shape = (2, 1, 6, 6, 3, 3)
    opt = AdamW({"layer1": gen.normal(size=shape)}, lr=0.1)
    opt.m["layer1"] = gen.normal(size=shape)
    opt.v["layer1"] = gen.normal(size=shape) ** 2
    expect_m = ss.share_kernel_grid_means(opt.m["layer1"], 3)
    expect_v = ss.share_kernel_grid_means(opt.v["layer1"], 3, scale_by_group=True)
    opt.share_state("layer1", 3)
    assert np.array_equal(opt.m["layer1"], expect_m)
    assert np.array_equal(opt.v["layer1"], expect_v)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=10, reps=3)
    assert TrainConfig(epochs=60).resolved_milestones() == (30, 45)


def test_run_experiment_rejects_unknown_arm():
    with pytest.raises(ValueError, match="arm"):
        run_experiment("dense", 0)


SMALL = dict(train_size=32, test_size=16, image=8, channels=2, epochs=2,
             batch_size=16, lr=3e-3)


def test_run_experiment_deterministic():
    h1 = run_experiment("lc", 0, **SMALL)
    h2 = run_experiment("lc", 0, **SMALL)
    assert h1.metrics == h2.metrics
    assert h1.events == h2.events


def test_conv_ignores_sharing_and_reps_flags():
    base = run_experiment("conv", 0, **SMALL)
    flagged = run_experiment("conv", 0, ws_every=1, reps=16, pad=4, **SMALL)
    assert base.metrics == flagged.metrics
    assert flagged.events == []


def test_lc_ignores_reps_flag():
    base = run_experiment("lc", 0, **SMALL)
    flagged = run_experiment("lc", 0, reps=16, pad=4, **SMALL)
    assert base.metrics == flagged.metrics


def test_ws_arm_events_and_sentinel():
    h = run_experiment("lc-ws", 0, ws_every=1, **SMALL)
    assert h.events, "sharing events missing"
    names = {e[1] for e in h.events}
    assert names == {"layer1", "layer2"}
    for nb, _, pre, post in h.events:
        assert post == ss.NEG_LOG_SNR_CONVERGED
        assert pre >= post
    # 2 batches per epoch, 2 epochs, both layers at every batch
    assert len(h.events) == 8


def test_ws_grid_tied_init():
    gen = RngStream(0, (21,)).generator()
    stack = LayerStack("lc", gen, image=8, channels=2, grid_tied=True)
    for name in ("layer1", "layer2"):
        assert ss.kernel_grid_neg_log_snr(stack.params[name], 3) == ss.NEG_LOG_SNR_CONVERGED


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 6), in_ch=st.integers(1, 3), channels=st.integers(1, 4),
       kernel=st.sampled_from([1, 3, 5]), image=st.sampled_from([2, 4, 6, 8, 10]),
       seed=st.integers(0, 2**16))
@example(batch=4, in_ch=1, channels=3, kernel=3, image=8, seed=15)
def test_tied_lc_forward_matches_conv(batch, in_ch, channels, kernel, image, seed):
    # the trained conv layer is the LC layer tied to its kernel, bit for
    # bit: equal logits and loss, conv kernel gradients equal to the tied
    # gradients summed over positions, equal head gradients
    gen = np.random.default_rng(seed)
    conv = LayerStack("conv", gen, image=image, in_channels=in_ch, channels=channels,
                      kernel=kernel)
    tied = LayerStack("lc", np.random.default_rng(0), image=image, in_channels=in_ch,
                      channels=channels, kernel=kernel,
                      tie_kernels=(conv.params["layer1"], conv.params["layer2"]))
    tied.params["head_w"] = conv.params["head_w"].copy()
    tied.params["head_b"] = conv.params["head_b"].copy()
    x = gen.normal(size=(batch, in_ch, image, image))
    labels = gen.integers(0, conv.n_classes, size=batch)
    assert np.array_equal(tied.forward(x)[0], conv.forward(x)[0])
    lc_loss, lc_grads = forward_backward(tied, x, labels)
    conv_loss, conv_grads = forward_backward(conv, x, labels)
    assert lc_loss == conv_loss
    for name in ("layer1", "layer2"):
        assert np.array_equal(lc_grads[name].sum(axis=(2, 3)), conv_grads[name])
    for name in ("head_w", "head_b"):
        assert np.array_equal(lc_grads[name], conv_grads[name])


# The einsum oracle: the layer op before im2col, in the (B, C, H, W)
# layout: per-position contractions over strided sliding windows and a
# strided scatter of the window gradients.


def _oracle_layer_forward(x, kernels, pad):
    win = padded_windows(x, kernels.shape[-1], pad)
    if kernels.ndim == 4:
        kernels = tile_kernel(kernels, win.shape[2], win.shape[3])
    return np.einsum("bchwij,ochwij->bohw", win, kernels, optimize=True), win


def _oracle_scatter_windows(contrib, x_shape, pad):
    b, c, h, w = x_shape
    k = contrib.shape[-1]
    out = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    for i in range(k):
        for j in range(k):
            out[:, :, i:i + h, j:j + w] += contrib[:, :, :, :, i, j]
    return out[:, :, pad:pad + h, pad:pad + w] if pad else out


def _oracle_layer_backward(grad_out, win, kernels, x_shape, pad):
    shared = kernels.ndim == 4
    if shared:
        kernels = tile_kernel(kernels, *grad_out.shape[2:])
    dk = np.einsum("bchwij,bohw->ochwij", win, grad_out, optimize=True)
    contrib = np.einsum("bohw,ochwij->bchwij", grad_out, kernels, optimize=True)
    if shared:
        dk = dk.sum(axis=(2, 3))
    return dk, _oracle_scatter_windows(contrib, x_shape, pad)


def _oracle_forward_backward(stack, x, labels):
    p, pad = stack.params, stack.kernel // 2
    a1, win1 = _oracle_layer_forward(x, p["layer1"], pad)
    r1 = np.maximum(a1, 0.0)
    b, c, h, w = r1.shape
    p1 = r1.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
    a2, win2 = _oracle_layer_forward(p1, p["layer2"], pad)
    r2 = np.maximum(a2, 0.0)
    pooled = r2.mean(axis=(2, 3))
    logits = pooled @ p["head_w"] + p["head_b"]
    loss, grad_logits = softmax_cross_entropy(logits, labels)
    grads = {"head_w": pooled.T @ grad_logits, "head_b": grad_logits.sum(axis=0)}
    dpooled = grad_logits @ p["head_w"].T
    h2, w2 = r2.shape[2:]
    da2 = np.broadcast_to(dpooled[:, :, None, None] / (h2 * w2), r2.shape) * (a2 > 0)
    grads["layer2"], dp1 = _oracle_layer_backward(da2, win2, p["layer2"], p1.shape, pad)
    da1 = np.repeat(np.repeat(dp1, 2, axis=2), 2, axis=3) / 4.0 * (a1 > 0)
    grads["layer1"], _ = _oracle_layer_backward(da1, win1, p["layer1"], x.shape, pad)
    return logits, loss, grads


def _stack_and_batch(kind, batch, in_ch, channels, kernel, image, seed):
    gen = np.random.default_rng(seed)
    stack = LayerStack(kind, gen, image=image, in_channels=in_ch, channels=channels,
                       kernel=kernel)
    x = gen.normal(size=(batch, in_ch, image, image))
    return stack, x, gen.integers(0, stack.n_classes, size=batch)


def _rel_err(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["lc", "conv"]), batch=st.integers(1, 6),
       in_ch=st.integers(1, 3), channels=st.integers(1, 4),
       kernel=st.sampled_from([1, 3, 5]), image=st.sampled_from([2, 4, 6, 8, 10]),
       seed=st.integers(0, 2**16))
def test_layer_op_matches_einsum_oracle(kind, batch, in_ch, channels, kernel, image, seed):
    stack, x, labels = _stack_and_batch(kind, batch, in_ch, channels, kernel, image, seed)
    want_logits, want_loss, want_grads = _oracle_forward_backward(stack, x, labels)
    assert _rel_err(stack.forward(x)[0], want_logits) <= 1e-12
    loss, grads = forward_backward(stack, x, labels)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    for name, want in want_grads.items():
        assert grads[name].shape == want.shape
        assert _rel_err(grads[name], want) <= 1e-12, name


@pytest.mark.parametrize("batch", [64, 256])
@pytest.mark.parametrize("kind", ["lc", "conv"])
def test_layer_op_bitwise_at_benchmark_shapes(kind, batch):
    # the shapes every default run trains and evaluates at: same bits
    stack, x, labels = _stack_and_batch(kind, batch, 1, 8, 3, 16, batch)
    want_logits, want_loss, want_grads = _oracle_forward_backward(stack, x, labels)
    assert np.array_equal(stack.forward(x)[0], want_logits)
    assert np.array_equal(stack.forward(x, cache=False)[0], want_logits)
    loss, grads = forward_backward(stack, x, labels)
    assert loss == want_loss
    for name, want in want_grads.items():
        assert np.array_equal(grads[name], want), name


# Layer 2's output height (image // 2) is odd at 2, 6, 10 and 14, and
# layer 1's height is not a multiple of 4 at 6, 10 and 14, so under small
# block budgets the last block of a layer holds fewer rows than the rest.
@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["lc", "conv"]), batch=st.integers(1, 6),
       in_ch=st.integers(1, 3), channels=st.integers(1, 4),
       kernel=st.sampled_from([1, 3, 5]), image=st.sampled_from([2, 6, 10, 12, 14]),
       block_bytes=st.integers(1, 40000), seed=st.integers(0, 2**16))
@example(kind="conv", batch=5, in_ch=1, channels=3, kernel=3, image=10,
         block_bytes=3000, seed=1)
def test_no_cache_forward_matches_caching_forward(kind, batch, in_ch, channels, kernel,
                                                  image, block_bytes, seed):
    stack, x, _ = _stack_and_batch(kind, batch, in_ch, channels, kernel, image, seed)
    # one block per layer: the single position-batched matmul
    with mock.patch.object(topology, "_BLOCK_BYTES", 2**62):
        whole, _ = stack.forward(x)
    with mock.patch.object(topology, "_BLOCK_BYTES", block_bytes):
        cached, cache = stack.forward(x)
        logits, none = stack.forward(x, cache=False)
    assert none is None and cache is not None
    assert np.array_equal(cached, whole)
    assert np.array_equal(logits, whole)


@pytest.mark.parametrize("kind", ["lc", "conv"])
def test_evaluation_between_forward_and_backward_keeps_gradients(kind):
    stack, x, labels = _stack_and_batch(kind, 6, 1, 3, 3, 8, 21)
    want_loss, want_grads = forward_backward(stack, x, labels)
    logits, cache = stack.forward(x)
    loss, grad_logits = softmax_cross_entropy(logits, labels)
    # evaluation at the training batch's shapes (a shared buffer would be
    # overwritten in place) and at others, with a partial last batch
    gen = np.random.default_rng(22)
    stack.forward(gen.normal(size=x.shape), cache=False)
    _evaluate(stack, gen.normal(size=(9, 1, 8, 8)), np.zeros(9, dtype=int), batch=4)
    grads = stack.backward(grad_logits, cache)
    assert loss == want_loss
    for name, want in want_grads.items():
        assert np.array_equal(grads[name], want), name


def test_backward_on_stale_cache_raises():
    stack, x, labels = _stack_and_batch("lc", 4, 1, 2, 3, 8, 23)
    logits, cache = stack.forward(x)
    _, grad_logits = softmax_cross_entropy(logits, labels)
    # another training forward reuses the columns the first cache holds
    logits2, cache2 = stack.forward(x[::-1])
    with pytest.raises(RuntimeError, match="stale cache"):
        stack.backward(grad_logits, cache)
    _, grad2 = softmax_cross_entropy(logits2, labels[::-1])
    stack.backward(grad2, cache2)


def test_evaluation_divergence_names_epoch_and_split():
    # one optimizer step of size 1e300 per weight, then the first
    # evaluation's logits are not finite
    diverging = dict(SMALL, train_size=16, lr=1e300)
    with pytest.raises(DivergenceError, match=r"non-finite loss \[epoch 0, train\]"):
        run_experiment("lc", 0, **diverging)


def test_training_learns_above_chance():
    h = run_experiment("conv", 0, train_size=128, test_size=256, image=12,
                       channels=4, epochs=12, batch_size=32, lr=3e-2)
    assert h.final_test_accuracy > 0.35
    epochs_seen = {m[0] for m in h.metrics}
    assert epochs_seen == set(range(12))
    splits = {m[1] for m in h.metrics}
    assert splits == {"train", "test"}


def test_history_final_accuracy_requires_rows():
    from sleepshare.trainer import TrainHistory
    with pytest.raises(ValueError):
        TrainHistory().final_test_accuracy
