import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sleepshare as ss
from sleepshare.mathcore import RngStream
from sleepshare.trainer import (AdamW, Dataset, LayerStack, SgdMomentum,
                                TrainConfig, augment_translate, build_batch,
                                forward_backward, read_idx, load_idx_pair,
                                run_experiment, shape_masks,
                                softmax_cross_entropy, train)


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


def _identity_readable(n, value_scale=1.0):
    imgs = np.array([np.full((1, 4, 4), float(i) * value_scale) for i in range(n)])
    return Dataset(images=imgs, labels=np.arange(n) % 4, mean_value=0.0)


def test_build_batch_reps_one_all_distinct():
    ds = _identity_readable(10)
    xb, yb = build_batch(ds, 6, 1, 0, np.random.default_rng(5))
    ids = {int(x[0, 0, 0]) for x in xb}
    assert len(ids) == 6
    assert len(yb) == 6


def test_build_batch_full_reps_single_image():
    ds = _identity_readable(10)
    xb, yb = build_batch(ds, 6, 6, 0, np.random.default_rng(6))
    ids = [int(x[0, 0, 0]) for x in xb]
    assert len(set(ids)) == 1
    assert len(set(yb.tolist())) == 1


def test_build_batch_grouped_counts():
    ds = _identity_readable(10)
    xb, _ = build_batch(ds, 8, 4, 0, np.random.default_rng(7))
    ids = [int(x[0, 0, 0]) for x in xb]
    assert sorted(np.bincount(ids)[np.bincount(ids) > 0].tolist()) == [4, 4]


def test_build_batch_validation():
    ds = _identity_readable(3)
    with pytest.raises(ValueError, match="divide"):
        build_batch(ds, 6, 4, 0, np.random.default_rng(8))
    with pytest.raises(ValueError, match="distinct"):
        build_batch(ds, 6, 1, 0, np.random.default_rng(8))


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


def test_sgd_momentum_hand():
    p = {"w": np.array([1.0])}
    opt = SgdMomentum(p, lr=0.1, momentum=0.5)
    p1 = opt.step(p, {"w": np.array([2.0])})
    assert abs(p1["w"][0] - (1.0 - 0.1 * 2.0)) < 1e-15
    p2 = opt.step(p1, {"w": np.array([2.0])})
    # velocity: 0.5 * 2 + 2 = 3
    assert abs(p2["w"][0] - (p1["w"][0] - 0.1 * 3.0)) < 1e-15


@pytest.mark.parametrize("cls", [AdamW, SgdMomentum])
def test_optimizer_share_state_projects_to_grids(cls):
    gen = np.random.default_rng(14)
    shape = (2, 1, 6, 6, 3, 3)
    p = {"layer1": gen.normal(size=shape)}
    opt = cls(p, lr=0.1)
    state = opt.m if cls is AdamW else opt.vel
    state["layer1"] = gen.normal(size=shape)
    expect_first = ss.share_kernel_grid_means(state["layer1"], 3)
    if cls is AdamW:
        opt.v["layer1"] = gen.normal(size=shape) ** 2
        expect_v = ss.share_kernel_grid_means(opt.v["layer1"], 3, scale_by_group=True)
    opt.share_state("layer1", 3)
    state = opt.m if cls is AdamW else opt.vel
    assert np.array_equal(state["layer1"], expect_first)
    if cls is AdamW:
        assert np.array_equal(opt.v["layer1"], expect_v)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=10, reps=3)
    assert TrainConfig(epochs=60).resolved_milestones() == (30, 45)
    assert TrainConfig(epochs=8, milestones=(2, 5)).resolved_milestones() == (2, 5)


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


def test_dynamic_share_mode_events_and_determinism():
    # the sleep dynamics run on both layers at every sharing step; unlike
    # instant sharing they stop short of the converged sentinel
    h = run_experiment("lc-ws", 0, share_mode="dynamic", share_iters=30, **SMALL)
    assert [e[1] for e in h.events] == ["layer1", "layer2"] * 4
    for _, _, pre, post in h.events:
        assert math.isfinite(pre) and math.isfinite(post)
        assert ss.NEG_LOG_SNR_CONVERGED < post != pre
    again = run_experiment("lc-ws", 0, share_mode="dynamic", share_iters=30, **SMALL)
    assert again.metrics == h.metrics
    assert again.events == h.events


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


def test_training_learns_above_chance():
    h = run_experiment("conv", 0, train_size=128, test_size=256, image=12,
                       channels=4, epochs=12, batch_size=32, lr=3e-2)
    assert h.final_test_accuracy > 0.35
    epochs_seen = {m[0] for m in h.metrics}
    assert epochs_seen == set(range(12))
    splits = {m[1] for m in h.metrics}
    assert splits == {"train", "test"}


def test_val_split_reported():
    h = run_experiment("lc", 0, val_fraction=0.25, **SMALL)
    assert {m[1] for m in h.metrics} == {"train", "val", "test"}


def test_history_final_accuracy_requires_rows():
    from sleepshare.trainer import TrainHistory
    with pytest.raises(ValueError):
        TrainHistory().final_test_accuracy
