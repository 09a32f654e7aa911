"""Desk-scale supervised harness: conv vs locally connected stacks, with
translation-repetition batches and scheduled instant weight sharing.

Stacks are two same-kernel layers (conv or LC) with ReLU, a 2x2 average
pool between them, global average pooling, and a small linear head.
Gradients are written out by hand (einsum). A conv layer runs as the LC
layer tied to its kernel: both kinds take `topology.local_forward` and
one backward contraction pair, and a conv kernel's gradient is the tied
LC gradient summed over positions, so a conv stack and the tied LC stack
agree bit for bit in loss and gradients.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import DivergenceError
from .mathcore import RngStream
from .sharing import (Schedule, SleepConfig, kernel_grid_neg_log_snr,
                      layer_sleep_run, share_kernel_grid_means)
from .topology import LocalLayer, kaiming_std, local_forward, tile_kernel

__all__ = [
    "Dataset", "TrainConfig", "LayerStack", "TrainHistory",
    "shape_masks", "augment_translate", "build_batch",
    "forward_backward", "AdamW", "SgdMomentum", "OPTIMIZERS", "SHARE_MODES",
    "train", "run_experiment", "read_idx", "load_idx_pair",
]

OPTIMIZERS = ("adamw", "sgd")
# "instant" projects onto the grid means; "dynamic" runs the sleep
# dynamics on the layer (the slow path through the actual mechanism)
SHARE_MODES = ("instant", "dynamic")


# ---------------------------------------------------------------------------
# data

N_SHAPE_CLASSES = 4


def shape_masks() -> np.ndarray:
    """Four 5x5 binary glyphs, 9 active pixels each."""
    plus = np.zeros((5, 5)); plus[2, :] = 1; plus[:, 2] = 1
    cross = ((np.eye(5) + np.fliplr(np.eye(5))) > 0).astype(float)
    tee = np.zeros((5, 5)); tee[0, :] = 1; tee[1:, 2] = 1
    ell = np.zeros((5, 5)); ell[:, 0] = 1; ell[4, 1:] = 1
    return np.stack([plus, cross, tee, ell])


@dataclass
class Dataset:
    images: np.ndarray            # (n, C, H, W) float64
    labels: np.ndarray            # (n,) int
    mean_value: float             # pad fill for translation augmentation

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def synthetic(cls, n: int, gen: np.random.Generator, image: int = 16,
                  noise: float = 0.15) -> "Dataset":
        """Shapes at uniformly random positions over a noise background."""
        masks = shape_masks()
        s = masks.shape[1]
        y = gen.integers(0, N_SHAPE_CLASSES, size=n)
        x = gen.normal(0.0, noise, size=(n, 1, image, image))
        pos = gen.integers(0, image - s + 1, size=(n, 2))
        for i in range(n):
            r, c = pos[i]
            x[i, 0, r:r + s, c:c + s] += masks[y[i]]
        return cls(images=x, labels=y, mean_value=float(x.mean()))


def read_idx(path: str) -> np.ndarray:
    """Big-endian IDX ubyte file: magic 0x803 (images) or 0x801 (labels)."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated IDX header")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic == 0x00000803:
        n, h, w = struct.unpack(">III", raw[4:16])
        data = np.frombuffer(raw, dtype=np.uint8, offset=16)
        if data.size != n * h * w:
            raise ValueError(f"{path}: expected {n * h * w} pixels, got {data.size}")
        return data.reshape(n, h, w)
    if magic == 0x00000801:
        n = struct.unpack(">I", raw[4:8])[0]
        data = np.frombuffer(raw, dtype=np.uint8, offset=8)
        if data.size != n:
            raise ValueError(f"{path}: expected {n} labels, got {data.size}")
        return data.copy()
    raise ValueError(f"{path}: unknown IDX magic 0x{magic:08x}")


def load_idx_pair(image_path: str, label_path: str) -> Dataset:
    imgs = read_idx(image_path)
    labels = read_idx(label_path)
    if imgs.ndim != 3:
        raise ValueError(f"{image_path} does not contain images")
    if labels.ndim != 1 or len(labels) != len(imgs):
        raise ValueError("image/label counts differ")
    x = imgs.astype(np.float64)[:, None, :, :] / 255.0
    x -= x.mean()
    return Dataset(images=x, labels=labels.astype(np.int64), mean_value=0.0)


def augment_translate(image: np.ndarray, pad: int, gen: np.random.Generator,
                      fill: float = 0.0) -> np.ndarray:
    """Pad with the fill value and crop back at a uniform offset; pad = 0
    is the identity."""
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    if pad == 0:
        return image.copy()
    c, h, w = image.shape
    padded = np.full((c, h + 2 * pad, w + 2 * pad), fill, dtype=image.dtype)
    padded[:, pad:pad + h, pad:pad + w] = image
    dy = int(gen.integers(0, 2 * pad + 1))
    dx = int(gen.integers(0, 2 * pad + 1))
    return padded[:, dy:dy + h, dx:dx + w]


def build_batch(dataset: Dataset, batch_size: int, reps: int, pad: int,
                gen: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """batch_size/reps distinct images, each entering reps times under
    independent translations; total batch size stays fixed."""
    if reps < 1 or batch_size % reps != 0:
        raise ValueError(f"reps ({reps}) must divide batch size ({batch_size})")
    distinct = batch_size // reps
    if distinct > len(dataset):
        raise ValueError(f"need {distinct} distinct images, dataset has {len(dataset)}")
    idx = gen.choice(len(dataset), size=distinct, replace=False)
    return _assemble(dataset, idx, reps, pad, gen)


def _assemble(dataset: Dataset, idx: np.ndarray, reps: int, pad: int,
              gen: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    xs, ys = [], []
    for i in idx:
        for _ in range(reps):
            xs.append(augment_translate(dataset.images[i], pad, gen, dataset.mean_value))
            ys.append(dataset.labels[i])
    return np.stack(xs), np.array(ys)


# ---------------------------------------------------------------------------
# the stack


@dataclass
class TrainConfig:
    optimizer: str = "adamw"          # one of OPTIMIZERS
    lr: float = 3e-3
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    sgd_momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 60
    reps: int = 1
    pad: int = 0
    ws_every_n: int = 0               # 0 = never
    milestones: Optional[Tuple[int, int]] = None   # lr /4 twice; default mid and 3/4
    share_mode: str = "instant"       # one of SHARE_MODES
    share_iters: int = 180

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.share_mode not in SHARE_MODES:
            raise ValueError(f"unknown share mode {self.share_mode!r}")
        if self.reps < 1 or self.batch_size % self.reps != 0:
            raise ValueError("reps must divide batch size")
        if self.ws_every_n < 0:
            raise ValueError("ws_every_n must be >= 0")

    def resolved_milestones(self) -> Tuple[int, int]:
        if self.milestones is not None:
            return tuple(self.milestones)
        return (self.epochs // 2, (3 * self.epochs) // 4)


class LayerStack:
    """Two conv or LC layers, avgpool between, global pool, linear head.

    LC kernels are indexed (out_ch, in_ch, y, x, ky, kx); conv kernels
    (out_ch, in_ch, ky, kx). Kaiming-normal init, no biases in the
    feature layers.
    """

    def __init__(self, kind: str, gen: np.random.Generator, image: int = 16,
                 in_channels: int = 1, channels: int = 8, kernel: int = 3,
                 n_classes: int = N_SHAPE_CLASSES, grid_tied: bool = False,
                 tie_kernels: Optional[Tuple[np.ndarray, np.ndarray]] = None):
        if kind not in ("conv", "lc"):
            raise ValueError(f"kind must be conv or lc, got {kind}")
        if image % 2 != 0:
            raise ValueError("image size must be even (single 2x2 pool)")
        self.kind = kind
        self.image = image
        self.in_channels = in_channels
        self.channels = channels
        self.kernel = kernel
        self.n_classes = n_classes
        k = kernel
        std = kaiming_std(channels, k)
        h2 = image // 2
        if kind == "conv":
            k1 = gen.normal(0, std, size=(channels, in_channels, k, k))
            k2 = gen.normal(0, std, size=(channels, channels, k, k))
        elif tie_kernels is not None:
            k1 = tile_kernel(tie_kernels[0], image, image)
            k2 = tile_kernel(tie_kernels[1], h2, h2)
        elif grid_tied:
            # one fresh kernel per grid, replicated across the grid's
            # positions: full Kaiming scale, already in the shared set
            k1 = self._grid_tied(gen, std, channels, in_channels, image, k)
            k2 = self._grid_tied(gen, std, channels, channels, h2, k)
        else:
            k1 = gen.normal(0, std, size=(channels, in_channels, image, image, k, k))
            k2 = gen.normal(0, std, size=(channels, channels, h2, h2, k, k))
        self.params: Dict[str, np.ndarray] = {
            "layer1": k1,
            "layer2": k2,
            "head_w": gen.normal(0, 1.0 / np.sqrt(channels), size=(channels, n_classes)),
            "head_b": np.zeros(n_classes),
        }

    @staticmethod
    def _grid_tied(gen, std, out_c, in_c, side, k) -> np.ndarray:
        out = np.empty((out_c, in_c, side, side, k, k))
        for gy in range(k):
            for gx in range(k):
                block = gen.normal(0, std, size=(out_c, in_c, k, k))
                out[:, :, gy::k, gx::k] = block[:, :, None, None, :, :]
        return out

    @property
    def lc_layer_names(self) -> List[str]:
        return ["layer1", "layer2"] if self.kind == "lc" else []

    def _layer_forward(self, x: np.ndarray, kernels: np.ndarray):
        return local_forward(x, kernels, self.kernel // 2)

    def _layer_backward(self, grad_out, win, kernels, x_shape):
        shared = kernels.ndim == 4
        if shared:
            kernels = tile_kernel(kernels, *grad_out.shape[2:])
        dk = np.einsum("bchwij,bohw->ochwij", win, grad_out, optimize=True)
        contrib = np.einsum("bohw,ochwij->bchwij", grad_out, kernels, optimize=True)
        if shared:
            # one kernel tied across all positions: its gradient is their sum
            dk = dk.sum(axis=(2, 3))
        return dk, _scatter_windows(contrib, x_shape, self.kernel // 2)

    def forward(self, x: np.ndarray):
        cache = {"x": x}
        a1, cache["win1"] = self._layer_forward(x, self.params["layer1"])
        r1 = np.maximum(a1, 0.0)
        p1 = _avgpool2(r1)
        a2, cache["win2"] = self._layer_forward(p1, self.params["layer2"])
        r2 = np.maximum(a2, 0.0)
        pooled = r2.mean(axis=(2, 3))
        logits = pooled @ self.params["head_w"] + self.params["head_b"]
        cache.update(a1=a1, r1=r1, p1=p1, a2=a2, r2=r2, pooled=pooled)
        return logits, cache

    def backward(self, grad_logits: np.ndarray, cache) -> Dict[str, np.ndarray]:
        grads: Dict[str, np.ndarray] = {}
        grads["head_w"] = cache["pooled"].T @ grad_logits
        grads["head_b"] = grad_logits.sum(axis=0)
        dpooled = grad_logits @ self.params["head_w"].T
        b, c, h, w = cache["r2"].shape
        dr2 = np.broadcast_to(dpooled[:, :, None, None] / (h * w), cache["r2"].shape)
        da2 = dr2 * (cache["a2"] > 0)
        grads["layer2"], dp1 = self._layer_backward(da2, cache["win2"],
                                                    self.params["layer2"], cache["p1"].shape)
        dr1 = _avgpool2_backward(dp1)
        da1 = dr1 * (cache["a1"] > 0)
        grads["layer1"], _ = self._layer_backward(da1, cache["win1"],
                                                  self.params["layer1"], cache["x"].shape)
        return grads


def _scatter_windows(contrib: np.ndarray, x_shape, pad: int) -> np.ndarray:
    # contrib (B,C,H,W,k,k) accumulated back onto the (padded) input plane
    b, c, h, w = x_shape
    k = contrib.shape[-1]
    out = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    for i in range(k):
        for j in range(k):
            out[:, :, i:i + h, j:j + w] += contrib[:, :, :, :, i, j]
    return out[:, :, pad:pad + h, pad:pad + w] if pad else out


def _avgpool2(x: np.ndarray) -> np.ndarray:
    b, c, h, w = x.shape
    return x.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def _avgpool2_backward(grad: np.ndarray) -> np.ndarray:
    return np.repeat(np.repeat(grad, 2, axis=2), 2, axis=3) / 4.0


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    n = len(labels)
    loss = -float(np.mean(np.log(p[np.arange(n), labels] + 1e-12)))
    grad = p.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def forward_backward(stack: LayerStack, batch: np.ndarray, labels: np.ndarray):
    """Loss plus exact analytic gradients for every parameter."""
    logits, cache = stack.forward(batch)
    loss, grad_logits = softmax_cross_entropy(logits, labels)
    if not np.isfinite(loss):
        raise DivergenceError("non-finite loss", f"batch of {len(labels)}")
    return loss, stack.backward(grad_logits, cache)


# ---------------------------------------------------------------------------
# optimizers


class AdamW:
    """Moment estimates with bias correction; weight decay applied to the
    parameters directly, not through the gradient."""

    def __init__(self, params: Dict[str, np.ndarray], lr: float, weight_decay: float = 0.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray]):
        self.t += 1
        out = {}
        for name, p in params.items():
            g = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            mh = self.m[name] / (1 - self.beta1 ** self.t)
            vh = self.v[name] / (1 - self.beta2 ** self.t)
            out[name] = p - self.lr * (mh / (np.sqrt(vh) + self.eps) + self.weight_decay * p)
        return out

    def share_state(self, name: str, k: int) -> None:
        """Project this parameter's moments onto the grid structure.

        First moments average like the weights. Second moments estimate
        squared gradients; the shared update sees the grid-mean gradient
        whose variance is ~1/G of a single position's, so the pooled v is
        divided by the grid size to keep step magnitudes calibrated.
        """
        self.m[name] = share_kernel_grid_means(self.m[name], k)
        self.v[name] = share_kernel_grid_means(self.v[name], k, scale_by_group=True)


class SgdMomentum:
    def __init__(self, params: Dict[str, np.ndarray], lr: float, momentum: float = 0.9):
        self.lr = lr
        self.momentum = momentum
        self.vel = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        out = {}
        for name, p in params.items():
            self.vel[name] = self.momentum * self.vel[name] + grads[name]
            out[name] = p - self.lr * self.vel[name]
        return out

    def share_state(self, name: str, k: int) -> None:
        self.vel[name] = share_kernel_grid_means(self.vel[name], k)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainHistory:
    metrics: List[Tuple[int, str, float, float]] = field(default_factory=list)
    events: List[Tuple[int, str, float, float]] = field(default_factory=list)

    @property
    def final_test_accuracy(self) -> float:
        rows = [m for m in self.metrics if m[1] == "test"]
        if not rows:
            raise ValueError("no test rows recorded")
        return rows[-1][2]


def _evaluate(stack: LayerStack, images: np.ndarray, labels: np.ndarray,
              batch: int = 256) -> Tuple[float, float]:
    hits = 0
    losses = []
    for i in range(0, len(labels), batch):
        xb, yb = images[i:i + batch], labels[i:i + batch]
        logits, _ = stack.forward(xb)
        hits += int(np.sum(logits.argmax(axis=1) == yb))
        loss, _ = softmax_cross_entropy(logits, yb)
        losses.append(loss * len(yb))
    return hits / len(labels), float(np.sum(losses) / len(labels))


def _dynamic_share(stack: LayerStack, name: str, iters: int, rng_gen) -> None:
    k1 = stack.params[name]
    o, c, h, w, k, _ = k1.shape
    layer = LocalLayer(c, o, h, w, k, k1, padding_mode="circular")
    cfg = SleepConfig(gamma=1e-4, schedule=Schedule("inverse_time", a=0.5, b=10.0),
                      iterations=iters, momentum=0.9, input_mean=0.0, input_std=1.0)
    layer_sleep_run(layer, cfg, rng_gen)
    stack.params[name] = layer.weights


def train(stack: LayerStack, data: Dataset, test: Dataset, config: TrainConfig,
          gen: np.random.Generator, val: Optional[Dataset] = None) -> TrainHistory:
    """Run the full schedule; every ws_every_n batches (when set) each LC
    layer is projected to its grid means with the optimizer state
    projected alongside, logging -log snr just before and after."""
    if config.optimizer == "adamw":
        opt = AdamW(stack.params, config.lr, config.weight_decay,
                    config.beta1, config.beta2, config.eps)
    else:
        opt = SgdMomentum(stack.params, config.lr, config.sgd_momentum)
    history = TrainHistory()
    milestones = config.resolved_milestones()
    n = len(data)
    bs = config.batch_size
    distinct = bs // config.reps
    nb = 0
    for epoch in range(config.epochs):
        if epoch in milestones:
            opt.lr /= 4.0
        order = gen.permutation(n)
        for start in range(0, n, distinct if config.reps > 1 else bs):
            if config.reps > 1:
                idx = order[start:start + distinct]
                xb, yb = _assemble(data, idx, config.reps, config.pad, gen)
            else:
                idx = order[start:start + bs]
                if config.pad > 0:
                    xb, yb = _assemble(data, idx, 1, config.pad, gen)
                else:
                    xb, yb = data.images[idx], data.labels[idx]
            try:
                loss, grads = forward_backward(stack, xb, yb)
            except DivergenceError as e:
                raise DivergenceError(str(e), f"epoch {epoch} batch {nb}") from e
            stack.params = opt.step(stack.params, grads)
            nb += 1
            if config.ws_every_n and nb % config.ws_every_n == 0:
                for name in stack.lc_layer_names:
                    pre = kernel_grid_neg_log_snr(stack.params[name], stack.kernel)
                    if config.share_mode == "dynamic":
                        _dynamic_share(stack, name, config.share_iters, gen)
                    else:
                        stack.params[name] = share_kernel_grid_means(stack.params[name], stack.kernel)
                    opt.share_state(name, stack.kernel)
                    post = kernel_grid_neg_log_snr(stack.params[name], stack.kernel)
                    history.events.append((nb, name, pre, post))
        tr_acc, tr_loss = _evaluate(stack, data.images, data.labels)
        history.metrics.append((epoch, "train", tr_acc, tr_loss))
        if val is not None and len(val):
            v_acc, v_loss = _evaluate(stack, val.images, val.labels)
            history.metrics.append((epoch, "val", v_acc, v_loss))
        te_acc, te_loss = _evaluate(stack, test.images, test.labels)
        history.metrics.append((epoch, "test", te_acc, te_loss))
    return history


def run_experiment(arm: str, seed: int, *, train_size: int = 512, test_size: int = 2048,
                   image: int = 16, noise: float = 0.15, channels: int = 8,
                   kernel: int = 3, epochs: int = 60, batch_size: int = 64,
                   lr: float = 3e-3, weight_decay: float = 1e-4, reps: int = 16,
                   ws_every: int = 1, pad: int = 4, optimizer: str = "adamw",
                   milestones: Optional[Tuple[int, int]] = None,
                   share_mode: str = "instant", share_iters: int = 180,
                   val_fraction: float = 0.0,
                   idx_images: Optional[str] = None,
                   idx_labels: Optional[str] = None) -> TrainHistory:
    """One arm end to end. Arms: "conv", "lc", "lc-reps" (translation
    repetitions inside fixed-size batches), "lc-ws" (scheduled sharing,
    grid-tied init)."""
    if arm not in ("conv", "lc", "lc-reps", "lc-ws"):
        raise ValueError(f"unknown arm {arm!r}")
    gen = RngStream(seed, (21,)).generator()
    if idx_images:
        full = load_idx_pair(idx_images, idx_labels)
        data = Dataset(full.images[:train_size], full.labels[:train_size], full.mean_value)
        test = Dataset(full.images[train_size:train_size + test_size],
                       full.labels[train_size:train_size + test_size], full.mean_value)
        n_classes = int(full.labels.max()) + 1
        image = data.images.shape[-1]
    else:
        data = Dataset.synthetic(train_size, gen, image, noise)
        test = Dataset.synthetic(test_size, gen, image, noise)
        n_classes = N_SHAPE_CLASSES
    val = None
    if val_fraction > 0:
        n_val = int(len(data) * val_fraction)
        val = Dataset(data.images[:n_val], data.labels[:n_val], data.mean_value)
        data = Dataset(data.images[n_val:], data.labels[n_val:], data.mean_value)
    kind = "conv" if arm == "conv" else "lc"
    config = TrainConfig(
        optimizer=optimizer, lr=lr, weight_decay=weight_decay,
        batch_size=batch_size, epochs=epochs,
        reps=reps if arm == "lc-reps" else 1,
        pad=pad if arm == "lc-reps" else 0,
        ws_every_n=ws_every if arm == "lc-ws" else 0,
        milestones=milestones, share_mode=share_mode, share_iters=share_iters,
    )
    stack = LayerStack(kind, gen, image=image, channels=channels, kernel=kernel,
                       n_classes=n_classes, grid_tied=(arm == "lc-ws"))
    return train(stack, data, test, config, gen, val=val)
