"""Desk-scale supervised harness: conv vs locally connected stacks, with
translation-repetition batches and scheduled instant weight sharing.

Stacks are two same-kernel layers (conv or LC) with ReLU, a 2x2 average
pool between them, global average pooling, and a small linear head.
Gradients are written out by hand. A conv layer runs as the LC layer
tied to its kernel: both kinds take `topology.local_forward` and one
backward matmul pair, and a conv kernel's gradient is the tied LC
gradient summed over positions, so a conv stack and the tied LC stack
agree bit for bit in loss and gradients.

Layout: batches enter as (B, C, H, W); from the first layer to the
global pool activations run batch-innermost, (H, W, C, B), so a layer is
one position-batched matmul on im2col columns (H*W, C*k*k, B) and the
elementwise steps run over contiguous memory. Backward forms the kernel
gradient as g @ colsᵀ and the input gradient as wᵀ @ g, with g the
transposed view of a contiguous (H*W, B, O) copy of the output gradient,
then adds the input gradient back window offset by window offset
(col2im). These are the operands, in order and layout, that the
per-position einsum used before passed to matmul, so every sum runs in
the same order: logits, loss and gradients keep the einsum's bits
(tests/test_trainer.py keeps it as the oracle). Layer 1's input
gradient is not formed.

Buffers: each LayerStack owns one `topology.Workspace`, and its layer
forwards write the padded planes, the columns and the layer outputs
there, one buffer per layer and role. A training forward keeps each
layer's columns whole for backward; an evaluation forward
(`forward(x, cache=False)`, as `_evaluate` runs it) builds them block by
block in one block-sized scratch, keeps no mask, columns or output for
backward and returns no cache. A training cache is valid until the
stack's next training forward, which reuses its buffers; backward
raises on a stale one. Evaluation forwards touch none of them, so they
may run between a forward and its backward. Stacks share no buffers, so
the runs of `compare --jobs N` on separate threads stay independent.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import DivergenceError
from .mathcore import RngStream
from .sharing import kernel_grid_neg_log_snr, share_kernel_grid_means
from .topology import (Workspace, grid_slices, kaiming_std, local_forward,
                       position_weights, tile_kernel)

__all__ = [
    "Dataset", "TrainConfig", "LayerStack", "TrainHistory",
    "shape_masks", "augment_translate", "forward_backward", "AdamW",
    "train", "run_experiment", "read_idx", "read_idx_pair", "load_idx_pair",
]


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
        # one add per glyph pixel: image i's s x s window at pos[i]
        ar = np.arange(s)
        x[np.arange(n)[:, None, None], 0, pos[:, 0, None, None] + ar[:, None],
          pos[:, 1, None, None] + ar[None, :]] += masks[y]
        return cls(images=x, labels=y, mean_value=float(x.mean()))


def read_idx(path: str) -> np.ndarray:
    """Big-endian IDX ubyte file: magic 0x803 (images) or 0x801 (labels)."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated IDX header")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic == 0x00000803:
        if len(raw) < 16:
            raise ValueError(f"{path}: truncated IDX image header")
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


def read_idx_pair(image_path: str, label_path: str) -> Tuple[np.ndarray, np.ndarray]:
    """The (n, H, W) images and (n,) labels of an IDX pair, as stored."""
    imgs = read_idx(image_path)
    labels = read_idx(label_path)
    if imgs.ndim != 3:
        raise ValueError(f"{image_path} does not contain images")
    if labels.ndim != 1 or len(labels) != len(imgs):
        raise ValueError("image/label counts differ")
    return imgs, labels


def load_idx_pair(image_path: str, label_path: str) -> Dataset:
    imgs, labels = read_idx_pair(image_path, label_path)
    x = imgs.astype(np.float64)[:, None, :, :] / 255.0
    x -= x.mean()
    return Dataset(images=x, labels=labels.astype(np.int64), mean_value=0.0)


def augment_translate(image: np.ndarray, pad: int, gen: np.random.Generator,
                      fill: float = 0.0) -> np.ndarray:
    """Pad with the fill value and crop back at a uniform offset; pad = 0
    is the identity."""
    return _translate(image[None], 1, pad, gen, fill)[0]


def _translate(images: np.ndarray, reps: int, pad: int, gen: np.random.Generator,
               fill: float) -> np.ndarray:
    """Each of the (n, C, H, W) images reps times in a row, every copy
    padded with the fill value and cropped back at its own uniform
    offset (dy drawn before dx, copy by copy): one pad of the batch and
    one gather of all crops."""
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    n, c, h, w = images.shape
    src = np.repeat(np.arange(n), reps)
    if pad == 0:
        return images[src]
    padded = np.full((n, c, h + 2 * pad, w + 2 * pad), fill, dtype=images.dtype)
    padded[:, :, pad:pad + h, pad:pad + w] = images
    # one draw of every (dy, dx) pair gives the same numbers, in the same
    # order, as drawing dy then dx copy by copy
    offsets = gen.integers(0, 2 * pad + 1, size=(len(src), 2))
    crops = np.lib.stride_tricks.sliding_window_view(padded, (h, w), axis=(2, 3))
    return crops[src, :, offsets[:, 0], offsets[:, 1]]


def _assemble(dataset: Dataset, idx: np.ndarray, reps: int, pad: int,
              gen: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """The images idx, each entering reps times in a row under independent
    translations, and their labels: one training batch."""
    images = _translate(dataset.images[idx], reps, pad, gen, dataset.mean_value)
    return images, np.repeat(dataset.labels[idx], reps)


# ---------------------------------------------------------------------------
# the stack


@dataclass
class TrainConfig:
    lr: float = 3e-3
    weight_decay: float = 1e-4
    batch_size: int = 64
    epochs: int = 60
    reps: int = 1
    pad: int = 0
    ws_every_n: int = 0               # 0 = never

    def __post_init__(self):
        if self.reps < 1 or self.batch_size % self.reps != 0:
            raise ValueError("reps must divide batch size")
        if self.ws_every_n < 0:
            raise ValueError("ws_every_n must be >= 0")

    def resolved_milestones(self) -> Tuple[int, int]:
        """The epochs at which the learning rate drops by 4: mid and 3/4."""
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
        # the layer op's buffers, and the count of caching forwards that
        # tells backward whether a cache's buffers are still its own
        self._workspace = Workspace()
        self._forwards = 0

    @staticmethod
    def _grid_tied(gen, std, out_c, in_c, side, k) -> np.ndarray:
        out = np.empty((out_c, in_c, side, side, k, k))
        for ys, xs in grid_slices(k):
            block = gen.normal(0, std, size=(out_c, in_c, k, k))
            out[:, :, ys, xs] = block[:, :, None, None, :, :]
        return out

    @property
    def lc_layer_names(self) -> List[str]:
        return ["layer1", "layer2"] if self.kind == "lc" else []

    def _layer_forward(self, x: np.ndarray, kernels: np.ndarray, *, layer: str,
                       cache: bool = True):
        return local_forward(x, kernels, self.kernel // 2, workspace=self._workspace,
                             key=layer, keep_cols=cache)

    def _layer_backward(self, grad_out, win, kernels, x_shape, input_grad: bool = True):
        """Gradients of a layer from its output gradient (H, W, O, B) and
        its forward's columns `win` (H*W, C*k*k, B): the kernel gradient in
        the parameter's layout and, unless input_grad is False, the input
        gradient in the input's (H, W, C, B) layout."""
        h, w, o, b = grad_out.shape
        k = self.kernel
        # the output gradient enters both products as the transposed view
        # of a contiguous (H*W, B, O) copy: the operands, in order and
        # layout, that the einsum pair before im2col passed to matmul, so
        # every sum runs in the same order and gives the same bits
        g = np.ascontiguousarray(grad_out.reshape(h * w, o, b).transpose(0, 2, 1))
        g = g.transpose(0, 2, 1)
        dk = np.matmul(g, win.transpose(0, 2, 1))             # (H*W, O, C*k*k)
        c = dk.shape[2] // (k * k)
        if kernels.ndim == 4:
            # one kernel tied across all positions: its gradient is their sum
            dk = dk.sum(axis=0).reshape(o, c, k, k)
        else:
            dk = dk.reshape(h, w, o, c, k, k).transpose(2, 3, 0, 1, 4, 5)
        if not input_grad:
            return dk, None
        contrib = np.matmul(position_weights(kernels, h, w).transpose(0, 2, 1), g)
        return dk, _scatter_windows(contrib, x_shape, k // 2)

    def forward(self, x: np.ndarray, cache: bool = True):
        """Logits of a (B, C, H, W) batch and the cache backward reads;
        the layers run batch-innermost (H, W, C, B) up to the global pool.
        With cache=False (evaluation) the columns go through a block-sized
        scratch, no cache is built and None is returned in its place.
        Either way the activations live in the stack's workspace: a cache
        is valid until the next caching forward, which backward checks,
        and a forward without one touches none of its buffers."""
        x = x.transpose(2, 3, 1, 0)
        r1, cols1 = self._layer_forward(x, self.params["layer1"], layer="layer1", cache=cache)
        np.maximum(r1, 0.0, out=r1)
        p1 = _avgpool2(r1)
        r2, cols2 = self._layer_forward(p1, self.params["layer2"], layer="layer2", cache=cache)
        np.maximum(r2, 0.0, out=r2)
        pooled = r2.mean(axis=(0, 1)).T
        logits = pooled @ self.params["head_w"] + self.params["head_b"]
        if not cache:
            return logits, None
        self._forwards += 1
        # backward needs only where r1 > 0 (exactly where a1 > 0)
        return logits, dict(forward=self._forwards, x_shape=x.shape, cols1=cols1,
                            mask1=r1 > 0, p1_shape=p1.shape, cols2=cols2, r2=r2,
                            pooled=pooled)

    def backward(self, grad_logits: np.ndarray, cache) -> Dict[str, np.ndarray]:
        if cache["forward"] != self._forwards:
            raise RuntimeError(f"stale cache: it is from caching forward {cache['forward']}, "
                               f"and forward {self._forwards} has reused its buffers")
        grads: Dict[str, np.ndarray] = {}
        grads["head_w"] = cache["pooled"].T @ grad_logits
        grads["head_b"] = grad_logits.sum(axis=0)
        dpooled = grad_logits @ self.params["head_w"].T
        r2 = cache["r2"]
        da2 = dpooled.T / (r2.shape[0] * r2.shape[1]) * (r2 > 0)
        grads["layer2"], dp1 = self._layer_backward(da2, cache["cols2"], self.params["layer2"],
                                                    cache["p1_shape"])
        da1 = _avgpool2_backward(dp1, cache["mask1"])
        # the input gradient of layer 1 is never used
        grads["layer1"], _ = self._layer_backward(da1, cache["cols1"], self.params["layer1"],
                                                  cache["x_shape"], input_grad=False)
        return grads


def _scatter_windows(contrib: np.ndarray, x_shape, pad: int) -> np.ndarray:
    """col2im: window gradients contrib (H*W, C*k*k, B) accumulated onto
    the padded (H, W, C, B) input plane, window offset (i, j) by offset in
    row-major order, and cropped back to the input."""
    h, w, c, b = x_shape
    k = 2 * pad + 1
    win = contrib.reshape(h, w, c, k, k, b)
    out = np.zeros((h + 2 * pad, w + 2 * pad, c, b))
    for i in range(k):
        for j in range(k):
            out[i:i + h, j:j + w] += win[:, :, :, i, j]
    return out[pad:pad + h, pad:pad + w]


def _avgpool2(x: np.ndarray) -> np.ndarray:
    h, w, c, b = x.shape
    return x.reshape(h // 2, 2, w // 2, 2, c, b).mean(axis=(1, 3))


def _avgpool2_backward(grad: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The pool's input gradient, each (H/2, W/2, C, B) entry spread over
    its 2x2 block, times the (H, W, C, B) ReLU mask of that input."""
    h, w, c, b = mask.shape
    spread = (grad / 4.0)[:, None, :, None]
    return np.multiply(spread, mask.reshape(h // 2, 2, w // 2, 2, c, b)).reshape(h, w, c, b)


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
# optimizer


class AdamW:
    """Moment estimates with bias correction; weight decay applied to the
    parameters directly, not through the gradient."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: Dict[str, np.ndarray], lr: float, weight_decay: float = 0.0):
        self.lr = lr
        self.weight_decay = weight_decay
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray]):
        self.t += 1
        out = {}
        for name, p in params.items():
            # an LC gradient arrives position-major: one copy into the
            # parameter's order keeps the passes below contiguous
            g = np.ascontiguousarray(grads[name])
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            tmp = np.multiply(1 - self.beta1, g)
            m += tmp
            v *= self.beta2
            np.multiply(1 - self.beta2, g, out=tmp)
            tmp *= g
            v += tmp
            # p - lr * (mh / (sqrt(vh) + eps) + weight_decay * p), operation
            # by operation, in two buffers
            np.divide(v, 1 - self.beta2 ** self.t, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            step = np.divide(m, 1 - self.beta1 ** self.t)
            step /= tmp
            np.multiply(self.weight_decay, p, out=tmp)
            step += tmp
            step *= self.lr
            out[name] = np.subtract(p, step, out=step)
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


def _evaluate(stack: LayerStack, images: np.ndarray, labels: np.ndarray, where: str = "",
              batch: int = 256) -> Tuple[float, float]:
    """Accuracy and mean loss over a split in batches, by forwards that
    keep no cache; a non-finite loss raises DivergenceError naming
    `where`."""
    hits = 0
    losses = []
    for i in range(0, len(labels), batch):
        xb, yb = images[i:i + batch], labels[i:i + batch]
        logits, _ = stack.forward(xb, cache=False)
        hits += int(np.sum(logits.argmax(axis=1) == yb))
        loss, _ = softmax_cross_entropy(logits, yb)
        losses.append(loss * len(yb))
    loss = float(np.sum(losses) / len(labels))
    if not np.isfinite(loss):
        raise DivergenceError("non-finite loss", where)
    return hits / len(labels), loss


def train(stack: LayerStack, data: Dataset, test: Dataset, config: TrainConfig,
          gen: np.random.Generator) -> TrainHistory:
    """Run the full schedule; every ws_every_n batches (when set) each LC
    layer is projected to its grid means with the optimizer state
    projected alongside, logging -log snr just before and after. A
    non-finite loss, in a training step or an evaluation, raises
    DivergenceError naming where."""
    # a diverging run overflows before its loss check names where
    with np.errstate(over="ignore", invalid="ignore"):
        return _train(stack, data, test, config, gen)


def _train(stack, data, test, config, gen) -> TrainHistory:
    opt = AdamW(stack.params, config.lr, config.weight_decay)
    history = TrainHistory()
    milestones = config.resolved_milestones()
    n = len(data)
    distinct = config.batch_size // config.reps
    nb = 0
    for epoch in range(config.epochs):
        if epoch in milestones:
            opt.lr /= 4.0
        order = gen.permutation(n)
        for start in range(0, n, distinct):
            xb, yb = _assemble(data, order[start:start + distinct], config.reps,
                               config.pad, gen)
            try:
                loss, grads = forward_backward(stack, xb, yb)
            except DivergenceError as e:
                raise DivergenceError(str(e), f"epoch {epoch} batch {nb}") from e
            stack.params = opt.step(stack.params, grads)
            nb += 1
            if config.ws_every_n and nb % config.ws_every_n == 0:
                for name in stack.lc_layer_names:
                    pre = kernel_grid_neg_log_snr(stack.params[name], stack.kernel)
                    stack.params[name] = share_kernel_grid_means(stack.params[name], stack.kernel)
                    opt.share_state(name, stack.kernel)
                    post = kernel_grid_neg_log_snr(stack.params[name], stack.kernel)
                    history.events.append((nb, name, pre, post))
        tr_acc, tr_loss = _evaluate(stack, data.images, data.labels, f"epoch {epoch}, train")
        history.metrics.append((epoch, "train", tr_acc, tr_loss))
        te_acc, te_loss = _evaluate(stack, test.images, test.labels, f"epoch {epoch}, test")
        history.metrics.append((epoch, "test", te_acc, te_loss))
    return history


def run_experiment(arm: str, seed: int, *, train_size: int = 512, test_size: int = 2048,
                   image: int = 16, noise: float = 0.15, channels: int = 8,
                   kernel: int = 3, epochs: int = 60, batch_size: int = 64,
                   lr: float = 3e-3, weight_decay: float = 1e-4, reps: int = 16,
                   ws_every: int = 1, pad: int = 4,
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
    kind = "conv" if arm == "conv" else "lc"
    config = TrainConfig(
        lr=lr, weight_decay=weight_decay,
        batch_size=batch_size, epochs=epochs,
        reps=reps if arm == "lc-reps" else 1,
        pad=pad if arm == "lc-reps" else 0,
        ws_every_n=ws_every if arm == "lc-ws" else 0,
    )
    stack = LayerStack(kind, gen, image=image, channels=channels, kernel=kernel,
                       n_classes=n_classes, grid_tied=(arm == "lc-ws"))
    return train(stack, data, test, config, gen)
