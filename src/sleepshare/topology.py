"""Layer geometry: locally connected and convolutional forwards, the
residue-class grid structure of output positions, and periodic input
patterns that drive every neuron in one grid with identical input.

Weight layouts
    LocalLayer.weights: (out_ch, in_ch, y, x, ky, kx), a private kernel
    per output position.
    ConvLayer.weights: (out_ch, in_ch, ky, kx), one kernel everywhere.

One forward, `local_forward`, serves both: a conv kernel runs as the LC
layer tied to it (its per-position copy), so a conv layer and the tied
LC layer agree bit for bit, here and in the trainer, which calls the
same forward. Both use the cross-correlation convention (no kernel flip) and
same-shape output. Padding is zero-fill by default; "circular" padding
is available because cyclic shift equivariance and the equal-input
pattern property are exact only without a zero boundary.

`local_forward` works batch-innermost: inputs (H, W, C, B), im2col
columns (H'*W', C*k*k, B) built by k*k block copies of contiguous
B-runs, and one position-batched matmul with the position-major weights
(H'*W', O, C*k*k) (`position_weights`) into outputs (H', W', O, B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import ShapeError
from .mathcore import RngStream

__all__ = [
    "LocalLayer",
    "ConvLayer",
    "GridPartition",
    "RepeatingPattern",
    "local_forward",
    "lc_forward",
    "conv_forward",
    "tile_kernel",
    "position_weights",
    "tie_lc_to_conv",
    "make_partition",
    "generate_pattern",
    "shift_input",
    "padded_windows",
    "receptive_field",
    "kaiming_std",
]

PaddingMode = str  # "zeros" or "circular"


def kaiming_std(out_channels: int, kernel: int) -> float:
    # variance 2 / (c_out * k^2), no bias terms anywhere
    return float(np.sqrt(2.0 / (out_channels * kernel * kernel)))


def _check_kernel(kernel: int) -> None:
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError(f"kernel must be odd and >= 1, got {kernel}")


def padded_windows(x: np.ndarray, kernel: int, pad: int, mode: PaddingMode = "zeros") -> np.ndarray:
    """Sliding k x k windows over the last two axes after padding.

    With pad = k // 2 the window grid matches the input spatially, so the
    result has shape (..., H, W, k, k).
    """
    if mode not in ("zeros", "circular"):
        raise ValueError(f"unknown padding mode {mode!r}")
    widths = [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)]
    xp = np.pad(x, widths, mode="wrap" if mode == "circular" else "constant")
    return np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(x.ndim - 2, x.ndim - 1))


@dataclass
class LocalLayer:
    """Restricted receptive fields with an independent kernel at every
    spatial position."""

    in_channels: int
    out_channels: int
    height: int
    width: int
    kernel: int
    weights: np.ndarray
    pad: Optional[int] = None
    padding_mode: PaddingMode = "zeros"

    def __post_init__(self):
        _check_kernel(self.kernel)
        if self.pad is None:
            self.pad = self.kernel // 2
        k = self.kernel
        expect = (self.out_channels, self.in_channels, self.height, self.width, k, k)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != expect:
            raise ShapeError(f"LocalLayer weights must be {expect}, got {self.weights.shape}")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("LocalLayer weights must be finite")

    @classmethod
    def zeros(cls, in_channels, out_channels, height, width, kernel, **kw) -> "LocalLayer":
        w = np.zeros((out_channels, in_channels, height, width, kernel, kernel))
        return cls(in_channels, out_channels, height, width, kernel, w, **kw)

    @classmethod
    def kaiming(cls, rng, in_channels, out_channels, height, width, kernel, **kw) -> "LocalLayer":
        gen = rng.generator() if isinstance(rng, RngStream) else rng
        std = kaiming_std(out_channels, kernel)
        w = gen.normal(0.0, std, size=(out_channels, in_channels, height, width, kernel, kernel))
        return cls(in_channels, out_channels, height, width, kernel, w, **kw)


@dataclass
class ConvLayer:
    """Same geometry as LocalLayer but one shared kernel per channel pair."""

    in_channels: int
    out_channels: int
    height: int
    width: int
    kernel: int
    weights: np.ndarray
    pad: Optional[int] = None
    padding_mode: PaddingMode = "zeros"

    def __post_init__(self):
        _check_kernel(self.kernel)
        if self.pad is None:
            self.pad = self.kernel // 2
        k = self.kernel
        expect = (self.out_channels, self.in_channels, k, k)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != expect:
            raise ShapeError(f"ConvLayer weights must be {expect}, got {self.weights.shape}")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("ConvLayer weights must be finite")

    @classmethod
    def kaiming(cls, rng, in_channels, out_channels, height, width, kernel, **kw) -> "ConvLayer":
        gen = rng.generator() if isinstance(rng, RngStream) else rng
        std = kaiming_std(out_channels, kernel)
        w = gen.normal(0.0, std, size=(out_channels, in_channels, kernel, kernel))
        return cls(in_channels, out_channels, height, width, kernel, w, **kw)


def _check_input(layer, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    expect = (layer.in_channels, layer.height, layer.width)
    if x.shape != expect:
        raise ShapeError(f"input must be {expect}, got {x.shape}")
    return x


def tile_kernel(kernel: np.ndarray, height: int, width: int) -> np.ndarray:
    """The contiguous (out, in, height, width, k, k) per-position copy of
    a shared (out, in, k, k) kernel: the LC layer tied to it."""
    o, c, k, _ = kernel.shape
    return np.broadcast_to(kernel[:, :, None, None], (o, c, height, width, k, k)).copy()


def position_weights(weights: np.ndarray, height: int, width: int) -> np.ndarray:
    """The contiguous (height*width, out, in*k*k) position-major copy of
    per-position (out, in, height, width, k, k) weights, or of the LC layer
    tied to a shared (out, in, k, k) kernel. Contiguous in both cases,
    because matmul's rounding can depend on its operands' strides and a
    conv kernel must give the bits of its tied LC layer."""
    o, c, k = weights.shape[0], weights.shape[1], weights.shape[-1]
    if weights.ndim == 4:
        flat = weights.reshape(o, c * k * k)
        return np.broadcast_to(flat, (height * width, o, c * k * k)).copy()
    flat = weights.transpose(2, 3, 0, 1, 4, 5).reshape(height * width, o, c * k * k)
    return np.ascontiguousarray(flat)


def _im2col(x: np.ndarray, kernel: int, pad: int, mode: PaddingMode = "zeros") -> np.ndarray:
    """The receptive fields of a batch-innermost (H, W, C, B) input as
    contiguous columns (H', W', C, k, k, B), built by k*k block copies
    from the padded plane, each moving contiguous runs of B values."""
    if mode not in ("zeros", "circular"):
        raise ValueError(f"unknown padding mode {mode!r}")
    h, w, c, b = x.shape
    if mode == "circular":
        xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0), (0, 0)), mode="wrap")
    else:
        xp = np.zeros((h + 2 * pad, w + 2 * pad, c, b))
        xp[pad:pad + h, pad:pad + w] = x
    ho, wo = h + 2 * pad - kernel + 1, w + 2 * pad - kernel + 1
    cols = np.empty((ho, wo, c, kernel, kernel, b))
    for i in range(kernel):
        for j in range(kernel):
            cols[:, :, :, i, j] = xp[i:i + ho, j:j + wo]
    return cols


def local_forward(x: np.ndarray, weights: np.ndarray, pad: int,
                  mode: PaddingMode = "zeros") -> Tuple[np.ndarray, np.ndarray]:
    """Batched forward of a layer over batch-innermost inputs x
    (H, W, C, B): each output position applies its own kernel to its
    receptive field, as one position-batched matmul of the position-major
    weights (H'*W', O, C*k*k) with the columns (H'*W', C*k*k, B). weights
    are per-position (O, C, H', W', k, k) or one shared (O, C, k, k)
    kernel, which enters as the tied LC layer's weights, so a conv layer
    and the LC layer tied to its kernel multiply the same operands.
    Returns the output (H', W', O, B) and the columns."""
    cols = _im2col(x, weights.shape[-1], pad, mode)
    ho, wo, c, k, _, b = cols.shape
    cols = cols.reshape(ho * wo, c * k * k, b)
    out = np.matmul(position_weights(weights, ho, wo), cols)
    return out.reshape(ho, wo, weights.shape[0], b), cols


def lc_forward(layer: LocalLayer, x: np.ndarray) -> np.ndarray:
    """Forward pass of one image; output (out_ch, H, W), each position
    applying its own kernel to its receptive field."""
    x = _check_input(layer, x)
    out, _ = local_forward(x.transpose(1, 2, 0)[..., None], layer.weights, layer.pad,
                           layer.padding_mode)
    return out[..., 0].transpose(2, 0, 1)


def conv_forward(layer: ConvLayer, x: np.ndarray) -> np.ndarray:
    """Forward pass of one image: lc_forward of the tied LC layer."""
    return lc_forward(layer, x)


def tie_lc_to_conv(layer: LocalLayer, kernel: np.ndarray) -> LocalLayer:
    """A copy of the layer with every position's kernel replaced by the
    given shared one. lc_forward of the result equals conv_forward with
    that kernel bit for bit (the same contraction on the same operands)."""
    kernel = np.asarray(kernel, dtype=np.float64)
    k = layer.kernel
    expect = (layer.out_channels, layer.in_channels, k, k)
    if kernel.shape != expect:
        raise ShapeError(f"tie_lc_to_conv: kernel must be {expect}, got {kernel.shape}")
    return LocalLayer(
        layer.in_channels, layer.out_channels, layer.height, layer.width, k,
        tile_kernel(kernel, layer.height, layer.width),
        pad=layer.pad, padding_mode=layer.padding_mode,
    )


@dataclass(frozen=True)
class GridPartition:
    """Residue classes of spatial positions mod k.

    2-D: k*k grids, grid (g1, g2) = {(y, x) : y = g1, x = g2 (mod k)},
    flattened to index g1 * k + g2. 1-D (height == 1): k grids of column
    indices.
    """

    k: int
    height: int
    width: int
    grids: Tuple[Tuple, ...] = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.grids)

    @property
    def one_dimensional(self) -> bool:
        return self.height == 1

    def positions(self, grid_index: int) -> np.ndarray:
        """Grid members: (P, 2) array of (y, x) rows, or (P,) columns in 1-D."""
        return np.array(self.grids[grid_index])


def make_partition(k: int, height: int, width: int) -> GridPartition:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if height == 1:
        grids = tuple(tuple(x for x in range(width) if x % k == g) for g in range(k))
    else:
        grids = tuple(
            tuple((y, x) for y in range(height) for x in range(width)
                  if y % k == g1 and x % k == g2)
            for g1 in range(k) for g2 in range(k)
        )
    return GridPartition(k=k, height=height, width=width, grids=grids)


@dataclass(frozen=True)
class RepeatingPattern:
    """An input plane tiled with period k by one base block."""

    base: np.ndarray
    values: np.ndarray
    active_grid: int
    k: int


def generate_pattern(partition: GridPartition, grid_index: int,
                     base: Optional[np.ndarray] = None,
                     rng: Optional[RngStream | np.random.Generator] = None) -> RepeatingPattern:
    """Tile the plane with a k-periodic block anchored at the given grid.

    The value at (y, x) depends only on (y mod k, x mod k); grid_index
    shifts the anchor so that base[0, 0] sits on that grid's positions.
    If no base is supplied one is drawn N(0, 1) fresh from rng.
    """
    k = partition.k
    if not (0 <= grid_index < partition.count):
        raise ValueError(f"grid_index {grid_index} out of range [0, {partition.count})")
    shape = (k,) if partition.one_dimensional else (k, k)
    if base is None:
        if rng is None:
            raise ValueError("generate_pattern: need base or rng")
        gen = rng.generator() if isinstance(rng, RngStream) else rng
        base = gen.normal(0.0, 1.0, size=shape)
    base = np.asarray(base, dtype=np.float64)
    if base.shape != shape:
        raise ShapeError(f"base must be {shape}, got {base.shape}")
    if partition.one_dimensional:
        g = grid_index
        xs = np.arange(partition.width)
        values = base[(xs - g) % k]
    else:
        g1, g2 = divmod(grid_index, k)
        ys = np.arange(partition.height)[:, None]
        xs = np.arange(partition.width)[None, :]
        values = base[(ys - g1) % k, (xs - g2) % k]
    return RepeatingPattern(base=base, values=values, active_grid=grid_index, k=k)


def shift_input(x: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Cyclic shift of the two spatial (trailing) axes."""
    x = np.asarray(x)
    return np.roll(np.roll(x, dy, axis=-2), dx, axis=-1)


def receptive_field(layer, x: np.ndarray, y: int, xpos: int) -> np.ndarray:
    """The (in_ch, k, k) input patch seen by output position (y, xpos)."""
    x = _check_input(layer, x)
    win = padded_windows(x, layer.kernel, layer.pad, layer.padding_mode)
    return win[:, y, xpos]
