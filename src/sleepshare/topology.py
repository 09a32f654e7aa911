"""Layer geometry: locally connected and convolutional forwards, the
residue-class grid structure of output positions, and periodic input
patterns that drive every neuron in one grid with identical input.

Weight layouts
    LocalLayer.weights: (y, x, out_ch, in_ch, ky, kx), a private kernel
    per output position, indexed in the order it is stored.
    ConvLayer.weights: (out_ch, in_ch, ky, kx), one kernel everywhere.

One forward, `local_forward`, serves both: a conv kernel runs as the LC
layer tied to it (its per-position copy), so a conv layer and the tied
LC layer agree bit for bit, here and in the trainer, which calls the
same forward. Both use the cross-correlation convention (no kernel flip) and
same-shape output. Padding is zero-fill by default; "circular" padding
is available because cyclic shift equivariance and the equal-input
pattern property are exact only without a zero boundary.

`local_forward` works batch-innermost: inputs (H, W, C, B), im2col
columns (H'*W', C*k*k, B) and a position-batched matmul with the
position-major weights (H'*W', O, C*k*k) (`position_weights`, a reshape
of the per-position weights, or a stride-0 view of a shared kernel) into
outputs (H', W', O, B). It takes the output rows in blocks of about
`_BLOCK_BYTES` of columns: one strided copy from the padded plane fills
a block and the block's matmul reads it while it is in cache. Each
position's product is the same gemm on the same operands in the same
layout whatever the blocking, so the bits do not depend on it. A caller
that keeps the columns (for a backward pass) gets them whole; one that
does not passes keep_cols=False and every block reuses one block-sized
scratch. A `Workspace` holds the padded plane, the columns and the
output from call to call, one buffer per key and role, re-made only when
a shape changes. A caller that writes its input straight into the
interior of that padded plane (`_plane_interior`, as the trainer's pool
does) saves the call its copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from .errors import ShapeError

__all__ = [
    "LocalLayer",
    "ConvLayer",
    "local_forward",
    "Workspace",
    "lc_forward",
    "conv_forward",
    "tile_kernel",
    "position_weights",
    "tie_lc_to_conv",
    "grid_slices",
    "generate_pattern",
    "padded_windows",
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


# equality is identity: the generated == would compare array fields and raise
@dataclass(eq=False)
class _Layer:
    """The fields, checks and Kaiming draw a LocalLayer and a ConvLayer
    share; each names only its weight shape. The output has the input's
    (height, width), so pad is kernel // 2."""

    in_channels: int
    out_channels: int
    height: int
    width: int
    kernel: int
    weights: np.ndarray
    padding_mode: PaddingMode = "zeros"

    def __post_init__(self):
        _check_kernel(self.kernel)
        name = type(self).__name__
        expect = self._weight_shape(self.out_channels, self.in_channels, self.height,
                                    self.width, self.kernel)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != expect:
            raise ShapeError(f"{name} weights must be {expect}, got {self.weights.shape}")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError(f"{name} weights must be finite")

    @property
    def pad(self) -> int:
        return self.kernel // 2

    @classmethod
    def kaiming(cls, rng: np.random.Generator, in_channels, out_channels, height, width,
                kernel, **kw):
        shape = cls._weight_shape(out_channels, in_channels, height, width, kernel)
        w = rng.normal(0.0, kaiming_std(out_channels, kernel), size=shape)
        return cls(in_channels, out_channels, height, width, kernel, w, **kw)


# eq=False again: a subclass generates its own __eq__ otherwise
@dataclass(eq=False)
class LocalLayer(_Layer):
    """Restricted receptive fields with an independent kernel at every
    spatial position."""

    @staticmethod
    def _weight_shape(o, c, h, w, k):
        return (h, w, o, c, k, k)


@dataclass(eq=False)
class ConvLayer(_Layer):
    """Same geometry as LocalLayer but one shared kernel per channel pair."""

    @staticmethod
    def _weight_shape(o, c, h, w, k):
        return (o, c, k, k)


def _check_input(layer, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    expect = (layer.in_channels, layer.height, layer.width)
    if x.shape != expect:
        raise ShapeError(f"input must be {expect}, got {x.shape}")
    return x


def tile_kernel(kernel: np.ndarray, height: int, width: int) -> np.ndarray:
    """The contiguous (height, width, out, in, k, k) per-position copy of
    a shared (out, in, k, k) kernel: the LC layer tied to it."""
    return np.broadcast_to(kernel, (height, width) + kernel.shape).copy()


def position_weights(weights: np.ndarray, height: int, width: int) -> np.ndarray:
    """The (height*width, out, in*k*k) position-major form of per-position
    (height, width, out, in, k, k) weights, or of the LC layer tied to a
    shared (out, in, k, k) kernel, which enters with stride 0 over
    positions. A view of C-contiguous weights, a copy of any others: every
    position's (out, in*k*k) matrix is C-contiguous either way, because
    matmul's rounding can depend on its operands' strides and a conv
    kernel must give the bits of its tied LC layer."""
    o, c, k = weights.shape[-4], weights.shape[-3], weights.shape[-1]
    flat = np.ascontiguousarray(weights).reshape(-1, o, c * k * k)
    if weights.ndim == 4:
        return np.broadcast_to(flat, (height * width, o, c * k * k))
    return flat


class Workspace:
    """Arrays reused from call to call, one per key. `buffer` re-makes a
    key's array only when the shape asked for changes, so what a caller
    read from a buffer stays valid until the next request for its key."""

    def __init__(self):
        self._arrays: Dict[Hashable, np.ndarray] = {}

    def buffer(self, key: Hashable, shape: Tuple[int, ...], zeroed: bool = False) -> np.ndarray:
        """The array for key; a new one starts zero-filled if zeroed, and
        cells that no caller writes stay zero."""
        arr = self._arrays.get(key)
        if arr is None or arr.shape != shape:
            arr = np.zeros(shape) if zeroed else np.empty(shape)
            self._arrays[key] = arr
        return arr


# Bytes of im2col columns per block, which takes as many whole output
# rows as fit (at least one): a block's columns are still in cache when
# its matmul reads them. Budgets from 192 KiB to 1 MiB timed alike at the
# trainer's shapes (batch 64 and 256); unblocked was slowest.
_BLOCK_BYTES = 512 * 1024


def _role(key, keep_cols: bool):
    return (key, "cached" if keep_cols else "scratch")


def _plane(ws: Workspace, role, shape, pad: int, mode: PaddingMode) -> np.ndarray:
    """The workspace's padded (H + 2*pad, W + 2*pad, C, B) plane for a
    batch-innermost (H, W, C, B) input. The key holds the mode and pad,
    so a zero plane's border, written by nobody, stays zero."""
    h, w, c, b = shape
    return ws.buffer((role, "plane", mode, pad), (h + 2 * pad, w + 2 * pad, c, b),
                     zeroed=True)


def _plane_interior(ws: Workspace, key, keep_cols: bool, shape, pad: int) -> np.ndarray:
    """The interior of the zero-padded plane that `local_forward` with
    this workspace, key and keep_cols copies an input of the given
    (H, W, C, B) shape into. An input written here in place is not
    copied again."""
    h, w = shape[:2]
    return _plane(ws, _role(key, keep_cols), shape, pad, "zeros")[pad:pad + h, pad:pad + w]


def _padded_plane(ws: Workspace, role, x: np.ndarray, pad: int, mode: PaddingMode) -> np.ndarray:
    """The batch-innermost (H, W, C, B) input padded on its two spatial
    axes, in the workspace."""
    if mode not in ("zeros", "circular"):
        raise ValueError(f"unknown padding mode {mode!r}")
    h, w = x.shape[:2]
    xp = _plane(ws, role, x.shape, pad, mode)
    if mode == "circular":
        xp[...] = np.pad(x, ((pad, pad), (pad, pad), (0, 0), (0, 0)), mode="wrap")
        return xp
    interior = xp[pad:pad + h, pad:pad + w]
    if (interior.__array_interface__["data"][0] != x.__array_interface__["data"][0]
            or interior.strides != x.strides):
        interior[...] = x
    return xp


def local_forward(x: np.ndarray, weights: np.ndarray, pad: int,
                  mode: PaddingMode = "zeros", *, workspace: Optional[Workspace] = None,
                  key: Hashable = None, keep_cols: bool = True
                  ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Batched forward of a layer over batch-innermost inputs x
    (H, W, C, B): each output position applies its own kernel to its
    receptive field, as a position-batched matmul of the position-major
    weights (H'*W', O, C*k*k) with the columns (H'*W', C*k*k, B). weights
    are per-position (H', W', O, C, k, k) or one shared (O, C, k, k)
    kernel, which enters as the tied LC layer's weights, so a conv layer
    and the LC layer tied to its kernel multiply the same operands.

    The columns are built and multiplied in blocks of output rows
    (_BLOCK_BYTES): one copy from the padded plane fills a block, and its
    matmul reads it while it is in cache. Every position's product is the same
    gemm on the same operands in the same layout, so the block size does
    not change a bit.

    Returns the output (H', W', O, B) and, if keep_cols, the columns
    (H'*W', C*k*k, B); otherwise the blocks share one block-sized scratch
    and None is returned in their place. With a workspace, the output,
    the padded plane and the columns are its buffers under `key`: valid
    until the next call with that key and the same keep_cols. A call
    without keep_cols uses none of the buffers a call with it returns.
    Without a workspace every buffer is new.
    """
    ws = Workspace() if workspace is None else workspace
    role = _role(key, keep_cols)
    xp = _padded_plane(ws, role, x, pad, mode)
    h, w, c, b = x.shape
    o, k = weights.shape[-4], weights.shape[-1]
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    # windows[y, x, c, i, j, b] = xp[y + i, x + j, c, b], a strided view
    windows = np.lib.stride_tricks.sliding_window_view(
        xp, (k, k), axis=(0, 1)).transpose(0, 1, 2, 4, 5, 3)
    rows = max(1, _BLOCK_BYTES // max(1, wo * c * k * k * b * xp.itemsize))
    if keep_cols:
        cols = ws.buffer((role, "cols"), (ho, wo, c, k, k, b))
    else:
        cols = ws.buffer((role, "block"), (min(rows, ho), wo, c, k, k, b))
    pw = position_weights(weights, ho, wo)
    out = ws.buffer((role, "out"), (ho * wo, o, b))
    for y0 in range(0, ho, rows):
        y1 = min(y0 + rows, ho)
        block = cols[y0:y1] if keep_cols else cols[:y1 - y0]
        block[...] = windows[y0:y1]
        np.matmul(pw[y0 * wo:y1 * wo], block.reshape(-1, c * k * k, b),
                  out=out[y0 * wo:y1 * wo])
    out = out.reshape(ho, wo, o, b)
    return out, cols.reshape(ho * wo, c * k * k, b) if keep_cols else None


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
        tile_kernel(kernel, layer.height, layer.width), padding_mode=layer.padding_mode,
    )


def grid_slices(k: int) -> List[Tuple[slice, slice]]:
    """The residue classes of spatial positions mod k as k*k pairs of
    (row, column) slices: grid g = gy * k + gx holds the positions
    {(y, x) : y = gy, x = gx (mod k)}, so `a[ys, xs]` is grid g's strided
    view of an array whose leading two axes are (y, x), as they are in
    per-position kernels. Edge grids of a plane whose sides are not
    multiples of k hold fewer members, and a side shorter than k leaves
    some grids empty."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return [(slice(gy, None, k), slice(gx, None, k)) for gy in range(k) for gx in range(k)]


def generate_pattern(base: np.ndarray, grid_index: int, height: int, width: int) -> np.ndarray:
    """The (height, width) plane tiled with period k by the (k, k) base
    block, anchored at the given grid.

    The value at (y, x) depends only on (y mod k, x mod k); grid_index
    shifts the anchor so that base[0, 0] sits on that grid's positions.
    """
    base = np.asarray(base, dtype=np.float64)
    if base.ndim != 2 or base.shape[0] != base.shape[1]:
        raise ShapeError(f"base must be a square (k, k) block, got {base.shape}")
    k = base.shape[0]
    if not (0 <= grid_index < k * k):
        raise ValueError(f"grid_index {grid_index} out of range [0, {k * k})")
    g1, g2 = divmod(grid_index, k)
    ys = np.arange(height)[:, None]
    xs = np.arange(width)[None, :]
    return base[(ys - g1) % k, (xs - g2) % k]
