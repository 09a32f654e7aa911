"""Deterministic dense linear algebra and seeded sampling.

Everything downstream builds on these few calls. The generator is
counter-based (Philox) so that derived streams are independent of
iteration order and thread count: the same (seed, path) always yields
the same sequence, on any platform.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
import scipy.linalg

from .errors import ShapeError, SingularMatrixError

__all__ = ["RngStream", "solve_spd"]


@dataclass(frozen=True)
class RngStream:
    """A named, splittable random stream.

    `seed` is the experiment master seed; `path` identifies the consumer
    (sweep cell, noise source, ...). Identical (seed, path) pairs produce
    identical sequences regardless of how many other streams exist or in
    what order they are drawn from.
    """

    seed: int
    path: Tuple[int, ...] = field(default=())

    def spawn(self, *key: int) -> "RngStream":
        # children extend the path; they never share draws with the parent
        return RngStream(self.seed, self.path + tuple(int(k) for k in key))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))


def solve_spd(a, b):
    """Solve a x = b for symmetric positive definite a via Cholesky.

    `b` may be a vector or a matrix of stacked right-hand sides. Raises
    SingularMatrixError naming the failing pivot if a is not SPD.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"solve_spd: matrix must be square, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ShapeError(f"solve_spd: incompatible shapes {a.shape} and {b.shape}")
    try:
        cf = scipy.linalg.cho_factor(a, lower=True, check_finite=True)
    except np.linalg.LinAlgError as e:  # scipy raises numpy's LinAlgError
        m = re.search(r"(\d+)", str(e))
        # scipy reports the 1-based order of the failing leading minor
        pivot = int(m.group(1)) - 1 if m else -1
        raise SingularMatrixError(pivot, str(e)) from e
    return scipy.linalg.cho_solve(cf, b)

