"""Deterministic dense linear algebra and seeded sampling.

Everything downstream builds on these few calls. The generator is
counter-based (Philox) so that derived streams are independent of
iteration order and thread count: the same (seed, path) always yields
the same sequence, on any platform.

numpy is the only dependency. `solve_spd` factors with
`np.linalg.cholesky` and solves with the factor; `numpy.random` is
imported here, at start-up, because numpy does not load it on its own
and the first draw would otherwise pay for the import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
import numpy.random

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

    `b` may be a vector or a matrix of stacked right-hand sides. Only the
    lower triangle of a is read. Raises ValueError if a or b holds a
    non-finite value, and SingularMatrixError naming the failing pivot
    (the 0-based order of the first leading minor that does not factor)
    if a is not SPD.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"solve_spd: matrix must be square, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ShapeError(f"solve_spd: incompatible shapes {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        # a Cholesky of a nan matrix returns nan instead of failing
        raise ValueError("solve_spd: array must not contain infs or NaNs")
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as e:
        pivot = _failing_pivot(a)
        raise SingularMatrixError(pivot, str(e)) from e
    # numpy has no triangular solve; two dense solves on the factor take a
    # third of the time of a substitution loop in Python
    return np.linalg.solve(low.T, np.linalg.solve(low, b))


def _failing_pivot(a: np.ndarray) -> int:
    """0-based order of the first leading minor of a that does not factor;
    a itself has failed, so if no smaller minor fails, a's own order."""
    n = a.shape[0]
    for k in range(1, n):
        try:
            np.linalg.cholesky(a[:k, :k])
        except np.linalg.LinAlgError:
            return k - 1
    return n - 1
