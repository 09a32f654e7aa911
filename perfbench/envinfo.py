"""The environment block recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import time
from pathlib import Path
from typing import Optional

import numpy as np
import scipy


def openblas_threads() -> Optional[int]:
    """Live thread count of the OpenBLAS bundled with numpy, or None when
    numpy links another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas64_*.so*"))):
        try:
            lib = ctypes.CDLL(path)     # already loaded by numpy: same handle
            fn = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def calibration_probe_s() -> float:
    """Time of a fixed small-array update loop, the kind of work most of
    the workloads do; compare it across results to see machine drift."""
    rng = np.random.default_rng(0)
    w = rng.normal(size=(100, 9))
    x = rng.normal(size=9)
    start = time.perf_counter()
    for _ in range(2000):
        z = w @ x
        w -= 1e-6 * (z - z.mean())[:, None] * x
    return time.perf_counter() - start


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "calibration_probe_s": calibration_probe_s(),
    }
