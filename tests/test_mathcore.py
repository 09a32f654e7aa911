import numpy as np
import pytest

from sleepshare.errors import SingularMatrixError
from sleepshare.mathcore import RngStream, solve_spd


def test_stream_reproducible():
    a = RngStream(7, (1, 2)).generator().normal(size=5)
    b = RngStream(7, (1, 2)).generator().normal(size=5)
    assert np.array_equal(a, b)


def test_stream_paths_differ():
    a = RngStream(7, (1, 2)).generator().normal(size=5)
    b = RngStream(7, (1, 3)).generator().normal(size=5)
    c = RngStream(8, (1, 2)).generator().normal(size=5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_spawn_extends_path():
    s = RngStream(3, (4,))
    child = s.spawn(5, 6)
    assert child.path == (4, 5, 6)
    assert child.seed == 3
    direct = RngStream(3, (4, 5, 6)).generator().normal(size=4)
    assert np.array_equal(child.generator().normal(size=4), direct)


def test_solve_spd_matches_dense_solve():
    rng = np.random.default_rng(1)
    b = rng.normal(size=(6, 6))
    a = b.T @ b + np.eye(6)
    rhs = rng.normal(size=6)
    assert np.allclose(solve_spd(a, rhs), np.linalg.solve(a, rhs), atol=1e-10)


def test_solve_spd_matrix_rhs():
    rng = np.random.default_rng(2)
    b = rng.normal(size=(5, 5))
    a = b.T @ b + np.eye(5)
    rhs = rng.normal(size=(5, 3))
    assert np.allclose(solve_spd(a, rhs), np.linalg.solve(a, rhs), atol=1e-10)


def test_solve_spd_singular_names_pivot():
    # rank-1 matrix: Cholesky must fail at the second pivot
    v = np.array([1.0, 2.0, 3.0])
    a = np.outer(v, v)
    with pytest.raises(SingularMatrixError) as exc:
        solve_spd(a, np.ones(3))
    assert exc.value.pivot >= 0
    assert "pivot" in str(exc.value)
