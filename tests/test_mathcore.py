from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert exc.value.pivot == 1
    assert "pivot" in str(exc.value)


@pytest.mark.parametrize("which", ["a", "b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_spd_rejects_non_finite(which, bad):
    # a Cholesky factor of diag(1, nan) is nan, not an error
    a, b = np.diag([1.0, 2.0]), np.ones(2)
    if which == "a":
        a[1, 1] = bad
    else:
        b[0] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_spd(a, b)


def test_solve_spd_reads_the_lower_triangle():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4))
    a = m @ m.T + np.eye(4)
    rhs = rng.normal(size=4)
    assert np.array_equal(solve_spd(np.tril(a), rhs), solve_spd(a, rhs))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 16),
       cols=st.sampled_from([None, 1, 3, 7]), shift=st.floats(1e-2, 10.0))
def test_solve_spd_agrees_with_dense_solve(seed, d, cols, shift):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d))
    a = m @ m.T / d + shift * np.eye(d)
    rhs = rng.normal(size=(d,) if cols is None else (d, cols))
    x = solve_spd(a, rhs)
    ref = np.linalg.solve(a, rhs)
    assert x.shape == ref.shape
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def _first_nonpositive_minor(a) -> int:
    """Sylvester's criterion by exact arithmetic: the 0-based order of the
    first leading minor whose determinant is not positive."""
    for k in range(1, len(a) + 1):
        m = [[Fraction(int(v)) for v in row[:k]] for row in a[:k]]
        det = Fraction(1)
        for i in range(k):
            p = next((r for r in range(i, k) if m[r][i] != 0), None)
            if p is None:
                det = Fraction(0)
                break
            if p != i:
                m[i], m[p] = m[p], m[i]
                det = -det
            det *= m[i][i]
            for r in range(i + 1, k):
                f = m[r][i] / m[i][i]
                m[r] = [x - f * y for x, y in zip(m[r], m[i])]
        if det <= 0:
            return k - 1
    raise AssertionError("every leading minor is positive")


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 16), data=st.data())
def test_solve_spd_pivot_is_the_first_singular_minor(seed, d, data):
    # a = m m^T with m integer lower triangular and m[p, p] = 0: minors of
    # order <= p have det prod m[i, i]^2 > 0 and the one of order p + 1 is
    # 0. With diagonal entries +-1 or +-2, even a factorization that
    # multiplies by reciprocal pivots computes in exact integers and
    # dyadics, so it meets an exact zero pivot at p
    p = data.draw(st.integers(0, d - 1))
    rng = np.random.default_rng(seed)
    m = np.tril(rng.integers(-3, 4, size=(d, d))).astype(np.float64)
    diag = rng.choice([-2, -1, 1, 2], size=d)
    diag[p] = 0
    np.fill_diagonal(m, diag)
    a = m @ m.T
    assert _first_nonpositive_minor(a) == p
    with pytest.raises(SingularMatrixError) as exc:
        solve_spd(a, np.ones(d))
    assert exc.value.pivot == p
