import numpy as np
import pytest

from diachrona.jacobi import jacobi_svd


def assert_valid_svd(a, u, s, vt, tol=1e-10):
    r = min(a.shape)
    assert u.shape == (a.shape[0], r)
    assert vt.shape == (r, a.shape[1])
    assert np.all(np.diff(s) <= 1e-12)  # descending
    assert np.all(s >= 0)
    np.testing.assert_allclose(u.T @ u, np.eye(r), atol=tol)
    np.testing.assert_allclose(vt @ vt.T, np.eye(r), atol=tol)
    scale = max(np.abs(a).max(), 1.0)
    np.testing.assert_allclose(u @ np.diag(s) @ vt, a, atol=1e-8 * scale)


def test_singular_values_match_eigenvalue_oracle():
    # the symmetric [[0, A], [A^T, 0]] has eigenvalues +-sigma (and zeros),
    # so its top min(m, n) eigenvalues are the singular values of A
    rng = np.random.default_rng(71)
    for _ in range(40):
        m = int(rng.integers(1, 20))
        n = int(rng.integers(1, 20))
        a = rng.normal(size=(m, n)) * 10.0 ** int(rng.integers(-3, 4))
        u, s, vt = jacobi_svd(a)
        block = np.block([[np.zeros((m, m)), a], [a.T, np.zeros((n, n))]])
        expected = np.linalg.eigvalsh(block)[::-1][: min(m, n)]
        np.testing.assert_allclose(s, expected, atol=1e-9 * max(expected.max(), 1.0))
        assert_valid_svd(a, u, s, vt)


def test_zero_matrix():
    a = np.zeros((4, 3))
    u, s, vt = jacobi_svd(a)
    assert np.all(s == 0)
    assert_valid_svd(a, u, s, vt)


def test_rank_deficient_keeps_orthonormal_u():
    a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    u, s, vt = jacobi_svd(a)
    assert s[1] == pytest.approx(0.0, abs=1e-12)
    assert_valid_svd(a, u, s, vt)


def test_wide_matrix_via_transpose():
    rng = np.random.default_rng(72)
    a = rng.normal(size=(3, 9))
    u, s, vt = jacobi_svd(a)
    assert_valid_svd(a, u, s, vt)


def test_known_two_by_two():
    # S = [[.5, -.5], [-.5, .5]] has singular values {1, 0}
    a = np.array([[0.5, -0.5], [-0.5, 0.5]])
    _, s, _ = jacobi_svd(a)
    np.testing.assert_allclose(s, [1.0, 0.0], atol=1e-14)


def test_deterministic_and_sign_canonical():
    rng = np.random.default_rng(73)
    a = rng.normal(size=(8, 5))
    u1, s1, vt1 = jacobi_svd(a)
    u2, s2, vt2 = jacobi_svd(a.copy())
    assert np.array_equal(u1, u2) and np.array_equal(s1, s2) and np.array_equal(vt1, vt2)
    for j in range(u1.shape[1]):
        lead = np.argmax(np.abs(u1[:, j]))
        assert u1[lead, j] >= 0


def test_identity_and_diagonal():
    u, s, vt = jacobi_svd(np.eye(5))
    np.testing.assert_allclose(s, np.ones(5), atol=1e-14)
    a = np.diag([3.0, 2.0, 1.0])
    _, s, _ = jacobi_svd(a)
    np.testing.assert_allclose(s, [3.0, 2.0, 1.0], atol=1e-14)
