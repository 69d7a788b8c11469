import numpy as np
import pytest

from mpdp.linalg import SingularSystemError, solve_normal_equations


class TestSolveNormalEquations:
    def test_matches_explicit_system(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(200, 4))
        y = rng.uniform(-1, 1, size=200)
        scale, shift, lam = 200, 0.05, 1e-3
        weights, min_eig = solve_normal_equations(x, y, lam, scale=scale, shift=shift)
        system = x.T @ x / scale + (lam - shift) * np.eye(4)
        np.testing.assert_allclose(system @ weights, x.T @ y / scale, rtol=1e-10, atol=1e-13)
        assert min_eig == pytest.approx(np.abs(np.linalg.eigvalsh(system)).min(), rel=1e-12)

    def test_defaults_use_the_raw_gram_matrix(self):
        x = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        weights, min_eig = solve_normal_equations(x, np.ones(3), 0.0)
        np.testing.assert_allclose(x.T @ x @ weights, x.T @ np.ones(3), rtol=1e-12)
        assert min_eig == pytest.approx(np.linalg.eigvalsh(x.T @ x).min(), rel=1e-12)

    def test_rejects_negative_lambda_and_mismatched_shapes(self):
        with pytest.raises(ValueError, match="lam"):
            solve_normal_equations(np.eye(3), np.ones(3), -1.0)
        with pytest.raises(ValueError):
            solve_normal_equations(np.eye(3), np.ones(2), 0.0)

    def test_shift_to_singular_raises(self):
        # shifting the identity Gram matrix by exactly 1 leaves the zero matrix
        with pytest.raises(SingularSystemError):
            solve_normal_equations(np.eye(3), np.ones(3), 0.0, shift=1.0)
