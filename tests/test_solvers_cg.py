"""Unit tests for CG and Jacobi-PCG."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.mna.stamper import build_reduced_system
from repro.solvers.base import SolverOptions, dot, norm
from repro.solvers.cg import CGSolver, JacobiPCGSolver


@pytest.fixture()
def pg_system(fake_design):
    return build_reduced_system(fake_design.grid)


class TestCG:
    def test_converges_on_pg_system(self, pg_system):
        result = CGSolver(SolverOptions(tol=1e-10)).solve(
            pg_system.matrix, pg_system.rhs
        )
        assert result.converged
        assert pg_system.relative_residual(result.x) < 1e-9

    def test_respects_max_iterations(self, pg_system):
        result = CGSolver(SolverOptions(max_iterations=3)).solve(
            pg_system.matrix, pg_system.rhs
        )
        assert result.iterations == 3
        assert not result.converged

    def test_residual_history_monotone_overall(self, pg_system):
        result = CGSolver(SolverOptions(tol=1e-10)).solve(
            pg_system.matrix, pg_system.rhs
        )
        history = np.array(result.residual_norms)
        assert history[-1] < history[0] * 1e-8

    def test_initial_guess_exact_returns_immediately(self, pg_system):
        import scipy.sparse.linalg as sla

        exact = np.asarray(sla.spsolve(pg_system.matrix.tocsc(), pg_system.rhs))
        result = CGSolver(SolverOptions(tol=1e-8)).solve(
            pg_system.matrix, pg_system.rhs, x0=exact
        )
        assert result.iterations == 0
        assert result.converged

    def test_zero_rhs_returns_zero(self, pg_system):
        result = CGSolver().solve(pg_system.matrix, np.zeros(pg_system.size))
        assert result.converged
        assert np.allclose(result.x, 0.0)

    def test_history_can_be_disabled(self, pg_system):
        result = CGSolver(
            SolverOptions(tol=1e-10, record_history=False)
        ).solve(pg_system.matrix, pg_system.rhs)
        assert result.residual_norms == []
        assert np.isnan(result.final_residual)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CGSolver().solve(sp.eye(3, format="csr"), np.ones(4))


class TestJacobiPCG:
    def test_converges(self, pg_system):
        result = JacobiPCGSolver(SolverOptions(tol=1e-10)).solve(
            pg_system.matrix, pg_system.rhs
        )
        assert result.converged

    def test_not_slower_than_cg_on_scaled_system(self, rng):
        # Badly diagonally scaled SPD system: Jacobi PCG should win.
        n = 80
        scales = 10.0 ** rng.uniform(-3, 3, size=n)
        lap = sp.diags(
            [-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
            [-1, 0, 1],
        ).toarray()
        matrix = sp.csr_matrix(np.diag(scales) @ lap @ np.diag(scales) + np.eye(n))
        rhs = rng.standard_normal(n)
        options = SolverOptions(tol=1e-8, max_iterations=5000)
        plain = CGSolver(options).solve(matrix, rhs)
        jacobi = JacobiPCGSolver(options).solve(matrix, rhs)
        assert jacobi.converged
        assert jacobi.iterations <= plain.iterations

    def test_rejects_nonpositive_diagonal(self):
        matrix = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError):
            JacobiPCGSolver().solve(matrix, np.ones(2))


class TestSolverOptions:
    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            SolverOptions(tol=-1)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            SolverOptions(max_iterations=-1)

    def test_convergence_factor(self, pg_system):
        result = CGSolver(SolverOptions(tol=1e-10)).solve(
            pg_system.matrix, pg_system.rhs
        )
        factor = result.convergence_factor()
        assert 0.0 <= factor < 1.0


class TestReductions:
    def test_dot_and_norm_match_blas_to_rounding(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(50_000), rng.standard_normal(50_000)
        assert dot(a, b) == pytest.approx(float(a @ b), rel=1e-12, abs=1e-9)
        assert norm(a) == pytest.approx(float(np.linalg.norm(a)), rel=1e-12)
        assert isinstance(dot(a, b), float) and norm(np.zeros(3)) == 0.0
