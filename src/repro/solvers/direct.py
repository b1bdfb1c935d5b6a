"""Direct sparse solver — the golden reference.

EDA signoff flows treat a converged direct factorisation (KLU / CHOLMOD)
as ground truth.  Here sparse LU from SuperLU (via scipy) plays that role;
for the SPD reduced systems it is numerically equivalent to a Cholesky
solve and is used to produce golden IR-drop labels for the dataset.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.solvers.base import SolveResult, Timer, check_system, norm


class DirectSolver:
    """Sparse-LU solver with factor caching for repeated right-hand sides."""

    def __init__(self) -> None:
        self._cached_factor = None
        self._cached_matrix_id: int | None = None

    def solve(
        self,
        matrix: sp.spmatrix,
        rhs: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> SolveResult:
        """Factor (or reuse a cached factor) and solve exactly.

        ``x0`` is accepted for interface compatibility and ignored.
        """
        csr = check_system(matrix, rhs)
        timer = Timer()
        if self._cached_matrix_id != id(matrix) or self._cached_factor is None:
            self._cached_factor = splu(csr.tocsc())
            self._cached_matrix_id = id(matrix)
        setup = timer.lap()
        x = self._cached_factor.solve(rhs)
        solve = timer.lap()
        residual = norm(rhs - csr @ x)
        return SolveResult(
            x=np.asarray(x, dtype=float),
            iterations=1,
            converged=True,
            residual_norms=[norm(rhs), residual],
            setup_seconds=setup,
            solve_seconds=solve,
        )
