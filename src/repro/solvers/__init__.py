"""Numerical linear solvers for power-grid systems.

The centrepiece is :class:`~repro.solvers.amg_pcg.AMGPCGSolver`, the
algebraic-multigrid preconditioned conjugate-gradient method the paper
adopts from PowerRush (Fig. 3): aggregation-based AMG with a K-cycle acting
as an implicit preconditioner for CG.  Supporting pieces:

- :mod:`repro.solvers.smoothers` — Jacobi / Gauss-Seidel / SOR relaxation.
- :mod:`repro.solvers.cg` — plain CG and Jacobi-preconditioned CG.
- :mod:`repro.solvers.amg` — pairwise-aggregation AMG hierarchy.
- :mod:`repro.solvers.cycles` — V-, W- and K-cycle preconditioner application.
- :mod:`repro.solvers.direct` — sparse-LU golden reference solver.
- :mod:`repro.solvers.powerrush` — the end-to-end PowerRush-style simulator.

Exports resolve lazily (PEP 562): importing one solver module does not
load the others, so the analyze path never imports the ECO, Schwarz,
random-walk, macromodel or vectored engines.
"""

from importlib import import_module
from typing import Any

#: Exported name -> defining submodule.
_EXPORTS = {
    "AdditiveSchwarzPreconditioner": "schwarz",
    "AddPad": "incremental",
    "AMGHierarchy": "amg",
    "AMGLevel": "amg",
    "AMGPCGSolver": "amg_pcg",
    "build_hierarchy": "amg",
    "CGSolver": "cg",
    "CyclePreconditioner": "cycles",
    "DirectSolver": "direct",
    "FallbackCascade": "guard",
    "GridDelta": "incremental",
    "GuardrailOptions": "guard",
    "IncrementalAnalyzer": "incremental",
    "IncrementalEngine": "incremental",
    "IncrementalOptions": "incremental",
    "IncrementalSolve": "incremental",
    "IterationGuard": "guard",
    "JacobiPCGSolver": "cg",
    "layer_port_rows": "macromodel",
    "PowerRushSimulator": "powerrush",
    "RandomWalkOptions": "random_walk",
    "RandomWalkSolver": "random_walk",
    "RemovePad": "incremental",
    "ReviseLoads": "incremental",
    "ScaleWire": "incremental",
    "SchurReduction": "macromodel",
    "SchwarzPCGSolver": "schwarz",
    "SetWireResistance": "incremental",
    "SimulationReport": "powerrush",
    "SolverDiagnostics": "guard",
    "SolveResult": "base",
    "SolverFailure": "guard",
    "SolverOptions": "base",
    "VectoredAnalyzer": "vectored",
    "VectoredResult": "vectored",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.solvers' has no attribute {name!r}")
    return getattr(import_module(f"repro.solvers.{module}"), name)
