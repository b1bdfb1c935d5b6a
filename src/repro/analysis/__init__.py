"""Project-wide correctness tooling.

Five pillars, all import-light and kernel-free:

- :mod:`repro.analysis.engine` + :mod:`repro.analysis.rules` — an
  AST-based lint engine enforcing project invariants (no runtime
  asserts, no unseeded RNG, no wall-clock reads, guarded divisions,
  frozen fp64 paths, fork-safe workers, import hygiene), runnable as
  ``python -m repro.analysis``;
- :mod:`repro.analysis.callgraph` + :mod:`repro.analysis.passes` — a
  project call graph computed once per run, feeding whole-program
  passes: worker-context reachability, the metrics/span contract, and
  shm scope lifecycle checking;
- :mod:`repro.analysis.shapes` — a symbolic shape/dtype verifier that
  propagates ``(N, C, H, W)`` specs through module graphs without
  executing kernels, validating every registered architecture and the
  feature-stack channel contract;
- :mod:`repro.analysis.sanitizer` — an opt-in runtime numerics
  sanitizer that traps NaN/Inf/denormal/overflow at the originating op
  (``FusionConfig.sanitize`` / ``--sanitize``);
- :mod:`repro.analysis.racecheck` — an opt-in runtime lock-order/race
  sanitizer (``REPRO_RACE_CHECK``) that wraps the project's locks and
  shared dicts to flag acquisition-order inversions and unlocked
  writes; the chaos-smoke CI job runs under it.

Exports resolve lazily (PEP 562): the CLI and every pool worker import
:mod:`repro.analysis.racecheck` at start-up, and that must not load the
shape verifier's model registry or the lint engine.
"""

from importlib import import_module
from typing import Any

#: Exported name -> (defining submodule, attribute there).
_EXPORTS = {
    "AnalysisEngine": ("engine", "AnalysisEngine"),
    "AnalysisReport": ("engine", "AnalysisReport"),
    "CallGraphPass": ("engine", "CallGraphPass"),
    "Finding": ("engine", "Finding"),
    "ModuleSource": ("engine", "ModuleSource"),
    "Rule": ("engine", "Rule"),
    "RaceError": ("racecheck", "RaceError"),
    "RaceFinding": ("racecheck", "RaceFinding"),
    "install_racecheck_from_env": ("racecheck", "install_from_env"),
    "NumericsFinding": ("sanitizer", "NumericsFinding"),
    "NumericsTrap": ("sanitizer", "NumericsTrap"),
    "SanitizerSession": ("sanitizer", "SanitizerSession"),
    "check_array": ("sanitizer", "check_array"),
    "ShapeError": ("shapes", "ShapeError"),
    "ShapeReport": ("shapes", "ShapeReport"),
    "ShapeVerifier": ("shapes", "ShapeVerifier"),
    "TensorSpec": ("shapes", "TensorSpec"),
    "verify_feature_contract": ("shapes", "verify_feature_contract"),
    "verify_model": ("shapes", "verify_model"),
    "verify_registry": ("shapes", "verify_registry"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module 'repro.analysis' has no attribute {name!r}")
    module, attr = target
    return getattr(import_module(f"repro.analysis.{module}"), attr)
