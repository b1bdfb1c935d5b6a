"""Top-level configuration, pipeline, and experiment runners.

Exports resolve lazily (PEP 562): ``import repro.core.pool`` or
``repro.core.config`` runs this file without loading the pipeline or
the experiment runners, which pull the evaluation stack.
"""

from importlib import import_module
from typing import Any

#: Exported name -> defining submodule.
_EXPORTS = {
    "AblationResult": "experiment",
    "AnalysisResult": "pipeline",
    "FusionConfig": "config",
    "IRFusionPipeline": "pipeline",
    "run_ablation_study": "experiment",
    "run_main_results": "experiment",
    "run_tradeoff_study": "experiment",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
    return getattr(import_module(f"repro.core.{module}"), name)
