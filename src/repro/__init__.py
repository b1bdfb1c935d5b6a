"""IR-Fusion: static IR drop analysis combining numerical solution and ML.

Reproduction of Guo et al., "IR-Fusion: A Fusion Framework for Static IR
Drop Analysis Combining Numerical Solution and Machine Learning"
(DATE 2025).

The package is organised bottom-up:

- :mod:`repro.spice`    -- SPICE netlist AST, parser and writer.
- :mod:`repro.grid`     -- power-grid data model (layers, nodes, wires map).
- :mod:`repro.mna`      -- modified nodal analysis; conductance stamping.
- :mod:`repro.solvers`  -- CG / PCG / aggregation AMG / K-cycle / AMG-PCG.
- :mod:`repro.features` -- hierarchical numerical-structural feature maps.
- :mod:`repro.nn`       -- from-scratch numpy neural-network framework.
- :mod:`repro.models`   -- IRFusionNet and the six baseline models.
- :mod:`repro.data`     -- synthetic benchmark generation, augmentation,
  curriculum learning, ICCAD-2023 data format.
- :mod:`repro.train`    -- trainer and metrics.
- :mod:`repro.eval`     -- evaluation harness and report rendering.
- :mod:`repro.core`     -- configuration and the end-to-end pipeline.
"""

from typing import Any

from repro.obs.trace import monotonic as _monotonic

#: Monotonic stamp taken when the package is first imported: where the
#: CLI's ``imports`` span and trace root start, so a trace covers the
#: process's start-up as well as its work.
IMPORT_STAMP = _monotonic()

__version__ = "1.0.0"

__all__ = ["FusionConfig", "IRFusionPipeline", "__version__"]


def __getattr__(name: str) -> Any:
    # Lazy top-level exports keep `import repro.spice` cheap: the heavy
    # pipeline stack only loads when the convenience names are touched.
    if name == "FusionConfig":
        from repro.core.config import FusionConfig

        return FusionConfig
    if name == "IRFusionPipeline":
        from repro.core.pipeline import IRFusionPipeline

        return IRFusionPipeline
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
