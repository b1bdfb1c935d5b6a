"""Effective distance to the voltage sources.

"The effective distance, calculated as the reciprocal of the sum of the
reciprocals of Euclidean distances, measures proximity to voltage sources"
(Section III-C) — the harmonic combination used by IREDGe and the
ICCAD-2023 data release:

    d_eff(p) = 1 / sum_i (1 / ||p - pad_i||)

Pixels containing a pad get distance 0.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.grid.geometry import GridGeometry
from repro.grid.netlist import PowerGrid


def effective_distance_map(
    geometry: GridGeometry, grid: PowerGrid, eps_nm: float = 1.0
) -> np.ndarray:
    """Per-pixel effective (harmonic) distance to all pads, in nanometres.

    Parameters
    ----------
    eps_nm:
        Floor applied to individual distances so a pad-containing pixel
        yields 0-ish distance instead of a division by zero.
    """
    pads = grid.pad_indices()
    if not pads.size:
        raise ValueError("cannot compute effective distance without pads")
    x, y, _, structured = grid.node_arrays()
    rows, cols = geometry.shape
    ys = (np.arange(rows) + 0.5) * geometry.pixel_h_nm
    xs = (np.arange(cols) + 0.5) * geometry.pixel_w_nm
    grid_x, grid_y = np.meshgrid(xs, ys)

    inverse_sum = np.zeros((rows, cols), dtype=float)
    for pad in pads[structured[pads]].tolist():
        dx = grid_x - x[pad]
        dy = grid_y - y[pad]
        distance = np.maximum(np.hypot(dx, dy), eps_nm)
        inverse_sum += 1.0 / distance
    if not inverse_sum.any():
        raise ValueError("no structured pads; effective distance undefined")
    # Guard the final division explicitly: pads astronomically far from a
    # pixel can underflow the inverse sum to exactly 0, which would emit
    # inf into the feature channel.
    tiny = np.finfo(float).tiny
    underflowed = int((inverse_sum < tiny).sum())
    if underflowed:
        warnings.warn(
            f"effective_distance_map: {underflowed} pixel(s) underflowed the "
            "harmonic sum; clamping to the representable maximum distance",
            RuntimeWarning,
            stacklevel=2,
        )
    return 1.0 / np.maximum(inverse_sum, tiny)
