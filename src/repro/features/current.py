"""Current maps.

"The current map for each layer, representing the current distribution, is
allocated proportionally based on the contribution from each layer, which
is tied to resistance" (Section III-C).  The bottom-layer load map is the
measured drain current per pixel; upper-layer maps redistribute it by each
layer's conductance share, smoothed to that layer's pitch — upper metals
see the same demand but aggregated over wider regions.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import uniform_filter

from repro.grid.geometry import GridGeometry
from repro.grid.netlist import PowerGrid
from repro.grid.raster import pixel_coords, scatter_to_image


def load_current_map(geometry: GridGeometry, grid: PowerGrid) -> np.ndarray:
    """Per-pixel total drain current (A), summed over co-located loads."""
    load, _ = grid.source_arrays()
    x, y, _, structured = grid.node_arrays()
    selected = structured & (load != 0.0)
    rows, cols = pixel_coords(geometry, x[selected], y[selected])
    return scatter_to_image(geometry.shape, rows, cols, load[selected], reduce="sum")


def _layer_conductance_shares(geometry: GridGeometry) -> dict[int, float]:
    """Each layer's share of total stack conductance (from sheet resistance)."""
    tiny = np.finfo(float).tiny
    conductances = {
        info.index: 1.0 / max(info.sheet_resistance, tiny)
        for info in geometry.layers
    }
    total = max(sum(conductances.values()), tiny)
    return {layer: g / total for layer, g in conductances.items()}


def layer_current_maps(
    geometry: GridGeometry, grid: PowerGrid
) -> dict[int, np.ndarray]:
    """Per-layer current maps.

    Layer ℓ's map is the load map scaled by ℓ's conductance share and
    box-smoothed with a window of the layer pitch (in pixels), modelling
    how coarser upper layers spread current over wider regions.
    """
    base = load_current_map(geometry, grid)
    shares = _layer_conductance_shares(geometry)
    maps: dict[int, np.ndarray] = {}
    for info in geometry.layers:
        window = max(1, int(round(info.pitch_nm / max(geometry.pixel_w_nm, 1))))
        smoothed = uniform_filter(base, size=window, mode="nearest")
        maps[info.index] = shares[info.index] * smoothed
    return maps
