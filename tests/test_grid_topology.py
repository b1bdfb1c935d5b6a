"""Unit tests for topology diagnostics."""

import pytest

from repro.grid.netlist import PowerGrid
from repro.grid.topology import (
    connected_components,
    effective_pad_resistance,
    floating_nodes,
    validate_connectivity,
)
from repro.spice.parser import parse_spice


def grid_from(text: str) -> PowerGrid:
    return PowerGrid.from_netlist(parse_spice(text))


class TestConnectivity:
    def test_single_component(self, tiny_grid):
        assert len(connected_components(tiny_grid)) == 1

    def test_floating_island_detected(self):
        grid = grid_from("R1 a b 1\nV1 a 0 1\nR2 c d 1\n")
        floating = floating_nodes(grid)
        names = {grid.node(i).name for i in floating}
        assert names == {"c", "d"}

    def test_validate_raises_on_island(self):
        grid = grid_from("R1 a b 1\nV1 a 0 1\nR2 c d 1\n")
        with pytest.raises(ValueError, match="no resistive path"):
            validate_connectivity(grid)

    def test_validate_raises_without_pads(self):
        grid = grid_from("R1 a b 1\nI1 b 0 0.1\n")
        with pytest.raises(ValueError, match="no voltage pads"):
            validate_connectivity(grid)

    def test_validate_passes_tiny(self, tiny_grid):
        validate_connectivity(tiny_grid)

    def test_validate_passes_synthetic(self, fake_design, real_design):
        validate_connectivity(fake_design.grid)
        validate_connectivity(real_design.grid)


class TestEffectivePadResistance:
    def test_series_chain(self):
        grid = grid_from("R1 a b 2\nR2 b c 3\nV1 a 0 1\n")
        assert effective_pad_resistance(grid, grid.index_of("c")) == pytest.approx(5.0)

    def test_pad_itself_zero(self):
        grid = grid_from("R1 a b 2\nV1 a 0 1\n")
        assert effective_pad_resistance(grid, grid.index_of("a")) == 0.0

    def test_floating_is_inf(self):
        grid = grid_from("R1 a b 1\nV1 a 0 1\nR2 c d 1\n")
        assert effective_pad_resistance(grid, grid.index_of("c")) == float("inf")
