"""Netlist/grid validation and graceful-degradation repair.

A production analysis service cannot crash on a malformed deck: floating
nodes, disconnected islands, zero/negative resistances and a singular
conductance matrix must all be detected *before* solving and either
repaired (with a structured record of what was done) or rejected with a
precise diagnostic.

Two levels are covered:

- **Netlist level** (:func:`validate_netlist`, :func:`repair_netlist`) —
  element-value problems: non-positive resistances, 0-ohm shorts,
  duplicate pad pins.  Repair clamps sick resistances to a floor and
  collapses shorts via :func:`~repro.spice.preprocess.collapse_shorts`.
- **Grid level** (:func:`validate_grid`, :func:`repair_grid`) — topology
  problems: no pads at all, floating (pad-less) components.  Repair
  ground-ties one node of every floating component to the supply rail
  (``strategy="ground_tie"``: the island then reports zero drop, a
  conservative bounded answer) or drops the island's load currents
  (``strategy="isolate"``).

Every repair is an explicit :class:`RepairRecord`; nothing is silent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

from repro.spice.ast import Netlist, Resistor
from repro.spice.preprocess import collapse_shorts, count_shorts

if TYPE_CHECKING:  # grid imports stay lazy: keep `import repro.spice` light
    from repro.grid.netlist import PowerGrid

#: Resistance floor used when clamping non-positive/sub-floor values (ohms).
MIN_RESISTANCE = 1e-6


class NetlistValidationError(ValueError):
    """An input deck/grid is unusable and could not be repaired."""


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found during validation.

    Attributes
    ----------
    kind:
        Machine-readable tag, e.g. ``"floating_nodes"``, ``"no_pads"``,
        ``"nonpositive_resistance"``, ``"short_resistor"``.
    message:
        Human-readable description.
    count:
        How many elements/nodes are affected.
    fatal:
        ``True`` when solving without repair would produce a singular or
        indefinite system.
    """

    kind: str
    message: str
    count: int = 1
    fatal: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "message": self.message,
            "count": self.count,
            "fatal": self.fatal,
        }


@dataclass(frozen=True)
class RepairRecord:
    """One repair action applied during graceful degradation."""

    action: str
    detail: str
    count: int = 1

    def to_dict(self) -> dict:
        return {"action": self.action, "detail": self.detail, "count": self.count}


# -- netlist level ----------------------------------------------------------


def validate_netlist(netlist: Netlist) -> list[ValidationIssue]:
    """Element-value checks on a parsed deck (no topology analysis)."""
    issues: list[ValidationIssue] = []
    shorts = count_shorts(netlist)
    if shorts:
        issues.append(
            ValidationIssue(
                kind="short_resistor",
                message=f"{shorts} zero-ohm resistor(s); must be collapsed",
                count=shorts,
                fatal=True,
            )
        )
    bad = [
        r for r in netlist.resistors
        if not r.is_short and (r.resistance < 0 or not np.isfinite(r.resistance))
    ]
    if bad:
        sample = ", ".join(r.name for r in bad[:3])
        issues.append(
            ValidationIssue(
                kind="nonpositive_resistance",
                message=(
                    f"{len(bad)} resistor(s) with negative or non-finite "
                    f"value (e.g. {sample}); G would not be SPD"
                ),
                count=len(bad),
                fatal=True,
            )
        )
    if not netlist.voltage_sources:
        issues.append(
            ValidationIssue(
                kind="no_pads",
                message="deck has no voltage sources; Gx=I is singular",
                fatal=True,
            )
        )
    return issues


def repair_netlist(
    netlist: Netlist,
) -> tuple[Netlist, list[RepairRecord]]:
    """Fix element-value problems, returning a new deck + repair records.

    0-ohm shorts are contracted; negative/non-finite resistances are
    clamped to :data:`MIN_RESISTANCE` (magnitude preserved when finite).
    A deck with no voltage sources cannot be repaired here — that is a
    topology-level rejection.
    """
    repairs: list[RepairRecord] = []
    shorts = count_shorts(netlist)
    if shorts:
        netlist = collapse_shorts(netlist)
        repairs.append(
            RepairRecord(
                action="collapse_shorts",
                detail=f"contracted {shorts} zero-ohm resistor(s)",
                count=shorts,
            )
        )
    clamped = 0
    resistors = []
    for res in netlist.resistors:
        value = res.resistance
        if value < 0 or not np.isfinite(value):
            magnitude = abs(value) if np.isfinite(value) else MIN_RESISTANCE
            value = max(magnitude, MIN_RESISTANCE)
            clamped += 1
            res = Resistor(res.name, res.node_a, res.node_b, value)
        resistors.append(res)
    if clamped:
        out = Netlist(title=netlist.title)
        out.resistors.extend(resistors)
        out.current_sources.extend(netlist.current_sources)
        out.voltage_sources.extend(netlist.voltage_sources)
        netlist = out
        repairs.append(
            RepairRecord(
                action="clamp_resistance",
                detail=(
                    f"clamped {clamped} negative/non-finite resistance(s) "
                    f"to >= {MIN_RESISTANCE} ohm"
                ),
                count=clamped,
            )
        )
    return netlist, repairs


# -- grid level -------------------------------------------------------------


def floating_components(grid: "PowerGrid") -> list[set[int]]:
    """Connected components with no pad (each is exactly singular)."""
    from repro.grid.topology import connected_components

    pad_indices = set(grid.pad_indices().tolist())
    return [
        component
        for component in connected_components(grid)
        if component.isdisjoint(pad_indices)
    ]


def validate_grid(grid: "PowerGrid") -> list[ValidationIssue]:
    """Topology checks mirroring what MNA stamping requires."""
    from repro.grid.topology import connected_components

    issues: list[ValidationIssue] = []
    pad_indices = grid.pad_indices()
    if not pad_indices.size:
        issues.append(
            ValidationIssue(
                kind="no_pads",
                message="power grid has no voltage pads; Gx=I is singular",
                fatal=True,
            )
        )
        return issues
    # One component pass serves both the island check and the count below.
    all_components = connected_components(grid)
    pads = set(pad_indices.tolist())
    islands = [c for c in all_components if c.isdisjoint(pads)]
    if islands:
        total = sum(len(c) for c in islands)
        sample = [grid.name_of(min(c)) for c in islands[:3]]
        issues.append(
            ValidationIssue(
                kind="floating_nodes",
                message=(
                    f"{len(islands)} component(s) / {total} node(s) with no "
                    f"resistive path to a pad (e.g. {sample}); the reduced "
                    "system is singular"
                ),
                count=total,
                fatal=True,
            )
        )
    components = len(all_components)
    if components > 1:
        issues.append(
            ValidationIssue(
                kind="disconnected_grid",
                message=(
                    f"grid splits into {components} components; each is "
                    "solved independently (block-diagonal G)"
                ),
                count=components,
                fatal=False,
            )
        )
    return issues


def repair_grid(
    grid: "PowerGrid",
    supply_voltage: float,
    strategy: str = "ground_tie",
) -> tuple["PowerGrid", list[RepairRecord]]:
    """Make a grid solvable, returning a (possibly cloned) grid + records.

    Parameters
    ----------
    strategy:
        ``"ground_tie"`` pins the lowest-index node of each floating
        component to *supply_voltage* (the island then reads zero drop —
        a bounded, conservative answer).  ``"isolate"`` additionally zeroes
        the island's load currents so it draws nothing.

    Raises
    ------
    NetlistValidationError
        If the grid has no pads at all — there is no supply level to tie
        to and no meaningful IR-drop question to answer.
    """
    if strategy not in ("ground_tie", "isolate"):
        raise ValueError(f"unknown repair strategy {strategy!r}")
    if not grid.pad_indices().size:
        raise NetlistValidationError(
            "power grid has no voltage pads; cannot repair (exit: bad input)"
        )
    islands = floating_components(grid)
    if not islands:
        return grid, []
    repaired = grid.clone()
    repairs: list[RepairRecord] = []
    for component in sorted(islands, key=min):
        anchor = min(component)
        repaired.pin_pad(anchor, supply_voltage)
        detail = (
            f"tied node {grid.name_of(anchor)!r} of a {len(component)}-node "
            f"floating component to {supply_voltage} V"
        )
        if strategy == "isolate":
            load, _ = repaired.source_arrays()
            members = np.fromiter(component, np.int64, len(component))
            drained = members[load[members] != 0.0]
            for index in drained.tolist():
                repaired.set_load(index, 0.0)
            detail += f"; zeroed {drained.size} load current(s)"
        repairs.append(
            RepairRecord(action=strategy, detail=detail, count=len(component))
        )
    return repaired, repairs


# -- system level -----------------------------------------------------------


def singular_rows(matrix) -> np.ndarray:
    """Row indices of a stamped reduced matrix with a non-positive diagonal.

    A healthy reduced conductance matrix is SPD with a strictly positive
    diagonal; zero rows betray a floating node that slipped past topology
    checks, negative entries betray bad element values.
    """
    diag = matrix.diagonal()
    return np.flatnonzero(~(diag > 0) | ~np.isfinite(diag))
