"""Dataclasses describing the elements of a power-grid SPICE netlist.

Only the three element kinds that occur in static PG analysis are modelled:
resistors, independent current sources (cell current drains) and independent
voltage sources (power pads).  A :class:`Netlist` is an ordered container of
those elements plus the title line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np


def pack_strings(strings: Sequence[str]) -> np.ndarray:
    """Flatten newline-free strings into one uint8 array.

    The transport-friendly dual of a list of python strings: a single
    ndarray rides the pool's shared-memory plane (and pickles as one
    contiguous buffer either way) instead of thousands of individual
    string objects.  Names in SPICE decks cannot contain whitespace, so
    newline is a safe separator.
    """
    if not strings:
        return np.empty(0, dtype=np.uint8)
    return np.frombuffer("\n".join(strings).encode("utf-8"), dtype=np.uint8)


def unpack_strings(packed: np.ndarray) -> list[str]:
    """Invert :func:`pack_strings`."""
    if packed.size == 0:
        return []
    return packed.tobytes().decode("utf-8").split("\n")


@dataclass(frozen=True, slots=True)
class Resistor:
    """A two-terminal resistor ``R<name> <node_a> <node_b> <ohms>``."""

    name: str
    node_a: str
    node_b: str
    resistance: float

    def __post_init__(self) -> None:
        if self.resistance < 0:
            raise ValueError(
                f"resistor {self.name!r} has negative resistance {self.resistance}"
            )

    @property
    def conductance(self) -> float:
        """Conductance in siemens; infinite resistance maps to zero."""
        if self.resistance == 0.0:
            raise ZeroDivisionError(
                f"resistor {self.name!r} is a short (0 ohm); shorts must be "
                "collapsed before conductance extraction"
            )
        return 1.0 / self.resistance

    @property
    def is_short(self) -> bool:
        """True for 0-ohm resistors (via shorts that need node merging)."""
        return self.resistance == 0.0


@dataclass(frozen=True, slots=True)
class Capacitor:
    """``C<name> <node_a> <node_b> <farads>`` — decap or wire capacitance.

    Capacitors are ignored by static analysis and consumed by
    :mod:`repro.transient`; ground may appear on either terminal.
    """

    name: str
    node_a: str
    node_b: str
    capacitance: float

    def __post_init__(self) -> None:
        if self.capacitance < 0:
            raise ValueError(
                f"capacitor {self.name!r} has negative capacitance "
                f"{self.capacitance}"
            )


@dataclass(frozen=True, slots=True)
class CurrentSource:
    """``I<name> <node_from> <node_to> <amps>``.

    In PG decks current sources sink current from a bottom-metal node to
    ground, i.e. ``node_from`` is the PG node and ``node_to`` is ``0``.
    """

    name: str
    node_from: str
    node_to: str
    current: float


@dataclass(frozen=True, slots=True)
class VoltageSource:
    """``V<name> <node_pos> <node_neg> <volts>`` — a power pad."""

    name: str
    node_pos: str
    node_neg: str
    voltage: float


class ElementColumns(NamedTuple):
    """One element kind of a deck, stored columnar.

    ``node_1``/``node_2`` are the two terminals in deck order (a
    resistor's ``node_a``/``node_b``, a source's from/to or pos/neg);
    ``values`` holds the ohms, amps, volts or farads as float64.
    """

    names: list[str]
    node_1: list[str]
    node_2: list[str]
    values: np.ndarray


#: Element kind → (element class, its two terminal fields, its value field).
_KINDS = {
    "resistors": (Resistor, "node_a", "node_b", "resistance"),
    "current_sources": (CurrentSource, "node_from", "node_to", "current"),
    "voltage_sources": (VoltageSource, "node_pos", "node_neg", "voltage"),
    "capacitors": (Capacitor, "node_a", "node_b", "capacitance"),
}


def _empty_columns() -> ElementColumns:
    return ElementColumns([], [], [], np.empty(0, dtype=np.float64))


def _kind_property(kind: str) -> property:
    def get(self: "Netlist") -> list:
        return self._materialise(kind)

    def set_(self: "Netlist", elements: list) -> None:
        self._elements[kind] = elements
        self._columns[kind] = None

    return property(get, set_, doc=f"The deck's {kind.replace('_', ' ')} in file order.")


class Netlist:
    """An ordered power-grid netlist.

    Attributes
    ----------
    title:
        Free-form title (the first comment line of the deck, if any).
    resistors, current_sources, voltage_sources, capacitors:
        Elements in file order, as mutable lists of element records.

    Storage is columnar: a parsed (or unpickled) deck holds one
    :class:`ElementColumns` per kind and builds no element objects.  The
    first access to a kind's list attribute materialises its records;
    from then on that list is the kind's storage (callers may append to
    it) and :meth:`columns` reads it back.  Consumers that only need the
    data — :meth:`PowerGrid.from_netlist
    <repro.grid.netlist.PowerGrid.from_netlist>`, transport, the
    aggregate queries below — go through :meth:`columns` and never
    materialise.
    """

    __slots__ = ("title", "_columns", "_elements")

    resistors = _kind_property("resistors")
    current_sources = _kind_property("current_sources")
    voltage_sources = _kind_property("voltage_sources")
    capacitors = _kind_property("capacitors")

    def __init__(
        self,
        title: str = "",
        resistors: list[Resistor] | None = None,
        current_sources: list[CurrentSource] | None = None,
        voltage_sources: list[VoltageSource] | None = None,
        capacitors: list[Capacitor] | None = None,
    ) -> None:
        self.title = title
        given = (resistors, current_sources, voltage_sources, capacitors)
        self._elements: dict[str, list | None] = dict(zip(_KINDS, given))
        self._columns: dict[str, ElementColumns | None] = {
            kind: _empty_columns() if elements is None else None
            for kind, elements in self._elements.items()
        }

    @classmethod
    def from_columns(cls, title: str = "", **columns: ElementColumns) -> "Netlist":
        """A deck backed by columns (kinds not given are empty)."""
        netlist = cls(title)
        for kind, kind_columns in columns.items():
            if kind not in _KINDS:
                raise TypeError(f"unknown element kind {kind!r}")
            netlist._columns[kind] = kind_columns
        return netlist

    def _materialise(self, kind: str) -> list:
        elements = self._elements[kind]
        if elements is None:
            factory = _KINDS[kind][0]
            names, node_1, node_2, values = self._columns[kind]
            elements = [
                factory(*fields_)
                for fields_ in zip(names, node_1, node_2, values.tolist())
            ]
            self._elements[kind] = elements
            self._columns[kind] = None
        return elements

    def columns(self, kind: str) -> ElementColumns:
        """*kind*'s elements as columns, without building element records.

        Read-only: the returned lists/array may be the deck's storage.
        """
        stored = self._columns[kind]
        if stored is not None:
            return stored
        _, first, second, value = _KINDS[kind]
        elements = self._elements[kind]
        return ElementColumns(
            [e.name for e in elements],
            [getattr(e, first) for e in elements],
            [getattr(e, second) for e in elements],
            np.array([getattr(e, value) for e in elements], dtype=np.float64),
        )

    def __len__(self) -> int:
        return sum(
            len(elements) if elements is not None else len(self._columns[kind].names)
            for kind, elements in self._elements.items()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Netlist):
            return NotImplemented
        if self.title != other.title:
            return False
        for kind in _KINDS:
            mine, theirs = self.columns(kind), other.columns(kind)
            if mine[:3] != theirs[:3] or not np.array_equal(mine.values, theirs.values):
                return False
        return True

    __hash__ = None  # mutable, like the element lists it holds

    def __repr__(self) -> str:
        counts = ", ".join(
            f"{kind}={len(self.columns(kind).names)}" for kind in _KINDS
        )
        return f"Netlist(title={self.title!r}, {counts})"

    # -- transport ----------------------------------------------------------
    #
    # A parsed deck is tens of thousands of elements; pickled as objects
    # they dominate every pool payload.  Serialise columnar instead —
    # packed name arrays plus one value vector per element kind — so the
    # bulk rides as a handful of ndarrays (which the shared-memory
    # transport then ships as ~100-byte descriptors) and the receiving
    # side adopts the columns without building element objects.

    def __getstate__(self) -> dict:
        state: dict = {"title": self.title}
        for kind in _KINDS:
            names, node_1, node_2, values = self.columns(kind)
            state[kind] = (
                pack_strings(names), pack_strings(node_1), pack_strings(node_2), values,
            )
        return state

    def __setstate__(self, state: dict) -> None:
        self.title = state["title"]
        self._elements = dict.fromkeys(_KINDS)
        self._columns = {}
        for kind in _KINDS:
            names, node_1, node_2, values = state[kind]
            self._columns[kind] = ElementColumns(
                unpack_strings(names),
                unpack_strings(node_1),
                unpack_strings(node_2),
                np.asarray(values, dtype=np.float64),
            )

    def elements(
        self,
    ) -> Iterator[Resistor | CurrentSource | VoltageSource | Capacitor]:
        """Iterate over all elements, resistors first (file-order within kind)."""
        yield from self.resistors
        yield from self.current_sources
        yield from self.voltage_sources
        yield from self.capacitors

    def node_names(self) -> set[str]:
        """All node names referenced by any element, excluding ground."""
        names: set[str] = set()
        for kind in _KINDS:
            kind_columns = self.columns(kind)
            names.update(kind_columns.node_1)
            names.update(kind_columns.node_2)
        names.discard("0")
        return names

    def total_load_current(self) -> float:
        """Sum of all current-source magnitudes (the total chip load)."""
        return sum(self.columns("current_sources").values.tolist())

    def supply_voltage(self) -> float:
        """The pad voltage, assuming a single supply level.

        Raises
        ------
        ValueError
            If the deck has no voltage source or has pads at different
            voltages (multi-domain decks must be split first).
        """
        voltages = set(self.columns("voltage_sources").values.tolist())
        if not voltages:
            raise ValueError("netlist has no voltage sources (power pads)")
        if len(voltages) > 1:
            raise ValueError(
                f"netlist has multiple supply voltages {sorted(voltages)}; "
                "split multi-domain decks before analysis"
            )
        return voltages.pop()
