"""The power-grid container built by the spice parser / circuit generator.

Section III-B: "The spice parser loads the spice file and creates a hash
table of circuit nodes representing circuit connections. ... the PG is
stored as a nodes list and wires map, which are linked to present their
topologies."

:class:`PowerGrid` is that structure, stored as columns: the node table
is a name list (dense integer ids in first-appearance order) plus
per-node arrays, and the wires map is per-wire endpoint and resistance
arrays with a lazily built adjacency.  :class:`PGNode` and
:class:`PGWire` are views built on demand over those columns.  The grid
is the single input to MNA stamping, feature extraction and the
synthetic generators.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.spice.ast import ElementColumns, Netlist, pack_strings, unpack_strings
from repro.spice.nodes import GROUND, NodeName, parse_node_names


class PGNode:
    """One circuit node of the power grid: a view onto the grid's columns.

    Attributes
    ----------
    index:
        Dense 0-based id, assigned in first-appearance order (file order).
    name:
        The SPICE node name.
    structured:
        Parsed coordinates when the name follows the contest grammar,
        otherwise ``None`` (e.g. intermediate nodes of exotic decks).
    load_current:
        Total current drawn from this node by attached current sources.
    pad_voltage:
        Supply voltage if a voltage source pins this node, else ``None``.

    ``load_current`` and ``pad_voltage`` are read from the grid on every
    access, and assigning them writes through to the grid.
    """

    __slots__ = ("_grid", "index")

    def __init__(self, grid: "PowerGrid", index: int) -> None:
        self._grid = grid
        self.index = index

    @property
    def name(self) -> str:
        return self._grid.name_of(self.index)

    @property
    def structured(self) -> NodeName | None:
        grid, i = self._grid, self.index
        if not grid._structured[i]:
            return None
        return NodeName(
            int(grid._net[i]), int(grid._layer[i]), int(grid._x[i]), int(grid._y[i])
        )

    @property
    def load_current(self) -> float:
        return float(self._grid._load[self.index])

    @load_current.setter
    def load_current(self, amps: float) -> None:
        self._grid.set_load(self.index, amps)

    @property
    def pad_voltage(self) -> float | None:
        volts = self._grid._pad[self.index]
        return None if np.isnan(volts) else float(volts)

    @pad_voltage.setter
    def pad_voltage(self, volts: float | None) -> None:
        if volts is None:
            self._grid._writable("_pad")[self.index] = np.nan
        else:
            self._grid._pin(self.index, volts)

    @property
    def is_pad(self) -> bool:
        return not np.isnan(self._grid._pad[self.index])

    @property
    def layer(self) -> int | None:
        grid, i = self._grid, self.index
        return int(grid._layer[i]) if grid._structured[i] else None

    def _fields(self) -> tuple:
        return (self.index, self.name, self.structured, self.load_current, self.pad_voltage)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PGNode):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable through the grid

    def __repr__(self) -> str:
        index, name, structured, load, pad = self._fields()
        return (
            f"PGNode(index={index}, name={name!r}, structured={structured!r}, "
            f"load_current={load!r}, pad_voltage={pad!r})"
        )


@dataclass(frozen=True, slots=True)
class PGWire:
    """A resistive connection between two PG nodes (wire segment or via)."""

    name: str
    node_a: int
    node_b: int
    resistance: float

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance

    def other(self, node: int) -> int:
        """The endpoint opposite to *node*."""
        if node == self.node_a:
            return self.node_b
        if node == self.node_b:
            return self.node_a
        raise ValueError(f"node {node} is not an endpoint of wire {self.name!r}")


class _Records(Sequence):
    """Read-only sequence of node/wire records built on demand."""

    __slots__ = ("_size", "_make")

    def __init__(self, size: int, make) -> None:
        self._size = size
        self._make = make

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self._make(i) for i in range(*key.indices(self._size))]
        index = int(key)
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError(f"index {key} out of range for {self._size} records")
        return self._make(index)

    def __iter__(self):
        return map(self._make, range(self._size))


#: Columns a pickled grid ships, in ``__getstate__`` order.
_SHIPPED = (
    "_load", "_pad", "_net", "_layer", "_x", "_y", "_structured",
    "_wire_a", "_wire_b", "_wire_r",
)


class PowerGrid:
    """Node table + wires map for one PG design, stored as columns.

    Build one from a parsed SPICE deck with :meth:`from_netlist`.  Nodes are
    indexed densely; ground is *not* a node (elements to ground record only
    their PG-side endpoint).

    The columns are the node names, ``load_current`` and ``pad_voltage``
    (NaN = not a pad) per node, the parsed name fields ``net``, ``layer``,
    ``x``, ``y`` with a structured-name mask, and the wire endpoints,
    resistances and names.  :meth:`node_arrays`, :meth:`wire_arrays` and
    :meth:`source_arrays` hand them out without copying; callers must
    treat them as read-only and mutate only through the methods below.
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        self._index: dict[str, int] | None = {}
        self._load = np.zeros(0, dtype=np.float64)
        self._pad = np.zeros(0, dtype=np.float64)
        self._net = np.zeros(0, dtype=np.int64)
        self._layer = np.zeros(0, dtype=np.int64)
        self._x = np.zeros(0, dtype=np.int64)
        self._y = np.zeros(0, dtype=np.int64)
        self._structured = np.zeros(0, dtype=bool)
        self._wire_names: list[str] = []
        self._wire_a = np.zeros(0, dtype=np.int64)
        self._wire_b = np.zeros(0, dtype=np.int64)
        self._wire_r = np.zeros(0, dtype=np.float64)
        # (indptr, wire ids): wires incident on each node, in wire order.
        self._adjacency: tuple[np.ndarray, np.ndarray] | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_netlist(cls, netlist: Netlist) -> "PowerGrid":
        """Build the node table and wires map from a parsed deck.

        Ground-referenced resistors are rejected (a static PG is floating
        from ground except through ideal sources); 0-ohm resistors are
        rejected as well — collapse shorts upstream.  Nodes are numbered
        in order of first appearance over the resistor endpoints (a, b
        per resistor), then the current-source and voltage-source nodes.
        """
        res = netlist.columns("resistors")
        cur = netlist.columns("current_sources")
        pad = netlist.columns("voltage_sources")
        n_res, n_cur = len(res.names), len(cur.names)
        appearances = list(
            itertools.chain(
                itertools.chain.from_iterable(zip(res.node_1, res.node_2)),
                cur.node_1,
                pad.node_1,
            )
        )
        names = list(dict.fromkeys(appearances))
        index = dict(zip(names, range(len(names))))
        ids = np.fromiter(map(index.__getitem__, appearances), np.int64, len(appearances))
        wire_a = ids[0 : 2 * n_res : 2]
        wire_b = ids[1 : 2 * n_res : 2]
        load_node = ids[2 * n_res : 2 * n_res + n_cur]
        pad_node = ids[2 * n_res + n_cur :]

        ground = index.get(GROUND, -1)
        # A node's first pin sets its voltage; a later pin must agree.
        pinned, first_pin = np.unique(pad_node, return_index=True)
        pinned_to = np.full(len(names), np.nan)
        pinned_to[pinned] = pad.values[first_pin]
        repin = np.ones(len(pad_node), dtype=bool)
        repin[first_pin] = False
        bad_res = (
            (res.values == 0) | (wire_a == ground) | (wire_b == ground)
            | (wire_a == wire_b)
        )
        bad_cur = (load_node == ground) | (np.array(cur.node_2, dtype=object) != GROUND)
        bad_pad = (
            (pad_node == ground) | (np.array(pad.node_2, dtype=object) != GROUND)
            | ~np.isfinite(pad.values) | (repin & (pad.values != pinned_to[pad_node]))
        )
        # Name the first bad element in the order a sequential build meets
        # it: every resistor, then every current source, then every pad.
        for columns, bad, check in (
            (res, bad_res, _check_resistor),
            (cur, bad_cur, _check_current_source),
            (pad, bad_pad, _check_voltage_source),
        ):
            if bad.any():
                k = int(np.argmax(bad))
                check(columns, k)
                raise AssertionError(f"element {columns.names[k]!r} passed its checks")

        grid = cls()
        grid._names = names
        grid._index = index
        # bincount adds in source order, as a sequential += would; it
        # returns int64 when there are no sources.
        grid._load = np.bincount(
            load_node, weights=cur.values, minlength=len(names)
        ).astype(np.float64, copy=False)
        grid._pad = np.full(len(names), np.nan)
        grid._pad[pad_node] = pad.values
        grid._net, grid._layer, grid._x, grid._y, grid._structured = (
            parse_node_names(names)
        )
        grid._wire_names = res.names
        grid._wire_a = wire_a.copy()
        grid._wire_b = wire_b.copy()
        grid._wire_r = np.array(res.values, dtype=np.float64)
        return grid

    # -- transport ---------------------------------------------------------
    #
    # A grid ships as its columns: packed name arrays plus the per-node
    # and per-wire vectors (which the shared-memory transport then moves
    # as ~100-byte descriptors).  The receiving side adopts them as they
    # are: no name is re-parsed and no record is built; the name → index
    # table is rebuilt on first use.

    def __getstate__(self) -> dict:
        state = {
            "node_names": pack_strings(self._names),
            "wire_names": pack_strings(self._wire_names),
        }
        state.update((attr[1:], getattr(self, attr)) for attr in _SHIPPED)
        extra = {
            key: value
            for key, value in self.__dict__.items()
            if key not in _STATE_ATTRS
        }
        if extra:
            state["extra"] = extra
        return state

    def __setstate__(self, state: dict) -> None:
        self._names = unpack_strings(state["node_names"])
        self._index = None
        self._wire_names = unpack_strings(state["wire_names"])
        for attr in _SHIPPED:
            setattr(self, attr, state[attr[1:]])
        self._adjacency = None
        self.__dict__.update(state.get("extra", {}))

    def _index_table(self) -> dict[str, int]:
        if self._index is None:
            self._index = dict(zip(self._names, range(len(self._names))))
        return self._index

    def _writable(self, attr: str) -> np.ndarray:
        """Column *attr*, copied first if it is a read-only (shared) view."""
        column = getattr(self, attr)
        if not column.flags.writeable:
            column = column.copy()
            setattr(self, attr, column)
        return column

    # -- ECO mutation ------------------------------------------------------

    def _resolve(self, node: int | str) -> int:
        if isinstance(node, str):
            return self._index_table()[node]
        index = int(node)
        if not -self.num_nodes <= index < self.num_nodes:
            raise IndexError(f"node index {node} out of range")
        return index % self.num_nodes

    def _pin(self, index: int, voltage: float) -> None:
        if not np.isfinite(voltage):
            raise ValueError(f"pad voltage must be finite, got {voltage}")
        self._writable("_pad")[index] = voltage

    def pin_pad(self, node: int | str, voltage: float) -> None:
        """Pin a node to a supply voltage (add a pad in place)."""
        index = self._resolve(node)
        current = self._pad[index]
        if not np.isnan(current) and current != voltage:
            raise ValueError(
                f"node {self.name_of(index)!r} already pinned to {float(current)}"
            )
        self._pin(index, voltage)

    def unpin_pad(self, node: int | str) -> None:
        """Remove a pad pin, returning the node to the unknown set."""
        index = self._resolve(node)
        if np.isnan(self._pad[index]):
            raise ValueError(f"node {self.name_of(index)!r} is not a pad")
        self._writable("_pad")[index] = np.nan

    def set_load(self, node: int | str, amps: float) -> None:
        """Set a node's attached load current (absolute, not additive)."""
        self._writable("_load")[self._resolve(node)] = amps

    def set_wire_resistance(self, wire_index: int, resistance: float) -> None:
        """Replace one wire's resistance (ECO resize)."""
        if resistance <= 0 or not np.isfinite(resistance):
            raise ValueError(f"resistance must be positive, got {resistance}")
        self._writable("_wire_r")[wire_index] = resistance

    def clone(self) -> "PowerGrid":
        """Independent copy: repairs may mutate nodes without aliasing.

        The mutable columns (loads, pad voltages, wire resistances) are
        copied; names, coordinates and wire endpoints never change after
        construction and are shared.
        """
        other = PowerGrid.__new__(PowerGrid)
        other.__dict__.update(self.__dict__)
        other._load = self._load.copy()
        other._pad = self._pad.copy()
        other._wire_r = self._wire_r.copy()
        return other

    # -- queries -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._load)

    @property
    def num_wires(self) -> int:
        return len(self._wire_r)

    @property
    def nodes(self) -> Sequence[PGNode]:
        """Every node, as views in index order."""
        return _Records(self.num_nodes, functools.partial(PGNode, self))

    @property
    def wires(self) -> Sequence[PGWire]:
        """Every wire, as records built on access, in file order."""
        return _Records(self.num_wires, self._wire_record)

    def _wire_record(self, k: int) -> PGWire:
        return PGWire(
            self._wire_names[k],
            int(self._wire_a[k]),
            int(self._wire_b[k]),
            float(self._wire_r[k]),
        )

    def node(self, key: str | int) -> PGNode:
        """Node by name or dense index."""
        return PGNode(self, self._resolve(key))

    def name_of(self, index: int) -> str:
        """The SPICE name of node *index*."""
        return self._names[index]

    def __contains__(self, name: str) -> bool:
        return name in self._index_table()

    def index_of(self, name: str) -> int:
        return self._index_table()[name]

    def _incident(self, node: int) -> np.ndarray:
        """Wire ids incident on *node*, in wire order."""
        if self._adjacency is None:
            ends = np.column_stack((self._wire_a, self._wire_b)).ravel()
            order = np.argsort(ends, kind="stable")
            indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(ends, minlength=self.num_nodes), out=indptr[1:])
            self._adjacency = (indptr, order // 2)
        indptr, wire_ids = self._adjacency
        node = self._resolve(node)
        return wire_ids[indptr[node] : indptr[node + 1]]

    def wires_at(self, node: int) -> list[PGWire]:
        """All wires incident on a node index."""
        return [self._wire_record(int(k)) for k in self._incident(node)]

    def neighbors(self, node: int) -> list[int]:
        """Indices of nodes directly connected to *node*."""
        node = self._resolve(node)
        wires = self._incident(node)
        a, b = self._wire_a[wires], self._wire_b[wires]
        return np.where(a == node, b, a).tolist()

    def pad_indices(self) -> np.ndarray:
        """Indices of the voltage-pinned nodes, ascending."""
        return np.flatnonzero(~np.isnan(self._pad))

    def load_indices(self) -> np.ndarray:
        """Indices of the nodes with a nonzero current drain, ascending."""
        return np.flatnonzero(self._load != 0.0)

    def pads(self) -> list[PGNode]:
        """All voltage-pinned nodes."""
        return [PGNode(self, i) for i in self.pad_indices().tolist()]

    def loads(self) -> list[PGNode]:
        """All nodes with a nonzero attached current drain."""
        return [PGNode(self, i) for i in self.load_indices().tolist()]

    def layers_present(self) -> list[int]:
        """Sorted metal-layer indices that have at least one structured node."""
        return np.unique(self._layer[self._structured]).tolist()

    def nodes_on_layer(self, layer: int) -> list[PGNode]:
        """Structured nodes on a given metal layer."""
        on_layer = self._structured & (self._layer == layer)
        return [PGNode(self, i) for i in np.flatnonzero(on_layer).tolist()]

    def degree(self, node: int) -> int:
        return len(self._incident(node))

    def total_load_current(self) -> float:
        return sum(self._load.tolist())

    # -- columnar views ----------------------------------------------------

    def node_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(x, y, layer, structured_mask)`` per-node arrays.

        Unstructured nodes carry ``x = y = 0`` and ``layer = -1`` with
        ``structured_mask`` False.
        """
        return self._x, self._y, self._layer, self._structured

    def wire_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(node_a, node_b, resistance)`` per-wire arrays."""
        return self._wire_a, self._wire_b, self._wire_r

    def source_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(load_current, pad_voltage)`` per node; NaN marks a non-pad."""
        return self._load, self._pad


_STATE_ATTRS = frozenset(vars(PowerGrid()))


# -- from_netlist element checks ----------------------------------------------
#
# The bulk build finds bad elements with masks; these raise, for element
# k, the message a sequential build would.


def _check_resistor(res: ElementColumns, k: int) -> None:
    name, node_a, node_b = res.names[k], res.node_1[k], res.node_2[k]
    if res.values[k] == 0.0:
        raise ValueError(f"resistor {name!r} is a 0-ohm short; merge its nodes first")
    if node_a == GROUND or node_b == GROUND:
        raise ValueError(
            f"resistor {name!r} touches ground; PG resistor networks "
            "connect to ground only through sources"
        )
    if node_a == node_b:
        raise ValueError(f"resistor {name!r} is a self-loop on {node_a!r}")


def _check_current_source(cur: ElementColumns, k: int) -> None:
    if cur.node_2[k] != GROUND:
        raise ValueError(
            f"current source {cur.names[k]!r} must sink to ground, "
            f"got {cur.node_2[k]!r}"
        )
    if cur.node_1[k] == GROUND:
        raise ValueError("ground cannot be interned as a PG node")


def _check_voltage_source(pad: ElementColumns, k: int) -> None:
    name, node, voltage = pad.names[k], pad.node_1[k], float(pad.values[k])
    if pad.node_2[k] != GROUND:
        raise ValueError(
            f"voltage source {name!r} must reference ground, got {pad.node_2[k]!r}"
        )
    if node == GROUND:
        raise ValueError("ground cannot be interned as a PG node")
    if not np.isfinite(voltage):
        raise ValueError(f"voltage source {name!r} has non-finite voltage {voltage}")
    existing = float(pad.values[pad.node_1.index(node)])
    if existing != voltage:
        raise ValueError(
            f"node {node!r} pinned to two voltages ({existing} and {voltage})"
        )
