"""Node-name grammar for power-grid decks.

Following the ICCAD-2023 contest convention a PG node is named

    ``n{net}_m{layer}_{x}_{y}``

where *net* is the power-net index (1 for VDD), *layer* is the metal layer
index (1 = bottom / cell layer) and *x*, *y* are the node coordinates in
nanometres.  Ground is the literal name ``0``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

GROUND = "0"

_NODE_RE = re.compile(
    r"^n(?P<net>\d+)_m(?P<layer>\d+)_(?P<x>-?\d+)_(?P<y>-?\d+)$"
)


@dataclass(frozen=True, slots=True, order=True)
class NodeName:
    """A structured PG node name.

    Ordering is lexicographic on (net, layer, x, y) which gives a stable,
    geometry-aware node ordering used throughout the matrix assembly.
    """

    net: int
    layer: int
    x: int
    y: int

    def __str__(self) -> str:
        return format_node_name(self.net, self.layer, self.x, self.y)

    @property
    def position(self) -> tuple[int, int]:
        """(x, y) coordinate pair in nanometres."""
        return (self.x, self.y)

    def with_layer(self, layer: int) -> "NodeName":
        """The same (net, x, y) location on a different metal layer."""
        return NodeName(self.net, layer, self.x, self.y)


def format_node_name(net: int, layer: int, x: int, y: int) -> str:
    """Render a node name in the contest grammar."""
    return f"n{net}_m{layer}_{x}_{y}"


def parse_node_name(name: str) -> NodeName:
    """Parse a contest-grammar node name.

    Raises
    ------
    ValueError
        If the name is ground or does not follow the grammar.
    """
    match = _NODE_RE.match(name)
    if match is None:
        raise ValueError(f"node name {name!r} does not match n*_m*_x_y grammar")
    return NodeName(
        net=int(match.group("net")),
        layer=int(match.group("layer")),
        x=int(match.group("x")),
        y=int(match.group("y")),
    )


def is_structured_name(name: str) -> bool:
    """Whether *name* follows the contest grammar (ground does not)."""
    return _NODE_RE.match(name) is not None


def parse_node_names(
    names: list[str],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columnar :func:`parse_node_name` over many names at once.

    Returns ``(net, layer, x, y, structured)``: int64 columns plus a bool
    mask of the names that follow the grammar.  Names that do not carry
    ``net = x = y = 0`` and ``layer = -1``.

    Raises
    ------
    ValueError
        If a structured name's numbers do not fit in int64.
    """
    matches = list(map(_NODE_RE.match, names))
    structured = np.array([match is not None for match in matches], dtype=bool)
    fields = [match.groups() for match in matches if match is not None]
    try:
        parsed = np.array(fields, dtype=np.int64).reshape(-1, 4)
    except OverflowError as exc:
        raise ValueError(f"a node name's coordinates overflow int64: {exc}") from exc
    columns = []
    for k, fill in enumerate((0, -1, 0, 0)):
        column = np.full(len(names), fill, dtype=np.int64)
        column[structured] = parsed[:, k]
        columns.append(column)
    net, layer, x, y = columns
    return net, layer, x, y, structured
