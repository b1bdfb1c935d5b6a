"""Circuit topology graph and connectivity diagnostics.

The circuit generator in the paper "constructs the circuit topology graph,
enabling the extraction of the conductance matrix G".  Here the graph view
supports the sanity checks a simulator must run before stamping: every node
must have a resistive path to a pad, otherwise the reduced system is
singular.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.grid.netlist import PowerGrid


def to_networkx(grid: PowerGrid) -> nx.Graph:
    """The PG as an undirected multigraph-free graph.

    Parallel resistors are combined (conductances summed) onto a single
    edge whose ``conductance`` attribute is the total.
    """
    graph = nx.Graph()
    graph.add_nodes_from(range(grid.num_nodes))
    for wire in grid.wires:
        if graph.has_edge(wire.node_a, wire.node_b):
            graph[wire.node_a][wire.node_b]["conductance"] += wire.conductance
        else:
            graph.add_edge(
                wire.node_a,
                wire.node_b,
                conductance=wire.conductance,
                resistance=wire.resistance,
            )
    for a, b, data in graph.edges(data=True):
        data["resistance"] = 1.0 / data["conductance"]
    return graph


def component_labels(grid: PowerGrid) -> np.ndarray:
    """Per-node component id, labelled in order of first appearance.

    The hot path of every connectivity check: a single compiled
    union-find over the columnar wire arrays instead of building a
    Python graph object per query.
    """
    n = grid.num_nodes
    if n == 0:
        return np.empty(0, dtype=np.int64)
    node_a, node_b, _ = grid.wire_arrays()
    adjacency = sp.csr_matrix(
        (np.ones(node_a.size), (node_a, node_b)), shape=(n, n)
    )
    _, labels = csgraph.connected_components(adjacency, directed=False)
    return labels.astype(np.int64)


def connected_components(grid: PowerGrid) -> list[set[int]]:
    """Connected components of the resistive network (node-index sets)."""
    labels = component_labels(grid)
    if labels.size == 0:
        return []
    components: list[set[int]] = [set() for _ in range(int(labels.max()) + 1)]
    for index, label in enumerate(labels.tolist()):
        components[label].add(index)
    return components


def floating_nodes(grid: PowerGrid) -> set[int]:
    """Nodes with no resistive path to any pad.

    A component without a pad has no DC operating point: its reduced
    conductance block is exactly singular.
    """
    labels = component_labels(grid)
    pad_indices = grid.pad_indices()
    pad_labels = np.unique(labels[pad_indices]) if pad_indices.size else (
        np.empty(0, dtype=np.int64)
    )
    floating = ~np.isin(labels, pad_labels)
    return set(np.flatnonzero(floating).tolist())


def validate_connectivity(grid: PowerGrid) -> None:
    """Raise ``ValueError`` when the grid cannot be solved.

    Checks: at least one pad exists and every node reaches a pad.
    """
    if not grid.pad_indices().size:
        raise ValueError("power grid has no voltage pads; Gx=I is singular")
    floating = floating_nodes(grid)
    if floating:
        sample = sorted(floating)[:5]
        names = [grid.name_of(i) for i in sample]
        raise ValueError(
            f"{len(floating)} node(s) have no resistive path to a pad "
            f"(e.g. {names}); the reduced system is singular"
        )


def effective_pad_resistance(grid: PowerGrid, node: int) -> float:
    """Shortest-path resistance from *node* to the nearest pad.

    Dijkstra over wire resistances; used both as a diagnostic and by the
    shortest-path-resistance feature map.  Returns ``inf`` for floating
    nodes.
    """
    graph = to_networkx(grid)
    pad_indices = grid.pad_indices().tolist()
    if not pad_indices:
        return float("inf")
    best = float("inf")
    lengths = nx.multi_source_dijkstra_path_length(
        graph, pad_indices, weight="resistance"
    )
    return lengths.get(node, best)
