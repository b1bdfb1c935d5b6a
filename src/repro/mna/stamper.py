"""Conductance-matrix stamping.

"Using this link table, the circuit generator constructs the circuit
topology graph, enabling the extraction of the conductance matrix G for
simulation" (Section III-B).  Stamping follows the classic MNA rules: a
resistor of conductance g between nodes *a* and *b* adds ``+g`` to the two
diagonal entries and ``-g`` to the two off-diagonals; a current source adds
to the RHS; ideal voltage sources are either eliminated (reduced form) or
given a branch-current unknown (full form).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.grid.netlist import PowerGrid
from repro.grid.topology import validate_connectivity
from repro.mna.system import FullMNASystem, ReducedSystem


def build_reduced_system(
    grid: PowerGrid, validate: bool = True, check_diagonal: bool = True
) -> ReducedSystem:
    """Assemble the SPD reduced system ``G x = b`` over non-pad nodes.

    Pad nodes are eliminated: their known voltage ``v_p`` moves coupling
    terms ``g * v_p`` to the right-hand side.  Load currents enter the RHS
    with a negative sign (current leaves the node into the cells).

    Parameters
    ----------
    grid:
        The power grid to stamp.
    validate:
        Run connectivity validation first (recommended; guarantees the
        result is nonsingular).
    check_diagonal:
        After stamping, verify every diagonal entry is positive and finite
        (cheap) and raise :class:`ValueError` naming the offending nodes
        otherwise — a singular/indefinite ``G`` must never reach a solver
        silently.
    """
    if validate:
        validate_connectivity(grid)

    load, pad = grid.source_arrays()
    is_pad = ~np.isnan(pad)
    pad_indices = np.flatnonzero(is_pad)
    pad_voltages = dict(zip(pad_indices.tolist(), pad[pad_indices].tolist()))
    unknown_indices = np.flatnonzero(~is_pad)
    n_unknown = len(unknown_indices)
    # Reduced row of every grid node; pads map to the spare row n_unknown.
    row_of = np.full(grid.num_nodes, n_unknown, dtype=np.int64)
    row_of[unknown_indices] = np.arange(n_unknown)

    # Every accumulation below adds in wire order (bincount and add.at
    # both apply their inputs in sequence), then the same COO triplets as
    # a per-wire loop go through the same COO -> CSR -> sum_duplicates,
    # so the stamped bits do not depend on the vectorisation.
    node_a, node_b, resistance = grid.wire_arrays()
    g = 1.0 / resistance
    row_a, row_b = row_of[node_a], row_of[node_b]
    ends = np.column_stack((row_a, row_b)).ravel()
    diag = np.bincount(
        ends, weights=np.repeat(g, 2), minlength=n_unknown + 1
    )[:n_unknown].astype(float, copy=False)

    live_a, live_b = row_a < n_unknown, row_b < n_unknown
    rhs = np.zeros(n_unknown, dtype=float)
    # Exactly one endpoint unknown: the pinned side's coupling g*V.
    to_a = live_a & ~live_b
    coupled = np.flatnonzero(live_a != live_b)
    np.add.at(
        rhs,
        np.where(to_a, row_a, row_b)[coupled],
        g[coupled] * pad[np.where(to_a, node_b, node_a)[coupled]],
    )
    loaded = np.flatnonzero(load[unknown_indices] != 0.0)
    rhs[loaded] -= load[unknown_indices[loaded]]

    off = np.flatnonzero(live_a & live_b)
    pairs_row = np.column_stack((row_a[off], row_b[off])).ravel()
    pairs_col = np.column_stack((row_b[off], row_a[off])).ravel()
    diagonal = np.arange(n_unknown, dtype=np.int64)
    rows = np.concatenate((pairs_row, diagonal))
    cols = np.concatenate((pairs_col, diagonal))
    vals = np.concatenate((np.repeat(-g[off], 2), diag))

    matrix = sp.csr_matrix(
        (vals, (rows, cols)), shape=(n_unknown, n_unknown), dtype=float
    )
    matrix.sum_duplicates()
    if check_diagonal:
        bad = np.flatnonzero(~(diag > 0) | ~np.isfinite(diag))
        if bad.size:
            names = [grid.name_of(int(unknown_indices[r])) for r in bad[:5]]
            raise ValueError(
                f"stamped G has {bad.size} non-positive/non-finite diagonal "
                f"entries (e.g. nodes {names}); the system is singular or "
                "indefinite — repair the netlist first"
            )
    return ReducedSystem(
        matrix=matrix,
        rhs=rhs,
        unknown_indices=unknown_indices,
        pad_voltages=pad_voltages,
        num_grid_nodes=grid.num_nodes,
    )


# ---------------------------------------------------------------------------
# Delta stamping: patch an already-reduced CSR system in place.
#
# ECO-style edits (a pad added, a wire resized, loads revised) change a
# handful of matrix entries; re-running the full stamp throws away the
# CSR structure, the RHS and — further downstream — the AMG hierarchy.
# The helpers below edit ``matrix.data``/``rhs`` directly and return an
# undo record, so a caller can speculatively apply a candidate edit,
# solve, and revert.  The sparsity *pattern* never changes: every update
# touches entries the symmetric stamp already materialised.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemPatch:
    """Undo record for one in-place reduced-system edit.

    ``data_indices`` index straight into ``matrix.data`` (CSR storage
    order); ``rhs_rows`` index into the RHS vector.  Reverting writes the
    saved old values back, restoring the system bitwise.
    """

    data_indices: np.ndarray
    data_old: np.ndarray
    rhs_rows: np.ndarray
    rhs_old: np.ndarray

    @classmethod
    def empty(cls) -> "SystemPatch":
        return cls(
            data_indices=np.empty(0, dtype=np.int64),
            data_old=np.empty(0, dtype=float),
            rhs_rows=np.empty(0, dtype=np.int64),
            rhs_old=np.empty(0, dtype=float),
        )


def csr_entry(matrix: sp.csr_matrix, row: int, col: int) -> int:
    """Position of entry ``(row, col)`` in ``matrix.data``.

    Requires canonical CSR (sorted indices, duplicates summed) — which
    :func:`build_reduced_system` guarantees.  Raises ``KeyError`` when
    the entry is not materialised: delta stamping never creates fill-in.
    """
    lo, hi = int(matrix.indptr[row]), int(matrix.indptr[row + 1])
    pos = lo + int(np.searchsorted(matrix.indices[lo:hi], col))
    if pos >= hi or matrix.indices[pos] != col:
        raise KeyError(f"entry ({row}, {col}) is not stored in the CSR pattern")
    return pos


def revert_patch(
    matrix: sp.csr_matrix, rhs: np.ndarray, patch: SystemPatch
) -> None:
    """Undo an in-place edit, restoring matrix and RHS bitwise."""
    matrix.data[patch.data_indices] = patch.data_old
    rhs[patch.rhs_rows] = patch.rhs_old


def patch_conductance(
    matrix: sp.csr_matrix,
    rhs: np.ndarray,
    row_a: int | None,
    row_b: int | None,
    delta_g: float,
    voltage_a: float | None = None,
    voltage_b: float | None = None,
) -> SystemPatch:
    """Re-stamp one wire's conductance change ``delta_g`` in place.

    ``row_a``/``row_b`` are reduced-system rows, or ``None`` for an
    endpoint pinned to a known voltage (an eliminated pad *or* a node
    pinned by a delta), in which case the matching ``voltage_*`` supplies
    the coupling term that moves to the RHS — exactly mirroring the full
    stamp's elimination rules.
    """
    data_indices: list[int] = []
    rhs_rows: list[int] = []
    if row_a is not None and row_b is not None:
        data_indices = [
            csr_entry(matrix, row_a, row_a),
            csr_entry(matrix, row_b, row_b),
            csr_entry(matrix, row_a, row_b),
            csr_entry(matrix, row_b, row_a),
        ]
    elif row_a is not None:
        if voltage_b is None:
            raise ValueError("pinned endpoint b needs voltage_b")
        data_indices = [csr_entry(matrix, row_a, row_a)]
        rhs_rows = [row_a]
    elif row_b is not None:
        if voltage_a is None:
            raise ValueError("pinned endpoint a needs voltage_a")
        data_indices = [csr_entry(matrix, row_b, row_b)]
        rhs_rows = [row_b]
    # both endpoints pinned: nothing reaches the reduced system

    idx = np.asarray(data_indices, dtype=np.int64)
    rows = np.asarray(rhs_rows, dtype=np.int64)
    patch = SystemPatch(
        data_indices=idx,
        data_old=matrix.data[idx].copy(),
        rhs_rows=rows,
        rhs_old=rhs[rows].copy(),
    )
    if row_a is not None and row_b is not None:
        matrix.data[idx[0]] += delta_g
        matrix.data[idx[1]] += delta_g
        matrix.data[idx[2]] -= delta_g
        matrix.data[idx[3]] -= delta_g
    elif row_a is not None:
        matrix.data[idx[0]] += delta_g
        rhs[row_a] += delta_g * voltage_b
    elif row_b is not None:
        matrix.data[idx[0]] += delta_g
        rhs[row_b] += delta_g * voltage_a
    return patch


def pin_row(
    matrix: sp.csr_matrix, rhs: np.ndarray, row: int, voltage: float
) -> tuple[SystemPatch, np.ndarray, np.ndarray]:
    """Pin unknown ``row`` to ``voltage`` by in-place row/column surgery.

    The constraint ``x[row] = voltage`` is imposed *exactly* while
    keeping the matrix dimension (and SPD-ness): row and column ``row``
    are zeroed, the diagonal keeps its old value ``d`` (scale
    preserving), ``rhs[row]`` becomes ``d * voltage``, and every
    neighbour ``r`` gets the eliminated coupling ``q_r * voltage`` moved
    onto its RHS.  After the permutation separating ``row`` the system
    is block-diagonal ``diag(G_rr, d)`` — the remaining unknowns satisfy
    precisely the system a from-scratch stamp with one more pad yields.

    Returns ``(patch, q_indices, q_values)`` where ``q`` is the original
    matrix column ``row`` (equal to the row, by symmetry) *including* the
    diagonal — the low-rank factor the SMW solver needs.
    """
    lo, hi = int(matrix.indptr[row]), int(matrix.indptr[row + 1])
    q_indices = matrix.indices[lo:hi].astype(np.int64, copy=True)
    q_values = matrix.data[lo:hi].copy()
    diag_pos = lo + int(np.searchsorted(matrix.indices[lo:hi], row))
    if diag_pos >= hi or matrix.indices[diag_pos] != row:
        raise KeyError(f"row {row} has no stored diagonal")
    diag = float(matrix.data[diag_pos])

    # Positions of the symmetric column entries (r, row) for r != row.
    col_positions = [
        csr_entry(matrix, int(r), row) for r in q_indices if int(r) != row
    ]
    data_indices = np.concatenate(
        [np.arange(lo, hi, dtype=np.int64), np.asarray(col_positions, np.int64)]
    )
    rhs_rows = q_indices.copy()  # neighbours plus the pinned row itself
    patch = SystemPatch(
        data_indices=data_indices,
        data_old=matrix.data[data_indices].copy(),
        rhs_rows=rhs_rows,
        rhs_old=rhs[rhs_rows].copy(),
    )

    matrix.data[lo:hi] = 0.0
    matrix.data[diag_pos] = diag
    for pos in col_positions:
        matrix.data[pos] = 0.0
    for r, q_r in zip(q_indices, q_values):
        if int(r) != row:
            rhs[int(r)] -= q_r * voltage
    rhs[row] = diag * voltage
    return patch, q_indices, q_values


def patch_rhs(
    rhs: np.ndarray, rows: np.ndarray, deltas: np.ndarray
) -> SystemPatch:
    """Apply additive RHS changes (load revisions) with an undo record."""
    rows = np.asarray(rows, dtype=np.int64)
    patch = SystemPatch(
        data_indices=np.empty(0, dtype=np.int64),
        data_old=np.empty(0, dtype=float),
        rhs_rows=rows,
        rhs_old=rhs[rows].copy(),
    )
    rhs[rows] += deltas
    return patch


def build_full_mna(grid: PowerGrid) -> FullMNASystem:
    """Assemble the full MNA system with branch currents for pads.

    Unknowns are ``[v_0 .. v_{n-1}, i_pad_0 .. i_pad_{m-1}]``.  Each pad
    contributes a row ``v_p = V`` and a symmetric coupling column that adds
    the branch current into the pad node's KCL equation.
    """
    n = grid.num_nodes
    pads = grid.pads()
    m = len(pads)
    size = n + m

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    rhs = np.zeros(size, dtype=float)

    diag = np.zeros(n, dtype=float)
    for wire in grid.wires:
        g = wire.conductance
        diag[wire.node_a] += g
        diag[wire.node_b] += g
        rows.extend((wire.node_a, wire.node_b))
        cols.extend((wire.node_b, wire.node_a))
        vals.extend((-g, -g))
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(diag)

    for node in grid.nodes:
        if node.load_current:
            rhs[node.index] -= node.load_current

    for k, pad in enumerate(pads):
        branch = n + k
        rows.extend((pad.index, branch))
        cols.extend((branch, pad.index))
        vals.extend((1.0, 1.0))
        rhs[branch] = pad.pad_voltage

    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(size, size), dtype=float)
    matrix.sum_duplicates()
    return FullMNASystem(matrix=matrix, rhs=rhs, num_nodes=n)
