"""Incremental ECO re-solve engine: structural deltas without restamping.

ECO loops re-analyse a grid after small edits — loads revised, a wire
resized, a pad added or removed.  The original analyzer could only
warm-start when the conductance matrix was *unchanged*; any structural
edit threw away the stamped system, the AMG hierarchy and the previous
solution.  This module keeps all three alive across edits:

- :class:`GridDelta` subclasses describe the edits
  (:class:`AddPad` / :class:`RemovePad` / :class:`ScaleWire` /
  :class:`SetWireResistance` / :class:`ReviseLoads`);
- delta stamping (:mod:`repro.mna.stamper`) patches the reduced CSR
  system in place, with undo records so candidate edits can be
  speculatively applied and reverted;
- low-rank edits solve through Sherman–Morrison–Woodbury corrections
  against the *cached* AMG hierarchy of the base matrix: a pad pin is a
  symmetric rank-2 update, a wire resize rank 1, so
  ``(G0 + U C Uᵀ)⁻¹ b`` costs a handful of base solves whose columns
  are cached across the whole sweep — followed by a short warm-started
  PCG polish on the patched matrix that restores full solver tolerance;
- when the accumulated delta rank or the stencil churn crosses a
  threshold (or a dimension-changing edit arrives), the engine falls
  back to a full restamp + hierarchy rebuild, keyed into the process
  setup cache by a *delta-chain fingerprint* so revisited structural
  states rehit the cache without rehashing the matrix.

The classic consumer is :mod:`repro.opt.pad_placement`: a greedy pad
sweep evaluates hundreds of nearly identical systems, and with this
engine each candidate costs one cached column solve plus dense algebra
instead of a from-scratch simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from repro.diagnostics import RunDiagnostics
from repro.grid.netlist import PowerGrid
from repro.mna.stamper import (
    SystemPatch,
    build_reduced_system,
    patch_conductance,
    patch_rhs,
    pin_row,
    revert_patch,
)
from repro.mna.system import ReducedSystem
from repro.obs import counter_add, deadline_active, span
from repro.solvers.amg import AMGOptions, build_hierarchy
from repro.solvers.base import SolveResult, SolverOptions
from repro.solvers.cache import (
    chained_fingerprint,
    global_setup_cache,
    matrix_fingerprint,
    setup_cache_enabled,
)
from repro.solvers.cg import _pcg
from repro.solvers.cycles import CycleOptions, CyclePreconditioner
from repro.solvers.guard import GuardrailOptions, IterationGuard


# ---------------------------------------------------------------------------
# Deltas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridDelta:
    """Base class for structural/electrical grid edits."""

    def token(self) -> str:
        """Stable identity string for delta-chain fingerprints."""
        raise NotImplementedError


@dataclass(frozen=True)
class AddPad(GridDelta):
    """Pin a (currently unknown) node to the supply: a new power pad.

    ``voltage=None`` uses the engine's supply voltage.  Numerically this
    is an exact symmetric rank-2 modification of the reduced system.
    """

    node: int | str
    voltage: float | None = None

    def token(self) -> str:
        return f"pad+:{self.node}:{self.voltage!r}"


@dataclass(frozen=True)
class RemovePad(GridDelta):
    """Un-pin a pad.

    Removing a pad that an earlier :class:`AddPad` delta created is the
    exact low-rank reversal when it is the most recent edit; any other
    removal changes the unknown set and forces a structural rebuild at
    the next solve.
    """

    node: int | str

    def token(self) -> str:
        return f"pad-:{self.node}"


@dataclass(frozen=True)
class ScaleWire(GridDelta):
    """Multiply one wire's resistance by ``factor`` (ECO resize)."""

    wire: int
    factor: float

    def token(self) -> str:
        return f"wire*:{self.wire}:{self.factor!r}"

    def __post_init__(self) -> None:
        if self.factor <= 0 or not np.isfinite(self.factor):
            raise ValueError(f"factor must be positive, got {self.factor}")


@dataclass(frozen=True)
class SetWireResistance(GridDelta):
    """Set one wire's resistance to an absolute value."""

    wire: int
    resistance: float

    def token(self) -> str:
        return f"wire=:{self.wire}:{self.resistance!r}"

    def __post_init__(self) -> None:
        if self.resistance <= 0 or not np.isfinite(self.resistance):
            raise ValueError(
                f"resistance must be positive, got {self.resistance}"
            )


@dataclass(frozen=True)
class ReviseLoads(GridDelta):
    """Set per-node load currents (RHS-only edit).

    ``currents`` maps grid node (index or name) to the node's *new*
    absolute load; with ``additive=True`` values are added to the
    current loads instead.
    """

    currents: tuple[tuple[int | str, float], ...]
    additive: bool = False

    @classmethod
    def of(
        cls, currents: Mapping[int | str, float], additive: bool = False
    ) -> "ReviseLoads":
        return cls(currents=tuple(sorted(currents.items(), key=repr)),
                   additive=additive)

    def token(self) -> str:
        return f"loads:{self.additive}:{self.currents!r}"


@dataclass(frozen=True)
class IncrementalOptions:
    """Tuning knobs for the incremental engine.

    Attributes
    ----------
    max_rank:
        Accumulated low-rank budget; exceeding it triggers a full
        restamp + hierarchy rebuild at the next solve (the SMW capacity
        system and correction algebra grow with the rank).
    max_stencil_churn:
        Fraction of reduced-system rows the accumulated structural
        patches may touch before the stale base preconditioner is
        presumed ineffective and a rebuild is forced.
    polish_max_iterations:
        Iteration cap of the warm-started PCG polish that runs on the
        patched matrix after an SMW correction.  A polish that fails to
        converge within the cap falls back to a rebuild.
    polish:
        Disable to accept raw SMW corrections (benchmark ablations).
    column_tol:
        Relative tolerance of the cached SMW factor-column solves
        (``G0⁻¹ e_j``) on the iterative tier.  ``None`` (default) uses
        the engine's solver tolerance — corrections are then accurate to
        full precision before any polish.  ECO sweeps that preview many
        candidates and only need to *rank* them can loosen this:
        column accuracy bounds preview accuracy, while committed solves
        are always polished on the patched matrix to the requested
        tolerance regardless.  Ignored on the direct tier (columns are
        exact there).
    direct_max_size:
        Base-solve tier threshold.  The base matrix ``G0`` is fixed for
        the lifetime of a setup, so systems up to this many unknowns are
        factorised once (sparse LU) and every SMW factor column and
        base-RHS solve becomes an exact pair of triangular solves —
        the decisive ECO advantage, since a from-scratch simulator
        cannot amortise anything across candidates.  Larger systems
        (LU fill-in memory) fall back to AMG-preconditioned CG against
        the cached hierarchy.  Set to ``0`` to force the iterative tier.
    """

    max_rank: int = 24
    max_stencil_churn: float = 0.25
    polish_max_iterations: int = 50
    polish: bool = True
    column_tol: float | None = None
    direct_max_size: int = 120_000

    def __post_init__(self) -> None:
        if self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")
        if not 0.0 < self.max_stencil_churn <= 1.0:
            raise ValueError("max_stencil_churn must be in (0, 1]")


@dataclass
class IncrementalSolve:
    """One incremental step's outcome.

    Attributes
    ----------
    drops:
        Per-grid-node IR drop after the update.
    iterations:
        Inner PCG iterations this step needed (base solves + polish).
    converged:
        Whether the final iterate met the solver tolerance.
    strategy:
        How the step was solved: ``cold`` (first solve), ``warm``
        (warm-started re-solve, no structural terms), ``smw``
        (low-rank Woodbury correction + polish), ``rebuild`` (full
        restamp; includes threshold crossings and polish fallbacks).
    polish_iterations:
        PCG iterations spent polishing an SMW correction.
    residual:
        Relative residual of the returned solution on the patched
        system.
    aborted:
        Guard trip reason (e.g. ``"deadline"``) or ``None``.
    """

    drops: np.ndarray
    iterations: int
    converged: bool = True
    strategy: str = "cold"
    polish_iterations: int = 0
    residual: float = float("nan")
    aborted: str | None = None


@dataclass
class _Term:
    """One committed low-rank delta and everything needed to undo it."""

    token: str
    prev_fingerprint: str
    cols: list[np.ndarray] = field(default_factory=list)
    c_block: np.ndarray | None = None
    w_cols: list[np.ndarray] = field(default_factory=list)
    patch: SystemPatch = field(default_factory=SystemPatch.empty)
    y_delta: np.ndarray | None = None
    y_invalidated: bool = False
    grid_undo: Callable[[], None] | None = None
    pinned_row: int | None = None
    pinned_voltage: float | None = None
    touched_rows: tuple[int, ...] = ()
    structural: bool = False
    prev_structural_dirty: bool = False

    @property
    def rank(self) -> int:
        return len(self.cols)


class IncrementalEngine:
    """Keeps system, hierarchy and solution alive across grid deltas.

    The engine owns a private clone of the grid; the caller's object is
    never mutated.  ``apply`` commits a delta (returning a handle),
    ``revert`` undoes the *most recent* one (LIFO — candidate
    evaluation), ``preview`` wraps apply → solve → revert, and ``solve``
    produces the IR drop for the current state.
    """

    def __init__(
        self,
        grid: PowerGrid,
        supply_voltage: float | None = None,
        options: SolverOptions | None = None,
        incremental: IncrementalOptions | None = None,
        amg_options: AMGOptions | None = None,
        cycle_options: CycleOptions | None = None,
        guard_options: GuardrailOptions | None = None,
        validate: bool = True,
    ) -> None:
        if supply_voltage is None:
            _, pad = grid.source_arrays()
            levels = set(pad[grid.pad_indices()].tolist())
            if len(levels) != 1:
                raise ValueError(
                    f"cannot infer a single supply voltage from pads: {levels}"
                )
            supply_voltage = levels.pop()
        self.supply_voltage = float(supply_voltage)
        self.options = options or SolverOptions()
        self.incremental = incremental or IncrementalOptions()
        self.amg_options = amg_options or AMGOptions()
        self.cycle_options = cycle_options or CycleOptions()
        self.guard_options = guard_options or GuardrailOptions()
        self.diagnostics = RunDiagnostics()

        self._grid = grid.clone()
        self._terms: list[_Term] = []
        self._pinned: dict[int, float] = {}  # reduced row -> voltage
        self._w_cache: dict[tuple, tuple[np.ndarray, int]] = {}
        load, _ = self._grid.source_arrays()
        loaded = self._grid.load_indices()
        self._loads: dict[int, float] = dict(
            zip(loaded.tolist(), load[loaded].tolist())
        )
        self._structural_dirty = False
        self._x: np.ndarray | None = None  # last unknown-space solution
        self._x_full: np.ndarray | None = None  # last full-grid voltages
        self._y: np.ndarray | None = None  # S(b_cur) against the base
        self._y_guess: np.ndarray | None = None
        self._steps = 0
        self._setup(validate=validate, fingerprint=None)

    # -- setup / rebuild ---------------------------------------------------

    def _setup(self, validate: bool, fingerprint: str | None) -> None:
        """(Re)stamp from the working grid and (re)build the hierarchy."""
        base = build_reduced_system(self._grid, validate=validate)
        self._base_matrix = base.matrix  # unpatched: what the AMG setup saw
        self._system = base.mutable_copy()
        self._row_of = base.row_map()
        if fingerprint is None:
            fingerprint = matrix_fingerprint(base.matrix)
        self._fingerprint = fingerprint
        if setup_cache_enabled():
            hierarchy, hit = global_setup_cache().get_or_build(
                base.matrix, self.amg_options, fingerprint=fingerprint
            )
        else:
            hierarchy, hit = build_hierarchy(base.matrix, self.amg_options), False
        counter_add("incremental.setup_cache_hits" if hit else
                    "incremental.setup_builds")
        self._precond = CyclePreconditioner(hierarchy, self.cycle_options)
        self._factor: Callable[[np.ndarray], np.ndarray] | None = None
        self._factor_skipped = False
        self._terms.clear()
        self._pinned.clear()
        self._w_cache.clear()
        self._y = None
        self._y_guess = None
        self._structural_dirty = False

    def _rebuild(self) -> None:
        with span("incremental.rebuild", rank=self.rank):
            previous_full = self._x_full
            self._setup(validate=True, fingerprint=self._fingerprint)
            if previous_full is not None:
                # Re-gather the previous full-grid solution onto the new
                # unknown set: still an excellent warm start.
                self._x = self._system.gather(previous_full)
        counter_add("incremental.rebuilds")

    # -- introspection -----------------------------------------------------

    @property
    def grid(self) -> PowerGrid:
        """The engine's working grid (treat as read-only)."""
        return self._grid

    @property
    def system(self) -> ReducedSystem:
        """The current (patched) reduced system."""
        return self._system

    @property
    def rank(self) -> int:
        """Accumulated low-rank budget consumed by active deltas."""
        return sum(t.rank for t in self._terms)

    @property
    def fingerprint(self) -> str:
        """Delta-chain fingerprint of the current structural state."""
        return self._fingerprint

    @property
    def current_loads(self) -> dict[int, float]:
        """Per-node load currents of the current state (nonzero only)."""
        return {k: v for k, v in self._loads.items() if v != 0.0}

    def _stencil_churn(self) -> float:
        touched: set[int] = set()
        for term in self._terms:
            touched.update(term.touched_rows)
        size = max(self._system.size, 1)
        return len(touched) / size

    def _needs_rebuild(self) -> bool:
        return (
            self._structural_dirty
            or self.rank > self.incremental.max_rank
            or self._stencil_churn() > self.incremental.max_stencil_churn
        )

    # -- base solves (against the unpatched matrix + cached hierarchy) ----

    def _guard(self) -> IterationGuard | None:
        if not deadline_active():
            return None
        return IterationGuard(self.guard_options, solver_name="incremental")

    def _base_factor(self) -> Callable[[np.ndarray], np.ndarray] | None:
        """Sparse LU of ``G0``, built lazily once per (re)stamp.

        Skipped for systems above ``direct_max_size`` and while a
        deadline scope is active (a factorisation is not interruptible;
        the guarded PCG path is).
        """
        if deadline_active():
            return None
        if self._factor is None and not self._factor_skipped:
            if self._system.size > self.incremental.direct_max_size:
                self._factor_skipped = True
            else:
                import scipy.sparse as sp
                from scipy.sparse.linalg import splu

                with span("incremental.factorize", size=self._system.size):
                    lu = splu(sp.csc_matrix(self._base_matrix))
                self._factor = lu.solve
                counter_add("incremental.factorizations")
        return self._factor

    def _base_solve(
        self,
        rhs: np.ndarray,
        x0: np.ndarray | None,
        options: SolverOptions,
    ) -> SolveResult:
        counter_add("incremental.base_solves")
        factor = self._base_factor()
        if factor is not None:
            counter_add("incremental.direct_solves")
            return SolveResult(x=factor(rhs), iterations=0, converged=True)
        result = _pcg(
            self._base_matrix,
            rhs,
            x0,
            preconditioner=self._precond.apply,
            options=options,
            flexible=True,
            guard=self._guard(),
        )
        counter_add("pcg.iterations", result.iterations)
        return result

    def _column_solve(self, key: tuple, rhs: np.ndarray) -> tuple[np.ndarray, int]:
        """Cached ``G0⁻¹ rhs`` for an SMW factor column."""
        cached = self._w_cache.get(key)
        if cached is not None:
            counter_add("incremental.column_cache_hits")
            return cached
        tol = self.incremental.column_tol
        column_options = replace(
            self.options,
            record_history=False,
            tol=self.options.tol if tol is None else tol,
        )
        result = self._base_solve(rhs, None, column_options)
        entry = (result.x, result.iterations)
        self._w_cache[key] = entry
        counter_add("incremental.column_solves")
        return entry

    def _unit(self, row: int) -> np.ndarray:
        e = np.zeros(self._system.size, dtype=float)
        e[row] = 1.0
        return e

    def _prior_correction(self, e_row: np.ndarray, row: int) -> np.ndarray:
        """``Σ W_i C_i (U_iᵀ e_row)`` over the active terms.

        With ``q = G_cur e_row`` this turns ``S(q)`` into pure algebra:
        ``S(q) = e_row + Σ W_i C_i (U_iᵀ e_row)`` — no extra solve.
        """
        correction = np.zeros_like(e_row)
        for term in self._terms:
            if not term.cols:
                continue
            proj = np.array([col[row] for col in term.cols])
            if not proj.any():
                continue
            coeff = term.c_block @ proj
            for w_col, c in zip(term.w_cols, coeff):
                if c != 0.0:
                    correction += c * w_col
        return correction

    # -- delta application -------------------------------------------------

    def _resolve_node(self, node: int | str) -> int:
        return self._grid.index_of(node) if isinstance(node, str) else int(node)

    def _resolve_endpoint(
        self, grid_index: int
    ) -> tuple[int | None, float | None]:
        """Map a grid node to (reduced row, pinned voltage).

        Original pads have no row; delta-pinned nodes have a row but are
        electrically pads, so both report ``row=None`` + their voltage
        for stamping purposes (returning the row separately for RHS
        bookkeeping is not needed — :func:`patch_conductance` mirrors
        the full stamp's elimination rules).
        """
        row = self._row_of.get(grid_index)
        if row is None:
            return None, self._system.pad_voltages[grid_index]
        pinned = self._pinned.get(row)
        if pinned is not None:
            return None, pinned
        return row, None

    def apply(self, delta: GridDelta) -> _Term:
        """Commit a delta; returns the handle :meth:`revert` accepts."""
        if isinstance(delta, AddPad):
            term = self._apply_add_pad(delta)
        elif isinstance(delta, RemovePad):
            term = self._apply_remove_pad(delta)
        elif isinstance(delta, (ScaleWire, SetWireResistance)):
            term = self._apply_wire(delta)
        elif isinstance(delta, ReviseLoads):
            term = self._apply_loads(delta)
        else:
            raise TypeError(f"unsupported delta {type(delta).__name__}")
        self._fingerprint = chained_fingerprint(
            term.prev_fingerprint, term.token
        )
        counter_add("incremental.deltas")
        return term

    def _apply_add_pad(self, delta: AddPad) -> _Term:
        index = self._resolve_node(delta.node)
        node = self._grid.node(index)
        if node.is_pad:
            raise ValueError(f"node {node.name!r} is already a pad")
        voltage = self.supply_voltage if delta.voltage is None else delta.voltage
        row = self._row_of[index]
        matrix, rhs = self._system.matrix, self._system.rhs
        rhs_j_old = float(rhs[row])
        patch, q_indices, q_values = pin_row(matrix, rhs, row, voltage)
        diag = float(q_values[np.searchsorted(q_indices, row)])

        e_row = self._unit(row)
        q_dense = np.zeros_like(e_row)
        q_dense[q_indices] = q_values
        alpha = 2.0 * diag
        c_block = np.array([[alpha, -1.0], [-1.0, 0.0]])

        w1, _ = self._column_solve(("node", row), e_row)
        # S(q) = S(G_cur e_row) = e_row + Σ W_i C_i (U_iᵀ e_row): algebra.
        w2 = e_row + self._prior_correction(e_row, row)
        # RHS moved by the pin: Δb = -V q + (2 d V - b_j) e_j, so the
        # cached base solution S(b) shifts by -V S(q) + (2 d V - b_j) w1.
        y_delta = -voltage * w2 + (2.0 * diag * voltage - rhs_j_old) * w1

        self._grid.pin_pad(index, voltage)
        self._pinned[row] = voltage
        if self._y is not None:
            self._y = self._y + y_delta

        term = _Term(
            token=delta.token(),
            prev_fingerprint=self._fingerprint,
            cols=[e_row, q_dense],
            c_block=c_block,
            w_cols=[w1, w2],
            patch=patch,
            y_delta=y_delta,
            grid_undo=lambda: (
                self._grid.unpin_pad(index),
                self._pinned.pop(row, None),
            ),
            pinned_row=row,
            pinned_voltage=voltage,
            touched_rows=(row,),
        )
        self._terms.append(term)
        return term

    def _apply_remove_pad(self, delta: RemovePad) -> _Term:
        index = self._resolve_node(delta.node)
        node = self._grid.node(index)
        if not node.is_pad:
            raise ValueError(f"node {node.name!r} is not a pad")
        row = self._row_of.get(index)
        if (
            row is not None
            and self._terms
            and self._terms[-1].pinned_row == row
        ):
            # Exact reversal of the most recent AddPad: pop it.
            self.revert(self._terms[-1])
            # Re-chain so the fingerprint reflects "add then remove"
            # rather than silently rewinding (apply() chains on top).
            return _Term(
                token=delta.token(),
                prev_fingerprint=self._fingerprint,
                grid_undo=None,
            )
        # Anything else changes the unknown set: structural rebuild.
        voltage = node.pad_voltage
        self._grid.unpin_pad(index)
        prev_dirty = self._structural_dirty
        self._structural_dirty = True
        counter_add("incremental.structural_deltas")
        term = _Term(
            token=delta.token(),
            prev_fingerprint=self._fingerprint,
            grid_undo=lambda: self._grid.pin_pad(index, voltage),
            structural=True,
            prev_structural_dirty=prev_dirty,
        )
        self._terms.append(term)
        return term

    def _apply_wire(self, delta: ScaleWire | SetWireResistance) -> _Term:
        wire_index = int(delta.wire)
        wire = self._grid.wires[wire_index]
        old_resistance = wire.resistance
        if isinstance(delta, ScaleWire):
            new_resistance = old_resistance * delta.factor
        else:
            new_resistance = delta.resistance
        delta_g = 1.0 / new_resistance - 1.0 / old_resistance

        a_index, b_index = wire.node_a, wire.node_b
        row_a, voltage_a = self._resolve_endpoint(a_index)
        row_b, voltage_b = self._resolve_endpoint(b_index)
        matrix, rhs = self._system.matrix, self._system.rhs
        patch = patch_conductance(
            matrix, rhs, row_a, row_b, delta_g, voltage_a, voltage_b
        )

        cols: list[np.ndarray] = []
        w_cols: list[np.ndarray] = []
        c_block: np.ndarray | None = None
        y_delta: np.ndarray | None = None
        touched: tuple[int, ...] = ()
        if delta_g != 0.0 and (row_a is not None or row_b is not None):
            if row_a is not None and row_b is not None:
                u = self._unit(row_a) - self._unit(row_b)
                w, _ = self._column_solve(("edge", row_a, row_b), u)
                touched = (row_a, row_b)
            else:
                live = row_a if row_a is not None else row_b
                pad_voltage = voltage_b if row_a is not None else voltage_a
                u = self._unit(live)
                w, _ = self._column_solve(("node", live), u)
                # RHS coupling to the pinned side moved by delta_g * V.
                y_delta = delta_g * pad_voltage * w
                touched = (live,)
            cols, w_cols = [u], [w]
            c_block = np.array([[delta_g]])
            if self._y is not None and y_delta is not None:
                self._y = self._y + y_delta

        self._grid.set_wire_resistance(wire_index, new_resistance)
        term = _Term(
            token=delta.token(),
            prev_fingerprint=self._fingerprint,
            cols=cols,
            c_block=c_block,
            w_cols=w_cols,
            patch=patch,
            y_delta=y_delta,
            grid_undo=lambda: self._grid.set_wire_resistance(
                wire_index, old_resistance
            ),
            touched_rows=touched,
        )
        self._terms.append(term)
        return term

    def _apply_loads(self, delta: ReviseLoads) -> _Term:
        rows: list[int] = []
        rhs_deltas: list[float] = []
        old_loads: list[tuple[int, float]] = []
        for node, amps in delta.currents:
            index = self._resolve_node(node)
            row = self._row_of.get(index)
            if row is None or row in self._pinned:
                name = self._grid.node(index).name
                raise ValueError(
                    f"node {name!r} ({index}) is a pad or unknown; "
                    "cannot load it"
                )
            old = self._loads.get(index, 0.0)
            new = old + amps if delta.additive else amps
            if new == old:
                continue
            rows.append(row)
            # Loads enter the stamped RHS with a negative sign.
            rhs_deltas.append(-(new - old))
            old_loads.append((index, old))
            self._loads[index] = new
            self._grid.set_load(index, new)
        patch = patch_rhs(
            self._system.rhs,
            np.asarray(rows, dtype=np.int64),
            np.asarray(rhs_deltas, dtype=float),
        )

        def undo() -> None:
            for index, old in old_loads:
                self._loads[index] = old
                self._grid.set_load(index, old)

        term = _Term(
            token=delta.token(),
            prev_fingerprint=self._fingerprint,
            patch=patch,
            y_invalidated=bool(rows),
            grid_undo=undo,
        )
        if rows:
            self._y = None  # general RHS move: re-solve (warm) on demand
        self._terms.append(term)
        return term

    def revert(self, term: _Term) -> None:
        """Undo the most recently applied delta (LIFO discipline)."""
        if not self._terms or self._terms[-1] is not term:
            raise ValueError(
                "revert only accepts the most recently applied delta"
            )
        self._terms.pop()
        revert_patch(self._system.matrix, self._system.rhs, term.patch)
        if term.grid_undo is not None:
            term.grid_undo()
        if term.structural:
            self._structural_dirty = term.prev_structural_dirty
        if term.y_invalidated:
            self._y = None
        elif term.y_delta is not None and self._y is not None:
            self._y = self._y - term.y_delta
        self._fingerprint = term.prev_fingerprint

    # -- solving -----------------------------------------------------------

    def set_loads(self, currents: Mapping[int | str, float]) -> _Term:
        """Replace the whole load vector (unmentioned loads go to zero)."""
        merged: dict[int | str, float] = {
            index: 0.0 for index, load in self._loads.items() if load != 0.0
        }
        merged.update(currents)
        return self.apply(ReviseLoads.of(merged))

    def preview(self, delta: GridDelta, tol: float | None = None) -> IncrementalSolve:
        """Evaluate a candidate edit without committing it."""
        term = self.apply(delta)
        previous_x = self._x
        previous_full = self._x_full
        try:
            return self.solve(tol=tol, commit=False)
        finally:
            self.revert(term)
            self._x = previous_x
            self._x_full = previous_full

    def solve(
        self, tol: float | None = None, commit: bool = True
    ) -> IncrementalSolve:
        """Solve the current state; warm-starts and corrects as possible.

        ``commit=False`` (used by :meth:`preview`) keeps the cached
        solution trajectory pointed at the last committed state.
        """
        options = self.options if tol is None else replace(self.options, tol=tol)
        with span("incremental.solve", rank=self.rank) as solve_span:
            # Previews must never rebuild: a rebuild folds the term
            # stack into the base system, and the caller still holds a
            # term it is about to revert.
            rebuilt = commit and self._needs_rebuild()
            if rebuilt:
                self._rebuild()
            if not self._terms:
                step = self._solve_direct(options)
                if rebuilt:
                    step.strategy = "rebuild"
            else:
                step = self._solve_smw(options, allow_rebuild=commit)
            solve_span.attrs["strategy"] = step.strategy
            solve_span.attrs["iterations"] = step.iterations
        self._steps += 1
        counter_add("incremental.solves")
        counter_add("incremental.polish_iterations", step.polish_iterations)
        if step.aborted is not None:
            counter_add("incremental.aborted")
        self.diagnostics.warnings.append(
            f"incremental step {self._steps}: strategy={step.strategy} "
            f"iterations={step.iterations} polish={step.polish_iterations} "
            f"converged={step.converged}"
            + (f" aborted={step.aborted}" if step.aborted else "")
        )
        return step

    def _finish(
        self,
        x: np.ndarray,
        iterations: int,
        strategy: str,
        polish_iterations: int = 0,
        aborted: str | None = None,
        converged: bool = True,
    ) -> IncrementalSolve:
        self._x = x
        voltages = self._system.scatter(x)
        self._x_full = voltages
        residual = self._system.relative_residual(x)
        return IncrementalSolve(
            drops=self.supply_voltage - voltages,
            iterations=iterations,
            converged=converged,
            strategy=strategy,
            polish_iterations=polish_iterations,
            residual=residual,
            aborted=aborted,
        )

    def _solve_direct(self, options: SolverOptions) -> IncrementalSolve:
        """No active low-rank terms: the matrix IS ``G0``; solve it."""
        if self._x is not None and self._x.shape == (self._system.size,):
            x0 = self._x
            strategy = "warm"
        else:
            x0 = np.full(self._system.size, self.supply_voltage)
            strategy = "cold" if self._steps == 0 else "rebuild"
        factor = self._base_factor()
        if factor is not None:
            counter_add("incremental.direct_solves")
            counter_add("incremental.warm_solves" if strategy == "warm" else
                        "incremental.full_solves")
            return self._finish(factor(self._system.rhs), 0, strategy)
        result = _pcg(
            self._system.matrix,
            self._system.rhs,
            x0,
            preconditioner=self._precond.apply,
            options=options,
            flexible=True,
            guard=self._guard(),
        )
        counter_add("pcg.iterations", result.iterations)
        counter_add("incremental.warm_solves" if strategy == "warm" else
                    "incremental.full_solves")
        return self._finish(
            result.x,
            result.iterations,
            strategy,
            aborted=result.aborted,
            converged=result.converged,
        )

    def _solve_smw(
        self, options: SolverOptions, allow_rebuild: bool = True
    ) -> IncrementalSolve:
        """Woodbury correction against the base hierarchy, then polish."""
        iterations = 0
        # y = G0⁻¹ b_cur; maintained algebraically across pad/wire edits,
        # re-solved (warm) after a general RHS move.
        if self._y is None:
            result = self._base_solve(
                self._system.rhs, self._y_guess, options
            )
            self._y = result.x
            iterations += result.iterations
            if result.aborted is not None:
                return self._finish(
                    result.x, iterations, "smw",
                    aborted=result.aborted, converged=False,
                )
        self._y_guess = self._y

        terms = [t for t in self._terms if t.cols]
        if terms:
            u_mat = np.column_stack(
                [col for t in terms for col in t.cols]
            )
            w_mat = np.column_stack(
                [col for t in terms for col in t.w_cols]
            )
            k = u_mat.shape[1]
            c_inv = np.zeros((k, k))
            offset = 0
            for t in terms:
                r = t.rank
                c_inv[offset : offset + r, offset : offset + r] = (
                    np.linalg.inv(t.c_block)
                )
                offset += r
            capacitance = c_inv + u_mat.T @ w_mat
            coeff = np.linalg.solve(capacitance, u_mat.T @ self._y)
            x = self._y - w_mat @ coeff
        else:
            x = self._y.copy()
        counter_add("incremental.smw_solves")

        # Polish on the *patched* matrix with the stale base
        # preconditioner: restores full tolerance regardless of the
        # conditioning of the capacitance solve.
        polish_iterations = 0
        aborted: str | None = None
        converged = self._system.relative_residual(x) <= options.tol
        if not converged and self.incremental.polish:
            polish_options = replace(
                options,
                max_iterations=self.incremental.polish_max_iterations,
                record_history=False,
            )
            result = _pcg(
                self._system.matrix,
                self._system.rhs,
                x,
                preconditioner=self._precond.apply,
                options=polish_options,
                flexible=True,
                guard=self._guard(),
            )
            counter_add("pcg.iterations", result.iterations)
            polish_iterations = result.iterations
            iterations += result.iterations
            x = result.x
            aborted = result.aborted
            converged = result.converged
            if not converged and aborted is None and allow_rebuild:
                # Stale preconditioner not pulling its weight: rebuild.
                counter_add("incremental.fallbacks")
                self._rebuild()
                return self._solve_direct(options)
        return self._finish(
            x,
            iterations,
            "smw",
            polish_iterations=polish_iterations,
            aborted=aborted,
            converged=converged,
        )


class IncrementalAnalyzer:
    """Warm-started load re-analysis (the classic ECO loop front-end).

    A thin wrapper over :class:`IncrementalEngine` for the common case
    of revising load currents only.  Accepts caller-supplied
    :class:`SolverOptions`, honours an ambient
    :func:`repro.obs.deadline_scope`, and surfaces per-step
    iteration/strategy records through :attr:`diagnostics`.
    """

    def __init__(
        self,
        grid: PowerGrid,
        supply_voltage: float | None = None,
        tol: float = 1e-8,
        options: SolverOptions | None = None,
        incremental: IncrementalOptions | None = None,
    ) -> None:
        if options is None:
            options = SolverOptions(tol=tol, max_iterations=500)
        self._engine = IncrementalEngine(
            grid,
            supply_voltage,
            options=options,
            incremental=incremental,
        )
        self._currents: dict[int, float] = {}

    @property
    def engine(self) -> IncrementalEngine:
        """The underlying incremental engine (for structural deltas)."""
        return self._engine

    @property
    def grid(self) -> PowerGrid:
        return self._engine.grid

    @property
    def supply_voltage(self) -> float:
        return self._engine.supply_voltage

    @property
    def options(self) -> SolverOptions:
        return self._engine.options

    @property
    def diagnostics(self) -> RunDiagnostics:
        """Per-step strategy/iteration records for the whole session."""
        return self._engine.diagnostics

    @property
    def current_loads(self) -> dict[int, float]:
        """The load vector of the most recent solve."""
        return dict(self._currents)

    def set_loads(self, currents: Mapping[int, float]) -> IncrementalSolve:
        """Replace the full load vector and (re)solve.

        The first call is a cold solve from the flat guess; later calls
        warm-start from the previous solution.
        """
        self._engine.set_loads(currents)
        self._currents = dict(currents)
        return self._engine.solve()

    def update_loads(self, delta: Mapping[int, float]) -> IncrementalSolve:
        """Apply additive current changes to the current vector and re-solve."""
        merged = dict(self._currents)
        for node_index, amps in delta.items():
            merged[node_index] = merged.get(node_index, 0.0) + amps
        return self.set_loads(merged)
