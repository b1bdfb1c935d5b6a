"""PowerRush-style end-to-end static PG simulator.

The paper's numerical baseline: SPICE deck in, per-node voltages and
IR-drop maps out, with AMG-PCG doing the solving.  Capping
``max_iterations`` reproduces the rough-solution regime the fusion
framework feeds into the ML model (and the Fig. 7 sweep).

The simulator is fault-tolerant by default: the input grid is validated
(and repaired — floating islands ground-tied) before stamping, and the
solve runs through the :class:`~repro.solvers.guard.FallbackCascade`
(AMG-PCG → adjusted retry → Jacobi-PCG → direct).  Everything non-nominal
is recorded on ``SimulationReport.diagnostics``; set ``robust=False`` to
restore the raise-on-anything behaviour for debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.diagnostics import RunDiagnostics
from repro.grid.geometry import GridGeometry
from repro.obs import span
from repro.grid.netlist import PowerGrid
from repro.grid.raster import layer_values_image
from repro.mna.stamper import build_reduced_system
from repro.mna.system import ReducedSystem
from repro.solvers.amg import AMGOptions
from repro.solvers.amg_pcg import AMGPCGSolver
from repro.solvers.base import SolveResult, SolverOptions
from repro.solvers.cache import setup_cache_stats
from repro.solvers.cycles import CycleOptions
from repro.solvers.guard import FallbackCascade, GuardrailOptions
from repro.spice.ast import Netlist
from repro.spice.parser import parse_spice, parse_spice_file
from repro.spice.validate import repair_grid, validate_grid


@dataclass
class SimulationReport:
    """Everything a static IR-drop run produces.

    Attributes
    ----------
    grid:
        The analysed power grid (post-repair when repairs were needed).
    system:
        The reduced linear system that was solved.
    voltages:
        Per-grid-node voltage vector (pads at their pinned value).
    ir_drop:
        Per-grid-node drop ``vdd - v``.
    solve:
        Solver statistics for the run.
    supply_voltage:
        The single supply level of the deck.
    diagnostics:
        Validation issues, repairs and solver fallback history for the
        run (empty record when everything was nominal).
    """

    grid: PowerGrid
    system: ReducedSystem
    voltages: np.ndarray
    ir_drop: np.ndarray
    solve: SolveResult
    supply_voltage: float
    diagnostics: RunDiagnostics = field(default_factory=RunDiagnostics)

    def worst_drop(self) -> float:
        """Maximum IR drop over all nodes (the signoff quantity)."""
        return float(self.ir_drop.max()) if self.ir_drop.size else 0.0

    def drop_image(
        self, geometry: GridGeometry, layer: int = 1, reduce: str = "max"
    ) -> np.ndarray:
        """IR-drop image for one metal layer (bottom layer by default)."""
        return layer_values_image(
            geometry, self.grid, self.ir_drop, layer=layer, reduce=reduce
        )

    def layer_drop_images(self, geometry: GridGeometry) -> dict[int, np.ndarray]:
        """IR-drop image per metal layer present in the grid."""
        return {
            layer: self.drop_image(geometry, layer=layer)
            for layer in self.grid.layers_present()
        }


#: Named solver configurations.  ``"quality"`` is the signoff setting
#: (double pairwise aggregation + K-cycle); ``"fast"`` trades per-iteration
#: cost for convergence rate (single-pass aggregation + damped-Jacobi
#: V-cycle), which is the configuration the fusion framework and the Fig. 7
#: trade-off sweep use for their 1-10 rough iterations.
PRESETS: dict[str, tuple[AMGOptions, CycleOptions]] = {
    "quality": (AMGOptions(), CycleOptions()),
    "fast": (
        AMGOptions(passes_per_level=1),
        CycleOptions(
            cycle="v", presmooth_sweeps=1, postsmooth_sweeps=0, smoother="jacobi"
        ),
    ),
}


class PowerRushSimulator:
    """SPICE → PowerGrid → MNA → AMG-PCG, packaged as one object.

    Parameters
    ----------
    max_iterations:
        Outer PCG iteration cap; small values give the rough solutions
        consumed by the fusion framework.
    tol:
        Relative-residual tolerance (reached ⇒ "golden-quality" solve).
    preset:
        ``"quality"`` or ``"fast"`` (see :data:`PRESETS`); ignored when
        explicit ``amg_options``/``cycle_options`` are given.
    amg_options, cycle_options:
        Forwarded to the underlying solver, overriding the preset.
    robust:
        Validate/repair the grid before stamping and solve through the
        fallback cascade (default).  ``False`` restores strict mode: any
        problem raises immediately.
    guard_options:
        Watchdog thresholds for the guarded solve (robust mode only).
        This is also the hook the fault-injection harness uses.

    Iterations start from the flat guess ``v = vdd`` (zero drop), the
    natural operating-point estimate a production simulator uses.
    """

    def __init__(
        self,
        max_iterations: int = 1000,
        tol: float = 1e-10,
        preset: str = "quality",
        amg_options: AMGOptions | None = None,
        cycle_options: CycleOptions | None = None,
        robust: bool = True,
        guard_options: GuardrailOptions | None = None,
    ) -> None:
        if preset not in PRESETS:
            raise ValueError(
                f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
            )
        preset_amg, preset_cycle = PRESETS[preset]
        self.preset = preset
        self.robust = robust
        self.guard_options = guard_options or GuardrailOptions()
        self.options = SolverOptions(tol=tol, max_iterations=max_iterations)
        self.amg_options = amg_options or preset_amg
        self.cycle_options = cycle_options or preset_cycle
        self.solver = AMGPCGSolver(
            options=self.options,
            amg_options=self.amg_options,
            cycle_options=self.cycle_options,
        )

    # -- entry points --------------------------------------------------------

    def simulate_file(self, path) -> SimulationReport:
        """Simulate a SPICE deck stored on disk."""
        return self.simulate_netlist(parse_spice_file(path))

    def simulate_text(self, text: str) -> SimulationReport:
        """Simulate a SPICE deck held in a string."""
        return self.simulate_netlist(parse_spice(text))

    def simulate_netlist(self, netlist: Netlist) -> SimulationReport:
        """Simulate a parsed deck."""
        grid = PowerGrid.from_netlist(netlist)
        return self.simulate_grid(grid, supply_voltage=netlist.supply_voltage())

    def simulate_grid(
        self, grid: PowerGrid, supply_voltage: float | None = None
    ) -> SimulationReport:
        """Simulate an already-built :class:`PowerGrid`.

        When *supply_voltage* is omitted it is taken from the pads (which
        must then agree on a single level).
        """
        if supply_voltage is None:
            _, pad = grid.source_arrays()
            levels = set(pad[grid.pad_indices()].tolist())
            if len(levels) != 1:
                raise ValueError(
                    f"cannot infer a single supply voltage from pads: {levels}"
                )
            supply_voltage = levels.pop()

        diagnostics = RunDiagnostics()
        with span("validate", robust=self.robust):
            if self.robust:
                diagnostics.validation = validate_grid(grid)
                grid, diagnostics.repairs = repair_grid(grid, supply_voltage)
                system = build_reduced_system(grid, validate=False)
            else:
                system = build_reduced_system(grid)

        flat_guess = np.full(system.size, supply_voltage, dtype=float)
        cache_before = setup_cache_stats()
        if self.robust:
            cascade = FallbackCascade(
                options=self.options,
                amg_options=self.amg_options,
                cycle_options=self.cycle_options,
                guard_options=self.guard_options,
            )
            result, diagnostics.solver = cascade.solve(
                system.matrix, system.rhs, x0=flat_guess
            )
        else:
            result = self.solver.solve(system.matrix, system.rhs, x0=flat_guess)
        diagnostics.solver_cache = setup_cache_stats().delta(cache_before)

        voltages = system.scatter(result.x)
        ir_drop = supply_voltage - voltages
        return SimulationReport(
            grid=grid,
            system=system,
            voltages=voltages,
            ir_drop=ir_drop,
            solve=result,
            supply_voltage=supply_voltage,
            diagnostics=diagnostics,
        )
