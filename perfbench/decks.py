"""Seeded deck generator: ``(generator, params, seed) → SPICE deck text``.

Follows the generator-dataset model: a deck is never stored as a file
of record, only as the :class:`DeckSpec` that produced it, so every
benchmark row that lists its specs regenerates its inputs exactly.  The
generators are the :mod:`repro.data.synthetic` design families and the
text comes from :mod:`repro.spice.writer`, whose output the parser
round-trips exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from repro.data.synthetic import Design, generate_design, make_fake_spec, make_real_spec
from repro.mna.stamper import build_reduced_system
from repro.spice.writer import netlist_to_string

#: Generator name → :mod:`repro.data.synthetic` spec factory.
GENERATORS = {"fake": make_fake_spec, "real": make_real_spec}


@dataclass(frozen=True)
class DeckSpec:
    """Everything needed to regenerate one deck."""

    generator: str
    seed: int
    params: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.generator}_{self.params.get('pixels', 'd')}px_s{self.seed}"

    def to_dict(self) -> dict:
        return {"generator": self.generator, "params": dict(self.params), "seed": self.seed}

    def design(self) -> Design:
        factory = GENERATORS[self.generator]
        return generate_design(factory(self.name, seed=self.seed, **self.params))


def deck_specs(seed: int, count: int, generators: tuple[str, ...], **params) -> list[DeckSpec]:
    """*count* distinct specs cycling through *generators*.

    Per-deck seeds are drawn without replacement from the workload seed,
    so decks within one run never repeat and the same seed always gives
    the same decks.
    """
    rng = np.random.default_rng(seed)
    seeds = rng.choice(2**31 - 1, size=count, replace=False)
    return [
        DeckSpec(generators[i % len(generators)], int(s), dict(params))
        for i, s in enumerate(seeds)
    ]


def deck_text(design: Design) -> str:
    """The design's SPICE deck, exactly as a user would hand it over."""
    return netlist_to_string(design.netlist)


def direct_drops(grid, supply_voltage: float) -> np.ndarray:
    """Per-node IR drop from a restamp and a sparse direct solve."""
    system = build_reduced_system(grid)
    x = spla.spsolve(system.matrix.tocsc(), system.rhs)
    return supply_voltage - system.scatter(x)


def golden_worst_drop(design: Design) -> float:
    """Worst bottom-layer drop (volts) from a converged direct solve.

    Loads sit on the bottom layer, which is the layer the predicted map
    images, so this is the value a surface's worst predicted drop is
    compared against.
    """
    drops = direct_drops(design.grid, design.spec.supply_voltage)
    bottom = [node.index for node in design.grid.nodes_on_layer(1)]
    return float(drops[bottom].max())
