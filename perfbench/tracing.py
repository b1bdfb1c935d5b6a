"""Benchmark-side span recorder for the traced run.

The program's own spans are not used: the recorder wraps named public
functions at the sites the pipeline calls them through, keeps every span
in memory (name, start, end, parent, request id) and derives each
layer's self time as the span's duration minus its direct children's.
Wrappers exist only inside :func:`installed`; untimed runs never enter
it.  The recorder is single-threaded: the traced replays run on one
thread.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

#: Top-level child attributes of the IR-Fusion U-Net, each reported as one
#: ``inference.<attr>_ms`` block (Inception encoders, pools, bottleneck,
#: up-samplers, attention gates, decoders, CBAM posts, head).
MODEL_BLOCKS = ("encoders", "pools", "bottleneck", "ups", "gates", "decoders", "posts", "head")

#: The feature maps ``assemble_feature_stack`` calls through
#: :mod:`repro.features.fusion`.
FEATURE_MAPS = (
    "numerical_layer_maps",
    "layer_current_maps",
    "effective_distance_map",
    "pdn_density_map",
    "resistance_map",
    "shortest_path_resistance_map",
)

ROOT = "request"


class SpanRecorder:
    """In-memory spans: ``[name, start, end, parent index, request id]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self._request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    @contextmanager
    def request(self, request_id):
        """Root span for one unit of end-to-end work (a deck, a sweep)."""
        self._request = request_id
        record = self._open(ROOT)
        try:
            yield
        finally:
            self._close(record)
            self._request = None

    def self_times(self) -> dict:
        """``{request id: {layer: self seconds}}`` over all closed spans."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, _, request) in enumerate(self.spans):
            out[request][name] += (end - start) - child_time[index]
        return out

    def inclusive_times(self) -> dict:
        """``{request id: {layer: inclusive seconds}}`` over all closed spans."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for name, start, end, _, request in self.spans:
            out[request][name] += end - start
        return out

    def call_durations(self, name: str) -> list[float]:
        """Inclusive duration of every span called *name*."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


def _install(owner, attr: str, wrap) -> callable:
    """Swap ``owner.attr`` for a wrapped version; returns the undo."""
    own = vars(owner)
    had = attr in own
    raw = own[attr] if had else getattr(owner, attr)
    if isinstance(raw, classmethod):
        replacement = classmethod(wrap(raw.__func__))
    elif isinstance(raw, staticmethod):
        replacement = staticmethod(wrap(raw.__func__))
    else:
        replacement = wrap(raw)
    setattr(owner, attr, replacement)
    if had:
        return lambda: setattr(owner, attr, raw)
    return lambda: delattr(owner, attr)


@contextmanager
def installed(recorder: SpanRecorder, targets):
    """Wrap every ``(owner, attribute, layer)`` target for the block."""
    undo = []
    try:
        for owner, attr, layer in targets:
            undo.append(_install(owner, attr, functools.partial(recorder.wrap, layer)))
        yield recorder
    finally:
        for restore in reversed(undo):
            restore()


def analyze_targets(pipeline) -> list:
    """The analyze path's layers, at the import sites the pipeline uses."""
    import repro.core.pipeline as pipeline_mod
    import repro.features.fusion as fusion
    import repro.solvers.powerrush as powerrush
    from repro.grid.netlist import PowerGrid
    from repro.solvers.amg_pcg import AMGPCGSolver
    from repro.solvers.guard import FallbackCascade
    from repro.train.trainer import Trainer

    targets = [
        (pipeline_mod, "parse_spice", "spice.parse"),
        (powerrush, "validate_grid", "spice.validate"),
        (powerrush, "repair_grid", "spice.validate"),
        (PowerGrid, "from_netlist", "grid.build"),
        (pipeline_mod, "infer_geometry", "grid.build"),
        (powerrush, "build_reduced_system", "mna.stamp"),
        (FallbackCascade, "solve", "solvers.solve"),
        (AMGPCGSolver, "setup", "solvers.amg_setup"),
        (pipeline_mod, "assemble_feature_stack", "features.total"),
        (Trainer, "predict", "inference.predict"),
    ]
    targets += [(fusion, name, f"features.{name}") for name in FEATURE_MAPS]
    model = pipeline.model
    for attr in MODEL_BLOCKS:
        value = getattr(model, attr, None)
        blocks = value if isinstance(value, (list, tuple)) else [value]
        targets += [(block, "forward", f"inference.{attr}") for block in blocks if block is not None]
    return targets


def eco_targets() -> list:
    """The ECO sweep's layers: engine build, previews, commits, solves."""
    import repro.opt.pad_placement as pad_placement
    import repro.solvers.incremental as incremental
    from repro.grid.netlist import PowerGrid

    engine = incremental.IncrementalEngine
    return [
        (PowerGrid, "from_netlist", "grid.build"),
        (incremental, "build_reduced_system", "mna.stamp"),
        (engine, "__init__", "eco.base_build"),
        (engine, "preview", "eco.preview"),
        (engine, "apply", "eco.apply"),
        (engine, "solve", "eco.solve"),
        (pad_placement, "_top_layer_candidates", "eco.candidates"),
    ]
