"""The three workloads and the surfaces they drive.

Every workload is a closed loop from this one process with one client:
it sends its next deck only after the previous reply.

- ``batch_jobs2`` — a fresh ``repro analyze MODEL D1..Dn --jobs 2``
  process per batch of distinct decks (pool spawn, dispatch,
  shared-memory transport; content caches only miss).
- ``serve_repeat`` — POSTs of deck text, drawn by a seeded sequence from
  a small pool, to one warm ``python -m repro.serve`` daemon with
  default options (content repeats, so the AMG setup cache hits).
- ``eco_sweep`` — in-process ``greedy_pad_placement`` with
  the default incremental method over distinct designs (the only
  workload on ``solvers.incremental`` and the stamper's patch/revert).

Each workload's set-up (deck generation, golden direct solves, model
train + checkpoint, daemon start, ECO design generation) is what
``setup_s`` times.  Reference predictions are computed after set-up, in
process through :meth:`IRFusionPipeline.analyze_text`, and every surface
output is checked against them.  A timed run is a whole number of
windows, each one pass over the workload's decks, so every run sees the
same deck mix; ``decks_per_s`` is the median of the windows' rates.
"""

from __future__ import annotations

import http.client
import io
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.decks import DeckSpec, deck_specs, deck_text, direct_drops, golden_worst_drop
from perfbench.tracing import ROOT, SpanRecorder, analyze_targets, eco_targets, installed

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: The small model every analyze workload trains and checkpoints in
#: set-up (``repro train`` arguments).  Its seed is fixed, not the
#: workload seed, so runs with different seeds differ in their decks
#: only.
TRAIN_ARGS = ("--pixels", "16", "--fake", "2", "--real", "1", "--epochs", "1",
              "--channels", "4", "--seed", "7")

#: Tolerances of the output checks.
SERVE_TOL_V = 1e-9
ECO_TOL_V = 1e-6
#: Unreachable ECO budget, so every sweep commits its full pad budget.
ECO_BUDGET_V = 1e-9

#: Layers reported with their children included.
INCLUSIVE = ("features.total", "inference.predict")

CHILD_TIMEOUT_S = 150.0
WORST_LINE = re.compile(r"^(\S+): worst_predicted_drop_mV=(\S+)", re.M)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def repro_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def now() -> float:
    return time.perf_counter()


@dataclass
class Deck:
    """A generated deck, its golden answer and the in-process reference."""

    spec: DeckSpec
    text: str
    path: Path
    golden: float
    ref_map: np.ndarray | None = None

    @property
    def ref_worst(self) -> float:
        return float(self.ref_map.max())

    @property
    def ref_mean(self) -> float:
        return float(self.ref_map.mean())


@dataclass
class RunResult:
    """What one timed run observed."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    verified: int = 0
    #: ``(verified so far, time)`` at the start of the run and at the end
    #: of every window.
    marks: list = field(default_factory=list)
    #: deck index → the surface's worst drop (volts), first observation.
    observed: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)

    def mark(self) -> None:
        """Start the run, or end a window."""
        self.marks.append((self.verified, now()))

    def rates(self) -> list[float]:
        """Verified decks per second of each window."""
        return [(v1 - v0) / (t1 - t0) for (v0, t0), (v1, t1) in zip(self.marks, self.marks[1:])]


# ---------------------------------------------------------------------------
# Shared set-up pieces
# ---------------------------------------------------------------------------


def train_model(model_dir: Path) -> Path:
    """``repro train`` in process; returns the checkpoint path."""
    from repro.cli import main as repro_main

    model_dir.mkdir(parents=True, exist_ok=True)
    path = model_dir / "bench.npz"
    with redirect_stdout(io.StringIO()):
        status = repro_main(["train", str(path), *TRAIN_ARGS])
    if status != 0:
        raise RuntimeError(f"repro train exited {status}")
    return path


def make_decks(specs: list[DeckSpec], deck_dir: Path) -> list[Deck]:
    deck_dir.mkdir(parents=True, exist_ok=True)
    decks = []
    for i, spec in enumerate(specs):
        design = spec.design()
        text = deck_text(design)
        path = deck_dir / f"{i:02d}_{spec.name}.sp"
        path.write_text(text, encoding="utf-8")
        decks.append(Deck(spec, text, path, golden_worst_drop(design)))
    return decks


def load_pipeline(model_path: Path):
    from repro.core.pipeline import IRFusionPipeline

    return IRFusionPipeline.from_model_file(model_path)


def timed_subprocess(cmd: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    start = now()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          timeout=CHILD_TIMEOUT_S, cwd=REPO)
    return proc, now() - start


def tail(text: str, lines: int = 3) -> str:
    return " | ".join(text.strip().splitlines()[-lines:])


def median_ms(values) -> float:
    return float(np.median(values)) * 1e3 if len(values) else 0.0


def import_seconds(samples: int = 3) -> float:
    """Median wall of a fresh ``import repro.core.pipeline`` process."""
    walls = []
    for _ in range(samples):
        proc, wall = timed_subprocess([sys.executable, "-c", "import repro.core.pipeline"])
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {tail(proc.stderr)}")
        walls.append(wall)
    return float(np.median(walls))


def model_load_ms(model_path: Path, samples: int = 5) -> float:
    walls = []
    for _ in range(samples):
        start = now()
        load_pipeline(model_path)
        walls.append(now() - start)
    return median_ms(walls)


@dataclass
class Replay:
    """What :func:`replay` measured."""

    walls: dict = field(default_factory=lambda: {False: 0.0, True: 0.0})
    mismatches: int = 0
    #: request id → ``pcg.iterations`` counter delta of its traced run.
    iterations: dict = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0


def replay(pipeline, decks: list[Deck], order: list[int], fresh_cache: bool,
           recorder: SpanRecorder) -> Replay:
    """Analyze every deck of *order* in process twice: plain, and traced.

    Which of the two goes first alternates per deck, so a drift in machine
    speed cancels out of ``traced ÷ plain``.  *fresh_cache* clears the AMG
    setup cache before every run, as a fresh process starts; otherwise the
    cache stays as warm as a long-running daemon's.  Every run's map is
    compared bitwise with the deck's ``analyze_text`` reference.
    """
    from repro.obs import counters_delta, metrics_snapshot
    from repro.solvers.cache import clear_setup_cache, setup_cache_stats

    out = Replay()
    targets = analyze_targets(pipeline)
    for k, index in enumerate(order):
        deck = decks[index]
        for traced in (False, True) if k % 2 == 0 else (True, False):
            if fresh_cache:
                clear_setup_cache()
            before, cache = metrics_snapshot(), setup_cache_stats()
            with installed(recorder, targets) if traced else nullcontext():
                start = now()
                with recorder.request(k) if traced else nullcontext():
                    result = pipeline.analyze_text(deck.text)
                out.walls[traced] += now() - start
            if traced:
                out.iterations[k] = counters_delta(before)["counters"].get("pcg.iterations", 0.0)
                cache = setup_cache_stats().delta(cache)
                out.cache_hits += cache.hits
                out.cache_misses += cache.misses
            out.mismatches += not np.array_equal(result.predicted_drop, deck.ref_map)
    return out


def layer_metrics(recorder: SpanRecorder) -> tuple[dict, float]:
    """``({<layer>_ms: median ms per request}, coverage)``.

    Each layer reports its self time, except the :data:`INCLUSIVE`
    entry points, whose names promise the whole call.
    """
    selfs = recorder.self_times()
    inclusive = recorder.inclusive_times()
    requests = [r for r in selfs if r is not None]
    layers = sorted({layer for r in requests for layer in selfs[r]} - {ROOT})
    metrics = {
        f"{layer}_ms": median_ms([
            (inclusive if layer in INCLUSIVE else selfs)[r].get(layer, 0.0) for r in requests
        ])
        for layer in layers
    }
    root_total = sum(inclusive[r][ROOT] for r in requests)
    root_self = sum(selfs[r][ROOT] for r in requests)
    return metrics, 1.0 - root_self / root_total


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """One benchmark workload: set-up, a timed run and a traced run."""

    name = ""
    #: Input sizes; tests shrink them.
    params: dict = {}

    def __init__(self, **overrides) -> None:
        self.params = {**type(self).params, **overrides}

    def specs(self, seed: int) -> list[DeckSpec]:
        p = self.params
        return deck_specs(seed, p["decks"], p["generators"], pixels=p["pixels"])

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def teardown(self, state) -> None:
        """Stop whatever set-up started."""

    def references(self, state) -> None:
        state.pipeline = load_pipeline(state.model)
        for deck in state.decks:
            deck.ref_map = state.pipeline.analyze_text(deck.text).predicted_drop

    def run(self, state, seconds: float) -> RunResult:
        raise NotImplementedError

    def trace(self, state, seconds: float) -> tuple[dict, RunResult]:
        raise NotImplementedError

    def quality(self, state, result: RunResult) -> dict:
        """Deterministic accuracy figure: mean |surface worst − golden| (mV)."""
        errors = [abs(worst - state.decks[i].golden) for i, worst in result.observed.items()]
        return {"worst_drop_err_mv": float(np.mean(errors)) * 1e3 if errors else 0.0}

    #: Replays clear the AMG setup cache before every run (a fresh process).
    fresh_cache = True

    def replay_order(self, state) -> list[int]:
        return list(range(len(state.decks)))

    def traced_replay(self, state) -> tuple[dict, RunResult]:
        """Plain and traced in-process replay of the workload's decks."""
        result = RunResult()
        order = self.replay_order(state)
        recorder = SpanRecorder()
        measured = replay(state.pipeline, state.decks, order, self.fresh_cache, recorder)
        result.attempted = 2 * len(order)
        if measured.mismatches:
            result.fail(f"replay differs bitwise from analyze_text on {measured.mismatches} "
                        "run(s)", measured.mismatches)
        result.verified = result.attempted - result.failed
        metrics, coverage = layer_metrics(recorder)
        lookups = measured.cache_hits + measured.cache_misses
        metrics.update({
            "solvers.pcg_iterations": float(np.median(list(measured.iterations.values()))),
            "solvers.setup_cache_hit_ratio": measured.cache_hits / lookups if lookups else 0.0,
            "trace.coverage": coverage,
            "trace.overhead_ratio": measured.walls[True] / measured.walls[False],
            "startup.model_load_ms": model_load_ms(state.model),
        })
        # The replay matched analyze_text bitwise, so its answers are the references.
        result.observed = {i: deck.ref_worst for i, deck in enumerate(state.decks)}
        metrics["inference.worst_drop_err_mv"] = self.quality(state, result)["worst_drop_err_mv"]
        result.extra["recorder"] = recorder
        return metrics, result


@dataclass
class AnalyzeState:
    model: Path
    decks: list[Deck]
    workdir: Path
    pipeline: object = None
    daemon: object = None
    sequence: list = field(default_factory=list)


class AnalyzeWorkload(Workload):
    """Set-up shared by the workloads that run the analyze pipeline."""

    def setup(self, seed, workdir):
        model = train_model(workdir / "models")
        return AnalyzeState(model, make_decks(self.specs(seed), workdir / "decks"), workdir)


class BatchJobs2(AnalyzeWorkload):
    name = "batch_jobs2"
    #: At least 3 batches per run: one ~9 s batch is too coarse a sample.
    params = {"decks": 12, "pixels": 96, "generators": ("fake", "real"), "jobs": 2,
              "min_batches": 3}

    def batch(self, state, jobs: int, *extra: str):
        paths = [str(deck.path) for deck in state.decks]
        return timed_subprocess(repro_cmd("analyze", str(state.model), *paths,
                                          "--jobs", str(jobs), *extra))

    def check_batch(self, state, proc, result: RunResult) -> None:
        by_path = {str(deck.path): i for i, deck in enumerate(state.decks)}
        seen = {}
        for name, value in WORST_LINE.findall(proc.stdout):
            if name in by_path:
                seen[by_path[name]] = value
        result.attempted += len(state.decks)
        for index, deck in enumerate(state.decks):
            expected = f"{deck.ref_worst * 1e3:.4f}"
            value = seen.get(index)
            if value is None:
                result.fail(f"{deck.spec.name}: no result (exit {proc.returncode}: "
                            f"{tail(proc.stderr)})")
            elif value != expected:
                result.fail(f"{deck.spec.name}: printed {value} mV, reference {expected}")
            else:
                result.verified += 1
                result.observed.setdefault(index, float(value) / 1e3)

    def run(self, state, seconds):
        """One window per batch process."""
        result = RunResult()
        result.mark()
        start = now()
        batches = 0
        while batches < self.params["min_batches"] or now() - start < seconds:
            batches += 1
            proc, wall = self.batch(state, self.params["jobs"])
            failed = result.failed
            self.check_batch(state, proc, result)
            result.mark()
            if result.failed == failed:
                result.latencies.append(wall)
        return result

    def trace(self, state, seconds):
        metrics, result = self.traced_replay(state)
        counters = {}
        walls = {}
        for jobs in (1, self.params["jobs"]):
            trace_path = state.workdir / f"batch-jobs{jobs}.trace.jsonl"
            proc, walls[jobs] = self.batch(state, jobs, "--trace", str(trace_path))
            self.check_batch(state, proc, result)
            if jobs > 1:
                counters = _trace_counters(trace_path)
        result.verified = result.attempted - result.failed
        transport = counters.get("transport.pickled_bytes", 0) + counters.get("shm.bytes_shared", 0)
        metrics.update({
            "pool.speedup_vs_serial": walls[1] / walls[self.params["jobs"]],
            "pool.transport_bytes_per_item": transport / len(state.decks),
            "pool.first_map_s": first_map_seconds(),
            "startup.import_s": import_seconds(),
        })
        return metrics, result


def _trace_counters(path: Path) -> dict:
    counters = {}
    if not path.exists():
        return counters
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("kind") == "metrics":
            counters = record.get("counters", {})
    return counters


FIRST_MAP_PROBE = (
    "import time\n"
    "from repro.core.batch import parallel_map_ex\n"
    "start = time.perf_counter()\n"
    "outcomes, _ = parallel_map_ex(abs, [-1, -2], 2, mode='spawn')\n"
    "elapsed = time.perf_counter() - start\n"
    "assert [o.result for o in outcomes] == [1, 2]\n"
    "print(elapsed)\n"
)


def first_map_seconds() -> float:
    """The first spawn ``parallel_map_ex`` of a fresh process, on a trivial task."""
    proc, _ = timed_subprocess([sys.executable, "-c", FIRST_MAP_PROBE])
    if proc.returncode != 0:
        raise RuntimeError(f"first-map probe failed: {tail(proc.stderr)}")
    return float(proc.stdout.strip().splitlines()[-1])


# -- serve -------------------------------------------------------------------


class Daemon:
    """A ``python -m repro.serve`` child process on a free local port."""

    def __init__(self, model_dir: Path, log_path: Path) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        self.log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--model-dir", str(model_dir),
             "--port", str(self.port)],
            stdout=self.log, stderr=subprocess.STDOUT, env=child_env(), cwd=REPO,
        )

    def wait_healthy(self, timeout: float = 90.0) -> None:
        deadline = now() + timeout
        while now() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro.serve exited {self.proc.returncode} during start-up")
            try:
                status, body = self.request("GET", "/healthz", timeout=2.0)
                if status == 200 and body.get("status") == "ok":
                    return
            except OSError:
                pass
            time.sleep(0.02)
        raise RuntimeError("repro.serve did not become healthy")

    def connection(self, timeout: float = CHILD_TIMEOUT_S) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)

    def request(self, method, path, body: bytes | None = None, conn=None,
                timeout=CHILD_TIMEOUT_S):
        own = conn is None
        conn = conn or self.connection(timeout)
        try:
            conn.request(method, path, body, {"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            if own:
                conn.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if the drain hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.log.close()


class ServeRepeat(AnalyzeWorkload):
    name = "serve_repeat"
    params = {"decks": 4, "pixels": 64, "generators": ("fake", "real"),
              "min_requests": 100, "replay_requests": 8}
    fresh_cache = False  # the daemon's cache is warm after each deck's first request

    def setup(self, seed, workdir):
        state = super().setup(seed, workdir)
        state.daemon = Daemon(state.model.parent, workdir / "serve.log")
        try:
            state.daemon.wait_healthy()
        except BaseException:
            state.daemon.stop()
            raise
        # Seeded order, equal shares: shuffled rounds over the pool, so the
        # deck mix (and the per-request cost) is the same for every seed.
        rng = np.random.default_rng([seed, 1])
        state.sequence = [int(i) for _ in range(1024) for i in rng.permutation(len(state.decks))]
        return state

    def teardown(self, state):
        if state.daemon is not None:
            state.daemon.stop()
            state.daemon = None

    def run(self, state, seconds):
        """One window per round of the sequence (each deck once)."""
        result = RunResult(extra={"queued": [], "run": [], "http": [], "refused": 0,
                                  "cache_hits": 0, "cache_misses": 0})
        # Encoded once: a 64 px deck is ~0.7 MB of JSON.
        bodies = [json.dumps({"netlist": deck.text}).encode() for deck in state.decks]
        rounds = len(state.decks)
        conn = state.daemon.connection()
        result.mark()
        start = now()
        try:
            while (result.attempted % rounds or result.attempted < self.params["min_requests"]
                   or now() - start < seconds):
                index = state.sequence[result.attempted % len(state.sequence)]
                deck = state.decks[index]
                result.attempted += 1
                sent = now()
                try:
                    status, body = state.daemon.request(
                        "POST", "/analyze", bodies[index], conn=conn)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    conn.close()
                    conn = state.daemon.connection()
                    result.fail(f"{deck.spec.name}: {type(exc).__name__}: {exc}")
                else:
                    self.check_reply(deck, index, status, body, now() - sent, result)
                if result.attempted % rounds == 0:
                    result.mark()
        finally:
            conn.close()
        return result

    def check_reply(self, deck, index, status, body, latency, result: RunResult) -> None:
        if status == 429:
            result.extra["refused"] += 1
            result.fail(f"{deck.spec.name}: refused (429)")
            return
        if status != 200 or body.get("state") != "done":
            result.fail(f"{deck.spec.name}: HTTP {status}: {body.get('error')}")
            return
        try:
            reply = body["result"]
            worst = reply["worst_predicted_drop_volts"]
            mean = reply["mean_predicted_drop_volts"]
            queued, ran = body["queued_seconds"], body["run_seconds"]
            cache = reply["amg_setup_cache"]
        except (KeyError, TypeError) as exc:
            result.fail(f"{deck.spec.name}: malformed reply: missing {exc}")
            return
        if abs(worst - deck.ref_worst) > SERVE_TOL_V or abs(mean - deck.ref_mean) > SERVE_TOL_V:
            result.fail(f"{deck.spec.name}: served worst {worst!r} / mean {mean!r} V, reference "
                        f"{deck.ref_worst!r} / {deck.ref_mean!r}")
            return
        result.verified += 1
        result.latencies.append(latency)
        result.observed.setdefault(index, worst)
        result.extra["queued"].append(queued)
        result.extra["run"].append(ran)
        result.extra["http"].append(latency - queued - ran)
        result.extra["cache_hits"] += cache["hits"]
        result.extra["cache_misses"] += cache["misses"]

    def replay_order(self, state):
        return state.sequence[: self.params["replay_requests"]]

    def trace(self, state, seconds):
        served = self.run(state, seconds)
        metrics, result = self.traced_replay(state)
        result.attempted += served.attempted
        result.failed += served.failed
        result.verified += served.verified
        result.notes += served.notes
        extra = served.extra
        metrics.update({
            "serve.queue_wait_ms": median_ms(extra["queued"]),
            "serve.run_ms": median_ms(extra["run"]),
            "serve.http_ms": median_ms(extra["http"]),
            "serve.refused_ratio": extra["refused"] / served.attempted,
            # The daemon's own cache, not the replay's (which starts warm).
            "solvers.setup_cache_hit_ratio": extra["cache_hits"] / max(
                extra["cache_hits"] + extra["cache_misses"], 1),
            "startup.import_s": import_seconds(),
        })
        return metrics, result


# -- ECO ----------------------------------------------------------------------


@dataclass
class EcoState:
    designs: list
    specs: list[DeckSpec]


class EcoSweep(Workload):
    name = "eco_sweep"
    #: 16 designs: sweep cost varies ~20% between real designs, so fewer
    #: would let the seed's draw of designs move the run's median.
    params = {"decks": 16, "pixels": 64, "generators": ("real",), "pads": 4, "candidates": 24}

    def setup(self, seed, workdir):
        from repro.spice.parser import parse_spice

        specs = self.specs(seed)
        designs = []
        for spec in specs:
            netlist = parse_spice(deck_text(spec.design()))
            designs.append((netlist, netlist.supply_voltage()))
        return EcoState(designs, specs)

    def references(self, state):
        """ECO outputs are checked against an independent solve, not a reference run."""

    def sweep(self, state, index):
        from repro.opt.pad_placement import greedy_pad_placement

        netlist, _ = state.designs[index]
        return greedy_pad_placement(netlist, ECO_BUDGET_V, max_new_pads=self.params["pads"],
                                    max_candidates=self.params["candidates"])

    def run(self, state, seconds):
        """One window per pass over the designs."""
        result = RunResult(extra={"sweeps": {}})
        designs = len(state.designs)
        result.mark()
        start = now()
        while result.attempted == 0 or result.attempted % designs or now() - start < seconds:
            index = result.attempted % designs
            sweep_start = now()
            outcome = self.sweep(state, index)
            wall = now() - sweep_start
            result.attempted += 1
            first = result.extra["sweeps"].setdefault(index, outcome)
            if (outcome.added_pads != first.added_pads
                    or outcome.worst_drop_history != first.worst_drop_history):
                result.fail(f"{state.specs[index].name}: sweep not repeatable")
            else:
                result.verified += 1
                result.latencies.append(wall)
            if result.attempted % designs == 0:
                result.mark()
        self.check(state, result)
        return result

    def check(self, state, result: RunResult) -> None:
        """Final worst drop within ECO_TOL_V of a restamp + spsolve of the final netlist."""
        from repro.grid.netlist import PowerGrid

        for index, outcome in result.extra["sweeps"].items():
            _, supply = state.designs[index]
            grid = PowerGrid.from_netlist(outcome.final_netlist)
            truth = float(direct_drops(grid, supply).max())
            if abs(outcome.worst_drop_history[-1] - truth) > ECO_TOL_V:
                result.fail(f"{state.specs[index].name}: final worst drop "
                            f"{outcome.worst_drop_history[-1]!r} V, spsolve {truth!r} V")

    def quality(self, state, result):
        improvements = [o.improvement for o in result.extra["sweeps"].values()]
        return {"eco_improvement_mv": float(np.mean(improvements)) * 1e3 if improvements else 0.0}

    def trace(self, state, seconds):
        designs = range(len(state.designs))
        for index in designs:  # warm-up, as the timed run is after its first cycle
            self.sweep(state, index)
        recorder = SpanRecorder()
        targets = eco_targets()
        walls = {False: 0.0, True: 0.0}
        result = RunResult(extra={"sweeps": {}}, attempted=len(designs))
        for index in designs:
            outcome = {}
            # Alternate which sweep goes first, as the analyze replay does.
            for traced in (False, True) if index % 2 == 0 else (True, False):
                with installed(recorder, targets) if traced else nullcontext():
                    start = now()
                    with recorder.request(index) if traced else nullcontext():
                        outcome[traced] = self.sweep(state, index)
                    walls[traced] += now() - start
            result.extra["sweeps"][index] = outcome[True]
            if outcome[True].worst_drop_history != outcome[False].worst_drop_history:
                result.fail(f"{state.specs[index].name}: traced sweep differs from untraced")
        result.verified = result.attempted - result.failed
        self.check(state, result)
        metrics, coverage = layer_metrics(recorder)
        previews = recorder.call_durations("eco.preview")
        commits = [end - start for name, start, end, parent, _ in recorder.spans
                   if name == "eco.apply" and recorder.spans[parent][0] != "eco.preview"]
        metrics.update({
            "eco.base_build_ms": median_ms(recorder.call_durations("eco.base_build")),
            "eco.preview_ms": median_ms(previews),
            "eco.apply_ms": median_ms(commits),
            "eco.previews": len(previews) / len(state.designs),
            "eco.improvement_mv": self.quality(state, result)["eco_improvement_mv"],
            "trace.coverage": coverage,
            "trace.overhead_ratio": walls[True] / walls[False],
            "startup.import_s": import_seconds(),
        })
        result.extra["recorder"] = recorder
        return metrics, result


WORKLOADS = {cls.name: cls for cls in (BatchJobs2, ServeRepeat, EcoSweep)}
