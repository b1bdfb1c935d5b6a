"""Runs one workload: repeated set-up, references, a timed or traced run.

``BENCHMARK.json`` at the repository root is the one list of metric
names and units; this module reports exactly those (end-to-end metrics
untraced, per-layer metrics traced) and appends every result, with the
deck specs that regenerate its inputs, to ``perfbench/out/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

from perfbench import stats
from perfbench.workloads import REPO, WORKLOADS

OUT = Path(__file__).resolve().parent / "out"
SPEC = REPO / "BENCHMARK.json"
#: Set-ups per timed run; ``setup_s`` is their median.  Two, because every
#: run repeats its set-up and the batch set-up alone takes about 7 s.
SETUP_REPEATS = 2


def benchmark_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None if proc.returncode == 0 else None


def provenance(name: str, seed: int, specs) -> dict:
    """What a row needs to be regenerated and compared."""
    return {
        "workload": name,
        "seed": seed,
        "decks": [spec.to_dict() for spec in specs],
        "git_sha": git_sha(),
        "backend": os.environ.get("REPRO_BACKEND", "numpy"),
        "pool_mode": os.environ.get("REPRO_POOL_MODE", "auto"),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def warm_imports() -> None:
    """Import every surface the set-up touches, so repeated set-ups compare."""
    import repro.cli  # noqa: F401
    import repro.core.pipeline  # noqa: F401
    import repro.opt.pad_placement  # noqa: F401
    import repro.spice.parser  # noqa: F401


def append_jsonl(path: Path, rows) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  overrides: dict | None = None, setups: int = SETUP_REPEATS,
                  references=None) -> tuple[list[str], dict]:
    """Run *name* once; returns (printable lines, the result object).

    *overrides* shrink workload sizes (tests); *references* lets a test
    tamper with the reference answers before the run checks them.
    """
    workload = WORKLOADS[name](**(overrides or {}))
    spec = benchmark_spec()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT))
    warm_imports()
    state = None
    setup_times = []
    try:
        for k in range(1 if trace else setups):
            if state is not None:
                workload.teardown(state)
            start = time.perf_counter()
            state = workload.setup(seed, workdir / f"setup{k}")
            setup_times.append(time.perf_counter() - start)
        workload.references(state)
        if references is not None:
            references(state)
        if trace:
            metrics, result = workload.trace(state, seconds)
        else:
            result = workload.run(state, seconds)
        quality = workload.quality(state, result)
    finally:
        if state is not None:
            workload.teardown(state)
        shutil.rmtree(workdir, ignore_errors=True)

    specs = workload.specs(seed)
    lines = [
        f"workload {name}: " + next(w["why"] for w in spec["workloads"] if w["name"] == name),
        f"seed {seed}; decks {json.dumps([s.to_dict() for s in specs])}",
    ]
    row = provenance(name, seed, specs)
    if trace:
        recorder = result.extra.get("recorder")
        if recorder is not None:
            recorder.write(OUT / f"spans-{name}-{seed}.jsonl")
        reported = {}
        for entry in spec["per_layer"]:
            metric, unit = entry["name"], entry["unit"]
            if metric in metrics:
                value = float(metrics[metric])
                lines.append(f"{metric}: {value:.6g} {unit}")
            else:
                value = 0.0
                lines.append(f"{metric}: absent ({metric.split('.')[0]} layer not exercised "
                             f"by {name}); reported as 0")
            reported[metric] = {"value": value, "unit": unit}
        append_jsonl(OUT / "ledger.jsonl", [
            {**row, "metric": metric, **body} for metric, body in reported.items()
        ])
    else:
        values = {
            "setup_s": float(np.median(setup_times)),
            "decks_per_s": float(np.median(result.rates())),
            "latency_p50_ms": (stats.percentile(result.latencies, 50.0) * 1e3
                               if result.latencies else 0.0),
        }
        samples = {"setup_s": len(setup_times), "decks_per_s": len(result.rates()),
                   "latency_p50_ms": len(result.latencies)}
        reported = {}
        for entry in spec["end_to_end"]:
            metric, unit = entry["name"], entry["unit"]
            reported[metric] = {"value": values[metric], "unit": unit}
            lines.append(f"{metric}: {values[metric]:.6g} {unit} (n={samples[metric]})")
        lines.append(stats.describe("latency_ms", [x * 1e3 for x in result.latencies], "ms"))
        append_jsonl(OUT / "runs.jsonl", [{**row, "metrics": reported, "quality": quality}])
    lines.append(f"failed_ratio: {result.failed / max(result.attempted, 1):.6g} "
                 f"({result.failed} of {result.attempted} attempted)")
    for metric, value in quality.items():
        lines.append(f"{metric}: {value:.6g} mV (n={len(result.observed) or len(specs)} decks)")
    lines += [f"check failed: {note}" for note in result.notes]
    summary = {
        "correct": result.failed == 0 and result.verified > 0,
        "attempted": max(result.attempted, 1),
        "failed": result.failed,
        "metrics": reported,
    }
    return lines, summary

