"""The benchmark's own tests: tiny-size smoke of every workload, output
checks that must trip on a wrong reference, and the traced replay's
bitwise agreement with ``IRFusionPipeline.analyze_text``.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import stats
from perfbench.harness import benchmark_spec, run_benchmark
from perfbench.tracing import SpanRecorder
from perfbench.workloads import REPO, BatchJobs2, replay

TINY = {
    "batch_jobs2": {"decks": 3, "pixels": 16, "min_batches": 1},
    "serve_repeat": {"decks": 2, "pixels": 16, "min_requests": 4, "replay_requests": 3},
    "eco_sweep": {"decks": 2, "pixels": 16, "candidates": 4, "pads": 2},
}
SPEC = benchmark_spec()


def names(section: str) -> set[str]:
    return {entry["name"] for entry in SPEC[section]}


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
def test_tiny_workload_passes_its_checks(workload, trace):
    lines, summary = run_benchmark(workload, 3, 0.1, trace, overrides=TINY[workload], setups=2)
    assert summary["correct"], lines
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    assert set(summary["metrics"]) == names("per_layer" if trace else "end_to_end")
    if trace:
        assert 0.0 < summary["metrics"]["trace.coverage"]["value"] <= 1.0
    else:
        assert all(body["value"] > 0 for body in summary["metrics"].values())


def _shift_first_reference(state) -> None:
    state.decks[0].ref_map = state.decks[0].ref_map + 1e-3


def _shift_eco_supply(state) -> None:
    netlist, supply = state.designs[0]
    state.designs[0] = (netlist, supply + 1e-3)


@pytest.mark.parametrize("workload,tamper", [
    ("batch_jobs2", _shift_first_reference),
    ("serve_repeat", _shift_first_reference),
    ("eco_sweep", _shift_eco_supply),
])
def test_wrong_reference_trips_the_output_check(workload, tamper):
    overrides = dict(TINY[workload])
    if workload == "serve_repeat":
        overrides["min_requests"] = 8  # the seeded sequence reaches deck 0
    lines, summary = run_benchmark(workload, 3, 0.1, False, overrides=overrides, setups=1,
                                   references=tamper)
    assert not summary["correct"]
    assert summary["failed"] >= 1
    assert any(line.startswith("check failed:") for line in lines)


def test_traced_replay_is_bitwise_equal_to_analyze_text(tmp_path):
    workload = BatchJobs2(**TINY["batch_jobs2"])
    state = workload.setup(5, tmp_path)
    workload.references(state)
    pipeline = state.pipeline
    untouched = type(pipeline).analyze_text, pipeline.model.head.forward
    recorder = SpanRecorder()
    measured = replay(pipeline, state.decks, list(range(len(state.decks))), True, recorder)
    assert measured.mismatches == 0
    for deck in state.decks:
        assert np.array_equal(pipeline.analyze_text(deck.text).predicted_drop, deck.ref_map)
    assert (type(pipeline).analyze_text, pipeline.model.head.forward) == untouched
    layers = {name for name, *_ in recorder.spans}
    assert {"spice.parse", "grid.build", "mna.stamp", "solvers.solve",
            "features.total", "inference.predict", "inference.head"} <= layers


def test_percentiles_report_only_supported_tails():
    assert stats.highest_tail(list(range(99))) is None
    assert stats.highest_tail(list(range(100))) == (90.0, 89.0)
    assert stats.highest_tail(list(range(1000)))[0] == 99.0
    assert stats.percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    assert "p90" not in stats.describe("x", [1.0] * 50, "ms")
    assert stats.describe("x", [1.0] * 100, "ms").endswith("(n=100)")


def test_fails_without_program_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eco_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
