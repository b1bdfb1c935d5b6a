"""Cold start: import sets, BLAS threads in pool workers, the startup span.

Every check runs in a fresh interpreter, since the test process has long
since imported everything.  They assert module sets and bits, never
timings, so a busy host cannot flake them.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.core.worker_entry import THREAD_VARS, blas_threads

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Modules the analyze path and the pool-worker bootstrap must not load.
HEAVY = (
    "networkx",
    "scipy.ndimage",
    "scipy.special",
    "repro.core.experiment",
    "repro.eval",
    "repro.solvers.incremental",
    "repro.solvers.schwarz",
    "repro.solvers.random_walk",
    "repro.solvers.macromodel",
    "repro.solvers.vectored",
)


def _env(**overrides) -> dict:
    # Strip the BLAS thread variables and the pool-mode/chaos knobs so
    # each child sees spawn workers and only the settings a test passes.
    dropped = (*THREAD_VARS, "REPRO_POOL_MODE", "REPRO_CHAOS")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env["PYTHONPATH"] = os.fspath(SRC)
    env.update(overrides)
    return env


def _run(args: list[str], env: dict | None = None) -> str:
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env or _env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _heavy(modules) -> list[str]:
    return sorted(
        m for m in modules
        if any(m == h or m.startswith(h + ".") for h in HEAVY)
    )


# -- import sets ---------------------------------------------------------------

WORKER_PROBE = """\
import json
import os
import sys


def probe(_):
    return {
        "modules": sorted(sys.modules),
        "threads": {k: os.environ.get(k) for k in %r},
    }


if __name__ == "__main__":
    from repro.core.batch import parallel_map_ex

    outcomes, degraded = parallel_map_ex(probe, [0, 1], 2, mode="spawn")
    assert not degraded and all(o.ok for o in outcomes), outcomes
    print(json.dumps({
        "worker": outcomes[0].result,
        "parent_threads": {k: os.environ.get(k) for k in %r},
    }))
""" % (THREAD_VARS, THREAD_VARS)


@pytest.fixture(scope="module")
def worker_probe(tmp_path_factory):
    script = tmp_path_factory.mktemp("probe") / "probe.py"
    script.write_text(WORKER_PROBE)
    return script


def _probe(script, **env) -> dict:
    return json.loads(_run([os.fspath(script)], env=_env(**env)).splitlines()[-1])


def test_pipeline_import_loads_no_heavy_module():
    modules = json.loads(_run(["-c", (
        "import json, sys; import repro.core.pipeline; "
        "print(json.dumps(sorted(sys.modules)))"
    )]))
    assert "repro.core.pipeline" in modules
    assert _heavy(modules) == []


def test_worker_bootstrap_loads_no_heavy_module(worker_probe):
    modules = _probe(worker_probe)["worker"]["modules"]
    assert "repro.core.pool" in modules
    assert _heavy(modules) == []


@pytest.mark.parametrize("module", ["repro.core.worker_entry", "repro.cli"])
def test_spawn_entry_modules_do_not_load_numpy(module):
    # A spawn child imports these before any task code (the worker's
    # target, and a console script's __main__); numpy must still be
    # unloaded there for the BLAS cap to take effect.
    out = _run(["-c", f"import sys, {module}; print('numpy' in sys.modules)"])
    assert out.strip() == "False"


# -- BLAS threads in pool workers ------------------------------------------------


def test_blas_threads_rule():
    cpus = os.cpu_count() or 1
    assert blas_threads(1) == cpus
    assert blas_threads(2) == max(1, cpus // 2)
    assert blas_threads(10 * cpus) == 1


def test_worker_caps_blas_threads_parent_untouched(worker_probe):
    report = _probe(worker_probe)
    cap = str(blas_threads(2))
    assert report["worker"]["threads"] == {name: cap for name in THREAD_VARS}
    assert report["parent_threads"] == {name: None for name in THREAD_VARS}


def test_user_thread_setting_wins_in_workers(worker_probe):
    report = _probe(worker_probe, OMP_NUM_THREADS="3")
    expected = {name: None for name in THREAD_VARS}
    expected["OMP_NUM_THREADS"] = "3"
    assert report["worker"]["threads"] == expected


ANALYZE_ONE = """\
import sys

import numpy as np

from repro.core.config import FusionConfig
from repro.core.pipeline import IRFusionPipeline
from repro.data.synthetic import generate_design, make_real_spec
from repro.features.fusion import channel_names
from repro.spice.writer import netlist_to_string

design = generate_design(make_real_spec("threads", seed=1, pixels=96))
pipeline = IRFusionPipeline(FusionConfig(pixels=96, base_channels=4))
layers = [info.index for info in design.geometry.layers]
channels = len(channel_names(pipeline.config.features, layers))
pipeline.load_model_state(pipeline.build_model(channels).state_dict(), channels)
result = pipeline.analyze_text(netlist_to_string(design.netlist))
np.savez(sys.argv[1], predicted=result.predicted_drop, rough=result.rough_drop)
"""


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="one CPU: OpenBLAS runs one thread whatever the setting",
)
def test_analysis_bits_do_not_depend_on_blas_threads(tmp_path):
    maps = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npz"
        _run(["-c", ANALYZE_ONE, os.fspath(out)],
             env=_env(OPENBLAS_NUM_THREADS=threads))
        maps[threads] = np.load(out)
    for key in ("predicted", "rough"):
        one, two = maps["1"][key], maps["2"][key]
        assert one.shape == (96, 96)
        assert one.tobytes() == two.tobytes(), key


# -- the CLI's startup span ------------------------------------------------------

STARTUP_PROBE = """\
import builtins
import json
import sys

import repro
from repro.obs import monotonic, trace

loaded = []
_import = builtins.__import__


def _hook(name, *args, **kwargs):
    module = _import(name, *args, **kwargs)
    if name == "repro.core.pipeline" and not loaded:
        loaded.append(monotonic())
    return module


builtins.__import__ = _hook
from repro.cli import main

assert "repro.core.pipeline" not in sys.modules
with trace("probe") as tracer:
    code = main(sys.argv[1:])
imports = tracer.root.find("imports")
print(json.dumps({
    "code": code,
    "stamp": repro.IMPORT_STAMP,
    "start": imports.start,
    "end": imports.end,
    "pipeline_loaded": loaded[0],
}))
"""


def test_startup_span_runs_from_package_import_to_pipeline_loaded(
    tmp_path, capsys
):
    from repro.data.synthetic import generate_design, make_fake_spec
    from repro.spice.writer import write_spice

    model = tmp_path / "model.npz"
    assert main([
        "train", str(model), "--pixels", "16", "--fake", "1", "--real", "1",
        "--epochs", "1", "--channels", "4",
    ]) == 0
    deck = tmp_path / "deck.sp"
    write_spice(
        generate_design(
            make_fake_spec("startup", seed=5, pixels=16, num_layers=4)
        ).netlist,
        deck,
    )
    capsys.readouterr()
    out = _run(["-c", STARTUP_PROBE, "analyze", str(model), str(deck)])
    report = json.loads(out.splitlines()[-1])
    assert report["code"] == 0
    assert report["start"] == report["stamp"]
    assert report["end"] >= report["pipeline_loaded"] > report["stamp"]
