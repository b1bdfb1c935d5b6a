"""Serving daemon: warm caches, admission control, drain, observability.

The daemon runs in-process (``ServeDaemon.start`` on an ephemeral port),
so the tests can reach both sides of the HTTP boundary: requests go over
a real socket with ``urllib``, while cache clears and blocking-analyze
monkeypatches act directly on the service objects.  One subprocess test
exercises the real ``python -m repro.serve`` entry point end to end,
SIGTERM drain included.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import FusionConfig
from repro.core.pipeline import IRFusionPipeline
from repro.data.synthetic import generate_design, make_real_spec
from repro.obs import registry as obs_registry
from repro.obs.export import registry_errors, validate_trace_lines
from repro.serve import (
    AnalyzeRequest,
    ModelRegistry,
    RequestError,
    ServeDaemon,
    ServeOptions,
)
from repro.solvers.cache import clear_setup_cache
from repro.spice.writer import netlist_to_string
from repro.train.trainer import TrainConfig


# -- fixtures ------------------------------------------------------------------


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    """A model directory holding one trained tiny checkpoint pair."""
    directory = tmp_path_factory.mktemp("serve-models")
    config = FusionConfig(
        pixels=16,
        num_fake=2,
        num_real_train=1,
        num_real_test=1,
        base_channels=4,
        depth=2,
        train=TrainConfig(epochs=1, batch_size=4),
        augment=False,
        oversample_fake=1,
        oversample_real=1,
    )
    pipeline = IRFusionPipeline(config)
    pipeline.train()
    path = directory / "tiny.npz"
    pipeline.save_model(path)
    train_raw, _ = pipeline.build_datasets()
    meta = {
        "in_channels": len(train_raw.channels),
        "config": {
            "pixels": config.pixels,
            "base_channels": config.base_channels,
            "depth": config.depth,
            "solver_iterations": config.solver_iterations,
        },
    }
    (directory / "tiny.npz.json").write_text(json.dumps(meta))
    return directory


@pytest.fixture(scope="module")
def deck():
    """An irregular (real-spec) deck: its conductance matrix is distinct
    from the fake training designs', so AMG-cache expectations start cold
    after a ``clear_setup_cache``."""
    design = generate_design(make_real_spec("serve_r0", seed=5, pixels=16))
    return netlist_to_string(design.netlist)


def _start_daemon(model_dir, **options):
    daemon = ServeDaemon(
        registry=ModelRegistry(model_dir),
        options=ServeOptions(**options),
        port=0,
    )
    daemon.start()
    return daemon


@pytest.fixture()
def daemon(model_dir):
    d = _start_daemon(model_dir)
    yield d
    d.stop(timeout=10.0)


def _url(daemon, path):
    _, port = daemon.address
    return f"http://127.0.0.1:{port}{path}"


def _post(daemon, body):
    request = urllib.request.Request(
        _url(daemon, "/analyze"),
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _get(daemon, path):
    try:
        with urllib.request.urlopen(_url(daemon, path), timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _wait_for(predicate, timeout=30.0, interval=0.02):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(interval)
    return False


# -- warm caches ---------------------------------------------------------------


class TestWarmCaches:
    def test_second_request_hits_amg_cache_and_is_faster(self, daemon, deck):
        clear_setup_cache()
        status1, first = _post(daemon, {"netlist": deck, "trace": "inline"})
        status2, second = _post(daemon, {"netlist": deck})
        assert status1 == 200 and status2 == 200
        r1, r2 = first["result"], second["result"]
        assert r1["amg_setup_cache"]["misses"] >= 1
        # Warm daemon: the identical deck reuses the first request's AMG
        # hierarchy and must skip setup entirely...
        assert r2["amg_setup_cache"]["hits"] > 0
        assert r2["amg_setup_cache"]["misses"] == 0
        # ...which makes the solve stage measurably faster (it no longer
        # contains hierarchy construction).
        assert r2["stage_seconds"]["solve"] < r1["stage_seconds"]["solve"]
        assert r1["model_fingerprint"] == r2["model_fingerprint"]

    def test_inline_trace_is_schema_and_registry_clean(self, daemon, deck):
        status, body = _post(daemon, {"netlist": deck, "trace": "inline"})
        assert status == 200
        lines = body["result"]["trace"]
        assert validate_trace_lines(lines) == []
        assert registry_errors(lines) == []
        names = {
            json.loads(line)["name"]
            for line in lines
            if json.loads(line).get("kind") == "span"
        }
        assert "serve.request" in names
        assert "solve" in names and "inference" in names

    def test_trace_file_mode_writes_to_trace_dir(self, model_dir, deck, tmp_path):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        d = _start_daemon(model_dir, trace_dir=str(trace_dir))
        try:
            status, body = _post(d, {"netlist": deck, "trace": "file"})
            assert status == 200
            path = body["result"]["trace_path"]
            lines = pathlib.Path(path).read_text().splitlines()
            assert validate_trace_lines(lines) == []
        finally:
            d.stop(timeout=10.0)

    def test_overlapping_same_deck_one_setup_miss_one_hit(self, daemon, deck):
        clear_setup_cache()
        results = []

        def worker():
            results.append(_post(daemon, {"netlist": deck}))

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [status for status, _ in results] == [200, 200]
        totals = {"hits": 0, "misses": 0}
        for _, body in results:
            cache = body["result"]["amg_setup_cache"]
            totals["hits"] += cache["hits"]
            totals["misses"] += cache["misses"]
        # The single executor serialises the overlapping requests, so
        # exactly one builds the hierarchy and the other reuses it.
        assert totals["misses"] == 1
        assert totals["hits"] == 1

    def test_model_hot_reload_on_checkpoint_change(self, model_dir, deck):
        d = _start_daemon(model_dir)
        try:
            _, first = _post(d, {"netlist": deck})
            old_fingerprint = first["result"]["model_fingerprint"]
            weights = model_dir / "tiny.npz"
            state = dict(np.load(weights))
            key = sorted(state)[0]
            state[key] = state[key] + 1e-3
            np.savez_compressed(os.fspath(weights), **state)
            # Defend against filesystems with coarse mtime granularity.
            stamp = os.stat(weights)
            os.utime(weights, ns=(stamp.st_atime_ns, stamp.st_mtime_ns + 1))
            _, second = _post(d, {"netlist": deck})
            assert second["result"]["model_fingerprint"] != old_fingerprint
            _, metrics = _get(d, "/metrics")
            assert metrics["counters"].get("serve.model_reloads", 0) >= 1
        finally:
            d.stop(timeout=10.0)


# -- admission control and drain -----------------------------------------------


def _block_analysis(daemon):
    """Make the daemon's (sole) model block until the returned event fires."""
    entry = daemon.service.registry.get(None)
    release = threading.Event()
    original = entry.pipeline.analyze_text

    def blocked(text):
        release.wait(60.0)
        return original(text)

    entry.pipeline.analyze_text = blocked
    return release


class TestAdmission:
    def test_queue_full_returns_429_with_json_body(self, model_dir, deck):
        d = _start_daemon(model_dir, queue_limit=1)
        release = _block_analysis(d)
        try:
            status1, first = _post(d, {"netlist": deck, "async": True})
            assert status1 == 202
            assert _wait_for(
                lambda: _get(d, f"/jobs/{first['job_id']}")[1]["state"]
                == "running"
            )
            status2, _ = _post(d, {"netlist": deck, "async": True})
            assert status2 == 202  # fills the queue
            status3, body = _post(d, {"netlist": deck, "async": True})
            assert status3 == 429
            assert body["error"] == "queue_full"
            assert body["queue_limit"] == 1
            _, metrics = _get(d, "/metrics")
            assert metrics["counters"].get("serve.rejected", 0) >= 1
        finally:
            release.set()
            d.stop(timeout=30.0)

    def test_drain_finishes_inflight_and_rejects_new(self, model_dir, deck):
        d = _start_daemon(model_dir)
        release = _block_analysis(d)
        status, submitted = _post(d, {"netlist": deck, "async": True})
        assert status == 202
        assert _wait_for(
            lambda: _get(d, f"/jobs/{submitted['job_id']}")[1]["state"]
            == "running"
        )
        d.begin_drain(timeout=60.0)
        assert _wait_for(lambda: d.service.draining)
        status, body = _post(d, {"netlist": deck})
        assert status == 503
        assert body["error"] == "draining"
        release.set()
        d.stop(timeout=30.0)
        job = d.service.get_job(submitted["job_id"])
        assert job is not None
        assert job.state == "done"
        assert job.result["amg_setup_cache"] is not None

    def test_request_validation_maps_to_400(self, daemon, deck):
        cases = [
            {},  # neither deck form
            {"netlist": deck, "netlist_path": "/tmp/x.sp"},  # both
            {"netlist": deck, "mode": "transient"},  # unsupported mode
            {"netlist": deck, "deadline_seconds": -1},  # bad deadline
            {"netlist": deck, "trace": "file"},  # no --trace-dir
            {"netlist": deck, "frobnicate": True},  # unknown field
        ]
        for payload in cases:
            status, body = _post(daemon, payload)
            assert status == 400, payload
            assert body["error"] == "bad_request", payload

    def test_bad_value_deck_is_400(self, daemon):
        deck = "R1 a b 1\nI1 b 0 1e999\nV1 a 0 1.05\n.end\n"
        status, body = _post(daemon, {"netlist": deck})
        assert status == 400
        assert body["error"] == "bad_input"
        assert "line 2" in body["message"]

    def test_accepted_socket_has_nodelay(self, daemon, monkeypatch):
        import socket

        from repro.serve import app

        seen = []
        setup = app._Handler.setup

        def recording_setup(handler):
            setup(handler)
            seen.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(app._Handler, "setup", recording_setup)
        status, _ = _get(daemon, "/healthz")
        assert status == 200
        assert seen and all(seen)

    def test_unknown_model_is_404_and_unknown_job_is_404(self, daemon, deck):
        status, body = _post(daemon, {"netlist": deck, "model": "missing"})
        assert status == 404
        assert body["error"] == "model_not_found"
        status, body = _get(daemon, "/jobs/j999999")
        assert status == 404
        assert body["error"] == "unknown_job"

    def test_healthz_models_and_deadline_roundtrip(self, daemon, deck):
        status, health = _get(daemon, "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0
        status, models = _get(daemon, "/models")
        assert status == 200
        (row,) = models["models"]
        assert row["name"] == "tiny" and row["loaded"]
        assert row["pixels"] == 16
        status, body = _post(
            daemon, {"netlist": deck, "deadline_seconds": 30.0}
        )
        assert status == 200
        assert body["result"]["deadline_seconds"] == 30.0


# -- pool dispatch -------------------------------------------------------------


class TestPoolDispatch:
    def test_pool_mode_serves_requests_with_keepalive(self, model_dir, deck):
        d = _start_daemon(model_dir, pool_jobs=2)
        try:
            from repro.core.pool import get_pool

            assert get_pool()._keepalive >= 1
            status1, first = _post(d, {"netlist": deck})
            status2, second = _post(d, {"netlist": deck})
            assert status1 == 200 and status2 == 200
            assert (
                first["result"]["model_fingerprint"]
                == second["result"]["model_fingerprint"]
            )
        finally:
            d.stop(timeout=60.0)
        assert get_pool()._keepalive == 0


# -- request schema ------------------------------------------------------------


class TestRequestSchema:
    def test_from_payload_roundtrip(self):
        request = AnalyzeRequest.from_payload(
            {"netlist": "* deck", "deadline_seconds": 2, "trace": "inline"}
        )
        assert request.netlist == "* deck"
        assert request.deadline_seconds == 2.0
        assert request.trace == "inline"

    def test_from_payload_rejects_non_object(self):
        with pytest.raises(RequestError):
            AnalyzeRequest.from_payload(["not", "an", "object"])


# -- observability contract ----------------------------------------------------


_EMIT = re.compile(
    r"(?<![\w.])(counter_add|gauge_set|trace|span)\(\s*['\"]([^'\"]+)['\"]"
)
_KIND = {
    "counter_add": "counter",
    "gauge_set": "gauge",
    "trace": "span",
    "span": "span",
}


def test_serve_metric_names_validate_against_registry():
    """Every literal serve-layer emit site must be a declared name."""
    package = (
        pathlib.Path(__file__).resolve().parents[1] / "src" / "repro" / "serve"
    )
    found = set()
    for path in package.rglob("*.py"):
        for call, name in _EMIT.findall(path.read_text()):
            found.add((_KIND[call], name))
    assert ("counter", "serve.requests") in found
    assert ("counter", "serve.rejected") in found
    assert ("gauge", "serve.queue_depth") in found
    assert ("span", "serve.request") in found
    for kind, name in sorted(found):
        assert obs_registry.is_registered(kind, name), (
            f"{kind} name {name!r} emitted by repro.serve is not declared "
            "in repro.obs.registry"
        )


# -- the real entry point ------------------------------------------------------


class TestDaemonProcess:
    def test_sigterm_drains_and_exits_clean(self, model_dir, deck, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.fspath(
            pathlib.Path(__file__).resolve().parents[1] / "src"
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "--model-dir",
                os.fspath(model_dir),
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            port = None
            banner = []
            assert process.stdout is not None
            for line in process.stdout:
                banner.append(line)
                match = re.search(r"listening on http://[^:]+:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port is not None, "".join(banner)

            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/analyze",
                data=json.dumps({"netlist": deck}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=120) as response:
                assert response.status == 200
                body = json.loads(response.read())
            assert body["state"] == "done"

            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=30
            ) as response:
                assert json.loads(response.read())["status"] == "ok"

            process.send_signal(signal.SIGTERM)
            remainder = process.communicate(timeout=60)[0]
            assert process.returncode == 0, remainder
            assert "drained" in remainder
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=30)
