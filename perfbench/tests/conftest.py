import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
for path in (REPO / "src", REPO):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(autouse=True)
def _private_output_dir(tmp_path, monkeypatch):
    """Keep test runs out of the benchmark's result and ledger files."""
    from perfbench import harness

    monkeypatch.setattr(harness, "OUT", tmp_path / "out")
