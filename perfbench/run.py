"""Benchmark entry point.

    python3 perfbench/run.py --workload eco_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  Prints human-readable lines, then one
JSON object as the last line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``).  Exits 1 when
any output check fails and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="IR-Fusion repository benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {REPO / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    from perfbench.harness import run_benchmark

    lines, summary = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
