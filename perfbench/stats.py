"""Percentiles that only report a tail the samples can support.

A percentile is reported only where at least :data:`MIN_BEYOND`
samples lie beyond it, so p90 needs 100 samples and p99 needs 1000;
the median is always reported.  Every printed timing carries its sample
count.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10
TAILS = (99.9, 99.0, 90.0)


def percentile(samples, q: float) -> float:
    """Nearest-rank *q*-th percentile of a non-empty sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def supported(n: int, q: float) -> bool:
    """Whether *n* samples put at least ten beyond the *q*-th percentile."""
    return q == 50.0 or n * (100.0 - q) / 100.0 >= MIN_BEYOND


def highest_tail(samples) -> tuple[float, float] | None:
    """``(q, value)`` for the highest supported tail percentile, else None."""
    for q in TAILS:
        if supported(len(samples), q):
            return q, percentile(samples, q)
    return None


def describe(name: str, samples, unit: str) -> str:
    """One printable line: median, highest supported tail, sample count."""
    if not samples:
        return f"{name}: no samples"
    line = f"{name}: p50={percentile(samples, 50.0):.4f} {unit}"
    tail = highest_tail(samples)
    if tail is not None:
        line += f" p{tail[0]:g}={tail[1]:.4f} {unit}"
    return line + f" (n={len(samples)})"
