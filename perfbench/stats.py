"""Arithmetic of the benchmark: medians, tail percentiles, failure counts."""

from __future__ import annotations

import math
import statistics

# candidate tail percentiles, highest first
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def tail_percentile(samples) -> tuple[float, float] | None:
    """Highest percentile with at least ``MIN_BEYOND`` samples above it.

    Returns (percentile, value) by the nearest-rank rule, or None when
    even the lowest candidate leaves fewer than ``MIN_BEYOND`` samples
    beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in PERCENTILES:
        rank = math.ceil(p / 100.0 * n)  # 1-based nearest rank
        if rank >= 1 and n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


def describe(samples) -> dict:
    """Median, tail percentile and sample count of a list of timings."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    tail = tail_percentile(samples)
    if tail is not None:
        out["tail_percentile"], out["tail_value"] = tail
    return out


class Tally:
    """Counts attempted and failed operations; keeps the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.extend(problems)
        return not problems

    @property
    def failure_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def success_pct(self) -> float:
        return 100.0 * (1.0 - self.failure_ratio)
