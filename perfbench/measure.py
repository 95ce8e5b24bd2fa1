"""Measurement helpers: the tail-percentile rule, span self time, and the
reference program that scales wall times to a fixed machine speed."""

from __future__ import annotations

import statistics

# Percentiles offered for `job_ms_tail`, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples: ceil(p * n / 100)."""
    tenths = round(p * 10)
    return -(-tenths * n // 1000)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile that leaves at least ten of n samples above it."""
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= 10:
            return p
    raise ValueError(f"{n} samples are too few for a tail percentile")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a nonempty sample."""
    ordered = sorted(values)
    return ordered[max(1, _rank(p, len(ordered))) - 1]


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans, leaf_time=None) -> list[float]:
    """Self time of each span: its duration minus the part of it that child
    spans cover, minus time charged to it by aggregated leaf calls.

    `spans` is a list of (name, start, end, parent, job) with `parent` the
    index of the enclosing span or None; `leaf_time` maps a span index to the
    summed duration of leaf calls made directly inside it.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, job in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, job) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children.get(i, ())]
        child = covered([(s, e) for s, e in inside if e > s])
        out.append(end - start - child - (leaf_time or {}).get(i, 0.0))
    return out


# A fixed program, independent of the one under test, that does what a CLI
# job does: start an interpreter, import numpy and parts of the standard
# library, and run a Python loop.  On a shared machine the speed of processes
# drifts by tens of percent within a minute; a job's wall time over this
# program's, run around the same moment, follows the job instead.
REFERENCE = ("import argparse, decimal, json, numpy\n"
             "x = 0\n"
             "for i in range(300_000):\n"
             "    x += i * i % 7\n")
# Median wall seconds of REFERENCE on the 2-vCPU machine, Python 3.11.7, that
# took the first baseline.
REFERENCE_S = 0.28


class SpeedScale:
    """Scales wall times to the reference speed: a time measured at moment t
    is multiplied by REFERENCE_S over the median wall time of the reference
    runs within `window_s` of t (the two nearest when none is that close)."""

    def __init__(self, window_s: float) -> None:
        self.window_s = window_s
        self.refs: list[tuple[float, float]] = []  # (moment, wall seconds)

    @property
    def last(self) -> float:
        """Moment of the latest reference run."""
        return self.refs[-1][0] if self.refs else float("-inf")

    def add(self, moment: float, wall: float) -> None:
        self.refs.append((moment, wall))

    def scale(self, moment: float, wall: float) -> float:
        near = [w for t, w in self.refs if abs(t - moment) <= self.window_s]
        if not near:
            near = [w for _, w in sorted(self.refs, key=lambda r: abs(r[0] - moment))[:2]]
        return wall * REFERENCE_S / statistics.median(near)
