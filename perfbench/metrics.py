"""Arithmetic of the benchmark: nearest-rank percentiles, the tail-sample rule
and self time of nested spans. Pure functions, no sectorpoly import."""

from __future__ import annotations

# A reported tail percentile must have at least this many samples beyond it.
TAIL_SAMPLES = 10


def rank(n: int, pct: int) -> int:
    """1-based nearest rank of the ``pct``-th percentile among ``n`` samples:
    ceil(pct * n / 100), in integer arithmetic so 0.99 * 1000 cannot round."""
    if n < 1 or not 0 < pct <= 100:
        raise ValueError(f"need n >= 1 and 0 < pct <= 100, got n={n}, pct={pct}")
    return -(-pct * n // 100)


def beyond(n: int, pct: int) -> int:
    """Samples strictly above the nearest-rank ``pct``-th percentile."""
    return n - rank(n, pct)


def min_samples(pct: int, tail: int = TAIL_SAMPLES) -> int:
    """Smallest sample count whose ``pct``-th percentile has ``tail`` samples
    beyond it."""
    n = 1
    while beyond(n, pct) < tail:
        n += 1
    return n


def percentile(samples, pct: int):
    """Nearest-rank percentile of an unsorted sequence."""
    ordered = sorted(samples)
    return ordered[rank(len(ordered), pct) - 1]


def tail_percentile(samples, pct: int, tail: int = TAIL_SAMPLES):
    """``pct``-th percentile, refusing sample sets too small to have ``tail``
    samples beyond it."""
    if beyond(len(samples), pct) < tail:
        raise ValueError(
            f"p{pct} of {len(samples)} samples has {beyond(len(samples), pct)} "
            f"beyond it; need {tail} (at least {min_samples(pct, tail)} samples)"
        )
    return percentile(samples, pct)


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(start, a), min(end, b)) for a, b in intervals)
    total = 0.0
    reach = start
    for a, b in clipped:
        a = max(a, reach)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover. ``spans`` are ``(start, end, parent)`` with
    ``parent`` the index of the enclosing span or -1."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered(start, end, children[i])
        for i, (start, end, _) in enumerate(spans)
    ]
