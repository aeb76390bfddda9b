"""Arithmetic behind the benchmark's figures, kept free of I/O so it can be tested."""

from __future__ import annotations

from collections import defaultdict


def step_deltas_ms(wall_ms: list[float]) -> list[float]:
    """Latency of each iteration after the first, from cumulative ``wall_ms``.

    The first record also covers optimizer start-up (the swarm's scout
    evaluation), so it is not a step sample.
    """
    return [later - earlier for earlier, later in zip(wall_ms, wall_ms[1:])]


def weighted_percentile(samples: list[tuple[float, float]], q: float) -> float:
    """Smallest value whose cumulative weight reaches ``q`` percent of the total.

    ``samples`` holds ``(value, weight)`` pairs.  With equal weights this is
    the inverted-CDF percentile.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    total = sum(weight for _, weight in ordered)
    threshold = q / 100.0 * total * (1.0 - 1e-12)
    cumulative = 0.0
    for value, weight in ordered:
        cumulative += weight
        if cumulative >= threshold:
            return value
    return ordered[-1][0]


def equal_weight_samples(groups: list[list[float]]) -> list[tuple[float, float]]:
    """Weight every group equally, whatever its sample count.

    One group is one operation; a long run then cannot crowd out a short one
    in a percentile, so the mix of cells in a workload stays fixed.
    """
    return [(value, 1.0 / len(group)) for group in groups if group for value in group]


def failed_ratio(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return failed / attempted


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds, self seconds, rows and amplitudes.

    Self time is a span's duration minus the durations of its direct
    children.  Spans come from one thread, so children never overlap and the
    sum of their durations is the part of the parent they cover.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _, _ in spans:
        child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0, "amps": 0}
    )
    for span_id, _, name, start, end, rows, amps in spans:
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time.get(span_id, 0.0)
        entry["rows"] += rows
        entry["amps"] += amps
    return dict(totals)


def summed_layer_totals(span_lists) -> dict[str, dict[str, float]]:
    """``layer_totals`` added up over processes (span ids are per process)."""
    summed: dict[str, dict[str, float]] = {}
    for spans in span_lists:
        for name, entry in layer_totals(spans).items():
            into = summed.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                into[key] += value
    return summed
