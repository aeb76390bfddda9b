"""Tests of the benchmark's own arithmetic on synthetic inputs.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import types
from pathlib import Path

import pytest

import run
from stats import (
    equal_weight_samples,
    failed_ratio,
    layer_totals,
    step_deltas_ms,
    weighted_percentile,
)
from tracer import WRAP_POINTS, Tracer


def test_step_deltas_skip_the_first_record():
    deltas = step_deltas_ms([10.0, 25.0, 45.0, 70.0])
    assert deltas == [15.0, 20.0, 25.0]
    assert step_deltas_ms([12.0]) == []


def test_unweighted_percentiles_are_inverted_cdf():
    samples = [(float(v), 1.0) for v in range(10, 0, -1)]
    assert weighted_percentile(samples, 50) == 5.0
    assert weighted_percentile(samples, 90) == 9.0
    assert weighted_percentile(samples, 100) == 10.0
    with pytest.raises(ValueError):
        weighted_percentile([], 50)


def test_each_operation_weighs_the_same_whatever_its_step_count():
    short, long = [100.0], [1.0] * 9
    samples = equal_weight_samples([short, long, []])
    assert len(samples) == 10
    assert weighted_percentile(samples, 50) == 1.0
    assert weighted_percentile(samples, 90) == 100.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        (2, 1, "child", 1.0, 3.0, 0, 0),
        (3, 2, "grandchild", 1.5, 2.5, 0, 0),
        (4, 1, "child", 4.0, 5.0, 60, 60 * 256),
        (1, 0, "parent", 0.0, 10.0, 0, 0),
    ]
    totals = layer_totals(spans)
    assert totals["parent"]["s"] == 10.0
    assert totals["parent"]["self_s"] == pytest.approx(7.0)
    assert totals["child"]["calls"] == 2
    assert totals["child"]["self_s"] == pytest.approx(2.0)
    assert totals["child"]["rows"] == 60
    assert totals["grandchild"]["self_s"] == pytest.approx(1.0)


def test_failed_ratio():
    assert failed_ratio(1, 4) == 0.25
    assert failed_ratio(0, 7) == 0.0
    with pytest.raises(ValueError):
        failed_ratio(0, 0)


def test_tracer_records_parent_ids_and_spans_of_raising_calls():
    tracer = Tracer()
    box = types.SimpleNamespace()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return box.inner(x) + 1

    box.inner, box.outer = inner, outer
    tracer.wrap(box, "inner", "inner")
    tracer.wrap(box, "outer", "outer")
    assert box.outer(1) == 2
    with pytest.raises(ValueError):
        box.outer(-1)
    names = [(span[2], span[1]) for span in tracer.spans]
    outer_ids = [span[0] for span in tracer.spans if span[2] == "outer"]
    assert names.count(("outer", 0)) == 2
    assert [parent for name, parent in names if name == "inner"] == outer_ids


def _op(cell, wall, setup, target, evaluations, work, steps, rss=50.0, errors=()):
    op = run.Operation(cell, errors=list(errors))
    op.wall_s, op.setup_s, op.target_s = wall, setup, target
    op.evaluations, op.work_s, op.steps_ms, op.rss_mb = evaluations, work, steps, rss
    return op


def test_end_to_end_takes_medians_of_round_sums_and_drops_failed_rounds():
    small, capped = run.Cell("a", "run", 4, 4, "boa", needs_target=True), run.Cell("b", "run", 4, 4, "boa")
    rounds = [
        [_op(small, 1.0, 0.2, 0.5, 100, 0.5, [1.0]), _op(capped, 2.0, 0.3, None, 300, 1.5, [9.0] * 3)],
        [_op(small, 3.0, 0.4, 0.7, 100, 0.5, [1.0]), _op(capped, 2.0, 0.3, None, 300, 1.5, [9.0] * 3)],
        [_op(small, 2.0, 0.2, 0.6, 100, 0.5, [1.0]), _op(capped, 2.0, 0.3, None, 300, 1.5, [9.0] * 3)],
        [_op(small, 99.0, 9.0, 9.0, 1, 9.0, [99.0], errors=["bad"]), _op(capped, 2.0, 0.3, None, 300, 1.5, [9.0])],
    ]
    figures = run.end_to_end(rounds)
    assert figures["wall_s"] == (4.0, 3, "rounds")
    assert figures["setup_s"][0] == pytest.approx(0.5)
    assert figures["time_to_target_s"][0] == pytest.approx(0.6)
    assert figures["evals_per_s"][0] == pytest.approx(200.0)
    assert figures["step_ms_p50"] == (1.0, 12, "steps")
    assert figures["step_ms_p90"] == (9.0, 12, "steps")
    assert run.end_to_end([rounds[-1]]) == {}


def test_per_layer_covers_every_listed_metric_and_the_overhead():
    spans = []
    for index, point in enumerate(WRAP_POINTS, start=1):
        spans.append((index, 0, point[3], float(index), index + 0.5, 2, 2 * 256))
    cell = run.Cell("a", "run", 8, 4, "boa", needs_target=True)
    plain = [_op(cell, 1.0, 0.1, 0.5, 10, 0.5, [1.0])]
    traced = [_op(cell, 1.25, 0.1, 0.5, 10, 0.5, [1.0])]
    traced[0].spans = spans
    traced[0].traces = [{"terminated_by": "target_reached", "records": [[3, -1.0, 0.0, 190, 5.0]]}]
    traced[0].counters = {"optimizers.cycles": 4, "optimizers.improving_cycles": 1}
    traced[0].import_s = 0.2
    figures = run.per_layer([(plain, traced)])
    assert figures["trace.overhead_s"] == pytest.approx(0.25)
    assert figures["optimizers.improving_cycle_ratio"] == 0.25
    assert figures["optimizers.restarts_reached_ratio"] == 1.0
    assert figures["statevector.apply_x_layer.ns_per_amp"] == pytest.approx(0.5e9 / 512)
    listed = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in listed if m["name"] not in figures] == []
