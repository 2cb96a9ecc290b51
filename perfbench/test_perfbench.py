"""The benchmark's own self-check.

Run with ``python3 -m pytest perfbench`` from the repository root
(about a minute).  It runs one short traced chatty run and one traced
fleet run on a small fleet, and checks the span bookkeeping and the
contract between ``run.py`` and ``BENCHMARK.json``.
"""

import json
import os
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(workloads.DATA_PATH) | {"fleet"} == set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (name, run.unit_of(name)) for name in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, run.unit_of(name)) for name in run.PER_LAYER]


def test_install_restores_every_entry_point():
    tracer = spans.SpanTracer()
    tracer.install()
    originals = tracer.originals()
    assert any(attr == "clFinish" for _, attr, _ in originals)
    assert all(vars(owner)[attr] is not original
               for owner, attr, original in originals)
    tracer.uninstall()
    assert all(vars(owner)[attr] is original
               for owner, attr, original in originals)


def test_aggregate_flags_overlapping_children():
    tracer = spans.SpanTracer()
    parent = tracer.name_id("stub", "call")
    child = tracer.name_id("guest", "submit")
    # two children of one parent that overlap, the second outside it
    tracer.rows.extend([(parent, 0, 100, -1, 1), (child, 10, 60, 0, 1),
                        (child, 50, 120, 0, 1)])
    tracer.call_id = 1
    problems = spans.aggregate(tracer, 0, 100)["problems"]
    assert any("outside its parent" in p for p in problems)


def test_aggregate_sums_self_time_to_the_wall_time():
    tracer = spans.SpanTracer()
    root = tracer.name_id("stub", "call")
    child = tracer.name_id("guest", "submit")
    tracer.rows.extend([(root, 10, 50, -1, 1), (child, 20, 40, 0, 1),
                        (root, 60, 90, -1, 2)])
    tracer.call_id = 2
    summary = spans.aggregate(tracer, 0, 100)
    assert summary["problems"] == []
    assert summary["by_pos"]["stub"] == [20, 30]
    assert summary["by_pos"]["guest"] == [20, 0]
    assert summary["by_pos"]["app"] == [10, 20]
    assert summary["roots"] == 2


def test_minima_keep_each_steps_fastest_time():
    minima = run.Minima()
    minima.add(run.step_times([0, 5, 9]))
    minima.add(run.step_times([100, 103, 110]))
    assert minima.values == [3, 4]
    assert minima.total == 7
    with pytest.raises(ValueError):
        minima.add([1, 2, 3])


def test_traced_chatty_run_checks_itself(tmp_path):
    bench = run.Run("chatty", seed=3, seconds=0, trace=True)
    bench.run_data_path(str(tmp_path))
    assert bench.problems == []
    m = bench.metrics
    assert m["codec.fast_frac"] == 1.0
    assert m["call_error_frac"] == 0.0
    assert m["codec.ops_per_call"] == 4.0
    layers = sum(m[f"{layer}.self_us"] for layer in run.SELF_LAYERS)
    assert layers <= m["trace.wall_us"] * (1 + spans.SUM_TOLERANCE)
    assert not os.path.exists(os.path.join(
        tempfile.gettempdir(), f"cava_generated_{os.getpid()}"))


def test_traced_fleet_run_checks_itself(monkeypatch):
    monkeypatch.setattr(workloads, "FLEET_VMS", 12)
    bench = run.Run("fleet", seed=3, seconds=0, trace=True)
    bench.run_fleet()
    assert bench.problems == []
    assert bench.metrics["pool.us_per_item"] > 0
    assert bench.metrics["codec.self_us"] == 0
