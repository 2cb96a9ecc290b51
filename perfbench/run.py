"""Wall-clock benchmark of the remoting data path and the pool engine.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chatty --seed 1 --seconds 25 --trace 0

``--workload`` is one of chatty, bulk, observed, fleet (see
``perfbench/README.md`` for why each was chosen).  ``--trace 0`` reports
the end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` runs
the same untraced passes, then traced passes with wall-clock spans
around every layer's entry points, each for half of ``--seconds``, and
reports the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it print
every metric the run measured, by name with its unit.  Full results
(and, for traced runs, the spans) are written under ``.perfbench/`` in
the repository root.

Timing.  A pass is split into steps: on the data path each guest API
call and each stretch of application code between calls, on the fleet
the engine's work for each item.  Passes repeat the same steps, so each
step's fastest time over the run's passes is its cost with the least
interference from other work on the machine; times and rates are built
from those per-step minima (:class:`Minima`).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
FIGURE5 = os.path.join(ROOT, "benchmarks", "BENCH_figure5.json")

# numpy's BLAS runs single-threaded (set before numpy is imported, and
# inherited by the import probes).  With a thread per core, a BLAS call
# waits on whatever else the shared machine runs on the other core, and
# Inception's matrix products took up to three times as long for whole
# runs at a time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

#: chatty's applications whose virtual relative runtime must equal the
#: stored Figure 5 results exactly
FIGURE5_APPS = ("nw", "gaussian")

_IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
                 "start = time.perf_counter(); import workloads; "
                 "print(time.perf_counter() - start)")

#: layers whose self time is reported; with ``app`` (application code
#: between calls) they sum to the traced wall time
SELF_LAYERS = ("app", "stub", "guest", "codec", "xfercache", "transport",
               "router", "server", "native", "recorder", "vclock",
               "telemetry", "pool")

WORKLOADS = ("chatty", "bulk", "observed", "fleet")

#: the gated metrics: defined, and never 0, on every workload
END_TO_END = ("work_per_s", "setup_s", "peak_rss_mb")

#: every per-layer metric, reported by each traced run (0 where the
#: workload bypasses the layer)
PER_LAYER = (
    ("calls_per_s", "call_p50_us", "call_p99_us", "call_tail_pct",
     "call_samples", "call_error_frac", "vt_overhead_pct",
     "sched_items_per_s", "fleet_makespan_ms", "fleet_jain",
     "fleet_p99_wait_ms", "probe_ms", "codegen.s", "trace.overhead_frac",
     "trace.wall_us")
    + tuple(f"{layer}.self_us" for layer in SELF_LAYERS)
    + ("codec.ops_per_call", "codec.bytes_per_call", "codec.fast_frac",
       "router.rejected", "server.faults", "native.us_per_call",
       "recorder.records", "vclock.advances_per_call", "xfercache.hit_frac",
       "xfercache.bytes_elided", "telemetry.spans_per_call",
       "vt.marshal_us", "vt.transport_us", "vt.host_wait_us",
       "pool.us_per_item", "pool.place_us", "pool.steals", "pool.util_min")
)

UNITS = {
    "work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB",
    "calls_per_s": "calls/s", "call_p50_us": "us", "call_p99_us": "us",
    "call_tail_pct": "%", "call_samples": "count",
    "call_error_frac": "fraction", "vt_overhead_pct": "%",
    "sched_items_per_s": "items/s", "fleet_makespan_ms": "ms_virtual",
    "fleet_jain": "ratio", "fleet_p99_wait_ms": "ms_virtual",
    "probe_ms": "ms", "codegen.s": "s",
    "trace.overhead_frac": "ratio", "trace.wall_us": "us/step",
    "codec.self_us": "us/op", "codec.ops_per_call": "ops/call",
    "codec.bytes_per_call": "B/call", "codec.fast_frac": "fraction",
    "router.rejected": "count", "server.faults": "count",
    "native.us_per_call": "us/call", "recorder.records": "records/call",
    "vclock.advances_per_call": "count/call",
    "xfercache.hit_frac": "fraction", "xfercache.bytes_elided": "B/pass",
    "telemetry.spans_per_call": "spans/call", "telemetry.self_us": "us/span",
    "vt.marshal_us": "us_virtual", "vt.transport_us": "us_virtual",
    "vt.host_wait_us": "us_virtual",
    "pool.us_per_item": "us/item", "pool.place_us": "us/place",
    "pool.steals": "count", "pool.util_min": "ratio",
}


def unit_of(name: str) -> str:
    # the remaining ``<layer>.self_us`` are per call (per item on fleet)
    return UNITS.get(name, "us/step")


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------


def machine_probe_ms() -> float:
    """A fixed pure-Python loop, timed: the machine's speed right now.

    Recorded beside every run so a slowed core is visible; the metrics
    are never scaled by it.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        table: Dict[int, int] = {}
        total = 0
        for i in range(100_000):
            total += (i * i) % 7
            table[i & 1023] = total
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def import_seconds() -> float:
    """Median time for a fresh interpreter to import the program."""
    from workloads import SETUP_REPEATS

    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, SRC, HERE],
            capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def step_times(timeline: Sequence[int]) -> List[int]:
    """A pass's step durations, from its start, the timestamps between
    its steps, and its end."""
    return [b - a for a, b in zip(timeline, timeline[1:])]


class Minima:
    """Elementwise minima of one equal-length sample per pass.

    Only the minima are kept, so memory does not grow with the number
    of passes (and peak memory does not depend on the machine's speed).
    """

    def __init__(self) -> None:
        self.values: List[int] = []

    def add(self, sample: Sequence[int]) -> None:
        if not self.values:
            self.values = list(sample)
        elif len(sample) != len(self.values):
            raise ValueError("passes took different numbers of steps")
        else:
            self.values = list(map(min, self.values, sample))

    @property
    def total(self) -> int:
        return sum(self.values)


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """(q, value): p99 when at least ten samples lie beyond it,
    otherwise the highest percentile that has ten beyond it."""
    ordered = sorted(samples)
    count = len(ordered)
    q = 0.99 if count * 0.01 >= 10 else max(0.5, 1.0 - 10.0 / count)
    return q, ordered[min(count - 1, int(q * count))]


def timed_passes(run: Callable[[], Any], seconds: float) -> List[Any]:
    """Whole passes until ``seconds`` of wall time have gone by."""
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        outcomes.append(run())
    return outcomes


def os_threads() -> Optional[int]:
    """Threads this process runs, where the OS lists them."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


class Run:
    """Everything one invocation measures and checks."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        #: how long each phase passes for: untraced, then (traced runs
        #: only) traced, so every run takes about ``seconds``
        self.phase_seconds = seconds / 2 if trace else seconds
        self.trace = trace
        self.metrics: Dict[str, float] = {}
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.info: Dict[str, Any] = {}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    # -- data path ----------------------------------------------------------

    def run_data_path(self, gen_dir: str) -> None:
        from workloads import Boundary, DataPathRunner

        runner = DataPathRunner(self.workload, self.seed, gen_dir)
        import_s = import_seconds()
        runner.generate()
        runner.native_reference()
        warmup = runner.run_pass(Boundary().wrap)
        self.check_passes(runner, warmup, [warmup], "warm-up")

        boundary = Boundary()
        steps = Minima()

        def untraced_pass() -> Any:
            outcome = runner.run_pass(boundary.wrap,
                                      before=boundary.new_pass)
            self.check(len(boundary.marks) == 2 * outcome.calls,
                       f"{len(boundary.marks) // 2} calls at the library "
                       f"boundary, {outcome.calls} forwarded")
            steps.add(step_times(
                [outcome.start_ns, *boundary.marks, outcome.end_ns]))
            return outcome

        untraced = timed_passes(untraced_pass, self.phase_seconds)
        self.check_passes(runner, warmup, untraced, "untraced")

        latencies_us = [ns / 1e3 for ns in steps.values[1::2]]
        calls = warmup.calls
        errors = sum(a.rejected + a.faults for p in untraced for a in p.apps)
        self.attempted = sum(p.calls for p in untraced)
        self.failed = errors
        q, tail = tail_percentile(latencies_us)
        accounts: Counter = Counter()
        codec: Counter = Counter()
        cache: Counter = Counter()
        for app in warmup.apps:
            accounts.update(app.accounts)
            codec.update(app.codec)
            cache.update(app.cache)
        fast = codec["fast_encodes"] + codec["fast_decodes"]
        ops = fast + codec["fallback_encodes"] + codec["fallback_decodes"]
        m = self.metrics
        m["work_per_s"] = m["calls_per_s"] = calls / (steps.total / 1e9)
        m["setup_s"] = (import_s + statistics.median(runner.codegen_s)
                        + statistics.median(runner.build_s))
        m["call_p50_us"] = statistics.median(latencies_us)
        m["call_p99_us"] = tail
        m["call_tail_pct"] = q * 100.0
        m["call_samples"] = len(latencies_us)
        m["call_error_frac"] = errors / self.attempted
        m["vt_overhead_pct"] = runner.vt_overhead_pct(warmup)
        for account in ("marshal", "transport", "host_wait"):
            m[f"vt.{account}_us"] = accounts[account] / calls * 1e6
        m["router.rejected"] = sum(a.rejected for p in untraced
                                   for a in p.apps)
        m["server.faults"] = sum(a.faults for p in untraced for a in p.apps)
        m["codec.fast_frac"] = fast / ops if ops else 0.0
        m["xfercache.hit_frac"] = (
            cache["elided_payloads"] / cache["digested_payloads"]
            if cache["digested_payloads"] else 0.0)
        m["xfercache.bytes_elided"] = cache["elided_bytes"]
        m["codegen.s"] = statistics.median(runner.codegen_s)
        self.info.update(
            passes=len(untraced), import_s=import_s,
            codegen_s=runner.codegen_s, build_s=runner.build_s,
            native_runtime=runner.native,
            median_pass_calls_per_s=statistics.median(
                p.calls / (p.wall_ns / 1e9) for p in untraced))

        if self.trace:
            outcomes, traced = self.traced_passes(
                lambda tracer: runner.run_pass(tracer.wrap_library,
                                               before=tracer.reset))
            self.check_passes(runner, warmup, outcomes, "traced")
            self.layer_metrics(traced, untraced_ns=steps.total, work=calls,
                               items=0)

    def check_passes(self, runner: Any, reference: Any, passes: List[Any],
                     phase: str) -> None:
        figure5 = None
        if runner.name == "chatty":
            with open(FIGURE5, encoding="utf-8") as handle:
                figure5 = {row["name"]: row["relative_runtime"]
                           for row in json.load(handle)["rows"]}
        for outcome in passes:
            for app in outcome.apps:
                self.check(app.verified,
                           f"{phase}: {app.name} not verified ({app.detail})")
                if figure5 is not None and app.name in FIGURE5_APPS:
                    relative = app.runtime / runner.native[app.name]
                    self.check(
                        relative == figure5[app.name],
                        f"{phase}: {app.name} relative runtime {relative!r}"
                        f" != BENCH_figure5 {figure5[app.name]!r}")
            self.check(outcome.virtual() == reference.virtual(),
                       f"{phase}: virtual-time results differ from the "
                       f"warm-up pass")

    # -- fleet --------------------------------------------------------------

    def run_fleet(self) -> None:
        from workloads import FleetRunner

        runner = FleetRunner(self.seed)
        import_s = import_seconds()
        runner.setup()
        runner.run_pass(warmup=True)
        steps = Minima()

        def untraced_pass() -> Any:
            outcome = runner.run_pass()
            steps.add(step_times(outcome.timeline))
            return replace(outcome,
                           timeline=[outcome.start_ns, outcome.end_ns])

        untraced = timed_passes(untraced_pass, self.phase_seconds)
        first = untraced[0]
        self.check_fleet(first, untraced, "untraced")
        self.attempted = sum(p.items for p in untraced)
        self.failed = sum(p.items - p.completed for p in untraced)
        m = self.metrics
        m["work_per_s"] = m["sched_items_per_s"] = (
            first.items / (steps.total / 1e9))
        m["setup_s"] = import_s + runner.setup_s()
        m["fleet_makespan_ms"] = first.makespan * 1e3
        m["fleet_jain"] = first.jain
        m["fleet_p99_wait_ms"] = first.p99_wait * 1e3
        m["pool.steals"] = first.steals
        m["pool.util_min"] = first.util_min
        self.info.update(
            passes=len(untraced), items=first.items, import_s=import_s,
            setup_rounds_s=runner.setup_samples,
            median_pass_items_per_s=statistics.median(
                p.items / (p.wall_ns / 1e9) for p in untraced))

        if self.trace:
            outcomes, traced = self.traced_passes(
                lambda tracer: runner.run_pass(before=tracer.reset))
            self.check_fleet(first, outcomes, "traced")
            self.layer_metrics(traced, untraced_ns=steps.total,
                               work=first.items, items=first.items)

    def check_fleet(self, reference: Any, passes: List[Any],
                    phase: str) -> None:
        for outcome in passes:
            self.check(outcome.completed == outcome.items,
                       f"{phase}: fleet completed {outcome.completed} of "
                       f"{outcome.items} items")
            self.check(outcome.virtual() == reference.virtual(),
                       f"{phase}: fleet virtual-time results differ "
                       f"between passes")

    # -- traced run ---------------------------------------------------------

    def traced_passes(self, run_pass: Callable[[Any], Any]
                      ) -> Tuple[List[Any], Dict[str, Any]]:
        """Timed passes with every entry point wrapped, restored after.

        Returns the outcomes and the traced figures: the first pass's
        summary (its counts repeat exactly in every pass) and minima
        over all passes of step times, of each layer's self time per
        position, and of summed span durations by name.
        """
        from spans import ROOT_LAYER, SpanTracer, aggregate
        from workloads import FleetOutcome

        tracer = SpanTracer()
        tracer.install()
        originals = tracer.originals()
        traced: Dict[str, Any] = {"first": None, "steps": Minima(),
                                  "layers": {}, "name_ns": {},
                                  "native_ns": None}

        def traced_pass() -> Any:
            outcome = run_pass(tracer)
            summary = aggregate(tracer, outcome.start_ns, outcome.end_ns)
            for problem in summary["problems"]:
                self.check(False, f"traced pass: {problem}")
            if isinstance(outcome, FleetOutcome):
                timeline = outcome.timeline
                outcome = replace(outcome,
                                  timeline=[outcome.start_ns, outcome.end_ns])
            else:
                calls = [mark for name_id, start, end, parent, _ in
                         tracer.rows
                         if parent < 0
                         and tracer.names[name_id][0] == ROOT_LAYER
                         for mark in (start, end)]
                timeline = [outcome.start_ns, *calls, outcome.end_ns]
                summary["encoded_bytes"] = tracer.encoded_bytes
                self.check_counts(outcome, summary, tracer)
            traced["steps"].add(step_times(timeline))
            for layer, values in summary.pop("by_pos").items():
                traced["layers"].setdefault(layer, Minima()).add(values)
            least = traced["name_ns"]
            for name, ns in summary["name_ns"].items():
                least[name] = min(least.get(name, ns), ns)
            native = summary["inclusive_ns"]["native"]
            traced["native_ns"] = min(traced["native_ns"] or native, native)
            traced["first"] = traced["first"] or summary
            return outcome

        try:
            outcomes = timed_passes(traced_pass, self.phase_seconds)
        finally:
            tracer.uninstall()
        for owner, attr, original in originals:
            self.check(vars(owner).get(attr) is original,
                       f"{getattr(owner, '__name__', owner)}.{attr} "
                       f"not restored after tracing")
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(
            OUT_DIR, f"spans-{self.workload}-seed{self.seed}.csv.gz"))
        self.info["traced_passes"] = len(outcomes)
        return outcomes, traced

    def check_counts(self, outcome: Any, summary: Dict[str, Any],
                     tracer: Any) -> None:
        """Span counts must equal the program's own counters."""
        spans = summary["spans"]

        def counted(key: str, field_: str = "") -> int:
            if field_:
                return sum(getattr(a, key).get(field_, 0)
                           for a in outcome.apps)
            return sum(getattr(a, key) for a in outcome.apps)

        def traced(*ops: str) -> int:
            return sum(spans[f"SpecializedCodec.{op}"] for op in ops)

        pairs = [
            ("transport deliveries",
             spans["Transport.deliver"] + spans["Transport.deliver_batch"],
             counted("messages")),
            ("server executions", spans["ApiServerWorker.execute"],
             counted("executed")),
            ("codec encodes", traced("encode_command", "encode_reply"),
             counted("codec", "fast_encodes")
             + counted("codec", "fallback_encodes")),
            ("codec decodes", traced("decode_command", "decode_reply"),
             counted("codec", "fast_decodes")
             + counted("codec", "fallback_decodes")),
            ("cache hits", tracer.cache_hits,
             counted("cache", "elided_payloads")),
            ("cache bytes elided", tracer.cache_hit_bytes,
             counted("cache", "elided_bytes")),
            ("guest calls", summary["roots"], outcome.calls),
        ]
        for what, seen, expected in pairs:
            self.check(seen == expected,
                       f"traced {what} {seen} != program counter {expected}")

    def layer_metrics(self, traced: Dict[str, Any], untraced_ns: int,
                      work: int, items: int) -> None:
        """Per-layer metrics: each position's fastest self time per
        layer, summed, per forwarded call (per item on fleet)."""
        first = traced["first"]
        calls = first["roots"]
        spans = first["spans"]
        least = traced["name_ns"]
        fastest = {layer: minima.total
                   for layer, minima in traced["layers"].items()}
        tracer_spans = spans["Tracer.record_span"] + spans["Tracer.start_span"]

        def per(value: float, count: float) -> float:
            return value / count if count else 0.0

        m = self.metrics
        for layer in SELF_LAYERS:
            m[f"{layer}.self_us"] = per(fastest.get(layer, 0) / 1e3, work)
        m["trace.wall_us"] = per(traced["steps"].total / 1e3, work)
        m["trace.overhead_frac"] = traced["steps"].total / untraced_ns - 1.0
        m["codec.self_us"] = per(fastest.get("codec", 0) / 1e3,
                                 first["outer"]["codec"])
        m["codec.ops_per_call"] = per(first["outer"]["codec"], calls)
        m["codec.bytes_per_call"] = per(first.get("encoded_bytes", 0), calls)
        m["native.us_per_call"] = per(traced["native_ns"] / 1e3, calls)
        m["recorder.records"] = per(spans["CallRecorder.record"], calls)
        m["vclock.advances_per_call"] = per(
            spans["VirtualClock.advance"] + spans["VirtualClock.advance_to"],
            calls)
        m["telemetry.spans_per_call"] = per(tracer_spans, calls)
        m["telemetry.self_us"] = per(fastest.get("telemetry", 0) / 1e3,
                                     tracer_spans)
        m["pool.us_per_item"] = per(
            least.get("PoolScheduler.run", 0) / 1e3, items)
        m["pool.place_us"] = per(least.get("DevicePool.place", 0) / 1e3,
                                 spans["DevicePool.place"])

    # -- output -------------------------------------------------------------

    def result(self) -> Dict[str, Any]:
        """The last-line JSON object: end-to-end metrics untraced,
        per-layer metrics traced."""
        names = PER_LAYER if self.trace else END_TO_END
        return {
            "correct": not self.problems and self.failed == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics.get(name, 0.0),
                               "unit": unit_of(name)} for name in names},
        }


def run_one(workload: str, seed: int, seconds: float,
            trace: bool) -> Dict[str, Any]:
    run = Run(workload, seed, seconds, trace)
    probes = [machine_probe_ms()]
    leaked = os.path.join(tempfile.gettempdir(),
                          f"cava_generated_{os.getpid()}")
    os.makedirs(OUT_DIR, exist_ok=True)
    gen_dir = tempfile.mkdtemp(prefix="stacks-", dir=OUT_DIR)
    try:
        if workload == "fleet":
            run.run_fleet()
        else:
            run.run_data_path(gen_dir)
    finally:
        shutil.rmtree(gen_dir, ignore_errors=True)
    probes.append(machine_probe_ms())
    threads = os_threads()
    run.check(threads in (None, 1),
              f"the run ended with {threads} threads, not 1")
    run.info["os_threads"] = threads
    run.check(not os.path.exists(leaked),
              f"the run generated code into {leaked}")
    run.metrics["probe_ms"] = statistics.median(probes)
    run.metrics["peak_rss_mb"] = peak_rss_mb()
    result = run.result()

    print(f"workload {workload}, seed {seed}, {seconds:g} s, "
          f"trace {int(trace)}, {run.info.get('passes')} timed passes, "
          f"machine probe {probes[0]:.2f}/{probes[1]:.2f} ms")
    for name in sorted(run.metrics):
        print(f"  {name:28s} {run.metrics[name]:14.6g} {unit_of(name)}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    record = dict(result, workload=workload, seed=seed, seconds=seconds,
                  trace=int(trace), probes_ms=probes, problems=run.problems,
                  all_metrics=run.metrics, info=run.info)
    path = os.path.join(
        OUT_DIR, f"result-{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True, default=str)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Wall-clock benchmark of the data path and pool engine")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # noqa: F401  (imports the program)
    gc.collect()
    result = run_one(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
