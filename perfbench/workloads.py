"""The benchmark's four workloads, run through the public API.

Three data-path workloads forward real guest API calls through the
generated stack (guest stub → codec → transport → router → API server →
simulated device); ``fleet`` drives the pool scheduling engine over
replayed device traces and never touches the data path.  Every workload
is a closed loop from one process: a guest application waits on each
sync call, a fleet VM waits on its previous item.

Inputs come only from the seed: each workload constructor receives it,
and so does the fleet's trace extraction.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.harness.pool import fleet_streams, run_pool_fleet
from repro.harness.runner import run_native_mvnc, run_native_opencl
from repro.harness.traces import extract_device_trace
from repro.harness.xfer import IterativeUploadWorkload
from repro.hypervisor.pool import DeviceClass, DevicePool
from repro.hypervisor.scheduler import WorkItem, jain_fairness
from repro.mvnc import api as mvnc_api
from repro.mvnc.device import SimulatedNCS
from repro.remoting.xfercache import CachePolicy
from repro.stack import build_stack, make_hypervisor
from repro.telemetry import tracer as telemetry
from repro.telemetry.metrics import MetricsRegistry, percentile
from repro.telemetry.tracer import NoopTracer, Tracer
from repro.vclock import VirtualClock
from repro.workloads import (
    BFSWorkload,
    GaussianWorkload,
    HotspotWorkload,
    InceptionWorkload,
    KMeansWorkload,
    NNWorkload,
    NWWorkload,
)

from spans import wrap_public

#: generated APIs the data-path workloads use
APIS = ("opencl", "mvnc")

#: fleet shape: VMs replaying BFS/Hotspot (at this scale) and Inception
#: traces on bench_pool's heterogeneous six-member pool
FLEET_VMS = 100
FLEET_SCALE = 0.25
FLEET_WARMUP_VMS = 10
#: share of each demand-equalized stream a pass replays.  Whole streams
#: (~31k items) take ~6 s a pass; a quarter (~7.5k items) keeps all 100
#: VMs contending and the pool fair (Jain ~0.97 at half the makespan)
#: while a run repeats the pass often enough for per-item minima to
#: settle.
FLEET_SHARE = 1 / 4
POOL_CLASSES = (
    DeviceClass.big_gpu(),
    DeviceClass.baseline_gpu(),
    DeviceClass.baseline_gpu(),
    DeviceClass.small_gpu(),
    DeviceClass.small_gpu(),
    DeviceClass.ncs(),
)

#: how often set-up is repeated in one run; set-up time is the median
SETUP_REPEATS = 5


@dataclass(frozen=True)
class DataPathSpec:
    """One data-path workload: which applications, how configured."""

    apps: Callable[[int], List[Tuple[str, Any]]]
    cache: bool = False
    observed: bool = False


def chatty_apps(seed: int) -> List[Tuple[str, Any]]:
    return [("opencl", NWWorkload(scale=1.0, seed=seed)),
            ("opencl", GaussianWorkload(scale=1.0, seed=seed))]


#: bulk's sizes.  KMeans and NN at scale 1.0 spend single steps of a
#: pass (a 16 MB upload, the application's own numpy work between calls)
#: of 100-400 ms in memory-bound numpy, which neighbours on a shared
#: machine slow for seconds at a time, and their rate then varies by a
#: third between runs.  Small KMeans and NN keep the reads and writes;
#: the iterative solver re-uploads a 64 KiB block 256 times, which moves
#: 32 MB a pass, half of it elided by the cache.  The same bytes as a
#: 256 KiB block 64 times are more exposed to other work on the machine:
#: a 256 MB copy loop on the other core cost that solver 4.8% of its
#: time and this one 1.4%.
BULK_SCALE = 0.1
ITERATIVE_SCALE = 1.0
ITERATIVE_STEPS = 256


def bulk_apps(seed: int) -> List[Tuple[str, Any]]:
    return [("opencl", KMeansWorkload(scale=BULK_SCALE, seed=seed)),
            ("opencl", NNWorkload(scale=BULK_SCALE, seed=seed)),
            ("mvnc", InceptionWorkload(seed=seed)),
            ("opencl", IterativeUploadWorkload(scale=ITERATIVE_SCALE,
                                               seed=seed,
                                               iterations=ITERATIVE_STEPS))]


#: observed's size.  The chatty mix at scale 1.0 takes ~2 s a pass
#: under the tracer, so a run has only ~9 passes and a slowed machine
#: left whole runs a third slower; at this scale a pass is ~0.9 s.
OBSERVED_SCALE = 0.5


def observed_apps(seed: int) -> List[Tuple[str, Any]]:
    return [("opencl", NWWorkload(scale=OBSERVED_SCALE, seed=seed)),
            ("opencl", GaussianWorkload(scale=OBSERVED_SCALE, seed=seed))]


DATA_PATH = {
    "chatty": DataPathSpec(chatty_apps),
    "bulk": DataPathSpec(bulk_apps, cache=True),
    "observed": DataPathSpec(observed_apps, observed=True),
}


# ---------------------------------------------------------------------------
# the guest library boundary
# ---------------------------------------------------------------------------


class Boundary:
    """Timestamps every call an application makes into a guest library.

    Each pass's ``marks`` hold the start and end of every call, in
    order (``perf_counter_ns``).
    """

    def __init__(self) -> None:
        self.marks: List[int] = []

    def new_pass(self) -> None:
        self.marks = []

    def wrap(self, library: Any) -> Any:
        return wrap_public(library, lambda attr, fn: self._timed(fn))

    def _timed(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        clock = time.perf_counter_ns
        boundary = self

        def timed(*args: Any, **kwargs: Any) -> Any:
            marks = boundary.marks
            marks.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append(clock())

        return timed


class ItemMarker(NoopTracer):
    """A tracer that only timestamps the pool engine's per-item
    ``device.compute`` span, so fleet passes have per-item steps."""

    enabled = True

    def __init__(self) -> None:
        self.marks: List[int] = []

    def record_span(self, name: str, *args: Any, **kwargs: Any) -> None:
        if name == "device.compute":
            self.marks.append(time.perf_counter_ns())


# ---------------------------------------------------------------------------
# data-path passes
# ---------------------------------------------------------------------------


@dataclass
class AppOutcome:
    """What one application run in one pass produced."""

    name: str
    verified: bool
    detail: str
    runtime: float
    accounts: Dict[str, float]
    calls: int
    messages: int
    executed: int
    faults: int
    rejected: int
    codec: Dict[str, int]
    cache: Dict[str, int]

    def virtual(self) -> Tuple[Any, ...]:
        """Everything virtual-time about this run (must repeat exactly)."""
        return (self.name, self.runtime, tuple(sorted(self.accounts.items())),
                self.calls, self.messages)


@dataclass
class PassOutcome:
    start_ns: int
    end_ns: int
    apps: List[AppOutcome] = field(default_factory=list)

    @property
    def wall_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def calls(self) -> int:
        return sum(app.calls for app in self.apps)

    def virtual(self) -> Tuple[Any, ...]:
        return tuple(app.virtual() for app in self.apps)


class DataPathRunner:
    """Set-up and timed passes of one data-path workload."""

    def __init__(self, name: str, seed: int, gen_dir: str) -> None:
        self.name = name
        self.spec = DATA_PATH[name]
        self.seed = seed
        self.gen_dir = gen_dir
        self.apps = self.spec.apps(seed)
        #: wall seconds of each codegen round and each stack build
        self.codegen_s: List[float] = []
        self.build_s: List[float] = []
        self.native: Dict[str, float] = {}

    # -- set-up -------------------------------------------------------------

    def generate(self) -> None:
        """Run CAvA for every API into a fresh directory, timed."""
        for round_ in range(SETUP_REPEATS):
            target = f"{self.gen_dir}/round{round_}"
            start = time.perf_counter()
            for api in APIS:
                build_stack(api, out_dir=target, refresh=True)
            self.codegen_s.append(time.perf_counter() - start)

    def native_reference(self) -> None:
        """Native virtual runtime of each application (the baseline)."""
        for api, workload in self.apps:
            if api == "mvnc":
                measured = run_native_mvnc(workload)
            else:
                measured = run_native_opencl(workload)
            if not measured.verified:
                raise RuntimeError(
                    f"native {workload.name} failed: {measured.detail}")
            self.native[workload.name] = measured.runtime

    def setup_s(self) -> float:
        """Median codegen round plus median per-pass stack build."""
        return (statistics.median(self.codegen_s)
                + statistics.median(self.build_s))

    # -- passes -------------------------------------------------------------

    def _build(self) -> List[Tuple[Any, Any]]:
        start = time.perf_counter()
        sessions = []
        for api, workload in self.apps:
            hv = make_hypervisor(apis=(api,))
            vm = hv.create_vm(
                f"vm-{workload.name}", transport="inproc",
                cache_policy=CachePolicy() if self.spec.cache else None,
            )
            sessions.append((hv, vm))
        self.build_s.append(time.perf_counter() - start)
        return sessions

    def run_pass(self, wrap: Callable[[Any], Any],
                 before: Optional[Callable[[], None]] = None) -> PassOutcome:
        """One timed pass over every application.

        ``wrap(library)`` gives the object the application calls;
        ``before`` runs after the build and the collection, just before
        the clock starts.  Stack builds are timed into ``build_s``.
        """
        sessions = self._build()
        libraries = [wrap(vm.library(api))
                     for (api, _), (_, vm) in zip(self.apps, sessions)]
        results = []
        gc.collect()
        if before is not None:
            before()
        start = time.perf_counter_ns()
        for (_, workload), (_, vm), library in zip(self.apps, sessions,
                                                   libraries):
            if self.spec.observed:
                with telemetry.use(Tracer(metrics=MetricsRegistry())):
                    results.append(workload.run(library))
                    vm.flush()
            else:
                results.append(workload.run(library))
                vm.flush()
        outcome = PassOutcome(start, time.perf_counter_ns())
        for (api, workload), (hv, vm), result in zip(self.apps, sessions,
                                                     results):
            runtime = vm.runtimes[api]
            worker = hv.worker(vm.vm_id, api)
            router = hv.router
            outcome.apps.append(AppOutcome(
                name=workload.name,
                verified=bool(result.verified),
                detail=result.detail,
                runtime=vm.clock.now,
                accounts=vm.clock.accounts(),
                calls=runtime.calls_sync + runtime.calls_async,
                messages=vm.driver.transport.messages,
                executed=worker.stats.executed,
                faults=worker.stats.faults,
                rejected=(router.metrics_for(vm.vm_id).rejected
                          + router.malformed_frames
                          + router.unknown_rejections),
                codec=router.codec.snapshot(),
                cache=(vm.xfer_cache.snapshot()
                       if vm.xfer_cache is not None else {}),
            ))
        return outcome

    def vt_overhead_pct(self, outcome: PassOutcome) -> float:
        """Virtual-time overhead over native, summed over applications."""
        virtual = sum(app.runtime for app in outcome.apps)
        native = sum(self.native[app.name] for app in outcome.apps)
        return (virtual / native - 1.0) * 100.0


# ---------------------------------------------------------------------------
# the fleet
# ---------------------------------------------------------------------------


def inception_trace(seed: int, batch: int = 6) -> List[WorkItem]:
    """Inception's device-op stream on the NCS, from a seeded workload
    (the tracer's ``device`` spans become closed-loop items)."""
    workload = InceptionWorkload(seed=seed, batch=batch)
    tracer = Tracer()
    clock = VirtualClock("trace-ncapp")
    with telemetry.use(tracer):
        with mvnc_api.ncs_session([SimulatedNCS()], clock=clock):
            result = workload.run(mvnc_api)
    if not result.verified:
        raise RuntimeError("inception failed verification while tracing")
    ops = sorted((s.start, s.end) for s in tracer.spans
                 if s.finished and s.layer == "device")
    return [
        WorkItem(duration=end - start,
                 think_time=(max(0.0, ops[i + 1][0] - end)
                             if i + 1 < len(ops) else 0.0))
        for i, (start, end) in enumerate(ops)
    ]


def demand_prefix(streams: Dict[str, List[WorkItem]],
                  share: float) -> Dict[str, List[WorkItem]]:
    """Each stream's shortest prefix holding ``share`` of its demand."""
    prefixes = {}
    for vm, items in streams.items():
        budget = share * sum(item.duration for item in items)
        busy = 0.0
        count = 0
        while busy < budget:
            busy += items[count].duration
            count += 1
        prefixes[vm] = items[:count]
    return prefixes


@dataclass
class FleetOutcome:
    #: pass start, the engine's per-item marks, pass end (ns)
    timeline: List[int]
    items: int
    completed: int
    makespan: float
    jain: float
    p99_wait: float
    steals: int
    util_min: float

    @property
    def start_ns(self) -> int:
        return self.timeline[0]

    @property
    def end_ns(self) -> int:
        return self.timeline[-1]

    @property
    def wall_ns(self) -> int:
        return self.end_ns - self.start_ns

    def virtual(self) -> Tuple[Any, ...]:
        return (self.items, self.completed, self.makespan, self.jain,
                self.p99_wait, self.steals, self.util_min)


class FleetRunner:
    """Set-up and timed passes of the pool-engine fleet."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.setup_samples: List[float] = []
        self.streams: Dict[str, List[WorkItem]] = {}
        self.warmup_streams: Dict[str, List[WorkItem]] = {}

    def setup(self) -> None:
        """Trace extraction and stream build, repeated and timed."""
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            bases = [
                extract_device_trace(BFSWorkload(scale=FLEET_SCALE,
                                                 seed=self.seed)),
                extract_device_trace(HotspotWorkload(scale=FLEET_SCALE,
                                                     seed=self.seed)),
                inception_trace(self.seed),
            ]
            self.streams = demand_prefix(
                fleet_streams(FLEET_VMS, bases, repeats=1,
                              equalize_demand=True), FLEET_SHARE)
            # timed as set-up; every pass then gets a fresh pool
            DevicePool.from_classes(list(POOL_CLASSES))
            self.setup_samples.append(time.perf_counter() - start)
        self.warmup_streams = demand_prefix(
            fleet_streams(FLEET_WARMUP_VMS, bases, repeats=1,
                          equalize_demand=True), FLEET_SHARE)

    def setup_s(self) -> float:
        return statistics.median(self.setup_samples)

    def run_pass(self, warmup: bool = False,
                 before: Optional[Callable[[], None]] = None
                 ) -> FleetOutcome:
        """One pass of the engine over the fleet (or the small warm-up
        fleet).  An :class:`ItemMarker` splits the pass into per-item
        steps."""
        streams = self.warmup_streams if warmup else self.streams
        pool = DevicePool.from_classes(list(POOL_CLASSES))
        marker = ItemMarker()
        gc.collect()
        if before is not None:
            before()
        start = time.perf_counter_ns()
        with telemetry.use(marker):
            result = run_pool_fleet(pool, streams)
        timeline = [start, *marker.marks, time.perf_counter_ns()]
        shares = result.weighted_shares(pool.policy,
                                        horizon=0.5 * result.makespan)
        waits = [w for s in result.vm_stats.values() for w in s.queue_waits]
        return FleetOutcome(
            timeline=timeline,
            items=sum(len(s) for s in streams.values()),
            completed=sum(s.completed for s in result.vm_stats.values()),
            makespan=result.makespan,
            jain=jain_fairness(list(shares.values())),
            p99_wait=percentile(waits, 0.99),
            steals=result.steals,
            util_min=min(d.utilization(result.makespan)
                         for d in result.device_stats.values()),
        )
