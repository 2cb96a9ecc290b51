"""The scheduling engine: differential and conservation properties.

``PoolScheduler`` and ``ContendedDevice`` share one event-indexed
engine.  The differential suite runs it against the frozen O(N)-per-event
loops it replaced (``tests/engine_reference.py``) and demands equal
results field by field, float bits included, plus equal tracer spans and
rate-limiter state.  The conservation suite checks that every submitted
item runs exactly once and that service is neither invented nor lost,
with the sanitizer's pool-conservation check armed.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import sanitizer as san
from repro.analysis.sanitizer import Sanitizer
from repro.hypervisor.policy import (
    QOS_CLASSES,
    RateLimiter,
    ResourcePolicy,
    VMPolicy,
)
from repro.hypervisor.pool import (
    DEVICE_TIME_QUOTA,
    DeviceClass,
    DevicePool,
    PoolScheduler,
    PoolWorkItem,
    nominal_cost,
)
from repro.hypervisor.scheduler import (
    ContendedDevice,
    FairShareScheduler,
    FifoScheduler,
    RoundRobinScheduler,
    WorkItem,
)
from repro.telemetry import tracer as tele
from tests import engine_reference as ref

GIB = 1024**3
CLASSES = (DeviceClass.baseline_gpu(), DeviceClass.big_gpu(),
           DeviceClass.small_gpu(), DeviceClass.ncs())
VM_IDS = ("vm-c", "vm-a", "vm-d", "vm-b", "vm-f", "vm-e")

#: round values make release and completion ties common; free floats
#: cover everything else
durations = st.sampled_from([0.0, 1e-3, 2e-3]) | st.floats(0.0, 5e-3)
thinks = st.sampled_from([0.0, 1e-3]) | st.floats(0.0, 2e-3)
transfers = st.sampled_from([0.0, 12e6]) | st.floats(0.0, 5e7)


def bits(value):
    """``value`` with every float replaced by its exact hex form."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return bits(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    return value


class SpanLog:
    """A tracer that keeps the exact arguments of every span."""

    enabled = True

    def __init__(self):
        self.spans = []

    def record_span(self, *args, **kwargs):
        self.spans.append(bits([list(args), list(kwargs.items())]))


def outcome(run):
    """(bits of the result, span log) — or the error it raised."""
    log = SpanLog()
    try:
        with tele.use(log):
            return bits(run()), log.spans
    except Exception as error:  # both engines must fail alike
        return repr(error)


def limiter_state(limiter):
    return None if limiter is None else bits(vars(limiter))


@st.composite
def items(draw, transfer=True):
    duration, think = draw(durations), draw(thinks)
    if transfer and draw(st.booleans()):
        return PoolWorkItem(duration, think, transfer_bytes=draw(transfers))
    return WorkItem(duration, think)


@st.composite
def vm_policies(draw):
    return VMPolicy(
        weight=draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])),
        qos=draw(st.sampled_from(sorted(QOS_CLASSES))),
        command_rate=draw(st.sampled_from([None, 300.0, 1000.0])),
        command_burst=draw(st.integers(1, 3)),
        memory_bytes=draw(st.sampled_from([None, GIB, 3 * GIB])),
        resource_limits=draw(st.one_of(
            st.just({}),
            st.builds(lambda q: {DEVICE_TIME_QUOTA: q},
                      st.floats(0.0, 2e-2)),
        )),
    )


@st.composite
def scenarios(draw, transfer=True):
    """Streams (in a non-sorted order), a policy, optional arrivals."""
    vms = draw(st.lists(st.sampled_from(VM_IDS), min_size=1, max_size=6,
                        unique=True))
    streams = {vm: draw(st.lists(items(transfer), max_size=10))
               for vm in vms}
    policy = ResourcePolicy()
    for vm in vms:
        if draw(st.booleans()):
            policy.set_policy(vm, draw(vm_policies()))
    arrivals = {}
    for vm in vms:
        if draw(st.booleans()):
            gaps = draw(st.lists(thinks, min_size=len(streams[vm]),
                                 max_size=len(streams[vm])))
            stamps, now = [], 0.0
            for gap in gaps:
                now += gap
                stamps.append(now)
            arrivals[vm] = stamps
    return streams, policy, arrivals


def copy_streams(streams):
    return {vm: list(stream) for vm, stream in streams.items()}


class TestDifferential:
    """The engine against the frozen per-event-scan loops."""

    @settings(max_examples=300, deadline=None)
    @given(scenarios(),
           st.lists(st.sampled_from(CLASSES), min_size=1, max_size=4),
           st.booleans(), st.booleans())
    def test_pool_runs_identical(self, scenario, classes, steal, limit):
        streams, policy, arrivals = scenario
        limiters = []

        def run(engine):
            pool = DevicePool.from_classes(classes, policy=policy)
            limiter = RateLimiter(policy) if limit else None
            limiters.append(limiter)
            if engine == "reference":
                return ref.pool_run(pool, copy_streams(streams), arrivals,
                                    limiter, steal)
            return PoolScheduler(pool, rate_limiter=limiter,
                                 allow_stealing=steal).run(
                copy_streams(streams), arrivals)

        want = outcome(lambda: run("reference"))
        got = outcome(lambda: run("engine"))
        assert got == want
        assert limiter_state(limiters[1]) == limiter_state(limiters[0])

    @settings(max_examples=300, deadline=None)
    @given(scenarios(transfer=False),
           st.sampled_from(["fifo", "rr", "fair"]), st.booleans())
    def test_contended_runs_identical(self, scenario, kind, limit):
        streams, policy, _ = scenario
        limiters = []
        schedulers = {
            "fifo": (ref.FifoScheduler, FifoScheduler),
            "rr": (ref.RoundRobinScheduler, RoundRobinScheduler),
            "fair": (lambda: ref.FairShareScheduler(policy),
                     lambda: FairShareScheduler(policy)),
        }[kind]

        def run(engine):
            limiter = RateLimiter(policy) if limit else None
            limiters.append(limiter)
            if engine == "reference":
                return ref.contended_run(schedulers[0](),
                                         copy_streams(streams), limiter)
            return ContendedDevice(schedulers[1](), limiter).run(
                copy_streams(streams))

        want = outcome(lambda: run("reference"))
        got = outcome(lambda: run("engine"))
        assert got == want
        assert limiter_state(limiters[1]) == limiter_state(limiters[0])

    def test_steal_tolerance_follows_stream_order(self):
        """Steal gains within 1e-12 of each other keep the first
        candidate in ``streams`` order, not the alphabetically first."""

        def run(engine):
            pool = DevicePool.from_classes([DeviceClass.baseline_gpu(),
                                            DeviceClass.big_gpu()])
            for vm in ("vm-0", "vm-a", "vm-b"):
                pool.migrate(vm, pool.devices[0])
            streams = {"vm-b": [WorkItem(1e-3 + 1e-12)],
                       "vm-a": [WorkItem(1e-3)],
                       "vm-0": [WorkItem(1e-3)]}
            if engine == "reference":
                return ref.pool_run(pool, streams)
            return PoolScheduler(pool).run(streams)

        got = run("engine")
        assert bits(got) == bits(run("reference"))
        stolen = list(got.device_stats["dev1-big-gpu"].vm_nominal)
        assert stolen[0] == "vm-b"

    def test_item_released_at_thief_start_is_not_stolen(self):
        """A queued item released exactly when the idlest member's own
        work starts is no steal candidate (a pinned rare case)."""
        trace = {
            "vm-0": [(4e-3, 0.0), (1e-3, 1e-3), (2e-3, 2e-3)],
            "vm-1": [(4e-3, 0.0), (4e-3, 1e-3), (1e-3, 0.0), (4e-3, 0.0)],
            "vm-2": [(1e-3, 1e-3), (4e-3, 2e-3)],
            "vm-3": [(4e-3, 2e-3), (2e-3, 1e-3), (1e-3, 2e-3)],
        }
        streams = {vm: [WorkItem(d, t) for d, t in stream]
                   for vm, stream in trace.items()}
        classes = [DeviceClass.big_gpu(), DeviceClass.baseline_gpu()]
        got = PoolScheduler(DevicePool.from_classes(classes)).run(
            copy_streams(streams))
        want = ref.pool_run(DevicePool.from_classes(classes),
                            copy_streams(streams))
        assert bits(got) == bits(want)

    def test_scheduler_reused_across_runs(self):
        """A policy instance carries no state from one run into the
        next, on either engine."""
        streams = {"b": [WorkItem(2e-3)] * 6, "a": [WorkItem(1e-3)] * 9,
                   "c": [WorkItem(1e-3, 3e-3)] * 4}
        for engine, reference in ((FairShareScheduler(),
                                   ref.FairShareScheduler()),
                                  (RoundRobinScheduler(),
                                   ref.RoundRobinScheduler())):
            device = ContendedDevice(engine)
            first = bits(device.run(copy_streams(streams)))
            assert bits(device.run(copy_streams(streams))) == first
            assert first == bits(ref.contended_run(reference,
                                                   copy_streams(streams)))


def conservation_streams():
    return st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.lists(st.builds(WorkItem, st.floats(0.0, 1e-2),
                           st.floats(0.0, 2e-3)), max_size=12),
        min_size=1, max_size=4,
    )


class TestConservation:
    """Every submitted item runs exactly once, on some device, and the
    service billed to VMs equals the service devices delivered."""

    @settings(max_examples=60, deadline=None)
    @given(conservation_streams(),
           st.sampled_from(["pool", "fifo", "rr", "fair"]),
           st.lists(st.sampled_from(CLASSES), min_size=1, max_size=4),
           st.booleans())
    def test_service_conserved_under_any_policy(self, streams, kind,
                                                classes, steal):
        sanitizer = san.install(Sanitizer())
        try:
            if kind == "pool":
                result = PoolScheduler(
                    DevicePool.from_classes(classes),
                    allow_stealing=steal,
                ).run(copy_streams(streams))
                stats = result.vm_stats
            else:
                scheduler = {"fifo": FifoScheduler,
                             "rr": RoundRobinScheduler,
                             "fair": FairShareScheduler}[kind]()
                stats = ContendedDevice(scheduler).run(
                    copy_streams(streams))
        finally:
            san.uninstall()
        assert sanitizer.checks["pool-conservation"] == 1
        assert sanitizer.violations == []

        offered = sum(len(stream) for stream in streams.values())
        demand = {vm: sum(nominal_cost(item) for item in stream)
                  for vm, stream in streams.items()}
        for vm, stream in streams.items():
            assert stats[vm].completed == len(stream)
            assert stats[vm].device_time == pytest.approx(demand[vm])
        assert sum(s.device_time for s in stats.values()) \
            == pytest.approx(sum(demand.values()))
        if kind == "pool":
            assert sum(d.completed for d in result.device_stats.values()) \
                == offered
            assert result.total_nominal == pytest.approx(
                sum(demand.values()))
            for vm in streams:
                assert sum(c for _, c in result.vm_items[vm]) \
                    == pytest.approx(demand[vm])
