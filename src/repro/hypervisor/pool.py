"""Heterogeneous device pools and pool-aware scheduling.

The router so far fronted exactly one simulated device, so "scheduling
execution at function call granularity" (paper §4.3) never faced a
*placement* decision.  This module makes placement a first-class router
concern:

* :class:`DeviceClass` — a relative performance model (compute speed,
  transfer bandwidth, memory capacity) so a "big GPU / small GPU / NCS /
  QAT" mix is expressible in one currency,
* :class:`PooledDevice` / :class:`DevicePool` — pool membership,
  capacity-aware least-loaded placement with QoS steering, and lazy
  construction of the *native* simulated devices workers bind to,
* :class:`PoolScheduler` — a discrete-event engine layered on
  :class:`~repro.hypervisor.scheduler.FairShareScheduler`: weighted fair
  share *within* each device, least-loaded placement plus work stealing
  *across* devices, per-tenant device-time quotas, and both closed-loop
  (think time) and open-loop (arrival timestamps) traffic.

Costs are expressed in **nominal seconds** — the wall time an item would
take on the baseline device (the GTX 1080 of the figure-5 experiments).
A device with ``compute_scale`` 2.0 executes a 1 s nominal kernel in
0.5 s of wall time.  Fairness is measured in nominal service, which is
the only currency comparable across a heterogeneous pool.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hypervisor.policy import RateLimiter, ResourcePolicy
from repro.hypervisor.scheduler import (
    FairShareScheduler,
    Scheduler,
    StreamStats,
    WorkItem,
)
from repro.analysis import sanitizer as _sanitize
from repro.telemetry import tracer as _tele

#: baseline host↔device bandwidth used to convert transfer bytes into
#: nominal seconds (PCIe 3 x16, matching the default DeviceSpec)
BASELINE_TRANSFER_BPS = 12e9

#: quota key in ``VMPolicy.resource_limits``: cumulative nominal device
#: seconds a tenant may consume in one pool run
DEVICE_TIME_QUOTA = "device_time"


class PoolCapacityError(RuntimeError):
    """No pool member can satisfy a placement request."""


@dataclass(frozen=True)
class DeviceClass:
    """Relative performance model of one kind of pool member.

    Scales are relative to the baseline simulated GTX 1080: a class with
    ``compute_scale == 1.0`` and ``transfer_scale == 1.0`` *is* the
    baseline device, and its native spec is bit-identical to the
    implicit singleton the stack used before pools existed.
    """

    name: str
    #: kernel/compute throughput relative to the baseline GPU
    compute_scale: float = 1.0
    #: host↔device transfer bandwidth relative to the baseline GPU
    transfer_scale: float = 1.0
    #: device memory capacity, bytes
    memory_bytes: int = 8 * 1024**3

    def __post_init__(self) -> None:
        if self.compute_scale <= 0 or self.transfer_scale <= 0:
            raise ValueError("device scales must be positive")
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")

    # -- presets -----------------------------------------------------------

    @classmethod
    def baseline_gpu(cls) -> "DeviceClass":
        """The figure-5 GTX 1080; a 1-device pool of these reproduces the
        single-device results bit-identically."""
        return cls(name="gtx1080")

    @classmethod
    def big_gpu(cls) -> "DeviceClass":
        return cls(name="big-gpu", compute_scale=2.0, transfer_scale=2.0,
                   memory_bytes=16 * 1024**3)

    @classmethod
    def small_gpu(cls) -> "DeviceClass":
        return cls(name="small-gpu", compute_scale=0.25,
                   transfer_scale=0.5, memory_bytes=2 * 1024**3)

    @classmethod
    def ncs(cls) -> "DeviceClass":
        """Movidius stick: tiny compute, USB-class transfer."""
        return cls(name="ncs", compute_scale=0.05, transfer_scale=0.03,
                   memory_bytes=320 * 1024 * 1024)

    @classmethod
    def qat(cls) -> "DeviceClass":
        """QuickAssist engine: fixed-function, modest throughput."""
        return cls(name="qat", compute_scale=0.4, transfer_scale=0.5,
                   memory_bytes=512 * 1024 * 1024)

    # -- native spec builders (lazy imports: no cycles) --------------------

    def gpu_spec(self):
        """An OpenCL :class:`~repro.opencl.device.DeviceSpec` for this
        class.  The baseline class returns the *default* spec object so
        single-device pools stay bit-identical with the pre-pool stack."""
        from repro.opencl.device import DeviceSpec

        base = DeviceSpec()
        if (self.compute_scale == 1.0 and self.transfer_scale == 1.0
                and self.memory_bytes == base.global_mem_bytes):
            return base
        return DeviceSpec(
            name=f"{base.name} ({self.name})",
            flops=base.flops * self.compute_scale,
            mem_bandwidth=base.mem_bandwidth * self.compute_scale,
            pcie_bandwidth=base.pcie_bandwidth * self.transfer_scale,
            global_mem_bytes=self.memory_bytes,
        )

    def ncs_spec(self):
        from repro.mvnc.device import NCSDeviceSpec

        base = NCSDeviceSpec()
        if self.compute_scale == 1.0 and self.transfer_scale == 1.0:
            return base
        return NCSDeviceSpec(
            name=f"{base.name} ({self.name})",
            flops=base.flops * self.compute_scale,
            usb_bandwidth=base.usb_bandwidth * self.transfer_scale,
        )

    def qat_spec(self):
        from repro.qat.device import QATDeviceSpec

        base = QATDeviceSpec()
        if self.compute_scale == 1.0:
            return base
        return QATDeviceSpec(
            name=f"{base.name} ({self.name})",
            compress_bps=base.compress_bps * self.compute_scale,
            decompress_bps=base.decompress_bps * self.compute_scale,
        )


@dataclass
class PoolWorkItem(WorkItem):
    """A :class:`WorkItem` with an explicit transfer component, so
    heterogeneous transfer bandwidth matters to placement."""

    transfer_bytes: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.transfer_bytes < 0:
            raise ValueError("transfer_bytes cannot be negative")


def nominal_cost(item: WorkItem) -> float:
    """The item's wall time on the baseline device, seconds."""
    transfer = getattr(item, "transfer_bytes", 0.0)
    return item.duration + transfer / BASELINE_TRANSFER_BPS


class PooledDevice:
    """One member of a :class:`DevicePool`."""

    def __init__(self, device_id: str, device_class: DeviceClass) -> None:
        self.device_id = device_id
        self.device_class = device_class
        #: VMs currently homed here
        self.resident: Dict[str, float] = {}  # vm_id -> reserved bytes
        #: native simulated devices, built lazily, one per API — all
        #: workers co-placed on this member share these timelines
        self._native: Dict[str, object] = {}

    # -- capacity ----------------------------------------------------------

    @property
    def reserved_bytes(self) -> float:
        return sum(self.resident.values())

    def fits(self, reservation: float) -> bool:
        return (self.reserved_bytes + reservation
                <= self.device_class.memory_bytes)

    # -- timing ------------------------------------------------------------

    def wall_time(self, item: WorkItem) -> float:
        """Wall-clock occupancy of ``item`` on this member."""
        cls = self.device_class
        transfer = getattr(item, "transfer_bytes", 0.0)
        return (item.duration / cls.compute_scale
                + transfer / (BASELINE_TRANSFER_BPS * cls.transfer_scale))

    # -- native binding ----------------------------------------------------

    def native_device(self, api: str):
        """The native simulated device for ``api``, shared by every
        worker bound to this pool member."""
        if api not in self._native:
            cls = self.device_class
            if api == "opencl":
                from repro.opencl.device import SimulatedGPU

                self._native[api] = SimulatedGPU(spec=cls.gpu_spec())
            elif api == "mvnc":
                from repro.mvnc.device import SimulatedNCS

                self._native[api] = SimulatedNCS(spec=cls.ncs_spec())
            elif api == "qat":
                from repro.qat.device import SimulatedQAT

                self._native[api] = SimulatedQAT(spec=cls.qat_spec())
            else:
                raise ValueError(f"unknown API {api!r}")
        return self._native[api]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PooledDevice({self.device_id!r}, "
                f"{self.device_class.name}, vms={len(self.resident)})")


class DevicePool:
    """A heterogeneous set of pool members with placement policy.

    Placement is least-loaded normalized by capacity: each member's
    projected load is the sum of its residents' effective weights (plus
    the candidate's) divided by ``compute_scale``, so a device twice as
    fast hosts twice the weight before it looks equally loaded.  QoS
    steers ties: ``realtime`` tenants prefer the fastest class,
    ``best-effort`` the slowest.
    """

    def __init__(self, policy: Optional[ResourcePolicy] = None) -> None:
        self.policy = policy or ResourcePolicy()
        self.devices: List[PooledDevice] = []
        #: vm_id -> PooledDevice home
        self.assignments: Dict[str, PooledDevice] = {}

    @classmethod
    def from_classes(
        cls,
        classes: Sequence[DeviceClass],
        policy: Optional[ResourcePolicy] = None,
    ) -> "DevicePool":
        pool = cls(policy)
        for device_class in classes:
            pool.add(device_class)
        return pool

    def add(self, device_class: DeviceClass,
            device_id: Optional[str] = None) -> PooledDevice:
        if device_id is None:
            device_id = f"dev{len(self.devices)}-{device_class.name}"
        if any(d.device_id == device_id for d in self.devices):
            raise ValueError(f"duplicate device id {device_id!r}")
        device = PooledDevice(device_id, device_class)
        self.devices.append(device)
        return device

    @property
    def total_capacity(self) -> float:
        return sum(d.device_class.compute_scale for d in self.devices)

    def device_by_id(self, device_id: str) -> PooledDevice:
        for device in self.devices:
            if device.device_id == device_id:
                return device
        raise KeyError(device_id)

    # -- placement ---------------------------------------------------------

    def _reservation(self, vm_id: str) -> float:
        memory = self.policy.policy_for(vm_id).memory_bytes
        return float(memory) if memory is not None else 0.0

    def place(self, vm_id: str) -> PooledDevice:
        """Choose (and record) a home device for ``vm_id``."""
        if vm_id in self.assignments:
            return self.assignments[vm_id]
        if not self.devices:
            raise PoolCapacityError("pool has no devices")
        reservation = self._reservation(vm_id)
        candidates = [d for d in self.devices if d.fits(reservation)]
        if not candidates:
            raise PoolCapacityError(
                f"no device can reserve {reservation:.0f} bytes for "
                f"{vm_id!r}"
            )
        weight = self.policy.effective_weight(vm_id)
        qos = self.policy.policy_for(vm_id).qos
        # QoS steering on ties: realtime → fastest, best-effort → slowest
        steer = {"realtime": -1.0, "standard": 0.0, "best-effort": 1.0}[qos]

        def key(device: PooledDevice) -> Tuple[float, float, str]:
            scale = device.device_class.compute_scale
            resident_weight = sum(
                self.policy.effective_weight(vm) for vm in device.resident
            )
            projected = (resident_weight + weight) / scale
            return (projected, steer * scale, device.device_id)

        chosen = min(candidates, key=key)
        chosen.resident[vm_id] = reservation
        self.assignments[vm_id] = chosen
        return chosen

    def migrate(self, vm_id: str, target: PooledDevice) -> None:
        """Re-home ``vm_id`` onto ``target`` (work stealing)."""
        current = self.assignments.get(vm_id)
        reservation = self._reservation(vm_id)
        if not target.fits(reservation):
            raise PoolCapacityError(
                f"{target.device_id} cannot fit {vm_id!r}"
            )
        if current is not None:
            current.resident.pop(vm_id, None)
        target.resident[vm_id] = reservation
        self.assignments[vm_id] = target

    def release(self, vm_id: str) -> None:
        device = self.assignments.pop(vm_id, None)
        if device is not None:
            device.resident.pop(vm_id, None)


@dataclass
class DeviceStats:
    """Per-device outcome of a pool run."""

    device_id: str
    device_class: str
    compute_scale: float
    #: wall-clock busy time on this member
    busy_time: float = 0.0
    #: nominal (baseline-device) service delivered
    nominal_time: float = 0.0
    completed: int = 0
    finish_time: float = 0.0
    #: nominal service per VM that ran here
    vm_nominal: Dict[str, float] = field(default_factory=dict)

    def utilization(self, horizon: float) -> float:
        return self.busy_time / horizon if horizon > 0 else 0.0


@dataclass
class PoolRunResult:
    """Outcome of one :meth:`PoolScheduler.run`."""

    vm_stats: Dict[str, StreamStats]
    device_stats: Dict[str, DeviceStats]
    #: vm -> device_id at end of run (after any stealing)
    placements: Dict[str, str]
    #: per-VM (completion_time, nominal_cost) pairs, for windowed shares
    vm_items: Dict[str, List[Tuple[float, float]]]
    #: items dropped by per-tenant device-time quotas
    quota_dropped: Dict[str, int]
    steals: int
    makespan: float

    def weighted_shares(
        self,
        policy: ResourcePolicy,
        horizon: Optional[float] = None,
    ) -> Dict[str, float]:
        """Nominal service per effective weight, per VM, up to
        ``horizon`` (default: the whole run).  The input to Jain's
        index for the pool fairness gates."""
        shares: Dict[str, float] = {}
        for vm, items in self.vm_items.items():
            if horizon is None:
                total = sum(cost for _, cost in items)
            else:
                total = sum(cost for t, cost in items if t <= horizon)
            shares[vm] = total / policy.effective_weight(vm)
        return shares

    @property
    def total_nominal(self) -> float:
        return sum(d.nominal_time for d in self.device_stats.values())

    @property
    def aggregate_throughput(self) -> float:
        """Nominal seconds of service delivered per wall second."""
        return self.total_nominal / self.makespan if self.makespan else 0.0


class _Member:
    """Engine-side state of one pool member during a run."""

    __slots__ = ("device", "device_id", "policy", "stats", "free_at",
                 "start", "waiting", "ready", "fits")

    def __init__(self, device: PooledDevice, policy: Scheduler) -> None:
        self.device = device
        self.device_id = device.device_id
        self.policy = policy
        self.stats = DeviceStats(
            device_id=device.device_id,
            device_class=device.device_class.name,
            compute_scale=device.device_class.compute_scale,
        )
        self.free_at = 0.0
        #: earliest start among homed pending items (this event)
        self.start = 0.0
        #: (release, entry, stream) of homed items not yet released;
        #: an entry is live while its stream still holds its number
        self.waiting: List[Tuple[float, int, _Stream]] = []
        #: homed streams whose next item is released, by VM id
        self.ready: Dict[str, _Stream] = {}
        #: VM id -> whether this member can reserve the VM's memory
        self.fits: Dict[str, bool] = {}


class _Stream:
    """Engine-side state of one VM's stream during a run."""

    __slots__ = ("vm", "order", "items", "home", "arrivals", "quota",
                 "index", "submit", "release", "entry", "nominal")

    def __init__(self, vm: str, order: int, items: List[WorkItem],
                 home: _Member, arrivals: Optional[Sequence[float]],
                 quota: Optional[float]) -> None:
        self.vm = vm
        self.order = order
        self.items = items
        self.home = home
        self.arrivals = arrivals
        self.quota = quota
        self.index = 0
        #: submission time of the next item (before rate limiting)
        self.submit = 0.0
        if arrivals is not None and len(arrivals):
            self.submit = arrivals[0]
        self.release = 0.0
        #: number of the live entry in the home's waiting heap (0: none)
        self.entry = 0
        #: nominal service received so far (the quota's currency)
        self.nominal = 0.0


_stream_order = operator.attrgetter("order")


def _released_before(waiting: List[Tuple[float, int, _Stream]],
                     limit: float, out: List[_Stream]) -> None:
    """Append the streams of live ``waiting`` entries released before
    ``limit``, visiting only heap entries below it."""
    size = len(waiting)
    stack = [0] if size else []
    while stack:
        at = stack.pop()
        release, entry, stream = waiting[at]
        if release < limit:
            if stream.entry == entry:
                out.append(stream)
            child = 2 * at + 1
            if child < size:
                stack.append(child)
                if child + 1 < size:
                    stack.append(child + 1)


class PoolScheduler:
    """Discrete-event engine over a :class:`DevicePool`.

    Within a device: weighted start-time fair queuing (one
    :class:`FairShareScheduler` per member, same ``ResourcePolicy``).
    Across devices: VMs are homed by :meth:`DevicePool.place`; when the
    idlest member would otherwise sit idle while another member is
    backlogged, it *steals* one queued item from the VM whose
    completion improves most — the VM's home is untouched, and the
    stolen service still counts against its home fair share.
    Per-tenant ``device_time`` quotas drop work beyond the allowance
    instead of queueing it.

    The engine is event-indexed: each member keeps a heap of homed
    items not yet released plus its pick policy's ready set, so an
    event costs O(members + log VMs) except for the steal scan, which
    visits only items released before the idlest member's own work
    (see ``docs/scheduling.md``).  :class:`ContendedDevice` runs on the
    same engine as a 1-member pool.
    """

    def __init__(
        self,
        pool: DevicePool,
        rate_limiter: Optional[RateLimiter] = None,
        allow_stealing: bool = True,
    ) -> None:
        self.pool = pool
        self.policy = pool.policy
        self.rate_limiter = rate_limiter
        self.allow_stealing = allow_stealing

    def run(
        self,
        streams: Dict[str, List[WorkItem]],
        arrivals: Optional[Dict[str, Sequence[float]]] = None,
    ) -> PoolRunResult:
        """Run ``streams`` over the pool.

        ``arrivals`` switches a VM to open-loop traffic: item *i*
        submits at ``arrivals[vm][i]`` regardless of when item *i-1*
        completed (think times are ignored for such VMs).  Closed-loop
        VMs chain the next submission ``think_time`` after completion.
        """
        policies = [FairShareScheduler(self.policy)
                    for _ in self.pool.devices]
        return self._run(streams, arrivals, policies,
                         span_policy="PoolScheduler", span_op="pool",
                         span_device=True)

    def _run(
        self,
        streams: Dict[str, List[WorkItem]],
        arrivals: Optional[Dict[str, Sequence[float]]],
        policies: Sequence[Scheduler],
        span_policy: str,
        span_op: str,
        span_device: bool,
    ) -> PoolRunResult:
        """The engine, with one pick policy per pool member and the
        attributes of its per-item tracer spans."""
        if not streams:
            raise ValueError("no streams to schedule")
        if not self.pool.devices:
            raise PoolCapacityError("pool has no devices")
        arrivals = arrivals or {}
        for vm, times in arrivals.items():
            if len(times) < len(streams.get(vm, ())):
                raise ValueError(
                    f"arrivals for {vm!r} shorter than its stream"
                )

        # home every VM (deterministic order) and build per-device state
        for vm in sorted(streams):
            self.pool.place(vm)
        members: List[_Member] = []
        by_id: Dict[str, _Member] = {}
        for device, policy in zip(self.pool.devices, policies):
            policy.reset()
            member = _Member(device, policy)
            members.append(member)
            by_id[device.device_id] = member

        stats = {vm: StreamStats(vm_id=vm) for vm in streams}
        vm_items: Dict[str, List[Tuple[float, float]]] = {
            vm: [] for vm in streams
        }
        quota_dropped = {vm: 0 for vm in streams}
        limiter = self.rate_limiter
        entries = 0

        def enqueue(stream: _Stream) -> None:
            """Queue the stream's next item, or drop the rest of the
            stream when it would overrun the tenant's quota."""
            nonlocal entries
            index = stream.index
            items = stream.items
            if index == len(items):
                return
            if (stream.quota is not None
                    and stream.nominal + nominal_cost(items[index])
                    > stream.quota):
                quota_dropped[stream.vm] += len(items) - index
                stream.index = len(items)
                return
            release = stream.submit
            if limiter is not None:
                release = limiter.next_allowed(stream.vm, release)
            stream.release = release
            entries += 1
            stream.entry = entries
            heapq.heappush(stream.home.waiting, (release, entries, stream))

        for order, (vm, items) in enumerate(streams.items()):
            limits = self.policy.policy_for(vm).resource_limits
            enqueue(_Stream(
                vm, order, items,
                by_id[self.pool.assignments[vm].device_id],
                arrivals.get(vm),
                limits.get(DEVICE_TIME_QUOTA),
            ))

        tracer = _tele.active()
        tracing = tracer.enabled
        stealing = self.allow_stealing and len(members) > 1
        inf = float("inf")
        steals = 0
        makespan = 0.0

        while True:
            # -- natural dispatch: the member that can start earliest
            # among its *homed* pending VMs.  Released items never
            # postdate free_at, so a member with ready work starts then.
            chosen: Optional[_Member] = None
            chosen_time = inf
            for member in members:
                if member.ready:
                    start = member.free_at
                else:
                    waiting = member.waiting
                    while waiting and waiting[0][2].entry != waiting[0][1]:
                        heapq.heappop(waiting)
                    if not waiting:
                        member.start = inf
                        continue
                    start = max(member.free_at, waiting[0][0])
                member.start = start
                if (start < chosen_time
                        or (start == chosen_time and chosen is not None
                            and member.device_id < chosen.device_id)):
                    chosen_time = start
                    chosen = member
            if chosen is None:
                break

            # -- work stealing: the idlest member executes a *queued*
            # VM's next item in place of its backlogged home.  The VM's
            # home placement is untouched (no thrash), and the stolen
            # service is charged to the home device's fair-share usage,
            # so within-device SFQ still converges on weighted shares of
            # the VM's total service.
            stolen: Optional[_Stream] = None
            if stealing:
                thief = min(members,
                            key=lambda m: (m.free_at, m.device_id))
                thief_free = thief.free_at
                own_start = thief.start
                # only items released before the thief's own work can
                # start there earlier; none can when it has work ready
                if own_start > thief_free:
                    candidates: List[_Stream] = []
                    for member in members:
                        if member is thief:
                            continue
                        for stream in member.ready.values():
                            if stream.release < own_start:
                                candidates.append(stream)
                        _released_before(member.waiting, own_start,
                                         candidates)
                    # streams order: the 1e-12 tolerance below makes
                    # the outcome depend on the visiting order
                    candidates.sort(key=_stream_order)
                    best_gain = 0.0
                    steal_start = inf
                    fits = thief.fits
                    for stream in candidates:
                        vm = stream.vm
                        fit = fits.get(vm)
                        if fit is None:
                            fit = fits[vm] = thief.device.fits(
                                self.pool._reservation(vm))
                        if not fit:
                            continue
                        owner = stream.home
                        release = stream.release
                        candidate_start = max(thief_free, release)
                        item = stream.items[stream.index]
                        at_home = max(owner.free_at, release)
                        # stealing must improve *completion*, not start
                        gain = ((at_home + owner.device.wall_time(item))
                                - (candidate_start
                                   + thief.device.wall_time(item)))
                        if gain > best_gain + 1e-12 or (
                                gain == best_gain and stolen is not None
                                and vm < stolen.vm):
                            best_gain = gain
                            stolen = stream
                            steal_start = candidate_start
                    if stolen is not None and steal_start >= chosen_time:
                        stolen = None

            if stolen is not None:
                stream = stolen
                member = thief
                steals += 1
                owner = stream.home
                if owner.ready.pop(stream.vm, None) is not None:
                    owner.policy.leave(stream.vm)
                else:
                    stream.entry = 0
            else:
                member = chosen
                waiting = member.waiting
                while waiting and waiting[0][0] <= chosen_time:
                    release, entry, stream = heapq.heappop(waiting)
                    if stream.entry == entry:
                        stream.entry = 0
                        member.ready[stream.vm] = stream
                        member.policy.enter(stream.vm, release)
                stream = member.ready.pop(member.policy.pick())

            vm = stream.vm
            item = stream.items[stream.index]
            nominal = nominal_cost(item)
            wall = member.device.wall_time(item)
            release = stream.release
            start = max(member.free_at, release)
            end = start + wall
            member.free_at = end
            makespan = max(makespan, end)
            # fair-share usage accrues on the VM's *home* device, even
            # for stolen items — the home scheduler sees total service
            stream.home.policy.charge(vm, nominal)
            stream.nominal += nominal

            if tracing:
                where = {"device": member.device_id} if span_device else {}
                if start > release:
                    tracer.record_span(
                        "router.queue", release, start,
                        layer="router", vm_id=vm, policy=span_policy,
                        **where,
                    )
                tracer.record_span(
                    "device.compute", start, end, layer="device",
                    vm_id=vm, policy=span_policy, op=span_op, **where,
                )

            # queueing (waiting behind other VMs' device time) and
            # admission throttling (token-bucket delay) are different
            # phenomena: report them separately, with total_wait kept
            # as their sum for compatibility
            entry = stats[vm]
            entry.completed += 1
            entry.device_time += nominal
            entry.finish_time = end
            queue_wait = start - release
            throttle_wait = release - stream.submit
            entry.total_wait += queue_wait + throttle_wait
            entry.total_queue_wait += queue_wait
            entry.total_throttle_wait += throttle_wait
            entry.waits.append(queue_wait + throttle_wait)
            entry.queue_waits.append(queue_wait)
            entry.completions.append(end)
            vm_items[vm].append((end, nominal))

            dstats = member.stats
            dstats.busy_time += wall
            dstats.nominal_time += nominal
            dstats.completed += 1
            dstats.finish_time = end
            dstats.vm_nominal[vm] = dstats.vm_nominal.get(vm, 0.0) + nominal

            stream.index += 1
            if stream.arrivals is None:
                stream.submit = end + item.think_time
            elif stream.index < len(stream.items):
                stream.submit = stream.arrivals[stream.index]
            enqueue(stream)

        device_stats = {m.device_id: m.stats for m in members}
        san = _sanitize.active()
        if san.enabled:
            # conservation: nominal device time billed to VMs must equal
            # nominal device time the devices account — work is neither
            # invented nor lost by placement or stealing
            san.check_pool_conservation(
                sum(entry.device_time for entry in stats.values()),
                sum(dstats.nominal_time
                    for dstats in device_stats.values()),
            )

        return PoolRunResult(
            vm_stats=stats,
            device_stats=device_stats,
            placements={
                vm: self.pool.assignments[vm].device_id for vm in streams
            },
            vm_items=vm_items,
            quota_dropped=quota_dropped,
            steals=steals,
            makespan=makespan,
        )


# ---------------------------------------------------------------------------
# elastic rebalancing: utilization-driven live migration across members
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RebalancePolicy:
    """When a utilization imbalance is worth a live migration."""

    #: hot-minus-cold utilization gap that triggers a move
    min_spread: float = 0.15
    #: never migrate off a member cooler than this (absolute floor —
    #: rebalancing an idle pool just churns)
    min_hot_utilization: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_spread <= 1.0:
            raise ValueError("min_spread must be within [0, 1]")
        if not 0.0 <= self.min_hot_utilization <= 1.0:
            raise ValueError("min_hot_utilization must be within [0, 1]")


class PoolRebalancer:
    """Moves tenants off hot pool members with live migration.

    Watches per-member utilization through a
    :class:`~repro.telemetry.metrics.MetricsRegistry` (delta-absorbed,
    so repeated observation never double counts), and when the pool's
    utilization spread exceeds :attr:`RebalancePolicy.min_spread`, picks
    the hot member's busiest resident VM and live-migrates every one of
    its workers to the coolest member that fits it.  The move itself is
    the pre-copy/cutover protocol of :mod:`repro.migration.live` — the
    victim keeps serving on the hot member until its cutover windows.
    """

    def __init__(self, hypervisor: Any, registry: Any = None,
                 policy: Optional[RebalancePolicy] = None,
                 migration_policy: Any = None) -> None:
        if hypervisor.pool is None:
            raise PoolCapacityError(
                "rebalancing requires a device pool")
        if registry is None:
            from repro.telemetry.metrics import MetricsRegistry

            registry = MetricsRegistry()
        self.hv = hypervisor
        self.registry = registry
        self.policy = policy or RebalancePolicy()
        self.migration_policy = migration_policy
        #: completed migration reports, in the order moves were made
        self.moves: List[Any] = []

    # -- observation -------------------------------------------------------

    def utilizations(self) -> Dict[str, float]:
        """Fresh per-member utilization (absorbs the pool first)."""
        self.registry.absorb_pool(self.hv.pool)
        return {
            member.device_id:
                self.registry.devices[member.device_id].utilization
                if member.device_id in self.registry.devices else 0.0
            for member in self.hv.pool.devices
        }

    def utilization_spread(self) -> float:
        """Hottest-minus-coolest member utilization, [0, 1]."""
        utils = self.utilizations()
        if len(utils) < 2:
            return 0.0
        return max(utils.values()) - min(utils.values())

    # -- decision ----------------------------------------------------------

    def pick(self) -> Optional[Tuple[str, PooledDevice, PooledDevice]]:
        """The (victim VM, hot member, cold member) of the next move,
        or ``None`` when the pool is balanced enough to leave alone."""
        utils = self.utilizations()
        if len(utils) < 2:
            return None
        pool = self.hv.pool
        hot = max(pool.devices,
                  key=lambda d: (utils[d.device_id], d.device_id))
        cold = min(pool.devices,
                   key=lambda d: (utils[d.device_id], d.device_id))
        if hot is cold:
            return None
        spread = utils[hot.device_id] - utils[cold.device_id]
        if spread < self.policy.min_spread:
            return None
        if utils[hot.device_id] < self.policy.min_hot_utilization:
            return None
        # busiest resident first: moving the tenant that causes the
        # heat shrinks the spread fastest
        def busy(vm_id: str) -> float:
            return sum(
                worker.stats.busy_time
                for (wvm, _api), worker in self.hv.workers.items()
                if wvm == vm_id
            )

        victims = sorted(hot.resident,
                         key=lambda vm: (-busy(vm), vm))
        for vm_id in victims:
            if cold.fits(pool._reservation(vm_id)):
                return vm_id, hot, cold
        return None

    # -- action ------------------------------------------------------------

    def rebalance_once(self, serve: Any = None) -> List[Any]:
        """One rebalancing step: live-migrate the chosen victim's
        workers (every API) to the cold member.  Returns the migration
        reports (empty when the pool was already balanced).

        ``serve`` is forwarded to
        :meth:`~repro.hypervisor.hypervisor.Hypervisor.live_migrate_vm`
        — traffic keeps flowing on the hot member between pre-copy
        rounds.
        """
        choice = self.pick()
        if choice is None:
            return []
        vm_id, _hot, cold = choice
        reports = []
        apis = sorted(api for (wvm, api) in self.hv.workers
                      if wvm == vm_id)
        for api_name in apis:
            report = self.hv.live_migrate_vm(
                vm_id, api_name, target_device_id=cold.device_id,
                policy=self.migration_policy, serve=serve)
            reports.append(report)
            self.moves.append(report)
        return reports
