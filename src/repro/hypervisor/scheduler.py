"""Device-time schedulers and the contended-device simulation.

AvA's router "schedules execution at function call granularity" using
resource-usage approximations from the spec (§4.3).  This module provides
three pick policies over a shared device, and :class:`ContendedDevice`
to evaluate them on the pool engine:

* :class:`FifoScheduler` — arrival order (no isolation),
* :class:`RoundRobinScheduler` — alternate among VMs with ready work,
* :class:`FairShareScheduler` — weighted device-time fairness via
  virtual-time tags (start-time fair queuing at call granularity).

Each guest stream is *closed-loop*: a VM submits its next command some
think-time after its previous command completes — which is how real
guest applications behave and what makes fairness measurable.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hypervisor.policy import RateLimiter, ResourcePolicy


@dataclass
class WorkItem:
    """One device command in a guest's stream."""

    duration: float
    think_time: float = 0.0

    def __post_init__(self) -> None:
        if self.duration < 0 or self.think_time < 0:
            raise ValueError("durations cannot be negative")


class Scheduler:
    """Pick policy of one device, driven incrementally by the engine.

    The engine tells the policy when a VM *enters* the device's ready
    set (its next item is released), when it *leaves* without being
    picked (another member stole the item), and how much nominal service
    each VM was *charged*; :meth:`pick` then removes and returns the VM
    whose item runs next.  Keeping the ready set inside the policy lets
    each one index it for its own order instead of re-sorting every VM
    on every event.
    """

    def reset(self) -> None:
        """Discard per-run state.  The engine calls this at the start
        of every run so a scheduler instance can be reused across runs
        without leaking rotation or virtual-time state."""

    def enter(self, vm_id: str, release: float) -> None:
        raise NotImplementedError

    def leave(self, vm_id: str) -> None:
        raise NotImplementedError

    def charge(self, vm_id: str, service: float) -> None:
        """``vm_id`` received ``service`` nominal seconds (default: the
        policy ignores usage)."""

    def pick(self) -> str:
        raise NotImplementedError


class FifoScheduler(Scheduler):
    """No policy: whichever ready VM was released first (alphabetical
    tiebreak on equal release times)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: (release, vm) of ready VMs; entries of VMs that left since
        #: are skipped lazily
        self._heap: List[Tuple[float, str]] = []
        self._release: Dict[str, float] = {}

    def enter(self, vm_id: str, release: float) -> None:
        self._release[vm_id] = release
        heapq.heappush(self._heap, (release, vm_id))

    def leave(self, vm_id: str) -> None:
        del self._release[vm_id]

    def pick(self) -> str:
        while True:
            release, vm = heapq.heappop(self._heap)
            if self._release.get(vm) == release:
                del self._release[vm]
                return vm


class RoundRobinScheduler(Scheduler):
    """Cycle through VMs with ready work."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        # the rotation cursor is per-run state: without this, a second
        # run() on the same scheduler instance starts mid-rotation and
        # back-to-back runs of identical streams are not reproducible
        self._last: Optional[str] = None
        #: ready VMs, sorted by id
        self._ready: List[str] = []

    def enter(self, vm_id: str, release: float) -> None:
        bisect.insort(self._ready, vm_id)

    def leave(self, vm_id: str) -> None:
        del self._ready[bisect.bisect_left(self._ready, vm_id)]

    def pick(self) -> str:
        at = 0
        if self._last is not None:
            at = bisect.bisect_right(self._ready, self._last)
            if at == len(self._ready):
                at = 0
        self._last = self._ready.pop(at)
        return self._last


class FairShareScheduler(Scheduler):
    """Weighted fair sharing of device time (start-time fair queuing).

    Each VM carries a virtual-time tag: accumulated device time divided
    by its weight.  The scheduler always runs the ready VM with the
    smallest tag, so over any interval in which VMs stay busy their
    device time converges to the weight ratio.

    Tags are tracked internally rather than recomputed from raw usage:
    a VM that becomes ready late (or re-enters after idling) would carry
    ``usage ≈ 0`` and monopolize the device until it "caught up" with
    incumbents.  The classic SFQ re-entry rule applies instead — a VM
    (re-)entering the ready set has its tag clamped up to the minimum
    tag among VMs that were ready at the previous pick, so idle time
    earns no credit and a late joiner competes only for its weighted
    share going forward.

    Only VMs that joined the ready set since the last pick need work: a
    VM that stays ready has neither executed nor been re-clamped, so its
    tag sits unchanged in a heap.  Joiners fold the service charged
    since they were last ready into their tag, and a per-VM stamp of the
    last pick each VM was ready at tells an incumbent that just ran and
    is ready again from a true re-entrant.
    """

    def __init__(self, policy: Optional[ResourcePolicy] = None) -> None:
        self.policy = policy or ResourcePolicy()
        self.reset()

    def reset(self) -> None:
        #: per-VM virtual-time tags (weighted accumulated device time,
        #: plus any re-entry clamps)
        self._tags: Dict[str, float] = {}
        #: service charged per VM, and the part already folded into tags
        self._usage: Dict[str, float] = {}
        self._seen_usage: Dict[str, float] = {}
        #: ready VM -> picks done when it joined
        self._joined: Dict[str, int] = {}
        #: (tag, vm, joined) of ready VMs; an entry is live while the VM
        #: is still ready since that join
        self._heap: List[Tuple[float, str, int]] = []
        #: VMs that joined since the last pick, in join order
        self._entered: Dict[str, None] = {}
        #: VM -> number of the last pick it was ready at
        self._last_ready: Dict[str, int] = {}
        self._picks = 0

    def weight_of(self, vm_id: str) -> float:
        weight = self.policy.effective_weight(vm_id)
        if weight <= 0:
            raise ValueError(f"weight for {vm_id!r} must be positive")
        return weight

    def enter(self, vm_id: str, release: float) -> None:
        self._joined[vm_id] = self._picks
        self._entered[vm_id] = None

    def leave(self, vm_id: str) -> None:
        if self._joined.pop(vm_id) < self._picks:
            self._last_ready[vm_id] = self._picks
        self._entered.pop(vm_id, None)

    def charge(self, vm_id: str, service: float) -> None:
        self._usage[vm_id] = self._usage.get(vm_id, 0.0) + service

    def _top(self) -> Optional[Tuple[float, str, int]]:
        heap, joined = self._heap, self._joined
        while heap and joined.get(heap[0][1]) != heap[0][2]:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def pick(self) -> str:
        tags = self._tags
        entered = sorted(self._entered)
        self._entered = {}
        # fold device time charged since each joiner was last ready
        for vm in entered:
            used = self._usage.get(vm, 0.0)
            if vm in tags:
                delta = used - self._seen_usage.get(vm, 0.0)
                if delta > 0:
                    tags[vm] += delta / self.weight_of(vm)
            self._seen_usage[vm] = used
        # SFQ re-entry rule: the floor is the smallest tag among VMs
        # that were already ready at the previous pick (falling back to
        # the smallest existing tag when the whole ready set re-enters)
        previous = self._picks
        incumbents = [tags[vm] for vm in entered
                      if vm in tags and self._last_ready.get(vm) == previous]
        top = self._top()
        if top is not None:
            incumbents.append(top[0])
        if not incumbents:
            incumbents = [tags[vm] for vm in entered if vm in tags]
        floor = min(incumbents) if incumbents else 0.0
        for vm in entered:
            if vm not in tags:
                tags[vm] = floor
            elif self._last_ready.get(vm) != previous:
                tags[vm] = max(tags[vm], floor)
            heapq.heappush(self._heap, (tags[vm], vm, previous))
        self._picks += 1
        _, vm, _ = self._top()
        self.leave(vm)
        return vm


@dataclass
class StreamStats:
    """Per-VM outcome of a contended run."""

    vm_id: str
    completed: int = 0
    device_time: float = 0.0
    finish_time: float = 0.0
    #: total wait (submission → start) = queue wait + throttle wait
    total_wait: float = 0.0
    #: wait spent queued behind other VMs' work (throttle excluded)
    total_queue_wait: float = 0.0
    #: wait injected by the admission rate limiter (token bucket)
    total_throttle_wait: float = 0.0
    #: completion timestamps (for throughput-over-time analysis)
    completions: List[float] = field(default_factory=list)
    #: per-item total waits (submission → start, throttle included)
    waits: List[float] = field(default_factory=list)
    #: per-item queueing waits (rate-limiter release → start)
    queue_waits: List[float] = field(default_factory=list)

    @property
    def max_wait(self) -> float:
        return max(self.waits) if self.waits else 0.0

    @property
    def mean_wait(self) -> float:
        return self.total_wait / self.completed if self.completed else 0.0


class ContendedDevice:
    """Discrete-event simulation of N closed-loop guests sharing a device.

    One non-preemptive device (AvA schedules at call granularity — it
    cannot preempt a running kernel), per-VM closed-loop streams, an
    optional router rate limiter applied at submission, and a pluggable
    pick policy.  It runs on the pool engine
    (:class:`~repro.hypervisor.pool.PoolScheduler`) as a 1-member
    baseline pool whose member picks with ``scheduler``.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        rate_limiter: Optional[RateLimiter] = None,
    ) -> None:
        self.scheduler = scheduler
        self.rate_limiter = rate_limiter

    def run(self, streams: Dict[str, List[WorkItem]]) -> Dict[str, StreamStats]:
        from repro.hypervisor.pool import (
            DeviceClass,
            DevicePool,
            PoolScheduler,
        )

        pool = DevicePool.from_classes([DeviceClass.baseline_gpu()])
        engine = PoolScheduler(pool, rate_limiter=self.rate_limiter)
        result = engine._run(
            streams, None, [self.scheduler],
            span_policy=type(self.scheduler).__name__,
            span_op="contended", span_device=False,
        )
        return result.vm_stats


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly fair, 1/n = maximally unfair."""
    values = [v for v in values]
    if not values or all(v == 0 for v in values):
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    return (total * total) / (len(values) * squares)
