"""Frozen O(N)-per-event scheduling engines: the differential oracle.

These are the two discrete-event loops the project shipped before the
event-indexed engine in :mod:`repro.hypervisor.pool` replaced them:
``PoolScheduler.run`` and ``ContendedDevice.run``, each rescanning every
VM on every event, plus the ``pick(ready, usage)`` policies they drove.
They are kept verbatim as a test-only reference (the policy classes
keep their former names, so traced spans match too) —
``tests/test_engine.py`` asserts the production engine reproduces them
field by field, float bits included.  Nothing under ``src/`` imports
this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import sanitizer as _sanitize
from repro.hypervisor.policy import RateLimiter, ResourcePolicy
from repro.hypervisor.pool import (
    DEVICE_TIME_QUOTA,
    DeviceStats,
    DevicePool,
    PoolCapacityError,
    PoolRunResult,
    PooledDevice,
    nominal_cost,
)
from repro.hypervisor.scheduler import StreamStats, WorkItem
from repro.telemetry import tracer as _tele


class FifoScheduler:
    def reset(self) -> None:
        pass

    def pick(self, ready: Sequence[str], usage: Dict[str, float]) -> str:
        return ready[0]


class RoundRobinScheduler:
    def __init__(self) -> None:
        self._last: Optional[str] = None

    def reset(self) -> None:
        self._last = None

    def pick(self, ready: Sequence[str], usage: Dict[str, float]) -> str:
        ordered = sorted(ready)
        if self._last is None:
            choice = ordered[0]
        else:
            after = [vm for vm in ordered if vm > self._last]
            choice = after[0] if after else ordered[0]
        self._last = choice
        return choice


class FairShareScheduler:
    def __init__(self, policy: Optional[ResourcePolicy] = None) -> None:
        self.policy = policy or ResourcePolicy()
        self._tags: Dict[str, float] = {}
        self._seen_usage: Dict[str, float] = {}
        self._prev_ready: frozenset = frozenset()

    def reset(self) -> None:
        self._tags.clear()
        self._seen_usage.clear()
        self._prev_ready = frozenset()

    def weight_of(self, vm_id: str) -> float:
        weight = self.policy.effective_weight(vm_id)
        if weight <= 0:
            raise ValueError(f"weight for {vm_id!r} must be positive")
        return weight

    def pick(self, ready: Sequence[str], usage: Dict[str, float]) -> str:
        ordered = sorted(ready)
        for vm in ordered:
            used = usage.get(vm, 0.0)
            if vm in self._tags:
                delta = used - self._seen_usage.get(vm, 0.0)
                if delta > 0:
                    self._tags[vm] += delta / self.weight_of(vm)
            self._seen_usage[vm] = used
        incumbents = [self._tags[vm] for vm in ordered
                      if vm in self._tags and vm in self._prev_ready]
        if not incumbents:
            incumbents = [self._tags[vm] for vm in ordered
                          if vm in self._tags]
        floor = min(incumbents) if incumbents else 0.0
        for vm in ordered:
            if vm not in self._tags:
                self._tags[vm] = floor
            elif vm not in self._prev_ready:
                self._tags[vm] = max(self._tags[vm], floor)
        self._prev_ready = frozenset(ordered)
        return min(ordered, key=lambda vm: (self._tags[vm], vm))


def contended_run(
    scheduler,
    streams: Dict[str, List[WorkItem]],
    rate_limiter: Optional[RateLimiter] = None,
) -> Dict[str, StreamStats]:
    """The former ``ContendedDevice.run``."""
    if not streams:
        raise ValueError("no streams to schedule")
    scheduler.reset()
    stats = {vm: StreamStats(vm_id=vm) for vm in streams}
    index = {vm: 0 for vm in streams}
    next_submit = {vm: 0.0 for vm in streams}
    usage: Dict[str, float] = {vm: 0.0 for vm in streams}
    device_free = 0.0
    release_cache: Dict[str, Optional[float]] = {vm: None
                                                 for vm in streams}

    def remaining(vm: str) -> bool:
        return index[vm] < len(streams[vm])

    while any(remaining(vm) for vm in streams):
        release = {}
        for vm in streams:
            if remaining(vm):
                if release_cache[vm] is None:
                    submit = next_submit[vm]
                    if rate_limiter is not None:
                        submit = rate_limiter.next_allowed(vm, submit)
                    release_cache[vm] = submit
                release[vm] = release_cache[vm]
        ready = [vm for vm, t in release.items() if t <= device_free]
        if not ready:
            device_free = min(release.values())
            ready = [vm for vm, t in release.items() if t <= device_free]
        ready.sort(key=lambda vm: (release[vm], vm))
        chosen = scheduler.pick(ready, usage)
        item = streams[chosen][index[chosen]]
        start = max(device_free, release[chosen])
        end = start + item.duration
        device_free = end
        usage[chosen] += item.duration

        tracer = _tele.active()
        if tracer.enabled:
            policy = type(scheduler).__name__
            if start > release[chosen]:
                tracer.record_span(
                    "router.queue", release[chosen], start,
                    layer="router", vm_id=chosen, policy=policy,
                )
            tracer.record_span(
                "device.compute", start, end, layer="device",
                vm_id=chosen, policy=policy, op="contended",
            )

        entry = stats[chosen]
        entry.completed += 1
        entry.device_time += item.duration
        entry.finish_time = end
        queue_wait = start - release[chosen]
        throttle_wait = release[chosen] - next_submit[chosen]
        entry.total_wait += queue_wait + throttle_wait
        entry.total_queue_wait += queue_wait
        entry.total_throttle_wait += throttle_wait
        entry.waits.append(queue_wait + throttle_wait)
        entry.queue_waits.append(queue_wait)
        entry.completions.append(end)

        index[chosen] += 1
        next_submit[chosen] = end + item.think_time
        release_cache[chosen] = None
    return stats


def pool_run(
    pool: DevicePool,
    streams: Dict[str, List[WorkItem]],
    arrivals: Optional[Dict[str, Sequence[float]]] = None,
    rate_limiter: Optional[RateLimiter] = None,
    allow_stealing: bool = True,
) -> PoolRunResult:
    """The former ``PoolScheduler.run``."""
    policy = pool.policy
    if not streams:
        raise ValueError("no streams to schedule")
    if not pool.devices:
        raise PoolCapacityError("pool has no devices")
    arrivals = arrivals or {}
    for vm, times in arrivals.items():
        if len(times) < len(streams.get(vm, ())):
            raise ValueError(
                f"arrivals for {vm!r} shorter than its stream"
            )

    for vm in sorted(streams):
        pool.place(vm)
    home: Dict[str, PooledDevice] = {
        vm: pool.assignments[vm] for vm in streams
    }
    free_at: Dict[str, float] = {
        d.device_id: 0.0 for d in pool.devices
    }
    schedulers: Dict[str, FairShareScheduler] = {}
    usage: Dict[str, Dict[str, float]] = {}
    for device in pool.devices:
        scheduler = FairShareScheduler(policy)
        scheduler.reset()
        schedulers[device.device_id] = scheduler
        usage[device.device_id] = {}

    stats = {vm: StreamStats(vm_id=vm) for vm in streams}
    device_stats = {
        d.device_id: DeviceStats(
            device_id=d.device_id,
            device_class=d.device_class.name,
            compute_scale=d.device_class.compute_scale,
        )
        for d in pool.devices
    }
    vm_items: Dict[str, List[Tuple[float, float]]] = {
        vm: [] for vm in streams
    }
    quota_dropped = {vm: 0 for vm in streams}
    total_nominal = {vm: 0.0 for vm in streams}
    index = {vm: 0 for vm in streams}
    next_submit = {vm: 0.0 for vm in streams}
    for vm, times in arrivals.items():
        if vm in next_submit and len(times):
            next_submit[vm] = times[0]
    release_cache: Dict[str, Optional[float]] = {
        vm: None for vm in streams
    }
    steals = 0
    makespan = 0.0

    def remaining(vm: str) -> bool:
        return index[vm] < len(streams[vm])

    def quota_of(vm: str) -> Optional[float]:
        limits = policy.policy_for(vm).resource_limits
        return limits.get(DEVICE_TIME_QUOTA)

    while True:
        for vm in streams:
            if not remaining(vm):
                continue
            quota = quota_of(vm)
            if quota is None:
                continue
            item = streams[vm][index[vm]]
            if total_nominal[vm] + nominal_cost(item) > quota:
                quota_dropped[vm] += len(streams[vm]) - index[vm]
                index[vm] = len(streams[vm])
                release_cache[vm] = None

        pending = [vm for vm in streams if remaining(vm)]
        if not pending:
            break

        release: Dict[str, float] = {}
        for vm in pending:
            if release_cache[vm] is None:
                submit = next_submit[vm]
                if rate_limiter is not None:
                    submit = rate_limiter.next_allowed(vm, submit)
                release_cache[vm] = submit
            release[vm] = release_cache[vm]

        chosen_device: Optional[PooledDevice] = None
        chosen_time = float("inf")
        for device in pool.devices:
            vms = [vm for vm in pending if home[vm] is device]
            if not vms:
                continue
            start = max(
                free_at[device.device_id],
                min(release[vm] for vm in vms),
            )
            if (start < chosen_time
                    or (start == chosen_time and chosen_device is not None
                        and device.device_id
                        < chosen_device.device_id)):
                chosen_time = start
                chosen_device = device
        assert chosen_device is not None

        steal_vm: Optional[str] = None
        steal_start = float("inf")
        stolen = False
        if allow_stealing and len(pool.devices) > 1:
            thief = min(
                pool.devices,
                key=lambda d: (free_at[d.device_id], d.device_id),
            )
            thief_free = free_at[thief.device_id]
            own = [vm for vm in pending if home[vm] is thief]
            own_start = (max(thief_free, min(release[vm] for vm in own))
                         if own else float("inf"))
            best_gain = 0.0
            for vm in pending:
                owner = home[vm]
                if owner is thief:
                    continue
                candidate_start = max(thief_free, release[vm])
                if candidate_start >= own_start:
                    continue
                if not thief.fits(pool._reservation(vm)):
                    continue
                item = streams[vm][index[vm]]
                at_home = max(free_at[owner.device_id], release[vm])
                gain = ((at_home + owner.wall_time(item))
                        - (candidate_start + thief.wall_time(item)))
                if gain > best_gain + 1e-12 or (
                        gain == best_gain and steal_vm is not None
                        and vm < steal_vm):
                    best_gain = gain
                    steal_vm = vm
                    steal_start = candidate_start
            if steal_vm is not None and steal_start < chosen_time:
                chosen_device = thief
                chosen = steal_vm
                stolen = True
                steals += 1

        device_id = chosen_device.device_id
        if not stolen:
            ready = [
                vm for vm in pending
                if home[vm] is chosen_device
                and release[vm] <= chosen_time
            ]
            ready.sort(key=lambda vm: (release[vm], vm))
            chosen = schedulers[device_id].pick(ready, usage[device_id])

        item = streams[chosen][index[chosen]]
        nominal = nominal_cost(item)
        wall = chosen_device.wall_time(item)
        start = max(free_at[device_id], release[chosen])
        end = start + wall
        free_at[device_id] = end
        makespan = max(makespan, end)
        home_id = home[chosen].device_id
        usage[home_id][chosen] = (
            usage[home_id].get(chosen, 0.0) + nominal
        )
        total_nominal[chosen] += nominal

        tracer = _tele.active()
        if tracer.enabled:
            if start > release[chosen]:
                tracer.record_span(
                    "router.queue", release[chosen], start,
                    layer="router", vm_id=chosen, policy="PoolScheduler",
                    device=device_id,
                )
            tracer.record_span(
                "device.compute", start, end, layer="device",
                vm_id=chosen, policy="PoolScheduler", op="pool",
                device=device_id,
            )

        entry = stats[chosen]
        entry.completed += 1
        entry.device_time += nominal
        entry.finish_time = end
        queue_wait = start - release[chosen]
        throttle_wait = release[chosen] - next_submit[chosen]
        entry.total_wait += queue_wait + throttle_wait
        entry.total_queue_wait += queue_wait
        entry.total_throttle_wait += throttle_wait
        entry.waits.append(queue_wait + throttle_wait)
        entry.queue_waits.append(queue_wait)
        entry.completions.append(end)
        vm_items[chosen].append((end, nominal))

        dstats = device_stats[device_id]
        dstats.busy_time += wall
        dstats.nominal_time += nominal
        dstats.completed += 1
        dstats.finish_time = end
        dstats.vm_nominal[chosen] = (
            dstats.vm_nominal.get(chosen, 0.0) + nominal
        )

        index[chosen] += 1
        if chosen in arrivals:
            if remaining(chosen):
                next_submit[chosen] = arrivals[chosen][index[chosen]]
        else:
            next_submit[chosen] = end + item.think_time
        release_cache[chosen] = None

    san = _sanitize.active()
    if san.enabled:
        san.check_pool_conservation(
            sum(entry.device_time for entry in stats.values()),
            sum(dstats.nominal_time
                for dstats in device_stats.values()),
        )

    return PoolRunResult(
        vm_stats=stats,
        device_stats=device_stats,
        placements={
            vm: home[vm].device_id for vm in streams
        },
        vm_items=vm_items,
        quota_dropped=quota_dropped,
        steals=steals,
        makespan=makespan,
    )
