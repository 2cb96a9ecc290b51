"""Heterogeneous device-pool sweep: fairness, throughput, placement.

Hundreds of VMs replaying real traces (mixed Rodinia + Inception) share
a 6-member pool — one big GPU, two baseline GTX 1080s, two small GPUs
and an NCS — under the pool-aware scheduler: capacity-normalized
least-loaded placement, weighted fair share within each member, and
item-level work stealing across members.

Gates (asserted here and by the CI ``pool`` job):

* Jain fairness on weighted nominal device time, measured at half the
  makespan (while everyone is still contending), must be >= 0.9;
* the pool's aggregate nominal throughput must beat the best single
  device (the big GPU) running the identical fleet, by >= 1.2x;
* the p99 per-item queue wait must stay below 10% of the makespan;
* every member must be busy (utilization >= 0.7) — placement that
  strands capacity fails even if fairness holds.

An open-loop leg drives a smaller fleet with Poisson arrivals at 70% of
pool capacity through the same engine (arrival timestamps instead of
closed-loop think times).

Virtual time is deterministic, so the sweep must also reproduce the
stored ``BENCH_pool.json`` exactly; the gate compares against it and
writes nothing.
"""

import json
import os

from repro.harness.loadgen import PoissonArrivals
from repro.harness.pool import (
    extract_inception_trace,
    fleet_streams,
    rodinia_traces,
    run_pool_fleet,
)
from repro.hypervisor.pool import DeviceClass, DevicePool, nominal_cost
from repro.hypervisor.scheduler import jain_fairness
from repro.telemetry.metrics import percentile
from repro.workloads import BFSWorkload, HotspotWorkload

#: the stored sweep every run must reproduce
STORED = os.path.join(os.path.dirname(__file__), "BENCH_pool.json")

#: fleet size (the acceptance gate requires >= 200 VMs)
VM_COUNT = 200
#: per-VM demand: replays of the busiest base trace
REPEATS = 2
#: workload scale for the Rodinia traces
SCALE = 0.25
#: open-loop leg size
OPEN_VMS = 40
OPEN_LOAD = 0.7

#: gates
MIN_FAIRNESS = 0.90
MIN_SPEEDUP = 1.2
MAX_P99_WAIT_FRACTION = 0.10
MIN_UTILIZATION = 0.70

#: the heterogeneous pool under test
POOL_CLASSES = (
    DeviceClass.big_gpu(),
    DeviceClass.baseline_gpu(),
    DeviceClass.baseline_gpu(),
    DeviceClass.small_gpu(),
    DeviceClass.small_gpu(),
    DeviceClass.ncs(),
)


def base_traces():
    return rodinia_traces([BFSWorkload, HotspotWorkload], scale=SCALE) + [
        extract_inception_trace()
    ]


def make_pool(classes=POOL_CLASSES):
    return DevicePool.from_classes(list(classes))


def run_closed_loop(bases):
    streams = fleet_streams(VM_COUNT, bases, repeats=REPEATS,
                            equalize_demand=True)
    pool = make_pool()
    result = run_pool_fleet(pool, streams)
    shares = result.weighted_shares(pool.policy,
                                    horizon=0.5 * result.makespan)
    fairness = jain_fairness(list(shares.values()))
    waits = [w for s in result.vm_stats.values() for w in s.queue_waits]
    p99_wait = percentile(waits, 0.99)

    single = run_pool_fleet(
        make_pool([DeviceClass.big_gpu()]), streams
    )
    return {
        "vm_count": VM_COUNT,
        "items": sum(len(s) for s in streams.values()),
        "fairness": fairness,
        "fairness_horizon_fraction": 0.5,
        "makespan_ms": result.makespan * 1e3,
        "steals": result.steals,
        "aggregate_throughput": result.aggregate_throughput,
        "p99_queue_wait_ms": p99_wait * 1e3,
        "p50_queue_wait_ms": percentile(waits, 0.5) * 1e3,
        "single_best": {
            "device_class": "big-gpu",
            "makespan_ms": single.makespan * 1e3,
            "aggregate_throughput": single.aggregate_throughput,
        },
        "speedup_vs_single_best": single.makespan / result.makespan,
        "per_device": [
            {
                "device": d.device_id,
                "class": d.device_class,
                "compute_scale": d.compute_scale,
                "vms": len(d.vm_nominal),
                "completed": d.completed,
                "busy_ms": d.busy_time * 1e3,
                "nominal_ms": d.nominal_time * 1e3,
                "utilization": d.utilization(result.makespan),
            }
            for d in result.device_stats.values()
        ],
    }


def run_open_loop_leg(bases):
    """Poisson arrivals at ``OPEN_LOAD`` x pool capacity, same engine."""
    streams = fleet_streams(OPEN_VMS, bases, repeats=1,
                            equalize_demand=True, prefix="ol")
    pool = make_pool()
    mean_nominal = {
        vm: sum(nominal_cost(i) for i in items) / len(items)
        for vm, items in streams.items()
    }
    capacity = pool.total_capacity
    processes = {
        vm: PoissonArrivals(
            rate=OPEN_LOAD * capacity / (OPEN_VMS * mean_nominal[vm]),
            seed=11 + i,
        )
        for i, vm in enumerate(sorted(streams))
    }
    result = run_pool_fleet(pool, streams, arrival_processes=processes)
    waits = [w for s in result.vm_stats.values() for w in s.queue_waits]
    offered = sum(len(s) for s in streams.values())
    completed = sum(s.completed for s in result.vm_stats.values())
    return {
        "vm_count": OPEN_VMS,
        "load_factor": OPEN_LOAD,
        "offered": offered,
        "completed": completed,
        "makespan_ms": result.makespan * 1e3,
        "steals": result.steals,
        "p50_queue_wait_ms": percentile(waits, 0.5) * 1e3,
        "p99_queue_wait_ms": percentile(waits, 0.99) * 1e3,
    }


def run_sweep():
    bases = base_traces()
    return {
        "devices": [
            {"class": c.name, "compute_scale": c.compute_scale,
             "transfer_scale": c.transfer_scale,
             "memory_bytes": c.memory_bytes}
            for c in POOL_CLASSES
        ],
        "closed_loop": run_closed_loop(bases),
        "open_loop": run_open_loop_leg(bases),
    }


def check_gates(payload):
    closed = payload["closed_loop"]
    assert closed["vm_count"] >= 200
    assert len(payload["devices"]) >= 4
    assert closed["fairness"] >= MIN_FAIRNESS, (
        f"pool fairness {closed['fairness']:.4f} below {MIN_FAIRNESS}"
    )
    single = closed["single_best"]["aggregate_throughput"]
    assert closed["aggregate_throughput"] >= MIN_SPEEDUP * single, (
        f"pool throughput {closed['aggregate_throughput']:.2f} not "
        f">= {MIN_SPEEDUP}x the best single device ({single:.2f})"
    )
    assert (closed["p99_queue_wait_ms"]
            <= MAX_P99_WAIT_FRACTION * closed["makespan_ms"]), (
        f"p99 queue wait {closed['p99_queue_wait_ms']:.2f} ms exceeds "
        f"{MAX_P99_WAIT_FRACTION:.0%} of makespan "
        f"{closed['makespan_ms']:.2f} ms"
    )
    for row in closed["per_device"]:
        assert row["utilization"] >= MIN_UTILIZATION, (
            f"{row['device']} stranded: utilization "
            f"{row['utilization']:.2f}"
        )
    open_leg = payload["open_loop"]
    assert open_leg["completed"] == open_leg["offered"], (
        "open-loop leg dropped requests"
    )


def check_stored(payload):
    """The sweep must equal the stored file exactly, floats included
    (a JSON round trip normalizes tuples to lists)."""
    with open(STORED, encoding="utf-8") as handle:
        stored = json.load(handle)
    assert json.loads(json.dumps(payload)) == stored, (
        "pool sweep no longer reproduces BENCH_pool.json"
    )


def test_pool_gate():
    """Fixture-free CI gate: run the full sweep, assert the gates and
    exact equality with the stored file."""
    payload = run_sweep()
    check_gates(payload)
    check_stored(payload)


def test_pool_sweep(once):
    """The full sweep under pytest-benchmark, printing the tables."""
    payload = once(run_sweep)
    check_gates(payload)
    check_stored(payload)

    from conftest import print_table

    closed = payload["closed_loop"]
    print_table(
        "device pool (200 VMs, mixed Rodinia + inception)",
        ["device", "class", "scale", "vms", "completed", "busy ms",
         "util"],
        [[r["device"], r["class"], f"{r['compute_scale']:g}",
          str(r["vms"]), str(r["completed"]), f"{r['busy_ms']:.1f}",
          f"{r['utilization']:.2f}"]
         for r in closed["per_device"]],
    )
    print(
        f"fairness {closed['fairness']:.4f}, "
        f"throughput {closed['aggregate_throughput']:.2f} nominal/s "
        f"({closed['speedup_vs_single_best']:.2f}x best single device), "
        f"p99 queue wait {closed['p99_queue_wait_ms']:.2f} ms, "
        f"{closed['steals']} steals"
    )
