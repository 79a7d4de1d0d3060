"""Cloud model: provisioning, billing, idle scan, runtime variability."""

import math
import random

import pytest

from conftest import MICRO, chain_workflow, single_workload
from waasim import engine
from waasim.cloud import (CloudConfig, Fleet, VariabilityConfig, VmType,
                          default_catalog, estimated_task_cost, finalize_billing,
                          task_runtime_on)
from waasim.errors import ConfigError, IllegalState
from waasim.units import usec


def table_type(name):
    return {t.name: t for t in default_catalog()}[name]


def test_catalog_prices():
    prices = {t.name: t.price_per_second for t in default_catalog()}
    assert prices == {"t2.micro": 0.0000041, "t2.small": 0.0000082,
                      "t2.medium": 0.0000164, "t2.large": 0.0000382}


def test_provision_available_after_delay():
    config = CloudConfig(provisioning_delay=90.0)
    fleet = Fleet(config)
    vm = fleet.provision(table_type("t2.large"), usec(0.0))
    assert vm.state == "provisioning"
    assert vm.available_at_us == usec(90.0)

    zero = Fleet(CloudConfig(provisioning_delay=0.0))
    vm0 = zero.provision(table_type("t2.micro"), usec(5.0))
    assert vm0.available_at_us == usec(5.0)


def test_provision_distinct_ids():
    fleet = Fleet(CloudConfig())
    a = fleet.provision(table_type("t2.micro"), 0)
    b = fleet.provision(table_type("t2.micro"), 0)
    assert a.id != b.id


def test_runtime_no_variability():
    assert task_runtime_on(table_type("t2.large"), 100.0) == 50.0
    assert task_runtime_on(table_type("t2.micro"), 100.0) == 100.0
    with pytest.raises(ValueError):
        task_runtime_on(table_type("t2.micro"), 0.0)


def test_runtime_lognormal_mean():
    sigma = 0.1
    var = VariabilityConfig("lognormal", sigma)
    rng = random.Random(12345)
    vm_type = table_type("t2.large")
    draws = [task_runtime_on(vm_type, 100.0, rng, var) for _ in range(10_000)]
    expected = 100.0 * math.exp(sigma ** 2 / 2) / vm_type.speed_factor
    mean = sum(draws) / len(draws)
    assert abs(mean - expected) / expected < 0.03


def test_estimated_task_cost_examples():
    assert estimated_task_cost(table_type("t2.large"), 100.0) == pytest.approx(0.00382)
    assert estimated_task_cost(table_type("t2.micro"), 100.0) == pytest.approx(0.00041)
    assert estimated_task_cost(table_type("t2.micro"), 99.2) == pytest.approx(0.00041)


def test_idle_scan_boundary():
    config = CloudConfig(provisioning_delay=0.0, idle_threshold=60.0)
    fleet = Fleet(config)
    vm = fleet.provision(table_type("t2.micro"), 0)
    fleet.mark_available(vm, 0)
    assert fleet.idle_scan(usec(59.0)) == []
    assert vm.state == "idle"
    assert fleet.idle_scan(usec(60.0)) == [vm]
    assert vm.state == "terminated"


def test_idle_scan_skips_busy_and_provisioning():
    config = CloudConfig(provisioning_delay=50.0, idle_threshold=60.0)
    fleet = Fleet(config)
    busy = fleet.provision(table_type("t2.micro"), 0)
    fleet.mark_available(busy, usec(50.0))
    fleet.start_task(busy, usec(50.0), usec(300.0))
    cold = fleet.provision(table_type("t2.micro"), usec(50.0))
    assert fleet.idle_scan(usec(200.0)) == []
    assert busy.state == "busy" and cold.state == "provisioning"


def test_expiry_and_release_in_provision_order():
    """VMs expiring or coming due at one instant are returned in provision
    order, also past vm-9999, where the id strings sort the other way."""
    config = CloudConfig(provisioning_delay=0.0, deprovisioning_delay=10.0)
    fleet = Fleet(config)
    vms = [fleet.provision(table_type("t2.micro"), 0) for _ in range(10_001)]
    v9998, v9999, v10000, v10001 = vms[-4:]
    assert (v9999.id, v10000.id) == ("vm-9999", "vm-10000")
    fleet.mark_available(v10000, 0)
    fleet.mark_available(v9999, usec(5.0))
    assert fleet.idle_scan(usec(65.0)) == [v9999, v10000]
    for vm in (v10001, v9998):  # terminated directly, newest first
        fleet.mark_available(vm, usec(65.0))
        fleet.terminate(vm, usec(65.0))
    assert fleet.release_due(usec(74.0)) == []
    assert fleet.release_due(usec(75.0)) == [v9998, v9999, v10000, v10001]
    assert fleet.release_due(usec(90.0)) == []


def test_unreleased_until_last_release():
    config = CloudConfig(provisioning_delay=5.0, deprovisioning_delay=10.0,
                         idle_threshold=60.0)
    fleet = Fleet(config)
    assert not fleet.unreleased(0)
    a = fleet.provision(table_type("t2.micro"), 0)
    b = fleet.provision(table_type("t2.micro"), 0)
    assert fleet.unreleased(0)
    for vm in (a, b):
        fleet.mark_available(vm, usec(5.0))
    fleet.start_task(b, usec(5.0), usec(30.0))
    assert fleet.idle_scan(usec(65.0)) == [a]
    assert fleet.unreleased(usec(80.0))  # b is still live
    fleet.finish_task(b, usec(35.0 + 60.0))
    fleet.terminate(b, usec(95.0))
    assert fleet.unreleased(usec(104.0))
    assert not fleet.unreleased(usec(105.0))


def test_busy_then_idle_terminates_at_first_due_tick():
    """A VM busy 300 s then idle must fall at the first scan >= idle+threshold."""
    config = CloudConfig(provisioning_delay=0.0, idle_threshold=60.0, scan_interval=10.0)
    fleet = Fleet(config)
    vm = fleet.provision(table_type("t2.micro"), 0)
    fleet.mark_available(vm, 0)
    fleet.start_task(vm, 0, usec(300.0))
    fleet.finish_task(vm, usec(300.0))
    ticks = [usec(10.0 * k) for k in range(1, 40)]
    terminated_at = next(t for t in ticks if fleet.idle_scan(t))
    assert terminated_at == usec(360.0)


def test_finalize_billing_examples():
    config = CloudConfig(provisioning_delay=0.0, deprovisioning_delay=0.0)
    fleet = Fleet(config)
    vm = fleet.provision(table_type("t2.medium"), 0)
    fleet.mark_available(vm, 0)
    assert finalize_billing(vm, usec(1000.0)) == 16_400_000  # $0.0164
    vm2 = fleet.provision(table_type("t2.micro"), 0)
    assert finalize_billing(vm2, 0) == 0
    vm3 = fleet.provision(table_type("t2.micro"), 0)
    assert finalize_billing(vm3, usec(999.5)) == 1000 * 4_100


def test_finalize_billing_excludes_provisioning_delay():
    config = CloudConfig(provisioning_delay=90.0)
    fleet = Fleet(config)
    vm = fleet.provision(table_type("t2.micro"), 0)
    assert finalize_billing(vm, usec(100.0)) == 10 * 4_100

    billed = CloudConfig(provisioning_delay=90.0, bill_provisioning=True)
    fleet2 = Fleet(billed)
    vm2 = fleet2.provision(table_type("t2.micro"), 0)
    assert finalize_billing(vm2, usec(100.0)) == 100 * 4_100


def test_terminate_twice_raises():
    fleet = Fleet(CloudConfig(provisioning_delay=0.0))
    vm = fleet.provision(table_type("t2.micro"), 0)
    fleet.mark_available(vm, 0)
    fleet.terminate(vm, usec(10.0))
    with pytest.raises(IllegalState):
        fleet.terminate(vm, usec(20.0))


def test_terminated_vm_never_receives_work():
    fleet = Fleet(CloudConfig(provisioning_delay=0.0))
    vm = fleet.provision(table_type("t2.micro"), 0)
    fleet.mark_available(vm, 0)
    fleet.terminate(vm, usec(100.0))
    with pytest.raises(IllegalState):
        fleet.start_task(vm, usec(200.0), usec(10.0))


def test_vm_type_validation():
    with pytest.raises(ConfigError):
        VmType("bad", 1, 1024, 0.0, 1.0)
    with pytest.raises(ConfigError):
        VmType("bad", 1, 1024, 0.1, 0.0)
    with pytest.raises(ConfigError):
        CloudConfig(catalog=(MICRO, MICRO))


def test_fastest_and_cheapest():
    config = CloudConfig()
    assert config.fastest_type.name == "t2.large"
    assert config.cheapest_type.name == "t2.micro"


def test_fleet_cost_conservation(mono_cloud, oracle):
    """Sum of finalized bills equals ceil-per-VM accrual of lease seconds."""
    spec = chain_workflow([30.0, 45.0, 15.0], budget=1.0)
    result = engine.run(single_workload(spec), "ebpsm", mono_cloud, oracle, seed=0)
    fleet = result.fleet
    total = 0
    for vm in fleet.instances.values():
        assert vm.state == "terminated"
        lease_us = vm.terminated_at_us - vm.billing_start_us
        assert vm.billed_seconds == -(-lease_us // 1_000_000)
        total += vm.billed_seconds * vm.vm_type.price_nanos
    assert total == fleet.total_bill_nanos()


def test_no_idle_exceeds_threshold_plus_scan(mono_cloud, oracle):
    spec = chain_workflow([30.0, 45.0, 15.0], budget=1.0)
    result = engine.run(single_workload(spec), "ebpsm", mono_cloud, oracle, seed=0)
    bound_us = mono_cloud.idle_threshold_us + mono_cloud.scan_interval_us
    idle_since = {}
    for ev in result.trace:
        if ev.name == "vm_idle" or ev.name == "vm_available":
            idle_since[ev.fields["vm"]] = ev.time_us
        elif ev.name == "task_start":
            vm = ev.fields["vm"]
            if vm in idle_since:
                assert ev.time_us - idle_since.pop(vm) <= bound_us
        elif ev.name == "vm_terminated":
            vm = ev.fields["vm"]
            if vm in idle_since:
                assert ev.time_us - idle_since.pop(vm) <= bound_us


def test_bit_determinism_across_seeds(mono_cloud, oracle):
    """With variability off and fixed delays, the seed changes nothing."""
    spec = chain_workflow([30.0, 45.0], budget=1.0)
    a = engine.run(single_workload(spec), "ebpsm", mono_cloud, oracle, seed=1)
    b = engine.run(single_workload(spec), "ebpsm", mono_cloud, oracle, seed=999)
    assert engine.checkpoint_trace(a.trace) == engine.checkpoint_trace(b.trace)
