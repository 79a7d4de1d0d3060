"""Cloud model: provisioning, billing, idle scan, runtime variability."""

import math
import random

import pytest

from conftest import MICRO, chain_workflow, events, single_workload
from waasim import engine
from waasim.cloud import (CloudConfig, Fleet, VariabilityConfig, VmType,
                          default_catalog, estimated_cost_nanos, finalize_billing,
                          task_runtime_on)
from waasim.errors import ConfigError, IllegalState
from waasim.units import usec


def table_type(name):
    return {t.name: t for t in default_catalog()}[name]


def went_idle(fleet, vm, at_us):
    """Bring a provisioned VM up busy and finish its task at `at_us`."""
    fleet.mark_available(vm)
    fleet.finish_task(vm, at_us)


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
    with pytest.raises(ValueError, match="^lognormal variability requires an RNG$"):
        task_runtime_on(vm_type, 100.0, None, var)


def test_estimated_cost_nanos_examples():
    assert estimated_cost_nanos(table_type("t2.large"), usec(100.0)) == 3_820_000
    assert estimated_cost_nanos(table_type("t2.micro"), usec(100.0)) == 410_000
    assert estimated_cost_nanos(table_type("t2.micro"), usec(99.2)) == 410_000


def in_state(fleet, state):
    """A VM brought to `state` by legal transitions alone."""
    vm = fleet.provision(table_type("t2.micro"), 0)
    if state != "provisioning":
        fleet.mark_available(vm)
    if state == "idle":
        fleet.finish_task(vm, 0)
    if state == "terminated":
        fleet.terminate(vm, 0)
    return vm


MOVES = {"mark_available": lambda fleet, vm: fleet.mark_available(vm),
         "start_task": lambda fleet, vm: fleet.start_task(vm),
         "finish_task": lambda fleet, vm: fleet.finish_task(vm, 1),
         "terminate": lambda fleet, vm: fleet.terminate(vm, 1)}
# (state, move): the state the move leads to.
LEGAL = {("provisioning", "mark_available"): "busy", ("idle", "start_task"): "busy",
         ("busy", "finish_task"): "idle", ("idle", "terminate"): "terminated",
         ("busy", "terminate"): "terminated"}


@pytest.mark.parametrize("move", MOVES)
@pytest.mark.parametrize("state", ["provisioning", "idle", "busy", "terminated"])
def test_only_five_transitions_are_legal(state, move):
    """A VM comes up busy with the task it was leased for, so, among the
    rest, starting a task on a VM that just came up raises; the idle index
    holds a VM exactly while it is idle, and the fleet while it is live."""
    fleet = Fleet(CloudConfig(provisioning_delay=0.0))
    vm = in_state(fleet, state)
    if (state, move) in LEGAL:
        MOVES[move](fleet, vm)
        assert vm.state == LEGAL[state, move]
    else:
        with pytest.raises(IllegalState):
            MOVES[move](fleet, vm)
        assert vm.state == state
    idle = vm.state == "idle"
    assert fleet.idle_instances() == ([vm] if idle else [])
    assert fleet.idle_head(vm.vm_type) is (vm if idle else None)
    assert fleet.instances == ({} if vm.state == "terminated" else {vm.id: vm})


def test_idle_scan_boundary():
    config = CloudConfig(provisioning_delay=0.0, idle_threshold=60.0)
    fleet = Fleet(config)
    vm = fleet.provision(table_type("t2.micro"), 0)
    went_idle(fleet, vm, 0)
    assert fleet.idle_scan(usec(59.0)) == []
    assert vm.state == "idle"
    assert fleet.idle_scan(usec(60.0)) == [vm]
    assert vm.state == "terminated"


def test_idle_scan_skips_busy_and_provisioning():
    config = CloudConfig(provisioning_delay=50.0, idle_threshold=60.0)
    fleet = Fleet(config)
    busy = fleet.provision(table_type("t2.micro"), 0)
    fleet.mark_available(busy)
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
    went_idle(fleet, v10000, 0)
    went_idle(fleet, v9999, usec(5.0))
    assert fleet.idle_scan(usec(65.0)) == [v9999, v10000]
    for vm in (v10001, v9998):  # terminated from busy, newest first
        fleet.mark_available(vm)
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
    went_idle(fleet, a, usec(5.0))
    fleet.mark_available(b)
    assert fleet.idle_scan(usec(65.0)) == [a]
    assert fleet.unreleased(usec(80.0))  # b is still live
    fleet.finish_task(b, usec(35.0 + 60.0))
    fleet.terminate(b, usec(95.0))
    assert fleet.unreleased(usec(104.0))
    assert not fleet.unreleased(usec(105.0))


def test_next_due_is_none_with_nothing_to_expire_or_release():
    fleet = Fleet(CloudConfig(provisioning_delay=5.0))
    assert fleet.next_due_us() is None
    vm = fleet.provision(table_type("t2.micro"), 0)
    assert fleet.next_due_us() is None  # provisioning
    fleet.mark_available(vm)
    assert fleet.next_due_us() is None  # busy


def test_next_due_is_idle_head_plus_threshold():
    fleet = Fleet(CloudConfig(provisioning_delay=0.0, idle_threshold=60.0))
    a, b = (fleet.provision(table_type("t2.micro"), 0) for _ in range(2))
    went_idle(fleet, b, usec(3.0))
    went_idle(fleet, a, usec(7.0))
    assert fleet.next_due_us() == usec(63.0)


def test_next_due_is_release_head_plus_delay():
    fleet = Fleet(CloudConfig(provisioning_delay=0.0, deprovisioning_delay=10.0))
    a, b = (fleet.provision(table_type("t2.micro"), 0) for _ in range(2))
    for vm, at in ((b, 4.0), (a, 9.0)):
        fleet.mark_available(vm)
        fleet.terminate(vm, usec(at))
    assert fleet.next_due_us() == usec(14.0)
    assert fleet.release_due(usec(14.0)) == [b]
    assert fleet.next_due_us() == usec(19.0)
    assert fleet.release_due(usec(19.0)) == [a]
    assert fleet.next_due_us() is None


@pytest.mark.parametrize("idle_at, due", [
    (25.0, 50.0),  # expires at 55: the release comes first
    (20.0, 50.0),  # expires at 50 too
    (10.0, 40.0),  # expires at 40, before the release
])
def test_next_due_is_the_earlier_of_expiry_and_release(idle_at, due):
    fleet = Fleet(CloudConfig(provisioning_delay=0.0, deprovisioning_delay=10.0,
                              idle_threshold=30.0))
    idle, gone = (fleet.provision(table_type("t2.micro"), 0) for _ in range(2))
    fleet.mark_available(gone)
    went_idle(fleet, idle, usec(idle_at))
    fleet.terminate(gone, usec(40.0))  # released at 50
    assert fleet.next_due_us() == usec(due)


@pytest.mark.parametrize("leave", ["reuse", "terminate"])
def test_next_due_moves_to_the_next_idle_vm(leave):
    fleet = Fleet(CloudConfig(provisioning_delay=0.0, deprovisioning_delay=100.0,
                              idle_threshold=60.0))
    first, second = (fleet.provision(table_type("t2.micro"), 0) for _ in range(2))
    went_idle(fleet, first, usec(1.0))
    went_idle(fleet, second, usec(2.0))
    assert fleet.next_due_us() == usec(61.0)
    if leave == "reuse":
        fleet.start_task(first)
    else:
        fleet.terminate(first, usec(5.0))
    assert fleet.next_due_us() == usec(62.0)


def test_busy_then_idle_terminates_at_first_due_tick():
    """A VM busy 300 s then idle must fall at the first scan >= idle+threshold."""
    config = CloudConfig(provisioning_delay=0.0, idle_threshold=60.0, scan_interval=10.0)
    fleet = Fleet(config)
    vm = fleet.provision(table_type("t2.micro"), 0)
    fleet.mark_available(vm)
    fleet.finish_task(vm, usec(300.0))
    ticks = [usec(10.0 * k) for k in range(1, 40)]
    terminated_at = next(t for t in ticks if fleet.idle_scan(t))
    assert terminated_at == usec(360.0)


def terminated(fleet, type_name, at_us):
    """A VM of `type_name` leased at 0 and terminated at `at_us`."""
    vm = fleet.provision(table_type(type_name), 0)
    fleet.mark_available(vm)
    fleet.terminate(vm, at_us)
    return vm


def test_finalize_billing_examples():
    config = CloudConfig(provisioning_delay=0.0, deprovisioning_delay=0.0)
    fleet = Fleet(config)
    vm = fleet.provision(table_type("t2.medium"), 0)
    fleet.mark_available(vm)
    fleet.terminate(vm, usec(1000.0))
    assert finalize_billing(vm) == (1000, 16_400_000)  # $0.0164
    assert finalize_billing(terminated(fleet, "t2.micro", 0)) == (0, 0)
    assert finalize_billing(terminated(fleet, "t2.micro", usec(999.5))) == (1000, 1000 * 4_100)
    with pytest.raises(IllegalState):
        finalize_billing(fleet.provision(table_type("t2.micro"), 0))


def test_finalize_billing_excludes_provisioning_delay():
    fleet = Fleet(CloudConfig(provisioning_delay=90.0))
    assert finalize_billing(terminated(fleet, "t2.micro", usec(100.0))) == (10, 10 * 4_100)

    fleet2 = Fleet(CloudConfig(provisioning_delay=90.0, bill_provisioning=True))
    assert finalize_billing(terminated(fleet2, "t2.micro", usec(100.0))) == (100, 100 * 4_100)


def test_terminate_twice_raises():
    fleet = Fleet(CloudConfig(provisioning_delay=0.0))
    vm = fleet.provision(table_type("t2.micro"), 0)
    went_idle(fleet, vm, 0)
    fleet.terminate(vm, usec(10.0))
    with pytest.raises(IllegalState):
        fleet.terminate(vm, usec(20.0))


def test_take_idle_head_needs_an_idle_vm():
    fleet = Fleet(CloudConfig())
    with pytest.raises(IllegalState, match="^no idle t2.micro instance$"):
        fleet.take_idle_head(MICRO)
    fleet.provision(MICRO, 0)  # provisioning, not idle
    with pytest.raises(IllegalState, match="^no idle t2.micro instance$"):
        fleet.take_idle_head(MICRO)


def test_terminated_vm_never_receives_work():
    fleet = Fleet(CloudConfig(provisioning_delay=0.0))
    vm = fleet.provision(table_type("t2.micro"), 0)
    went_idle(fleet, vm, 0)
    fleet.terminate(vm, usec(100.0))
    with pytest.raises(IllegalState):
        fleet.start_task(vm)


def test_vm_type_validation():
    with pytest.raises(ConfigError):
        VmType("bad", 1, 1024, 0.0, 1.0)
    with pytest.raises(ConfigError, match="'bad': price_per_second must be >= 1e-09"):
        VmType("bad", 1, 1024, 1e-10, 1.0)  # would bill 0 nano-dollars per second
    assert VmType("ok", 1, 1024, 1e-9, 1.0).price_nanos == 1
    with pytest.raises(ConfigError):
        VmType("bad", 1, 1024, 0.1, 0.0)
    with pytest.raises(ConfigError):
        CloudConfig(catalog=(MICRO, MICRO))
    with pytest.raises(ConfigError, match="^unknown variability mode 'normal'$"):
        CloudConfig(variability=VariabilityConfig("normal", 0.1))


@pytest.mark.parametrize("price, message", [
    (1e300, "vm type 'x': price_per_second $1e+300 cannot be counted in integer nano-dollars"),
    (math.inf, "price_per_second: must be a finite number"),
], ids=["1e300", "inf"])
def test_price_too_large_for_nano_dollars_is_rejected_by_name(price, message):
    """A price whose nano-dollar count overflows is refused where the type
    is made, naming the field, not at its first bill."""
    with pytest.raises(ConfigError) as caught:
        VmType("x", 1, 1024, price, 1.0)
    assert str(caught.value) == message


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["speed_factor", "provisioning_delay",
                                   "deprovisioning_delay", "idle_threshold", "scan_interval"])
def test_non_finite_values_are_rejected_by_name(field, value):
    """A non-finite speed, delay, threshold or interval cannot be counted in
    microseconds; it is refused where the value is given, by its name."""
    with pytest.raises(ConfigError, match=f"^{field}: must be a finite number"):
        if field == "speed_factor":
            VmType("bad", 1, 1024, 0.1, value)
        else:
            CloudConfig(**{field: value})


def test_fastest_and_cheapest():
    config = CloudConfig()
    assert config.fastest_type.name == "t2.large"
    assert config.cheapest_type.name == "t2.micro"


def test_fleet_cost_conservation(mono_cloud, oracle):
    """Each VM leased is billed once, the ceil of its lease seconds from its
    availability to its termination, and the bills sum to the report's
    fleet cost."""
    spec = chain_workflow([30.0, 45.0, 15.0], budget=1.0)
    result = engine.run(single_workload(spec), "ebpsm", mono_cloud, oracle, seed=0)
    leases = {ev.fields["vm"]: ev for ev in events(result.trace)
              if ev.name == "provision_request"}
    bills = {ev.fields["vm"]: ev for ev in events(result.trace) if ev.name == "vm_terminated"}
    assert bills.keys() == leases.keys()
    types = {t.name: t for t in mono_cloud.catalog}
    for vm, bill in bills.items():
        lease_us = bill.time_us - leases[vm].fields["available_at_us"]
        price_nanos = types[leases[vm].fields["type"]].price_nanos
        assert bill.fields["billed_s"] == -(-lease_us // 1_000_000)
        assert bill.fields["bill_nanos"] == bill.fields["billed_s"] * price_nanos
    assert (sum(ev.fields["bill_nanos"] for ev in bills.values())
            == result.report.fleet.total_cost_nanos)


def test_no_idle_exceeds_threshold_plus_scan(mono_cloud, oracle):
    spec = chain_workflow([30.0, 45.0, 15.0], budget=1.0)
    result = engine.run(single_workload(spec), "ebpsm", mono_cloud, oracle, seed=0)
    bound_us = mono_cloud.idle_threshold_us + mono_cloud.scan_interval_us
    idle_since = {}
    for ev in events(result.trace):
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
