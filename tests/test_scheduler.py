"""Budget distribution, budget update, EFT, ready-queue dispatch, baselines."""

import random
import runpy
from pathlib import Path

import pytest

from conftest import (LARGE, MICRO, build_workflow, chain_workflow,
                      diamond_workflow, random_dag, single_workload)
from waasim import engine, scheduler
from waasim.cloud import CloudConfig, Fleet
from waasim.errors import ConfigError, IllegalState
from waasim.estimator import EstimatorConfig, RuntimeEstimator
from waasim.experiment import ExperimentConfig
from waasim.scheduler import (Assign, BudgetLedger, CostRows, Provision,
                              compute_eft_us, distribute_budget,
                              distribution_order, make_policy, update_budget)
from waasim.units import nanos, usec
from waasim.workflow import generate_workload


class FixedEstimator:
    """Type-independent estimates: every task takes `seconds` on any VM."""

    def __init__(self, seconds=100.0):
        self.seconds = seconds

    def estimate(self, kind, vm_type, reference_runtime):
        return self.seconds


TWO_TYPES = CloudConfig(catalog=(MICRO, LARGE))


ORACLE = EstimatorConfig(mode="oracle")


def oracle_costs(catalog=(MICRO, LARGE)):
    return CostRows(RuntimeEstimator(ORACLE), CloudConfig(catalog=tuple(catalog)))


def fixed_costs(seconds=100.0):
    return CostRows(FixedEstimator(seconds), TWO_TYPES)


# -- EFT ---------------------------------------------------------------------

def test_eft_chain():
    spec = build_workflow([("A", "a", 10.0, []), ("B", "b", 20.0, ["A"])])
    eft = compute_eft_us(spec, oracle_costs((MICRO,)))
    assert eft == {"A": 10_000_000, "B": 30_000_000}


def test_eft_diamond():
    spec = diamond_workflow()
    eft = compute_eft_us(spec, oracle_costs((MICRO,)))
    assert eft["d"] == 31_000_000
    assert eft["b"] == 15_000_000 and eft["c"] == 30_000_000


def test_eft_matches_recursive_oracle():
    rng = random.Random(321)
    costs = oracle_costs((MICRO,))
    for _ in range(100):
        spec = random_dag(rng)

        def recursive(tid):
            task = spec.tasks[tid]
            start = max((recursive(p) for p in task.parents), default=0)
            return start + usec(task.total_runtime / MICRO.speed_factor)
        eft = compute_eft_us(spec, costs)
        for tid in spec.tasks:
            assert eft[tid] == recursive(tid)
        for tid, task in spec.tasks.items():
            assert all(eft[tid] >= eft[p] for p in task.parents)


# -- cost rows ---------------------------------------------------------------

def test_oracle_record_reprices_nothing(monkeypatch):
    """No oracle estimate reads a record, so recording one prices no row
    again and leaves `changes` as it was; a history record of the same kind
    prices its rows again."""
    estimates = []
    estimate = RuntimeEstimator.estimate

    def counted(self, *args):
        estimates.append(args)
        return estimate(self, *args)

    monkeypatch.setattr(RuntimeEstimator, "estimate", counted)
    oracle, history = oracle_costs(), CostRows(RuntimeEstimator(EstimatorConfig()), TWO_TYPES)
    for costs in (oracle, history):
        costs.row("k", 100.0)
        costs.row("j", 50.0)
    rows = dict(oracle.rows)
    estimates.clear()
    for runtime in (1.0, 500.0):
        oracle.record("k", LARGE, runtime)
    assert estimates == [] and oracle.changes == 0 and oracle.rows == rows
    history.record("k", LARGE, 1.0)
    assert len(estimates) == len(TWO_TYPES.catalog) and history.changes == 1


# -- budget distribution -----------------------------------------------------

def chain_two() -> tuple:
    spec = chain_workflow([100.0, 100.0])
    eft_us = compute_eft_us(spec, oracle_costs((MICRO,)))
    return spec, eft_us


def test_distribute_generous_budget_upgrades():
    spec, eft_us = chain_two()
    ledger = distribute_budget(nanos(0.01), list(spec.tasks.values()),
                               eft_us, fixed_costs(100.0))
    assert ledger.sub_budgets == {"t0": nanos(0.00382), "t1": nanos(0.00382)}
    assert ledger.unassigned == nanos(0.00236)
    assert ledger.debt == 0
    assert ledger.identity_gap() == 0


def test_distribute_tight_budget_stays_cheap():
    spec, eft_us = chain_two()
    ledger = distribute_budget(nanos(0.001), list(spec.tasks.values()),
                               eft_us, fixed_costs(100.0))
    assert ledger.sub_budgets == {"t0": nanos(0.00041), "t1": nanos(0.00041)}
    assert ledger.unassigned == nanos(0.00018)
    assert ledger.identity_gap() == 0


def test_distribute_zero_budget_all_debt():
    spec, eft_us = chain_two()
    ledger = distribute_budget(0, list(spec.tasks.values()),
                               eft_us, fixed_costs(100.0))
    assert ledger.sub_budgets == {"t0": nanos(0.00041), "t1": nanos(0.00041)}
    assert ledger.unassigned == 0
    assert ledger.debt == sum(ledger.sub_budgets.values())
    assert ledger.identity_gap() == 0


def test_distribute_never_starves_remaining_tasks():
    """A task is upgraded only while the pool still covers the rest at the
    cheapest type, so a distribution without debt can always be executed
    within the original budget."""
    spec, eft_us = chain_two()
    budget = nanos(0.00082 * 1.01)
    ledger = distribute_budget(budget, list(spec.tasks.values()),
                               eft_us, fixed_costs(100.0))
    assert ledger.sub_budgets == {"t0": nanos(0.00041), "t1": nanos(0.00041)}
    assert ledger.debt == 0
    assert sum(ledger.sub_budgets.values()) <= budget


def test_distribution_order_level_then_eft():
    spec = diamond_workflow()
    eft_us = compute_eft_us(spec, oracle_costs((MICRO,)))
    ordered = distribution_order(list(spec.tasks.values()), eft_us)
    assert [t.id for t in ordered] == ["a", "b", "c", "d"]


# -- budget update -----------------------------------------------------------

def settled_ledger() -> tuple:
    """Ledger with one finished-pending task f and one unscheduled task u."""
    spec = build_workflow([("f", "f", 100.0, []), ("u", "u", 100.0, ["f"])])
    ledger = BudgetLedger(nanos(0.01), pending=[spec.tasks["u"]],
                          costs=fixed_costs(100.0), position={"f": 0, "u": 1})
    ledger.sub_budgets = {"f": nanos(0.005), "u": nanos(0.002)}
    ledger.unscheduled_budget = nanos(0.002)
    ledger.unassigned = nanos(0.003)
    return spec, ledger


def test_update_budget_surplus_folds_into_pool():
    spec, ledger = settled_ledger()
    update_budget(ledger, spec.tasks["f"], nanos(0.003), [spec.tasks["u"]])
    # pool = unassigned 0.003 + sub(u) 0.002 + surplus 0.002 = 0.007
    assert ledger.spent == nanos(0.003)
    assert ledger.sub_budgets["u"] + ledger.unassigned == nanos(0.007)
    assert ledger.sub_budgets["u"] == nanos(0.00382)  # upgraded to the fast type
    assert ledger.identity_gap() == 0


def test_update_budget_exact_cost_keeps_pool():
    spec, ledger = settled_ledger()
    update_budget(ledger, spec.tasks["f"], nanos(0.005), [spec.tasks["u"]])
    assert ledger.sub_budgets["u"] + ledger.unassigned == nanos(0.005)
    assert ledger.identity_gap() == 0


def test_update_budget_overrun_shrinks_pool():
    spec, ledger = settled_ledger()
    update_budget(ledger, spec.tasks["f"], nanos(0.007), [spec.tasks["u"]])
    assert ledger.sub_budgets["u"] + ledger.unassigned == nanos(0.003)
    assert ledger.debt == 0
    assert ledger.identity_gap() == 0


def test_update_budget_overrun_beyond_pool_becomes_debt():
    spec, ledger = settled_ledger()
    update_budget(ledger, spec.tasks["f"], nanos(0.02), [spec.tasks["u"]])
    # shortfall 0.015 exceeds the 0.005 pool: 0.010 spills into debt and the
    # unscheduled task falls back to a cheapest-type debt-backed allocation.
    assert ledger.sub_budgets["u"] == nanos(0.00041)
    assert ledger.unassigned == 0
    assert ledger.debt == nanos(0.010) + nanos(0.00041)
    assert ledger.identity_gap() == 0


def test_update_budget_unknown_task_raises():
    spec, ledger = settled_ledger()
    ghost = build_workflow([("g", "g", 1.0, [])]).tasks["g"]
    with pytest.raises(IllegalState):
        update_budget(ledger, ghost, 1, [])


def test_update_budget_randomized_identity():
    rng = random.Random(777)
    costs = fixed_costs(100.0)
    for _ in range(100):
        spec = random_dag(rng, max_tasks=8)
        eft_us = {tid: i for i, tid in enumerate(sorted(spec.tasks))}
        budget = rng.randrange(0, 20_000_000)
        ledger = distribute_budget(budget, list(spec.tasks.values()),
                                   eft_us, costs)
        assert ledger.identity_gap() == 0
        remaining = sorted(spec.tasks)
        rng.shuffle(remaining)
        for tid in remaining:
            actual = rng.randrange(1, 8_000_000)
            ledger.lock(tid)
            update_budget(ledger, spec.tasks[tid], actual, list(ledger.unscheduled.values()))
            assert ledger.identity_gap() == 0
            assert all(v >= 0 for v in ledger.sub_budgets.values())
            assert ledger.unassigned >= 0


def test_out_of_order_locks_keep_the_pending_list_in_distribution_order():
    """Locks in random order take the bisect path as well as the head; after
    each, the pending list is the distribution order less the locked tasks,
    and the entering pools are kept for exactly those tasks."""
    rng = random.Random(4242)
    costs = fixed_costs(100.0)
    for _ in range(50):
        spec = random_dag(rng, max_tasks=30)
        eft_us = {tid: rng.randrange(100) for tid in spec.tasks}
        ordered = distribution_order(list(spec.tasks.values()), eft_us)
        ledger = distribute_budget(rng.randrange(0, 20_000_000), list(spec.tasks.values()),
                                   eft_us, costs)
        locked = set()
        for tid in rng.sample(sorted(spec.tasks), len(spec.tasks)):
            assert ledger.lock(tid) == ledger.sub_budgets[tid]
            locked.add(tid)
            assert ledger.pending == [t for t in ordered if t.id not in locked]
            assert list(ledger.entry_pool) == [t.id for t in ledger.pending]
            with pytest.raises(KeyError):
                ledger.lock(tid)


def deep_chain(monkeypatch, tasks, seed):
    """The `deep-chain` benchmark's workload for input `seed`, `tasks` long."""
    rep = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "rep.py"))
    monkeypatch.setitem(rep["chain_document"].__globals__, "CHAIN_TASKS", tasks)
    return rep["_Chain"]().workload(seed)


class CountingDict(dict):
    """A dict that counts its item writes."""

    writes = 0

    def __setitem__(self, key, value):
        CountingDict.writes += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("tasks", [1000, 2000, 4000, 8000])
def test_fold_enters_linearly_many_positions_on_long_chains(monkeypatch, tasks):
    """The resumed fold rides a uniform shift of the pool, so the fold
    positions a run enters, counted as writes of its ledger's entering
    pools, stay within 6 per task on `deep-chain` chains of any length. A
    fold that stopped only where the pool is unchanged enters about n**2 / 6
    on inputs 808 and 809 at 4,000 tasks."""
    policy = scheduler.EbpsmPolicy
    on_arrival = policy.on_arrival

    def counted(self, run):
        on_arrival(self, run)
        run.ledger.entry_pool = CountingDict(run.ledger.entry_pool)

    monkeypatch.setattr(policy, "on_arrival", counted)
    monkeypatch.setattr(CountingDict, "writes", 0)
    for seed in (808, 809, 810):
        before = CountingDict.writes
        engine.run(deep_chain(monkeypatch, tasks, seed), "ebpsm", CloudConfig(), ORACLE,
                   seed=seed)
        assert CountingDict.writes - before <= 6 * tasks


def test_update_budget_folds_over_the_ledgers_own_pending_list(monkeypatch):
    """Every completion hands `update_budget` its workflow's pending list
    itself, one list object per workflow, never a copy."""
    seen = {}
    original = scheduler.update_budget

    def check(ledger, finished, cost, unscheduled):
        assert unscheduled is ledger.pending
        assert seen.setdefault(ledger, unscheduled) is unscheduled
        return original(ledger, finished, cost, unscheduled)

    monkeypatch.setattr(scheduler, "update_budget", check)
    workload = generate_workload(ExperimentConfig().build_catalog(), 20, 12.0, seed=5)
    engine.run(workload, "ebpsm", CloudConfig(), ORACLE, seed=3)
    assert len(seen) == 20


# -- dispatch ----------------------------------------------------------------

def make_run(spec, budget=1.0):
    return engine.WorkflowRun(spec=spec.copy(), arrival_us=0,
                              budget_nanos=nanos(budget))


def idle_fleet(config, vm_type, count=1, now_us=0):
    fleet = Fleet(config)
    for _ in range(count):
        vm = fleet.provision(vm_type, now_us)
        fleet.mark_available(vm)
        fleet.finish_task(vm, now_us)
    return fleet


def test_schedule_reuses_affordable_idle_vm():
    config = CloudConfig(catalog=(MICRO, LARGE), provisioning_delay=0.0)
    policy = make_policy("ebpsm", config, ORACLE)
    run = make_run(chain_workflow([100.0]))
    policy.on_arrival(run)
    fleet = idle_fleet(config, MICRO)
    policy.enqueue_ready(run, run.spec.tasks["t0"])
    actions = policy.schedule_ready(fleet)
    assert len(actions) == 1 and isinstance(actions[0], Assign)


def test_schedule_provisions_fastest_affordable_type():
    config = CloudConfig(catalog=(MICRO, LARGE), provisioning_delay=0.0)
    policy = make_policy("ebpsm", config, ORACLE)
    run = make_run(chain_workflow([100.0]), budget=0.01)
    policy.on_arrival(run)
    policy.enqueue_ready(run, run.spec.tasks["t0"])
    actions = policy.schedule_ready(Fleet(config))
    assert isinstance(actions[0], Provision)
    assert actions[0].vm_type.name == "t2.large"


def test_schedule_falls_back_to_cheapest_type():
    config = CloudConfig(catalog=(MICRO, LARGE), provisioning_delay=0.0)
    policy = make_policy("ebpsm", config, ORACLE)
    run = make_run(chain_workflow([100.0]), budget=0.0)
    policy.on_arrival(run)
    policy.enqueue_ready(run, run.spec.tasks["t0"])
    actions = policy.schedule_ready(Fleet(config))
    assert isinstance(actions[0], Provision)
    assert actions[0].vm_type.name == "t2.micro"


def test_schedule_eft_order_gets_the_idle_vm():
    config = CloudConfig(catalog=(MICRO,), provisioning_delay=0.0)
    policy = make_policy("ebpsm", config, ORACLE)
    spec = build_workflow([("slow", "s", 30.0, []), ("fast", "f", 20.0, [])])
    run = make_run(spec)
    policy.on_arrival(run)
    fleet = idle_fleet(config, MICRO, count=1)
    policy.enqueue_ready(run, run.spec.tasks["slow"])
    policy.enqueue_ready(run, run.spec.tasks["fast"])
    actions = policy.schedule_ready(fleet)
    assert isinstance(actions[0], Assign) and actions[0].task.id == "fast"
    assert isinstance(actions[1], Provision) and actions[1].task.id == "slow"


def test_schedule_two_tasks_never_share_one_idle_vm():
    config = CloudConfig(catalog=(MICRO,), provisioning_delay=0.0)
    policy = make_policy("ebpsm", config, ORACLE)
    spec = build_workflow([("x", "x", 10.0, []), ("y", "y", 10.0, [])])
    run = make_run(spec)
    policy.on_arrival(run)
    fleet = idle_fleet(config, MICRO, count=1)
    policy.enqueue_ready(run, run.spec.tasks["x"])
    policy.enqueue_ready(run, run.spec.tasks["y"])
    actions = policy.schedule_ready(fleet)
    assert sum(1 for a in actions if isinstance(a, Assign)) == 1


def test_one_batch_assigns_each_idle_vm_once():
    """Dispatch takes an idle VM out of the index, so one batch assigns
    each idle VM once, though the VM stays idle until its task starts."""
    config = CloudConfig(catalog=(MICRO,), provisioning_delay=0.0)
    policy = make_policy("ebpsm", config, ORACLE)
    spec = build_workflow([(f"t{i}", f"k{i}", 10.0, []) for i in range(4)])
    run = make_run(spec)
    policy.on_arrival(run)
    fleet = Fleet(config)
    assert fleet.idle_head(MICRO) is None
    for vm in (fleet.provision(MICRO, 0), fleet.provision(MICRO, 0)):
        fleet.mark_available(vm)
        fleet.finish_task(vm, 1)
    for tid in spec.tasks:
        policy.enqueue_ready(run, run.spec.tasks[tid])
    actions = policy.schedule_ready(fleet)
    assert sorted(a.vm.id for a in actions if isinstance(a, Assign)) == ["vm-0001", "vm-0002"]
    assert sum(1 for a in actions if isinstance(a, Provision)) == 2


def test_equal_cost_idle_vms_go_in_id_string_order_past_vm_9999():
    """Of idle VMs equal in estimate and price, dispatch takes the least id
    string, as the decision key orders them: vm-10000 before vm-9999, though
    vm-9999 was provisioned and went idle first."""
    config = CloudConfig(catalog=(MICRO,), provisioning_delay=0.0)
    policy = make_policy("ebpsm", config, ORACLE)
    spec = build_workflow([("a", "k", 10.0, []), ("b", "k", 10.0, [])])
    run = make_run(spec)
    policy.on_arrival(run)
    fleet = Fleet(config)
    assert fleet.idle_head(MICRO) is None
    vms = [fleet.provision(MICRO, 0) for _ in range(10_000)]
    assert [vm.id for vm in vms[-2:]] == ["vm-9999", "vm-10000"]
    for vm, at_us in ((vms[-2], 0), (vms[-1], 1)):
        fleet.mark_available(vm)
        fleet.finish_task(vm, at_us)
    for tid in ("a", "b"):
        policy.enqueue_ready(run, run.spec.tasks[tid])
    actions = policy.schedule_ready(fleet)
    assert [(a.task.id, a.vm.id) for a in actions] == [("a", "vm-10000"), ("b", "vm-9999")]


def test_polled_eft_keys_non_decreasing():
    config = CloudConfig(catalog=(MICRO,), provisioning_delay=0.0)
    policy = make_policy("ebpsm", config, ORACLE)
    rng = random.Random(5)
    spec = build_workflow([(f"t{i}", f"k{i}", float(rng.randint(1, 500)), [])
                           for i in range(12)])
    run = make_run(spec)
    policy.on_arrival(run)
    ids = list(spec.tasks)
    rng.shuffle(ids)
    for tid in ids:
        policy.enqueue_ready(run, run.spec.tasks[tid])
    actions = policy.schedule_ready(Fleet(config))
    keys = [run.plan.eft_us[a.task.id] for a in actions]
    assert keys == sorted(keys)


# -- baselines ---------------------------------------------------------------

def test_fcfs_requires_homogeneous_catalog():
    config = CloudConfig(catalog=(MICRO, LARGE))
    with pytest.raises(ConfigError):
        make_policy("fcfs", config, ORACLE)
    with pytest.raises(ConfigError):
        make_policy("ebpsm-homogeneous", config, ORACLE)
    with pytest.raises(ConfigError):
        make_policy("mystery", CloudConfig(catalog=(MICRO,)), ORACLE)


def test_fcfs_provisions_one_vm_per_task(mono_cloud, oracle):
    from waasim.workflow import genome_template
    spec = genome_template("chr22", 22, budget=1.0)
    assert len(spec.tasks) == 26
    cloud = CloudConfig(catalog=(MICRO,), provisioning_delay=90.0)
    result = engine.run(single_workload(spec), "fcfs", cloud, oracle, seed=0)
    assert result.report.fleet.total_vms == 26
    starts = [r for r in result.assignments if r[1] == "task_start"]
    assert len(starts) == 26
    assert len({r[4] for r in starts}) == len(starts)  # no instance reused


def test_fcfs_fleet_keeps_no_idle_index(monkeypatch, oracle):
    """FCFS terminates each VM from busy when its task completes, so no VM
    of its fleet ever goes idle or enters the idle index."""
    from waasim.workflow import genome_template
    fleets = []

    class RecordedFleet(Fleet):
        def __init__(self, config):
            super().__init__(config)
            fleets.append(self)

    monkeypatch.setattr(engine, "Fleet", RecordedFleet)
    cloud = CloudConfig(catalog=(MICRO,), provisioning_delay=90.0)
    engine.run(single_workload(genome_template("chr22", 22, budget=1.0)), "fcfs", cloud,
               oracle, seed=0)
    assert len(fleets) == 1 and fleets[0]._heads == {} and fleets[0].idle_instances() == []


def test_idle_heaps_hold_no_terminated_vm_after_a_run(monkeypatch, oracle):
    """A VM the idle scan terminated leaves its type's idle heap at the
    latest when its heap is compacted, once such entries outnumber the idle
    VMs, so the heaps are empty once every VM is terminated."""
    from waasim.experiment import ExperimentConfig
    from waasim.workflow import generate_workload
    fleets = []

    class RecordedFleet(Fleet):
        def __init__(self, config):
            super().__init__(config)
            fleets.append(self)

    monkeypatch.setattr(engine, "Fleet", RecordedFleet)
    workload = generate_workload(ExperimentConfig().build_catalog(), 4000, 20.0, 808)
    engine.run(workload, "ebpsm", CloudConfig(), oracle, seed=0)
    heads = fleets[0]._heads
    assert len(heads) == 4 and not any(heads.values())


def test_fcfs_single_task_makespan(oracle):
    cloud = CloudConfig(catalog=(MICRO,), provisioning_delay=90.0)
    spec = chain_workflow([100.0])
    result = engine.run(single_workload(spec), "fcfs", cloud, oracle, seed=0)
    assert result.report.workflows[0].makespan_s == pytest.approx(190.0)
    assert result.report.fleet.total_vms == 1


def test_homogeneous_serial_chain_reuses_one_vm(mono_cloud, oracle):
    spec = chain_workflow([30.0, 40.0, 20.0])
    result = engine.run(single_workload(spec), "ebpsm-homogeneous",
                        mono_cloud, oracle, seed=0)
    assert result.report.fleet.total_vms == 1


def test_homogeneous_degenerates_to_fcfs_counts_with_tiny_threshold(oracle):
    """Idle threshold smaller than every gap kills each VM before reuse."""
    from waasim.workflow import WorkloadSpec
    gap_cloud = CloudConfig(catalog=(MICRO,), provisioning_delay=0.0,
                            deprovisioning_delay=0.0, idle_threshold=5.0,
                            scan_interval=1.0)
    a = chain_workflow([10.0], wid="a")
    b = chain_workflow([10.0], wid="b")
    b.arrival_time = 100.0
    workload = WorkloadSpec([a, b], 1.0, 0)
    result = engine.run(workload, "ebpsm-homogeneous", gap_cloud, oracle, seed=0)
    assert result.report.fleet.total_vms == 2  # same as fcfs: one per task

    keep_cloud = CloudConfig(catalog=(MICRO,), provisioning_delay=0.0,
                             deprovisioning_delay=0.0, idle_threshold=200.0,
                             scan_interval=1.0)
    result2 = engine.run(workload, "ebpsm-homogeneous", keep_cloud, oracle, seed=0)
    assert result2.report.fleet.total_vms == 1


def test_homogeneous_uses_fewer_vms_than_fcfs(oracle):
    from waasim.workflow import genome_template
    cloud = CloudConfig(catalog=(MICRO,), provisioning_delay=90.0,
                        idle_threshold=60.0, scan_interval=10.0)
    spec = genome_template("chr22", 10, budget=1.0)
    fcfs = engine.run(single_workload(spec), "fcfs", cloud, oracle, seed=0)
    homog = engine.run(single_workload(spec), "ebpsm-homogeneous", cloud, oracle, seed=0)
    assert homog.report.fleet.total_vms < fcfs.report.fleet.total_vms
