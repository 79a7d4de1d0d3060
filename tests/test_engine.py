"""Simulation loop: event ordering, termination, traces, determinism."""

import random

import pytest

from conftest import (MICRO, chain_workflow, diamond_workflow, random_dag,
                      single_workload)
from waasim import engine
from waasim.cloud import CloudConfig
from waasim.errors import StallError
from waasim.scheduler import make_policy
from waasim.workflow import (WorkloadSpec, generate_workload, genome_template,
                             serialize_workload, vina_template)


def test_empty_workload():
    result = engine.run(WorkloadSpec([], 1.0, 0), "ebpsm")
    assert result.report.workflows == []
    assert result.report.fleet.total_cost_usd == 0.0
    assert result.trace[-1].name == "simulation_end"


def test_single_task_zero_delay_makespan(mono_cloud, oracle):
    spec = chain_workflow([100.0])
    result = engine.run(single_workload(spec), "ebpsm", mono_cloud, oracle, seed=0)
    wf = result.report.workflows[0]
    assert wf.makespan_s == 100.0
    assert wf.cost_nanos == 100 * 4_100
    assert wf.budget_met


def test_diamond_dependency_safety(mono_cloud, oracle):
    result = engine.run(single_workload(diamond_workflow()), "ebpsm",
                        mono_cloud, oracle, seed=0)
    starts = {ev.fields["task"]: ev.time_us for ev in result.trace
              if ev.name == "task_start"}
    completes = {ev.fields["task"]: ev.time_us for ev in result.trace
                 if ev.name == "task_complete"}
    assert starts["d"] >= max(completes["b"], completes["c"])
    assert starts["b"] >= completes["a"] and starts["c"] >= completes["a"]


def shared_template_workload():
    """Eight workflows drawn from three templates, so several share one
    template's task records."""
    catalog = [(diamond_workflow(), 0.0005), (genome_template("chr22", 3), 0.002),
               (vina_template(3, workflow_id="bag"), 0.001)]
    return generate_workload(catalog, 8, 30.0, seed=5)


@pytest.mark.parametrize("make_workload", [
    lambda: single_workload(diamond_workflow()),
    shared_template_workload,
], ids=["diamond", "shared-templates"])
def test_checkpoint_deterministic(make_workload, mono_cloud, oracle):
    workload = make_workload()
    before = serialize_workload(workload)
    a = engine.run(workload, "ebpsm", mono_cloud, oracle, seed=3)
    b = engine.run(workload, "ebpsm", mono_cloud, oracle, seed=3)
    assert engine.checkpoint_trace(a.trace) == engine.checkpoint_trace(b.trace)
    assert a.assignments == b.assignments
    c = engine.run(workload, "ebpsm", mono_cloud, oracle, seed=4)
    assert engine.checkpoint_trace(a.trace) == engine.checkpoint_trace(c.trace)
    assert serialize_workload(workload) == before


def test_idle_threshold_changes_only_termination_tail(oracle):
    workload = single_workload(diamond_workflow())
    base = CloudConfig(catalog=(MICRO,), provisioning_delay=0.0,
                       deprovisioning_delay=0.0, idle_threshold=60.0,
                       scan_interval=10.0)
    longer = CloudConfig(catalog=(MICRO,), provisioning_delay=0.0,
                         deprovisioning_delay=0.0, idle_threshold=120.0,
                         scan_interval=10.0)
    a = engine.run(workload, "ebpsm", base, oracle, seed=0)
    b = engine.run(workload, "ebpsm", longer, oracle, seed=0)
    tail = ("vm_terminated", "vm_released", "simulation_end")
    head_a = [ev.render() for ev in a.trace if ev.name not in tail]
    head_b = [ev.render() for ev in b.trace if ev.name not in tail]
    assert head_a == head_b
    last_term_a = max(ev.time_us for ev in a.trace if ev.name == "vm_terminated")
    last_term_b = max(ev.time_us for ev in b.trace if ev.name == "vm_terminated")
    assert last_term_b - last_term_a == 60_000_000


def test_clock_monotone_and_event_counts(mono_cloud, oracle):
    rng = random.Random(1)
    specs = [random_dag(rng, max_tasks=6, wid=f"w{i}") for i in range(4)]
    for i, s in enumerate(specs):
        s.arrival_time = 30.0 * i
        s.budget = 1.0
    workload = WorkloadSpec(specs, 2.0, 0)
    result = engine.run(workload, "ebpsm", mono_cloud, oracle, seed=0)
    times = [ev.time_us for ev in result.trace]
    assert times == sorted(times)
    arrivals = sum(1 for ev in result.trace if ev.name == "workflow_arrival")
    completions = sum(1 for ev in result.trace if ev.name == "task_complete")
    assert arrivals == len(specs)
    assert completions == sum(len(s.tasks) for s in specs)
    end = result.trace[-1]
    assert end.name == "simulation_end"
    scans_bound = end.time_us // mono_cloud.scan_interval_us + 1
    terminations = sum(1 for ev in result.trace if ev.name == "vm_terminated")
    assert terminations <= scans_bound + completions


def test_every_vm_terminated_before_end(mono_cloud, oracle):
    spec = genome_template("chr22", 4, budget=1.0)
    result = engine.run(single_workload(spec), "ebpsm", mono_cloud, oracle, seed=0)
    assert all(vm.state == "terminated" for vm in result.fleet.instances.values())
    terminated = {ev.fields["vm"] for ev in result.trace if ev.name == "vm_terminated"}
    assert terminated == set(result.fleet.instances)


def test_fleet_cost_matches_trace_bills(mono_cloud, oracle):
    spec = genome_template("chr21", 3, budget=1.0)
    result = engine.run(single_workload(spec), "ebpsm", mono_cloud, oracle, seed=0)
    billed = sum(ev.fields["bill_nanos"] for ev in result.trace
                 if ev.name == "vm_terminated")
    assert billed == result.fleet.total_bill_nanos()
    assert billed == result.report.fleet.total_cost_nanos


def test_stall_error_on_broken_policy(monkeypatch, mono_cloud, oracle):
    class DeadPolicy:
        name = "dead"
        dedicated = False
        ledgers = {}

        def on_arrival(self, run, now_us):
            run.eft_us = {}

        def enqueue_ready(self, run, task, now_us):
            pass

        def schedule_ready(self, fleet, now_us):
            return []

        def on_complete(self, run, task, cost, now_us):
            pass

    monkeypatch.setattr(engine, "make_policy", lambda *a, **k: DeadPolicy())
    with pytest.raises(StallError):
        engine.run(single_workload(chain_workflow([5.0])), "ebpsm",
                   mono_cloud, oracle, seed=0)


def test_finished_workflows_release_their_state(monkeypatch, oracle):
    policies, runs = [], []

    def capture(*args):
        policy = make_policy(*args)
        on_arrival = policy.on_arrival

        def record_arrival(run, now_us):
            runs.append(run)
            on_arrival(run, now_us)

        policy.on_arrival = record_arrival
        policies.append(policy)
        return policy

    spec = genome_template("chr21", 3, budget=1.0)
    workload = generate_workload([(spec, 0.02), (spec, 0.2)], 6, 12.0, seed=3)
    monkeypatch.setattr(engine, "make_policy", capture)
    engine.run(workload, "ebpsm", CloudConfig(), oracle, seed=0)
    (policy,) = policies
    assert len(runs) == 6
    assert policy.ledgers == {}
    assert all(run.eft_us is None and not run.pending_parents for run in runs)


def test_variability_changes_runtimes_reproducibly(oracle):
    from waasim.cloud import VariabilityConfig
    cloud = CloudConfig(catalog=(MICRO,), provisioning_delay=0.0,
                        deprovisioning_delay=0.0,
                        variability=VariabilityConfig("lognormal", 0.2))
    workload = single_workload(vina_template(4, workflow_id="bag", budget=1.0))
    a = engine.run(workload, "ebpsm", cloud, oracle, seed=7)
    b = engine.run(workload, "ebpsm", cloud, oracle, seed=7)
    c = engine.run(workload, "ebpsm", cloud, oracle, seed=8)
    assert engine.checkpoint_trace(a.trace) == engine.checkpoint_trace(b.trace)
    assert engine.checkpoint_trace(a.trace) != engine.checkpoint_trace(c.trace)


def test_assignment_log_deterministic(mono_cloud, oracle):
    spec = genome_template("chr22", 3, budget=1.0)
    a = engine.run(single_workload(spec), "ebpsm", mono_cloud, oracle, seed=0)
    b = engine.run(single_workload(spec), "ebpsm", mono_cloud, oracle, seed=0)
    assert a.assignments == b.assignments


def test_bag_release_all_at_arrival(mono_cloud, oracle):
    workload = single_workload(vina_template(5, workflow_id="bag", budget=1.0))
    result = engine.run(workload, "ebpsm", mono_cloud, oracle, seed=0)
    ready = [ev for ev in result.trace if ev.name == "task_ready"]
    assert len(ready) == 5
    assert {ev.time_us for ev in ready} == {0}


def test_oracle_estimates_equal_actuals_without_variability(mono_cloud, oracle):
    """End-to-end: every task's recorded runtime equals its model estimate."""
    spec = genome_template("chr21", 3, budget=1.0)
    result = engine.run(single_workload(spec), "ebpsm", mono_cloud, oracle, seed=0)
    for ev in result.trace:
        if ev.name == "task_start":
            task = spec.tasks[ev.fields["task"]]
            assert ev.fields["runtime_us"] == round(task.total_runtime * 1e6)
