"""Simulation loop: event ordering, termination, traces, determinism."""

import json
import random
import re
import weakref
from pathlib import Path

import pytest

from conftest import (MICRO, chain_workflow, diamond_workflow, events, random_dag, render,
                      single_workload)
from waasim import engine, metrics
from waasim.cloud import CloudConfig, VariabilityConfig
from waasim.errors import ConfigError, IllegalState, StallError
from waasim.estimator import EstimatorConfig
from waasim.experiment import ExperimentConfig
from waasim.metrics import RECORD_FIELDS, ReportFold
from waasim.scheduler import make_policy
from waasim.schema import replace
from waasim.workflow import (WorkloadSpec, generate_workload, genome_template,
                             parse_workload, serialize_workload, vina_template)


def test_empty_workload():
    result = engine.run(WorkloadSpec([], 1.0, 0), "ebpsm")
    assert result.report.workflows == []
    assert result.report.fleet.total_cost_usd == 0.0
    assert result.report.budget_met_pct() == 100.0
    assert events(result.trace)[-1].name == "simulation_end"


def test_a_parent_listed_twice_counts_once(mono_cloud, oracle):
    """A task that lists one parent twice waits for that parent once: it is
    released when the parent completes, as if the parent were listed once."""
    def simulate(parents):
        workload = parse_workload(json.dumps({"arrival_rate": 1.0, "workflows": [
            {"id": "w", "budget": 1.0, "tasks": [
                {"id": "a", "kind": "a", "runtime": 10.0},
                {"id": "b", "kind": "b", "runtime": 5.0, "parents": parents}]}]}))
        result = engine.run(workload, "ebpsm", mono_cloud, oracle, seed=0)
        return engine.checkpoint_trace(result.trace), result.report

    twice, once = simulate(["a", "a"]), simulate(["a"])
    assert twice == once
    assert "task_complete\tworkflow=w task=b" in twice[0]


def test_single_task_zero_delay_makespan(mono_cloud, oracle):
    spec = chain_workflow([100.0])
    result = engine.run(single_workload(spec), "ebpsm", mono_cloud, oracle, seed=0)
    wf = result.report.workflows[0]
    assert wf.makespan_s == 100.0
    assert wf.cost_nanos == 100 * 4_100
    assert wf.budget_met


def test_sub_microsecond_task_completes_under_history(mono_cloud):
    """A runtime that rounds to 0 us is recorded as a 0 s execution."""
    result = engine.run(single_workload(chain_workflow([1e-7])), "ebpsm", mono_cloud,
                        EstimatorConfig(mode="history"), seed=0)
    complete = [ev for ev in events(result.trace) if ev.name == "task_complete"]
    assert [ev.fields["cost_nanos"] for ev in complete] == [0]
    assert result.report.workflows[0].makespan_us == 0


def test_diamond_dependency_safety(mono_cloud, oracle):
    result = engine.run(single_workload(diamond_workflow()), "ebpsm",
                        mono_cloud, oracle, seed=0)
    starts = {ev.fields["task"]: ev.time_us for ev in events(result.trace)
              if ev.name == "task_start"}
    completes = {ev.fields["task"]: ev.time_us for ev in events(result.trace)
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
    head_a = [ev.render() for ev in events(a.trace) if ev.name not in tail]
    head_b = [ev.render() for ev in events(b.trace) if ev.name not in tail]
    assert head_a == head_b
    last_term_a = max(ev.time_us for ev in events(a.trace) if ev.name == "vm_terminated")
    last_term_b = max(ev.time_us for ev in events(b.trace) if ev.name == "vm_terminated")
    assert last_term_b - last_term_a == 60_000_000


def test_clock_monotone_and_event_counts(mono_cloud, oracle):
    rng = random.Random(1)
    specs = [random_dag(rng, max_tasks=6, wid=f"w{i}") for i in range(4)]
    for i, s in enumerate(specs):
        s.arrival_time = 30.0 * i
        s.budget = 1.0
    workload = WorkloadSpec(specs, 2.0, 0)
    result = engine.run(workload, "ebpsm", mono_cloud, oracle, seed=0)
    trace = events(result.trace)
    times = [ev.time_us for ev in trace]
    assert times == sorted(times)
    arrivals = sum(1 for ev in trace if ev.name == "workflow_arrival")
    completions = sum(1 for ev in trace if ev.name == "task_complete")
    assert arrivals == len(specs)
    assert completions == sum(len(s.tasks) for s in specs)
    end = trace[-1]
    assert end.name == "simulation_end"
    scans_bound = end.time_us // mono_cloud.scan_interval_us + 1
    terminations = sum(1 for ev in trace if ev.name == "vm_terminated")
    assert terminations <= scans_bound + completions


def test_scan_ticks_only_where_a_vm_can_come_due(monkeypatch, oracle):
    """A scan tick is pushed only where a VM can come due, so on these runs
    every tick that runs terminates or releases a VM. On the chain, which
    runs for hours on a VM or two, a tick at every interval would give
    thousands, and one at every completion a hundred."""
    ticks = empty = 0
    original = engine._Simulation._on_scan_tick

    def tick(sim):
        nonlocal ticks, empty
        before = len(sim._chunk)
        original(sim)
        ticks += 1
        empty += len(sim._chunk) == before

    monkeypatch.setattr(engine._Simulation, "_on_scan_tick", tick)
    rng = random.Random(808)
    chain = single_workload(chain_workflow([24.0 * rng.randint(3, 25) for _ in range(100)],
                                           budget=0.2))
    trace = engine.run(chain, "ebpsm", CloudConfig(), oracle, seed=0).trace
    assert sum(rec[1] == "task_complete" for rec in trace) == 100
    assert 0 < ticks < 10 and empty == 0
    mix = generate_workload(ExperimentConfig().build_catalog(), 40, 12.0, 808)
    mono = CloudConfig(catalog=(MICRO,))
    for scheduler, cloud in (("ebpsm", CloudConfig()), ("fcfs", mono),
                             ("ebpsm-homogeneous", mono)):
        ticks = 0
        engine.run(mix, scheduler, cloud, oracle, seed=0)
        assert ticks > 0 and empty == 0, scheduler


def test_every_vm_terminated_before_end(mono_cloud, oracle):
    """Every VM leased is terminated once, before `simulation_end`."""
    spec = genome_template("chr22", 4, budget=1.0)
    trace = events(engine.run(single_workload(spec), "ebpsm", mono_cloud, oracle, seed=0).trace)
    leased = [ev.fields["vm"] for ev in trace if ev.name == "provision_request"]
    terminated = [ev.fields["vm"] for ev in trace[:-1] if ev.name == "vm_terminated"]
    assert sorted(terminated) == sorted(set(leased)) == sorted(leased)
    assert trace[-1].name == "simulation_end"


def test_fleet_cost_matches_trace_bills(mono_cloud, oracle):
    """Each `vm_terminated` record bills the ceil of its VM's lease, from
    its availability to its termination, and the bills sum to the report's
    fleet cost."""
    spec = genome_template("chr21", 3, budget=1.0)
    result = engine.run(single_workload(spec), "ebpsm", mono_cloud, oracle, seed=0)
    available_at, billed = {}, 0
    for ev in events(result.trace):
        if ev.name == "provision_request":
            available_at[ev.fields["vm"]] = ev.fields["available_at_us"]
        elif ev.name == "vm_terminated":
            lease_us = ev.time_us - available_at.pop(ev.fields["vm"])
            assert ev.fields["billed_s"] == -(-lease_us // 1_000_000)
            billed += ev.fields["bill_nanos"]
    assert available_at == {}
    assert billed == result.report.fleet.total_cost_nanos > 0


@pytest.mark.parametrize("scheduler", ["ebpsm", "fcfs"])
def test_a_run_ends_with_no_live_vm(mono_cloud, oracle, scheduler):
    """The fleet holds only live VMs: none is left after a run, and its
    lease count is the `simulation_end` record's VM count."""
    workload = generate_workload([(genome_template("g", 4), 0.05)], 20, 6.0, seed=5)
    sim = engine._Simulation(workload, scheduler, mono_cloud, oracle, seed=5)
    end = events(sim.run().trace)[-1]
    assert sim.fleet.instances == {}
    assert sim.fleet.leased == end.fields["vms"] > 1


class RecordingSink:
    """A trace sink that keeps each chunk it is handed."""

    def __init__(self):
        self.chunks = []

    def extend(self, records):
        self.chunks.append(list(records))

    def __len__(self):
        return sum(map(len, self.chunks))


@pytest.mark.parametrize("chunk", [1, 7, engine._CHUNK])
def test_sink_receives_the_trace_in_time_step_chunks(monkeypatch, oracle, chunk):
    """With provisioning and runtimes above zero, no two time steps share a
    time, so a chunk handed over at a time step's end is followed by a later
    time, or by `simulation_end` alone."""
    workload = generate_workload([(genome_template("g", 4), 0.05)], 30, 6.0, seed=5)
    expected = engine.run(workload, "ebpsm", CloudConfig(), oracle, seed=5)
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    sink = RecordingSink()
    result = engine.run(workload, "ebpsm", CloudConfig(), oracle, seed=5, trace=sink)
    assert result.trace is sink
    assert [rec for records in sink.chunks for rec in records] == expected.trace
    assert result.report == expected.report
    assert len(sink) == len(expected.trace) > 2 * engine._CHUNK
    assert all(len(records) >= chunk for records in sink.chunks[:-1])
    for before, after in zip(sink.chunks, sink.chunks[1:]):
        assert before[-1][0] < after[0][0] or after == expected.trace[-1:]
    if chunk == 1:
        assert all(len({rec[0] for rec in records}) == 1 for records in sink.chunks)


def test_trace_longer_than_two_render_chunks_renders_line_by_line(oracle):
    """`checkpoint_trace` renders a long trace chunk by chunk; the text is
    that of its records rendered one by one, at every chunk boundary."""
    workload = generate_workload([(genome_template("g", 4), 0.05)], 80, 6.0, seed=5)
    trace = engine.run(workload, "ebpsm", CloudConfig(), oracle, seed=5).trace
    size = metrics._RENDER_CHUNK
    assert len(trace) > 2 * size + 1
    for n in (1, size - 1, size, size + 1, 2 * size, 2 * size + 1, len(trace)):
        assert metrics.checkpoint_trace(trace[:n]) == "".join(
            render(rec) + "\n" for rec in trace[:n])


def test_stall_error_on_broken_policy(monkeypatch, mono_cloud, oracle):
    """The records emitted before the stall still reach the sink, and a
    report of them names the workflow that never completed."""
    class DeadPolicy:
        name = "dead"
        dedicated = False

        def on_arrival(self, run):
            pass

        def enqueue_ready(self, run, task):
            pass

        def schedule_ready(self, fleet):
            return []

        def on_complete(self, run, task, vm_type, runtime_us, cost):
            pass

    monkeypatch.setattr(engine, "make_policy", lambda *a, **k: DeadPolicy())
    sink = RecordingSink()
    with pytest.raises(StallError):
        engine.run(single_workload(chain_workflow([5.0])), "ebpsm",
                   mono_cloud, oracle, seed=0, trace=sink)
    assert [[rec[1] for rec in records] for records in sink.chunks] == \
        [["workflow_arrival", "task_ready"]]
    fold = ReportFold(mono_cloud.catalog)
    fold.extend(sink.chunks[0])
    with pytest.raises(IllegalState, match="workflow 'chain' has not completed"):
        fold.report("dead", 0, "")


def test_duplicate_workflow_ids_are_rejected_before_any_record(mono_cloud, oracle):
    """The engine tracks and reports workflows by id, so two sharing one
    would be simulated as one."""
    first = chain_workflow([5.0], wid="w")
    workload = WorkloadSpec([first, replace(first, arrival_time=5.0)], 1.0, 0)
    sink = RecordingSink()
    with pytest.raises(ConfigError, match="workflow id 'w' occurs more than once"):
        engine.run(workload, "ebpsm", mono_cloud, oracle, seed=0, trace=sink)
    assert sink.chunks == []


@pytest.mark.parametrize("mode", ["oracle", "history"])
def test_finished_workflows_release_their_state(monkeypatch, mode):
    """Whether its workflows share their template's task mapping or were
    parsed one by one, a run leaves the policy no plan. Under "history" with
    variable runtimes the cost rows change mid-run, so plans go stale and
    are replaced while older workflows still hold them."""
    policies, replaced = [], []

    def capture(*args):
        policy = make_policy(*args)
        on_arrival = policy.on_arrival

        def record_arrival(run):
            held = policy._plans.get(id(run.spec.tasks))
            replaced.append(held is not None and held.changes != policy.costs.changes)
            on_arrival(run)

        policy.on_arrival = record_arrival
        policies.append(policy)
        return policy

    spec = genome_template("chr21", 3, budget=1.0)
    shared = generate_workload([(spec, 0.02), (spec, 0.2)], 6, 0.5, seed=3)
    parsed = parse_workload(serialize_workload(shared))
    assert len({id(w.tasks) for w in parsed.workflows}) == 6
    monkeypatch.setattr(engine, "make_policy", capture)
    cloud = CloudConfig(variability=VariabilityConfig("lognormal", 0.2))
    for workload in (shared, parsed):
        engine.run(workload, "ebpsm", cloud, EstimatorConfig(mode), seed=0)
    assert len(policies) == 2 and len(replaced) == 12
    assert any(replaced) == (mode == "history")
    assert all(len(policy._plans) == 0 for policy in policies)


@pytest.mark.parametrize("scheduler", ["ebpsm", "fcfs"])
def test_the_engine_holds_no_finished_run(monkeypatch, oracle, scheduler):
    """A workflow's run lives from its arrival to its completion: when a
    chunk reaches the sink, no run whose `workflow_complete` reached it in
    an earlier chunk is still held. Each time step is its own chunk here."""
    made = {}

    class TrackedRun(engine.WorkflowRun):
        __slots__ = ("__weakref__",)

        def __init__(self, spec, *args, **kwargs):
            super().__init__(spec, *args, **kwargs)
            made[spec.id] = weakref.ref(self)

    class Sink(list):
        def __init__(self):
            super().__init__()
            self.completed, self.checked = [], 0

        def extend(self, records):
            assert [wid for wid in self.completed if made[wid]() is not None] == []
            self.checked += len(self.completed)
            self.completed += [rec[2] for rec in records if rec[1] == "workflow_complete"]
            super().extend(records)

    monkeypatch.setattr(engine, "WorkflowRun", TrackedRun)
    monkeypatch.setattr(engine, "_CHUNK", 1)
    workload = generate_workload([(genome_template("g", 4), 0.05)], 30, 6.0, seed=5)
    sink = Sink()
    engine.run(workload, scheduler, CloudConfig(catalog=(MICRO,)), oracle, seed=5, trace=sink)
    assert len(made) == len(sink.completed) == 30
    assert sink.checked > 30


def test_variability_changes_runtimes_reproducibly(oracle):
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
    ready = [ev for ev in events(result.trace) if ev.name == "task_ready"]
    assert len(ready) == 5
    assert {ev.time_us for ev in ready} == {0}


def test_oracle_estimates_equal_actuals_without_variability(mono_cloud, oracle):
    """End-to-end: every task's recorded runtime equals its model estimate."""
    spec = genome_template("chr21", 3, budget=1.0)
    result = engine.run(single_workload(spec), "ebpsm", mono_cloud, oracle, seed=0)
    for ev in events(result.trace):
        if ev.name == "task_start":
            task = spec.tasks[ev.fields["task"]]
            assert ev.fields["runtime_us"] == round(task.total_runtime * 1e6)


def test_readme_library_example_runs(capsys):
    """README's "Library use" block is the documented library API."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    met_pct, utilization = map(float, capsys.readouterr().out.split())
    assert 0.0 <= met_pct <= 100.0 and 0.0 < utilization <= 100.0


def test_readme_trace_table_is_the_field_table():
    """README's "Trace format" table lists every kind of `RECORD_FIELDS`
    with its keys in order, and the table names exactly the 12 events of
    the trace."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Trace format", 1)[1].split("\n## ", 1)[0]
    rows = ["| event | values after `time_us` and the event |", "| --- | --- |"]
    for name, keys in RECORD_FIELDS.items():
        values = ", ".join("VM type (not rendered)" if key is None else f"`{key}`"
                           for key in keys)
        rows.append(f"| `{name}` | {values} |")
    assert "\n".join(rows) in section
    assert re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE) == [
        "workflow_arrival", "task_ready", "provision_request", "vm_available",
        "task_assign", "task_start", "task_complete", "vm_idle", "vm_terminated",
        "vm_released", "workflow_complete", "simulation_end"]
    assert len(RECORD_FIELDS) == 12
