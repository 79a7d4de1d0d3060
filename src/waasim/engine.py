"""Deterministic discrete-event simulation loop.

Binds workload arrivals, scheduler decisions, VM lifecycle events and the
periodic idle scan into a single (time, seq)-ordered execution producing a
metrics report and a diff-friendly trace.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable

from .cloud import CloudConfig, Fleet, VmInstance, task_runtime_on
from .errors import StallError
from .estimator import EstimatorConfig, ExecutionRecord, RuntimeEstimator
from .metrics import FleetMetrics, MetricsReport, WorkflowMetrics
from .scheduler import Assign, make_policy
from .units import ceil_whole_seconds, substream_seed, usec
from .workflow import TaskRecord, WorkloadSpec, workload_hash

ARRIVAL = "workflow_arrival"
VM_AVAILABLE = "vm_available"


@dataclass
class TraceEvent:
    time_us: int
    name: str
    fields: dict

    def render(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"{self.time_us}\t{self.name}\t{parts}".rstrip()


def checkpoint_trace(trace: list[TraceEvent]) -> str:
    """Stable text serialization used for golden-trace regression tests."""
    return "\n".join(ev.render() for ev in trace) + "\n"


@dataclass
class WorkflowRun:
    """Mutable per-run state for one workflow instance; `spec` is shared
    and never changed."""

    spec: object
    arrival_us: int
    budget_nanos: int
    eft_us: dict[str, int] | None = None
    pending_parents: dict[str, int] = field(default_factory=dict)
    unfinished: int = 0
    cost_nanos: int = 0
    done_at_us: int | None = None


# Trace events that are also rows of the assignment log, with their row name.
_ASSIGNMENT_EVENTS = {"task_assign": "assign", "task_start": "start",
                      "task_complete": "complete", "provision_request": "provision"}


@dataclass
class SimulationResult:
    report: MetricsReport
    trace: list[TraceEvent]
    fleet: Fleet

    @property
    def assignments(self) -> list[tuple]:
        """(time_us, workflow, task, vm id, vm type, event) rows, derived
        from the trace in event order."""
        rows = []
        for ev in self.trace:
            event = _ASSIGNMENT_EVENTS.get(ev.name)
            if event is not None:
                vm = self.fleet.instances[ev.fields["vm"]]
                rows.append((ev.time_us, ev.fields["workflow"], ev.fields["task"],
                             vm.id, vm.vm_type.name, event))
        return rows


class _Simulation:
    def __init__(self, workload: WorkloadSpec, scheduler: str, cloud: CloudConfig,
                 estimator_config: EstimatorConfig, seed: int):
        self.cloud = cloud
        self.estimator = RuntimeEstimator(estimator_config, cloud.catalog)
        self.policy = make_policy(scheduler, cloud, self.estimator)
        self.var_rng = random.Random(substream_seed(seed, "variability"))
        self.seed = seed
        self.workload = workload
        self.fleet = Fleet(cloud)
        self.clock_us = 0
        self._heap: list[tuple[int, int, Callable, tuple]] = []
        self._seq = 0
        self.trace: list[TraceEvent] = []
        self.runs: dict[str, WorkflowRun] = {}
        self._completed = 0
        self._next_tick_us: int | None = None

    # -- event plumbing ----------------------------------------------------

    def _push(self, time_us: int, handler: Callable, payload: tuple = ()) -> None:
        """Schedule `handler(*payload)`; `seq` is unique, so handlers are
        never compared and same-time events run in push order."""
        assert time_us >= self.clock_us
        self._seq += 1
        heapq.heappush(self._heap, (time_us, self._seq, handler, payload))

    def _emit(self, name: str, **fields) -> None:
        self.trace.append(TraceEvent(self.clock_us, name, fields))

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimulationResult:
        for wf in self.workload.workflows:
            run = WorkflowRun(
                spec=wf,
                arrival_us=usec(wf.arrival_time),
                budget_nanos=round(wf.budget * 1e9),
            )
            self.runs[wf.id] = run
            self._push(run.arrival_us, self._on_arrival, (wf.id,))

        while self._heap:
            now = self._heap[0][0]
            self.clock_us = now
            while self._heap and self._heap[0][0] == now:
                _, _, handler, payload = heapq.heappop(self._heap)
                handler(*payload)
            self._dispatch()
            self._maybe_schedule_tick()
            if self._finished():
                break

        unfinished = len(self.runs) - self._completed
        if unfinished:
            raise StallError(f"event queue drained with {unfinished} unfinished workflows")
        self._emit("simulation_end",
                   workflows=len(self.runs), vms=len(self.fleet.instances))
        return SimulationResult(
            report=self._build_report(),
            trace=self.trace,
            fleet=self.fleet,
        )

    def _finished(self) -> bool:
        return (self._completed == len(self.runs)
                and not self.fleet.unreleased(self.clock_us))

    # -- event handlers -----------------------------------------------------

    def _on_arrival(self, workflow_id: str) -> None:
        run = self.runs[workflow_id]
        run.pending_parents = {
            tid: len(t.parents) for tid, t in run.spec.tasks.items()
        }
        run.unfinished = len(run.spec.tasks)
        self._emit(ARRIVAL, workflow=workflow_id, tasks=len(run.spec.tasks),
                   budget_nanos=run.budget_nanos)
        self.policy.on_arrival(run, self.clock_us)
        for tid in sorted(run.spec.tasks):
            if run.pending_parents[tid] == 0:
                self._make_ready(run, run.spec.tasks[tid])

    def _make_ready(self, run: WorkflowRun, task: TaskRecord) -> None:
        self._emit("task_ready", workflow=run.spec.id, task=task.id)
        self.policy.enqueue_ready(run, task, self.clock_us)

    def _on_vm_available(self, vm: VmInstance, run: WorkflowRun, task: TaskRecord) -> None:
        self.fleet.mark_available(vm, self.clock_us)
        self._emit(VM_AVAILABLE, vm=vm.id, type=vm.vm_type.name)
        self._start_task(run, task, vm)

    def _start_task(self, run: WorkflowRun, task: TaskRecord, vm: VmInstance) -> None:
        runtime_s = task_runtime_on(vm.vm_type, task.total_runtime,
                                    self.var_rng, self.cloud.variability)
        runtime_us = usec(runtime_s)
        self.fleet.start_task(vm, self.clock_us, runtime_us)
        self._emit("task_start", workflow=run.spec.id, task=task.id, vm=vm.id,
                   type=vm.vm_type.name, runtime_us=runtime_us)
        self._push(self.clock_us + runtime_us, self._on_task_completed,
                   (run, task, vm, runtime_us))

    def _on_task_completed(self, run: WorkflowRun, task: TaskRecord, vm: VmInstance,
                           runtime_us: int) -> None:
        run.unfinished -= 1

        cost_nanos = ceil_whole_seconds(runtime_us) * vm.vm_type.price_nanos
        run.cost_nanos += cost_nanos
        self._emit("task_complete", workflow=run.spec.id, task=task.id, vm=vm.id,
                   cost_nanos=cost_nanos)
        self.estimator.record(ExecutionRecord(
            task_kind=task.kind,
            vm_type_name=vm.vm_type.name,
            actual_runtime=runtime_us / 1e6,
        ))
        self.policy.on_complete(run, task, cost_nanos, self.clock_us)

        self.fleet.finish_task(vm, self.clock_us)
        if self.policy.dedicated:
            self.fleet.terminate(vm, self.clock_us)
            self._retire([vm])
        else:
            self._emit("vm_idle", vm=vm.id)

        for child_id in sorted(task.children):
            run.pending_parents[child_id] -= 1
            if run.pending_parents[child_id] == 0:
                self._make_ready(run, run.spec.tasks[child_id])

        if run.unfinished == 0:
            run.done_at_us = self.clock_us
            # Nothing reads a finished workflow's dispatch state again.
            run.eft_us = None
            run.pending_parents.clear()
            self._completed += 1
            self._emit("workflow_complete", workflow=run.spec.id,
                       makespan_us=self.clock_us - run.arrival_us,
                       cost_nanos=run.cost_nanos)

    def _on_scan_tick(self) -> None:
        self._next_tick_us = None
        self._retire(self.fleet.idle_scan(self.clock_us))

    def _retire(self, terminated: list[VmInstance]) -> None:
        """Trace VMs just terminated, then every VM whose release came due."""
        for vm in terminated:
            self._emit("vm_terminated", vm=vm.id, billed_s=vm.billed_seconds,
                       bill_nanos=vm.bill_nanos)
        for vm in self.fleet.release_due(self.clock_us):
            self._emit("vm_released", vm=vm.id)

    def _dispatch(self) -> None:
        actions = self.policy.schedule_ready(self.fleet, self.clock_us)
        for action in actions:
            task = action.task
            if isinstance(action, Assign):
                vm = self.fleet.instances[action.vm_id]
                self._emit("task_assign", workflow=action.run.spec.id, task=task.id,
                           vm=vm.id, type=vm.vm_type.name)
                self._start_task(action.run, task, vm)
            else:
                vm = self.fleet.provision(action.vm_type, self.clock_us)
                self._emit("provision_request", workflow=action.run.spec.id,
                           task=task.id, vm=vm.id, type=vm.vm_type.name,
                           available_at_us=vm.available_at_us)
                self._push(vm.available_at_us, self._on_vm_available, (vm, action.run, task))

    def _maybe_schedule_tick(self) -> None:
        if self._next_tick_us is not None:
            return
        if not self.fleet.unreleased(self.clock_us):
            return
        interval = self.cloud.scan_interval_us
        next_tick = (self.clock_us // interval + 1) * interval
        self._next_tick_us = next_tick
        self._push(next_tick, self._on_scan_tick)

    # -- reporting ----------------------------------------------------------

    def _build_report(self) -> MetricsReport:
        workflows = []
        for wf_id in sorted(self.runs):
            run = self.runs[wf_id]
            cost_usd = run.cost_nanos / 1e9
            budget_usd = run.budget_nanos / 1e9
            met = run.cost_nanos <= run.budget_nanos
            if run.budget_nanos > 0:
                ratio = run.cost_nanos / run.budget_nanos
            else:
                ratio = 0.0 if run.cost_nanos == 0 else float("inf")
            makespan_us = run.done_at_us - run.arrival_us
            workflows.append(WorkflowMetrics(
                workflow_id=wf_id,
                arrival_s=run.arrival_us / 1e6,
                makespan_s=makespan_us / 1e6,
                cost_usd=cost_usd,
                budget_usd=budget_usd,
                budget_met=met,
                cost_per_budget=ratio,
                cost_nanos=run.cost_nanos,
                makespan_us=makespan_us,
            ))
        busy_us = sum(vm.busy_usec for vm in self.fleet.instances.values())
        billed_s = sum(vm.billed_seconds for vm in self.fleet.instances.values())
        total_nanos = self.fleet.total_bill_nanos()
        utilization = 100.0 * busy_us / (billed_s * 1e6) if billed_s else 0.0
        fleet = FleetMetrics(
            vm_counts=self.fleet.counts_by_type(),
            total_vms=len(self.fleet.instances),
            busy_seconds=busy_us / 1e6,
            billed_seconds=billed_s,
            utilization_pct=utilization,
            total_cost_usd=total_nanos / 1e9,
            total_cost_nanos=total_nanos,
        )
        return MetricsReport(
            scheduler=self.policy.name,
            seed=self.seed,
            workload_hash=workload_hash(self.workload),
            workflows=workflows,
            fleet=fleet,
        )


def run(workload: WorkloadSpec, scheduler: str = "ebpsm",
        cloud: CloudConfig | None = None,
        estimator: EstimatorConfig | None = None,
        seed: int = 0) -> SimulationResult:
    """Simulate a workload under one scheduling policy."""
    sim = _Simulation(
        workload,
        scheduler,
        cloud or CloudConfig(),
        estimator or EstimatorConfig(),
        seed,
    )
    return sim.run()
