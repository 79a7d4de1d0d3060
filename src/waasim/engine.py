"""Deterministic discrete-event simulation loop.

Binds workload arrivals, scheduler decisions, VM lifecycle events and the
periodic idle scan into a single (time, seq)-ordered execution producing a
metrics report and a diff-friendly trace.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable

from .cloud import CloudConfig, Fleet, VmInstance, finalize_billing, task_runtime_on
from .errors import ConfigError, StallError
from .estimator import EstimatorConfig
from .metrics import ASSIGNMENT_EVENTS, MetricsReport, ReportFold
from .scheduler import BudgetLedger, make_policy
from .units import ceil_whole_seconds, nanos, substream_seed, usec
from .workflow import TaskRecord, WorkloadSpec, workload_hash

# Each event is one record: the tuple (time_us, event, v1, v2, ...), whose
# values follow the event's keys here. A None key is a value the trace line
# leaves out: `task_complete` carries its VM's type only so that every
# record of the assignment log has its VM type at index 5.
_FIELDS = {
    "workflow_arrival": ("workflow", "tasks", "budget_nanos"),
    "task_ready": ("workflow", "task"),
    "provision_request": ("workflow", "task", "vm", "type", "available_at_us"),
    "vm_available": ("vm", "type"),
    "task_assign": ("workflow", "task", "vm", "type"),
    "task_start": ("workflow", "task", "vm", "type", "runtime_us"),
    "task_complete": ("workflow", "task", "vm", None, "cost_nanos"),
    "vm_idle": ("vm",),
    "vm_terminated": ("vm", "billed_s", "bill_nanos"),
    "vm_released": ("vm",),
    "workflow_complete": ("workflow", "makespan_us", "cost_nanos"),
    "simulation_end": ("workflows", "vms"),
}

# Per event, the %-template of its trace line, applied to the record itself:
# its first two `%s` take the time and the event, and a None key's `%.0s`
# takes that value and prints nothing.
_TEMPLATES = {
    name: "%s\t%s\t" + "".join(f" {key}=%s" if key else "%.0s" for key in keys).lstrip(" ")
    for name, keys in _FIELDS.items()
}


# Records the engine gathers before it hands them to the trace sink in one
# `extend` call, at the end of a time step.
_CHUNK = 512


def render(rec: tuple) -> str:
    """The trace line of a record, without its newline. Ids are arbitrary
    strings, so a line is stripped of the whitespace its last value may end
    in."""
    return (_TEMPLATES[rec[1]] % rec).rstrip()


# Records `checkpoint_trace` renders into one text before it joins the texts:
# a list of every line of a long trace would hold its text about three times.
_RENDER_CHUNK = 2048


def checkpoint_trace(records: list[tuple]) -> str:
    """The trace lines of one or more records, each ending in a newline: the
    stable text of a trace, as the golden traces hold it."""
    templates = _TEMPLATES
    return "".join(["\n".join([(templates[rec[1]] % rec).rstrip()
                               for rec in records[i:i + _RENDER_CHUNK]]) + "\n"
                    for i in range(0, len(records), _RENDER_CHUNK)])


class WorkflowRun:
    """Mutable per-run state for one workflow instance; `spec` is shared
    and never changed."""

    __slots__ = ("spec", "arrival_us", "budget_nanos", "plan", "ledger",
                 "pending_parents", "unfinished", "cost_nanos")

    def __init__(self, spec, arrival_us: int, budget_nanos: int):
        self.spec = spec
        self.arrival_us = arrival_us
        self.budget_nanos = budget_nanos
        # The policy's plan and budget ledger for this workflow, set on
        # arrival and dropped when the workflow completes.
        self.plan = None
        self.ledger: BudgetLedger | None = None
        self.pending_parents: dict[str, int] = {}
        self.unfinished = 0
        self.cost_nanos = 0


class SimulationResult:
    """`trace` is the sink given to `run`: a list of every record by default."""

    __slots__ = ("report", "trace")

    def __init__(self, report: MetricsReport, trace: list[tuple]):
        self.report = report
        self.trace = trace

    @property
    def assignments(self) -> list[tuple]:
        """The records of an in-memory trace that are rows of the assignment
        log, in event order."""
        events = ASSIGNMENT_EVENTS
        return [rec for rec in self.trace if rec[1] in events]


class _Simulation:
    def __init__(self, workload: WorkloadSpec, scheduler: str, cloud: CloudConfig,
                 estimator_config: EstimatorConfig, seed: int, trace=None):
        self.cloud = cloud
        self.policy = make_policy(scheduler, cloud, estimator_config)
        self.var_rng = random.Random(substream_seed(seed, "variability"))
        self.seed = seed
        self.workload = workload
        self.fleet = Fleet(cloud)
        self.clock_us = 0
        self._heap: list[tuple[int, int, Callable, tuple]] = []
        self._seq = 0
        self.trace = [] if trace is None else trace
        self._fold = ReportFold(cloud.catalog)
        # Handlers append records here; `_flush` hands them to the sink.
        self._chunk: list[tuple] = []
        self._append = self._chunk.append
        self.runs: dict[str, WorkflowRun] = {}
        self._completed = 0
        self._next_tick_us: int | None = None
        self._scan_interval_us = cloud.scan_interval_us

    # -- event plumbing ----------------------------------------------------

    def _push(self, time_us: int, handler: Callable, payload: tuple = ()) -> None:
        """Schedule `handler(*payload)`; `seq` is unique, so handlers are
        never compared and same-time events run in push order."""
        assert time_us >= self.clock_us
        self._seq += 1
        heapq.heappush(self._heap, (time_us, self._seq, handler, payload))

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimulationResult:
        for wf in self.workload.workflows:
            if wf.id in self.runs:
                raise ConfigError(f"workflow id {wf.id!r} occurs more than once in the workload")
            run = WorkflowRun(
                spec=wf,
                arrival_us=usec(wf.arrival_time),
                budget_nanos=nanos(wf.budget),
            )
            self.runs[wf.id] = run
            self._push(run.arrival_us, self._on_arrival, (run,))

        # A run that raises still hands the sink every record it emitted.
        chunk = self._chunk
        try:
            while self._heap:
                now = self._heap[0][0]
                self.clock_us = now
                while self._heap and self._heap[0][0] == now:
                    _, _, handler, payload = heapq.heappop(self._heap)
                    handler(*payload)
                self._dispatch()
                self._maybe_schedule_tick()
                if len(chunk) >= _CHUNK:
                    self._flush()
                if self._finished():
                    break

            unfinished = len(self.runs) - self._completed
            if unfinished:
                raise StallError(f"event queue drained with {unfinished} unfinished workflows")
            self._append((self.clock_us, "simulation_end",
                          len(self.runs), len(self.fleet.instances)))
        finally:
            self._flush()
        report = self._fold.report(self.policy.name, self.seed, workload_hash(self.workload))
        return SimulationResult(report=report, trace=self.trace)

    def _flush(self) -> None:
        if self._chunk:
            self._fold.extend(self._chunk)
            self.trace.extend(self._chunk)
            self._chunk.clear()

    def _finished(self) -> bool:
        return (self._completed == len(self.runs)
                and not self.fleet.unreleased(self.clock_us))

    # -- event handlers -----------------------------------------------------

    def _on_arrival(self, run: WorkflowRun) -> None:
        tasks = run.spec.tasks
        run.pending_parents = {tid: len(t.parents) for tid, t in tasks.items()}
        run.unfinished = len(tasks)
        self._append((self.clock_us, "workflow_arrival", run.spec.id, len(tasks),
                      run.budget_nanos))
        self.policy.on_arrival(run)
        for task in tasks.values():
            if not task.parents:
                self._make_ready(run, task)

    def _make_ready(self, run: WorkflowRun, task: TaskRecord) -> None:
        self._append((self.clock_us, "task_ready", run.spec.id, task.id))
        self.policy.enqueue_ready(run, task)

    def _on_vm_available(self, vm: VmInstance, run: WorkflowRun, task: TaskRecord) -> None:
        self.fleet.mark_available(vm)
        self._append((self.clock_us, "vm_available", vm.id, vm.vm_type.name))
        self._start_task(run, task, vm)

    def _start_task(self, run: WorkflowRun, task: TaskRecord, vm: VmInstance) -> None:
        runtime_s = task_runtime_on(vm.vm_type, task.total_runtime,
                                    self.var_rng, self.cloud.variability)
        runtime_us = usec(runtime_s)
        self._append((self.clock_us, "task_start", run.spec.id, task.id, vm.id,
                      vm.vm_type.name, runtime_us))
        self._push(self.clock_us + runtime_us, self._on_task_completed,
                   (run, task, vm, runtime_us))

    def _on_task_completed(self, run: WorkflowRun, task: TaskRecord, vm: VmInstance,
                           runtime_us: int) -> None:
        run.unfinished -= 1

        cost_nanos = ceil_whole_seconds(runtime_us) * vm.vm_type.price_nanos
        run.cost_nanos += cost_nanos
        self._append((self.clock_us, "task_complete", run.spec.id, task.id, vm.id,
                      vm.vm_type.name, cost_nanos))
        self.policy.on_complete(run, task, vm.vm_type, runtime_us, cost_nanos)

        if self.policy.dedicated:
            self.fleet.terminate(vm, self.clock_us)
            self._retire([vm])
        else:
            self.fleet.finish_task(vm, self.clock_us)
            self._append((self.clock_us, "vm_idle", vm.id))

        for child_id in task.children:
            run.pending_parents[child_id] -= 1
            if run.pending_parents[child_id] == 0:
                self._make_ready(run, run.spec.tasks[child_id])

        if run.unfinished == 0:
            # Nothing reads a finished workflow's dependency counts, plan or
            # ledger again.
            run.pending_parents.clear()
            run.plan = run.ledger = None
            self._completed += 1
            self._append((self.clock_us, "workflow_complete", run.spec.id,
                          self.clock_us - run.arrival_us, run.cost_nanos))

    def _on_scan_tick(self) -> None:
        self._next_tick_us = None
        self._retire(self.fleet.idle_scan(self.clock_us))

    def _retire(self, terminated: list[VmInstance]) -> None:
        """Trace VMs just terminated, then every VM whose release came due."""
        for vm in terminated:
            self._append((self.clock_us, "vm_terminated", vm.id, *finalize_billing(vm)))
        for vm in self.fleet.release_due(self.clock_us):
            self._append((self.clock_us, "vm_released", vm.id))

    def _dispatch(self) -> None:
        # The target tells the decisions apart (see scheduler.Assign, Provision).
        for run, task, target in self.policy.schedule_ready(self.fleet):
            if type(target) is str:
                vm = self.fleet.instances[target]
                self.fleet.start_task(vm)
                self._append((self.clock_us, "task_assign", run.spec.id, task.id,
                              vm.id, vm.vm_type.name))
                self._start_task(run, task, vm)
            else:
                vm = self.fleet.provision(target, self.clock_us)
                self._append((self.clock_us, "provision_request", run.spec.id,
                              task.id, vm.id, vm.vm_type.name, vm.available_at_us))
                self._push(vm.available_at_us, self._on_vm_available, (vm, run, task))

    def _maybe_schedule_tick(self) -> None:
        if self._next_tick_us is not None:
            return
        if not self.fleet.unreleased(self.clock_us):
            return
        interval = self._scan_interval_us
        next_tick = (self.clock_us // interval + 1) * interval
        # Skip the ticks that would find nothing: tick at the first multiple
        # at or after the fleet's next due time, or the next event's time if
        # that is earlier. Every skipped tick would have been alone in its
        # batch, so no batch runs between this push and the push a tick every
        # interval would make, and the tick keeps its rank at its time.
        due = self.fleet.next_due_us()
        if self._heap and (due is None or self._heap[0][0] < due):
            due = self._heap[0][0]
        if due is not None and due > next_tick:
            next_tick = -(-due // interval) * interval
        self._next_tick_us = next_tick
        self._push(next_tick, self._on_scan_tick)


def run(workload: WorkloadSpec, scheduler: str = "ebpsm",
        cloud: CloudConfig | None = None,
        estimator: EstimatorConfig | None = None,
        seed: int = 0, trace=None) -> SimulationResult:
    """Simulate a workload under one scheduling policy.

    The events' records are handed to `trace` in order, in chunks of a few
    hundred, each through one `extend` call at the end of a time step:
    `trace` is any object with `extend` and `__len__`, by default a new
    list. `result.trace` is that object."""
    sim = _Simulation(
        workload,
        scheduler,
        cloud or CloudConfig(),
        estimator or EstimatorConfig(),
        seed,
        trace,
    )
    return sim.run()
