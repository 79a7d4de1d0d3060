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
# `checkpoint_trace` is bound here too: the benchmark reads `engine.checkpoint_trace`.
from .metrics import ASSIGNMENT_EVENTS, MetricsReport, ReportFold, checkpoint_trace
from .scheduler import BudgetLedger, make_policy
from .units import ceil_whole_seconds, nanos, substream_seed, usec
from .workflow import TaskRecord, WorkloadSpec, workload_hash

# Records the engine gathers before it hands them to the trace sink in one
# `extend` call, at the end of a time step.
_CHUNK = 512


class WorkflowRun:
    """Mutable per-run state for one workflow instance, made when it arrives
    and held by nothing once its last task completes; `spec` is shared and
    never changed."""

    __slots__ = ("spec", "arrival_us", "budget_nanos", "plan", "ledger",
                 "pending_parents", "unfinished", "cost_nanos")

    def __init__(self, spec, arrival_us: int, budget_nanos: int):
        self.spec = spec
        self.arrival_us = arrival_us
        self.budget_nanos = budget_nanos
        # The policy's plan and budget ledger for this workflow, set on arrival.
        self.plan = None
        self.ledger: BudgetLedger | None = None
        self.pending_parents = {tid: len(t.parents) for tid, t in spec.tasks.items()}
        self.unfinished = len(spec.tasks)
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
        self._workflows = len(workload.workflows)
        self._completed = 0
        self._scan_interval_us = cloud.scan_interval_us
        # The pending scan tick, where a scan pushed at every multiple of the
        # interval while a VM is held would be: its time (at or before the
        # clock while none is pending), its rank, the push count that scan
        # would follow, and whether it is in the heap.
        self._tick_us = -1
        self._tick_rank = 0
        self._tick_pushed = False

    # -- event plumbing ----------------------------------------------------

    def _push(self, time_us: int, handler: Callable, payload: tuple = ()) -> None:
        """Schedule `handler(*payload)`; `seq` is unique, so handlers are
        never compared and same-time events run in push order."""
        assert time_us >= self.clock_us
        self._seq += 1
        heapq.heappush(self._heap, (time_us, self._seq, handler, payload))

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimulationResult:
        ids = set()
        for wf in self.workload.workflows:
            if wf.id in ids:
                raise ConfigError(f"workflow id {wf.id!r} occurs more than once in the workload")
            ids.add(wf.id)
            self._push(usec(wf.arrival_time), self._on_arrival, (wf, nanos(wf.budget)))

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

            unfinished = self._workflows - self._completed
            if unfinished:
                raise StallError(f"event queue drained with {unfinished} unfinished workflows")
            self._append((self.clock_us, "simulation_end",
                          self._workflows, self.fleet.leased))
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
        return (self._completed == self._workflows
                and not self.fleet.unreleased(self.clock_us))

    # -- event handlers -----------------------------------------------------

    def _on_arrival(self, spec, budget_nanos: int) -> None:
        run = WorkflowRun(spec, self.clock_us, budget_nanos)
        self._append((self.clock_us, "workflow_arrival", spec.id, len(spec.tasks), budget_nanos))
        self.policy.on_arrival(run)
        for task in spec.tasks.values():
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
            self._completed += 1
            self._append((self.clock_us, "workflow_complete", run.spec.id,
                          self.clock_us - run.arrival_us, run.cost_nanos))

    def _on_scan_tick(self) -> None:
        self._retire(self.fleet.idle_scan(self.clock_us))

    def _retire(self, terminated: list[VmInstance]) -> None:
        """Trace VMs just terminated, then every VM whose release came due."""
        for vm in terminated:
            self._append((self.clock_us, "vm_terminated", vm.id, *finalize_billing(vm)))
        for vm in self.fleet.release_due(self.clock_us):
            self._append((self.clock_us, "vm_released", vm.id))

    def _dispatch(self) -> None:
        # The target tells the decisions apart: an idle VM to reuse or a VM
        # type to lease (see scheduler.Assign, Provision).
        for run, task, target in self.policy.schedule_ready(self.fleet):
            if type(target) is VmInstance:
                vm = target
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
        """Keep the scan tick that pushing one at the end of every time step
        while a VM is held would leave pending, and push it only when a VM
        can come due by its time. A tick that would find nothing changes
        nothing, so it is skipped, and the ticks after it take their rank
        from the step in which it would have run. A pushed tick's seq is its
        rank + 0.5: it sorts after the events pushed up to that rank and
        before those pushed later, as that push would."""
        now = self.clock_us
        heap = self._heap
        interval = self._scan_interval_us
        tick = self._tick_us
        if tick > now:
            # Pushed already, or later than the next event, whose step ends first.
            if self._tick_pushed or (heap and tick > heap[0][0]):
                return
        elif self.fleet.unreleased(now):
            # The pending tick ran or was skipped in this step, at whose end
            # the next is pushed.
            tick = self._tick_us = (now // interval + 1) * interval
            self._tick_rank = self._seq
            self._tick_pushed = False
        else:
            return
        due = self.fleet.next_due_us()
        if due is not None:
            # Each tick before the first at or after `due` would run alone and
            # find nothing, so the last of them would push this one now.
            due_tick = max(tick, -(-due // interval) * interval)
            if not heap or due_tick <= heap[0][0]:
                if due_tick > tick:
                    self._tick_us, self._tick_rank = due_tick, self._seq
                self._tick_pushed = True
                heapq.heappush(heap, (due_tick, self._tick_rank + 0.5, self._on_scan_tick, ()))
                return
        if heap and tick < heap[0][0]:
            # No VM comes due before the next event: the ticks up to it are
            # skipped, and the first at or after it ranks here.
            self._tick_us = -(-heap[0][0] // interval) * interval
            self._tick_rank = self._seq


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
