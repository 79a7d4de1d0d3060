"""Budget-driven multi-workflow scheduling.

Implements per-task budget distribution and post-completion budget
redistribution over an exact nano-dollar ledger, EFT-ordered dispatch with
VM reuse, plus the FCFS baseline and the homogeneous (budget-blind)
variant used for baseline comparisons.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

from .cloud import CloudConfig, Fleet, VmType, estimated_cost_nanos
from .errors import ConfigError, IllegalState
from .estimator import RuntimeEstimator
from .units import usec
from .workflow import TaskRecord, WorkflowSpec


@dataclass
class BudgetLedger:
    """Per-workflow budget state, exact to the nano-dollar.

    The identity  budget == spent + sub_budgets + unassigned - debt
    holds after every operation. `unscheduled` holds the tasks not yet
    dispatched, in distribution order.
    """

    workflow_id: str
    budget_nanos: int
    unassigned: int = 0
    sub_budgets: dict[str, int] = field(default_factory=dict)
    spent: int = 0
    debt: int = 0
    unscheduled: dict[str, TaskRecord] = field(default_factory=dict)

    def identity_gap(self) -> int:
        """Zero when the ledger identity holds exactly."""
        outstanding = sum(self.sub_budgets.values())
        return self.budget_nanos - (
            self.spent + outstanding + self.unassigned - self.debt
        )


def compute_eft_us(spec: WorkflowSpec, estimator: RuntimeEstimator,
                   reference_type: VmType) -> dict[str, int]:
    """Earliest-finish-time table in microseconds relative to arrival.

    Max-plus recurrence over estimated runtimes on the reference type
    (the fastest type in the catalog); no communication term.
    """
    eft: dict[str, int] = {}
    for tid in sorted(spec.tasks, key=lambda t: (spec.tasks[t].level, t)):
        task = spec.tasks[tid]
        est_us = usec(estimator.estimate(task.kind, reference_type, task.total_runtime))
        ready = max((eft[p] for p in task.parents), default=0)
        eft[tid] = ready + est_us
    return eft


def compute_eft(spec: WorkflowSpec, estimator: RuntimeEstimator,
                reference_type: VmType) -> dict[str, float]:
    """EFT table in seconds (public convenience view)."""
    return {tid: t / 1e6 for tid, t in compute_eft_us(spec, estimator, reference_type).items()}


def distribution_order(tasks: list[TaskRecord], eft_us: dict[str, int]) -> list[TaskRecord]:
    """Budget distribution order: level ascending, then ascending EFT,
    then task id for determinism."""
    return sorted(tasks, key=lambda t: (t.level, eft_us[t.id], t.id))


def _cost_table(task: TaskRecord, estimator: RuntimeEstimator,
                config: CloudConfig) -> dict[str, int]:
    return {
        vm_type.name: estimated_cost_nanos(
            vm_type, usec(estimator.estimate(task.kind, vm_type, task.total_runtime)))
        for vm_type in config.catalog
    }


def _fastest_first(config: CloudConfig) -> list[VmType]:
    return sorted(config.catalog,
                  key=lambda t: (-t.speed_factor, t.price_per_second, t.name))


def _allocate(ledger: BudgetLedger, pool: int, ordered: list[TaskRecord],
              estimator: RuntimeEstimator, config: CloudConfig) -> None:
    """Assign a sub-budget to every task, in distribution order, spending `pool`.

    Each task in turn gets the fastest type it can afford while the pool
    still covers all later tasks at the cheapest type; when nothing
    qualifies it falls back to the cheapest type, with any shortfall
    recorded as debt so execution can always proceed.
    """
    costs = {t.id: _cost_table(t, estimator, config) for t in ordered}
    cheapest = config.cheapest_type.name
    fastest_first = _fastest_first(config)
    reserve = sum(costs[t.id][cheapest] for t in ordered)
    for task in ordered:
        reserve -= costs[task.id][cheapest]
        chosen = None
        for vm_type in fastest_first:
            if costs[task.id][vm_type.name] <= pool - reserve:
                chosen = costs[task.id][vm_type.name]
                break
        if chosen is None:
            chosen = costs[task.id][cheapest]
        ledger.sub_budgets[task.id] = chosen
        if chosen <= pool:
            pool -= chosen
        else:
            ledger.debt += chosen - pool
            pool = 0
    ledger.unassigned += pool


def distribute_budget(workflow_id: str, budget_nanos: int, tasks: list[TaskRecord],
                      eft_us: dict[str, int], estimator: RuntimeEstimator,
                      config: CloudConfig) -> BudgetLedger:
    """Build a fresh ledger and split the workflow budget across its tasks."""
    ordered = distribution_order(tasks, eft_us)
    ledger = BudgetLedger(workflow_id=workflow_id, budget_nanos=budget_nanos,
                          unscheduled={t.id: t for t in ordered})
    _allocate(ledger, budget_nanos, ordered, estimator, config)
    return ledger


def update_budget(ledger: BudgetLedger, finished: TaskRecord, actual_cost_nanos: int,
                  unscheduled: list[TaskRecord], estimator: RuntimeEstimator,
                  config: CloudConfig) -> None:
    """Settle a finished task and redistribute the remaining budget.

    A surplus folds back into the unscheduled pool; an overrun is deducted
    from the pool, spilling into debt once the pool is exhausted. The pool
    is then redistributed over `unscheduled`, the still-unscheduled tasks
    in distribution order.
    """
    if finished.id not in ledger.sub_budgets:
        raise IllegalState(f"task {finished.id!r} has no sub-budget entry")
    sub = ledger.sub_budgets.pop(finished.id)
    ledger.spent += actual_cost_nanos

    pool = ledger.unassigned
    for task in unscheduled:
        pool += ledger.sub_budgets.pop(task.id)
    ledger.unassigned = 0

    pool += sub - actual_cost_nanos
    if pool < 0:
        ledger.debt += -pool
        pool = 0
    _allocate(ledger, pool, unscheduled, estimator, config)


@dataclass
class Assign:
    """Dispatch decision: run the task on an already-leased idle instance."""
    run: object
    task: TaskRecord
    vm_id: str


@dataclass
class Provision:
    """Dispatch decision: lease a new instance of `vm_type` for the task."""
    run: object
    task: TaskRecord
    vm_type: VmType


class EbpsmPolicy:
    """EFT-ordered dispatch with VM reuse and per-task budget caps. The
    homogeneous variant keeps no budget ledger: no cap binds its tasks."""

    dedicated = False

    def __init__(self, config: CloudConfig, estimator: RuntimeEstimator,
                 homogeneous: bool = False):
        if homogeneous and len(config.catalog) != 1:
            raise ConfigError("homogeneous scheduling requires a single-type catalog")
        self.name = "ebpsm-homogeneous" if homogeneous else "ebpsm"
        self.config = config
        self.estimator = estimator
        self.homogeneous = homogeneous
        self.ledgers: dict[str, BudgetLedger] = {}
        self._queue: list[tuple[tuple[int, int, str, str], object, TaskRecord]] = []

    def on_arrival(self, run, now_us: int) -> None:
        spec = run.spec
        for task in spec.tasks.values():
            self.estimator.register_kind(task.kind, task.total_runtime)
        run.eft_us = compute_eft_us(spec, self.estimator, self.config.fastest_type)
        if not self.homogeneous:
            self.ledgers[spec.id] = distribute_budget(
                spec.id, run.budget_nanos, list(spec.tasks.values()),
                run.eft_us, self.estimator, self.config)

    def enqueue_ready(self, run, task: TaskRecord, now_us: int) -> None:
        key = (run.eft_us[task.id], run.arrival_us, run.spec.id, task.id)
        heapq.heappush(self._queue, (key, run, task))

    def schedule_ready(self, fleet: Fleet, now_us: int) -> list[Assign | Provision]:
        actions: list[Assign | Provision] = []
        claimed: set[str] = set()
        while self._queue:
            _, run, task = heapq.heappop(self._queue)
            actions.append(self._decide(run, task, fleet, claimed, now_us))
        return actions

    def _decide(self, run, task: TaskRecord, fleet: Fleet, claimed: set[str],
                now_us: int) -> Assign | Provision:
        ledger = self.ledgers.get(run.spec.id)
        if ledger is None:
            cap = math.inf
        else:
            cap = ledger.sub_budgets[task.id]
            del ledger.unscheduled[task.id]
        # The estimate, and so the cost, depends on the VM type alone, so it
        # is computed once per type, not once per idle VM.
        terms: dict[str, tuple[int, int, bool]] = {}
        for vm_type in self.config.catalog:
            est_us = usec(self.estimator.estimate(task.kind, vm_type, task.total_runtime))
            fits = estimated_cost_nanos(vm_type, est_us) <= cap
            terms[vm_type.name] = (est_us, vm_type.price_nanos, fits)
        best: tuple[int, int, str] | None = None
        for vm in fleet.idle_instances():
            if vm.id in claimed:
                continue
            est_us, price, fits = terms[vm.vm_type.name]
            if not fits:
                continue
            key = (est_us, price, vm.id)
            if best is None or key < best:
                best = key
        if best is not None:
            claimed.add(best[2])
            return Assign(run, task, best[2])
        for vm_type in _fastest_first(self.config):
            if terms[vm_type.name][2]:
                return Provision(run, task, vm_type)
        return Provision(run, task, self.config.cheapest_type)

    def on_complete(self, run, task: TaskRecord, actual_cost_nanos: int,
                    now_us: int) -> None:
        ledger = self.ledgers.get(run.spec.id)
        if ledger is not None:
            update_budget(ledger, task, actual_cost_nanos, list(ledger.unscheduled.values()),
                          self.estimator, self.config)


class FcfsPolicy:
    """Baseline: every task gets a fresh dedicated VM, terminated on completion."""

    name = "fcfs"
    dedicated = True

    def __init__(self, config: CloudConfig, estimator: RuntimeEstimator):
        if len(config.catalog) != 1:
            raise ConfigError("fcfs scheduling requires a single-type catalog")
        self.config = config
        self.estimator = estimator
        self._queue: deque[tuple[object, TaskRecord]] = deque()

    def on_arrival(self, run, now_us: int) -> None:
        for task in run.spec.tasks.values():
            self.estimator.register_kind(task.kind, task.total_runtime)

    def enqueue_ready(self, run, task: TaskRecord, now_us: int) -> None:
        self._queue.append((run, task))

    def schedule_ready(self, fleet: Fleet, now_us: int) -> list[Provision]:
        actions = []
        while self._queue:
            run, task = self._queue.popleft()
            actions.append(Provision(run, task, self.config.catalog[0]))
        return actions

    def on_complete(self, run, task: TaskRecord, actual_cost_nanos: int,
                    now_us: int) -> None:
        pass


SCHEDULER_NAMES = ("ebpsm", "ebpsm-homogeneous", "fcfs")


def make_policy(name: str, config: CloudConfig, estimator: RuntimeEstimator):
    if name == "ebpsm":
        return EbpsmPolicy(config, estimator)
    if name == "ebpsm-homogeneous":
        return EbpsmPolicy(config, estimator, homogeneous=True)
    if name == "fcfs":
        return FcfsPolicy(config, estimator)
    raise ConfigError(f"unknown scheduler {name!r}")
