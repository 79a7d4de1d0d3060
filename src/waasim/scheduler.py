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
from typing import NamedTuple

from .cloud import CloudConfig, Fleet, VmType, estimated_cost_nanos
from .errors import ConfigError, IllegalState
from .estimator import RuntimeEstimator
from .units import usec
from .workflow import TaskRecord, WorkflowSpec


class CostRow(NamedTuple):
    """A task's estimated runtime and cost on each catalog type, fastest
    type first, and its cost on the cheapest type."""

    terms: tuple[tuple[int, int], ...]  # (est_us, cost_nanos)
    cheapest: int


class CostRows:
    """The cost rows of one policy, by (kind, total runtime), shared by its
    budget ledgers and its dispatch decisions. The catalog is ordered once.

    A row depends only on the estimator's records of its own kind, so it is
    priced again only when the estimator's revision of that kind moved."""

    def __init__(self, estimator: RuntimeEstimator, config: CloudConfig):
        self.estimator = estimator
        self.fastest_first = tuple(sorted(
            config.catalog, key=lambda t: (-t.speed_factor, t.price_per_second, t.name)))
        self.cheapest_type = config.cheapest_type
        self._cheapest_at = self.fastest_first.index(self.cheapest_type)
        # EFT's column. Not always the first: of two types equal in speed and
        # price, `fastest_type` is the one with the larger name.
        self.fastest_at = self.fastest_first.index(config.fastest_type)
        self._rows: dict[tuple[str, float], tuple[int, CostRow]] = {}

    def row(self, kind: str, total_runtime: float) -> CostRow:
        """The row of a `kind` task whose total runtime is `total_runtime`."""
        revision = self.estimator.revision(kind)
        kept = self._rows.get((kind, total_runtime))
        if kept is not None and kept[0] == revision:
            return kept[1]
        terms = []
        for vm_type in self.fastest_first:
            est_us = usec(self.estimator.estimate(kind, vm_type, total_runtime))
            terms.append((est_us, estimated_cost_nanos(vm_type, est_us)))
        row = CostRow(tuple(terms), terms[self._cheapest_at][1])
        self._rows[kind, total_runtime] = (revision, row)
        return row


@dataclass
class BudgetLedger:
    """Per-workflow budget state, exact to the nano-dollar.

    The identity  budget == spent + sub_budgets + unassigned - debt
    holds after every operation. `unscheduled` holds the tasks not yet
    dispatched, in distribution order; dispatch takes a task out with
    `lock`.

    `costs` prices the tasks. The remaining fields are what the last fold
    left, so the next one can resume (see `_fold`): the rows it priced
    with, each unscheduled task's position and entering pool, the sum of
    the unscheduled tasks' sub-budgets and their cheapest-cost reserve,
    and the last position at which the next fold may not stop: that of the
    last fold's last debt or of a task locked since, whichever is later.
    """

    workflow_id: str
    budget_nanos: int
    unassigned: int = 0
    sub_budgets: dict[str, int] = field(default_factory=dict)
    spent: int = 0
    debt: int = 0
    unscheduled: dict[str, TaskRecord] = field(default_factory=dict)
    costs: CostRows | None = field(default=None, repr=False)
    rows: dict[tuple[str, float], CostRow] = field(default_factory=dict, repr=False)
    position: dict[str, int] = field(default_factory=dict, repr=False)
    entry_pool: dict[str, int] = field(default_factory=dict, repr=False)
    unscheduled_budget: int = field(default=0, repr=False)
    reserve: int = field(default=0, repr=False)
    resume_after: int = field(default=-1, repr=False)

    def identity_gap(self) -> int:
        """Zero when the ledger identity holds exactly."""
        outstanding = sum(self.sub_budgets.values())
        return self.budget_nanos - (
            self.spent + outstanding + self.unassigned - self.debt
        )

    def lock(self, task_id: str) -> int:
        """Take a dispatched task out of redistribution; returns its
        sub-budget, which caps the task's VM choice."""
        task = self.unscheduled.pop(task_id)
        sub = self.sub_budgets[task_id]
        self.unscheduled_budget -= sub
        self.reserve -= self.rows[task.kind, task.total_runtime].cheapest
        del self.entry_pool[task_id]
        self.resume_after = max(self.resume_after, self.position.pop(task_id))
        return sub


def compute_eft_us(spec: WorkflowSpec, costs: CostRows) -> dict[str, int]:
    """Earliest-finish-time table in microseconds relative to arrival.

    Max-plus recurrence over each task's estimated runtime on the catalog's
    fastest type, read from its cost row; no communication term.
    """
    eft: dict[str, int] = {}
    for tid in sorted(spec.tasks, key=lambda t: (spec.tasks[t].level, t)):
        task = spec.tasks[tid]
        est_us = costs.row(task.kind, task.total_runtime).terms[costs.fastest_at][0]
        ready = max((eft[p] for p in task.parents), default=0)
        eft[tid] = ready + est_us
    return eft


def distribution_order(tasks: list[TaskRecord], eft_us: dict[str, int]) -> list[TaskRecord]:
    """Budget distribution order: level ascending, then ascending EFT,
    then task id for determinism."""
    return sorted(tasks, key=lambda t: (t.level, eft_us[t.id], t.id))


def _reprice(ledger: BudgetLedger, tasks: list[TaskRecord]) -> bool:
    """Bring the ledger's rows up to date for a fold over `tasks`, the
    unscheduled tasks in distribution order.

    True when no row changed by value since the last fold, so its memory
    still holds. Otherwise the memory is rebuilt from `tasks`, and the fold
    must run to the end."""
    costs = ledger.costs
    if ledger.rows and all(costs.row(kind, runtime) == row
                           for (kind, runtime), row in ledger.rows.items()):
        return True
    ledger.rows = rows = {}
    for task in tasks:
        key = (task.kind, task.total_runtime)
        if key not in rows:
            rows[key] = costs.row(*key)
    ledger.position = {t.id: i for i, t in enumerate(tasks)}
    ledger.reserve = sum(rows[t.kind, t.total_runtime].cheapest for t in tasks)
    ledger.unscheduled_budget = sum(ledger.sub_budgets.get(t.id, 0) for t in tasks)
    return False


def _fold(ledger: BudgetLedger, pool: int, tasks: list[TaskRecord], resume: bool) -> None:
    """Assign a sub-budget to every task of `tasks`, in distribution order,
    spending `pool`.

    Each task in turn gets the fastest type it can afford while the pool
    still covers all later tasks at the cheapest type; when nothing
    qualifies it falls back to the cheapest type, with any shortfall
    recorded as debt so execution can always proceed.

    The fold is a left fold over (pool, reserve, debt). With `resume`, it
    stops at the first task the last fold entered in the same state: the
    same pool, a position after every task locked since (so the same
    reserve and the same later tasks) and after the last fold's last debt
    (so the later tasks add no debt to be counted again). From there on the
    last fold's sub-budgets and final pool stand as they are.
    """
    subs, entry_pool, rows = ledger.sub_budgets, ledger.entry_pool, ledger.rows
    position = ledger.position
    stop_after = ledger.resume_after if resume else math.inf
    reserve = ledger.reserve
    last_debt = -1
    for task in tasks:
        tid = task.id
        if pool == entry_pool.get(tid) and position[tid] > stop_after:
            break
        entry_pool[tid] = pool
        terms, cheapest = rows[task.kind, task.total_runtime]
        reserve -= cheapest
        chosen = cheapest
        for _, cost in terms:
            if cost <= pool - reserve:
                chosen = cost
                break
        ledger.unscheduled_budget += chosen - subs.get(tid, 0)
        subs[tid] = chosen
        if chosen <= pool:
            pool -= chosen
        else:
            ledger.debt += chosen - pool
            pool = 0
            last_debt = position[tid]
    else:
        ledger.unassigned = pool
    ledger.resume_after = last_debt


def distribute_budget(workflow_id: str, budget_nanos: int, tasks: list[TaskRecord],
                      eft_us: dict[str, int], costs: CostRows) -> BudgetLedger:
    """Build a fresh ledger and split the workflow budget across its tasks,
    pricing them with `costs`."""
    ordered = distribution_order(tasks, eft_us)
    ledger = BudgetLedger(workflow_id=workflow_id, budget_nanos=budget_nanos,
                          unscheduled={t.id: t for t in ordered}, costs=costs)
    _reprice(ledger, ordered)
    _fold(ledger, budget_nanos, ordered, resume=False)
    return ledger


def update_budget(ledger: BudgetLedger, finished: TaskRecord, actual_cost_nanos: int,
                  unscheduled: list[TaskRecord]) -> None:
    """Settle a finished task and redistribute the remaining budget.

    A surplus folds back into the unscheduled pool; an overrun is deducted
    from the pool, spilling into debt once the pool is exhausted. The pool
    is then redistributed over `unscheduled`, the still-unscheduled tasks
    in distribution order, by a fold that resumes the last one: it stops
    as soon as it reaches the state the last fold was in (see `_fold`), so
    a completion that changes nothing costs little. The tasks are priced
    with the ledger's `costs`.
    """
    if finished.id not in ledger.sub_budgets:
        raise IllegalState(f"task {finished.id!r} has no sub-budget entry")
    sub = ledger.sub_budgets.pop(finished.id)
    ledger.spent += actual_cost_nanos
    resume = _reprice(ledger, unscheduled)

    pool = ledger.unassigned + ledger.unscheduled_budget + sub - actual_cost_nanos
    if pool < 0:
        ledger.debt += -pool
        pool = 0
    _fold(ledger, pool, unscheduled, resume)


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
        self.homogeneous = homogeneous
        self.costs = CostRows(estimator, config)
        self.ledgers: dict[str, BudgetLedger] = {}
        self._queue: list[tuple[tuple[int, int, str, str], object, TaskRecord]] = []

    def on_arrival(self, run, now_us: int) -> None:
        spec = run.spec
        run.eft_us = compute_eft_us(spec, self.costs)
        if not self.homogeneous:
            self.ledgers[spec.id] = distribute_budget(
                spec.id, run.budget_nanos, list(spec.tasks.values()), run.eft_us, self.costs)

    def enqueue_ready(self, run, task: TaskRecord, now_us: int) -> None:
        key = (run.eft_us[task.id], run.arrival_us, run.spec.id, task.id)
        heapq.heappush(self._queue, (key, run, task))

    def schedule_ready(self, fleet: Fleet, now_us: int) -> list[Assign | Provision]:
        actions: list[Assign | Provision] = []
        while self._queue:
            _, run, task = heapq.heappop(self._queue)
            actions.append(self._decide(run, task, fleet, now_us))
        return actions

    def _decide(self, run, task: TaskRecord, fleet: Fleet, now_us: int) -> Assign | Provision:
        """Reuse the idle VM least in (estimated runtime, price, id) among the
        types the task's sub-budget affords, else provision the fastest such
        type, else the cheapest type. Estimate and price depend on the type
        alone, so only each type's least idle id is read; the VM taken leaves
        the fleet's index, so no later decision of the batch takes it."""
        ledger = self.ledgers.get(run.spec.id)
        cap = math.inf if ledger is None else ledger.lock(task.id)
        best: tuple[int, int, str] | None = None
        best_type = provision = None
        for vm_type, (est_us, cost) in zip(self.costs.fastest_first,
                                           self.costs.row(task.kind, task.total_runtime).terms):
            if cost > cap:
                continue
            if provision is None:
                provision = vm_type
            vm_id = fleet.idle_head(vm_type)
            if vm_id is not None:
                key = (est_us, vm_type.price_nanos, vm_id)
                if best is None or key < best:
                    best, best_type = key, vm_type
        if best is not None:
            return Assign(run, task, fleet.take_idle_head(best_type))
        return Provision(run, task, provision or self.costs.cheapest_type)

    def on_complete(self, run, task: TaskRecord, actual_cost_nanos: int,
                    now_us: int) -> None:
        ledger = self.ledgers.get(run.spec.id)
        if ledger is not None:
            update_budget(ledger, task, actual_cost_nanos, list(ledger.unscheduled.values()))
            if not ledger.sub_budgets:
                # The workflow's last task finished: nothing reads its ledger again.
                del self.ledgers[run.spec.id]


class FcfsPolicy:
    """Baseline: every task gets a fresh dedicated VM, terminated on completion."""

    name = "fcfs"
    dedicated = True

    def __init__(self, config: CloudConfig):
        if len(config.catalog) != 1:
            raise ConfigError("fcfs scheduling requires a single-type catalog")
        self.config = config
        self._queue: deque[tuple[object, TaskRecord]] = deque()

    def on_arrival(self, run, now_us: int) -> None:
        pass

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
        return FcfsPolicy(config)
    raise ConfigError(f"unknown scheduler {name!r}")
