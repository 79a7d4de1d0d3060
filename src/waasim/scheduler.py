"""Budget-driven multi-workflow scheduling.

Implements per-task budget distribution and post-completion budget
redistribution over an exact nano-dollar ledger, EFT-ordered dispatch with
VM reuse, plus the FCFS baseline and the homogeneous (budget-blind)
variant used for baseline comparisons.
"""

from __future__ import annotations

import heapq
import math
import weakref
from collections import deque
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .cloud import CloudConfig, Fleet, VmType, estimated_cost_nanos
from .errors import ConfigError, IllegalState
from .estimator import EstimatorConfig, RuntimeEstimator
from .units import usec
from .workflow import TaskRecord, WorkflowSpec


class CostRow(NamedTuple):
    """A task's estimated runtime and cost on each catalog type, fastest
    type first, and its cost on the cheapest type."""

    terms: tuple[tuple[int, int], ...]  # (est_us, cost_nanos)
    cheapest: int


class CostRows:
    """The cost rows of one policy, by (kind, total runtime), shared by its
    budget ledgers, its plans and its dispatch decisions. The catalog is
    ordered once.

    A row depends only on the estimator's records of its own kind, and
    every record goes through `record`, which prices the rows of that kind
    again when the record can have moved an estimate; so a row is always a
    plain lookup. `changes` counts the rows whose value a record changed:
    while it stands, every row read before still holds."""

    def __init__(self, estimator: RuntimeEstimator, config: CloudConfig):
        self.estimator = estimator
        self.fastest_first = tuple(sorted(
            config.catalog, key=lambda t: (-t.speed_factor, t.price_per_second, t.name)))
        self.cheapest_type = config.cheapest_type
        self._cheapest_at = self.fastest_first.index(self.cheapest_type)
        # EFT's column. Not always the first: of two types equal in speed and
        # price, `fastest_type` is the one with the larger name.
        self.fastest_at = self.fastest_first.index(config.fastest_type)
        # Every row priced so far. Its keys are never removed, so a caller
        # that priced a key through `row` may index this dict directly.
        self.rows: dict[tuple[str, float], CostRow] = {}
        self._runtimes: dict[str, list[float]] = {}  # the keys of `rows`, by kind
        self.changes = 0

    def row(self, kind: str, total_runtime: float) -> CostRow:
        """The row of a `kind` task whose total runtime is `total_runtime`."""
        row = self.rows.get((kind, total_runtime))
        if row is None:
            row = self.rows[kind, total_runtime] = self._price(kind, total_runtime)
            self._runtimes.setdefault(kind, []).append(total_runtime)
        return row

    def _price(self, kind: str, total_runtime: float) -> CostRow:
        terms = []
        for vm_type in self.fastest_first:
            est_us = usec(self.estimator.estimate(kind, vm_type, total_runtime))
            terms.append((est_us, estimated_cost_nanos(vm_type, est_us)))
        return CostRow(tuple(terms), terms[self._cheapest_at][1])

    def record(self, kind: str, vm_type: VmType, runtime_s: float) -> None:
        """Record a completed `kind` task's runtime on `vm_type`, in seconds,
        and price the rows of `kind` again if the estimator reports that an
        estimate can have moved; a record that leaves the estimator's
        windows as they were prices nothing."""
        if self.estimator.record(kind, vm_type, runtime_s):
            for runtime in self._runtimes.get(kind, ()):
                row = self._price(kind, runtime)
                if row != self.rows[kind, runtime]:
                    self.rows[kind, runtime] = row
                    self.changes += 1


@dataclass
class BudgetLedger:
    """Per-workflow budget state, exact to the nano-dollar.

    The identity  budget == spent + sub_budgets + unassigned - debt
    holds after every operation. `unscheduled` holds the tasks not yet
    dispatched, in distribution order; dispatch takes a task out with
    `lock`.

    `costs` prices the tasks, and `position` numbers them in distribution
    order, once per distribution (copies share it). The remaining fields
    are what the last fold left, so the next one can resume (see `_fold`):
    the `costs.changes` it priced at, each unscheduled task's entering
    pool, the sum of the unscheduled tasks' sub-budgets and their
    cheapest-cost reserve, and the last position at which the next fold
    may not stop: that of the last fold's last debt or of a task locked
    since, whichever is later.
    """

    budget_nanos: int
    unassigned: int = 0
    sub_budgets: dict[str, int] = field(default_factory=dict)
    spent: int = 0
    debt: int = 0
    unscheduled: dict[str, TaskRecord] = field(default_factory=dict)
    costs: CostRows | None = field(default=None, repr=False)
    changes: int = field(default=-1, repr=False)
    position: dict[str, int] = field(default_factory=dict, repr=False)
    entry_pool: dict[str, int] = field(default_factory=dict, repr=False)
    unscheduled_budget: int = field(default=0, repr=False)
    reserve: int = field(default=0, repr=False)
    resume_after: float = field(default=-1, repr=False)

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
        self.reserve -= self.costs.rows[task.kind, task.total_runtime].cheapest
        del self.entry_pool[task_id]
        self.resume_after = max(self.resume_after, self.position[task_id])
        return sub

    def copy(self) -> BudgetLedger:
        """This ledger, sharing nothing that either changes in place."""
        return replace(self, sub_budgets=dict(self.sub_budgets),
                       unscheduled=dict(self.unscheduled), entry_pool=dict(self.entry_pool))


def compute_eft_us(spec: WorkflowSpec, costs: CostRows) -> dict[str, int]:
    """Earliest-finish-time table in microseconds relative to arrival.

    Max-plus recurrence over each task's estimated runtime on the catalog's
    fastest type, read from its cost row; no communication term.
    """
    eft: dict[str, int] = {}
    for task in sorted(spec.tasks.values(), key=lambda t: t.level):
        est_us = costs.row(task.kind, task.total_runtime).terms[costs.fastest_at][0]
        ready = max((eft[p] for p in task.parents), default=0)
        eft[task.id] = ready + est_us
    return eft


def distribution_order(tasks: list[TaskRecord], eft_us: dict[str, int]) -> list[TaskRecord]:
    """Budget distribution order: level ascending, then ascending EFT,
    then task id for determinism."""
    return sorted(tasks, key=lambda t: (t.level, eft_us[t.id], t.id))


def _fold(ledger: BudgetLedger, pool: int, tasks: list[TaskRecord]) -> None:
    """Assign a sub-budget to every task of `tasks`, the unscheduled tasks
    in distribution order, spending `pool`.

    Each task in turn gets the fastest type it can afford while the pool
    still covers all later tasks at the cheapest type; when nothing
    qualifies it falls back to the cheapest type, with any shortfall
    recorded as debt so execution can always proceed.

    The fold is a left fold over (pool, reserve, debt). It stops at the
    first task the last fold entered in the same state: the same pool, a
    position after every task locked since (so the same reserve and the
    same later tasks) and after the last fold's last debt (so the later
    tasks add no debt to be counted again). From there on the last fold's
    sub-budgets and final pool stand as they are. When a cost row has
    changed since the last fold, the reserve is summed again and the fold
    runs to the end.
    """
    costs = ledger.costs
    if ledger.changes != costs.changes:
        ledger.changes = costs.changes
        ledger.reserve = sum(costs.row(t.kind, t.total_runtime).cheapest for t in tasks)
        ledger.resume_after = math.inf
    subs, entry_pool, rows = ledger.sub_budgets, ledger.entry_pool, costs.rows
    position, stop_after = ledger.position, ledger.resume_after
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


def distribute_budget(budget_nanos: int, tasks: list[TaskRecord], eft_us: dict[str, int],
                      costs: CostRows) -> BudgetLedger:
    """Build a fresh ledger and split the workflow budget across its tasks,
    pricing them with `costs`."""
    ordered = distribution_order(tasks, eft_us)
    ledger = BudgetLedger(budget_nanos=budget_nanos, unscheduled={t.id: t for t in ordered},
                          costs=costs, position={t.id: i for i, t in enumerate(ordered)})
    _fold(ledger, budget_nanos, ordered)
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
    pool = ledger.unassigned + ledger.unscheduled_budget + sub - actual_cost_nanos
    if pool < 0:
        ledger.debt += -pool
        pool = 0
    _fold(ledger, pool, unscheduled)


class Assign(NamedTuple):
    """Dispatch decision: run the task on the idle instance `vm_id`, a str."""
    run: object
    task: TaskRecord
    vm_id: str


class Provision(NamedTuple):
    """Dispatch decision: lease a new `vm_type`, never a str, for the task."""
    run: object
    task: TaskRecord
    vm_type: VmType


@dataclass
class _Plan:
    """What every workflow over one shared `tasks` mapping starts from while
    no cost row changes: the EFT table and, per budget, the ledger its
    distribution leaves, in distribution order and never folded again.
    Each running workflow holds its plan; the plan holds `tasks`, so no
    other mapping takes its id() while the plan lives."""

    tasks: dict[str, TaskRecord]
    changes: int
    eft_us: dict[str, int]
    ledgers: dict[int, BudgetLedger] = field(default_factory=dict)


class EbpsmPolicy:
    """EFT-ordered dispatch with VM reuse and per-task budget caps. The
    homogeneous variant keeps no budget ledger: no cap binds its tasks.

    Workflows drawn from one template share its `tasks` mapping, so the
    policy plans each mapping once (see `_Plan`) and hands every workflow
    its own copy of the first ledger for its budget. The policy finds a
    plan by its mapping only while some running workflow holds it."""

    dedicated = False

    def __init__(self, config: CloudConfig, estimator: RuntimeEstimator,
                 homogeneous: bool = False):
        if homogeneous and len(config.catalog) != 1:
            raise ConfigError("homogeneous scheduling requires a single-type catalog")
        self.name = "ebpsm-homogeneous" if homogeneous else "ebpsm"
        self.homogeneous = homogeneous
        self.costs = CostRows(estimator, config)
        # By id() of the `tasks` each plan holds.
        self._plans: weakref.WeakValueDictionary[int, _Plan] = weakref.WeakValueDictionary()
        self._queue: list[tuple[tuple[int, int, str, str], object, TaskRecord]] = []

    def on_arrival(self, run) -> None:
        spec = run.spec
        changes = self.costs.changes
        plan = self._plans.get(id(spec.tasks))
        if plan is None or plan.changes != changes:
            plan = self._plans[id(spec.tasks)] = _Plan(
                spec.tasks, changes, compute_eft_us(spec, self.costs))
        run.plan = plan
        if not self.homogeneous:
            first = plan.ledgers.get(run.budget_nanos)
            if first is None:
                first = plan.ledgers[run.budget_nanos] = distribute_budget(
                    run.budget_nanos, list(spec.tasks.values()), plan.eft_us, self.costs)
            run.ledger = first.copy()

    def enqueue_ready(self, run, task: TaskRecord) -> None:
        key = (run.plan.eft_us[task.id], run.arrival_us, run.spec.id, task.id)
        heapq.heappush(self._queue, (key, run, task))

    def schedule_ready(self, fleet: Fleet) -> list[Assign | Provision]:
        actions: list[Assign | Provision] = []
        while self._queue:
            _, run, task = heapq.heappop(self._queue)
            actions.append(self._decide(run, task, fleet))
        return actions

    def _decide(self, run, task: TaskRecord, fleet: Fleet) -> Assign | Provision:
        """Reuse the idle VM least in (estimated runtime, price, id) among the
        types the task's sub-budget affords, else provision the fastest such
        type, else the cheapest type. Estimate and price depend on the type
        alone, so only each type's least idle id is read; the VM taken leaves
        the fleet's index, so no later decision of the batch takes it."""
        cap = math.inf if run.ledger is None else run.ledger.lock(task.id)
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

    def on_complete(self, run, task: TaskRecord, vm_type: VmType, runtime_us: int,
                    actual_cost_nanos: int) -> None:
        """Record `task`'s runtime on `vm_type`, then settle it."""
        self.costs.record(task.kind, vm_type, runtime_us / 1e6)
        ledger = run.ledger
        if ledger is not None:
            update_budget(ledger, task, actual_cost_nanos, list(ledger.unscheduled.values()))


class FcfsPolicy:
    """Baseline: every task gets a fresh dedicated VM, terminated on completion."""

    name = "fcfs"
    dedicated = True

    def __init__(self, config: CloudConfig):
        if len(config.catalog) != 1:
            raise ConfigError("fcfs scheduling requires a single-type catalog")
        self.config = config
        self._queue: deque[tuple[object, TaskRecord]] = deque()

    def on_arrival(self, run) -> None:
        pass

    def enqueue_ready(self, run, task: TaskRecord) -> None:
        self._queue.append((run, task))

    def schedule_ready(self, fleet: Fleet) -> list[Provision]:
        actions = []
        while self._queue:
            run, task = self._queue.popleft()
            actions.append(Provision(run, task, self.config.catalog[0]))
        return actions

    def on_complete(self, run, task: TaskRecord, vm_type: VmType, runtime_us: int,
                    actual_cost_nanos: int) -> None:
        pass


# Each scheduler's name and how to build it from the cloud and estimator
# configs; only the EBPSM variants estimate runtimes.
_POLICIES = {
    "ebpsm": lambda cloud, estimator: EbpsmPolicy(cloud, RuntimeEstimator(estimator)),
    "ebpsm-homogeneous": lambda cloud, estimator: EbpsmPolicy(
        cloud, RuntimeEstimator(estimator), homogeneous=True),
    "fcfs": lambda cloud, estimator: FcfsPolicy(cloud),
}

SCHEDULER_NAMES = tuple(_POLICIES)


def make_policy(name: str, config: CloudConfig, estimator: EstimatorConfig):
    factory = _POLICIES.get(name)
    if factory is None:
        raise ConfigError(f"unknown scheduler {name!r}")
    return factory(config, estimator)
