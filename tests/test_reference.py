"""Differential tests against the straightforward implementations that the
windowed estimator, the per-type dispatch decision, the cost-row EFT, the
fleet's idle index and release queue, the skipped scan ticks and the resumed
budget fold replaced, and that the trace's and the assignment log's
%-templates replaced. The references below scan every record,
estimate once per idle VM and once per task on the fastest type for EFT,
scan every instance at every scan interval, on every budget update rebuild,
re-sort and reprice the unscheduled tasks and refold all of them, format
each trace line with `str.format` and write each row through `csv.writer`;
the optimised code must agree with them exactly: equal floats, equal
ledgers, identical traces and identical report and log bytes. The event
loop itself is checked against `ReferenceSimulation`, a loop written from
README's description that drives these references."""

import bisect
import csv
import hashlib
import io
import json
import math
import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (LARGE, MICRO, TraceEvent, build_workflow, chain_workflow, random_dag,
                      render, single_workload, workload_to_dict)
from waasim import engine, experiment, metrics
from waasim import scheduler as scheduler_module
from waasim.cloud import (IDLE, TERMINATED, CloudConfig, Fleet, VariabilityConfig, VmType,
                          default_catalog, estimated_cost_nanos)
from waasim.errors import IllegalState
from waasim.estimator import EstimatorConfig, RuntimeEstimator
from waasim.experiment import ExperimentConfig, _RunWriter
from waasim.metrics import (ASSIGNMENT_CSV_COLUMNS, FleetMetrics, MetricsReport,
                            WorkflowMetrics, report_to_json)
from waasim.scheduler import (SCHEDULER_NAMES, Assign, BudgetLedger, CostRows, EbpsmPolicy,
                              Provision, compute_eft_us, distribute_budget,
                              distribution_order, make_policy, update_budget)
from waasim.schema import as_dict, replace
from waasim.units import (USEC_PER_SEC, format_dollars, format_seconds, nanos,
                          substream_seed, usec)
from waasim.workflow import WorkloadSpec, _assemble, _TaskDoc, generate_workload

CATALOG = default_catalog()
KINDS = ("k0", "k1", "k2", "k3")


class ReferenceEstimator:
    """Keeps every (VM type, runtime) record of a kind in one list and
    rescans it per call."""

    def __init__(self, config: EstimatorConfig):
        self.config = config
        self._records: dict[str, list[tuple[VmType, float]]] = {}

    def record(self, kind, vm_type, runtime_s):
        self._records.setdefault(kind, []).append((vm_type, runtime_s))
        return True

    def estimate(self, kind, vm_type, reference_runtime):
        records = self._records.get(kind, [])
        if self.config.mode == "oracle":
            return reference_runtime / vm_type.speed_factor
        same_type = [runtime for t, runtime in records if t.name == vm_type.name]
        if same_type:
            window = same_type[-self.config.window:]
            return sum(window) / len(window)
        if records:
            window = records[-self.config.window:]
            normalized = [runtime * t.speed_factor for t, runtime in window]
            return sum(normalized) / len(normalized) / vm_type.speed_factor
        return reference_runtime / vm_type.speed_factor * self.config.cold_start_margin


class ReferenceEbpsmPolicy(EbpsmPolicy):
    """Estimates every task on the fastest type for its EFT, estimates and
    prices the task on every unclaimed idle VM in turn, and keeps each budget
    ledger with `reference_allocate` and `reference_update_budget`: every
    completion refolds every unscheduled task from scratch."""

    def __init__(self, config, estimator, homogeneous=False):
        super().__init__(config, estimator, homogeneous)
        self.config, self.estimator = config, estimator
        self.scheduled: dict[str, set[str]] = {}

    def on_arrival(self, run):
        spec = run.spec
        run.plan = SimpleNamespace(
            eft_us=reference_eft_us(spec, self.estimator, self.config.fastest_type))
        if not self.homogeneous:
            run.ledger = BudgetLedger(run.budget_nanos)
            reference_allocate(run.ledger, run.budget_nanos, list(spec.tasks.values()),
                               run.plan.eft_us, self.estimator, self.config)
            self.scheduled[spec.id] = set()

    def schedule_ready(self, fleet):
        self.claimed = set()
        return super().schedule_ready(fleet)

    def _decide(self, run, task, fleet):
        claimed = self.claimed
        if run.ledger is None:
            cap = math.inf
        else:
            cap = run.ledger.sub_budgets[task.id]
            self.scheduled[run.spec.id].add(task.id)
        best = None
        for vm in fleet.idle_instances():
            if vm.id in claimed:
                continue
            est_us = usec(self.estimator.estimate(task.kind, vm.vm_type, task.total_runtime))
            if estimated_cost_nanos(vm.vm_type, est_us) > cap:
                continue
            key = (est_us, vm.vm_type.price_nanos, vm.id)
            if best is None or key < best[0]:
                best = key, vm
        if best is not None:
            claimed.add(best[1].id)
            return Assign(run, task, best[1])
        for vm_type in reference_fastest_first(self.config):
            est_us = usec(self.estimator.estimate(task.kind, vm_type, task.total_runtime))
            if estimated_cost_nanos(vm_type, est_us) <= cap:
                return Provision(run, task, vm_type)
        return Provision(run, task, self.config.cheapest_type)

    def on_complete(self, run, task, vm_type, runtime_us, actual_cost_nanos):
        self.estimator.record(task.kind, vm_type, runtime_us / 1e6)
        if run.ledger is not None:
            reference_update_budget(run.ledger, self.scheduled[run.spec.id], run.spec, task,
                                    actual_cost_nanos, run.plan.eft_us, self.estimator,
                                    self.config)


class ReferenceFleet(Fleet):
    """Finds idle, expired, due and held instances by scanning every
    instance ever leased, kept in its own registry `ever_leased`, in provision
    order."""

    def __init__(self, config):
        super().__init__(config)
        self.ever_leased = {}
        self.released = set()

    def provision(self, vm_type, now_us):
        vm = super().provision(vm_type, now_us)
        self.ever_leased[vm.id] = vm
        return vm

    def idle_instances(self):
        return [vm for vm in self.ever_leased.values() if vm.state == IDLE]

    def idle_scan(self, now_us):
        expired = [vm for vm in self.ever_leased.values() if vm.state == IDLE
                   and now_us - vm.idle_since_us >= self.config.idle_threshold_us]
        for vm in expired:
            self.terminate(vm, now_us)
        return expired

    def _release_at_us(self, vm):
        return vm.terminated_at_us + self.config.deprovisioning_delay_us

    def release_due(self, now_us):
        due = [vm for vm in self.ever_leased.values()
               if vm.state == TERMINATED and vm.id not in self.released
               and self._release_at_us(vm) <= now_us]
        self.released.update(vm.id for vm in due)
        return due

    def unreleased(self, now_us):
        return [vm for vm in self.ever_leased.values()
                if vm.state != TERMINATED or self._release_at_us(vm) > now_us]

    def next_due_us(self):
        """Always due: the engine scans at every interval while a VM is held,
        so the skipped ticks of the optimised fleet are checked against it."""
        return 0


def reference_eft_us(spec, estimator, reference_type):
    """EFT by estimating every task on `reference_type` directly."""
    eft = {}
    for tid in sorted(spec.tasks, key=lambda t: (spec.tasks[t].level, t)):
        task = spec.tasks[tid]
        est_us = usec(estimator.estimate(task.kind, reference_type, task.total_runtime))
        eft[tid] = max((eft[p] for p in task.parents), default=0) + est_us
    return eft


def reference_cost_table(task, estimator, config):
    """Estimates and prices `task` on every catalog type."""
    return {
        vm_type.name: estimated_cost_nanos(
            vm_type, usec(estimator.estimate(task.kind, vm_type, task.total_runtime)))
        for vm_type in config.catalog
    }


def reference_fastest_first(config):
    return sorted(config.catalog, key=lambda t: (-t.speed_factor, t.price_per_second, t.name))


def reference_allocate(ledger, pool, tasks, eft_us, estimator, config):
    """Sorts `tasks` into distribution order and prices them on every call."""
    ordered = sorted(tasks, key=lambda t: (t.level, eft_us[t.id], t.id))
    costs = {t.id: reference_cost_table(t, estimator, config) for t in ordered}
    cheapest = config.cheapest_type.name
    fastest_first = reference_fastest_first(config)
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


def reference_update_budget(ledger, scheduled, spec, finished, actual_cost_nanos,
                            eft_us, estimator, config):
    """Rebuilds the unscheduled tasks by scanning every task of `spec`
    against the sub-budgets and `scheduled`, the set of dispatched ids."""
    if finished.id not in ledger.sub_budgets:
        raise IllegalState(f"task {finished.id!r} has no sub-budget entry")
    sub = ledger.sub_budgets.pop(finished.id)
    scheduled.discard(finished.id)
    ledger.spent += actual_cost_nanos
    unscheduled = [t for t in spec.tasks.values()
                   if t.id in ledger.sub_budgets and t.id not in scheduled]
    pool = ledger.unassigned
    for task in unscheduled:
        pool += ledger.sub_budgets.pop(task.id)
    ledger.unassigned = 0
    pool += sub - actual_cost_nanos
    if pool < 0:
        ledger.debt += -pool
        pool = 0
    reference_allocate(ledger, pool, unscheduled, eft_us, estimator, config)


def reference_make_policy(name, config, estimator_config):
    """`make_policy`, with the EBPSM variants replaced by the reference
    policy over a `ReferenceEstimator`."""
    if name == "ebpsm":
        return ReferenceEbpsmPolicy(config, ReferenceEstimator(estimator_config))
    if name == "ebpsm-homogeneous":
        return ReferenceEbpsmPolicy(config, ReferenceEstimator(estimator_config),
                                    homogeneous=True)
    return make_policy(name, config, estimator_config)


def reference_render(ev):
    """The trace line of a view, joined from its fields one by one."""
    parts = " ".join(f"{k}={v}" for k, v in ev.fields.items())
    return f"{ev.time_us}\t{ev.name}\t{parts}".rstrip()


# Per event, the bound `format` of a `str.format` template of its trace line.
REFERENCE_FORMATS = {
    name: ("{0}\t" + name + "\t" + " ".join(
        f"{key}={{{i}}}" for i, key in enumerate(keys, 2) if key is not None)).format
    for name, keys in metrics.RECORD_FIELDS.items()
}


def reference_line(rec):
    """The trace line of a record, filled by its `str.format` template."""
    return REFERENCE_FORMATS[rec[1]](*rec).rstrip()


def reference_csv(rows):
    """The assignment log as `csv.writer.writerows` writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ASSIGNMENT_CSV_COLUMNS)
    writer.writerows((f"{row[0] // USEC_PER_SEC}.{row[0] % USEC_PER_SEC:06d}", *row[1:])
                     for row in rows)
    return buf.getvalue()


REFERENCE_ROW_EVENTS = {"task_assign": "assign", "task_start": "start",
                        "task_complete": "complete", "provision_request": "provision"}


def reference_assignments(views):
    """The assignment log, each VM's type taken from its earlier
    `provision_request` or `task_assign` event."""
    vm_types, rows = {}, []
    for ev in views:
        if ev.name in REFERENCE_ROW_EVENTS:
            f = ev.fields
            if "type" in f:
                vm_types[f["vm"]] = f["type"]
            rows.append((ev.time_us, f["workflow"], f["task"], f["vm"], vm_types[f["vm"]],
                         REFERENCE_ROW_EVENTS[ev.name]))
    return rows


def checked_outputs(result):
    """The trace text and report JSON of `result`, after checking each
    record's line and the assignment log against the references."""
    views = [TraceEvent(rec) for rec in result.trace]
    for rec, ev in zip(result.trace, views):
        assert render(rec) == reference_render(ev)
    assert [(r[0], r[2], r[3], r[4], r[5], REFERENCE_ROW_EVENTS[r[1]])
            for r in result.assignments] == reference_assignments(views)
    return engine.checkpoint_trace(result.trace), report_to_json(result.report)


# Whole microseconds, as the engine records them: sums of these round, so
# a changed summation order would show.
runtimes = st.integers(1, 10**11).map(lambda us: us / 1e6)
# Runtimes from a small set, so that windows fill with one value. Some
# normalize to the same value on different default types (2.0 on t2.large
# and 4.0 on t2.micro; 4.0 on t2.large and 5.0 on t2.medium), so a kind's
# normalized window can be full of one value drawn from several types.
few_runtimes = st.sampled_from([2.0, 4.0, 5.0])


def reference_windows(ref, kind, vm_type):
    """The two windows a `kind` record on `vm_type` appends to, read from
    the reference's full history: the (kind, type) one and the kind's
    normalized one."""
    records = ref._records.get(kind, [])
    window = ref.config.window
    return ([runtime for t, runtime in records if t.name == vm_type.name][-window:],
            [runtime * t.speed_factor for t, runtime in records][-window:])


@settings(max_examples=150, deadline=None)
@given(window=st.integers(1, 12),
       model=runtimes,
       runs=st.lists(st.tuples(st.sampled_from(KINDS[:2]), st.sampled_from(CATALOG),
                               st.one_of(runtimes, few_runtimes), st.integers(1, 13)),
                     max_size=20))
def test_estimate_equals_reference(window, model, runs):
    """Every estimate equals the reference's, and `record` returns False
    exactly when the reference's two windows were both full of the value the
    record adds to them; then no estimate moves. Records come in runs of
    equal records, so that windows fill."""
    config = EstimatorConfig("history", window)
    new, ref = RuntimeEstimator(config), ReferenceEstimator(config)
    records = [record for *record, times in runs for _ in range(times)]

    def estimates():
        values = [new.estimate(kind, vm_type, reference_runtime)
                  for kind in KINDS for vm_type in CATALOG
                  for reference_runtime in (model, 42.5)]
        assert values == [ref.estimate(kind, vm_type, reference_runtime)
                          for kind in KINDS for vm_type in CATALOG
                          for reference_runtime in (model, 42.5)]
        return values

    before = estimates()
    for kind, vm_type, runtime in records:
        same_type, normalized = reference_windows(ref, kind, vm_type)
        full = (same_type == [runtime] * window
                and normalized == [runtime * vm_type.speed_factor] * window)
        moved = new.record(kind, vm_type, runtime)
        ref.record(kind, vm_type, runtime)
        assert moved is not full
        after = estimates()
        if not moved:
            assert after == before
        before = after


# The default catalog, or 2-4 drawn types. In half of the drawn catalogs
# one type is both the fastest and the cheapest, so the cheapest-type
# fallback is also the first type tried for an upgrade.
@st.composite
def catalogs(draw):
    if draw(st.booleans()):
        return CATALOG
    speeds = draw(st.lists(st.sampled_from([0.5, 1.0, 1.2, 1.6, 2.0, 3.0]),
                           min_size=2, max_size=4))
    prices = draw(st.lists(st.integers(1, 60), min_size=len(speeds), max_size=len(speeds)))
    if draw(st.booleans()):
        speeds[0], prices[0] = max(speeds) + 0.5, min(prices)
    return tuple(VmType(f"v{i}", 1, 1024, price * 1e-6, speed)
                 for i, (speed, price) in enumerate(zip(speeds, prices)))


# The two fastest types tie on speed and price under different names, so
# EFT's reference type, `fastest_type` (the larger name), is not the first
# type in fastest-first order. Under history with runtime variability their
# estimates differ, and in this case the dispatch order with them.
TIED = (MICRO, VmType("fast-a", 2, 8192, 0.0000382, 2.0),
        VmType("fast-b", 2, 8192, 0.0000382, 2.0))


@settings(max_examples=60, deadline=None)
@example(scheduler="ebpsm", catalog=TIED, mode="history", window=2, variability="lognormal",
         dag_seed=191, templates=2, budget_factors=[3.0], count=12, rate=12.0,
         workload_seed=191, provisioning_delay=0.0, deprovisioning_delay=0.0,
         idle_threshold=60.0, scan_interval=10.0, run_seed=191)
@given(scheduler=st.sampled_from(SCHEDULER_NAMES),
       catalog=catalogs(),
       mode=st.sampled_from(["oracle", "history"]),
       window=st.integers(1, 12),
       variability=st.sampled_from(["none", "lognormal"]),
       dag_seed=st.integers(0, 2**32 - 1),
       templates=st.integers(1, 3),
       budget_factors=st.lists(st.sampled_from([0.0, 0.6, 1.0, 1.5, 3.0]),
                               min_size=1, max_size=3),
       count=st.integers(1, 25),
       rate=st.sampled_from([2.0, 12.0, 60.0]),
       workload_seed=st.integers(0, 2**32 - 1),
       provisioning_delay=st.sampled_from([0.0, 30.0, 90.0]),
       deprovisioning_delay=st.sampled_from([0.0, 10.0, 35.0]),
       idle_threshold=st.sampled_from([1.0, 60.0]),
       scan_interval=st.sampled_from([3.0, 10.0]),
       run_seed=st.integers(0, 1000))
def test_engine_matches_reference(scheduler, catalog, mode, window, variability, dag_seed,
                                  templates, budget_factors, count, rate, workload_seed,
                                  provisioning_delay, deprovisioning_delay, idle_threshold,
                                  scan_interval, run_seed):
    if scheduler in ("fcfs", "ebpsm-homogeneous"):
        catalog = (MICRO,)
    cheapest_price = min(t.price_per_second for t in catalog)
    rng = random.Random(dag_seed)
    entries = []
    for i in range(templates):
        spec = random_dag(rng, max_tasks=8, wid=f"tpl{i}")
        cheapest_cost = sum(t.total_runtime for t in spec.tasks.values()) * cheapest_price
        entries += [(spec, cheapest_cost * f) for f in budget_factors]
    workload = generate_workload(entries, count, rate, workload_seed)
    cloud = CloudConfig(catalog=catalog, provisioning_delay=provisioning_delay,
                        deprovisioning_delay=deprovisioning_delay,
                        idle_threshold=idle_threshold, scan_interval=scan_interval,
                        variability=VariabilityConfig(
                            variability, 0.3 if variability == "lognormal" else 0.0))
    estimator = EstimatorConfig(mode, window)

    def simulate():
        result = engine.run(workload, scheduler, cloud, estimator, seed=run_seed)
        return checked_outputs(result)

    trace, report = simulate()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "make_policy", reference_make_policy)
        mp.setattr(engine, "Fleet", ReferenceFleet)
        ref_trace, ref_report = simulate()
    assert trace == ref_trace
    assert report == ref_report


@pytest.mark.parametrize("variability", ["none", "lognormal"])
@pytest.mark.parametrize("mode", ["oracle", "history"])
@pytest.mark.parametrize("scheduler", ["ebpsm", "ebpsm-homogeneous"])
def test_shared_plans_match_unshared_workflows(monkeypatch, scheduler, mode, variability):
    """Workflows drawn from one template share its `tasks` mapping, and the
    policy plans each mapping once. With every workflow's mapping copied, no
    arrival can reuse a plan; the trace and the report must not change."""
    catalog = CATALOG if scheduler == "ebpsm" else (MICRO,)
    cloud = CloudConfig(catalog=catalog, variability=VariabilityConfig(
        variability, 0.2 if variability == "lognormal" else 0.0))
    shared = generate_workload(ExperimentConfig().build_catalog(), 60, 12.0, seed=5)
    unshared = replace(shared, workflows=[replace(w, tasks=dict(w.tasks))
                                          for w in shared.workflows])
    plans = []
    compute_eft = scheduler_module.compute_eft_us

    def counted(*args):
        plans[-1] += 1
        return compute_eft(*args)

    monkeypatch.setattr(scheduler_module, "compute_eft_us", counted)
    outputs = []
    for workload in (shared, unshared):
        plans.append(0)
        result = engine.run(workload, scheduler, cloud, EstimatorConfig(mode), seed=3)
        outputs.append(checked_outputs(result))
    assert plans[0] < plans[1] == 60
    assert outputs[0] == outputs[1]


# `RuntimeEstimator.estimate` calls of each scheduler's run below when
# every record reprices its kind's rows, as under `lognormal`.
REPRICE_EVERY_RECORD = {"ebpsm": 2648, "ebpsm-homogeneous": 662}


@pytest.mark.parametrize("variability", ["none", "lognormal"])
@pytest.mark.parametrize("scheduler", ["ebpsm", "ebpsm-homogeneous"])
def test_unmoved_windows_price_nothing(monkeypatch, scheduler, variability):
    """Without runtime variability a kind's runtimes on a type repeat, so
    most `history` records leave both windows full of the value they add
    and price no row: the run makes under half the `estimate` calls of
    repricing on every record. Under `lognormal` the windows move on every
    record. Either way the run matches the reference simulation."""
    catalog = CATALOG if scheduler == "ebpsm" else (MICRO,)
    cloud = CloudConfig(catalog=catalog, variability=VariabilityConfig(
        variability, 0.2 if variability == "lognormal" else 0.0))
    workload = generate_workload(ExperimentConfig().build_catalog(), 60, 12.0, seed=5)
    calls = [0]
    estimate = RuntimeEstimator.estimate

    def counted(*args):
        calls[0] += 1
        return estimate(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RuntimeEstimator, "estimate", counted)
        result = engine.run(workload, scheduler, cloud, EstimatorConfig("history"), seed=3)
    if variability == "none":
        assert calls[0] < REPRICE_EVERY_RECORD[scheduler] / 2
    else:
        assert calls[0] == REPRICE_EVERY_RECORD[scheduler]
    monkeypatch.setattr(engine, "make_policy", reference_make_policy)
    monkeypatch.setattr(engine, "Fleet", ReferenceFleet)
    reference = engine.run(workload, scheduler, cloud, EstimatorConfig("history"), seed=3)
    assert checked_outputs(result) == checked_outputs(reference)


class CountingEstimator(RuntimeEstimator):
    """Counts `estimate` calls and keeps what the last `record` returned."""

    estimates = 0
    moved = None

    def estimate(self, *args):
        self.estimates += 1
        return super().estimate(*args)

    def record(self, *args):
        self.moved = super().record(*args)
        return self.moved


@settings(max_examples=150, deadline=None)
@given(catalog=catalogs(),
       window=st.integers(1, 4),
       steps=st.lists(st.tuples(
           st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 3),
                              st.one_of(runtimes, few_runtimes), st.integers(1, 5)),
                    max_size=4),
           st.lists(st.tuples(st.sampled_from(KINDS), st.sampled_from([42.5, 100.0, 300.0])),
                    max_size=4)),
           max_size=10))
def test_cost_rows_reprice_on_record(catalog, window, steps):
    """After any records, every row `CostRows` returns is the row a fresh
    table prices, and each record adds to `changes` exactly the number of
    kept rows that it changed. A record that the estimator reports as
    moving no estimate prices nothing. Records come in runs of equal
    records, so that windows fill."""
    config = CloudConfig(catalog=catalog)
    estimator = CountingEstimator(EstimatorConfig("history", window))
    costs = CostRows(estimator, config)
    for records, lookups in steps:
        for kind, type_index, runtime in (record for *record, times in records
                                          for _ in range(times)):
            before, changes, estimates = dict(costs.rows), costs.changes, estimator.estimates
            costs.record(kind, catalog[type_index % len(catalog)], runtime)
            if not estimator.moved:
                assert estimator.estimates == estimates
            assert costs.changes - changes == sum(costs.rows[k] != row
                                                  for k, row in before.items())
            fresh = CostRows(estimator, config)
            assert all(row == fresh.row(*key) for key, row in costs.rows.items())
        for key in lookups:
            costs.row(*key)
        fresh = CostRows(estimator, config)
        assert all(row == fresh.row(*key) for key, row in costs.rows.items())


class Twin:
    """A ledger and its reference, driven through the same dispatches and
    completions and compared field by field after each."""

    def __init__(self, spec, budget, estimator, config):
        self.spec, self.estimator, self.config = spec, estimator, config
        self.costs = CostRows(estimator, config)
        self.eft_us = compute_eft_us(spec, self.costs)
        assert self.eft_us == reference_eft_us(spec, estimator, config.fastest_type)
        tasks = list(spec.tasks.values())
        self.ledger = distribute_budget(budget, tasks, self.eft_us, self.costs)
        self.ref = BudgetLedger(budget)
        reference_allocate(self.ref, budget, tasks, self.eft_us, estimator, config)
        self.scheduled: set[str] = set()
        self.check()

    def lock(self, tid):
        self.ledger.lock(tid)
        self.scheduled.add(tid)
        self.check()

    def complete(self, tid, actual):
        task = self.spec.tasks[tid]
        update_budget(self.ledger, task, actual, list(self.ledger.unscheduled.values()))
        reference_update_budget(self.ref, self.scheduled, self.spec, task, actual,
                                self.eft_us, self.estimator, self.config)
        self.check()

    def check(self):
        ledger, ref = self.ledger, self.ref
        assert ledger.sub_budgets == ref.sub_budgets
        assert (ledger.unassigned, ledger.spent, ledger.debt) == (
            ref.unassigned, ref.spent, ref.debt)
        assert ledger.identity_gap() == 0 and ref.identity_gap() == 0
        # What the ledger keeps instead of rebuilding it on each fold.
        costs, unscheduled = self.costs, ledger.unscheduled
        assert list(ledger.entry_pool) == list(unscheduled)
        assert ledger.unscheduled_budget == sum(ledger.sub_budgets[t] for t in unscheduled)
        ordered = distribution_order(list(self.spec.tasks.values()), self.eft_us)
        assert ledger.position == {t.id: i for i, t in enumerate(ordered)}
        if ledger.changes == costs.changes:
            assert ledger.reserve == sum(costs.rows[t.kind, t.total_runtime].cheapest
                                         for t in unscheduled.values())


@settings(max_examples=200, deadline=None)
@given(chain=st.booleans(),
       shape_seed=st.integers(0, 2**32 - 1),
       catalog=catalogs(),
       mode=st.sampled_from(["oracle", "history"]),
       window=st.integers(1, 5),
       budget_factor=st.sampled_from([0.0, 0.3, 0.9, 1.0, 1.1, 2.0, 5.0, 20.0]),
       step_seed=st.integers(0, 2**32 - 1))
def test_redistribution_matches_reference(chain, shape_seed, catalog, mode, window,
                                          budget_factor, step_seed):
    shape = random.Random(shape_seed)
    if chain:
        spec = chain_workflow([shape.randint(1, 300) * 1.0
                               for _ in range(shape.randint(1, 14))])
    else:
        spec = random_dag(shape, max_tasks=12)
    config = CloudConfig(catalog=catalog)
    estimator = RuntimeEstimator(EstimatorConfig(mode, window))
    cheapest_cost = sum(reference_cost_table(t, estimator, config)[config.cheapest_type.name]
                        for t in spec.tasks.values())
    twin = Twin(spec, round(cheapest_cost * budget_factor), estimator, config)
    rng = random.Random(step_seed)
    undispatched = sorted(spec.tasks)
    running: list[str] = []
    while undispatched or running:
        # Dispatch locks any undispatched task, ready or not, as C2 does.
        if undispatched and (not running or rng.random() < 0.5):
            tid = undispatched.pop(rng.randrange(len(undispatched)))
            twin.lock(tid)
            running.append(tid)
        else:
            tid = running.pop(rng.randrange(len(running)))
            if rng.random() < 0.7:
                twin.costs.record(rng.choice([t.kind for t in spec.tasks.values()]),
                                  rng.choice(catalog), rng.randint(1, 600_000_000) / 1e6)
            held = twin.ledger.sub_budgets[tid]
            twin.complete(tid, rng.choice([1, max(1, held // 2), held, held + 1, 2 * held + 7,
                                           rng.randrange(1, 2 * cheapest_cost + 2)]))


# Each test below reaches a task whose entering pool equals the one the last
# fold recorded, while one other stop condition fails: resuming there would
# be wrong. A 100 s task costs 410,000 nano-dollars on MICRO and 1,910,000
# on LARGE.

def _oracle_twin(spec, budget):
    config = CloudConfig(catalog=(MICRO, LARGE))
    return Twin(spec, budget, RuntimeEstimator(EstimatorConfig("oracle")), config)


def test_refold_counts_a_suffix_debt_again():
    """With no budget every task runs on debt. t0 overruns by exactly the
    later tasks' debt, so t1 is entered with its old pool, 0; the refold
    must still add the later tasks' debt again."""
    twin = _oracle_twin(chain_workflow([100.0] * 3), 0)
    assert twin.ref.debt == 3 * 410_000
    twin.lock("t0")
    twin.complete("t0", 3 * 410_000)
    assert twin.ref.debt == 3 * 410_000 + 2 * 410_000


def test_refold_sees_a_task_locked_behind_the_stop_point():
    """t2 is locked out of distribution order, and t0's surplus equals t2's
    sub-budget, so t1 is entered with its old pool; but the reserve no
    longer holds t2, so t1 now affords the fast type."""
    twin = _oracle_twin(chain_workflow([100.0] * 3), 4_000_000)
    assert [twin.ref.sub_budgets[t] for t in ("t0", "t1", "t2")] == [
        1_910_000, 410_000, 410_000]
    twin.lock("t0")
    twin.lock("t2")
    twin.complete("t0", 1_910_000 - 410_000)
    assert twin.ref.sub_budgets["t1"] == 1_910_000


def test_refold_reprices_a_later_row_after_a_history_record():
    """t0 costs what it was given, so t1 is entered with its old pool; but
    a record of t2's kind changed t2's row, and t2 must be priced again.
    Cold start prices t2 at 75 s on LARGE, the record at 5 s."""
    config = CloudConfig(catalog=(MICRO, LARGE))
    twin = Twin(chain_workflow([100.0] * 3), 20_000_000,
                RuntimeEstimator(EstimatorConfig("history")), config)
    assert twin.ref.sub_budgets["t2"] == 75 * 38_200
    twin.lock("t0")
    twin.costs.record("t2", MICRO, 10.0)
    twin.complete("t0", twin.ledger.sub_budgets["t0"])
    assert twin.ref.sub_budgets["t2"] == 5 * 38_200


def wide_dag(rng, size):
    """A DAG of `size` tasks in one to three levels below a root, each task
    the child of one task of the level above."""
    rows, above = [("t0", "k0", 100.0, [])], ["t0"]
    levels = rng.randint(1, 3)
    for level in range(levels):
        width = (size - 1) // levels + (level < (size - 1) % levels)
        names = [f"t{len(rows) + i}" for i in range(width)]
        rows += [(name, f"k{rng.randint(0, 3)}", rng.randint(1, 300) * 1.0, [rng.choice(above)])
                 for name in names]
        above = names
    return build_workflow(rows, wid="wide")


@st.composite
def long_workflows(draw):
    """A chain of 50-400 tasks, or a wide DAG of 100-300."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return chain_workflow([rng.randint(1, 300) * 1.0
                               for _ in range(draw(st.integers(50, 400)))])
    return wide_dag(rng, draw(st.integers(100, 300)))


# What a completion costs, from its task's sub-budget `held` and a drawn
# `small`: the settlements around the sub-budget that shift every later pool.
SETTLEMENTS = {"-1": lambda held, small: held - 1,
               "-small": lambda held, small: held - small,
               "0": lambda held, small: held,
               "+small": lambda held, small: held + small,
               "half": lambda held, small: held // 2,
               "double": lambda held, small: 2 * held}


@settings(max_examples=30, deadline=None)
# A surplus flips only the last task: its LARGE cost, 191,000 nano-dollars
# for 10 s, is the one the extra 100,000 plus t0's 60,000 surplus reaches.
@example(spec=chain_workflow([100.0] * 49 + [10.0]), catalog=(MICRO, LARGE), mode="oracle",
         factor=1.0, extra=100_000, small=60_000, settle=["-small"], step_seed=0)
# On the fast type (price 2, speed 3) a 10 s task costs 8,000 nano-dollars
# and a 100 s one 68,000; on the cheapest (price 1, speed 1) 10,000 and
# 100,000. With 10,000 short of the cheapest cost, every 10 s task falls
# back to the cheapest type and the last task takes the fast one. t0's
# overrun of 95,000 pushes t58, a fallback task, into debt.
@example(spec=chain_workflow([10.0] * 59 + [100.0]),
         catalog=(VmType("v0", 1, 1, 2e-6, 3.0), VmType("v1", 1, 1, 1e-6, 1.0)),
         mode="oracle", factor=1.0, extra=-10_000, small=95_000, settle=["+small"],
         step_seed=0)
@given(spec=long_workflows(),
       catalog=catalogs(),
       mode=st.sampled_from(["oracle", "history"]),
       factor=st.sampled_from([0.0, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0]),
       extra=st.sampled_from([-1_000_000, -1, 0, 1, 100_000, 1_000_000]),
       small=st.integers(1, 2_000_000),
       settle=st.lists(st.sampled_from(sorted(SETTLEMENTS)), min_size=1, max_size=6),
       step_seed=st.integers(0, 2**32 - 1))
def test_long_redistribution_matches_reference(spec, catalog, mode, factor, extra, small,
                                               settle, step_seed):
    """Long chains and wide DAGs shrinking to a few tasks, dispatched mostly
    in distribution order and settled at and around their sub-budgets, so
    that the resumed fold stops after a shift: every step matches the
    reference. Completion k settles by `settle[k % len(settle)]`."""
    config = CloudConfig(catalog=catalog)
    estimator = RuntimeEstimator(EstimatorConfig(mode))
    cheapest_cost = sum(reference_cost_table(t, estimator, config)[config.cheapest_type.name]
                        for t in spec.tasks.values())
    twin = Twin(spec, max(0, round(cheapest_cost * factor) + extra), estimator, config)
    rng = random.Random(step_seed)
    undispatched = [t.id for t in distribution_order(list(spec.tasks.values()), twin.eft_us)]
    running: list[str] = []
    width = 1 if spec.id == "chain" else 40
    completions = 0
    while undispatched or running:
        if undispatched and (not running or len(running) < width and rng.random() < 0.8):
            tid = undispatched.pop(0 if rng.random() < 0.9 else rng.randrange(len(undispatched)))
            twin.lock(tid)
            running.append(tid)
        else:
            tid = running.pop(0 if rng.random() < 0.8 else rng.randrange(len(running)))
            if mode == "history" and rng.random() < 0.1:
                twin.costs.record(spec.tasks[tid].kind, rng.choice(catalog),
                                  rng.randint(1, 600_000_000) / 1e6)
            held = twin.ledger.sub_budgets[tid]
            settlement = SETTLEMENTS[settle[completions % len(settle)]]
            twin.complete(tid, max(1, settlement(held, small)))
            completions += 1


# Ids are arbitrary strings: these are weighted toward the characters CSV
# quotes, the whitespace a trace line strips and text that is not ASCII.
ids = st.text(st.sampled_from(',"\r\n \t') | st.characters(codec="utf-8"), max_size=4)
# Whole microseconds, as small as one, so a time's fraction needs its zeros.
times = st.integers(0, 10**9).map(lambda us: us / 1e6)


@st.composite
def id_workloads(draw):
    """A cloud of one or two types and a workload of small DAGs, with
    every workflow, task and VM type named by a drawn id."""
    type_names = draw(st.lists(ids, min_size=1, max_size=2, unique=True))
    catalog = tuple(replace(vm_type, name=name) for vm_type, name in zip((MICRO, LARGE),
                                                                         type_names))
    workflows = []
    for wid in draw(st.lists(ids, min_size=1, max_size=3, unique=True)):
        task_ids = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
        rows = [(tid, f"k{i % 2}", draw(times.filter(bool)),
                 [parent for parent in task_ids[:i] if draw(st.booleans())])
                for i, tid in enumerate(task_ids)]
        workflows.append(build_workflow(rows, budget=draw(st.sampled_from([0.0, 0.01, 1.0])),
                                        arrival=draw(times), wid=wid))
    return CloudConfig(catalog=catalog), WorkloadSpec(workflows, arrival_rate=1.0)


@pytest.mark.parametrize("chunk", [1, engine._CHUNK])
@settings(max_examples=80, deadline=None)
@given(drawn=id_workloads())
def test_renderers_match_format_and_csv_writer(chunk, drawn):
    """Every trace line, in memory and as `waasim run` streams it, is the
    `str.format` template's, and every assignment log is the bytes
    `csv.writer` writes, whatever the ids hold and however the records
    arrive in chunks."""
    cloud, workload = drawn
    trace_file, assign_file = io.StringIO(), io.StringIO()
    with mock.patch.object(engine, "_CHUNK", chunk), \
            mock.patch.object(metrics, "_CSV_CHUNK", chunk):
        result = engine.run(workload, "ebpsm", cloud, EstimatorConfig("oracle"), seed=0)
        engine.run(workload, "ebpsm", cloud, EstimatorConfig("oracle"), seed=0,
                   trace=_RunWriter(assign_file, trace_file))
        lines = [reference_line(rec) for rec in result.trace]
        assert [render(rec) for rec in result.trace] == lines
        trace_text = "".join(line + "\n" for line in lines)
        assert engine.checkpoint_trace(result.trace) == trace_text
        assert trace_file.getvalue() == trace_text
        log = reference_csv(reference_assignments(map(TraceEvent, result.trace)))
        assert metrics.assignments_to_csv(result.assignments) == log
        assert metrics.assignments_to_csv(result.trace) == log
        assert assign_file.getvalue() == log


@settings(max_examples=150, deadline=None)
@given(records=st.lists(st.tuples(
    st.integers(0, 10**13), st.sampled_from([*REFERENCE_ROW_EVENTS, "task_ready"]),
    *[st.one_of(ids, st.integers(), st.booleans(), st.none(), st.floats(allow_nan=False))] * 4),
    max_size=12))
def test_assignment_csv_matches_csv_writer_on_any_values(records):
    """Whatever a record holds at 2-5, its row is the one `csv.writer`
    writes for those values (1, 1.0 and True are three fields, None is
    empty), and a record of another kind is no row."""
    rows = [(r[0], *r[2:6], REFERENCE_ROW_EVENTS[r[1]])
            for r in records if r[1] in REFERENCE_ROW_EVENTS]
    with mock.patch.object(metrics, "_CSV_CHUNK", 5):
        assert metrics.assignments_to_csv(records) == reference_csv(rows)


def quoted_id_run():
    """A workload of about 1,200 tasks whose first workflow's id holds a
    comma and whose second's holds a quote and a newline, and its run."""
    workload = generate_workload(ExperimentConfig().build_catalog(), 120, 6.0, seed=5)
    workflows = list(workload.workflows)
    workflows[0] = replace(workflows[0], id=workflows[0].id + ",x")
    workflows[1] = replace(workflows[1], id='say "hi"\nthere')
    workload = WorkloadSpec(workflows, arrival_rate=6.0)
    return workload, engine.run(workload, "ebpsm", seed=5)


def test_ids_to_quote_in_a_long_run_give_csv_writer_bytes():
    """With the default chunk sizes, the streamed log and the log of
    `result.assignments` are the bytes `csv.writer` writes, though two ids
    need quoting and most rows do not."""
    workload, result = quoted_id_run()
    log = reference_csv(reference_assignments(map(TraceEvent, result.trace)))
    assert '"say ""hi""\nthere"' in log and ',x",' in log
    assert len(result.assignments) > 4 * metrics._CSV_CHUNK
    assign_file = io.StringIO()
    engine.run(workload, "ebpsm", seed=5, trace=_RunWriter(assign_file, None))
    assert assign_file.getvalue() == log
    assert metrics.assignments_to_csv(result.assignments) == log


def test_only_chunks_with_ids_to_quote_take_the_quoting_path():
    """The quoting check is made once per chunk: the chunks that hold no row
    of the two workflows keep their templates' text."""
    workload, result = quoted_id_run()

    def spy(module, name):
        return mock.patch.object(module, name, side_effect=getattr(module, name))

    with spy(experiment, "assignment_lines") as chunks, spy(metrics, "_csv_text") as quoted:
        engine.run(workload, "ebpsm", seed=5, trace=_RunWriter(io.StringIO(), None))
    assert 0 < quoted.call_count < chunks.call_count
    with spy(metrics, "assignment_lines") as chunks, spy(metrics, "_csv_text") as quoted:
        metrics.assignments_to_csv(result.assignments)
    assert chunks.call_count == -(-len(result.assignments) // metrics._CSV_CHUNK)
    assert 0 < quoted.call_count < chunks.call_count


def reference_workflows_csv(report):
    """The per-workflow CSV as `csv.writer` writes it, each value formatted
    on its own."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(metrics.WORKFLOW_CSV_COLUMNS)
    for w in report.workflows:
        writer.writerow([w.workflow_id, f"{w.arrival_s:.6f}", format_seconds(w.makespan_us),
                         format_dollars(w.cost_nanos), f"{w.budget_usd:.9f}",
                         int(w.budget_met), f"{w.cost_per_budget:.6f}"])
    return buf.getvalue()


# Floats whose shortest repr takes an exponent or a sign: the smallest
# subnormal, 1e16 and -0.0; ints beyond 64 bits.
report_floats = (st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from([5e-324, 1e16, -0.0, 1e-7, 0.1]))
report_ints = st.integers(-2**70, 2**70) | st.sampled_from([0, 2**63, 2**64 + 1])


@st.composite
def reports(draw):
    """A report of 0-5 workflows and 0-3 VM types with drawn ids and
    values; a `cost_per_budget` may be infinite."""
    workflows = [WorkflowMetrics(
        workflow_id=wid, arrival_s=draw(report_floats), makespan_s=draw(report_floats),
        cost_usd=draw(report_floats), budget_usd=draw(report_floats),
        budget_met=draw(st.booleans()),
        cost_per_budget=draw(report_floats | st.just(math.inf)),
        cost_nanos=draw(report_ints), makespan_us=draw(report_ints))
        for wid in draw(st.lists(ids, max_size=5))]
    fleet = FleetMetrics(
        vm_counts=draw(st.dictionaries(ids, report_ints, max_size=3)),
        total_vms=draw(report_ints), busy_seconds=draw(report_floats),
        billed_seconds=draw(report_ints), utilization_pct=draw(report_floats),
        total_cost_usd=draw(report_floats), total_cost_nanos=draw(report_ints))
    return MetricsReport(draw(ids), draw(report_ints), draw(ids), workflows, fleet)


def strict_dict(report) -> dict:
    """`report.to_dict()` with an infinite `cost_per_budget` as None."""
    doc = report.to_dict()
    for w in doc["workflows"]:
        if math.isinf(w["cost_per_budget"]):
            w["cost_per_budget"] = None
    return doc


@settings(max_examples=60, deadline=None)
@given(report=reports())
def test_report_json_is_json_dumps_byte_for_byte(report):
    """The report's templates write what `json.dumps(indent=2,
    allow_nan=False)` writes, and the decoder reads the report back."""
    text = report_to_json(report)
    assert text == json.dumps(strict_dict(report), indent=2, allow_nan=False) + "\n"
    assert metrics.report_from_json(text) == report


REPORT_FLOATS = {"workflow": ("arrival_s", "makespan_s", "cost_usd", "budget_usd"),
                 "fleet": ("busy_seconds", "utilization_pct", "total_cost_usd")}


@settings(max_examples=30, deadline=None)
@given(report=reports(), data=st.data())
def test_report_json_refuses_a_nan_or_infinity_where_json_dumps_does(report, data):
    """Only a `cost_per_budget` is written as null; a NaN or an infinity in
    any other float raises ValueError, as in `json.dumps(allow_nan=False)`."""
    owner = data.draw(st.sampled_from(["workflow", "fleet"] if report.workflows else ["fleet"]))
    name = data.draw(st.sampled_from(REPORT_FLOATS[owner]))
    value = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    if owner == "fleet":
        report = replace(report, fleet=replace(report.fleet, **{name: value}))
    else:
        workflows = list(report.workflows)
        at = data.draw(st.integers(0, len(workflows) - 1))
        workflows[at] = replace(workflows[at], **{name: value})
        report = replace(report, workflows=workflows)
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
        json.dumps(strict_dict(report), indent=2, allow_nan=False)
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
        report_to_json(report)


@settings(max_examples=60, deadline=None)
@given(report=reports())
def test_workflows_csv_matches_csv_writer(report):
    """Every per-workflow CSV is the bytes `csv.writer` writes, whatever the
    ids hold and whatever the sign of each amount."""
    assert metrics.workflows_to_csv(report) == reference_workflows_csv(report)


def test_render_strips_an_id_that_ends_in_whitespace(mono_cloud, oracle):
    """Ids are arbitrary strings: a `task_ready` line ends in its task id,
    and the line loses the id's trailing space, as the reference does."""
    spec = build_workflow([("a ", "k", 10.0, []), ("b\t", "k", 5.0, ["a "])])
    result = engine.run(single_workload(spec), "ebpsm", mono_cloud, oracle, seed=0)
    ready = [rec for rec in result.trace if rec[1] == "task_ready"]
    assert [rec[3] for rec in ready] == ["a ", "b\t"]
    assert [render(rec) for rec in ready] == \
        ["0\ttask_ready\tworkflow=wf task=a", "10000000\ttask_ready\tworkflow=wf task=b"]
    assert checked_outputs(result)[0].count("task=a ") == 3


def test_report_dict_equals_asdict():
    """`to_dict` builds what `schema.as_dict` gives, key order included,
    and shares no mutable part with the report."""
    catalog = [(spec, budget) for spec, _ in ExperimentConfig().build_catalog()[:4]
               for budget in (0.0, 0.25)]
    report = engine.run(generate_workload(catalog, 12, 12.0, seed=3), "ebpsm",
                        seed=3).report
    assert any(math.isinf(w.cost_per_budget) for w in report.workflows)
    for r in (report, replace(report, workflows=[])):
        assert json.dumps(r.to_dict()) == json.dumps(as_dict(r))
    doc = report.to_dict()
    doc["workflows"][0]["cost_per_budget"] = None
    doc["fleet"]["vm_counts"].clear()
    assert json.dumps(report.to_dict()) == json.dumps(as_dict(report))


class ReferenceSimulation:
    """The event loop as README describes it, written apart from the
    engine's: one list of (time_us, seq, handler, payload) kept sorted and
    popped one event at a time; the batch's dispatch once the next event is
    later; a scan at every multiple of `scan_interval` while any VM is held;
    each child released in `sorted()` order; every record rendered with
    `reference_render`. The scheduler, fleet and estimator are the
    references above."""

    def __init__(self, workload, scheduler, cloud, estimator_config, seed):
        self.workload, self.cloud, self.seed = workload, cloud, seed
        self.policy = reference_make_policy(scheduler, cloud, estimator_config)
        self.fleet = ReferenceFleet(cloud)
        self.rng = random.Random(substream_seed(seed, "variability"))
        self.events, self.seq, self.now = [], 0, 0
        self.records, self.busy_us, self.tick_pending = [], 0, False
        self.runs = {}

    def push(self, time_us, handler, *payload):
        self.seq += 1
        bisect.insort(self.events, (time_us, self.seq, handler, payload))

    def emit(self, event, *values):
        self.records.append((self.now, event, *values))

    def simulate(self):
        for spec in self.workload.workflows:
            run = SimpleNamespace(spec=spec, arrival_us=usec(spec.arrival_time),
                                  budget_nanos=nanos(spec.budget), plan=None, ledger=None,
                                  waiting={t.id: len(t.parents) for t in spec.tasks.values()},
                                  unfinished=len(spec.tasks), cost_nanos=0, done_at_us=None)
            self.runs[spec.id] = run
            self.push(run.arrival_us, self.arrive, run)
        interval = usec(self.cloud.scan_interval)
        while self.events:
            self.now, _, handler, payload = self.events.pop(0)
            handler(*payload)
            if self.events and self.events[0][0] == self.now:
                continue
            self.dispatch()
            if not self.tick_pending and self.fleet.unreleased(self.now):
                self.tick_pending = True
                self.push((self.now // interval + 1) * interval, self.scan)
            if self.finished() and not self.fleet.unreleased(self.now):
                break
        assert self.finished(), "the reference stalled"
        self.emit("simulation_end", len(self.runs), len(self.fleet.ever_leased))
        lines = [reference_render(TraceEvent(rec)) for rec in self.records]
        return "".join(line + "\n" for line in lines), self.report()

    def finished(self):
        return all(run.unfinished == 0 for run in self.runs.values())

    def arrive(self, run):
        self.emit("workflow_arrival", run.spec.id, len(run.spec.tasks), run.budget_nanos)
        self.policy.on_arrival(run)
        for tid in sorted(run.spec.tasks):
            if run.waiting[tid] == 0:
                self.ready(run, run.spec.tasks[tid])

    def ready(self, run, task):
        self.emit("task_ready", run.spec.id, task.id)
        self.policy.enqueue_ready(run, task)

    def dispatch(self):
        for action in self.policy.schedule_ready(self.fleet):
            run, task = action.run, action.task
            if isinstance(action, Assign):
                vm = action.vm
                self.fleet.start_task(vm)
                self.emit("task_assign", run.spec.id, task.id, vm.id, vm.vm_type.name)
                self.start(run, task, vm)
            else:
                vm = self.fleet.provision(action.vm_type, self.now)
                self.emit("provision_request", run.spec.id, task.id, vm.id,
                          vm.vm_type.name, vm.available_at_us)
                self.push(vm.available_at_us, self.available, vm, run, task)

    def available(self, vm, run, task):
        self.fleet.mark_available(vm)
        self.emit("vm_available", vm.id, vm.vm_type.name)
        self.start(run, task, vm)

    def start(self, run, task, vm):
        runtime_s = (task.reference_runtime + task.transfer_time) / vm.vm_type.speed_factor
        variability = self.cloud.variability
        if variability.mode == "lognormal" and variability.sigma:
            runtime_s *= math.exp(self.rng.gauss(0.0, variability.sigma))
        runtime_us = usec(runtime_s)
        self.busy_us += runtime_us
        self.emit("task_start", run.spec.id, task.id, vm.id, vm.vm_type.name, runtime_us)
        self.push(self.now + runtime_us, self.complete, run, task, vm, runtime_us)

    def complete(self, run, task, vm, runtime_us):
        cost = -(-runtime_us // USEC_PER_SEC) * vm.vm_type.price_nanos
        run.cost_nanos += cost
        run.unfinished -= 1
        self.emit("task_complete", run.spec.id, task.id, vm.id, vm.vm_type.name, cost)
        self.policy.on_complete(run, task, vm.vm_type, runtime_us, cost)
        if self.policy.dedicated:
            self.fleet.terminate(vm, self.now)
            self.terminated([vm])
        else:
            self.fleet.finish_task(vm, self.now)
            self.emit("vm_idle", vm.id)
        for child in sorted(task.children):
            run.waiting[child] -= 1
            if run.waiting[child] == 0:
                self.ready(run, run.spec.tasks[child])
        if run.unfinished == 0:
            run.done_at_us = self.now
            self.emit("workflow_complete", run.spec.id, self.now - run.arrival_us,
                      run.cost_nanos)

    def scan(self):
        self.tick_pending = False
        self.terminated(self.fleet.idle_scan(self.now))

    def terminated(self, vms):
        for vm in vms:
            self.emit("vm_terminated", vm.id, *self.bill(vm))
        for vm in self.fleet.release_due(self.now):
            self.emit("vm_released", vm.id)

    @staticmethod
    def bill(vm):
        """A terminated VM's billed seconds, its lease rounded up, and its bill."""
        billed_s = -(-(vm.terminated_at_us - vm.billing_start_us) // USEC_PER_SEC)
        return billed_s, billed_s * vm.vm_type.price_nanos

    def report(self):
        workflows = []
        for wid in sorted(self.runs):
            run = self.runs[wid]
            cost, budget = run.cost_nanos, run.budget_nanos
            makespan_us = run.done_at_us - run.arrival_us
            ratio = cost / budget if budget else (0.0 if cost == 0 else math.inf)
            workflows.append({
                "workflow_id": wid, "arrival_s": run.arrival_us / 1e6,
                "makespan_s": makespan_us / 1e6, "cost_usd": cost / 1e9,
                "budget_usd": budget / 1e9, "budget_met": cost <= budget,
                "cost_per_budget": ratio, "cost_nanos": cost, "makespan_us": makespan_us})
        vms = self.fleet.ever_leased.values()
        bills = [self.bill(vm) for vm in vms]
        billed_s, bill = sum(s for s, _ in bills), sum(n for _, n in bills)
        counts = {t.name: sum(vm.vm_type.name == t.name for vm in vms) for t in self.cloud.catalog}
        text = json.dumps(workload_to_dict(self.workload), indent=2) + "\n"
        return {"scheduler": self.policy.name, "seed": self.seed,
                "workload_hash": hashlib.sha256(text.encode()).hexdigest(),
                "workflows": workflows,
                "fleet": {"vm_counts": counts, "total_vms": len(vms),
                          "busy_seconds": self.busy_us / 1e6, "billed_seconds": billed_s,
                          "utilization_pct": (100.0 * self.busy_us / (billed_s * 1e6)
                                              if billed_s else 0.0),
                          "total_cost_usd": bill / 1e9, "total_cost_nanos": bill}}


@st.composite
def dags(draw):
    """A chain, diamond, bag or random DAG whose ids are drawn, so its tasks'
    id order, drawn order and any set order differ. Runtimes come from a few
    values, so tasks often end at one time; 2.5 s bills a part second."""
    shape = draw(st.sampled_from(["chain", "diamond", "bag", "random"]))
    n = 4 if shape == "diamond" else draw(st.integers(1, 6))
    tids = draw(st.lists(ids, min_size=n, max_size=n, unique=True))
    parents = {"chain": lambda i: tids[i - 1:i],
               "diamond": lambda i: [[], tids[:1], tids[:1], tids[1:3]][i],
               "bag": lambda i: [],
               "random": lambda i: [p for p in tids[:i] if draw(st.booleans())]}[shape]
    tasks = [_TaskDoc(tid, draw(st.sampled_from(KINDS)),
                      draw(st.sampled_from([10.0, 10.0, 30.0, 2.5])),
                      parents=list(parents(i)),
                      transfer=draw(st.sampled_from([0.0, 0.0, 0.0, 2.5])))
             for i, tid in enumerate(tids)]
    return _assemble(draw(ids), tasks, 0.0, 0.0)


# Each workflow is drawn as (template index, budget factor, arrival gap).
# Gaps of 0 and runtimes of a few values make same-time events common.
@settings(max_examples=70, deadline=None)
# A scan tick keeps the rank a tick pushed at every multiple would have.
# Each of these cases fails when one rule of that rank is broken: a tick
# pushed at the current push count (the scan at 20 s must release the first
# VM before the second task completes and terminates its own VM), a tick
# moved past the next event or one pushed past the pending tick that keeps
# the pending tick's rank.
@example(scheduler="fcfs", catalog=(MICRO,), mode="oracle", variability="none",
         templates=[_assemble("w", [_TaskDoc("a", "k0", 10.0),
                                    _TaskDoc("b", "k0", 10.0, parents=["a"])], 0.0, 0.0)],
         draws=[(0, 1.0, 0.0)], provisioning_delay=0.0, deprovisioning_delay=10.0,
         idle_threshold=1.0, scan_interval=10.0, run_seed=0)
@example(scheduler="ebpsm", catalog=default_catalog(), mode="oracle", variability="none",
         templates=[_assemble("w", [_TaskDoc("a", "k0", 10.0)], 0.0, 0.0)],
         draws=[(0, 0.0, 2.5), (0, 0.0, 2.5)], provisioning_delay=0.0,
         deprovisioning_delay=0.0, idle_threshold=1.0, scan_interval=3.0, run_seed=0)
@example(scheduler="ebpsm", catalog=(VmType("v0", 1, 1024, 1e-06, 0.5),
                                     VmType("v1", 1, 1024, 1e-06, 0.5)),
         mode="oracle", variability="none",
         templates=[_assemble("w", [_TaskDoc("a", "k0", 10.0),
                                    _TaskDoc("b", "k0", 10.0, parents=["a"]),
                                    _TaskDoc("c", "k0", 2.5, parents=["a"], transfer=2.5),
                                    _TaskDoc("d", "k0", 10.0, parents=["b", "c"])], 0.0, 0.0)],
         draws=[(0, 0.0, 10.0), (0, 0.0, 2.5), (0, 0.0, 2.5), (0, 0.0, 90.0)],
         provisioning_delay=0.0, deprovisioning_delay=0.0, idle_threshold=60.0,
         scan_interval=3.0, run_seed=0)
@given(scheduler=st.sampled_from(SCHEDULER_NAMES),
       catalog=catalogs(),
       mode=st.sampled_from(["oracle", "history"]),
       variability=st.sampled_from(["none", "lognormal"]),
       templates=st.lists(dags(), min_size=1, max_size=3),
       draws=st.lists(st.tuples(st.integers(0, 2), st.sampled_from([0.0, 0.6, 1.0, 3.0]),
                                st.sampled_from([0.0, 0.0, 10.0, 2.5, 90.0])),
                      min_size=1, max_size=12),
       provisioning_delay=st.sampled_from([0.0, 30.0]),
       deprovisioning_delay=st.sampled_from([0.0, 10.0, 35.0]),
       idle_threshold=st.sampled_from([1.0, 60.0]),
       scan_interval=st.sampled_from([3.0, 10.0]),
       run_seed=st.integers(0, 1000))
def test_engine_matches_reference_simulation(scheduler, catalog, mode, variability, templates,
                                             draws, provisioning_delay, deprovisioning_delay,
                                             idle_threshold, scan_interval, run_seed):
    """`engine.run`'s trace text and report equal the reference loop's.
    Workflows drawn from one template share its task records, as
    `generate_workload` draws them."""
    if scheduler in ("fcfs", "ebpsm-homogeneous"):
        catalog = (MICRO,)
    cheapest_price = min(t.price_per_second for t in catalog)
    workflows, clock = [], 0.0
    for i, (index, budget_factor, gap) in enumerate(draws):
        spec = templates[index % len(templates)]
        cheapest_cost = sum(t.reference_runtime + t.transfer_time
                            for t in spec.tasks.values()) * cheapest_price
        clock += gap
        workflows.append(replace(spec, id=f"wf{i}-{spec.id}",
                                 budget=cheapest_cost * budget_factor, arrival_time=clock))
    workload = WorkloadSpec(workflows, arrival_rate=1.0)
    cloud = CloudConfig(catalog=catalog, provisioning_delay=provisioning_delay,
                        deprovisioning_delay=deprovisioning_delay,
                        idle_threshold=idle_threshold, scan_interval=scan_interval,
                        variability=VariabilityConfig(
                            variability, 0.3 if variability == "lognormal" else 0.0))
    estimator = EstimatorConfig(mode, 3)
    result = engine.run(workload, scheduler, cloud, estimator, seed=run_seed)
    trace, report = ReferenceSimulation(workload, scheduler, cloud, estimator,
                                        run_seed).simulate()
    assert engine.checkpoint_trace(result.trace) == trace
    assert result.report.to_dict() == report
    fold = metrics.ReportFold(catalog)
    fold.extend(result.trace)
    assert fold.report(scheduler, run_seed, result.report.workload_hash) == result.report
