"""Differential tests against the straightforward implementations that the
windowed estimator, the per-type dispatch decision and the fleet's idle
index and release queue replaced. The references below scan every record,
estimate once per idle VM and scan every instance; the optimised code must
agree with them exactly: equal floats, identical traces and identical
report bytes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MICRO, random_dag
from waasim import engine
from waasim.cloud import (IDLE, TERMINATED, CloudConfig, Fleet, VariabilityConfig,
                          default_catalog, estimated_cost_nanos)
from waasim.errors import UnknownKind
from waasim.estimator import EstimatorConfig, ExecutionRecord, RuntimeEstimator
from waasim.metrics import report_to_json
from waasim.scheduler import (SCHEDULER_NAMES, Assign, EbpsmPolicy, Provision,
                              _fastest_first, make_policy)
from waasim.units import usec
from waasim.workflow import generate_workload

CATALOG = default_catalog()
KINDS = ("k0", "k1", "k2", "k3")


class ReferenceEstimator:
    """Keeps every record of a kind in one list and rescans it per call."""

    def __init__(self, config: EstimatorConfig, catalog):
        self.config = config
        self.catalog = {t.name: t for t in catalog}
        self._records: dict[str, list[ExecutionRecord]] = {}
        self._reference: dict[str, float] = {}

    def register_kind(self, kind, reference_runtime):
        self._reference[kind] = reference_runtime

    def record(self, rec):
        self._records.setdefault(rec.task_kind, []).append(rec)

    def estimate(self, kind, vm_type, reference_runtime=None):
        if reference_runtime is None:
            reference_runtime = self._reference.get(kind)
        records = self._records.get(kind, [])
        if self.config.mode == "oracle":
            if reference_runtime is None:
                raise UnknownKind(f"no registered runtime for kind {kind!r}")
            return reference_runtime / vm_type.speed_factor
        same_type = [r for r in records if r.vm_type_name == vm_type.name]
        if same_type:
            window = same_type[-self.config.window:]
            return sum(r.actual_runtime for r in window) / len(window)
        if records:
            window = records[-self.config.window:]
            normalized = [
                r.actual_runtime * self.catalog[r.vm_type_name].speed_factor
                for r in window
            ]
            return sum(normalized) / len(normalized) / vm_type.speed_factor
        if reference_runtime is None:
            raise UnknownKind(f"no records or registered runtime for kind {kind!r}")
        return reference_runtime / vm_type.speed_factor * self.config.cold_start_margin


class ReferenceEbpsmPolicy(EbpsmPolicy):
    """Estimates and prices the task on every unclaimed idle VM in turn."""

    def _decide(self, run, task, fleet, claimed, now_us):
        ledger = self.ledgers[run.spec.id]
        cap = ledger.sub_budgets.get(task.id, 0)
        best = None
        for vm in fleet.idle_instances():
            if vm.id in claimed:
                continue
            est_us = usec(self.estimator.estimate(task.kind, vm.vm_type, task.total_runtime))
            if not self.homogeneous and estimated_cost_nanos(vm.vm_type, est_us) > cap:
                continue
            key = (est_us, vm.vm_type.price_nanos, vm.id)
            if best is None or key < best:
                best = key
        ledger.scheduled.add(task.id)
        if best is not None:
            claimed.add(best[2])
            return Assign(run, task, best[2])
        if self.homogeneous:
            return Provision(run, task, self.config.catalog[0])
        for vm_type in _fastest_first(self.config):
            est_us = usec(self.estimator.estimate(task.kind, vm_type, task.total_runtime))
            if estimated_cost_nanos(vm_type, est_us) <= cap:
                return Provision(run, task, vm_type)
        return Provision(run, task, self.config.cheapest_type)


class ReferenceFleet(Fleet):
    """Finds idle, expired, due and held instances by scanning every
    instance ever leased, in provision order."""

    def __init__(self, config):
        super().__init__(config)
        self.released = set()

    def idle_instances(self):
        return [vm for vm in self.instances.values() if vm.state == IDLE]

    def idle_scan(self, now_us):
        expired = [vm for vm in self.instances.values() if vm.state == IDLE
                   and now_us - vm.idle_since_us >= self.config.idle_threshold_us]
        for vm in expired:
            self.terminate(vm, now_us)
        return expired

    def _release_at_us(self, vm):
        return vm.terminated_at_us + self.config.deprovisioning_delay_us

    def release_due(self, now_us):
        due = [vm for vm in self.instances.values()
               if vm.state == TERMINATED and vm.id not in self.released
               and self._release_at_us(vm) <= now_us]
        self.released.update(vm.id for vm in due)
        return due

    def unreleased(self, now_us):
        return [vm for vm in self.instances.values()
                if vm.state != TERMINATED or self._release_at_us(vm) > now_us]


def reference_make_policy(name, config, estimator):
    if name == "ebpsm":
        return ReferenceEbpsmPolicy(config, estimator)
    if name == "ebpsm-homogeneous":
        return ReferenceEbpsmPolicy(config, estimator, homogeneous=True)
    return make_policy(name, config, estimator)


def _outcome(estimator, kind, vm_type, reference_runtime):
    try:
        return estimator.estimate(kind, vm_type, reference_runtime)
    except UnknownKind:
        return "unknown"


# Whole microseconds, as the engine records them: sums of these round, so
# a changed summation order would show.
runtimes = st.integers(1, 10**11).map(lambda us: us / 1e6)


@settings(max_examples=150, deadline=None)
@given(window=st.integers(1, 12),
       registered=st.dictionaries(st.sampled_from(KINDS), runtimes, max_size=3),
       records=st.lists(st.tuples(st.sampled_from(KINDS[:2]),
                                  st.sampled_from([t.name for t in CATALOG]), runtimes),
                        max_size=80))
def test_estimate_equals_reference(window, registered, records):
    config = EstimatorConfig("history", window)
    new, ref = RuntimeEstimator(config, CATALOG), ReferenceEstimator(config, CATALOG)
    for est in (new, ref):
        for kind, runtime in registered.items():
            est.register_kind(kind, runtime)

    def check():
        for kind in KINDS:
            for vm_type in CATALOG:
                for reference_runtime in (None, 42.5):
                    assert (_outcome(new, kind, vm_type, reference_runtime)
                            == _outcome(ref, kind, vm_type, reference_runtime))

    check()
    for kind, type_name, runtime in records:
        rec = ExecutionRecord(kind, type_name, runtime)
        new.record(rec)
        ref.record(rec)
        check()


def _catalog_for(scheduler: str):
    return (MICRO,) if scheduler in ("fcfs", "ebpsm-homogeneous") else CATALOG


@settings(max_examples=60, deadline=None)
@given(scheduler=st.sampled_from(SCHEDULER_NAMES),
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
def test_engine_matches_reference(scheduler, mode, window, variability, dag_seed,
                                  templates, budget_factors, count, rate, workload_seed,
                                  provisioning_delay, deprovisioning_delay, idle_threshold,
                                  scan_interval, run_seed):
    catalog = _catalog_for(scheduler)
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
        return engine.checkpoint_trace(result.trace), report_to_json(result.report)

    trace, report = simulate()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "RuntimeEstimator", ReferenceEstimator)
        mp.setattr(engine, "make_policy", reference_make_policy)
        mp.setattr(engine, "Fleet", ReferenceFleet)
        ref_trace, ref_report = simulate()
    assert trace == ref_trace
    assert report == ref_report
