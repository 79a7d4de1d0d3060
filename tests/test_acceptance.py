"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Later criteria audit the
traces produced by earlier ones, so the tests run in definition order.
"""

import math
import random
import time
from pathlib import Path

import scipy.stats

from conftest import events, random_dag, single_workload
from waasim import engine
from waasim.cloud import (CloudConfig, VariabilityConfig, VmType,
                          estimated_cost_nanos)
from waasim.estimator import EstimatorConfig, RuntimeEstimator
from waasim.experiment import TemplateConfig
from waasim.scheduler import CostRows, compute_eft_us, distribute_budget, update_budget
from waasim.units import substream_seed, usec
from waasim.workflow import (WorkloadSpec, generate_workload, genome_template,
                             vina_template)

GOLDEN_DIR = Path(__file__).parent / "golden"

MICRO = VmType("t2.micro", 1, 1024, 0.0000041, 1.0)

# traces accumulated for the audit criteria: (label, specs by wf id, cloud, trace)
AUDIT_POOL: list[tuple[str, dict, CloudConfig, list]] = []


def _remember(label, workload, cloud, result):
    specs = {wf.id: wf for wf in workload.workflows}
    AUDIT_POOL.append((label, specs, cloud, events(result.trace)))


def _report(cid, detail):
    print(f"\nACCEPTANCE {cid} PASS - {detail}")


def default_catalog4():
    return CloudConfig().catalog


def evaluation_templates():
    return [
        genome_template("chr21", 9),
        genome_template("chr22", 10),
        vina_template(7, runtimes=(1800.0, 300.0, 300.0, 240.0, 240.0, 180.0, 120.0),
                      kind_prefix="vina01_dock", workflow_id="vina01"),
        vina_template(7, runtimes=(1200.0, 240.0, 180.0, 180.0, 120.0, 120.0, 60.0),
                      kind_prefix="vina02_dock", workflow_id="vina02"),
    ]


def cheapest_total_nanos(spec, config):
    cheap = config.cheapest_type
    return sum(
        estimated_cost_nanos(cheap, usec(t.total_runtime / cheap.speed_factor))
        for t in spec.tasks.values())


# -- criterion 1: budget distribution ----------------------------------------

def brute_force_order(spec, reference_type):
    """Independent recomputation of the level/EFT distribution order."""
    def level(tid):
        parents = spec.tasks[tid].parents
        return 0 if not parents else 1 + max(level(p) for p in parents)

    def eft_us(tid):
        task = spec.tasks[tid]
        start = max((eft_us(p) for p in task.parents), default=0)
        return start + round(task.total_runtime / reference_type.speed_factor * 1e6)

    return sorted(spec.tasks, key=lambda t: (level(t), eft_us(t), t))


def test_c01_budget_distribution_correctness():
    start = time.monotonic()
    config = CloudConfig()
    costs = CostRows(RuntimeEstimator(EstimatorConfig(mode="oracle")), config)
    rng = random.Random(101)
    for _ in range(1000):
        spec = random_dag(rng, max_tasks=12)
        eft = compute_eft_us(spec, costs)
        budget = rng.randrange(0, 2_000_000_000)
        ledger = distribute_budget(budget, list(spec.tasks.values()), eft, costs)
        assert ledger.identity_gap() == 0
        assert all(v >= 0 for v in ledger.sub_budgets.values())
        assert ledger.unassigned >= 0
        assert sum(ledger.sub_budgets.values()) == budget - ledger.unassigned + ledger.debt
        assert list(ledger.unscheduled) == brute_force_order(spec, config.fastest_type)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report("C1", f"1000 random DAGs, exact ledger identity, order matches oracle "
                  f"({elapsed:.2f}s)")


# -- criterion 2: budget update ----------------------------------------------

class NaiveBudgetState:
    """Plain from-scratch reimplementation of the ledger arithmetic."""

    def __init__(self, budget, spec, eft, config):
        self.spec = spec
        self.eft = eft
        self.config = config
        self.spent = 0
        self.debt = 0
        self.pool_left = 0
        self.subs = {}
        self._costs = {}
        for tid, task in spec.tasks.items():
            per_type = {}
            for vm_type in config.catalog:
                est = task.total_runtime / vm_type.speed_factor
                per_type[vm_type.name] = math.ceil(round(est * 1e6) / 1e6) * vm_type.price_nanos
            self._costs[tid] = per_type
        self._spread(budget, list(spec.tasks))

    def _spread(self, pool, task_ids):
        def level(tid):
            parents = self.spec.tasks[tid].parents
            return 0 if not parents else 1 + max(level(p) for p in parents)
        ordered = sorted(task_ids, key=lambda t: (level(t), self.eft[t], t))
        by_speed = sorted(self.config.catalog, key=lambda t: -t.speed_factor)
        cheapest = min(self.config.catalog, key=lambda t: t.price_per_second)
        reserve = sum(self._costs[t][cheapest.name] for t in ordered)
        for tid in ordered:
            reserve -= self._costs[tid][cheapest.name]
            price = None
            for vm_type in by_speed:
                candidate = self._costs[tid][vm_type.name]
                if candidate <= pool - reserve:
                    price = candidate
                    break
            if price is None:
                price = self._costs[tid][cheapest.name]
            self.subs[tid] = price
            if price <= pool:
                pool -= price
            else:
                self.debt += price - pool
                pool = 0
        self.pool_left = pool

    def complete(self, tid, actual, locked):
        held = self.subs.pop(tid)
        self.spent += actual
        pool = self.pool_left
        redo = [t for t in self.subs if t not in locked]
        for t in redo:
            pool += self.subs.pop(t)
        pool += held - actual
        if pool < 0:
            self.debt += -pool
            pool = 0
        self.pool_left = 0
        self._spread(pool, redo)


def test_c02_budget_update_correctness():
    start = time.monotonic()
    config = CloudConfig()
    costs = CostRows(RuntimeEstimator(EstimatorConfig(mode="oracle")), config)
    rng = random.Random(202)
    for _ in range(300):
        spec = random_dag(rng, max_tasks=10)
        eft = compute_eft_us(spec, costs)
        budget = rng.randrange(0, 500_000_000)
        ledger = distribute_budget(budget, list(spec.tasks.values()), eft, costs)
        naive = NaiveBudgetState(budget, spec, eft, config)
        assert ledger.sub_budgets == naive.subs
        remaining = list(spec.tasks)
        rng.shuffle(remaining)
        uncompleted = set(spec.tasks)
        for tid in remaining:
            # occasionally lock a task ahead of time, as dispatch would
            if len(uncompleted) > 1 and rng.random() < 0.4:
                early = rng.choice(sorted(uncompleted - {tid}))
                if early in ledger.unscheduled:
                    ledger.lock(early)
            if tid in ledger.unscheduled:
                ledger.lock(tid)
            actual = rng.randrange(1, 300_000_000)
            update_budget(ledger, spec.tasks[tid], actual, list(ledger.unscheduled.values()))
            uncompleted.discard(tid)
            naive.complete(tid, actual, uncompleted - set(ledger.unscheduled))
            assert ledger.identity_gap() == 0
            assert ledger.sub_budgets == naive.subs
            assert ledger.unassigned == naive.pool_left
            assert ledger.spent == naive.spent
            assert ledger.debt == naive.debt
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report("C2", f"300 random completion sequences match the from-scratch oracle "
                  f"({elapsed:.2f}s)")


# -- criterion 3: budget-met guarantee and degradation ------------------------

def _budget_met_sweep(sigma, seeds):
    cloud = CloudConfig(provisioning_delay=0.0, deprovisioning_delay=0.0)
    if sigma:
        cloud = CloudConfig(provisioning_delay=0.0, deprovisioning_delay=0.0,
                            variability=VariabilityConfig("lognormal", sigma))
    estimator = EstimatorConfig(mode="oracle")
    catalog = [(t, cheapest_total_nanos(t, cloud) * 1.01 / 1e9)
               for t in evaluation_templates()]
    met = total = 0
    for seed in seeds:
        workload = generate_workload(catalog, 20, 2.0, seed=seed)
        result = engine.run(workload, "ebpsm", cloud, estimator, seed=seed)
        met += sum(w.budget_met for w in result.report.workflows)
        total += len(result.report.workflows)
        _remember(f"c3-sigma{sigma}-{seed}", workload, cloud, result)
    return 100.0 * met / total


def test_c03_zero_violation_guarantee():
    seeds = range(50)
    exact = _budget_met_sweep(0.0, seeds)
    assert exact == 100.0
    noisy = _budget_met_sweep(0.15, seeds)
    assert 50.0 <= noisy < 100.0
    assert noisy < exact
    _report("C3", f"met 100.0% at sigma=0; {noisy:.1f}% at sigma=0.15")


# -- criterion 4: FCFS comparison ---------------------------------------------

def test_c04_fcfs_directional_comparison():
    start = time.monotonic()
    cloud = CloudConfig(catalog=(MICRO,), provisioning_delay=90.0,
                        deprovisioning_delay=10.0, idle_threshold=60.0,
                        scan_interval=10.0)
    estimator = EstimatorConfig(mode="oracle")
    template = genome_template("chr22", 10, budget=1.0)
    vm_counts = None
    for seed in range(20):
        workload = single_workload(template)
        fcfs = engine.run(workload, "fcfs", cloud, estimator, seed=seed)
        ebpsm = engine.run(workload, "ebpsm-homogeneous", cloud, estimator, seed=seed)
        _remember(f"c4-fcfs-{seed}", workload, cloud, fcfs)
        _remember(f"c4-ebpsm-{seed}", workload, cloud, ebpsm)
        assert ebpsm.report.workflows[0].makespan_s < fcfs.report.workflows[0].makespan_s
        assert ebpsm.report.fleet.total_cost_nanos > fcfs.report.fleet.total_cost_nanos
        assert ebpsm.report.fleet.total_vms < fcfs.report.fleet.total_vms
        vm_counts = (ebpsm.report.fleet.total_vms, fcfs.report.fleet.total_vms)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report("C4", f"20/20 seeds: faster, costlier, fewer VMs "
                  f"({vm_counts[0]} vs {vm_counts[1]}; {elapsed:.2f}s)")


# -- criteria 6 and 7: utilization and VM-count trends ------------------------

def trend_templates():
    gen = {"individuals": 8.0, "sifting": 10.0, "individuals_merge": 30.0,
           "mutations_overlap": 12.0, "frequency": 15.0}
    return [
        (genome_template("chr21", 2, runtime_profile=gen),
         [0.004, 0.009, 0.015, 0.022]),
        (genome_template("chr22", 3, runtime_profile=gen),
         [0.004, 0.009, 0.015, 0.022]),
        (vina_template(3, runtimes=(20.0, 12.0, 10.0), kind_prefix="vina01_dock",
                       workflow_id="vina01"), [0.002, 0.005, 0.008, 0.012]),
        (vina_template(3, runtimes=(15.0, 8.0, 6.0), kind_prefix="vina02_dock",
                       workflow_id="vina02"), [0.0005, 0.0013, 0.002, 0.003]),
    ]


SWEEP_RATES = (0.5, 2.0, 6.0, 12.0)
_sweep_cache = {}


def run_sweep():
    if _sweep_cache:
        return _sweep_cache
    catalog = [(t, b) for t, budgets in trend_templates() for b in budgets]
    cloud = CloudConfig(provisioning_delay=2.0, deprovisioning_delay=2.0,
                        idle_threshold=10.0, scan_interval=2.0)
    estimator = EstimatorConfig()
    for rate in SWEEP_RATES:
        rows = []
        for rep in range(20):
            wseed = substream_seed(42, f"workload/rate={rate:g}/rep={rep}")
            rseed = substream_seed(42, f"run/rate={rate:g}/rep={rep}")
            workload = generate_workload(catalog, 20, rate, seed=wseed)
            result = engine.run(workload, "ebpsm", cloud, estimator, seed=rseed)
            _remember(f"sweep-{rate:g}-{rep}", workload, cloud, result)
            rows.append((result.report.fleet.utilization_pct,
                         result.report.fleet.total_vms))
        _sweep_cache[rate] = rows
    return _sweep_cache


def test_c06_utilization_trend():
    start = time.monotonic()
    sweep = run_sweep()
    means = [sum(u for u, _ in sweep[r]) / len(sweep[r]) for r in SWEEP_RATES]
    assert all(b >= a for a, b in zip(means, means[1:])), means
    xs = [r for r in SWEEP_RATES for _ in sweep[r]]
    ys = [u for r in SWEEP_RATES for u, _ in sweep[r]]
    rho, p = scipy.stats.spearmanr(xs, ys)
    assert rho > 0 and p < 0.05
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("C6", "mean utilization " + " <= ".join(f"{m:.1f}" for m in means)
            + f", spearman rho={rho:.2f} p={p:.1e} ({elapsed:.1f}s)")


def test_c07_vm_count_trend():
    sweep = run_sweep()
    means = [sum(v for _, v in sweep[r]) / len(sweep[r]) / 20.0 for r in SWEEP_RATES]
    assert all(b <= a for a, b in zip(means, means[1:])), means
    _report("C7", "mean VMs per workload " + " >= ".join(f"{m:.2f}" for m in means))


# -- criterion 8: determinism --------------------------------------------------

def test_c08_determinism(tmp_path):
    from waasim.experiment import ExperimentConfig, run_experiment
    config = ExperimentConfig(
        templates=[TemplateConfig("chr22", "genome", [0.1, 0.25, 0.45, 0.65],
                                  fan_out=4)],
        workflow_count=6,
        arrival_rates=[2.0],
        schedulers=["ebpsm"],
        repetitions=2,
        seed_base=17,
        write_traces=True,
    )
    run_experiment(config, output_dir=tmp_path / "a")
    run_experiment(config, output_dir=tmp_path / "b")
    files = sorted(p.relative_to(tmp_path / "a")
                   for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert any(str(f).endswith(".trace") for f in files)
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel
    _report("C8", f"two identical sweeps produced byte-identical outputs "
                  f"({len(files)} files)")


# -- criteria 5 and 9: trace audits --------------------------------------------

def test_c05_idle_termination_bound():
    assert AUDIT_POOL, "earlier criteria must have populated the audit pool"
    intervals = 0
    for label, _, cloud, trace in AUDIT_POOL:
        bound = cloud.idle_threshold_us + cloud.scan_interval_us
        idle_since = {}
        for ev in trace:
            vm = ev.fields.get("vm")
            if ev.name in ("vm_available", "vm_idle"):
                idle_since[vm] = ev.time_us
            elif ev.name == "task_start" and vm in idle_since:
                assert ev.time_us - idle_since.pop(vm) <= bound, label
                intervals += 1
            elif ev.name == "vm_terminated" and vm in idle_since:
                assert ev.time_us - idle_since.pop(vm) <= bound, label
                intervals += 1
    _report("C5", f"{intervals} idle intervals across {len(AUDIT_POOL)} traces, "
                  f"none exceeded threshold+scan")


def test_c09_dependency_safety_audit():
    assert AUDIT_POOL
    starts = 0
    for label, specs, _, trace in AUDIT_POOL:
        completed = {}
        dead = set()
        for ev in trace:
            if ev.name == "task_complete":
                completed[(ev.fields["workflow"], ev.fields["task"])] = ev.time_us
            elif ev.name == "vm_terminated":
                dead.add(ev.fields["vm"])
            elif ev.name == "task_start":
                starts += 1
                assert ev.fields["vm"] not in dead, label
                wf = ev.fields["workflow"]
                task = specs[wf].tasks[ev.fields["task"]]
                for parent in task.parents:
                    assert (wf, parent) in completed, label
                    assert completed[(wf, parent)] <= ev.time_us, label
    _report("C9", f"{starts} task starts across {len(AUDIT_POOL)} traces, "
                  f"dependency-safe, no terminated VM reused")


# -- criterion 10: golden traces ------------------------------------------------

def test_c10_golden_traces(oracle, mono_cloud):
    from waasim.workflow import _assemble, _TaskDoc

    def build(tasks, budget, arrival=0.0, wid="wf"):
        return _assemble(wid, tasks, budget, arrival)

    checked = []

    wf = build([_TaskDoc("solo", "solo", 100.0)], 0.01, wid="single")
    result = engine.run(WorkloadSpec([wf], 1.0, 0), "ebpsm", mono_cloud, oracle, seed=0)
    assert engine.checkpoint_trace(result.trace) == \
        (GOLDEN_DIR / "single_task.trace").read_text()
    checked.append("single_task")

    tasks = [
        _TaskDoc("a", "a", 10.0),
        _TaskDoc("b", "b", 5.0, ["a"]),
        _TaskDoc("c", "c", 20.0, ["a"]),
        _TaskDoc("d", "d", 1.0, ["b", "c"]),
    ]
    wf = build(tasks, 0.01, wid="diamond")
    result = engine.run(WorkloadSpec([wf], 1.0, 0), "ebpsm", mono_cloud, oracle, seed=0)
    assert engine.checkpoint_trace(result.trace) == \
        (GOLDEN_DIR / "diamond.trace").read_text()
    checked.append("diamond")

    wa = build([_TaskDoc("a1", "a1", 100.0)], 0.01, 0.0, wid="tenant_a")
    wb = build([_TaskDoc("b1", "b1", 50.0)], 0.01, 120.0, wid="tenant_b")
    shared_cloud = CloudConfig(catalog=(MICRO,), provisioning_delay=10.0,
                               deprovisioning_delay=5.0, idle_threshold=60.0,
                               scan_interval=10.0)
    result = engine.run(WorkloadSpec([wa, wb], 0.5, 0), "ebpsm",
                        shared_cloud, oracle, seed=0)
    assert engine.checkpoint_trace(result.trace) == \
        (GOLDEN_DIR / "shared_vm.trace").read_text()
    checked.append("shared_vm")
    _report("C10", f"golden traces match: {', '.join(checked)}")
