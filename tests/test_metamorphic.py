"""Metamorphic relations of the whole engine: how the outputs of two runs
must relate when their inputs are related, with no oracle for either run."""

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MICRO, build_workflow, random_dag
from waasim import engine
from waasim.cloud import CloudConfig, VariabilityConfig, default_catalog
from waasim.estimator import EstimatorConfig
from waasim.scheduler import SCHEDULER_NAMES
from waasim.units import usec
from waasim.workflow import WorkloadSpec


def shifted(rec: tuple, delta_us: int) -> tuple:
    """`rec` with its time, and a provision's `available_at_us`, moved by
    `delta_us`."""
    if rec[1] == "provision_request":
        return (rec[0] + delta_us, *rec[1:6], rec[6] + delta_us)
    return (rec[0] + delta_us, *rec[1:])


def without_arrivals(report) -> dict:
    """The report's values that do not depend on when workflows arrive."""
    doc = report.to_dict()
    del doc["workload_hash"]
    for wf in doc["workflows"]:
        del wf["arrival_s"]
    return doc


# Arrival gaps are multiples of 1/8 s and the scan intervals are exact in
# binary, so that usec(a + delta) == usec(a) + usec(delta) for every arrival.
@settings(max_examples=40, deadline=None)
@given(scheduler=st.sampled_from(SCHEDULER_NAMES),
       mode=st.sampled_from(["oracle", "history"]),
       variability=st.sampled_from(["none", "lognormal"]),
       dag_seed=st.integers(0, 2**32),
       gaps=st.lists(st.integers(0, 800), min_size=1, max_size=8),
       budget=st.sampled_from([0.0, 0.002, 0.01, 1.0]),
       provisioning_delay=st.sampled_from([0.0, 7.0, 90.0]),
       deprovisioning_delay=st.sampled_from([0.0, 3.0, 10.0]),
       idle_threshold=st.sampled_from([1.0, 7.0, 60.0]),
       scan_interval=st.sampled_from([2.5, 10.0]),
       intervals=st.integers(1, 10_000),
       run_seed=st.integers(0, 1000))
def test_shifting_arrivals_by_whole_scan_intervals_shifts_every_time(
        scheduler, mode, variability, dag_seed, gaps, budget, provisioning_delay,
        deprovisioning_delay, idle_threshold, scan_interval, intervals, run_seed):
    """Idle scans run on multiples of the scan interval. So when every
    arrival moves by a whole number of intervals, every record's time and
    every `available_at_us` move by as much, and every other value of the
    trace and the report stays as it was; each VM the scan terminates or
    releases goes at a multiple of the interval."""
    rng = random.Random(dag_seed)
    templates = [random_dag(rng, max_tasks=6, wid=f"d{i}") for i in range(2)]
    catalog = (MICRO,) if scheduler in ("fcfs", "ebpsm-homogeneous") else default_catalog()
    cloud = CloudConfig(catalog=catalog, provisioning_delay=provisioning_delay,
                        deprovisioning_delay=deprovisioning_delay,
                        idle_threshold=idle_threshold, scan_interval=scan_interval,
                        variability=VariabilityConfig(
                            variability, 0.3 if variability == "lognormal" else 0.0))
    estimator = EstimatorConfig(mode, 3)
    delta = intervals * scan_interval

    def simulate(offset):
        workflows, clock = [], offset
        for i, gap in enumerate(gaps):
            clock += gap / 8
            spec = templates[i % len(templates)]
            workflows.append(replace(spec, id=f"wf{i}-{spec.id}", budget=budget,
                                     arrival_time=clock))
        return engine.run(WorkloadSpec(workflows, arrival_rate=1.0), scheduler, cloud,
                          estimator, seed=run_seed)

    base, moved = simulate(0.0), simulate(delta)
    delta_us = usec(delta)
    assert delta_us == intervals * cloud.scan_interval_us
    assert moved.trace == [shifted(rec, delta_us) for rec in base.trace]
    assert without_arrivals(moved.report) == without_arrivals(base.report)
    if scheduler != "fcfs":  # fcfs terminates each VM as its task completes
        assert all(rec[0] % cloud.scan_interval_us == 0 for rec in base.trace
                   if rec[1] in ("vm_terminated", "vm_released"))


def relabelled(rec: tuple, workflow_ids: dict, task_ids: dict) -> tuple:
    """`rec` with its workflow id and task id mapped; `task_ids` maps each
    workflow id to its task map."""
    out = list(rec)
    for at, key in enumerate(engine._FIELDS[rec[1]], start=2):
        if key == "workflow":
            out[at] = workflow_ids[rec[at]]
        elif key == "task":
            out[at] = task_ids[rec[2]][rec[at]]
    return tuple(out)


def order_preserving(data, old_ids) -> dict:
    """A drawn map of `old_ids` to new ids in the same string order."""
    old = sorted(old_ids)
    new = data.draw(st.lists(st.text("-0189_aAz", min_size=1, max_size=4), unique=True,
                             min_size=len(old), max_size=len(old)))
    return dict(zip(old, sorted(new)))


def dag(rng: random.Random) -> list[tuple]:
    """Rows (id, kind, runtime, parents) of a small DAG whose runtimes are
    often equal, so that ties in estimated finish time are common."""
    rows = []
    for i in range(rng.randint(1, 6)):
        parents = [f"t{j}" for j in range(i) if rng.random() < 0.35]
        rows.append((f"t{i}", f"k{rng.randint(0, 3)}", rng.choice([60.0, 120.0]), parents))
    return rows


@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       scheduler=st.sampled_from(SCHEDULER_NAMES),
       mode=st.sampled_from(["oracle", "history"]),
       variability=st.sampled_from(["none", "lognormal"]),
       dag_seed=st.integers(0, 2**32),
       gaps=st.lists(st.one_of(st.just(0), st.integers(0, 800)), min_size=1, max_size=8),
       budgets=st.lists(st.sampled_from([0.0, 0.002, 0.01, 1.0]), min_size=1, max_size=3),
       run_seed=st.integers(0, 1000))
def test_relabelling_ids_in_order_and_kinds_at_will_relabels_the_trace(
        data, scheduler, mode, variability, dag_seed, gaps, budgets, run_seed):
    """Ids break ties and kinds never do. So mapping workflow and task ids
    through order-preserving maps, and task kinds through any bijection,
    maps the trace record by record and leaves the report as it was, apart
    from its workflow ids and its workload hash. VM ids are the engine's
    and stay as they are."""
    rng = random.Random(dag_seed)
    templates = [dag(rng) for _ in range(2)]
    kinds = sorted({kind for rows in templates for _, kind, _, _ in rows})
    new_kinds = data.draw(st.permutations(
        data.draw(st.lists(st.text("kxy", min_size=1, max_size=3), unique=True,
                           min_size=len(kinds), max_size=len(kinds)))))
    kind_map = dict(zip(kinds, new_kinds))
    task_maps = [order_preserving(data, [tid for tid, _, _, _ in rows]) for rows in templates]
    relabelled_templates = [
        [(tasks[tid], kind_map[kind], runtime, [tasks[p] for p in parents])
         for tid, kind, runtime, parents in rows]
        for rows, tasks in zip(templates, task_maps)]
    workflow_ids = [f"wf{i}" for i in range(len(gaps))]
    workflow_map = order_preserving(data, workflow_ids)
    catalog = (MICRO,) if scheduler in ("fcfs", "ebpsm-homogeneous") else default_catalog()
    cloud = CloudConfig(catalog=catalog, variability=VariabilityConfig(
        variability, 0.3 if variability == "lognormal" else 0.0))
    estimator = EstimatorConfig(mode, 3)

    def simulate(rows_by_template, ids):
        specs = [build_workflow(rows, wid=f"d{i}") for i, rows in enumerate(rows_by_template)]
        workflows, clock = [], 0.0
        for i, (gap, wid) in enumerate(zip(gaps, ids)):
            clock += gap / 8
            workflows.append(replace(specs[i % len(specs)], id=wid,
                                     budget=budgets[i % len(budgets)], arrival_time=clock))
        return engine.run(WorkloadSpec(workflows, arrival_rate=1.0), scheduler, cloud,
                          estimator, seed=run_seed)

    base = simulate(templates, workflow_ids)
    moved = simulate(relabelled_templates, [workflow_map[wid] for wid in workflow_ids])
    task_ids = {wid: task_maps[i % len(task_maps)] for i, wid in enumerate(workflow_ids)}
    assert moved.trace == [relabelled(rec, workflow_map, task_ids) for rec in base.trace]
    expected = base.report.to_dict()
    for wf in expected["workflows"]:
        wf["workflow_id"] = workflow_map[wf["workflow_id"]]
    actual = moved.report.to_dict()
    del expected["workload_hash"], actual["workload_hash"]
    assert actual == expected


# Arrivals and the cut are multiples of 1/8 s, so each is exact in µs.
@settings(max_examples=40, deadline=None)
@given(scheduler=st.sampled_from(SCHEDULER_NAMES),
       mode=st.sampled_from(["oracle", "history"]),
       variability=st.sampled_from(["none", "lognormal"]),
       dag_seed=st.integers(0, 2**32),
       gaps=st.lists(st.integers(0, 800), min_size=1, max_size=6),
       later_gaps=st.lists(st.integers(0, 800), min_size=1, max_size=4),
       cut=st.integers(0, 8000),
       later_prefix=st.sampled_from(["0", "z"]),
       budget=st.sampled_from([0.0, 0.002, 0.01, 1.0]),
       provisioning_delay=st.sampled_from([0.0, 7.0, 90.0]),
       idle_threshold=st.sampled_from([1.0, 7.0, 60.0]),
       scan_interval=st.sampled_from([2.5, 10.0]),
       run_seed=st.integers(0, 1000))
def test_appending_later_arrivals_keeps_every_earlier_record(
        scheduler, mode, variability, dag_seed, gaps, later_gaps, cut, later_prefix, budget,
        provisioning_delay, idle_threshold, scan_interval, run_seed):
    """What happens before time T cannot depend on workflows that arrive at
    or after T. So appending such workflows to a workload keeps every
    record before T as it was, apart from the shorter run's
    `simulation_end`. This pins the skipped scan ticks, which read the next
    pending event, plan sharing and both estimators' histories. The
    appended ids sort before or after the others, so no tie-break may
    reach a workflow that has not arrived."""
    rng = random.Random(dag_seed)
    templates = [random_dag(rng, max_tasks=6, wid=f"d{i}") for i in range(2)]
    catalog = (MICRO,) if scheduler in ("fcfs", "ebpsm-homogeneous") else default_catalog()
    cloud = CloudConfig(catalog=catalog, provisioning_delay=provisioning_delay,
                        idle_threshold=idle_threshold, scan_interval=scan_interval,
                        variability=VariabilityConfig(
                            variability, 0.3 if variability == "lognormal" else 0.0))
    estimator = EstimatorConfig(mode, 3)

    def workflows(prefix, start, steps):
        specs, clock = [], start
        for i, gap in enumerate(steps):
            clock += gap / 8
            spec = templates[i % len(templates)]
            specs.append(replace(spec, id=f"{prefix}{i}", budget=budget, arrival_time=clock))
        return specs

    def simulate(specs):
        return engine.run(WorkloadSpec(specs, arrival_rate=1.0), scheduler, cloud, estimator,
                          seed=run_seed)

    base_workflows = workflows("m", 0.0, gaps)
    base = simulate(base_workflows)
    grown = simulate(base_workflows + workflows(later_prefix, cut / 8, later_gaps))
    cut_us = usec(cut / 8)
    assert [rec for rec in grown.trace if rec[0] < cut_us] == \
        [rec for rec in base.trace if rec[0] < cut_us and rec[1] != "simulation_end"]
