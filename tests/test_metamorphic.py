"""Metamorphic relations of the whole engine: how the outputs of two runs
must relate when their inputs are related, with no oracle for either run."""

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MICRO, random_dag
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
