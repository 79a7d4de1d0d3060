"""Shared builders for the test suite."""

from __future__ import annotations

import random

import pytest

from waasim.cloud import CloudConfig, VmType
from waasim.estimator import EstimatorConfig
from waasim.metrics import RECORD_FIELDS, checkpoint_trace
from waasim.workflow import WorkflowSpec, WorkloadSpec, _assemble, _TaskDoc


def build_workflow(task_rows, budget=1.0, arrival=0.0, wid="wf") -> WorkflowSpec:
    """task_rows: (id, kind, runtime, parent ids)."""
    tasks = [_TaskDoc(tid, kind, runtime, list(parents))
             for tid, kind, runtime, parents in task_rows]
    return _assemble(wid, tasks, budget, arrival)


def chain_workflow(runtimes, budget=1.0, wid="chain") -> WorkflowSpec:
    rows = []
    prev = None
    for i, runtime in enumerate(runtimes):
        tid = f"t{i}"
        rows.append((tid, tid, runtime, [prev] if prev else []))
        prev = tid
    return build_workflow(rows, budget=budget, wid=wid)


def diamond_workflow(budget=1.0, wid="diamond") -> WorkflowSpec:
    return build_workflow([
        ("a", "a", 10.0, []),
        ("b", "b", 5.0, ["a"]),
        ("c", "c", 20.0, ["a"]),
        ("d", "d", 1.0, ["b", "c"]),
    ], budget=budget, wid=wid)


def random_dag(rng: random.Random, max_tasks: int = 12, wid="rand") -> WorkflowSpec:
    """Random DAG with edges only from lower to higher indices."""
    n = rng.randint(1, max_tasks)
    rows = []
    for i in range(n):
        parents = [f"t{j}" for j in range(i) if rng.random() < 0.35]
        rows.append((f"t{i}", f"k{rng.randint(0, 3)}", rng.randint(1, 300) * 1.0, parents))
    return build_workflow(rows, budget=rng.random(), wid=wid)


def single_workload(spec: WorkflowSpec, arrival=0.0) -> WorkloadSpec:
    wf = spec.copy()
    wf.arrival_time = arrival
    return WorkloadSpec(workflows=[wf], arrival_rate=1.0, seed=0)



# The reference dicts of the canonical texts: `json.dumps(..., indent=2)`
# of these is what `serialize_workload` must write.
def workflow_to_dict(spec: WorkflowSpec, with_arrival: bool = False) -> dict:
    doc: dict = {"id": spec.id, "budget": spec.budget}
    if with_arrival:
        doc["arrival_time"] = spec.arrival_time
    doc["tasks"] = []
    for tid in sorted(spec.tasks):
        task = spec.tasks[tid]
        entry: dict = {
            "id": task.id,
            "kind": task.kind,
            "runtime": task.reference_runtime,
            "parents": sorted(task.parents),
        }
        if task.transfer_time:
            entry["transfer"] = task.transfer_time
        doc["tasks"].append(entry)
    return doc


def workload_to_dict(workload: WorkloadSpec) -> dict:
    return {
        "arrival_rate": workload.arrival_rate,
        "seed": workload.seed,
        "workflows": [workflow_to_dict(w, with_arrival=True) for w in workload.workflows],
    }

class TraceEvent:
    """A view of one record, built on demand."""

    __slots__ = ("record",)

    def __init__(self, record: tuple):
        self.record = record

    @property
    def time_us(self) -> int:
        return self.record[0]

    @property
    def name(self) -> str:
        return self.record[1]

    @property
    def fields(self) -> dict:
        """The trace line's values by key."""
        return {key: value for key, value in zip(RECORD_FIELDS[self.record[1]],
                                                 self.record[2:])
                if key is not None}

    def render(self) -> str:
        return render(self.record)


def render(rec: tuple) -> str:
    """The trace line of one record, without its newline."""
    return checkpoint_trace([rec])[:-1]


def events(trace) -> list[TraceEvent]:
    """A view of each record of an in-memory trace, in order."""
    return [TraceEvent(rec) for rec in trace]


class DeadPolicy:
    """A policy that never dispatches, so the event queue drains with work
    left and the run stalls."""
    name = "dead"
    dedicated = False

    def on_arrival(self, run):
        pass

    def enqueue_ready(self, run, task):
        pass

    def schedule_ready(self, fleet):
        return []


MICRO = VmType("t2.micro", 1, 1024, 0.0000041, 1.0)
LARGE = VmType("t2.large", 2, 8192, 0.0000382, 2.0)


@pytest.fixture
def mono_cloud() -> CloudConfig:
    return CloudConfig(catalog=(MICRO,), provisioning_delay=0.0,
                       deprovisioning_delay=0.0, idle_threshold=60.0,
                       scan_interval=10.0)


@pytest.fixture
def oracle() -> EstimatorConfig:
    return EstimatorConfig(mode="oracle")
