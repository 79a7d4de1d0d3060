"""Workflow DAG model: validation, canonical JSON format, levels, templates
and seeded multi-workflow workload generation."""

from __future__ import annotations

import hashlib
import math
import random
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

from .errors import CycleError, DanglingRefError, SchemaError
from .schema import Field, Rule, load, valueclass

# Synthetic desk-scale reference runtimes (seconds on the speed-1.0 VM type).
# No published per-task runtimes exist for these applications; values are
# chosen so default-budget runs exercise the full VM-type range.
GENOME_RUNTIMES = {
    "individuals": 150.0,
    "sifting": 180.0,
    "individuals_merge": 3000.0,
    "mutations_overlap": 600.0,
    "frequency": 720.0,
}
VINA01_RUNTIMES = (1800.0, 300.0, 300.0, 240.0, 240.0, 180.0, 120.0)
VINA02_RUNTIMES = (1200.0, 240.0, 180.0, 180.0, 120.0, 120.0, 60.0)

# The ranges of runtimes and of the other times and budgets, which the
# documents' fields share with the fields they become.
_POSITIVE = {"rule": Rule(float, 0, strict=True)}
_NON_NEGATIVE = {"rule": Rule(float, 0)}
_SEED = {"rule": Rule(int)}


@valueclass(frozen=True, error=SchemaError)
class TaskRecord:
    """One workflow node. Records are immutable, so every workflow drawn
    from one template shares them; run progress lives in the engine."""

    id: str
    kind: str
    reference_runtime: float = Field(metadata=_POSITIVE)
    parents: tuple[str, ...] = ()
    children: tuple[str, ...] = ()
    level: int = Field(default=0, metadata={"rule": Rule(int, 0)})
    transfer_time: float = Field(default=0.0, metadata=_NON_NEGATIVE)

    # Reference runtime plus any explicit data-transfer overhead: an
    # attribute, not a field, so ==, hash and as_dict() do not see it.
    def __post_init__(self) -> None:
        object.__setattr__(self, "total_runtime", self.reference_runtime + self.transfer_time)


@valueclass(error=SchemaError)
class WorkflowSpec:
    """A validated DAG of tasks with a user budget and arrival time. `tasks`
    is in id order; each task's `parents` and `children` are sorted tuples."""

    id: str
    tasks: dict[str, TaskRecord]
    budget: float = Field(metadata=_NON_NEGATIVE)
    arrival_time: float = Field(default=0.0, metadata=_NON_NEGATIVE)

    def entry_ids(self) -> list[str]:
        return [t.id for t in self.tasks.values() if not t.parents]

    def exit_ids(self) -> list[str]:
        return [t.id for t in self.tasks.values() if not t.children]

    def copy(self) -> "WorkflowSpec":
        import copy  # only here: no run copies a workflow
        return copy.deepcopy(self)


@valueclass(error=SchemaError)
class WorkloadSpec:
    """An ordered stream of workflows plus the parameters that produced it."""

    workflows: list[WorkflowSpec]
    arrival_rate: float = Field(metadata=_POSITIVE)
    seed: int = Field(default=0, metadata=_SEED)


# The workflow and workload documents as JSON holds them: numbers may be ints.
@valueclass(error=SchemaError)
class _TaskDoc:
    """A task of a workflow document: the facts its record is built from."""

    id: str
    kind: str
    runtime: float = Field(metadata=_POSITIVE)
    parents: list[str] = Field(default_factory=list)
    transfer: float = Field(default=0.0, metadata=_NON_NEGATIVE)


@valueclass(error=SchemaError)
class _WorkflowDoc:
    """A workflow document."""

    id: str
    budget: float = Field(metadata=_NON_NEGATIVE)
    tasks: list[_TaskDoc]
    arrival_time: float = Field(default=0.0, metadata=_NON_NEGATIVE)


@valueclass(error=SchemaError)
class _WorkloadDoc:
    """A workload document."""

    arrival_rate: float = Field(metadata=_POSITIVE)
    workflows: list[_WorkflowDoc]
    seed: int = Field(default=0, metadata=_SEED)


def _assemble(workflow_id: str, tasks: list[_TaskDoc], budget: float,
              arrival_time: float) -> WorkflowSpec:
    """Build each task's record once, with its sorted parents and children
    and its level, after validating every invariant. Each task's fields,
    the budget and the arrival time keep their rules, which `TaskRecord`
    and `WorkflowSpec` check."""
    if not tasks:
        raise SchemaError(f"workflow {workflow_id!r}: tasks must be non-empty")

    by_id: dict[str, _TaskDoc] = {}
    for task in tasks:
        if task.id in by_id:
            raise SchemaError(f"workflow {workflow_id!r}: duplicate task id {task.id!r}")
        by_id[task.id] = task

    ordered = sorted(by_id.items())
    parents = {tid: tuple(sorted(set(t.parents))) for tid, t in ordered}
    children: dict[str, list[str]] = {tid: [] for tid, _ in ordered}
    for tid, _ in ordered:
        for parent in parents[tid]:
            if parent not in by_id:
                raise DanglingRefError(f"task {tid!r}: unknown parent {parent!r}")
            children[parent].append(tid)  # in id order, so already sorted

    levels = _levels(workflow_id, parents, children)
    return WorkflowSpec(
        id=workflow_id,
        tasks={tid: TaskRecord(tid, t.kind, float(t.runtime), parents[tid],
                               tuple(children[tid]), levels[tid], float(t.transfer))
               for tid, t in ordered},
        budget=budget,
        arrival_time=arrival_time,
    )


def _levels(workflow_id: str, parents: dict[str, tuple[str, ...]],
            children: dict[str, list[str]]) -> dict[str, int]:
    """Longest-path-from-entry level for each task (entry tasks are level 0)."""
    indegree = {tid: len(p) for tid, p in parents.items()}
    levels = {tid: 0 for tid, d in indegree.items() if d == 0}
    frontier = list(levels)
    seen = len(frontier)
    while frontier:
        nxt: list[str] = []
        for tid in frontier:
            for child in children[tid]:
                levels[child] = max(levels.get(child, 0), levels[tid] + 1)
                indegree[child] -= 1
                if indegree[child] == 0:
                    nxt.append(child)
                    seen += 1
        frontier = nxt
    if seen != len(parents):
        raise CycleError(f"workflow {workflow_id!r}: task graph contains a cycle")
    return levels


def _workflow_spec(doc: _WorkflowDoc) -> WorkflowSpec:
    return _assemble(doc.id, doc.tasks, float(doc.budget), float(doc.arrival_time))


def parse_workflow(text: str) -> WorkflowSpec:
    """Parse and fully validate a canonical workflow JSON document."""
    return _workflow_spec(load(text, _WorkflowDoc, "workflow", SchemaError))


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


def parse_workload(text: str) -> WorkloadSpec:
    doc = load(text, _WorkloadDoc, "workload", SchemaError)
    workflows = [_workflow_spec(w) for w in doc.workflows]
    seen: set[str] = set()
    for i, spec in enumerate(workflows):
        if spec.id in seen:
            raise SchemaError(f"workflows[{i}].id: duplicate workflow id {spec.id!r}")
        seen.add(spec.id)
    arrivals = [w.arrival_time for w in workflows]
    if any(b < a for a, b in zip(arrivals, arrivals[1:])):
        raise SchemaError("workload document: arrival_time must be non-decreasing")
    return WorkloadSpec(workflows=workflows, arrival_rate=float(doc.arrival_rate),
                        seed=doc.seed)


def workload_to_dict(workload: WorkloadSpec) -> dict:
    return {
        "arrival_rate": workload.arrival_rate,
        "seed": workload.seed,
        "workflows": [workflow_to_dict(w, with_arrival=True) for w in workload.workflows],
    }


def _json_scalar(value) -> str:
    """`value` as `json.dumps` writes it: a string, bool, int or float."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _indented(items: list[str], depth: int, brackets: str = "[]") -> str:
    """A JSON array (or, with brackets "{}", object) of encoded `items` as
    `json.dumps(..., indent=2)` writes it at nesting depth `depth`."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{'  ' * depth}{brackets[1]}"


def _task_text(task: TaskRecord) -> str:
    """The task's entry of `workload_to_dict`, encoded at its depth in a
    workload: inside the task list of a workflow."""
    fields = [f'"id": {_json_scalar(task.id)}',
              f'"kind": {_json_scalar(task.kind)}',
              f'"runtime": {_json_scalar(task.reference_runtime)}',
              f'"parents": {_indented([_json_scalar(p) for p in task.parents], 5)}']
    if task.transfer_time:
        fields.append(f'"transfer": {_json_scalar(task.transfer_time)}')
    return _indented(fields, 4, "{}")


def _workload_text(workload: WorkloadSpec) -> Iterator[str]:
    """The canonical text of `workload`, `json.dumps(workload_to_dict(workload),
    indent=2)` and a newline, in one chunk per workflow, so a consumer need
    not hold all of it. Each distinct task record is encoded once, as
    workflows drawn from one template share them."""
    entries: dict[int, str] = {}  # by id() of a record the workload holds
    yield (f'{{\n  "arrival_rate": {_json_scalar(workload.arrival_rate)},'
           f'\n  "seed": {_json_scalar(workload.seed)},\n  "workflows": ')
    opening = "[\n    "
    for spec in workload.workflows:
        tasks = []
        for task in spec.tasks.values():
            text = entries.get(id(task))
            if text is None:
                text = entries[id(task)] = _task_text(task)
            tasks.append(text)
        fields = [f'"id": {_json_scalar(spec.id)}',
                  f'"budget": {_json_scalar(spec.budget)}',
                  f'"arrival_time": {_json_scalar(spec.arrival_time)}',
                  f'"tasks": {_indented(tasks, 3)}']
        yield opening + _indented(fields, 2, "{}")
        opening = ",\n    "
    yield "\n  ]\n}\n" if workload.workflows else "[]\n}\n"


def serialize_workload(workload: WorkloadSpec) -> str:
    return "".join(_workload_text(workload))


def workload_hash(workload: WorkloadSpec) -> str:
    """sha256 of `serialize_workload(workload)`, computed without building it."""
    digest = hashlib.sha256()
    for chunk in _workload_text(workload):
        digest.update(chunk.encode())
    return digest.hexdigest()


def genome_template(chromosome: str, fan_out: int,
                    runtime_profile: dict[str, float] | None = None,
                    budget: float = 0.0) -> WorkflowSpec:
    """Mutation-analysis workflow shape: fan_out parallel data-extraction
    tasks plus one scoring task feed a merge, which feeds two exit tasks.
    A bad argument raises ValueError, whose message starts with its name."""
    if not 1 <= fan_out <= sys.maxsize:
        raise ValueError(f"fan_out: must be >= 1 and <= {sys.maxsize}")
    for kind, runtime in (runtime_profile or {}).items():
        if kind not in GENOME_RUNTIMES:
            raise ValueError(f"runtime_profile: unknown task kind {kind!r}")
        if not (math.isfinite(runtime) and runtime > 0):
            raise ValueError(f"runtime_profile.{kind}: must be finite and > 0")
    profile = {kind: float(runtime)
               for kind, runtime in {**GENOME_RUNTIMES, **(runtime_profile or {})}.items()}
    # One runtime per extraction task, allocated at once: a fan_out too
    # large to hold fails here with MemoryError, before any task is built.
    runtimes = (profile["individuals"],) * fan_out
    width = max(2, len(str(fan_out)))
    tasks = [_TaskDoc(f"individuals_{i:0{width}d}", "individuals", runtime)
             for i, runtime in enumerate(runtimes, 1)]
    ind_ids = [t.id for t in tasks]
    tasks.append(_TaskDoc("sifting", "sifting", profile["sifting"]))
    tasks.append(_TaskDoc("individuals_merge", "individuals_merge",
                          profile["individuals_merge"], ind_ids))
    join = ["individuals_merge", "sifting"]
    tasks.append(_TaskDoc("mutations_overlap", "mutations_overlap",
                          profile["mutations_overlap"], join))
    tasks.append(_TaskDoc("frequency", "frequency", profile["frequency"], join))
    return _assemble(chromosome, tasks, budget, 0.0)


def vina_template(ligand_count: int,
                  runtimes: tuple[float, ...] | list[float] | None = None,
                  kind_prefix: str = "docking",
                  workflow_id: str = "vina",
                  budget: float = 0.0) -> WorkflowSpec:
    """Molecular-docking workflow shape: an edge-free bag of independent tasks.
    A bad argument raises ValueError, whose message starts with its name."""
    if not 1 <= ligand_count <= sys.maxsize:
        raise ValueError(f"ligand_count: must be >= 1 and <= {sys.maxsize}")
    if runtimes is None:
        runtimes = (300.0,) * ligand_count
    if len(runtimes) != ligand_count:
        raise ValueError(f"runtimes: must have one entry per ligand ({ligand_count})")
    for i, runtime in enumerate(runtimes):
        if not (math.isfinite(runtime) and runtime > 0):
            raise ValueError(f"runtimes[{i}]: must be finite and > 0")
    width = max(2, len(str(ligand_count)))
    tasks = [_TaskDoc(f"ligand_{i:0{width}d}", f"{kind_prefix}_{i:0{width}d}",
                      float(runtimes[i - 1]))
             for i in range(1, ligand_count + 1)]
    return _assemble(workflow_id, tasks, budget, 0.0)


def generate_workload(catalog: list[tuple[WorkflowSpec, float]], count: int,
                      rate_wf_per_min: float, seed: int) -> WorkloadSpec:
    """Draw `count` workflows uniformly from the catalog with exponential
    inter-arrival gaps of mean 60/rate seconds. Workflows drawn from one
    template share its task records.

    One seeded RNG stream is used with a fixed draw order per workflow:
    first the catalog index, then the inter-arrival gap. A count too large
    to hold raises MemoryError at once.
    """
    if not catalog:
        raise ValueError("catalog must be non-empty")
    if not 1 <= count <= sys.maxsize:
        raise ValueError(f"count must be >= 1 and <= {sys.maxsize}")
    if not 0 < rate_wf_per_min < math.inf:
        raise ValueError("rate must be finite and > 0")
    for i, (_, budget) in enumerate(catalog):
        if not (math.isfinite(budget) and budget >= 0):
            raise ValueError(f"catalog[{i}]: budget must be finite and >= 0")
    # Allocated at once: a count too large to hold fails here with
    # MemoryError, before any workflow is drawn.
    workflows: list = [None] * count
    rng = random.Random(seed)
    rate_per_sec = rate_wf_per_min / 60.0
    clock = 0.0
    width = max(3, len(str(count)))
    for i in range(count):
        template, budget = catalog[rng.randrange(len(catalog))]
        clock += rng.expovariate(rate_per_sec)
        wf_id = f"wf{i:0{width}d}-{template.id}"
        if not math.isfinite(clock):
            raise ValueError(f"workflow {wf_id!r}: arrival time {clock:g} s cannot be counted "
                             f"in integer microseconds; rate {rate_wf_per_min:g} is too small")
        workflows[i] = WorkflowSpec(wf_id, template.tasks, budget, clock)
    return WorkloadSpec(workflows=workflows, arrival_rate=rate_wf_per_min, seed=seed)
