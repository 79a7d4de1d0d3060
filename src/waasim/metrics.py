"""Per-workflow and fleet-level result records plus their CSV/JSON forms."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, get_type_hints

from .errors import SchemaError
from .units import USEC_PER_SEC, format_dollars, format_seconds


@dataclass
class WorkflowMetrics:
    workflow_id: str
    arrival_s: float
    makespan_s: float
    cost_usd: float
    budget_usd: float
    budget_met: bool
    cost_per_budget: float
    cost_nanos: int = 0
    makespan_us: int = 0


@dataclass
class FleetMetrics:
    vm_counts: dict[str, int]
    total_vms: int
    busy_seconds: float
    billed_seconds: int
    utilization_pct: float
    total_cost_usd: float
    total_cost_nanos: int = 0


@dataclass
class MetricsReport:
    scheduler: str
    seed: int
    workload_hash: str
    workflows: list[WorkflowMetrics] = field(default_factory=list)
    fleet: FleetMetrics | None = None

    def budget_met_pct(self) -> float:
        if not self.workflows:
            return 100.0
        met = sum(1 for w in self.workflows if w.budget_met)
        return 100.0 * met / len(self.workflows)

    def violation_ratios(self) -> list[float]:
        return [w.cost_per_budget for w in self.workflows if not w.budget_met]

    def to_dict(self) -> dict:
        """The report as new JSON-ready dicts with the keys in field order:
        what `dataclasses.asdict` gives, without its recursive deep copy."""
        fleet = self.fleet
        return {
            "scheduler": self.scheduler,
            "seed": self.seed,
            "workload_hash": self.workload_hash,
            "workflows": [vars(w).copy() for w in self.workflows],
            "fleet": None if fleet is None else {**vars(fleet),
                                                 "vm_counts": dict(fleet.vm_counts)},
        }


def report_to_json(report: MetricsReport) -> str:
    """Strict JSON: the infinite `cost_per_budget` of a zero-budget workflow
    that cost anything is written as null."""
    doc = report.to_dict()
    for w in doc["workflows"]:
        if not math.isfinite(w["cost_per_budget"]):
            w["cost_per_budget"] = None
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


# JSON types of the scalar report fields.
_SCALARS = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


def _record(cls, doc, path: str):
    """`cls(**doc)`, for a JSON object holding exactly the fields of `cls`
    (report_to_json writes them all), each scalar of its annotated type."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: must be a JSON object")
    hints = get_type_hints(cls)
    for key, value in doc.items():
        if key not in hints:
            raise SchemaError(f"{path}: unknown field {key!r}")
        if hints[key] in _SCALARS and type(value) not in _SCALARS[hints[key]]:
            raise SchemaError(f"{path}.{key}: expected {hints[key].__name__}")
    if missing := [key for key in hints if key not in doc]:
        raise SchemaError(f"{path}.{missing[0]}: missing field")
    return cls(**doc)


def report_from_json(text: str) -> MetricsReport:
    """Read a report written by report_to_json, where a null `cost_per_budget`
    is infinity. A malformed report raises SchemaError naming the field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    report = _record(MetricsReport, doc, "report")
    if not isinstance(report.workflows, list):
        raise SchemaError("report.workflows: must be a JSON list")
    workflows = []
    for i, w in enumerate(report.workflows):
        if isinstance(w, dict) and w.get("cost_per_budget", 0.0) is None:
            w = {**w, "cost_per_budget": math.inf}
        workflows.append(_record(WorkflowMetrics, w, f"report.workflows[{i}]"))
    report.workflows = workflows
    report.fleet = _record(FleetMetrics, report.fleet, "report.fleet")
    return report


WORKFLOW_CSV_COLUMNS = (
    "workflow_id", "arrival_s", "makespan_s", "cost_usd", "budget_usd",
    "budget_met", "cost_per_budget",
)


def workflows_to_csv(report: MetricsReport) -> str:
    """Per-workflow rows with money at nine decimal places."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(WORKFLOW_CSV_COLUMNS)
    for w in report.workflows:
        writer.writerow([
            w.workflow_id,
            f"{w.arrival_s:.6f}",
            format_seconds(w.makespan_us),
            format_dollars(w.cost_nanos),
            f"{w.budget_usd:.9f}",
            int(w.budget_met),
            f"{w.cost_per_budget:.6f}",
        ])
    return buf.getvalue()


ASSIGNMENT_CSV_COLUMNS = ("time", "workflow", "task", "vm_id", "vm_type", "event")


def write_assignments(writer, rows: Iterable[tuple]) -> None:
    """Write assignment-log rows through a `csv.writer`, each with its time
    (never negative) in seconds, as `format_seconds` gives it."""
    writer.writerows((f"{row[0] // USEC_PER_SEC}.{row[0] % USEC_PER_SEC:06d}", *row[1:])
                     for row in rows)


def assignments_to_csv(rows: Iterable[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ASSIGNMENT_CSV_COLUMNS)
    write_assignments(writer, rows)
    return buf.getvalue()
