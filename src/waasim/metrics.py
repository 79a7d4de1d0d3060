"""Per-workflow and fleet-level result records plus their CSV/JSON forms."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field

from .units import format_dollars, format_seconds


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
        return {
            "scheduler": self.scheduler,
            "seed": self.seed,
            "workload_hash": self.workload_hash,
            "workflows": [asdict(w) for w in self.workflows],
            "fleet": asdict(self.fleet) if self.fleet else None,
        }


def report_to_json(report: MetricsReport) -> str:
    """Strict JSON: the infinite `cost_per_budget` of a zero-budget workflow
    that cost anything is written as null."""
    doc = report.to_dict()
    for w in doc["workflows"]:
        if not math.isfinite(w["cost_per_budget"]):
            w["cost_per_budget"] = None
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def report_from_json(text: str) -> MetricsReport:
    doc = json.loads(text)
    fleet = FleetMetrics(**doc["fleet"]) if doc.get("fleet") else None
    workflows = [WorkflowMetrics(**w) for w in doc["workflows"]]
    for w in workflows:
        if w.cost_per_budget is None:
            w.cost_per_budget = float("inf")
    return MetricsReport(
        scheduler=doc["scheduler"],
        seed=doc["seed"],
        workload_hash=doc["workload_hash"],
        workflows=workflows,
        fleet=fleet,
    )


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


def assignments_to_csv(rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ASSIGNMENT_CSV_COLUMNS)
    for time_us, workflow, task, vm_id, vm_type, event in rows:
        writer.writerow([format_seconds(time_us), workflow, task, vm_id, vm_type, event])
    return buf.getvalue()
