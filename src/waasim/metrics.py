"""Per-workflow and fleet-level result records plus their CSV/JSON forms."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable

from .errors import SchemaError
from .schema import load
from .units import USEC_PER_SEC, format_dollars, format_seconds


@dataclass
class WorkflowMetrics:
    workflow_id: str
    arrival_s: float
    makespan_s: float
    cost_usd: float
    budget_usd: float
    budget_met: bool
    # report_to_json writes an infinite ratio as null.
    cost_per_budget: float = field(metadata={"if_null": math.inf})
    cost_nanos: int
    makespan_us: int


@dataclass
class FleetMetrics:
    vm_counts: dict[str, int]
    total_vms: int
    busy_seconds: float
    billed_seconds: int
    utilization_pct: float
    total_cost_usd: float
    total_cost_nanos: int


@dataclass
class MetricsReport:
    scheduler: str
    seed: int
    workload_hash: str
    workflows: list[WorkflowMetrics]
    fleet: FleetMetrics

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
        return {
            "scheduler": self.scheduler,
            "seed": self.seed,
            "workload_hash": self.workload_hash,
            "workflows": [vars(w).copy() for w in self.workflows],
            "fleet": {**vars(self.fleet), "vm_counts": dict(self.fleet.vm_counts)},
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
    """Read a report written by report_to_json. A malformed report raises
    SchemaError naming the field."""
    return load(text, MetricsReport, "report", SchemaError)


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
ASSIGNMENT_CSV_HEADER = ",".join(ASSIGNMENT_CSV_COLUMNS) + "\n"
# A row's time (never negative) in seconds, as `format_seconds` gives it,
# then its five values as CSV fields.
_ASSIGNMENT_ROW = "%d.%06d,%s,%s,%s,%s,%s\n"
# Rows `assignments_to_csv` renders at a time: its memory stays bounded.
_CSV_CHUNK = 512


class AssignmentCsv(dict):
    """Renders assignment-log rows as the text a `csv.writer` with "\n" line
    ends writes for them. As a dict it maps each string met so far to its
    CSV field, so each distinct id is quoted once."""

    def __missing__(self, value) -> str:
        field = value
        if type(value) is not str or any(c in value for c in ',"\r\n'):
            # csv's own field: quoted only where its QUOTE_MINIMAL must.
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow((value, ""))
            field = buf.getvalue()[:-2]
        if type(value) is str:
            # Only strings are kept: 1, 1.0 and True are one key but three fields.
            self[value] = field
        return field

    def render(self, rows: Iterable[tuple]) -> str:
        """The lines of `rows`, each ending in a newline."""
        row, fields = _ASSIGNMENT_ROW, self
        return "".join([row % (time_us // USEC_PER_SEC, time_us % USEC_PER_SEC, fields[wf],
                               fields[task], fields[vm], fields[vm_type], fields[event])
                        for time_us, wf, task, vm, vm_type, event in rows])


def assignments_to_csv(rows: Iterable[tuple]) -> str:
    """The assignment log of `rows`: its header, then one line per row."""
    buf = io.StringIO()
    buf.write(ASSIGNMENT_CSV_HEADER)
    log, rows = AssignmentCsv(), iter(rows)
    while text := log.render(islice(rows, _CSV_CHUNK)):
        buf.write(text)
    return buf.getvalue()
