"""Per-workflow and fleet-level result records plus their CSV/JSON forms."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable

from .errors import ConfigError, IllegalState, SchemaError
from .schema import load
from .units import USEC_PER_SEC, format_dollars, format_seconds


@dataclass
class WorkflowMetrics:
    """One workflow's result: its makespan and cost against its budget, in
    seconds and dollars, and exactly in microseconds and nano-dollars."""

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
    """The fleet's result: VMs leased per type, busy and billed time, the
    share of billed time spent busy, and the total bill."""

    vm_counts: dict[str, int]
    total_vms: int
    busy_seconds: float
    billed_seconds: int
    utilization_pct: float
    total_cost_usd: float
    total_cost_nanos: int


@dataclass
class MetricsReport:
    """One run's report: per-workflow and fleet results, with the scheduler,
    the seed and the hash of the workload they came from."""

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


# The kinds of record a report reads. About three records in four are of
# other kinds, and one set lookup passes them over.
_REPORTED = frozenset(("task_start", "provision_request", "vm_terminated",
                       "workflow_arrival", "workflow_complete"))


class ReportFold:
    """Folds one run's records (engine `_FIELDS` gives their layout) into the
    figures of its report, chunk by chunk, in event order. It reads five
    kinds of record and skips the rest, so a stored list trace can be folded
    again to rebuild its run's report. The VM counts start at zero for each
    type of `catalog`, in catalog order."""

    def __init__(self, catalog):
        self.vm_counts = {t.name: 0 for t in catalog}
        # Per workflow id, (arrival_us, budget_nanos) and (makespan_us, cost_nanos).
        self.arrivals: dict[str, tuple[int, int]] = {}
        self.completions: dict[str, tuple[int, int]] = {}
        self.busy_us = 0
        self.billed_s = 0
        self.bill_nanos = 0

    def extend(self, records: Iterable[tuple]) -> None:
        counts, arrivals, completions = self.vm_counts, self.arrivals, self.completions
        busy_us, billed_s, bill_nanos = self.busy_us, self.billed_s, self.bill_nanos
        reported = _REPORTED
        # Most frequent first.
        for rec in records:
            event = rec[1]
            if event not in reported:
                continue
            if event == "task_start":
                busy_us += rec[6]
            elif event == "provision_request":
                counts[rec[5]] += 1
            elif event == "vm_terminated":
                billed_s += rec[3]
                bill_nanos += rec[4]
            elif event == "workflow_arrival":
                arrivals[rec[2]] = rec[0], rec[4]
            elif event == "workflow_complete":
                completions[rec[2]] = rec[3], rec[4]
        self.busy_us, self.billed_s, self.bill_nanos = busy_us, billed_s, bill_nanos

    def report(self, scheduler: str, seed: int, workload_hash: str) -> MetricsReport:
        """The report of the records folded so far. Raises IllegalState if a
        workflow among them has not completed."""
        # Exact integer totals can outgrow a float; reporting them in
        # dollars, seconds or ratios then raises OverflowError.
        too_large = "its cost or time is too large to report as a float"
        workflows = []
        try:
            for wf_id in sorted(self.arrivals):
                arrival_us, budget_nanos = self.arrivals[wf_id]
                if wf_id not in self.completions:
                    raise IllegalState(f"workflow {wf_id!r} has not completed")
                makespan_us, cost_nanos = self.completions[wf_id]
                if budget_nanos > 0:
                    ratio = cost_nanos / budget_nanos
                else:
                    ratio = 0.0 if cost_nanos == 0 else float("inf")
                workflows.append(WorkflowMetrics(
                    workflow_id=wf_id,
                    arrival_s=arrival_us / 1e6,
                    makespan_s=makespan_us / 1e6,
                    cost_usd=cost_nanos / 1e9,
                    budget_usd=budget_nanos / 1e9,
                    budget_met=cost_nanos <= budget_nanos,
                    cost_per_budget=ratio,
                    cost_nanos=cost_nanos,
                    makespan_us=makespan_us,
                ))
        except OverflowError:
            raise ConfigError(f"workflow {wf_id!r}: {too_large}") from None
        busy_us, billed_s, total_nanos = self.busy_us, self.billed_s, self.bill_nanos
        try:
            utilization = 100.0 * busy_us / (billed_s * 1e6) if billed_s else 0.0
            fleet = FleetMetrics(
                vm_counts=dict(self.vm_counts),
                total_vms=sum(self.vm_counts.values()),
                busy_seconds=busy_us / 1e6,
                billed_seconds=billed_s,
                utilization_pct=utilization,
                total_cost_usd=total_nanos / 1e9,
                total_cost_nanos=total_nanos,
            )
        except OverflowError:
            raise ConfigError(f"the fleet: {too_large}") from None
        return MetricsReport(scheduler, seed, workload_hash, workflows, fleet)


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
