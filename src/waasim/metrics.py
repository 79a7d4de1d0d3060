"""The layout of the engine's event records and every reader of them: the
trace renderer, the report fold with its per-workflow and fleet-level result
records and their CSV/JSON forms, and the assignment log."""

from __future__ import annotations

import csv
import io
import math
from itertools import islice
from typing import Iterable

from .errors import ConfigError, IllegalState, SchemaError
from .schema import Field, as_dict, load, valueclass, writer
from .units import NANOS_PER_DOLLAR, USEC_PER_SEC, format_dollars, format_seconds


# Each event is one record: the tuple (time_us, event, v1, v2, ...), whose
# values follow the event's keys here. A None key is a value the trace line
# leaves out: `task_complete` carries its VM's type only so that every
# record of the assignment log has its VM type at index 5.
RECORD_FIELDS = {
    "workflow_arrival": ("workflow", "tasks", "budget_nanos"),
    "task_ready": ("workflow", "task"),
    "provision_request": ("workflow", "task", "vm", "type", "available_at_us"),
    "vm_available": ("vm", "type"),
    "task_assign": ("workflow", "task", "vm", "type"),
    "task_start": ("workflow", "task", "vm", "type", "runtime_us"),
    "task_complete": ("workflow", "task", "vm", None, "cost_nanos"),
    "vm_idle": ("vm",),
    "vm_terminated": ("vm", "billed_s", "bill_nanos"),
    "vm_released": ("vm",),
    "workflow_complete": ("workflow", "makespan_us", "cost_nanos"),
    "simulation_end": ("workflows", "vms"),
}

# Per event, the %-template of its trace line, applied to the record itself:
# its first two `%s` take the time and the event, and a None key's `%.0s`
# takes that value and prints nothing.
_TEMPLATES = {
    name: "%s\t%s\t" + "".join(f" {key}=%s" if key else "%.0s" for key in keys).lstrip(" ")
    for name, keys in RECORD_FIELDS.items()
}

# Records `checkpoint_trace` renders into one text before it joins the texts:
# a list of every line of a long trace would hold its text about three times.
_RENDER_CHUNK = 2048


def checkpoint_trace(records: list[tuple]) -> str:
    """The trace lines of one or more records, each ending in a newline: the
    stable text of a trace, as the golden traces hold it. Ids are arbitrary
    strings, so a line is stripped of the whitespace its last value may end
    in."""
    templates = _TEMPLATES
    return "".join(["\n".join([(templates[rec[1]] % rec).rstrip()
                               for rec in records[i:i + _RENDER_CHUNK]]) + "\n"
                    for i in range(0, len(records), _RENDER_CHUNK)])


@valueclass
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
    cost_per_budget: float = Field(metadata={"if_null": math.inf})
    cost_nanos: int
    makespan_us: int


@valueclass
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


@valueclass
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
        """`schema.as_dict(self)`: the report as new dicts, keys in field order."""
        return as_dict(self)


# The kinds of record a report reads. About three records in four are of
# other kinds, and one set lookup passes them over.
_REPORTED = frozenset(("task_start", "provision_request", "vm_terminated",
                       "workflow_arrival", "workflow_complete"))


class ReportFold:
    """Folds one run's records (`RECORD_FIELDS` gives their layout) into the
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
            if not math.isfinite(utilization):  # `100.0 * busy_us` overflows to inf
                raise OverflowError
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
    """`json.dumps(report.to_dict(), indent=2, allow_nan=False)` and a
    newline, as `schema.writer` writes it: the infinite `cost_per_budget` of
    a zero-budget workflow that cost anything is null (its `if_null`), and
    any other NaN or infinity raises ValueError."""
    return writer(MetricsReport, 0)(report) + "\n"


def report_from_json(text: str) -> MetricsReport:
    """Read a report written by report_to_json. A malformed report raises
    SchemaError naming the field."""
    return load(text, MetricsReport, "report", SchemaError)


def _unquoted(text: str, rows: int, commas: int) -> bool:
    """Whether `text`, `rows` rows of a template that joins its values with
    `commas` commas, each value as `%s` gives it, is what a `csv.writer`
    with "\n" line ends writes for them. It is exactly when no value holds a
    comma, a newline, a quote or a carriage return, so that none needs
    quoting, and none is None, whose field is empty."""
    return (text.count(",") == commas * rows and text.count("\n") == rows
            and '"' not in text and "\r" not in text and "None" not in text)


def _csv_text(rows: Iterable) -> str:
    """`rows` as a `csv.writer` with "\n" line ends writes them."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


WORKFLOW_CSV_COLUMNS = (
    "workflow_id", "arrival_s", "makespan_s", "cost_usd", "budget_usd",
    "budget_met", "cost_per_budget",
)
_WORKFLOW_CSV_HEADER = ",".join(WORKFLOW_CSV_COLUMNS) + "\n"
# A per-workflow row, its exact makespan and cost (if not negative) as
# `format_seconds` and `format_dollars` give them.
_WORKFLOW_ROW = "%s,%.6f,%d.%06d,%d.%09d,%.9f,%d,%.6f\n"


def workflows_to_csv(report: MetricsReport) -> str:
    """Per-workflow rows with money at nine decimal places, as `csv.writer`
    writes them."""
    row, workflows = _WORKFLOW_ROW, report.workflows
    text = "".join([row % (
        w.workflow_id, w.arrival_s, w.makespan_us // USEC_PER_SEC, w.makespan_us % USEC_PER_SEC,
        w.cost_nanos // NANOS_PER_DOLLAR, w.cost_nanos % NANOS_PER_DOLLAR, w.budget_usd,
        w.budget_met, w.cost_per_budget) for w in workflows])
    # A negative amount puts ",-" in its row, and floor division does not
    # give its exact text; an id that needs quoting fails `_unquoted`.
    if ",-" not in text and _unquoted(text, len(workflows), 6):
        return _WORKFLOW_CSV_HEADER + text
    return _csv_text([WORKFLOW_CSV_COLUMNS, *([
        w.workflow_id, f"{w.arrival_s:.6f}", format_seconds(w.makespan_us),
        format_dollars(w.cost_nanos), f"{w.budget_usd:.9f}", int(w.budget_met),
        f"{w.cost_per_budget:.6f}"] for w in workflows)])


ASSIGNMENT_CSV_COLUMNS = ("time", "workflow", "task", "vm_id", "vm_type", "event")
ASSIGNMENT_CSV_HEADER = ",".join(ASSIGNMENT_CSV_COLUMNS) + "\n"
# The kinds of record that are rows of the assignment log, with their row's
# event. Each of them holds the row's values at 2-5: workflow, task, VM id
# and VM type.
ASSIGNMENT_EVENTS = {"task_assign": "assign", "task_start": "start",
                     "task_complete": "complete", "provision_request": "provision"}
# Per kind of record, the template of its row: its time (never negative) in
# seconds, as `format_seconds` gives it, its values at 2-5, then its event.
_RECORD_ROWS = {kind: "%d.%06d,%s,%s,%s,%s," + event + "\n"
                for kind, event in ASSIGNMENT_EVENTS.items()}
# Records `assignments_to_csv` renders at a time: its memory stays bounded.
_CSV_CHUNK = 512


def assignment_lines(records: list[tuple]) -> str:
    """The log lines of those of `records` (`RECORD_FIELDS` gives their
    layout) that are rows of the log, each ending in a newline. The rows are
    filled into their kinds' templates, and the text is kept if `_unquoted`
    holds for it; else `csv.writer` writes them."""
    templates = _RECORD_ROWS
    lines = [templates[rec[1]] % (rec[0] // USEC_PER_SEC, rec[0] % USEC_PER_SEC,
                                  rec[2], rec[3], rec[4], rec[5])
             for rec in records if rec[1] in templates]
    text = "".join(lines)
    if _unquoted(text, len(lines), 5):
        return text
    events = ASSIGNMENT_EVENTS
    return _csv_text([("%d.%06d" % divmod(rec[0], USEC_PER_SEC), *rec[2:6], events[rec[1]])
                      for rec in records if rec[1] in events])


def assignments_to_csv(records: Iterable[tuple]) -> str:
    """The assignment log of `records`: its header, then one line per record
    that is a row of the log."""
    buf = io.StringIO()
    buf.write(ASSIGNMENT_CSV_HEADER)
    records = iter(records)
    while chunk := list(islice(records, _CSV_CHUNK)):
        buf.write(assignment_lines(chunk))
    return buf.getvalue()
