"""The record layout, `metrics.RECORD_FIELDS`, against its readers. The
report fold and the assignment log read a record's values by position, so
each reader is checked here on records built from the table: a table
reordered without its readers fails these tests."""

import csv
import io

from waasim.cloud import default_catalog
from waasim.metrics import (_REPORTED, ASSIGNMENT_EVENTS, RECORD_FIELDS, ReportFold,
                            assignment_lines)

TIME_US = 5_000_007
# A distinct value per key of a record. The None key of `task_complete` is
# its VM's type, given a type name apart from the `type` key's.
VALUES = {
    "workflow": "wf-a", "task": "task-b", "vm": "vm-c", "type": "t2.small",
    None: "t2.medium", "tasks": 3, "budget_nanos": 50, "available_at_us": 60,
    "runtime_us": 70, "cost_nanos": 80, "billed_s": 90, "bill_nanos": 100,
    "makespan_us": 110, "workflows": 1, "vms": 2,
}


def table_record(kind: str) -> tuple:
    """A record of `kind` laid out as the table says."""
    return (TIME_US, kind, *[VALUES[key] for key in RECORD_FIELDS[kind]])


def test_kinds_read_by_the_readers_are_in_the_table():
    assert _REPORTED <= RECORD_FIELDS.keys()
    assert ASSIGNMENT_EVENTS.keys() <= RECORD_FIELDS.keys()


def test_report_fold_reads_each_value_under_its_key():
    fold = ReportFold(default_catalog())
    fold.extend([table_record(kind) for kind in RECORD_FIELDS])
    assert fold.busy_us == VALUES["runtime_us"]
    assert fold.vm_counts == {"t2.micro": 0, "t2.small": 1, "t2.medium": 0, "t2.large": 0}
    assert (fold.billed_s, fold.bill_nanos) == (VALUES["billed_s"], VALUES["bill_nanos"])
    assert fold.workflows == {"wf-a": (TIME_US, VALUES["budget_nanos"],
                                       VALUES["makespan_us"], VALUES["cost_nanos"])}


def test_assignment_log_reads_each_value_under_its_key():
    text = assignment_lines([table_record(kind) for kind in RECORD_FIELDS])
    vm_type = {"task_complete": VALUES[None]}
    assert list(csv.reader(io.StringIO(text))) == [
        ["5.000007", "wf-a", "task-b", "vm-c", vm_type.get(kind, VALUES["type"]),
         ASSIGNMENT_EVENTS[kind]]
        for kind in RECORD_FIELDS if kind in ASSIGNMENT_EVENTS]


def test_report_fold_skips_a_completion_it_saw_no_arrival_of():
    """A `workflow_complete` whose arrival the fold has not read adds no
    workflow to the report."""
    fold = ReportFold(default_catalog())
    fold.extend([table_record("workflow_complete")])
    assert fold.workflows == {}
    assert fold.report("ebpsm", 0, "").workflows == []
