"""Self-tests for the output audit: it accepts a correct run and rejects the
same run with one thing changed.

    python3 -m pytest -q bench/test_audit.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from audit import audit_run, parse_trace  # noqa: E402


@pytest.fixture(scope="module")
def correct_run():
    from waasim import CloudConfig, EstimatorConfig, engine, generate_workload
    from waasim.experiment import ExperimentConfig
    from waasim.metrics import report_to_json
    from waasim.workflow import serialize_workload

    from rep import cloud_doc

    workload = generate_workload(ExperimentConfig().build_catalog(), 8, 12.0, seed=3)
    cloud = CloudConfig()
    result = engine.run(workload, scheduler="ebpsm", cloud=cloud,
                        estimator=EstimatorConfig(mode="oracle"), seed=3)
    return {
        "workload": json.loads(serialize_workload(workload)),
        "cloud": cloud_doc(cloud),
        "estimator": "oracle",
        "scheduler": "ebpsm",
        "trace_text": engine.checkpoint_trace(result.trace),
        "report": json.loads(report_to_json(result.report)),
    }


def _lines(run):
    return run["trace_text"].splitlines()


def _with_lines(run, lines):
    return dict(run, trace_text="\n".join(lines) + "\n")


def _field(line, key):
    return parse_trace(line)[0][2][key]


def _set_field(line, key, value):
    time_us, name, fields = line.split("\t")
    parts = [f"{key}={value}" if p.startswith(f"{key}=") else p for p in fields.split(" ")]
    return f"{time_us}\t{name}\t{' '.join(parts)}"


def start_before_parent(run):
    lines = _lines(run)
    parents = {(wf["id"], t["id"]): t["parents"]
               for wf in run["workload"]["workflows"] for t in wf["tasks"]}
    done = {}
    for i, line in enumerate(lines):
        t, name, f = parse_trace(line)[0]
        key = (f.get("workflow"), f.get("task"))
        if name == "task_complete":
            done[key] = t
        elif name == "task_start" and parents[key]:
            parent_done = max(done[(key[0], p)] for p in parents[key])
            lines[i] = f"{parent_done - 1}\t" + line.split("\t", 1)[1]
            return _with_lines(run, lines), "before parent"
    raise AssertionError("no task with a parent")


def task_cost_off_by_one(run):
    lines = _lines(run)
    i = next(i for i, line in enumerate(lines) if "\ttask_complete\t" in line)
    lines[i] = _set_field(lines[i], "cost_nanos", int(_field(lines[i], "cost_nanos")) + 1)
    return _with_lines(run, lines), "cost_nanos"


def vm_billed_one_second_short(run):
    lines = _lines(run)
    i = next(i for i, line in enumerate(lines) if "\tvm_terminated\t" in line)
    vm = _field(lines[i], "vm")
    vm_type = next(_field(line, "type") for line in lines
                   if "\tvm_available\t" in line and _field(line, "vm") == vm)
    price = next(round(t["price_per_second"] * 1e9) for t in run["cloud"]["catalog"]
                 if t["name"] == vm_type)
    billed_s = int(_field(lines[i], "billed_s")) - 1
    lines[i] = _set_field(_set_field(lines[i], "billed_s", billed_s),
                          "bill_nanos", billed_s * price)
    return _with_lines(run, lines), "recomputed"


def missing_workflow_complete(run):
    lines = _lines(run)
    i = next(i for i, line in enumerate(lines) if "\tworkflow_complete\t" in line)
    del lines[i]
    return _with_lines(run, lines), "never completed"


def test_accepts_untouched_run(correct_run):
    assert audit_run(**correct_run) == []


@pytest.mark.parametrize("mutate", [start_before_parent, task_cost_off_by_one,
                                    vm_billed_one_second_short, missing_workflow_complete])
def test_rejects_seeded_fault(correct_run, mutate):
    broken, expected = mutate(correct_run)
    problems = audit_run(**broken)
    assert any(expected in p for p in problems), problems
