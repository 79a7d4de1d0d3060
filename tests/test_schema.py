"""The document decoder: any value at any place in a config, workflow,
workload or report document is read or rejected with a WaasimError, never
another exception."""

import copy
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waasim.errors import WaasimError
from waasim.experiment import compare_files, load_config
from waasim.workflow import parse_workflow, parse_workload

WORKFLOW = {"id": "w", "budget": 0.5, "arrival_time": 1.0, "tasks": [
    {"id": "A", "kind": "a", "runtime": 5.0, "parents": [], "transfer": 1.0},
    {"id": "B", "kind": "b", "runtime": 3, "parents": ["A"]}]}

DOCUMENTS = {
    # No size field (fan_out, ligand_count) is given, so no drawn value
    # can make validation build a huge template.
    "config": {
        "cloud": {"catalog": [{"name": "t2.micro", "vcpus": 1, "memory_mb": 1024,
                               "price_per_second": 4.1e-06, "speed_factor": 1.0},
                              {"name": "t2.small", "price_per_second": 8.2e-06,
                               "speed_factor": 1.2}],
                  "provisioning_delay": 90.0, "idle_threshold": 60,
                  "variability": {"mode": "lognormal", "sigma": 0.1},
                  "bill_provisioning": False},
        "estimator": {"mode": "history", "window": 10, "cold_start_margin": 1.5},
        "templates": [{"name": "v", "shape": "vina", "budgets": [0.1, 0.2],
                       "runtimes": [20.0, 12.0, 10.0, 10.0, 9.0, 8.0, 7]},
                      {"name": "g", "shape": "genome", "budgets": [0.1, 1],
                       "runtime_profile": {"sifting": 100.0}}],
        "budget_levels": [1, 2], "workflow_count": 4, "arrival_rates": [2.0, 6],
        "schedulers": ["ebpsm"], "repetitions": 1, "seed_base": 3,
        "output_dir": "results", "write_traces": False},
    "workflow": WORKFLOW,
    "workload": {"arrival_rate": 2.0, "seed": 7,
                 "workflows": [WORKFLOW, {**WORKFLOW, "id": "w2", "arrival_time": 2}]},
    "report": {
        "scheduler": "ebpsm", "seed": 1, "workload_hash": "ab",
        "workflows": [{"workflow_id": "w", "arrival_s": 0.0, "makespan_s": 10.0,
                       "cost_usd": 1e-05, "budget_usd": 0.0, "budget_met": False,
                       "cost_per_budget": None, "cost_nanos": 10000,
                       "makespan_us": 10000000}],
        "fleet": {"vm_counts": {"t2.micro": 1}, "total_vms": 1, "busy_seconds": 10.0,
                  "billed_seconds": 10, "utilization_pct": 100.0, "total_cost_usd": 1e-05,
                  "total_cost_nanos": 10000}},
}


def _read(kind: str, text: str):
    """What the command line does with a document of `kind`."""
    if kind == "workflow":
        return parse_workflow(text)
    if kind == "workload":
        return parse_workload(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.json"
        path.write_text(text)
        return load_config(path) if kind == "config" else compare_files(path, path)


def _places(doc, path=()):
    """The path of every value in `doc`, containers and the root included."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _places(value, (*path, key))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10**400, 10**400),
              st.sampled_from([math.nan, math.inf, -math.inf]), st.floats(),
              st.text(max_size=3), st.text(max_size=3).map(lambda s: s + "\ud800")),
    lambda values: st.one_of(st.lists(values, max_size=3),
                             st.dictionaries(st.text(max_size=3), values, max_size=3)),
    max_leaves=5)


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_valid_documents_are_read(kind):
    _read(kind, json.dumps(DOCUMENTS[kind]))


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_value_anywhere_is_read_or_rejected(kind, data):
    doc = DOCUMENTS[kind]
    path = data.draw(st.sampled_from(list(_places(doc))), label="path")
    text = json.dumps(_replaced(doc, path, data.draw(JSON_VALUES, label="value")))
    try:
        _read(kind, text)
    except WaasimError:
        pass
