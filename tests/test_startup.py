"""What keeps waasim's import and per-run set-up cheap, checked without a
clock: per-run state lives in slotted classes, records that are only built
and read are named tuples, and importing waasim loads none of the standard
library's heavier class and introspection machinery."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import chain_workflow, single_workload
from waasim import engine
from waasim.cloud import CloudConfig, Fleet
from waasim.estimator import EstimatorConfig
from waasim.experiment import (ComparisonReport, ComparisonRow, ExperimentConfig, RunSpec,
                               compare, plan_runs)
from waasim.scheduler import BudgetLedger, EbpsmPolicy, RuntimeEstimator


def slotted_instances() -> dict:
    """One instance of each class that per-run state is made of."""
    cloud = CloudConfig()
    spec = chain_workflow([30.0, 45.0])
    policy = EbpsmPolicy(cloud, RuntimeEstimator(EstimatorConfig("oracle")))
    run = engine.WorkflowRun(spec=spec, arrival_us=0, budget_nanos=10**9)
    policy.on_arrival(run)
    return {
        "WorkflowRun": run,
        "SimulationResult": engine.run(single_workload(spec), "ebpsm", cloud),
        "VmInstance": Fleet(cloud).provision(cloud.catalog[0], 0),
        "BudgetLedger": BudgetLedger(10**9),
        "_Plan": run.plan,
    }


@pytest.mark.parametrize("name", ["WorkflowRun", "SimulationResult", "VmInstance",
                                  "BudgetLedger", "_Plan"])
def test_per_run_state_has_no_instance_dict(name):
    instance = slotted_instances()[name]
    assert type(instance).__name__ == name
    assert not hasattr(instance, "__dict__")
    assert not dataclasses.is_dataclass(instance)


def test_run_plans_and_comparisons_are_named_tuples():
    spec = plan_runs(ExperimentConfig())[0]
    report = engine.run(single_workload(chain_workflow([30.0])), "ebpsm").report
    comparison = compare(report, report)
    for cls, instance in ((RunSpec, spec), (ComparisonReport, comparison),
                          (ComparisonRow, comparison.rows[0])):
        assert issubclass(cls, tuple) and isinstance(instance, cls)
        assert not dataclasses.is_dataclass(cls)


# `dataclasses` would bring `inspect`, and with it `ast`, `dis` and `tokenize`.
UNLOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "copy")


def test_import_loads_no_dataclass_or_copy_machinery():
    """In a fresh interpreter, `import waasim, waasim.cli` loads none of
    UNLOADED: the value classes are built by `schema.valueclass`."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, waasim, waasim.cli; "
             f"print(' '.join(m for m in {UNLOADED!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split() == []
