"""What keeps waasim's import and per-run set-up cheap, checked without a
clock: per-run state lives in slotted classes, records that are only built
and read are named tuples, and no dataclass makes `dataclasses` build its
docstring from the class signature at import."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import waasim
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


def waasim_dataclasses() -> list[type]:
    found = []
    for info in pkgutil.iter_modules(waasim.__path__, "waasim."):
        module = importlib.import_module(info.name)
        found += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)]
    return found


def test_every_dataclass_has_a_written_docstring():
    """Without one, `dataclasses` renders the class signature at import."""
    classes = waasim_dataclasses()
    assert classes
    for cls in classes:
        assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}("), cls
