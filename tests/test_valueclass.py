"""The value classes `schema.valueclass` builds behave as the dataclasses
they replaced: decoding `as_dict` gives the value back, `replace` changes
only what it is given, equal frozen values hash equal, values survive
pickling (`--jobs N` sends configs and reports to workers) and deep
copies, and frozen values refuse assignment."""

import copy
import json
import math
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dag
from waasim.cloud import CloudConfig, VariabilityConfig, VmType
from waasim.errors import WaasimError
from waasim.estimator import EstimatorConfig
from waasim.experiment import ExperimentConfig, TemplateConfig
from waasim.metrics import FleetMetrics, MetricsReport, WorkflowMetrics
from waasim.schema import as_dict, decode, replace
from waasim.workflow import TaskRecord

# Text the decoder accepts: no lone surrogate, which UTF-8 cannot hold.
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
floats = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(1e-3, 1e6)
ints = st.integers(-2**70, 2**70)
# Values inside the field rules that `__init__` checks.
counts = st.integers(1, sys.maxsize)
rates = st.floats(0, exclude_min=True, allow_infinity=False)

vm_types = st.builds(VmType, name=texts, vcpus=st.integers(1, 64),
                     memory_mb=st.integers(1, 2**20), price_per_second=st.floats(1e-9, 1.0),
                     speed_factor=positive)
variabilities = st.builds(VariabilityConfig, mode=st.sampled_from(["none", "lognormal"]),
                          sigma=st.floats(0, 5))
estimators = st.builds(EstimatorConfig, mode=st.sampled_from(["oracle", "history"]),
                       window=st.integers(1, 100), cold_start_margin=st.floats(1, 5))
clouds = st.builds(
    CloudConfig,
    catalog=st.lists(vm_types, min_size=1, max_size=3, unique_by=lambda t: t.name).map(tuple),
    provisioning_delay=st.floats(0, 1e4), deprovisioning_delay=st.floats(0, 1e4),
    idle_threshold=positive, scan_interval=positive, variability=variabilities,
    bill_provisioning=st.booleans())
templates = st.builds(
    TemplateConfig, name=texts, shape=st.sampled_from(["genome", "vina"]),
    budgets=st.lists(st.floats(0, allow_infinity=False), max_size=4), fan_out=ints,
    ligand_count=ints,
    runtime_profile=st.none() | st.dictionaries(texts, floats, max_size=3),
    runtimes=st.none() | st.lists(floats, max_size=4))
configs = st.builds(
    ExperimentConfig, cloud=clouds, estimator=estimators,
    templates=st.lists(templates, max_size=3), budget_levels=st.lists(counts, max_size=3),
    workflow_count=counts, arrival_rates=st.lists(rates, max_size=3),
    schedulers=st.lists(texts, max_size=3), repetitions=counts, seed_base=ints,
    output_dir=texts, write_traces=st.booleans())
workflow_metrics = st.builds(
    WorkflowMetrics, workflow_id=texts, arrival_s=floats, makespan_s=floats, cost_usd=floats,
    budget_usd=floats, budget_met=st.booleans(), cost_per_budget=floats | st.just(math.inf),
    cost_nanos=ints, makespan_us=ints)
fleets = st.builds(
    FleetMetrics, vm_counts=st.dictionaries(texts, ints, max_size=3), total_vms=ints,
    busy_seconds=floats, billed_seconds=ints, utilization_pct=floats, total_cost_usd=floats,
    total_cost_nanos=ints)
reports = st.builds(MetricsReport, scheduler=texts, seed=ints, workload_hash=texts,
                    workflows=st.lists(workflow_metrics, max_size=3), fleet=fleets)
task_records = st.builds(TaskRecord, id=texts, kind=texts, reference_runtime=rates,
                         parents=st.lists(texts, max_size=2).map(tuple),
                         children=st.lists(texts, max_size=2).map(tuple),
                         level=st.integers(0, 10), transfer_time=st.floats(0, 1e300))
frozen_values = vm_types | variabilities | estimators | task_records
values = configs | reports | clouds | templates | frozen_values


def document(value) -> dict:
    """`as_dict(value)` as JSON reads it back: tuples become lists, and an
    infinite `cost_per_budget` is null, as `report_to_json` writes it."""
    doc = json.loads(json.dumps(as_dict(value)))
    for w in doc.get("workflows", ()):
        if w["cost_per_budget"] == math.inf:
            w["cost_per_budget"] = None
    return doc


@settings(max_examples=60, deadline=None)
@given(value=configs | reports)
def test_decoding_as_dict_gives_the_value_back(value):
    assert decode(document(value), type(value), "value", WaasimError) == value


@settings(max_examples=60, deadline=None)
@given(value=values, data=st.data())
def test_replace_changes_only_the_fields_it_is_given(value, data):
    same = replace(value)
    assert same == value and same is not value
    other = data.draw(_same_kind(value), label="other")
    names = [f.name for f in type(value).__fields__]
    name = data.draw(st.sampled_from(names), label="field")
    changed = replace(value, **{name: getattr(other, name)})
    assert type(changed) is type(value)
    for f in type(value).__fields__:
        source = other if f.name == name else value
        assert getattr(changed, f.name) == getattr(source, f.name)


def _same_kind(value):
    for strategy, cls in ((configs, ExperimentConfig), (reports, MetricsReport),
                          (clouds, CloudConfig), (templates, TemplateConfig),
                          (vm_types, VmType), (variabilities, VariabilityConfig),
                          (estimators, EstimatorConfig), (task_records, TaskRecord)):
        if type(value) is cls:
            return strategy
    raise AssertionError(type(value))


def test_replace_recomputes_what_init_derives():
    task = TaskRecord("a", "k", 10.0, transfer_time=2.0)
    assert task.total_runtime == 12.0
    assert "total_runtime" not in as_dict(task)  # an attribute, not a field
    assert replace(task, transfer_time=5.0).total_runtime == 15.0
    with pytest.raises(TypeError):
        replace(task, total_runtime=1.0)
    with pytest.raises(TypeError):
        replace(task, no_such_field=1)


def test_a_value_is_unequal_to_other_types_and_as_dict_needs_a_value():
    task = TaskRecord("a", "k", 10.0)
    assert task.__eq__(("a", "k", 10.0, (), (), 0, 0.0)) is NotImplemented
    assert task != 5 and task != "a"
    with pytest.raises(TypeError, match="^as_dict\\(\\) should be called on value class"):
        as_dict({"id": "a"})


@settings(max_examples=60, deadline=None)
@given(value=frozen_values)
def test_equal_frozen_values_hash_equal(value):
    twin = replace(value)
    assert twin == value and hash(twin) == hash(value)
    assert len({value, twin}) == 1


@settings(max_examples=20, deadline=None)
@given(value=configs | reports | clouds | templates)
def test_mutable_values_are_unhashable(value):
    with pytest.raises(TypeError):
        hash(value)


@settings(max_examples=60, deadline=None)
@given(value=values)
def test_values_survive_pickling(value):
    assert pickle.loads(pickle.dumps(value)) == value


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_a_workflow_deep_copy_equals_the_original(seed):
    spec = random_dag(random.Random(seed))
    for twin in (spec.copy(), copy.deepcopy(spec)):
        assert twin == spec and twin is not spec and twin.tasks is not spec.tasks


@settings(max_examples=30, deadline=None)
@given(value=frozen_values)
def test_frozen_values_refuse_assignment(value):
    name = type(value).__fields__[0].name
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        setattr(value, "unlisted", 1)
    with pytest.raises(AttributeError):
        delattr(value, name)
