"""Every numeric input field has one range rule (`schema.Rule`) in its
class's field table. The class's `__init__` checks it, so building a value,
decoding a document and the command line refuse a value by the same rule,
naming the field; README states every rule."""

import contextlib
import copy
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waasim import cloud, estimator, experiment, metrics, workflow
from waasim.cli import main
from waasim.cloud import CloudConfig, VariabilityConfig, VmType
from waasim.errors import ConfigError, SchemaError
from waasim.estimator import EstimatorConfig
from waasim.experiment import ExperimentConfig, TemplateConfig, config_from_dict, plan_runs
from waasim.schema import replace
from waasim.workflow import (TaskRecord, WorkflowSpec, WorkloadSpec, _TaskDoc, _WorkflowDoc,
                             _WorkloadDoc, generate_workload, parse_workflow, parse_workload,
                             serialize_workload, vina_template)

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

VALUE_CLASSES = [value for module in (cloud, estimator, experiment, metrics, workflow)
                 for value in vars(module).values()
                 if isinstance(value, type) and "__fields__" in vars(value)
                 and value.__module__ == module.__name__]
RULED = [(cls, f.name, f.metadata["rule"]) for cls in VALUE_CLASSES
         for f in cls.__fields__ if "rule" in f.metadata]

# A valid value of each class with ruled fields, to change one field of.
VALID = {
    VmType: VmType("t2.micro", 1, 1024, 4.1e-06, 1.0),
    VariabilityConfig: VariabilityConfig("lognormal", 0.1),
    CloudConfig: CloudConfig(),
    EstimatorConfig: EstimatorConfig(),
    ExperimentConfig: ExperimentConfig(),
    TemplateConfig: TemplateConfig("v", "vina", [0.1], ligand_count=2, runtimes=[20.0, 12.0]),
    TaskRecord: TaskRecord("a", "k", 5.0),
    WorkflowSpec: WorkflowSpec("w", {}, 0.5),
    WorkloadSpec: WorkloadSpec([], 2.0),
    _TaskDoc: _TaskDoc("a", "k", 5.0),
    _WorkflowDoc: _WorkflowDoc("w", 0.5, []),
    _WorkloadDoc: _WorkloadDoc(2.0, []),
}

# Small valid documents, and where each ruled class sits in them.
TASK = {"id": "A", "kind": "a", "runtime": 5.0, "parents": [], "transfer": 1.0}
WORKFLOW = {"id": "w", "budget": 0.5, "arrival_time": 1.0,
            "tasks": [TASK, {"id": "B", "kind": "b", "runtime": 3, "parents": ["A"]}]}
DOCUMENTS = {
    "config": {
        "cloud": {"catalog": [{"name": "t2.micro", "vcpus": 1, "memory_mb": 1024,
                               "price_per_second": 4.1e-06, "speed_factor": 1.0}],
                  "variability": {"mode": "lognormal", "sigma": 0.1}},
        "estimator": {"mode": "history"},
        "templates": [{"name": "v", "shape": "vina", "ligand_count": 2, "budgets": [0.1],
                       "runtimes": [20.0, 12.0]}],
        "budget_levels": [1], "workflow_count": 2, "arrival_rates": [2.0],
        "schedulers": ["ebpsm"], "repetitions": 1, "seed_base": 3},
    "workflow": WORKFLOW,
    "workload": {"arrival_rate": 2.0, "seed": 7, "workflows": [WORKFLOW]},
}
PLACES = {
    VmType: [("config", ("cloud", "catalog", 0))],
    VariabilityConfig: [("config", ("cloud", "variability"))],
    CloudConfig: [("config", ("cloud",))],
    EstimatorConfig: [("config", ("estimator",))],
    ExperimentConfig: [("config", ())],
    TemplateConfig: [("config", ("templates", 0))],
    _TaskDoc: [("workflow", ("tasks", 0)), ("workload", ("workflows", 0, "tasks", 0))],
    _WorkflowDoc: [("workflow", ()), ("workload", ("workflows", 0))],
    _WorkloadDoc: [("workload", ())],
}
# The spec field each document field becomes.
BECOMES = {(_TaskDoc, "runtime"): (TaskRecord, "reference_runtime"),
           (_TaskDoc, "transfer"): (TaskRecord, "transfer_time"),
           (_WorkflowDoc, "budget"): (WorkflowSpec, "budget"),
           (_WorkflowDoc, "arrival_time"): (WorkflowSpec, "arrival_time"),
           (_WorkloadDoc, "arrival_rate"): (WorkloadSpec, "arrival_rate"),
           (_WorkloadDoc, "seed"): (WorkloadSpec, "seed")}

# The values every rule is tried with, and a few drawn ones.
SPECIAL = [math.nan, math.inf, -math.inf, 1e300, -1, 0, True, sys.maxsize + 1]
NUMBERS = (st.sampled_from(SPECIAL) | st.integers(-3, 2**64) | st.booleans()
           | st.floats(-1e3, 1e3))
# What a run may be given: a size above 64 that fits an index builds or
# plans that many workflows, tasks or runs, as it should.
RUNNABLE = NUMBERS.filter(lambda v: not (type(v) is int and 64 < v <= sys.maxsize))


def with_special_values(test):
    for value in SPECIAL:
        test = example(value=value)(test)
    return test


def keeps(rule, value) -> bool:
    """The rule, restated: an int that is not a bool, or a finite number
    (a float, or an int a float can hold), within the bounds."""
    if rule.kind is int:
        if type(value) is not int:
            return False
    elif type(value) not in (int, float) or not -sys.float_info.max <= value <= sys.float_info.max:
        return False
    if rule.low is not None and (value <= rule.low if rule.strict else value < rule.low):
        return False
    return rule.high is None or value <= rule.high


def broken(name, rule) -> str:
    """The text a rule breaks with: the field, and item 0 of a list field."""
    return f"{name}{'[0]' if rule.each else ''}: must be {rule}"


def _placed(kind, path, name, value, rule):
    """DOCUMENTS[kind] with `value` (in a list, for a list field) at field
    `name` of the object at `path`, and that value's JSON path."""
    doc = copy.deepcopy(DOCUMENTS[kind])
    target = doc
    for key in path:
        target = target[key]
    target[name] = [value] if rule.each else value
    where = kind + "".join(f"[{k}]" if type(k) is int else f".{k}" for k in (*path, name))
    return doc, where + ("[0]" if rule.each else "")


def _decode(kind, doc):
    if kind == "config":
        return config_from_dict(doc)
    return (parse_workflow if kind == "workflow" else parse_workload)(json.dumps(doc))


def test_every_ruled_class_has_a_value_and_a_place():
    """So that a field added to any of these classes is tried below."""
    classes = {cls for cls, _, _ in RULED}
    assert classes == set(VALID)
    assert classes - {TaskRecord, WorkflowSpec, WorkloadSpec} == set(PLACES)


def test_a_document_field_shares_the_rule_of_the_field_it_becomes():
    rules = {(cls, name): rule for cls, name, rule in RULED}
    for doc_field, spec_field in BECOMES.items():
        assert rules[doc_field] is rules[spec_field]


@pytest.mark.parametrize("cls, name, rule", RULED,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in RULED])
def test_readme_states_every_rule(cls, name, rule):
    text = f"`{name}` | {'each ' if rule.each else ''}{rule}"
    assert any(text in line for line in README.splitlines()), text


@pytest.mark.parametrize("cls, name, rule", RULED,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in RULED])
@settings(max_examples=20, deadline=None)
@with_special_values
@given(value=NUMBERS)
def test_construction_refuses_what_the_rule_refuses(cls, name, rule, value):
    error = ConfigError if cls.__module__ in ("waasim.cloud", "waasim.estimator",
                                              "waasim.experiment") else SchemaError
    try:
        replace(VALID[cls], **{name: [value] if rule.each else value})
    except error as exc:
        assert name in str(exc)
        assert (str(exc) == broken(name, rule)) == (not keeps(rule, value)), str(exc)
    else:
        assert keeps(rule, value)
    if cls is ExperimentConfig:  # mutable: validate applies the rules again
        config = ExperimentConfig()
        setattr(config, name, [value] if rule.each else value)
        try:
            config.validate()
        except ConfigError as exc:
            assert name in str(exc)
            assert (str(exc) == broken(name, rule)) == (not keeps(rule, value)), str(exc)
        else:
            assert keeps(rule, value)


DECODED = [(cls, name, rule, kind, path) for cls, name, rule in RULED
           for kind, path in PLACES.get(cls, ())]


@pytest.mark.parametrize("cls, name, rule, kind, path", DECODED,
                         ids=[f"{kind}-{cls.__name__}.{name}" for cls, name, _, kind, _ in DECODED])
@settings(max_examples=20, deadline=None)
@with_special_values
@given(value=NUMBERS)
def test_the_decoder_names_the_json_path_of_what_it_refuses(cls, name, rule, kind, path,
                                                           value):
    doc, where = _placed(kind, path, name, value, rule)
    try:
        _decode(kind, doc)
    except (ConfigError, SchemaError) as exc:
        message = str(exc)
        assert name in message
        if message.endswith(f": must be {rule}"):  # the field's own rule
            assert message == f"{where}: must be {rule}" and not keeps(rule, value)
        else:  # a JSON type the field cannot hold, or a rule over several fields
            assert message.startswith(f"{where}: ") or not message.startswith(kind)
    else:
        assert keeps(rule, value)


COMMANDS = [(cls, name, rule, kind, path) for cls, name, rule, kind, path in DECODED
            if kind != "workload"]
# The template fields, whose checks stay in the template builders.
TEMPLATE_FIELDS = {
    "fan_out": ({"name": "g", "shape": "genome", "budgets": [0.1]}, lambda v: v),
    "ligand_count": ({"name": "v", "shape": "vina", "budgets": [0.1]}, lambda v: v),
    "budgets": ({"name": "v", "shape": "vina", "ligand_count": 1}, lambda v: [v]),
    "runtimes": ({"name": "v", "shape": "vina", "ligand_count": 1, "budgets": [0.1]},
                 lambda v: [v]),
    "runtime_profile": ({"name": "g", "shape": "genome", "fan_out": 1, "budgets": [0.1]},
                        lambda v: {"sifting": v}),
}


def _command(kind, doc):
    """Exit code and standard error of `waasim validate` or `waasim run`
    (in a fresh directory) on `doc`, and whether the run wrote its output."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "doc.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        argv = (["validate", "--workflow", str(path)] if kind == "workflow"
                else ["run", "--config", str(path), "--out", str(out)])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        return code, err.getvalue(), out.exists()


@pytest.mark.parametrize("cls, name, rule, kind, path", COMMANDS,
                         ids=[f"{kind}-{cls.__name__}.{name}"
                              for cls, name, _, kind, _ in COMMANDS])
@settings(max_examples=3, deadline=None)
@with_special_values
@given(value=RUNNABLE)
def test_the_command_line_exits_0_or_2_naming_what_it_refuses(cls, name, rule, kind, path,
                                                             value):
    doc, _ = _placed(kind, path, name, value, rule)
    _check_command(kind, doc)


@pytest.mark.parametrize("name", sorted(TEMPLATE_FIELDS))
@settings(max_examples=3, deadline=None)
@with_special_values
@given(value=RUNNABLE)
def test_waasim_run_exits_0_or_2_on_any_template_number(name, value):
    template, place = TEMPLATE_FIELDS[name]
    doc = copy.deepcopy(DOCUMENTS["config"])
    doc["templates"] = [{**template, name: place(value)}]
    _check_command("config", doc)


def _check_command(kind, doc):
    """`waasim validate` or `run` exits 0 or 2, never with a traceback: 2
    with the decoder's message when it refuses the document, and with no
    output written."""
    try:
        _decode(kind, doc)
        refused = None
    except (ConfigError, SchemaError) as exc:
        refused = str(exc)
    code, err, wrote = _command(kind, doc)
    if refused is not None:
        assert (code, err, wrote) == (2, f"error: {refused}\n", False)
    else:
        assert code in (0, 2) and (code == 0) == (err == ""), err
        assert err == "" or err.startswith("error: ")


@pytest.mark.parametrize("name", ["seed_base", "workflow_count", "repetitions"])
def test_true_is_not_a_seed_or_a_count(name):
    """`True` seeded as the text "True", not as 1, and counted as 1."""
    with pytest.raises(ConfigError, match=f"^{name}: must be an integer"):
        ExperimentConfig(**{name: True})
    config = ExperimentConfig()
    setattr(config, name, True)
    with pytest.raises(ConfigError, match=f"^{name}: must be an integer"):
        config.validate()


def test_a_template_budget_that_is_not_a_number_is_refused():
    """A NaN budget once passed `validate`, and the run then blamed
    `arrival_rates`."""
    with pytest.raises(ConfigError, match=r"^budgets\[0\]: must be a finite number >= 0$"):
        TemplateConfig("v", "vina", [math.nan])
    config = ExperimentConfig(templates=[replace(VALID[TemplateConfig])], budget_levels=[1])
    config.templates[0].budgets = [math.nan]
    with pytest.raises(ConfigError,
                       match=r"^templates\[v\]\.budgets\[0\]: must be a finite number >= 0$"):
        config.validate()


def test_validate_applies_the_rules_of_the_cloud_again():
    """A NaN idle threshold once passed `validate`, and the run then failed
    naming no field."""
    config = ExperimentConfig()
    config.cloud.idle_threshold = math.nan
    with pytest.raises(ConfigError,
                       match=r"^cloud\.idle_threshold: must be a finite number > 0$"):
        config.validate()


@pytest.mark.parametrize("field, value", [("arrival_rate", math.nan), ("arrival_rate", 0),
                                          ("arrival_rate", -1), ("seed", True), ("seed", 1.5)])
def test_a_workload_the_library_builds_is_one_its_parser_reads(field, value):
    """Such a workload was once written into a document that `parse_workload`
    then refused."""
    rule = {"arrival_rate": "a finite number > 0", "seed": "an integer"}[field]
    with pytest.raises(SchemaError, match=f"^{field}: must be {rule}$"):
        WorkloadSpec(**{"workflows": [], "arrival_rate": 2.0, field: value})
    workload = WorkloadSpec([vina_template(1)], 2.0, 7)
    assert parse_workload(serialize_workload(workload)) == workload


@pytest.mark.parametrize("field, value", [("vcpus", 0), ("memory_mb", -5)])
def test_a_catalog_type_needs_a_cpu_and_memory(field, value):
    doc = {"cloud": {"catalog": [{"name": "t", "price_per_second": 1e-6, "speed_factor": 1.0,
                                  field: value}]}}
    with pytest.raises(ConfigError) as caught:
        config_from_dict(doc)
    assert str(caught.value) == f"config.cloud.catalog[0].{field}: must be an integer >= 1"
    with pytest.raises(ConfigError, match=f"^{field}: must be an integer >= 1$"):
        VmType("t", **{"vcpus": 1, "memory_mb": 1024, field: value},
               price_per_second=1e-6, speed_factor=1.0)


# sys.maxsize items cannot be allocated: each of these fails at its first,
# sized allocation, before anything is built.
def test_a_count_too_large_to_hold_fails_at_once():
    catalog = [(vina_template(1), 0.1)]
    with pytest.raises(MemoryError):
        generate_workload(catalog, sys.maxsize, 2.0, 1)
    with pytest.raises(ValueError, match=re.escape(f"count must be >= 1 and <= {sys.maxsize}")):
        generate_workload(catalog, sys.maxsize + 1, 2.0, 1)
    with pytest.raises(ConfigError, match="^repetitions: too many runs to plan$"):
        plan_runs(ExperimentConfig(repetitions=sys.maxsize))
    with pytest.raises(ConfigError, match="^repetitions: too many runs to plan$"):
        plan_runs(ExperimentConfig(repetitions=sys.maxsize // 2 + 1))  # times 4 rates


@pytest.mark.parametrize("fields, message", [
    ({"repetitions": sys.maxsize}, "repetitions: too many runs to plan"),
    ({"workflow_count": sys.maxsize}, "workflow_count: too many workflows to build"),
])
def test_waasim_run_of_a_size_too_large_to_hold_exits_2(tmp_path, capsys, fields, message):
    doc = {**DOCUMENTS["config"], **fields}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_gen_workload_of_a_count_too_large_to_hold_exits_2(capsys):
    assert main(["gen-workload", "--template", "vina01", "--count", str(sys.maxsize),
                 "--rate", "2", "--seed", "1"]) == 2
    assert capsys.readouterr().err == "error: --count: too many workflows to build\n"
    assert main(["gen-workload", "--template", "vina01", "--count", str(sys.maxsize + 1),
                 "--rate", "2", "--seed", "1"]) == 2
    assert capsys.readouterr().err == f"error: count must be >= 1 and <= {sys.maxsize}\n"

