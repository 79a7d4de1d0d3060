"""Workflow model: parsing, validation, levels, templates, workload generation."""

import hashlib
import json
import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_workflow, random_dag, workflow_to_dict, workload_to_dict
from waasim.errors import CycleError, DanglingRefError, SchemaError
from waasim.schema import replace
from waasim.workflow import (GENOME_RUNTIMES, WorkloadSpec, _assemble, _TaskDoc,
                             generate_workload, genome_template, parse_workflow,
                             parse_workload, serialize_workload, vina_template,
                             workload_hash)


def test_parse_single_task():
    doc = {"id": "one", "budget": 0.01,
           "tasks": [{"id": "A", "kind": "a", "runtime": 10, "parents": []}]}
    spec = parse_workflow(json.dumps(doc))
    assert len(spec.tasks) == 1
    assert spec.tasks["A"].level == 0


def test_parse_diamond_levels():
    doc = {"id": "d", "budget": 0.1, "tasks": [
        {"id": "A", "kind": "a", "runtime": 1, "parents": []},
        {"id": "B", "kind": "b", "runtime": 1, "parents": ["A"]},
        {"id": "C", "kind": "c", "runtime": 1, "parents": ["A"]},
        {"id": "D", "kind": "d", "runtime": 1, "parents": ["B", "C"]},
    ]}
    spec = parse_workflow(json.dumps(doc))
    assert [spec.tasks[t].level for t in "ABCD"] == [0, 1, 1, 2]


def test_parse_dangling_parent():
    doc = {"id": "d", "budget": 0.1, "tasks": [
        {"id": "D", "kind": "d", "runtime": 1, "parents": ["X"]},
    ]}
    with pytest.raises(DanglingRefError):
        parse_workflow(json.dumps(doc))


@pytest.mark.parametrize("missing", ["id", "budget", "tasks"])
def test_parse_missing_field(missing):
    doc = {"id": "w", "budget": 0.1,
           "tasks": [{"id": "A", "kind": "a", "runtime": 1, "parents": []}]}
    del doc[missing]
    with pytest.raises(SchemaError):
        parse_workflow(json.dumps(doc))


@pytest.mark.parametrize("field, value, message", [
    ("runtime", "x", r"tasks\[0\]\.runtime"),
    ("transfer", "x", r"tasks\[0\]\.transfer"),
    ("parents", 5, r"tasks\[0\]\.parents"),
    ("parents", "A", r"tasks\[0\]\.parents: must be a JSON list"),
    ("parents", {"A": 1}, r"tasks\[0\]\.parents: must be a JSON list"),
    ("budget", None, "budget"),
    ("runtime", float("nan"), r"tasks\[0\]\.runtime: must be finite"),
    ("runtime", "1e999", r"tasks\[0\]\.runtime: must be finite"),
    ("transfer", float("inf"), r"tasks\[0\]\.transfer: must be finite"),
    ("budget", float("nan"), r"workflow\.budget: must be finite"),
    ("arrival_time", float("inf"), r"workflow\.arrival_time: must be finite"),
])
def test_parse_unconvertible_value(field, value, message):
    doc = {"id": "w", "budget": 0.1,
           "tasks": [{"id": "A", "kind": "a", "runtime": 1, "parents": []}]}
    (doc if field in ("budget", "arrival_time") else doc["tasks"][0])[field] = value
    # "1e999" goes in as the bare literal, which json.loads reads as infinity.
    with pytest.raises(SchemaError, match=message):
        parse_workflow(json.dumps(doc).replace('"1e999"', "1e999"))


def test_parse_converts_as_before():
    """Integers are read as floats, so no workload text or hash changes;
    strings are not read as numbers."""
    floats = {"id": "w", "budget": 1.0, "arrival_time": 3.0,
              "tasks": [{"id": "A", "kind": "a", "runtime": 2.0, "transfer": 1.0}]}
    ints = {"id": "w", "budget": 1, "arrival_time": 3,
            "tasks": [{"id": "A", "kind": "a", "runtime": 2, "transfer": 1}]}
    spec = parse_workflow(json.dumps(ints))
    assert spec == parse_workflow(json.dumps(floats))
    assert type(spec.budget) is float and type(spec.tasks["A"].reference_runtime) is float
    assert serialize_workload(parse_workload(json.dumps(
        {"arrival_rate": 2, "workflows": [ints]}))) == serialize_workload(parse_workload(
            json.dumps({"arrival_rate": 2.0, "workflows": [floats]})))
    for doc, message in (({**floats, "budget": "0.5"}, "workflow.budget: expected float"),
                         ({**floats, "tasks": [{"id": "A", "kind": "a", "runtime": "2"}]},
                          r"workflow.tasks\[0\].runtime: expected float")):
        with pytest.raises(SchemaError, match=message):
            parse_workflow(json.dumps(doc))


def test_parse_workload_workflows_not_a_list():
    with pytest.raises(SchemaError, match="^workload.workflows: must be a JSON list$"):
        parse_workload(json.dumps({"arrival_rate": 1.0, "workflows": 5}))


def test_parse_workload_rejects_duplicate_workflow_ids():
    workflow = {"id": "w", "budget": 1.0, "tasks": [{"id": "A", "kind": "a", "runtime": 5}]}
    doc = {"arrival_rate": 1.0, "workflows": [{**workflow, "arrival_time": 0.0},
                                              {**workflow, "arrival_time": 5.0}]}
    with pytest.raises(SchemaError, match=r"^workflows\[1\]\.id: duplicate workflow id 'w'$"):
        parse_workload(json.dumps(doc))


def test_parse_workload_rejects_decreasing_arrival_times():
    workflow = {"budget": 1.0, "tasks": [{"id": "A", "kind": "a", "runtime": 5}]}
    doc = {"arrival_rate": 1.0, "workflows": [{**workflow, "id": "a", "arrival_time": 5.0},
                                              {**workflow, "id": "b", "arrival_time": 4.0}]}
    with pytest.raises(SchemaError,
                       match="^workload document: arrival_time must be non-decreasing$"):
        parse_workload(json.dumps(doc))


def test_parse_workload_rejects_a_lone_surrogate():
    workflow = {"id": "w\ud800", "budget": 1.0, "tasks": [{"id": "A", "kind": "a", "runtime": 5}]}
    with pytest.raises(SchemaError, match=r"^workload.workflows\[0\].id: must be encodable "
                                          "as UTF-8$"):
        parse_workload(json.dumps({"arrival_rate": 1.0, "workflows": [workflow]}))


def test_parse_cycle():
    doc = {"id": "c", "budget": 0.1, "tasks": [
        {"id": "A", "kind": "a", "runtime": 1, "parents": ["B"]},
        {"id": "B", "kind": "b", "runtime": 1, "parents": ["A"]},
    ]}
    with pytest.raises(CycleError):
        parse_workflow(json.dumps(doc))


def test_parse_rejects_a_duplicate_task_id():
    doc = {"id": "w", "budget": 0.1, "tasks": [{"id": "A", "kind": "a", "runtime": 1},
                                               {"id": "A", "kind": "b", "runtime": 2}]}
    with pytest.raises(SchemaError, match="^workflow 'w': duplicate task id 'A'$"):
        parse_workflow(json.dumps(doc))


def test_parse_rejects_nonpositive_runtime():
    doc = {"id": "w", "budget": 0.1,
           "tasks": [{"id": "A", "kind": "a", "runtime": 0, "parents": []}]}
    with pytest.raises(SchemaError):
        parse_workflow(json.dumps(doc))


def test_levels_chain():
    spec = build_workflow([("A", "a", 1.0, []), ("B", "b", 1.0, ["A"]),
                           ("C", "c", 1.0, ["B"])])
    assert [spec.tasks[t].level for t in "ABC"] == [0, 1, 2]


def test_levels_genome_template():
    spec = genome_template("chr22", 3)
    for task in spec.tasks.values():
        if task.kind in ("individuals", "sifting"):
            assert task.level == 0
        elif task.kind == "individuals_merge":
            assert task.level == 1
        else:
            assert task.level == 2


def _brute_force_levels(spec):
    """Longest path from any entry task, by recursion."""
    def level(tid):
        parents = spec.tasks[tid].parents
        return 0 if not parents else 1 + max(level(p) for p in parents)
    return {tid: level(tid) for tid in spec.tasks}


def test_levels_match_longest_path_oracle():
    rng = random.Random(20240917)
    for _ in range(200):
        spec = random_dag(rng)
        assert {tid: t.level for tid, t in spec.tasks.items()} == _brute_force_levels(spec)


def test_parent_child_consistency():
    rng = random.Random(7)
    for _ in range(50):
        spec = random_dag(rng)
        for tid, task in spec.tasks.items():
            for p in task.parents:
                assert tid in spec.tasks[p].children
            for c in task.children:
                assert tid in spec.tasks[c].parents


def test_genome_template_counts():
    spec = genome_template("chr21", 2)
    assert len(spec.tasks) == 6
    assert len(spec.exit_ids()) == 2
    one = genome_template("chr21", 1)
    assert len(one.tasks) == 5
    assert sorted({t.kind for t in one.tasks.values()}) == sorted(GENOME_RUNTIMES)
    with pytest.raises(ValueError):
        genome_template("chr21", 0)
    with pytest.raises(ValueError, match="unknown task kind 'individual'"):
        genome_template("chr21", 2, runtime_profile={"individual": 1.0})


def test_vina_template_counts():
    spec = vina_template(7)
    assert len(spec.tasks) == 7
    assert all(not t.parents and not t.children for t in spec.tasks.values())
    assert len(vina_template(1).tasks) == 1
    with pytest.raises(ValueError):
        vina_template(0)


@pytest.mark.parametrize("build, message", [
    (lambda: genome_template("g", sys.maxsize + 1),
     f"fan_out: must be >= 1 and <= {sys.maxsize}"),
    (lambda: vina_template(sys.maxsize + 1),
     f"ligand_count: must be >= 1 and <= {sys.maxsize}"),
    (lambda: genome_template("g", 2, runtime_profile={"sifting": math.nan}),
     "runtime_profile.sifting: must be finite and > 0"),
    (lambda: vina_template(2, runtimes=[5.0, -1.0]), "runtimes[1]: must be finite and > 0"),
    (lambda: vina_template(2, runtimes=[5.0]), "runtimes: must have one entry per ligand (2)"),
], ids=["huge_fan_out", "huge_ligand_count", "profile_value", "runtime_value",
        "runtimes_length"])
def test_template_builders_name_the_bad_field(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_vina_template_runtimes_per_ligand():
    spec = vina_template(3, runtimes=[30.0, 20.0, 10.0], kind_prefix="dock")
    runtimes = sorted(t.reference_runtime for t in spec.tasks.values())
    assert runtimes == [10.0, 20.0, 30.0]
    with pytest.raises(ValueError):
        vina_template(3, runtimes=[1.0])


def test_generate_workload_budgets_and_order():
    catalog = [
        (genome_template("chr21", 2), 0.1),
        (genome_template("chr22", 2), 0.25),
        (vina_template(3, workflow_id="vina01"), 0.05),
        (vina_template(3, workflow_id="vina02"), 0.01),
    ]
    workload = generate_workload(catalog, 20, 0.5, seed=11)
    assert len(workload.workflows) == 20
    budgets = {w.budget for w in workload.workflows}
    assert budgets <= {0.1, 0.25, 0.05, 0.01}
    arrivals = [w.arrival_time for w in workload.workflows]
    assert arrivals == sorted(arrivals)
    assert all(a > 0 for a in arrivals)


def test_generate_workload_single_draw_order():
    catalog = [(vina_template(1), 0.01)]
    workload = generate_workload(catalog, 1, 2.0, seed=3)
    rng = random.Random(3)
    rng.randrange(1)  # template draw comes first
    expected = rng.expovariate(2.0 / 60.0)
    assert workload.workflows[0].arrival_time == pytest.approx(expected)


def test_generate_workload_deterministic():
    catalog = [(genome_template("chr22", 2), 0.1), (vina_template(2), 0.05)]
    a = generate_workload(catalog, 10, 6.0, seed=99)
    b = generate_workload(catalog, 10, 6.0, seed=99)
    assert serialize_workload(a) == serialize_workload(b)
    assert workload_hash(a) == workload_hash(b)
    c = generate_workload(catalog, 10, 6.0, seed=100)
    assert workload_hash(a) != workload_hash(c)


def test_workload_hash_is_sha256_of_serialized_text():
    """The hash streams the canonical text in chunks; a workload this size
    spans many of them."""
    catalog = [(genome_template("chr21", 9), 0.1), (genome_template("chr22", 10), 0.25),
               (vina_template(7, workflow_id="vina01"), 0.05), (vina_template(3), 0.01)]
    workload = generate_workload(catalog, 200, 12.0, seed=8)
    text = serialize_workload(workload)
    assert text == json.dumps(workload_to_dict(workload), indent=2) + "\n"
    assert workload_hash(workload) == hashlib.sha256(text.encode()).hexdigest()


# Ids that JSON must escape (quote, backslash, control characters) or that
# are outside ASCII, in and beyond the Basic Multilingual Plane.
NAMES = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7fé€😀'), st.characters()),
                min_size=1, max_size=5)
# Int-valued numbers too: library and config inputs can carry them.
NUMBERS = st.one_of(st.integers(0, 10**12), st.floats(0.0, 1e300))
RUNTIMES = st.one_of(st.integers(1, 10**6), st.floats(1e-6, 1e12))
# An arrival rate keeps its rule: finite and above 0.
RATES = st.one_of(st.integers(1, 10**12), st.floats(0.0, 1e300, exclude_min=True))


@st.composite
def workloads(draw):
    """Workflows drawn from a few templates, so they share task records."""
    templates = []
    for _ in range(draw(st.integers(1, 3))):
        # Ids repeat across templates, on records that differ.
        ids = draw(st.lists(st.one_of(st.sampled_from("abc"), NAMES), min_size=1, max_size=5,
                            unique=True))
        tasks = [_TaskDoc(tid, draw(NAMES), draw(RUNTIMES),
                          draw(st.lists(st.sampled_from(ids[:i]), unique=True)) if i else [],
                          draw(st.one_of(st.just(0.0), NUMBERS)))
                 for i, tid in enumerate(ids)]
        templates.append(_assemble(draw(NAMES), tasks, 0.0, 0.0))
    workflows = [replace(draw(st.sampled_from(templates)), id=draw(NAMES),
                         budget=draw(NUMBERS), arrival_time=draw(NUMBERS))
                 for _ in range(draw(st.integers(0, 4)))]
    return WorkloadSpec(workflows=workflows, arrival_rate=draw(RATES),
                        seed=draw(st.integers(0, 2**40)))


@settings(max_examples=100, deadline=None)
@given(workloads())
# The rules admit -0.0, which equals 0.0: a transfer of -0.0 is left out as
# 0.0 is, and a budget of -0.0 is written as json.dumps writes it.
@example(WorkloadSpec([_assemble("w", [_TaskDoc("a", "k", 1.0, [], -0.0)], -0.0, 0.0)], 1.0))
def test_canonical_text_is_indented_json_dumps(workload):
    text = json.dumps(workload_to_dict(workload), indent=2) + "\n"
    assert serialize_workload(workload) == text
    assert workload_hash(workload) == hashlib.sha256(text.encode()).hexdigest()


def test_generate_workload_argument_errors():
    catalog = [(vina_template(1), 0.01)]
    with pytest.raises(ValueError):
        generate_workload([], 5, 1.0, seed=0)
    with pytest.raises(ValueError):
        generate_workload(catalog, 0, 1.0, seed=0)
    with pytest.raises(ValueError):
        generate_workload(catalog, 5, 0.0, seed=0)
    with pytest.raises(ValueError, match="arrival time inf s"):
        generate_workload(catalog, 2, 1e-310, seed=1)
    # A bool rate, and a seed that is not an int, are refused before any draw.
    with pytest.raises(ValueError, match="^rate must be finite and > 0$") as refused:
        generate_workload([(vina_template(1), 0.1)], 3, True, 1)
    assert type(refused.value) is ValueError
    for seed in (True, 1.5):
        with pytest.raises(ValueError, match="^seed must be an integer$") as refused:
            generate_workload(catalog, 3, 6.0, seed)
        assert type(refused.value) is ValueError
    # Budgets that `parse_workload` would reject in the workload they make.
    for budget in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError,
                           match=r"^catalog\[1\]: budget must be finite and >= 0$"):
            generate_workload(catalog + [(genome_template("g", 2), budget)], 2, 6.0, seed=1)


def test_interarrival_mean_property():
    catalog = [(vina_template(1), 0.01)]
    for rate in (0.5, 6.0):
        workload = generate_workload(catalog, 10_000, rate, seed=5)
        arrivals = [w.arrival_time for w in workload.workflows]
        gaps = [b - a for a, b in zip([0.0] + arrivals, arrivals)]
        mean = sum(gaps) / len(gaps)
        assert abs(mean - 60.0 / rate) / (60.0 / rate) < 0.05


def test_workflow_roundtrip():
    rng = random.Random(13)
    for _ in range(25):
        spec = random_dag(rng)
        again = parse_workflow(json.dumps(workflow_to_dict(spec)))
        assert again == spec


def test_workload_roundtrip():
    catalog = [(genome_template("chr22", 2), 0.1), (vina_template(2), 0.05)]
    workload = generate_workload(catalog, 6, 2.0, seed=21)
    again = parse_workload(serialize_workload(workload))
    assert again == workload


def test_transfer_term_roundtrip():
    doc = {"id": "w", "budget": 0.1, "tasks": [
        {"id": "A", "kind": "a", "runtime": 10, "parents": [], "transfer": 2.5},
    ]}
    spec = parse_workflow(json.dumps(doc))
    assert spec.tasks["A"].total_runtime == 12.5
    assert parse_workflow(json.dumps(workflow_to_dict(spec))) == spec
