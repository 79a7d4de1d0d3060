"""What the benchmark's per-layer tracer (`bench/layers.py`) relies on.

The tracer wraps waasim functions named by (module, attribute) in its SPANS
table and derives counts from their arguments and results. Renaming or
deleting a wrapped function, or changing what its hooks read, breaks
`bench/run.py --trace 1`; these tests catch that here.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from waasim import engine, metrics, scheduler
from waasim.cloud import CloudConfig, default_catalog
from waasim.estimator import EstimatorConfig
from waasim.experiment import ExperimentConfig, plan_runs, run_experiment
from waasim.workflow import TaskRecord, generate_workload, genome_template

# run_path compiles the source itself, so nothing is written under bench/.
LAYERS = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "layers.py"))


def _small_workload():
    spec = genome_template("chr", 2)
    return generate_workload([(spec, 0.05), (spec, 0.2)], 4, 6.0, seed=5)


def _run(name, mode="oracle"):
    """A small run under `name`; FCFS needs a single-type catalog."""
    cloud = CloudConfig(catalog=default_catalog()[:1]) if name == "fcfs" else None
    return engine.run(_small_workload(), scheduler=name, cloud=cloud,
                      estimator=EstimatorConfig(mode=mode), seed=1)


@pytest.mark.parametrize("module, path, metric", LAYERS["SPANS"],
                         ids=[path for _, path, _ in LAYERS["SPANS"]])
def test_span_target_resolves(module, path, metric):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_update_budget_fourth_argument_is_unscheduled_tasks(monkeypatch):
    checked = []

    def check(ledger, finished, cost, unscheduled, *rest):
        assert isinstance(unscheduled, list)
        assert all(isinstance(t, TaskRecord) for t in unscheduled)
        ids = {t.id for t in unscheduled}
        assert finished.id not in ids
        assert ids <= set(ledger.sub_budgets)
        assert unscheduled == list(ledger.unscheduled.values())
        checked.append(len(unscheduled))
        return original(ledger, finished, cost, unscheduled, *rest)

    original = scheduler.update_budget
    monkeypatch.setattr(scheduler, "update_budget", check)
    _run("ebpsm")
    assert checked and any(checked)


@pytest.mark.parametrize("name, policy", [("ebpsm", scheduler.EbpsmPolicy),
                                          ("fcfs", scheduler.FcfsPolicy)])
def test_schedule_ready_returns_a_list(monkeypatch, name, policy):
    results = []
    original = policy.schedule_ready

    def record(self, *args):
        results.append(original(self, *args))
        return results[-1]

    monkeypatch.setattr(policy, "schedule_ready", record)
    _run(name)
    assert results
    assert all(type(result) is list for result in results)


def test_tracer_runs_and_restores():
    tracer = LAYERS["Tracer"]()
    originals = [(owner, name, getattr(owner, name))
                 for owner, name in (LAYERS["_resolve"](m, p) for m, p, _ in LAYERS["SPANS"])]
    tracer.install()
    try:
        for name in ("ebpsm", "fcfs"):
            _run(name)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, name) is fn for owner, name, fn in originals)
    metrics = tracer.metrics()
    assert metrics["scheduler.update_calls"] > 0
    assert metrics["scheduler.update_tasks"] > 0
    assert metrics["scheduler.decisions"] > 0
    assert metrics["engine.events"] > 0


def test_tracer_times_estimator_records():
    """The policy's cost rows pass each completion to the estimator, so the
    tracer still times `RuntimeEstimator.record`; FCFS records nothing."""
    tracer = LAYERS["Tracer"]()
    tracer.install()
    try:
        _run("fcfs", mode="history")
        assert tracer.calls["RuntimeEstimator.record"] == 0
        _run("ebpsm", mode="history")
    finally:
        tracer.uninstall()
    assert tracer.calls["RuntimeEstimator.record"] > 0


def test_streamed_trace_length_is_its_line_count(tmp_path, monkeypatch):
    """`engine.events` is `len(result.trace)`; when `run_experiment` streams a
    run to disk, that must still count the run's events, one per trace line."""
    lengths = []
    original = engine.run

    def record(*args, **kwargs):
        result = original(*args, **kwargs)
        assert not isinstance(result.trace, list)
        lengths.append(len(result.trace))
        return result

    monkeypatch.setattr(engine, "run", record)
    config = ExperimentConfig(workflow_count=4, arrival_rates=[2.0, 12.0],
                              write_traces=True)
    run_experiment(config, jobs=1, output_dir=tmp_path)
    lines = [len((tmp_path / "runs" / f"{spec.run_id}.trace").read_text().splitlines())
             for spec in plan_runs(config)]
    assert lengths == lines
    assert all(lines)


def test_tracer_times_the_trace_renderer(tmp_path):
    """SPANS names `engine.checkpoint_trace`, the renderer `metrics` holds,
    and the tracer wraps every waasim binding of it: a sweep that writes
    traces is charged to `engine.trace_render_s`."""
    assert engine.checkpoint_trace is metrics.checkpoint_trace
    tracer = LAYERS["Tracer"]()
    tracer.install()
    try:
        config = ExperimentConfig(workflow_count=4, arrival_rates=[2.0], write_traces=True)
        run_experiment(config, jobs=1, output_dir=tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.calls["checkpoint_trace"] > 0
    assert tracer.metrics()["engine.trace_render_s"] > 0
