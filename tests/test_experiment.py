"""Experiment runner: config validation, sweeps, outputs, comparisons."""

import concurrent.futures
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import waasim
from waasim.errors import ConfigError, ManifestMismatch, SchemaError
from waasim.experiment import (ExperimentConfig, TemplateConfig, compare,
                               compare_files, config_from_dict, config_hash,
                               config_to_dict, plan_runs, run_experiment,
                               summarize_budget_met)
from waasim.metrics import (FleetMetrics, MetricsReport, WorkflowMetrics,
                            report_from_json)
from waasim.workflow import generate_workload, workload_hash


def desk_templates():
    gen = {"individuals": 8.0, "sifting": 10.0, "individuals_merge": 30.0,
           "mutations_overlap": 12.0, "frequency": 15.0}
    return [
        TemplateConfig("chr22", "genome", [0.004, 0.009, 0.015, 0.022],
                       fan_out=3, runtime_profile=gen),
        TemplateConfig("vina01", "vina", [0.002, 0.005, 0.008, 0.012],
                       ligand_count=3, runtimes=[20.0, 12.0, 10.0]),
    ]


def desk_config(**overrides):
    defaults = dict(
        templates=desk_templates(),
        workflow_count=6,
        arrival_rates=[2.0],
        schedulers=["ebpsm"],
        repetitions=1,
        seed_base=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_default_config_evaluation_setup():
    config = ExperimentConfig()
    config.validate()
    names = [t.name for t in config.templates]
    assert names == ["chr21", "chr22", "vina01", "vina02"]
    chr22 = config.templates[1]
    assert chr22.budgets == [0.1, 0.25, 0.45, 0.65]
    vina02 = config.templates[3]
    assert vina02.budgets == [0.01, 0.04, 0.06, 0.08]
    assert config.arrival_rates == [0.5, 2.0, 6.0, 12.0]
    assert config.workflow_count == 20


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="repetitions"):
        desk_config(repetitions=0).validate()
    for rate in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="arrival_rates"):
            desk_config(arrival_rates=[rate]).validate()
    with pytest.raises(ConfigError, match="schedulers"):
        desk_config(schedulers=["nope"]).validate()
    bad = desk_templates()
    bad[0].budgets = [0.02, 0.01]
    with pytest.raises(ConfigError, match="strictly increasing"):
        desk_config(templates=bad).validate()
    with pytest.raises(ConfigError, match="budget_levels"):
        desk_config(budget_levels=[9]).validate()
    config = desk_config()
    config.cloud.catalog = ()
    with pytest.raises(ConfigError, match="^catalog must be non-empty$"):
        config.validate()


def test_config_roundtrip_through_json():
    config = desk_config()
    doc = json.loads(json.dumps(config_to_dict(config)))
    again = config_from_dict(doc)
    assert config_to_dict(again) == config_to_dict(config)


def test_config_from_dict_field_errors():
    with pytest.raises(ConfigError, match="templates"):
        config_from_dict({"templates": [{"name": "x"}]})
    with pytest.raises(ConfigError):
        config_from_dict({"bogus_key": 1})
    with pytest.raises(ConfigError, match="cloud: unknown field 'bogus'"):
        config_from_dict({"cloud": {"bogus": 1}})
    with pytest.raises(ConfigError, match=r"templates\[0\]: unknown field 'ligand_cout'"):
        config_from_dict({"templates": [{"name": "v", "shape": "vina", "budgets": [1.0],
                                         "ligand_cout": 3}]})
    with pytest.raises(ConfigError, match=r"cloud.catalog\[1\]: unknown field 'speed'"):
        config_from_dict({"cloud": {"catalog": [
            {"name": "a", "price_per_second": 1e-6, "speed_factor": 1.0},
            {"name": "b", "price_per_second": 2e-6, "speed": 2.0}]}})
    with pytest.raises(ConfigError, match=r"cloud.catalog\[0\]: must be a JSON object"):
        config_from_dict({"cloud": {"catalog": [5]}})
    with pytest.raises(ConfigError, match="cloud.catalog: must be a JSON list"):
        config_from_dict({"cloud": {"catalog": {"name": "a"}}})
    with pytest.raises(ConfigError, match="templates: must be a JSON list"):
        config_from_dict({"templates": "vina"})
    with pytest.raises(ConfigError, match="cloud.provisioning_delay: expected float"):
        config_from_dict({"cloud": {"provisioning_delay": "x"}})
    with pytest.raises(ConfigError, match="config.workflow_count: expected int"):
        config_from_dict({"workflow_count": "5"})
    with pytest.raises(ConfigError, match="config.write_traces: expected bool"):
        config_from_dict({"write_traces": 1})
    with pytest.raises(ConfigError, match=r"templates\[0\].fan_out: expected int"):
        config_from_dict({"templates": [{"name": "g", "shape": "genome", "budgets": [1.0],
                                         "fan_out": 2.5}]})
    with pytest.raises(ConfigError, match="cloud.variability.sigma: must be finite"):
        config_from_dict({"cloud": {"variability": {"mode": "lognormal",
                                                    "sigma": float("nan")}}})
    with pytest.raises(ConfigError,
                       match="config.cloud.variability.sigma: must be a finite number >= 0"):
        config_from_dict({"cloud": {"variability": {"mode": "lognormal", "sigma": -0.1}}})
    with pytest.raises(ConfigError, match=r"arrival_rates\[0\]: expected float"):
        config_from_dict({"arrival_rates": ["x"]})
    with pytest.raises(ConfigError, match=r"budget_levels\[0\]: expected int"):
        config_from_dict({"budget_levels": [1.5]})
    vina = {"name": "v", "shape": "vina", "ligand_count": 1, "budgets": [1.0],
            "runtimes": [10.0]}
    with pytest.raises(ConfigError, match=r"templates\[0\]\.budgets\[0\]"):
        config_from_dict({"templates": [{**vina, "budgets": ["x"]}]})
    with pytest.raises(ConfigError, match=r"templates\[0\]\.runtimes\[0\]"):
        config_from_dict({"templates": [{**vina, "runtimes": ["x"]}]})
    with pytest.raises(ConfigError, match="schedulers: must be a JSON list"):
        config_from_dict({"schedulers": "ebpsm"})


def test_config_from_dict_keeps_number_types():
    """Checked numbers are not coerced, so config.json and the hash keep them."""
    doc = {"cloud": {"provisioning_delay": 90, "idle_threshold": 60.0}, "workflow_count": 5}
    cloud = config_to_dict(config_from_dict(doc))["cloud"]
    assert type(cloud["provisioning_delay"]) is int
    assert type(cloud["idle_threshold"]) is float


def test_config_hash_of_integer_valued_config():
    """Catalog prices and speeds and template budgets are stored as floats;
    every other number keeps its JSON type. Pinned against a hash taken
    before config decoding was derived from the dataclass annotations."""
    doc = {"cloud": {"catalog": [{"name": "a", "price_per_second": 1, "speed_factor": 2}],
                     "provisioning_delay": 90},
           "templates": [{"name": "v", "shape": "vina", "ligand_count": 2,
                          "budgets": [1, 2], "runtimes": [10, 20]},
                         {"name": "g", "shape": "genome", "budgets": [1, 3], "fan_out": 2,
                          "runtime_profile": {"sifting": 5}}],
           "budget_levels": [1, 2], "arrival_rates": [6, 12], "schedulers": ["fcfs"]}
    config = config_from_dict(doc)
    assert config_hash(config).startswith("67ab57edf8ae5135")
    assert config.cloud.catalog[0].vcpus == 1 and config.cloud.catalog[0].memory_mb == 1024
    assert config_hash(ExperimentConfig()).startswith("54deb07f8c06137f")


def test_integer_runtime_profile_gives_the_float_profile_workload():
    """A genome template's runtimes are floats whichever JSON number a
    config gives, so `5` and `5.0` draw the same workload text and hash."""
    hashes = []
    for runtime in (5, 5.0):
        config = config_from_dict({"templates": [
            {"name": "g", "shape": "genome", "budgets": [1], "fan_out": 2,
             "runtime_profile": {"sifting": runtime}}], "budget_levels": [1]})
        spec = config.build_catalog()[0][0]
        assert type(spec.tasks["sifting"].reference_runtime) is float
        hashes.append(workload_hash(generate_workload(config.build_catalog(), 3, 6.0, seed=1)))
    assert hashes[0] == hashes[1]


def test_plan_runs_matrix():
    config = desk_config(arrival_rates=[0.5, 12.0], repetitions=2,
                         schedulers=["ebpsm"])
    runs = plan_runs(config)
    assert len(runs) == 2 * 1 * 2
    assert len({r.run_id for r in runs}) == len(runs)
    by_key = {(r.rate, r.repetition): r.workload_seed for r in runs}
    assert len(set(by_key.values())) == len(by_key)


def test_run_experiment_outputs(tmp_path):
    config = desk_config(arrival_rates=[0.5, 12.0], repetitions=1)
    manifest = run_experiment(config, output_dir=tmp_path)
    assert len(manifest["runs"]) == 2
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "budget_summary.csv").exists()
    assert (tmp_path / "manifest.json").exists()
    for run in manifest["runs"]:
        run_id = run["run_id"]
        assert (tmp_path / "runs" / f"{run_id}.csv").exists()
        assert (tmp_path / "runs" / f"{run_id}.assign.csv").exists()
        assert (tmp_path / "runs" / f"{run_id}.report.json").exists()


def test_run_experiment_deterministic(tmp_path):
    config = desk_config()
    run_experiment(config, output_dir=tmp_path / "a")
    run_experiment(config, output_dir=tmp_path / "b")
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """`waasim run` writes the same bytes under two string-hash seeds, so no
    output, the report included, follows set or dict hash order."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_to_dict(_quoted_name_config())))
    trees = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"out{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": str(Path(waasim.__file__).parents[1])}
        subprocess.run([sys.executable, "-m", "waasim.cli", "run", "--config", str(config),
                        "--jobs", "1", "--out", str(out)], env=env, check=True,
                       capture_output=True)
        trees.append({str(p.relative_to(out)): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert any(name.endswith(".trace") for name in trees[0])
    assert trees[0] == trees[1]


def test_summary_matches_per_run_csvs(tmp_path):
    config = desk_config(arrival_rates=[2.0, 6.0])
    run_experiment(config, output_dir=tmp_path)
    with open(tmp_path / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    for row in summary:
        with open(tmp_path / "runs" / f"{row['run_id']}.csv", newline="") as fh:
            workflows = list(csv.DictReader(fh))
        met = sum(int(w["budget_met"]) for w in workflows)
        assert float(row["budget_met_pct"]) == pytest.approx(100.0 * met / len(workflows))
        mean_makespan = sum(float(w["makespan_s"]) for w in workflows) / len(workflows)
        assert float(row["mean_makespan_s"]) == pytest.approx(mean_makespan, abs=1e-6)
        total_cost = sum(float(w["cost_usd"]) for w in workflows)
        assert float(row["total_workflow_cost_usd"]) == pytest.approx(total_cost, abs=1e-9)


def test_single_type_schedulers_share_workload_manifest(tmp_path):
    config = desk_config(
        templates=desk_templates(),
        schedulers=["ebpsm-homogeneous", "fcfs"],
        workflow_count=4,
        cloud=_mono_cloud(),
    )
    manifest = run_experiment(config, output_dir=tmp_path)
    by_sched = {}
    for run in manifest["runs"]:
        by_sched[run["scheduler"]] = run["workload_hash"]
    assert by_sched["ebpsm-homogeneous"] == by_sched["fcfs"]


def _mono_cloud():
    from waasim.cloud import CloudConfig, VmType
    return CloudConfig(catalog=(VmType("t2.micro", 1, 1024, 0.0000041, 1.0),),
                       provisioning_delay=90.0, deprovisioning_delay=10.0,
                       idle_threshold=60.0, scan_interval=10.0)


def test_compare_directional_and_self(tmp_path):
    from waasim.estimator import EstimatorConfig
    config = desk_config(
        templates=[TemplateConfig("chr22", "genome", [1.0, 2.0, 3.0, 4.0], fan_out=10)],
        schedulers=["ebpsm-homogeneous", "fcfs"],
        workflow_count=1,
        estimator=EstimatorConfig(mode="oracle"),
        cloud=_mono_cloud(),
    )
    run_experiment(config, output_dir=tmp_path)
    a = tmp_path / "runs" / "ebpsm-homogeneous_rate2_rep0.report.json"
    b = tmp_path / "runs" / "fcfs_rate2_rep0.report.json"
    result = compare_files(a, b)
    assert result.speedup_a_vs_b > 1.0
    assert result.fleet_cost_ratio > 1.0
    assert result.a_faster and not result.a_cheaper

    self_cmp = compare_files(a, a)
    assert all(r.makespan_ratio == 1.0 and r.cost_ratio == 1.0 for r in self_cmp.rows)
    assert self_cmp.fleet_cost_ratio == 1.0


def test_compare_manifest_mismatch():
    def report(h):
        return MetricsReport(
            scheduler="ebpsm", seed=0, workload_hash=h,
            workflows=[WorkflowMetrics("w", 0.0, 1.0, 1.0, 1.0, True, 1.0, 10, 10)],
            fleet=FleetMetrics({}, 0, 0.0, 0, 0.0, 0.0, 0))
    with pytest.raises(ManifestMismatch):
        compare(report("aaa"), report("bbb"))


def test_compare_rejects_zero_makespan():
    instant = MetricsReport(
        scheduler="ebpsm", seed=0, workload_hash="x",
        workflows=[WorkflowMetrics("w", 0.0, 0.0, 1.0, 1.0, True, 1.0, 10, 0)],
        fleet=FleetMetrics({}, 0, 0.0, 0, 0.0, 0.0, 0))
    with pytest.raises(SchemaError, match="workflow 'w': makespan_s must be > 0"):
        compare(instant, instant)


def _report_with_met(met_flags):
    rows = []
    for i, met in enumerate(met_flags):
        cost = 1.0 if met else 1.0 + 0.1 * (i + 1)
        rows.append(WorkflowMetrics(
            workflow_id=f"w{i}", arrival_s=0.0, makespan_s=1.0, cost_usd=cost,
            budget_usd=1.0, budget_met=met, cost_per_budget=cost,
            cost_nanos=int(cost * 1e9), makespan_us=1_000_000))
    return MetricsReport(scheduler="ebpsm", seed=0, workload_hash="x",
                         workflows=rows,
                         fleet=FleetMetrics({}, 0, 0.0, 0, 0.0, 0.0, 0))


def test_summarize_budget_met_all_met():
    rows = summarize_budget_met({0.5: [_report_with_met([True] * 20)]})
    assert rows[0]["budget_met_pct"] == 100.0
    assert rows[0]["violations"] == 0
    assert rows[0]["mean_violation_ratio"] is None


def test_summarize_budget_met_85_pct():
    flags = [True] * 17 + [False] * 3
    report = _report_with_met(flags)
    rows = summarize_budget_met({12.0: [report]})
    assert rows[0]["budget_met_pct"] == pytest.approx(85.0)
    assert rows[0]["violations"] == 3
    expected = sum(w.cost_per_budget for w in report.workflows
                   if not w.budget_met) / 3
    assert rows[0]["mean_violation_ratio"] == pytest.approx(expected)
    assert all(w.cost_per_budget > 1.0 for w in report.workflows if not w.budget_met)


def test_fcfs_vm_count_equals_task_count_in_runs(tmp_path):
    config = desk_config(
        schedulers=["fcfs"],
        workflow_count=3,
        cloud=_mono_cloud(),
    )
    run_experiment(config, output_dir=tmp_path)
    report = report_from_json(
        (tmp_path / "runs" / "fcfs_rate2_rep0.report.json").read_text())
    from waasim.workflow import generate_workload
    workload = generate_workload(config.build_catalog(), config.workflow_count,
                                 2.0, plan_runs(config)[0].workload_seed)
    assert report.fleet.total_vms == sum(len(w.tasks) for w in workload.workflows)


def test_jobs_clamped_to_runs_and_cpus(tmp_path, monkeypatch):
    """No pool is ever started here: the executor is replaced by a recorder."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    config = desk_config(arrival_rates=[0.5, 2.0, 6.0])
    for cpus, expected in ((64, [3]), (2, [2]), (1, []), (None, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        started.clear()
        run_experiment(config, jobs=10**6, output_dir=tmp_path / str(cpus))
        assert started == expected


def test_parallel_jobs_match_sequential(tmp_path):
    config = desk_config(arrival_rates=[2.0, 6.0])
    run_experiment(config, jobs=1, output_dir=tmp_path / "seq")
    run_experiment(config, jobs=2, output_dir=tmp_path / "par")
    for rel in sorted(p.relative_to(tmp_path / "seq")
                      for p in (tmp_path / "seq").rglob("*") if p.is_file()):
        assert (tmp_path / "seq" / rel).read_bytes() == (tmp_path / "par" / rel).read_bytes()


def _quoted_name_config(**overrides):
    """write_traces on, template names that need CSV quoting, every
    scheduler over a single-type catalog."""
    templates = desk_templates()
    templates[0].name = 'chr,"22'
    templates[1].name = 'vi,"na'
    settings = dict(templates=templates, cloud=_mono_cloud(), write_traces=True,
                    schedulers=["ebpsm", "ebpsm-homogeneous", "fcfs"],
                    arrival_rates=[2.0, 6.0])
    return desk_config(**{**settings, **overrides})


@pytest.mark.parametrize("jobs", [1, 2])
def test_streamed_run_files_match_in_memory_rendering(tmp_path, jobs):
    from waasim.engine import checkpoint_trace
    from waasim.experiment import execute_run
    from waasim.metrics import assignments_to_csv

    config = _quoted_name_config()
    run_experiment(config, jobs=jobs, output_dir=tmp_path)
    specs = plan_runs(config)
    assert len(specs) == 6
    for spec in specs:
        result = execute_run(config, spec)
        assert any('"' in row[2] for row in result.assignments)
        runs = tmp_path / "runs"
        assert (runs / f"{spec.run_id}.trace").read_text() == checkpoint_trace(result.trace)
        assert (runs / f"{spec.run_id}.assign.csv").read_text() == \
            assignments_to_csv(result.assignments)


def test_stalled_run_leaves_its_partial_files(tmp_path, monkeypatch):
    from conftest import DeadPolicy
    from waasim import engine
    from waasim.errors import StallError

    monkeypatch.setattr(engine, "make_policy", lambda *args: DeadPolicy())
    config = _quoted_name_config(schedulers=["ebpsm"], arrival_rates=[2.0])
    with pytest.raises(StallError):
        run_experiment(config, output_dir=tmp_path)
    run_id = plan_runs(config)[0].run_id
    trace = (tmp_path / "runs" / f"{run_id}.trace").read_text().splitlines()
    assert len(trace) > config.workflow_count
    assert all(line.split("\t")[1] in ("workflow_arrival", "task_ready") for line in trace)
    assert (tmp_path / "runs" / f"{run_id}.assign.csv").read_text() == \
        "time,workflow,task,vm_id,vm_type,event\n"
    assert not (tmp_path / "runs" / f"{run_id}.report.json").exists()


@pytest.mark.parametrize("chunk", [1, None])
def test_failed_run_leaves_the_records_it_emitted(tmp_path, monkeypatch, chunk):
    """A run that fails mid-way writes every record it emitted, the same
    records an in-memory run of it holds when it fails."""
    from waasim import engine
    from waasim.cloud import VariabilityConfig
    from waasim.engine import SimulationResult, checkpoint_trace
    from waasim.experiment import execute_run
    from waasim.metrics import assignments_to_csv

    if chunk is not None:
        monkeypatch.setattr(engine, "_CHUNK", chunk)
    config = _quoted_name_config(schedulers=["ebpsm"], arrival_rates=[2.0])
    config.cloud.variability = VariabilityConfig(mode="lognormal", sigma=1000.0)
    with pytest.raises(ConfigError, match="variability.sigma"):
        run_experiment(config, output_dir=tmp_path)
    spec = plan_runs(config)[0]
    records = []
    with pytest.raises(ConfigError, match="variability.sigma"):
        execute_run(config, spec, trace=records)
    assert any(rec[1] == "task_start" for rec in records)
    runs = tmp_path / "runs"
    assert (runs / f"{spec.run_id}.trace").read_text() == checkpoint_trace(records)
    assert (runs / f"{spec.run_id}.assign.csv").read_text() == \
        assignments_to_csv(SimulationResult(None, records).assignments)


def test_run_files_are_written_without_the_pure_python_json_encoder(tmp_path, monkeypatch):
    """`json.dumps` with an indent runs CPython's pure-Python encoder, several
    times slower than its C one, so a run's files must be written without
    it: with that encoder made to raise, `report_to_json`, `serialize_workload`
    (the `gen-workload` path) and one traced run's writes succeed and give
    the files of an unguarded run. (A sweep's manifest.json and config.json,
    written once, still use it.)"""
    import json.encoder

    from waasim.experiment import _write_run
    from waasim.metrics import report_to_json
    from waasim.workflow import serialize_workload

    config = desk_config(write_traces=True, workflow_count=12)
    spec = plan_runs(config)[0]
    plain, guarded = tmp_path / "plain", tmp_path / "guarded"
    plain.mkdir()
    guarded.mkdir()
    report = _write_run(config, spec, plain)
    text = report_to_json(report)
    # The run's workload, as `gen-workload` writes one.
    workload = generate_workload(config.build_catalog(), config.workflow_count, spec.rate,
                                 spec.workload_seed)
    workload_text = serialize_workload(workload)

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError, match="pure-Python"):
        json.dumps({}, indent=2)
    assert report_to_json(report) == text
    assert serialize_workload(workload) == workload_text
    assert _write_run(config, spec, guarded) == report
    names = sorted(path.name for path in plain.iterdir())
    assert names == sorted(path.name for path in guarded.iterdir())
    assert {name.split(".", 1)[1] for name in names} == {"assign.csv", "csv", "report.json",
                                                         "trace"}
    for name in names:
        assert (guarded / name).read_bytes() == (plain / name).read_bytes()


def test_import_leaves_process_pools_unloaded():
    """`concurrent.futures` (and the `logging` it loads) is imported only
    by a sweep with jobs > 1."""
    code = ("import sys, waasim, waasim.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(waasim.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
