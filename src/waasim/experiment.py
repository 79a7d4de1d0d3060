"""Experiment runner: scenario sweeps over arrival rates and schedulers,
metrics aggregation, CSV output and report comparison."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from contextlib import nullcontext
from itertools import repeat
from pathlib import Path
from sys import maxsize
from typing import NamedTuple

from . import engine
from .cloud import CloudConfig
from .errors import ConfigError, ManifestMismatch, SchemaError
from .estimator import EstimatorConfig
from .metrics import (ASSIGNMENT_CSV_HEADER, MetricsReport, assignment_lines, report_from_json,
                      report_to_json, workflows_to_csv)
from .scheduler import make_policy
from .schema import Field, Rule, as_dict, decode, load, read_file, replace, valueclass
from .units import substream_seed
from .workflow import (GENOME_RUNTIMES, VINA01_RUNTIMES, VINA02_RUNTIMES,
                       WorkflowSpec, generate_workload, genome_template,
                       vina_template)


@valueclass
class TemplateConfig:
    """A workflow template of the sweep: its shape and size, its task
    runtimes and its budget levels in dollars, lowest first."""

    name: str
    shape: str  # "genome" or "vina"
    budgets: list[float] = Field(metadata={"as_float": True})
    fan_out: int = 10
    ligand_count: int = 7
    runtime_profile: dict[str, float] | None = None
    runtimes: list[float] | None = None

    def build(self) -> WorkflowSpec:
        if self.shape == "genome":
            return genome_template(self.name, self.fan_out,
                                   runtime_profile=self.runtime_profile)
        if self.shape == "vina":
            return vina_template(self.ligand_count,
                                 runtimes=self.runtimes,
                                 kind_prefix=f"{self.name}_dock",
                                 workflow_id=self.name)
        raise ConfigError(f"templates[{self.name}].shape: unknown shape {self.shape!r}")


def default_templates() -> list[TemplateConfig]:
    """The four evaluation workflows with their published budget levels."""
    return [
        TemplateConfig("chr21", "genome", [0.1, 0.25, 0.45, 0.65], fan_out=9,
                       runtime_profile=dict(GENOME_RUNTIMES)),
        TemplateConfig("chr22", "genome", [0.1, 0.25, 0.45, 0.65], fan_out=10,
                       runtime_profile=dict(GENOME_RUNTIMES)),
        TemplateConfig("vina01", "vina", [0.05, 0.15, 0.25, 0.35],
                       runtimes=list(VINA01_RUNTIMES)),
        TemplateConfig("vina02", "vina", [0.01, 0.04, 0.06, 0.08],
                       runtimes=list(VINA02_RUNTIMES)),
    ]


@valueclass(error=ConfigError)
class ExperimentConfig:
    """A sweep: every scheduler at every arrival rate, `repetitions` times,
    each run over `workflow_count` workflows drawn from the templates at
    the chosen budget levels."""

    cloud: CloudConfig = Field(default_factory=CloudConfig)
    estimator: EstimatorConfig = Field(default_factory=EstimatorConfig)
    templates: list[TemplateConfig] = Field(default_factory=default_templates)
    budget_levels: list[int] = Field(default_factory=lambda: [1, 2, 3, 4],
                                     metadata={"rule": Rule(int, 1, each=True)})
    workflow_count: int = Field(default=20, metadata={"rule": Rule(int, 1, high=maxsize)})
    arrival_rates: list[float] = Field(default_factory=lambda: [0.5, 2.0, 6.0, 12.0],
                                       metadata={"rule": Rule(float, 0, strict=True, each=True)})
    schedulers: list[str] = Field(default_factory=lambda: ["ebpsm"])
    repetitions: int = Field(default=1, metadata={"rule": Rule(int, 1, high=maxsize)})
    seed_base: int = Field(default=42, metadata={"rule": Rule(int)})
    output_dir: str = "results"
    write_traces: bool = False

    def validate(self) -> None:
        replace(self)  # applies the field rules again: the fields may have changed since
        if not self.arrival_rates:
            raise ConfigError("arrival_rates: must be non-empty")
        # Run ids and seeds are derived from a rate's label, so two rates
        # with one label would write the same runs.
        rates_by_label: dict[str, float] = {}
        for rate in self.arrival_rates:
            label = _rate_label(rate)
            if label in rates_by_label:
                raise ConfigError(f"arrival_rates: {rates_by_label[label]!r} and {rate!r} "
                                  f"share the run label rate{label}")
            rates_by_label[label] = rate
        if not self.schedulers:
            raise ConfigError("schedulers: must be non-empty")
        for i, name in enumerate(self.schedulers):
            if name in self.schedulers[:i]:
                raise ConfigError(f"schedulers: {name!r} is listed twice")
            try:
                make_policy(name, self.cloud, self.estimator)
            except ConfigError as exc:
                raise ConfigError(f"schedulers: {exc}") from None
        if not self.templates:
            raise ConfigError("templates: must be non-empty")
        names = [t.name for t in self.templates]
        if len(set(names)) != len(names):
            raise ConfigError("templates: names must be unique")
        for tpl in self.templates:
            path = f"templates[{tpl.name}]"
            if not tpl.budgets:
                raise ConfigError(f"{path}.budgets: must be non-empty")
            if any(b <= a for a, b in zip(tpl.budgets, tpl.budgets[1:])):
                raise ConfigError(f"{path}.budgets: must be strictly increasing")
            if tpl.budgets[0] < 0:
                raise ConfigError(f"{path}.budgets: must be >= 0")
            try:
                tpl.build()
            except ValueError as exc:
                raise ConfigError(f"{path}.{exc}") from None
            except MemoryError:
                size = "fan_out" if tpl.shape == "genome" else "ligand_count"
                raise ConfigError(f"{path}.{size}: too many tasks to build") from None
        if not self.budget_levels:
            raise ConfigError("budget_levels: must be non-empty")
        for level in self.budget_levels:
            for tpl in self.templates:
                if not 1 <= level <= len(tpl.budgets):
                    raise ConfigError(
                        f"budget_levels: level {level} outside templates[{tpl.name}].budgets")
        if "\0" in self.output_dir:
            raise ConfigError("output_dir: must not contain a NUL character")

    def build_catalog(self) -> list[tuple[WorkflowSpec, float]]:
        catalog = []
        for tpl in self.templates:
            spec = tpl.build()
            for level in self.budget_levels:
                catalog.append((spec, tpl.budgets[level - 1]))
        return catalog


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Decode an ExperimentConfig from parsed JSON, then validate it."""
    config = decode(doc, ExperimentConfig, "config", ConfigError)
    config.validate()
    return config


def load_config(path: str | Path) -> ExperimentConfig:
    config = load(read_file(path, ConfigError), ExperimentConfig, "config", ConfigError)
    config.validate()
    return config


def config_to_dict(config: ExperimentConfig) -> dict:
    return as_dict(config)


def config_hash(config: ExperimentConfig) -> str:
    text = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _rate_label(rate: float) -> str:
    return f"{rate:g}"


class RunSpec(NamedTuple):
    """One run of a sweep, as `plan_runs` derives it from the config."""

    run_id: str
    scheduler: str
    rate: float
    repetition: int
    workload_seed: int
    run_seed: int


def plan_runs(config: ExperimentConfig) -> list[RunSpec]:
    # Allocated at once: a `repetitions` too large to hold fails here, before
    # any run is planned.
    try:
        runs = [None] * (len(config.arrival_rates) * len(config.schedulers) * config.repetitions)
    except (MemoryError, OverflowError):
        raise ConfigError("repetitions: too many runs to plan") from None
    i = 0
    for rate in config.arrival_rates:
        for scheduler in config.schedulers:
            for rep in range(config.repetitions):
                label = _rate_label(rate)
                runs[i] = RunSpec(
                    run_id=f"{scheduler}_rate{label}_rep{rep}",
                    scheduler=scheduler,
                    rate=rate,
                    repetition=rep,
                    workload_seed=substream_seed(
                        config.seed_base, f"workload/rate={label}/rep={rep}"),
                    run_seed=substream_seed(
                        config.seed_base, f"run/rate={label}/rep={rep}"),
                )
                i += 1
    return runs


def execute_run(config: ExperimentConfig, spec: RunSpec,
                trace=None) -> engine.SimulationResult:
    try:
        workload = generate_workload(config.build_catalog(), config.workflow_count,
                                     spec.rate, spec.workload_seed)
    except ValueError as exc:
        raise ConfigError(f"arrival_rates: {exc}") from None
    except MemoryError:
        raise ConfigError("workflow_count: too many workflows to build") from None
    return engine.run(workload, scheduler=spec.scheduler, cloud=config.cloud,
                      estimator=config.estimator, seed=spec.run_seed, trace=trace)


class _RunWriter:
    """One run's `trace` sink: writes each chunk of records the engine hands
    over as trace lines (if given a trace file) and assignment-log rows, one
    write per file, and keeps only the count of records."""

    def __init__(self, assign_file, trace_file):
        self._assign_file = assign_file
        self._trace_file = trace_file
        assign_file.write(ASSIGNMENT_CSV_HEADER)
        self._events = 0

    def extend(self, records: list[tuple]) -> None:
        self._events += len(records)
        if self._trace_file is not None:
            self._trace_file.write(engine.checkpoint_trace(records))
        self._assign_file.write(assignment_lines(records))

    def __len__(self) -> int:
        return self._events


def _write_run(config: ExperimentConfig, spec: RunSpec, runs_dir: Path) -> MetricsReport:
    """Simulate one run, writing its files under `runs_dir`; the trace and
    assignment log are written as events are emitted, so a run that raises
    leaves them partial."""
    path = runs_dir / spec.run_id
    with (open(f"{path}.assign.csv", "w") as assign_file,
          open(f"{path}.trace", "w") if config.write_traces else nullcontext() as trace_file):
        report = execute_run(config, spec, _RunWriter(assign_file, trace_file)).report
    Path(f"{path}.csv").write_text(workflows_to_csv(report))
    Path(f"{path}.report.json").write_text(report_to_json(report))
    return report


def summarize_budget_met(reports_by_rate: dict[float, list[MetricsReport]]) -> list[dict]:
    """Per rate: budget-met percentage and the mean overrun ratio of the
    violating workflows only."""
    rows = []
    for rate in sorted(reports_by_rate):
        reports = reports_by_rate[rate]
        total = sum(len(r.workflows) for r in reports)
        met = sum(sum(1 for w in r.workflows if w.budget_met) for r in reports)
        ratios = [ratio for r in reports for ratio in r.violation_ratios()]
        rows.append({
            "rate": rate,
            "workflows": total,
            "budget_met_pct": 100.0 * met / total if total else 100.0,
            "violations": len(ratios),
            "mean_violation_ratio": sum(ratios) / len(ratios) if ratios else None,
        })
    return rows


SUMMARY_COLUMNS = (
    "run_id", "scheduler", "rate", "repetition", "workload_seed", "run_seed",
    "workflows", "budget_met_pct", "mean_makespan_s", "total_workflow_cost_usd",
    "fleet_cost_usd", "utilization_pct", "vm_count",
)


def _summary_row(spec: RunSpec, report: MetricsReport, type_names: list[str]) -> list:
    """One formatted `summary.csv` row: SUMMARY_COLUMNS, then a VM count per type."""
    makespans = [w.makespan_s for w in report.workflows]
    mean_makespan = sum(makespans) / len(makespans) if makespans else 0.0
    return [
        spec.run_id, spec.scheduler, f"{spec.rate:g}", spec.repetition,
        spec.workload_seed, spec.run_seed, len(report.workflows),
        f"{report.budget_met_pct():.4f}", f"{mean_makespan:.6f}",
        f"{sum(w.cost_usd for w in report.workflows):.9f}",
        f"{report.fleet.total_cost_usd:.9f}",
        f"{report.fleet.utilization_pct:.4f}", report.fleet.total_vms,
        *[report.fleet.vm_counts.get(n, 0) for n in type_names],
    ]


def run_experiment(config: ExperimentConfig, jobs: int = 1,
                   output_dir: str | Path | None = None) -> dict:
    """Run the full sweep. Each run's CSVs, report and trace are written by
    the process that simulates it; then a summary CSV, a budget-met summary
    and a manifest. Returns the manifest."""
    config.validate()
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    specs = plan_runs(config)
    out = Path(output_dir if output_dir is not None else config.output_dir)
    runs_dir = out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    jobs = min(jobs, len(specs), os.cpu_count() or 1)
    args = (repeat(config), specs, repeat(runs_dir))
    if jobs > 1:
        # Imported here: it costs every other run several milliseconds.
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_write_run, *args))
    else:
        reports = map(_write_run, *args)

    type_names = [t.name for t in config.cloud.catalog]
    summary = io.StringIO()
    summary_writer = csv.writer(summary, lineterminator="\n")
    summary_writer.writerow(list(SUMMARY_COLUMNS) + [f"vms_{n}" for n in type_names])
    reports_by_rate: dict[float, list[MetricsReport]] = {}
    manifest_runs = []
    for spec, report in zip(specs, reports):
        summary_writer.writerow(_summary_row(spec, report, type_names))
        reports_by_rate.setdefault(spec.rate, []).append(report)
        manifest_runs.append({**spec._asdict(), "workload_hash": report.workload_hash})
    (out / "summary.csv").write_text(summary.getvalue())

    budget_rows = summarize_budget_met(reports_by_rate)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rate", "workflows", "budget_met_pct", "violations",
                     "mean_violation_ratio"])
    for row in budget_rows:
        ratio = row["mean_violation_ratio"]
        writer.writerow([
            f"{row['rate']:g}", row["workflows"], f"{row['budget_met_pct']:.4f}",
            row["violations"], "" if ratio is None else f"{ratio:.6f}",
        ])
    (out / "budget_summary.csv").write_text(buf.getvalue())

    manifest = {
        "config_hash": config_hash(config),
        "seed_base": config.seed_base,
        "runs": manifest_runs,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    (out / "config.json").write_text(json.dumps(config_to_dict(config), indent=2) + "\n")
    return manifest


class ComparisonRow(NamedTuple):
    """One workflow's makespan and cost of run A over those of run B."""

    workflow_id: str
    makespan_ratio: float
    cost_ratio: float


class ComparisonReport(NamedTuple):
    """Directional comparison of two runs over the same workload."""

    rows: list[ComparisonRow]
    mean_makespan_ratio: float
    mean_cost_ratio: float
    speedup_a_vs_b: float
    fleet_cost_ratio: float
    a_faster: bool
    a_cheaper: bool

    def render(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["workflow_id", "makespan_ratio_a_over_b", "cost_ratio_a_over_b"])
        for row in self.rows:
            writer.writerow([row.workflow_id, f"{row.makespan_ratio:.6f}",
                             f"{row.cost_ratio:.6f}"])
        buf.write(f"# mean_makespan_ratio={self.mean_makespan_ratio:.6f}\n")
        buf.write(f"# mean_cost_ratio={self.mean_cost_ratio:.6f}\n")
        buf.write(f"# speedup_a_vs_b={self.speedup_a_vs_b:.6f}\n")
        buf.write(f"# fleet_cost_ratio={self.fleet_cost_ratio:.6f}\n")
        buf.write(f"# a_faster={self.a_faster} a_cheaper={self.a_cheaper}\n")
        return buf.getvalue()


def compare(report_a: MetricsReport, report_b: MetricsReport) -> ComparisonReport:
    """Per-workflow makespan/cost ratios of A over B plus aggregates."""
    if report_a.workload_hash != report_b.workload_hash:
        raise ManifestMismatch(
            f"workload hashes differ: {report_a.workload_hash[:12]} vs "
            f"{report_b.workload_hash[:12]}")
    b_by_id = {w.workflow_id: w for w in report_b.workflows}
    if not b_by_id or sorted(b_by_id) != sorted(w.workflow_id for w in report_a.workflows):
        raise ManifestMismatch("the reports do not cover the same workflows")
    for w in (*report_a.workflows, *report_b.workflows):
        if not w.makespan_s > 0:
            raise SchemaError(f"workflow {w.workflow_id!r}: makespan_s must be > 0")
    rows = []
    speedups = []
    for wa in report_a.workflows:
        wb = b_by_id[wa.workflow_id]
        rows.append(ComparisonRow(
            workflow_id=wa.workflow_id,
            makespan_ratio=wa.makespan_s / wb.makespan_s,
            cost_ratio=wa.cost_usd / wb.cost_usd if wb.cost_usd else float("inf"),
        ))
        speedups.append(wb.makespan_s / wa.makespan_s)
    mean_mk = sum(r.makespan_ratio for r in rows) / len(rows)
    mean_cost = sum(r.cost_ratio for r in rows) / len(rows)
    fleet_ratio = (report_a.fleet.total_cost_usd / report_b.fleet.total_cost_usd
                   if report_b.fleet.total_cost_usd else float("inf"))
    return ComparisonReport(
        rows=rows,
        mean_makespan_ratio=mean_mk,
        mean_cost_ratio=mean_cost,
        speedup_a_vs_b=sum(speedups) / len(speedups),
        fleet_cost_ratio=fleet_ratio,
        a_faster=mean_mk < 1.0,
        a_cheaper=fleet_ratio < 1.0,
    )


def _read_report(path: str | Path) -> MetricsReport:
    text = read_file(path, SchemaError)
    try:
        return report_from_json(text)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def compare_files(path_a: str | Path, path_b: str | Path) -> ComparisonReport:
    return compare(_read_report(path_a), _read_report(path_b))
