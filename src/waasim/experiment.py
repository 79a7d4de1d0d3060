"""Experiment runner: scenario sweeps over arrival rates and schedulers,
metrics aggregation, CSV output and report comparison."""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from itertools import repeat
from pathlib import Path

from . import engine
from .cloud import CloudConfig, VariabilityConfig, VmType
from .errors import ConfigError, ManifestMismatch
from .estimator import EstimatorConfig
from .metrics import (MetricsReport, assignments_to_csv, report_from_json,
                      report_to_json, workflows_to_csv)
from .scheduler import SCHEDULER_NAMES
from .units import substream_seed
from .workflow import (GENOME_RUNTIMES, VINA01_RUNTIMES, VINA02_RUNTIMES,
                       WorkflowSpec, generate_workload, genome_template,
                       vina_template)


@dataclass
class TemplateConfig:
    name: str
    shape: str  # "genome" or "vina"
    budgets: list[float]
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


@dataclass
class ExperimentConfig:
    cloud: CloudConfig = field(default_factory=CloudConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    templates: list[TemplateConfig] = field(default_factory=default_templates)
    budget_levels: list[int] = field(default_factory=lambda: [1, 2, 3, 4])
    workflow_count: int = 20
    arrival_rates: list[float] = field(default_factory=lambda: [0.5, 2.0, 6.0, 12.0])
    schedulers: list[str] = field(default_factory=lambda: ["ebpsm"])
    repetitions: int = 1
    seed_base: int = 42
    output_dir: str = "results"
    write_traces: bool = False

    def validate(self) -> None:
        if self.repetitions < 1:
            raise ConfigError("repetitions: must be >= 1")
        if self.workflow_count < 1:
            raise ConfigError("workflow_count: must be >= 1")
        if not self.arrival_rates or any(
                not math.isfinite(r) or r <= 0 for r in self.arrival_rates):
            raise ConfigError("arrival_rates: every rate must be finite and > 0")
        if not self.schedulers:
            raise ConfigError("schedulers: must be non-empty")
        for name in self.schedulers:
            if name not in SCHEDULER_NAMES:
                raise ConfigError(f"schedulers: unknown scheduler {name!r}")
        if not self.templates:
            raise ConfigError("templates: must be non-empty")
        names = [t.name for t in self.templates]
        if len(set(names)) != len(names):
            raise ConfigError("templates: names must be unique")
        for tpl in self.templates:
            if not tpl.budgets:
                raise ConfigError(f"templates[{tpl.name}].budgets: must be non-empty")
            if any(b <= a for a, b in zip(tpl.budgets, tpl.budgets[1:])):
                raise ConfigError(
                    f"templates[{tpl.name}].budgets: must be strictly increasing")
        if not self.budget_levels:
            raise ConfigError("budget_levels: must be non-empty")
        for level in self.budget_levels:
            for tpl in self.templates:
                if not 1 <= level <= len(tpl.budgets):
                    raise ConfigError(
                        f"budget_levels: level {level} outside templates[{tpl.name}].budgets")

    def build_catalog(self) -> list[tuple[WorkflowSpec, float]]:
        catalog = []
        for tpl in self.templates:
            spec = tpl.build()
            for level in self.budget_levels:
                catalog.append((spec, tpl.budgets[level - 1]))
        return catalog


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}{key}: missing field")
    return doc[key]


# JSON types of scalar fields; checked, never coerced, so config.json keeps them.
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def _known_fields(doc, cls, path: str) -> dict:
    """A copy of `doc`, checked to hold only fields of `cls`, scalars typed and finite."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    annotations = {f.name: f.type for f in fields(cls)}
    for key, value in doc.items():
        if key not in annotations:
            raise ConfigError(f"{path}: unknown field {key!r}")
        allowed = _JSON_TYPES.get(annotations[key])
        if allowed and type(value) not in allowed:
            raise ConfigError(f"{path}.{key}: expected {annotations[key]}")
        if type(value) is float and not math.isfinite(value):
            raise ConfigError(f"{path}.{key}: must be finite")
    return dict(doc)


def _entries(doc, path: str) -> list:
    if not isinstance(doc, list):
        raise ConfigError(f"{path}: must be a JSON list")
    return doc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from parsed JSON."""
    kwargs = _known_fields(doc, ExperimentConfig, "config")
    if "cloud" in kwargs:
        cdoc = _known_fields(kwargs["cloud"], CloudConfig, "cloud")
        if "catalog" in cdoc:
            catalog = []
            for i, t in enumerate(_entries(cdoc["catalog"], "cloud.catalog")):
                path = f"cloud.catalog[{i}]"
                t = _known_fields(t, VmType, path)
                catalog.append(VmType(
                    name=_require(t, "name", f"{path}."),
                    vcpus=int(t.get("vcpus", 1)),
                    memory_mb=int(t.get("memory_mb", 1024)),
                    price_per_second=float(_require(t, "price_per_second", f"{path}.")),
                    speed_factor=float(_require(t, "speed_factor", f"{path}.")),
                ))
            cdoc["catalog"] = tuple(catalog)
        if "variability" in cdoc:
            cdoc["variability"] = VariabilityConfig(
                **_known_fields(cdoc["variability"], VariabilityConfig, "cloud.variability"))
        kwargs["cloud"] = CloudConfig(**cdoc)
    if "estimator" in kwargs:
        kwargs["estimator"] = EstimatorConfig(
            **_known_fields(kwargs["estimator"], EstimatorConfig, "estimator"))
    if "templates" in kwargs:
        templates = []
        for i, t in enumerate(_entries(kwargs["templates"], "templates")):
            path = f"templates[{i}]"
            t = _known_fields(t, TemplateConfig, path)
            for key in ("name", "shape"):
                _require(t, key, f"{path}.")
            t["budgets"] = [float(b) for b in _require(t, "budgets", f"{path}.")]
            templates.append(TemplateConfig(**t))
        kwargs["templates"] = templates
    config = ExperimentConfig(**kwargs)
    config.validate()
    return config


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}") from exc
    return config_from_dict(doc)


def config_to_dict(config: ExperimentConfig) -> dict:
    return asdict(config)


def config_hash(config: ExperimentConfig) -> str:
    text = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _rate_label(rate: float) -> str:
    return f"{rate:g}"


@dataclass
class RunSpec:
    run_id: str
    scheduler: str
    rate: float
    repetition: int
    workload_seed: int
    run_seed: int


def plan_runs(config: ExperimentConfig) -> list[RunSpec]:
    runs = []
    for rate in config.arrival_rates:
        for scheduler in config.schedulers:
            for rep in range(config.repetitions):
                label = _rate_label(rate)
                runs.append(RunSpec(
                    run_id=f"{scheduler}_rate{label}_rep{rep}",
                    scheduler=scheduler,
                    rate=rate,
                    repetition=rep,
                    workload_seed=substream_seed(
                        config.seed_base, f"workload/rate={label}/rep={rep}"),
                    run_seed=substream_seed(
                        config.seed_base, f"run/rate={label}/rep={rep}"),
                ))
    return runs


def execute_run(config: ExperimentConfig, spec: RunSpec) -> engine.SimulationResult:
    workload = generate_workload(config.build_catalog(), config.workflow_count,
                                 spec.rate, spec.workload_seed)
    return engine.run(workload, scheduler=spec.scheduler, cloud=config.cloud,
                      estimator=config.estimator, seed=spec.run_seed)


def _run_outputs(config: ExperimentConfig,
                 spec: RunSpec) -> tuple[MetricsReport, str, str, str | None]:
    """One run's report and the text of its CSVs and (optional) trace."""
    result = execute_run(config, spec)
    trace_text = engine.checkpoint_trace(result.trace) if config.write_traces else None
    return (result.report, workflows_to_csv(result.report),
            assignments_to_csv(result.assignments), trace_text)


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


def _summary_row(spec: RunSpec, report: MetricsReport) -> dict:
    makespans = [w.makespan_s for w in report.workflows]
    return {
        "run_id": spec.run_id,
        "scheduler": spec.scheduler,
        "rate": spec.rate,
        "repetition": spec.repetition,
        "workload_seed": spec.workload_seed,
        "run_seed": spec.run_seed,
        "workflows": len(report.workflows),
        "budget_met_pct": report.budget_met_pct(),
        "mean_makespan_s": sum(makespans) / len(makespans) if makespans else 0.0,
        "total_workflow_cost_usd": sum(w.cost_usd for w in report.workflows),
        "fleet_cost_usd": report.fleet.total_cost_usd,
        "utilization_pct": report.fleet.utilization_pct,
        "vm_count": report.fleet.total_vms,
    }


def _format_summary_csv(rows: list[dict], type_names: list[str]) -> str:
    buf = io.StringIO()
    columns = list(SUMMARY_COLUMNS) + [f"vms_{n}" for n in type_names]
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([
            row["run_id"], row["scheduler"], f"{row['rate']:g}", row["repetition"],
            row["workload_seed"], row["run_seed"], row["workflows"],
            f"{row['budget_met_pct']:.4f}", f"{row['mean_makespan_s']:.6f}",
            f"{row['total_workflow_cost_usd']:.9f}", f"{row['fleet_cost_usd']:.9f}",
            f"{row['utilization_pct']:.4f}", row["vm_count"],
            *[row["vm_counts"].get(n, 0) for n in type_names],
        ])
    return buf.getvalue()


def run_experiment(config: ExperimentConfig, jobs: int = 1,
                   output_dir: str | Path | None = None) -> dict:
    """Run the full sweep; write per-run CSVs, reports, a summary CSV, a
    budget-met summary and a manifest. Returns the manifest."""
    config.validate()
    out = Path(output_dir if output_dir is not None else config.output_dir)
    runs_dir = out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    specs = plan_runs(config)
    jobs = min(jobs, len(specs), os.cpu_count() or 1)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            outputs = list(pool.map(_run_outputs, repeat(config), specs))
    else:
        outputs = map(_run_outputs, repeat(config), specs)

    summary_rows = []
    reports_by_rate: dict[float, list[MetricsReport]] = {}
    manifest_runs = []
    for spec, (report, wf_csv, assign_csv, trace_text) in zip(specs, outputs):
        (runs_dir / f"{spec.run_id}.csv").write_text(wf_csv)
        (runs_dir / f"{spec.run_id}.assign.csv").write_text(assign_csv)
        (runs_dir / f"{spec.run_id}.report.json").write_text(report_to_json(report))
        if trace_text is not None:
            (runs_dir / f"{spec.run_id}.trace").write_text(trace_text)
        row = _summary_row(spec, report)
        row["vm_counts"] = report.fleet.vm_counts
        summary_rows.append(row)
        reports_by_rate.setdefault(spec.rate, []).append(report)
        manifest_runs.append({
            "run_id": spec.run_id,
            "scheduler": spec.scheduler,
            "rate": spec.rate,
            "repetition": spec.repetition,
            "workload_seed": spec.workload_seed,
            "run_seed": spec.run_seed,
            "workload_hash": report.workload_hash,
        })

    type_names = [t.name for t in config.cloud.catalog]
    (out / "summary.csv").write_text(_format_summary_csv(summary_rows, type_names))

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


@dataclass
class ComparisonRow:
    workflow_id: str
    makespan_ratio: float
    cost_ratio: float


@dataclass
class ComparisonReport:
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


def compare_files(path_a: str | Path, path_b: str | Path) -> ComparisonReport:
    return compare(report_from_json(Path(path_a).read_text()),
                   report_from_json(Path(path_b).read_text()))
