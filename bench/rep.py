"""One benchmark repetition, run in a fresh interpreter by `bench/run.py`.

    python3 bench/rep.py --workload NAME --seed N --out DIR [--trace]

The process builds its seeded input, simulates it and writes the outputs a
user would keep into DIR. It records monotonic timestamps (comparable with
the parent's clock), its peak resident set at the end of the output phase
and, with --trace, the per-layer figures. Only after that snapshot does it
write `audit.json`, the inputs the independent audit needs, so that work is
outside every timed span. It prints the record as one JSON line.

This module imports waasim only inside functions, so `run.py` can read
WORKLOADS without loading the program under test.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Sizes: a repetition takes 1.5-3 s on a 2-vCPU host at the reference speed,
# long enough for the quadratic path each workload targets to dominate,
# short enough that a 20 s run holds one round of eight repetitions.
MIX_HISTORY_WORKFLOWS = 250
MIX_WIDE_WORKFLOWS = 600
CHAIN_TASKS = 700
CHAIN_KINDS = ("stage", "align", "score", "merge")
SWEEP_WORKFLOWS = 120
SWEEP_RATES = [6.0, 12.0]
SWEEP_SCHEDULERS = ["ebpsm-homogeneous", "fcfs"]


def _peak_rss_kb() -> int:
    """High-water resident set of this process image. Unlike ru_maxrss,
    VmHWM starts afresh at exec, so the parent's size does not leak in."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _now() -> int:
    return time.monotonic_ns()


def _mix_catalog():
    from waasim.experiment import ExperimentConfig
    return ExperimentConfig().build_catalog()


def cloud_doc(cloud) -> dict:
    return {
        "catalog": [{"name": t.name, "price_per_second": t.price_per_second,
                     "speed_factor": t.speed_factor} for t in cloud.catalog],
        "idle_threshold": cloud.idle_threshold,
        "scan_interval": cloud.scan_interval,
        "bill_provisioning": cloud.bill_provisioning,
    }


def chain_document(seed: int) -> dict:
    """A CHAIN_TASKS-long sequential workflow over a few task kinds.

    Each kind gets one seeded runtime, each task a seeded kind and an
    optional staging term. Every runtime is a multiple of 24 s, so it is a
    whole number of seconds on every default type (speed 1.0, 1.2, 1.6, 2.0):
    with fractional runtimes, per-task billing rounds up once per task while
    the VM bill rounds its lease once, and on some seeds the chain's cost
    exceeds the fleet cost, failing the audit (see CHANGES.md). The budget is
    twice the chain's cost on the cheapest default type (t2.micro,
    $0.0000041/s), so redistribution keeps choosing among several types.
    """
    rng = random.Random(seed)
    runtimes = {kind: 24.0 * rng.randint(3, 25) for kind in CHAIN_KINDS}
    tasks = []
    cheapest_nanos = 0
    for i in range(CHAIN_TASKS):
        kind = rng.choice(CHAIN_KINDS)
        transfer = rng.choice((0.0, 0.0, 24.0))
        task = {"id": f"t{i:04d}", "kind": kind, "runtime": runtimes[kind],
                "parents": [f"t{i - 1:04d}"] if i else []}
        if transfer:
            task["transfer"] = transfer
        tasks.append(task)
        cheapest_nanos += int(runtimes[kind] + transfer) * 4100
    return {"id": "chain", "budget": 2 * cheapest_nanos / 1e9, "arrival_time": 0.0,
            "tasks": tasks}


class _Library:
    """A workload run through the library API: build, `engine.run`, write.

    `run` returns the repetition's timestamps and a function that writes
    the audit's inputs; the caller invokes it after the timed section."""

    def __init__(self, scheduler: str, estimator: str):
        self.scheduler = scheduler
        self.estimator = estimator

    def workload(self, seed: int):
        raise NotImplementedError

    def run(self, seed: int, out: Path) -> tuple[dict, Callable[[], dict]]:
        from waasim import CloudConfig, EstimatorConfig, engine
        from waasim.metrics import assignments_to_csv, report_to_json, workflows_to_csv
        from waasim.workflow import serialize_workload

        workload = self.workload(seed)
        cloud = CloudConfig()
        t_sim_start = _now()
        result = engine.run(workload, scheduler=self.scheduler, cloud=cloud,
                            estimator=EstimatorConfig(mode=self.estimator), seed=seed)
        t_sim_end = _now()
        runs = out / "runs"
        runs.mkdir(parents=True)
        (runs / "run.csv").write_text(workflows_to_csv(result.report))
        (runs / "run.assign.csv").write_text(assignments_to_csv(result.assignments))
        (runs / "run.report.json").write_text(report_to_json(result.report))
        (runs / "run.trace").write_text(engine.checkpoint_trace(result.trace))
        timing = {"t_setup_end": t_sim_start, "t_sim_start": t_sim_start,
                  "t_sim_end": t_sim_end, "t_out_end": _now()}

        def audit_inputs() -> dict:
            (out / "run.workload.json").write_text(serialize_workload(workload))
            return {"cloud": cloud_doc(cloud), "estimator": self.estimator,
                    "runs": [{"run_id": "run", "scheduler": self.scheduler,
                              "workload": "run.workload.json",
                              "trace": "runs/run.trace",
                              "report": "runs/run.report.json"}]}
        return timing, audit_inputs


class _Mix(_Library):
    def __init__(self, estimator: str, count: int, rate: float):
        super().__init__("ebpsm", estimator)
        self.count = count
        self.rate = rate

    def workload(self, seed: int):
        from waasim import generate_workload
        return generate_workload(_mix_catalog(), self.count, self.rate, seed)


class _Chain(_Library):
    def __init__(self):
        super().__init__("ebpsm", "oracle")

    def workload(self, seed: int):
        from waasim import parse_workload
        doc = {"arrival_rate": 1.0, "seed": seed, "workflows": [chain_document(seed)]}
        return parse_workload(json.dumps(doc))


class _Sweep:
    """`waasim run --jobs 1` on a config this benchmark writes."""

    def config(self, seed: int, out: Path) -> dict:
        return {
            "cloud": {"catalog": [{"name": "t2.small", "vcpus": 1, "memory_mb": 2048,
                                   "price_per_second": 0.0000082, "speed_factor": 1.2}]},
            "estimator": {"mode": "history"},
            "budget_levels": [1, 2, 3, 4],
            "workflow_count": SWEEP_WORKFLOWS,
            "arrival_rates": SWEEP_RATES,
            "schedulers": SWEEP_SCHEDULERS,
            "repetitions": 1,
            "seed_base": seed,
            "output_dir": str(out / "sweep"),
            "write_traces": True,
        }

    def run(self, seed: int, out: Path) -> tuple[dict, Callable[[], dict]]:
        import waasim.engine
        from waasim.cli import main

        config_path = out / "config.json"
        config_path.write_text(json.dumps(self.config(seed, out), indent=2))
        first_sim: list[int] = []
        engine_run = waasim.engine.run

        def timed_run(*args, **kwargs):
            if not first_sim:
                first_sim.append(_now())
            return engine_run(*args, **kwargs)

        waasim.engine.run = timed_run
        t_main_start = _now()
        code = main(["run", "--jobs", "1", "--config", str(config_path)])
        t_main_end = _now()
        waasim.engine.run = engine_run
        if code != 0:
            raise SystemExit(f"waasim run exited with {code}")
        timing = {"t_setup_end": first_sim[0], "t_sim_start": t_main_start,
                  "t_sim_end": t_main_end, "t_out_end": t_main_end}

        def audit_inputs() -> dict:
            from waasim import generate_workload, load_config
            from waasim.experiment import plan_runs
            from waasim.workflow import serialize_workload

            config = load_config(config_path)
            runs = []
            for spec in plan_runs(config):
                workload = generate_workload(config.build_catalog(), config.workflow_count,
                                             spec.rate, spec.workload_seed)
                name = f"{spec.run_id}.workload.json"
                (out / name).write_text(serialize_workload(workload))
                runs.append({"run_id": spec.run_id, "scheduler": spec.scheduler,
                             "workload": name,
                             "trace": f"sweep/runs/{spec.run_id}.trace",
                             "report": f"sweep/runs/{spec.run_id}.report.json"})
            return {"cloud": cloud_doc(config.cloud),
                    "estimator": config.estimator.mode, "runs": runs}
        return timing, audit_inputs


WORKLOADS = {
    "mix-history": _Mix("history", MIX_HISTORY_WORKFLOWS, 12.0),
    "mix-oracle-wide": _Mix("oracle", MIX_WIDE_WORKFLOWS, 20.0),
    "deep-chain": _Chain(),
    "sweep-cli": _Sweep(),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import waasim  # noqa: F401  (import time belongs to set-up)
    import waasim.cli  # noqa: F401
    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()

    args.out.mkdir(parents=True, exist_ok=True)
    timing, audit_inputs = WORKLOADS[args.workload].run(args.seed, args.out)
    line = dict(timing, peak_rss_kb=_peak_rss_kb())
    if tracer is not None:
        tracer.uninstall()
        line["layers"] = tracer.metrics()
    (args.out / "audit.json").write_text(json.dumps(audit_inputs()))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
