"""Per-layer spans recorded around calls into waasim's public functions.

`Tracer.install()` replaces each function or method listed in SPANS with a
wrapper that times the call with `time.perf_counter_ns` and charges its
self time (duration minus the time of wrapped calls nested inside it) to
one time metric. Counts come from call counts and from the sizes of arguments
and return values, so they repeat exactly for a given input. Nothing under
`src/` is changed: the wrappers are attributes set on the loaded modules
and classes, and `uninstall()` puts the originals back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute path, time metric charged with the call's self time).
# Every module binding that refers to the same function object is replaced,
# so `from .x import f` callers are covered too.
SPANS = (
    ("waasim.workflow", "generate_workload", "workflow.generate_s"),
    ("waasim.workflow", "genome_template", "workflow.generate_s"),
    ("waasim.workflow", "vina_template", "workflow.generate_s"),
    ("waasim.workflow", "parse_workload", "workflow.generate_s"),
    ("waasim.workflow", "parse_workflow", "workflow.generate_s"),
    ("waasim.workflow", "WorkflowSpec.copy", "workflow.copy_s"),
    ("waasim.workflow", "workload_hash", "workflow.hash_s"),
    ("waasim.estimator", "RuntimeEstimator.estimate", "estimator.estimate_s"),
    ("waasim.estimator", "RuntimeEstimator.record", "estimator.record_s"),
    ("waasim.scheduler", "compute_eft_us", "scheduler.eft_s"),
    ("waasim.scheduler", "distribute_budget", "scheduler.distribute_s"),
    ("waasim.scheduler", "update_budget", "scheduler.update_s"),
    ("waasim.scheduler", "EbpsmPolicy.schedule_ready", "scheduler.dispatch_s"),
    ("waasim.scheduler", "FcfsPolicy.schedule_ready", "scheduler.dispatch_s"),
    ("waasim.cloud", "Fleet.idle_scan", "cloud.scan_s"),
    ("waasim.cloud", "Fleet.idle_instances", "cloud.scan_s"),
    ("waasim.cloud", "Fleet.unreleased", "cloud.scan_s"),
    ("waasim.cloud", "Fleet.provision", "cloud.lifecycle_s"),
    ("waasim.cloud", "Fleet.mark_available", "cloud.lifecycle_s"),
    ("waasim.cloud", "Fleet.start_task", "cloud.lifecycle_s"),
    ("waasim.cloud", "Fleet.finish_task", "cloud.lifecycle_s"),
    ("waasim.cloud", "Fleet.terminate", "cloud.lifecycle_s"),
    ("waasim.engine", "run", "engine.loop_self_s"),
    ("waasim.engine", "checkpoint_trace", "engine.trace_render_s"),
    ("waasim.metrics", "MetricsReport.to_dict", "metrics.report_s"),
    ("waasim.metrics", "report_to_json", "metrics.report_s"),
    ("waasim.metrics", "report_from_json", "metrics.report_s"),
    ("waasim.metrics", "workflows_to_csv", "metrics.csv_s"),
    ("waasim.metrics", "assignments_to_csv", "metrics.csv_s"),
    ("waasim.experiment", "run_experiment", "experiment.write_s"),
)

def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._child_ns: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _update_tasks(self, args: tuple, result) -> None:
        self.counts["scheduler.update_tasks"] += len(args[3])

    def _dispatched(self, args: tuple, result) -> None:
        self.counts["scheduler.decisions"] += len(result)
        self.counts["scheduler.reuses"] += sum(
            1 for action in result if type(action).__name__ == "Assign")

    def _scanned(self, args: tuple, result) -> None:
        self.counts["cloud.instances_scanned"] += len(args[0].instances)

    def _idle_listed(self, args: tuple, result) -> None:
        self._scanned(args, result)
        self.counts["scheduler.idle_vms_examined"] += len(result)

    def _simulated(self, args: tuple, result) -> None:
        self.counts["engine.events"] += len(result.trace)

    def _counter(self, path: str):
        """The hook that derives counts from a call's arguments and result."""
        return {
            "update_budget": self._update_tasks,
            "EbpsmPolicy.schedule_ready": self._dispatched,
            "FcfsPolicy.schedule_ready": self._dispatched,
            "Fleet.idle_scan": self._scanned,
            "Fleet.unreleased": self._scanned,
            "Fleet.idle_instances": self._idle_listed,
            "run": self._simulated,
        }.get(path)

    def _wrap(self, fn, path: str, metric: str):
        child_ns = self._child_ns
        self_ns, total_ns, calls = self.self_ns, self.total_ns, self.calls
        count = self._counter(path)
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[metric] += elapsed - child_ns.pop()
                total_ns[metric] += elapsed
                calls[path] += 1
                if child_ns:
                    child_ns[-1] += elapsed
            if count is not None:
                count(args, result)
            return result

        return span

    def install(self) -> None:
        for module, path, metric in SPANS:
            owner, name = _resolve(module, path)
            original = getattr(owner, name)
            wrapped = self._wrap(original, path, metric)
            targets = [owner]
            if owner is sys.modules[module]:
                targets = [m for n, m in sys.modules.items()
                           if n.split(".")[0] == "waasim"
                           and getattr(m, name, None) is original]
            for target in targets:
                self._patched.append((target, name, original))
                setattr(target, name, wrapped)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patched):
            setattr(target, name, original)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        calls, counts = self.calls, self.counts
        out = {metric: self.self_ns[metric] / 1e9 for _, _, metric in SPANS}
        decisions = counts["scheduler.decisions"]
        engine_s = self.total_ns["engine.loop_self_s"] / 1e9
        out.update({
            "workflow.copy_calls": calls["WorkflowSpec.copy"],
            "estimator.estimate_calls": calls["RuntimeEstimator.estimate"],
            "scheduler.distribute_calls": calls["distribute_budget"],
            "scheduler.update_calls": calls["update_budget"],
            "scheduler.update_tasks": counts["scheduler.update_tasks"],
            "scheduler.decisions": decisions,
            "scheduler.idle_vms_examined": counts["scheduler.idle_vms_examined"],
            "scheduler.reuse_ratio": counts["scheduler.reuses"] / decisions if decisions else 0.0,
            "cloud.scan_calls": sum(calls[p] for p in
                                    ("Fleet.idle_scan", "Fleet.idle_instances",
                                     "Fleet.unreleased")),
            "cloud.instances_scanned": counts["cloud.instances_scanned"],
            "cloud.vms_leased": calls["Fleet.provision"],
            "engine.events": counts["engine.events"],
            "engine.events_per_s": counts["engine.events"] / engine_s if engine_s else 0.0,
        })
        return out
