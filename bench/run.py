"""waasim benchmark: seeded workloads, timed end to end, every output audited.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. --seed N names INPUTS_PER_SEED
inputs. A round runs one repetition of each, one after another, each in a
fresh interpreter (`bench/rep.py`). The run does whole rounds, at least
MIN_ROUNDS, and no more once another round would end after S seconds. Each
repetition is one attempted operation; it fails if the process exits
non-zero or the independent audit (`bench/audit.py`) rejects its outputs.
The last line of standard output is one JSON object: with --trace 0 the
end-to-end metrics (medians over the repetitions), with --trace 1 the
per-layer metrics of traced repetitions (`bench/layers.py`). Raw figures
and each repetition's result digest go to standard error. The exit code is
0 only when every repetition passed.

Shared hosts change speed by up to 1.8x for seconds to minutes at a time.
So a fixed reference kernel is timed just before and just after each
repetition, and every reported time is the host time scaled to the speed
at which that kernel takes REFERENCE_S (see bench/README.md)."""

from __future__ import annotations

import argparse
import heapq
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from audit import audit_run, digest
from rep import ROOT, SRC, WORKLOADS

OUT = ROOT / "bench" / "out"
# Each --seed names INPUTS_PER_SEED inputs, one repetition each per round, so
# a run's medians average over several workload draws, not one.
INPUTS_PER_SEED = 8
MIN_ROUNDS = 1
REFERENCE_TABLE = 200_000
REFERENCE_OPS = 20_000
REFERENCE_SAMPLES = 3
# Reference-kernel time on the 2-vCPU (2.1 GHz) host the README figures come
# from, in its fast phase; corrected times are host times at that speed.
REFERENCE_S = 0.040
REP_TIMEOUT_S = 120


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class ReferenceKernel:
    """Fixed pure-Python work of the simulator's kind: random lookups in a
    table of small objects too large for the caches, and heap pushes and
    pops of tuples. It never touches waasim, so a change to the program
    cannot change its time; its time tracks the host's speed."""

    def __init__(self):
        self.table = {i: (i, str(i), [i]) for i in range(REFERENCE_TABLE)}

    def _once(self) -> int:
        table, heap, x, total = self.table, [], 12345, 0
        for i in range(REFERENCE_OPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            total += table[x % REFERENCE_TABLE][2][0]
            heapq.heappush(heap, (x & 1023, i))
            if len(heap) > 64:
                heapq.heappop(heap)
        return total

    def seconds(self) -> float:
        """Median time of REFERENCE_SAMPLES runs of the kernel."""
        samples = []
        for _ in range(REFERENCE_SAMPLES):
            start = time.perf_counter()
            self._once()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)


E2E_UNITS = {"sim_tasks_per_s": "tasks/s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def _warm_up() -> None:
    """Import the package once so bytecode compilation is not timed."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import waasim.cli"
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   timeout=REP_TIMEOUT_S)


def _audit(out: Path) -> tuple[int, list[str], str]:
    """Audit every simulation of one repetition; return (tasks, problems, digest)."""
    inputs = json.loads((out / "audit.json").read_text())
    tasks, problems, reports = 0, [], []
    for run in inputs["runs"]:
        workload = json.loads((out / run["workload"]).read_text())
        report = json.loads((out / run["report"]).read_text())
        found = audit_run(workload, inputs["cloud"], inputs["estimator"], run["scheduler"],
                          (out / run["trace"]).read_text(), report)
        problems += [f"{run['run_id']}: {p}" for p in found]
        tasks += sum(len(wf["tasks"]) for wf in workload["workflows"])
        reports.append(report)
    return tasks, problems, digest(reports)


def _repetition(kernel: ReferenceKernel, workload: str, seed: int, trace: bool,
                out: Path) -> dict:
    """Run one repetition; return its measurements or raise RuntimeError."""
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(ROOT / "bench" / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)] + (["--trace"] if trace else [])
    machine_before = kernel.seconds()
    t_spawn = time.monotonic_ns()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    machine_after = kernel.seconds()
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    try:
        tasks, problems, result_digest = _audit(out)
    except (OSError, KeyError, ValueError) as exc:
        raise RuntimeError(f"audit could not read the outputs: {exc!r}") from exc
    if problems:
        raise RuntimeError("audit failed:\n  " + "\n  ".join(problems))
    shutil.rmtree(out, ignore_errors=True)

    raw = {
        "sim_tasks_per_s": tasks * 1e9 / (line["t_sim_end"] - line["t_sim_start"]),
        "wall_s": (line["t_out_end"] - t_spawn) / 1e9,
        "setup_s": (line["t_setup_end"] - t_spawn) / 1e9,
        "peak_rss_mb": line["peak_rss_kb"] / 1024,
    }
    raw.update(line.get("layers", {}))
    if trace:
        raw["traced_wall_s"] = raw["wall_s"]
    speed = REFERENCE_S / ((machine_before + machine_after) / 2)
    return {"raw": raw, "speed": speed, "digest": result_digest,
            "metrics": {name: _speed_corrected(name, value, speed)
                        for name, value in raw.items()}}


def _speed_corrected(name: str, value: float, speed: float) -> float:
    """Express a host time at the reference speed: times scale by `speed`,
    rates by its inverse; sizes and counts are left as measured."""
    kind = unit(name)
    if kind == "s":
        return value * speed
    if kind.endswith("/s"):
        return value / speed
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "waasim" / "__init__.py").is_file():
        _log(f"error: no waasim sources under {SRC}; run from a source checkout")
        return 2
    _warm_up()
    kernel = ReferenceKernel()

    out = OUT / f"{args.workload}-{args.seed}{'-trace' if args.trace else ''}"
    inputs = [args.seed * INPUTS_PER_SEED + k for k in range(INPUTS_PER_SEED)]
    reps: list[dict] = []
    attempted = failed = rounds = 0
    start = time.monotonic()
    round_s = 0.0
    while rounds < MIN_ROUNDS or time.monotonic() - start + round_s <= args.seconds:
        round_start = time.monotonic()
        for input_seed in inputs:
            attempted += 1
            try:
                rep = _repetition(kernel, args.workload, input_seed, bool(args.trace), out)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                failed += 1
                _log(f"rep {attempted} (input seed {input_seed}): FAILED {exc}")
                continue
            reps.append(rep)
            raw = rep["raw"]
            _log(f"rep {attempted} (input seed {input_seed}): speed={rep['speed']:.4f} "
                 f"raw wall_s={raw['wall_s']:.4f} setup_s={raw['setup_s']:.4f} "
                 f"sim_tasks_per_s={raw['sim_tasks_per_s']:.1f} "
                 f"peak_rss_mb={raw['peak_rss_mb']:.1f} digest={rep['digest']}")
        rounds += 1
        round_s = time.monotonic() - round_start

    names = [n for n in (reps[0]["metrics"] if reps else ())
             if (n in E2E_UNITS) != bool(args.trace)]
    # median_low keeps a per-layer count whole: it is one input's own count.
    median = statistics.median_low if args.trace else statistics.median
    metrics = {n: {"value": median([r["metrics"][n] for r in reps]), "unit": unit(n)}
               for n in sorted(names)}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
