"""Independent audit of a simulation's outputs.

Written apart from waasim and importing nothing from it: every expected
value is recomputed from the workload document, the VM catalog and the
event trace, then compared with what the engine wrote. Money is integer
nano-dollars and time integer microseconds, as in the trace.

`audit_run(...)` returns a list of problems; an empty list means the run
passed. `digest(...)` condenses a run's simulated statistics so that two
commits can be compared for identical results.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

US = 1_000_000


def _ceil_s(duration_us: int) -> int:
    return -(-duration_us // US)


def parse_trace(text: str) -> list[tuple[int, str, dict]]:
    events = []
    for line in text.splitlines():
        time_us, name, *rest = line.split("\t")
        fields = dict(item.split("=", 1) for item in rest[0].split(" ")) if rest else {}
        events.append((int(time_us), name, fields))
    return events


class Catalog:
    def __init__(self, cloud: dict):
        self.price = {t["name"]: round(t["price_per_second"] * 1e9) for t in cloud["catalog"]}
        self.speed = {t["name"]: t["speed_factor"] for t in cloud["catalog"]}
        self.cheapest = min(cloud["catalog"],
                            key=lambda t: (t["price_per_second"], -t["speed_factor"],
                                           t["name"]))["name"]
        self.idle_limit_us = round((cloud["idle_threshold"] + cloud["scan_interval"]) * US)
        self.bill_provisioning = cloud.get("bill_provisioning", False)


def _task_seconds(task: dict) -> float:
    return task["runtime"] + task.get("transfer", 0.0)


def audit_run(workload: dict, cloud: dict, estimator: str, scheduler: str,
              trace_text: str, report: dict) -> list[str]:
    cat = Catalog(cloud)
    problems: list[str] = []

    def bad(msg: str) -> None:
        if len(problems) < 20:
            problems.append(msg)

    flows = {wf["id"]: wf for wf in workload["workflows"]}
    tasks = {(wf_id, t["id"]): t for wf_id, wf in flows.items() for t in wf["tasks"]}
    total_tasks = len(tasks)

    arrival: dict[str, int] = {}
    done: dict[str, tuple[int, int, int]] = {}  # wf -> (time, makespan, cost)
    started: dict[tuple, tuple[int, str, int]] = {}  # task -> (time, vm, runtime)
    completed: dict[tuple, int] = {}
    task_cost: dict[tuple, int] = {}
    vm_type: dict[str, str] = {}
    available: dict[str, int] = {}
    provision_at: dict[str, int] = {}
    idle_since: dict[str, int] = {}
    terminated: dict[str, int] = {}
    vm_bill: dict[str, int] = {}
    vms_started = 0

    for t, name, f in parse_trace(trace_text):
        vm = f.get("vm")
        if vm is not None and vm in terminated and name != "vm_released":
            bad(f"{t}: {name} on {vm} after its vm_terminated at {terminated[vm]}")
        if name == "workflow_arrival":
            wf = flows.get(f["workflow"])
            if wf is None:
                bad(f"{t}: arrival of unknown workflow {f['workflow']}")
                continue
            arrival[wf["id"]] = t
            if t != round(wf["arrival_time"] * US):
                bad(f"{wf['id']}: arrived at {t}, workload says {wf['arrival_time']} s")
            if int(f["budget_nanos"]) != round(wf["budget"] * 1e9):
                bad(f"{wf['id']}: budget_nanos {f['budget_nanos']} != {wf['budget']} $")
        elif name == "provision_request":
            provision_at[vm] = t
            vm_type[vm] = f["type"]
        elif name == "vm_available":
            available[vm] = t
            idle_since[vm] = t
            if vm_type.get(vm) != f["type"]:
                bad(f"{vm}: available as {f['type']}, requested as {vm_type.get(vm)}")
        elif name == "task_start":
            key = (f["workflow"], f["task"])
            task = tasks.get(key)
            if task is None or key in started:
                bad(f"{t}: unknown or repeated task_start {key}")
                continue
            if vm not in available or vm_type[vm] != f["type"]:
                bad(f"{t}: {key} started on {vm}, which is not an available {f['type']}")
                continue
            for parent in task.get("parents", []):
                if completed.get((key[0], parent), t + 1) > t:
                    bad(f"{t}: {key} started before parent {parent} completed")
            if vm not in idle_since:
                bad(f"{t}: {key} started on busy {vm}")
            elif t - idle_since[vm] > cat.idle_limit_us:
                bad(f"{vm}: idle {t - idle_since[vm]} us before reuse")
            idle_since.pop(vm, None)
            runtime_us = int(f["runtime_us"])
            if estimator == "oracle":
                exact = round(_task_seconds(task) / cat.speed[f["type"]] * 1e6)
                if runtime_us != exact:
                    bad(f"{key}: runtime_us {runtime_us} != {exact}")
            started[key] = (t, vm, runtime_us)
            vms_started += 1
        elif name == "task_complete":
            key = (f["workflow"], f["task"])
            if key not in started or key in completed:
                bad(f"{t}: task_complete for {key} not started or repeated")
                continue
            start, run_vm, runtime_us = started[key]
            if t != start + runtime_us or vm != run_vm:
                bad(f"{key}: completed at {t} on {vm}, expected {start + runtime_us} on {run_vm}")
            cost = _ceil_s(runtime_us) * cat.price[vm_type[run_vm]]
            if int(f["cost_nanos"]) != cost:
                bad(f"{key}: cost_nanos {f['cost_nanos']} != {cost}")
            completed[key] = t
            task_cost[key] = cost
            idle_since[vm] = t
        elif name == "vm_terminated":
            if vm not in available:
                bad(f"{t}: {vm} terminated before it became available")
                continue
            if vm in idle_since and t - idle_since[vm] > cat.idle_limit_us:
                bad(f"{vm}: idle {t - idle_since[vm]} us before termination")
            if vm not in idle_since:
                bad(f"{t}: {vm} terminated while busy")
            start = provision_at[vm] if cat.bill_provisioning else available[vm]
            billed_s = _ceil_s(t - start)
            bill = billed_s * cat.price[vm_type[vm]]
            if int(f["billed_s"]) != billed_s or int(f["bill_nanos"]) != bill:
                bad(f"{vm}: billed {f['billed_s']} s / {f['bill_nanos']} n, "
                    f"recomputed {billed_s} s / {bill} n")
            terminated[vm] = t
            vm_bill[vm] = bill
        elif name == "workflow_complete":
            wf_id = f["workflow"]
            if wf_id in done or wf_id not in arrival:
                bad(f"{t}: workflow_complete for {wf_id} repeated or before arrival")
                continue
            done[wf_id] = (t, int(f["makespan_us"]), int(f["cost_nanos"]))

    if len(completed) != total_tasks:
        bad(f"{len(completed)} task_complete events for {total_tasks} tasks")
    if set(done) != set(flows):
        bad(f"{len(set(flows) - set(done))} workflows never completed")
    unterminated = set(available) - set(terminated)
    if unterminated:
        bad(f"{len(unterminated)} VMs never terminated, e.g. {sorted(unterminated)[0]}")
    if scheduler == "fcfs" and len(vm_type) != vms_started:
        bad(f"fcfs leased {len(vm_type)} VMs for {vms_started} tasks")

    wf_cost: dict[str, int] = Counter()
    last_done: dict[str, int] = {}
    for (wf_id, _), cost in task_cost.items():
        wf_cost[wf_id] += cost
    for (wf_id, _), t in completed.items():
        last_done[wf_id] = max(t, last_done.get(wf_id, 0))
    reported = {w["workflow_id"]: w for w in report["workflows"]}
    if set(reported) != set(flows):
        bad("report.json lists other workflows than the workload")
    for wf_id, (t, makespan, cost) in done.items():
        expected_makespan = last_done.get(wf_id, -1) - arrival[wf_id]
        rep = reported.get(wf_id, {})
        if t != last_done.get(wf_id) or makespan != expected_makespan \
                or rep.get("makespan_us") != expected_makespan:
            bad(f"{wf_id}: makespan {makespan} / reported {rep.get('makespan_us')}, "
                f"recomputed {expected_makespan}")
        if cost != wf_cost[wf_id] or rep.get("cost_nanos") != wf_cost[wf_id]:
            bad(f"{wf_id}: cost {cost} / reported {rep.get('cost_nanos')}, "
                f"sum of task costs {wf_cost[wf_id]}")

    fleet = report["fleet"]
    fleet_bill = sum(vm_bill.values())
    if fleet["total_cost_nanos"] != fleet_bill:
        bad(f"fleet cost {fleet['total_cost_nanos']} != sum of VM bills {fleet_bill}")
    if sum(wf_cost.values()) > fleet_bill:
        bad(f"workflow cost {sum(wf_cost.values())} exceeds fleet cost {fleet_bill}")
    by_type = Counter(vm_type.values())
    if fleet["total_vms"] != len(vm_type) or any(
            fleet["vm_counts"].get(n, 0) != by_type[n] for n in set(by_type) | set(fleet["vm_counts"])):
        bad(f"fleet VM counts {fleet['vm_counts']} != trace {dict(by_type)}")

    if estimator == "oracle" or len(cat.price) == 1:
        speed, price = cat.speed[cat.cheapest], cat.price[cat.cheapest]
        for wf_id, wf in flows.items():
            floor = sum(_ceil_s(round(_task_seconds(t) / speed * 1e6)) * price
                        for t in wf["tasks"])
            budget = round(wf["budget"] * 1e9)
            if floor <= budget < wf_cost[wf_id]:
                bad(f"{wf_id}: cost {wf_cost[wf_id]} over budget {budget} "
                    f"that covers the cheapest schedule {floor}")
    return problems


def digest(reports: list[dict]) -> str:
    """sha256 over per-workflow makespan_us and cost_nanos, fleet cost and VM
    counts by type of each report, in order."""
    doc = [{
        "workflows": [[w["workflow_id"], w["makespan_us"], w["cost_nanos"]]
                      for w in r["workflows"]],
        "fleet_cost_nanos": r["fleet"]["total_cost_nanos"],
        "vm_counts": r["fleet"]["vm_counts"],
    } for r in reports]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
