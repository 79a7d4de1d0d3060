"""Command-line interface: exit codes, file outputs, round trips."""

import json
import sys

import pytest

from waasim.cli import main
from waasim.cloud import default_catalog
from waasim.metrics import report_from_json
from waasim.schema import as_dict
from waasim.workflow import parse_workload


def write_config(tmp_path, **overrides):
    doc = {
        "templates": [
            {"name": "vina01", "shape": "vina", "ligand_count": 3,
             "budgets": [0.002, 0.005, 0.008, 0.012],
             "runtimes": [20.0, 12.0, 10.0]},
        ],
        "workflow_count": 4,
        "arrival_rates": [2.0],
        "schedulers": ["ebpsm"],
        "repetitions": 1,
        "seed_base": 3,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_run_command(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()
    assert "wrote 1 runs" in capsys.readouterr().out


def test_run_command_bad_config(tmp_path, capsys):
    config = write_config(tmp_path, schedulers=["bogus"])
    assert main(["run", "--config", str(config)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_run_command_rejects_jobs_below_one(tmp_path, capsys, jobs):
    config = write_config(tmp_path)
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--jobs", jobs, "--out", str(out)]) == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_run_command_bad_list_entries(tmp_path, capsys):
    config = write_config(tmp_path, templates=[
        {"name": "vina01", "shape": "vina", "ligand_cout": 3,
         "budgets": [0.002, 0.005, 0.008, 0.012], "runtimes": [20.0, 12.0, 10.0]}])
    assert main(["run", "--config", str(config)]) == 2
    assert "templates[0]: unknown field 'ligand_cout'" in capsys.readouterr().err

    config = write_config(tmp_path, cloud={"catalog": [5]})
    assert main(["run", "--config", str(config)]) == 2
    assert "cloud.catalog[0]: must be a JSON object" in capsys.readouterr().err


def _vina(**fields):
    return [{"name": "v", "shape": "vina", "ligand_count": 2, "budgets": [0.1],
             "runtimes": [20.0, 12.0], **fields}]


def _catalog(**first):
    """The default catalog, with `first` changed in its first type."""
    catalog = [as_dict(t) for t in default_catalog()]
    catalog[0].update(first)
    return {"catalog": catalog}


# One type whose cost of a long task is an exact integer too large for a float.
_PRICEY = {"catalog": [{"name": "t2.micro", "price_per_second": 1e280, "speed_factor": 1.0}]}


@pytest.mark.parametrize("overrides, field", [
    ({"templates": [{"name": "g", "shape": "genome", "budgets": [0.1], "fan_out": 0}]},
     "templates[g].fan_out: must be >= 1"),
    ({"templates": _vina(ligand_count=0, runtimes=None)},
     "templates[v].ligand_count: must be >= 1"),
    ({"templates": _vina(ligand_count=3)}, "templates[v].runtimes"),
    ({"templates": _vina(runtimes=[0.0, 5.0])},
     "templates[v].runtimes[0]: must be finite and > 0"),
    ({"templates": [{"name": "g", "shape": "genome", "budgets": [0.1],
                     "runtime_profile": {"individual": 1.0}}]},
     "templates[g].runtime_profile: unknown task kind 'individual'"),
    ({"templates": [{"name": "g", "shape": "genome", "budgets": [0.1],
                     "runtime_profile": {"sifting": 0.0}}]},
     "templates[g].runtime_profile.sifting: must be finite and > 0"),
    ({"templates": _vina(budgets=[-1.0, 0.1])}, "templates[v].budgets: must be >= 0"),
    ({"cloud": {"scan_interval": 1e-9}}, "scan_interval"),
    ({"cloud": {"variability": {"mode": "lognormal", "sigma": 1000.0}}},
     "variability.sigma"),
    ({"templates": _vina(budgets=[1e300])}, "cannot be counted in integer nano-dollars"),
    ({"cloud": _catalog(price_per_second=1e300)}, "cannot be counted in integer nano-dollars"),
    ({"cloud": _catalog(speed_factor=1e-310)}, "cannot be counted in integer microseconds"),
    ({"templates": _vina(runtimes=[1e303, 20.0])}, "cannot be counted in integer microseconds"),
    ({"cloud": {"provisioning_delay": 1e303}}, "cannot be counted in integer microseconds"),
    ({"arrival_rates": [1e-310]}, "cannot be counted in integer microseconds"),
    ({"estimator": {"cold_start_margin": 1e308}}, "cannot be counted in integer microseconds"),
    ({"cloud": _PRICEY, "templates": _vina(runtimes=[1e295, 20.0])},
     "workflow 'wf000-v': its cost or time is too large to report as a float"),
    ({"cloud": _PRICEY,
      "templates": _vina(budgets=[1e299], runtimes=[1.2e19, 20.0]), "workflow_count": 2},
     "the fleet: its cost or time is too large to report as a float"),
    # 100 times the busy time overflows to an infinite utilization.
    ({"templates": _vina(runtimes=[1e300, 20.0])},
     "the fleet: its cost or time is too large to report as a float"),
], ids=["fan_out", "ligand_count", "runtimes", "runtime_value", "runtime_profile",
        "runtime_profile_value", "budgets",
        "scan_interval", "sigma", "huge_budget", "huge_price", "tiny_speed",
        "huge_runtime", "huge_delay", "tiny_rate", "huge_margin", "huge_cost",
        "huge_fleet_cost", "huge_busy_time"])
def test_run_command_rejects_values_that_fail_mid_run(tmp_path, capsys, overrides, field):
    config = write_config(tmp_path, budget_levels=[1], **overrides)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("overrides, message", [
    ({"schedulers": ["ebpsm", "fcfs"]},
     "schedulers: fcfs scheduling requires a single-type catalog"),
    ({"schedulers": ["ebpsm-homogeneous"]},
     "schedulers: homogeneous scheduling requires a single-type catalog"),
    ({"templates": [{"name": "x", "shape": "blob", "budgets": [0.1]}]},
     "templates[x].shape: unknown shape 'blob'"),
    ({"schedulers": ["ebpsm", "ebpsm"]}, "schedulers: 'ebpsm' is listed twice"),
    ({"arrival_rates": [6.0, 6.0000001]},
     "arrival_rates: 6.0 and 6.0000001 share the run label rate6"),
    ({"estimator": {"window": 2**63}},
     f"config.estimator.window: must be an integer from 1 to {sys.maxsize}"),
    ({"templates": _vina(ligand_count=10**30, runtimes=None)},
     f"templates[v].ligand_count: must be >= 1 and <= {sys.maxsize}"),
    # Fails the size check of the first allocation at once: nothing is allocated.
    ({"templates": _vina(ligand_count=2**62, runtimes=None)},
     "templates[v].ligand_count: too many tasks to build"),
    ({"templates": [{"name": "g", "shape": "genome", "budgets": [0.1], "fan_out": 10**30}]},
     f"templates[g].fan_out: must be >= 1 and <= {sys.maxsize}"),
    # As above: the first allocation fails its size check before any task is built.
    ({"templates": [{"name": "g", "shape": "genome", "budgets": [0.1], "fan_out": 2**62}]},
     "templates[g].fan_out: too many tasks to build"),
    # Integers too large for a float, where a float belongs.
    ({"estimator": {"cold_start_margin": 10**400}},
     "config.estimator.cold_start_margin: must be finite"),
    ({"cloud": {"variability": {"mode": "lognormal", "sigma": 10**400}}},
     "config.cloud.variability.sigma: must be finite"),
    ({"cloud": _catalog(price_per_second=10**400)},
     "config.cloud.catalog[0].price_per_second: must be finite"),
    ({"cloud": _catalog(speed_factor=10**400)},
     "config.cloud.catalog[0].speed_factor: must be finite"),
    # A type that would bill 0 nano-dollars for every task and lease.
    ({"cloud": _catalog(name="penny", price_per_second=1e-10)},
     "vm type 'penny': price_per_second must be >= 1e-09 (one nano-dollar per second)"),
    # A price whose nano-dollar count would overflow at the first bill.
    ({"cloud": _catalog(price_per_second=1e300)},
     "vm type 't2.micro': price_per_second $1e+300 cannot be counted in integer nano-dollars"),
    ({"templates": _vina(budgets=[10**400])}, "config.templates[0].budgets[0]: must be finite"),
    # A lone surrogate, which the escape \ud800 gives, cannot be written out.
    ({"templates": _vina(name="v\ud800")},
     "config.templates[0].name: must be encodable as UTF-8"),
    # A path no file system call accepts.
    ({"output_dir": "res\u0000ults"}, "output_dir: must not contain a NUL character"),
], ids=["fcfs", "homogeneous", "shape", "same_scheduler", "same_rate_label", "huge_window",
        "huge_ligand_count", "unbuildable_ligand_count", "huge_fan_out",
        "unbuildable_fan_out", "huge_int_margin", "huge_int_sigma",
        "huge_int_price", "huge_int_speed", "tiny_price", "huge_price", "huge_int_budget",
        "surrogate_name", "nul_output_dir"])
def test_run_command_rejects_at_load_what_a_run_would_reject(tmp_path, capsys, overrides,
                                                              message):
    """A scheduler that cannot run on the (default, four-type) catalog, a
    template that cannot be built, runs that would share a run id, a
    size too large for an index and a value the decoder cannot read stop
    the sweep before any run is written."""
    config = write_config(tmp_path, budget_levels=[1], **overrides)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_run_command_with_large_sigma(tmp_path, capsys):
    """sigma 50 draws runtimes that round to 0 us."""
    config = write_config(tmp_path, estimator={"mode": "history"},
                          cloud={"variability": {"mode": "lognormal", "sigma": 50.0}})
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert "wrote 1 runs" in capsys.readouterr().out


def test_zero_budget_report_is_strict_json(tmp_path):
    config = write_config(tmp_path, templates=[
        {"name": "v", "shape": "vina", "ligand_count": 1, "budgets": [0.0],
         "runtimes": [20.0]}],
        budget_levels=[1], workflow_count=1, schedulers=["fcfs"],
        cloud={"catalog": [{"name": "t2.micro", "price_per_second": 0.0000041,
                            "speed_factor": 1.0}]})
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    path = out / "runs" / "fcfs_rate2_rep0.report.json"

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    doc = json.loads(path.read_text(), parse_constant=reject)
    assert doc["workflows"][0]["cost_per_budget"] is None
    report = report_from_json(path.read_text())
    assert report.workflows[0].cost_per_budget == float("inf")
    assert report.violation_ratios() == [float("inf")]


def test_run_command_missing_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    for argv in (["run", "--config", str(tmp_path)],
                 ["validate", "--workflow", str(tmp_path)],
                 ["compare", str(tmp_path), str(tmp_path)]):
        capsys.readouterr()
        assert main(argv) == 2
        assert "Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate", "compare"])
def test_document_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    """Each document file is read as UTF-8, and one that is not is an
    error naming the file, not a traceback."""
    path = tmp_path / "doc.json"
    path.write_bytes(b'\xff{"id": "w"}')
    argv = {"run": ["run", "--config", str(path)],
            "validate": ["validate", "--workflow", str(path)],
            "compare": ["compare", str(path), str(path)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text: ") and "0xff" in err


def test_validate_command(tmp_path, capsys):
    doc = {"id": "w", "budget": 0.5, "tasks": [
        {"id": "A", "kind": "a", "runtime": 5, "parents": []},
        {"id": "B", "kind": "b", "runtime": 5, "parents": ["A"]},
    ]}
    path = tmp_path / "wf.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--workflow", str(path)]) == 0
    assert "2 tasks" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"id": "w", "budget": 0.5, "tasks": [
        {"id": "A", "kind": "a", "runtime": 5, "parents": ["Z"]},
    ]}))
    assert main(["validate", "--workflow", str(bad)]) == 2

    bad.write_text('{"id": "w", "budget": NaN,'
                   ' "tasks": [{"id": "A", "kind": "a", "runtime": 1e999}]}')
    capsys.readouterr()
    assert main(["validate", "--workflow", str(bad)]) == 2
    assert capsys.readouterr().err == "error: workflow.budget: must be finite\n"


@pytest.mark.parametrize("task, message", [
    ({"runtime": True}, "workflow.tasks[0].runtime: expected float"),
    ({"runtime": "300"}, "workflow.tasks[0].runtime: expected float"),
    ({"runtime": 10**400}, "workflow.tasks[0].runtime: must be finite"),
    ({"kind": None}, "workflow.tasks[0].kind: expected str"),
    ({"id": {"a": 1}}, "workflow.tasks[0].id: expected str"),
    ({"parents": [1]}, "workflow.tasks[0].parents[0]: expected str"),
    ({"transfr": 5.0}, "workflow.tasks[0]: unknown field 'transfr'"),
], ids=["bool_runtime", "string_runtime", "huge_int_runtime", "null_kind", "object_id",
        "int_parent", "unknown_field"])
def test_validate_rejects_mistyped_fields(tmp_path, capsys, task, message):
    """A value of the wrong JSON type is rejected, not converted."""
    path = tmp_path / "wf.json"
    path.write_text(json.dumps({"id": "w", "budget": 0.5, "tasks": [
        {"id": "A", "kind": "a", "runtime": 5, **task}]}))
    assert main(["validate", "--workflow", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ('{"id": "w", "budget": ' + "1" * 5000 + "}", "Exceeds the limit (4300 digits)"),
    ("[" * 100_000, "maximum recursion depth exceeded"),
], ids=["too_many_digits", "too_deep"])
def test_validate_rejects_json_too_long_or_deep_to_read(tmp_path, capsys, text, message):
    path = tmp_path / "wf.json"
    path.write_text(text)
    assert main(["validate", "--workflow", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: workflow: invalid JSON: ") and message in err


def test_gen_workload_roundtrip(tmp_path, capsys):
    out = tmp_path / "wl.json"
    args = ["gen-workload", "--template", "chr22", "--template", "vina01",
            "--count", "6", "--rate", "0.5", "--seed", "11", "--out", str(out)]
    assert main(args) == 0
    workload = parse_workload(out.read_text())
    assert len(workload.workflows) == 6
    assert workload.arrival_rate == 0.5

    again = tmp_path / "wl2.json"
    assert main(args[:-1] + [str(again)]) == 0
    assert out.read_text() == again.read_text()


def test_gen_workload_stdout_and_budget_level(capsys):
    assert main(["gen-workload", "--template", "vina02", "--count", "2",
                 "--rate", "6", "--seed", "1", "--budget-level", "2"]) == 0
    workload = parse_workload(capsys.readouterr().out)
    assert {w.budget for w in workload.workflows} == {0.04}


@pytest.mark.parametrize("rate", ["nan", "inf", "0"])
def test_gen_workload_rejects_bad_rate(capsys, rate):
    assert main(["gen-workload", "--template", "vina02", "--count", "2",
                 f"--rate={rate}", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rate must be finite and > 0\n"


def test_gen_workload_rejects_a_rate_too_small_for_finite_arrivals(capsys):
    assert main(["gen-workload", "--template", "vina01", "--count", "2",
                 "--rate", "1e-310", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: workflow 'wf000-vina01': arrival time inf s cannot be "
                            "counted in integer microseconds; rate 1e-310 is too small\n")


def test_compare_command(tmp_path, capsys):
    config = write_config(
        tmp_path,
        schedulers=["ebpsm-homogeneous", "fcfs"],
        cloud={"catalog": [{"name": "t2.micro", "vcpus": 1, "memory_mb": 1024,
                            "price_per_second": 0.0000041, "speed_factor": 1.0}]},
    )
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    a = out / "runs" / "ebpsm-homogeneous_rate2_rep0.report.json"
    b = out / "runs" / "fcfs_rate2_rep0.report.json"
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 0
    text = capsys.readouterr().out
    assert "speedup_a_vs_b" in text

    other = write_config(tmp_path, seed_base=99)
    out2 = tmp_path / "results2"
    assert main(["run", "--config", str(other), "--out", str(out2)]) == 0
    c = out2 / "runs" / "ebpsm_rate2_rep0.report.json"
    assert main(["compare", str(a), str(c)]) == 2

    malformed = tmp_path / "malformed.report.json"
    good = json.loads(a.read_text())
    slow = json.loads(a.read_text())
    slow["workflows"][0]["makespan_s"] = "x"
    instant = json.loads(a.read_text())
    instant["workflows"][0]["makespan_s"] = 0.0

    def first_workflow(**fields):
        return {**good, "workflows": [{**good["workflows"][0], **fields},
                                      *good["workflows"][1:]]}
    unpriced = first_workflow()
    del unpriced["workflows"][0]["cost_nanos"]
    for doc, message in (
            ({"scheduler": "x"}, f"{malformed}: report.seed: missing field"),
            ({**good, "workflows": 5}, f"{malformed}: report.workflows: must be a JSON list"),
            (slow, f"{malformed}: report.workflows[0].makespan_s: expected float"),
            ({**good, "fleet": {"vms": 1}}, f"{malformed}: report.fleet: unknown field 'vms'"),
            ({**good, "fleet": None}, f"{malformed}: report.fleet: must be a JSON object"),
            ({**good, "fleet": {**good["fleet"], "vm_counts": [1]}},
             f"{malformed}: report.fleet.vm_counts: must be a JSON object"),
            (first_workflow(budget_met=1),
             f"{malformed}: report.workflows[0].budget_met: expected bool"),
            (unpriced, f"{malformed}: report.workflows[0].cost_nanos: missing field"),
            (first_workflow(makespan_s=10**400),
             f"{malformed}: report.workflows[0].makespan_s: must be finite"),
            (first_workflow(workflow_id="w\ud800"),
             f"{malformed}: report.workflows[0].workflow_id: must be encodable as UTF-8"),
            ({**good, "workflows": []}, "the reports do not cover the same workflows"),
            (instant, f"workflow {good['workflows'][0]['workflow_id']!r}: "
                      "makespan_s must be > 0")):
        malformed.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["compare", str(a), str(malformed)]) == 2
        assert message in capsys.readouterr().err
