"""Runtime estimator: oracle mode, windowed history, cross-type scaling."""

import random

import pytest

from waasim.cloud import default_catalog
from waasim.errors import ConfigError, UnknownKind
from waasim.estimator import EstimatorConfig, ExecutionRecord, RuntimeEstimator

CATALOG = default_catalog()
TYPES = {t.name: t for t in CATALOG}


def make(mode="history", window=10, margin=1.5):
    return RuntimeEstimator(EstimatorConfig(mode, window, margin), CATALOG)


def test_oracle_divides_by_speed():
    est = make("oracle")
    est.register_kind("k", 120.0)
    assert est.estimate("k", TYPES["t2.large"]) == 60.0
    assert est.estimate("k", TYPES["t2.micro"], reference_runtime=50.0) == 50.0
    with pytest.raises(UnknownKind):
        est.estimate("unseen", TYPES["t2.micro"])


def test_history_window_mean():
    est = make(window=2)
    est.record(ExecutionRecord("k", "t2.micro", 50.0))
    est.record(ExecutionRecord("k", "t2.micro", 70.0))
    assert est.estimate("k", TYPES["t2.micro"]) == 60.0


def test_cross_type_scaling():
    est = make(window=5)
    est.record(ExecutionRecord("k", "t2.micro", 100.0))  # speed 1.0
    assert est.estimate("k", TYPES["t2.large"]) == 50.0  # speed 2.0


def test_record_then_estimate_online():
    est = make(window=1)
    est.record(ExecutionRecord("k", "t2.small", 33.0))
    assert est.estimate("k", TYPES["t2.small"]) == 33.0
    est.record(ExecutionRecord("k", "t2.small", 44.0))
    assert est.estimate("k", TYPES["t2.small"]) == 44.0


def test_window_mean_against_bruteforce():
    rng = random.Random(4242)
    window = 7
    est = make(window=window)
    names = [t.name for t in CATALOG]
    records = []
    for _ in range(1000):
        rec = ExecutionRecord("k", rng.choice(names), rng.uniform(1.0, 500.0))
        records.append(rec)
        est.record(rec)
    for vm_type in CATALOG:
        same = [r.actual_runtime for r in records if r.vm_type_name == vm_type.name]
        expected = sum(same[-window:]) / len(same[-window:])
        assert est.estimate("k", vm_type) == pytest.approx(expected)


def test_window_independence_of_old_records():
    est = make(window=3)
    for value in (100.0, 999.0, 10.0, 20.0, 30.0):
        est.record(ExecutionRecord("k", "t2.micro", value))
    assert est.estimate("k", TYPES["t2.micro"]) == 20.0


def test_cold_start_margin():
    est = make(window=3, margin=1.5)
    est.register_kind("fresh", 100.0)
    assert est.estimate("fresh", TYPES["t2.large"]) == 100.0 / 2.0 * 1.5


def test_monotone_in_speed_factor():
    """Faster type never gets a larger estimate under model-consistent data."""
    rng = random.Random(99)
    est = make(window=10)
    ref = 100.0
    for _ in range(200):
        vm_type = CATALOG[rng.randrange(len(CATALOG))]
        noise = rng.uniform(0.95, 1.05)
        est.record(ExecutionRecord("k", vm_type.name, ref / vm_type.speed_factor * noise))
    ordered = sorted(CATALOG, key=lambda t: t.speed_factor)
    estimates = [est.estimate("k", t) for t in ordered]
    assert all(b <= a for a, b in zip(estimates, estimates[1:]))
    assert all(e > 0 for e in estimates)


def test_history_csv_bootstrap(tmp_path):
    path = tmp_path / "hist.csv"
    path.write_text("# kind,vm_type,runtime\nk,t2.micro,100\nk,t2.micro,200\n")
    est = make(window=5)
    assert est.load_history_csv(path) == 2
    assert est.estimate("k", TYPES["t2.micro"]) == 150.0


def test_record_unknown_vm_type_names_it():
    est = make()
    with pytest.raises(ConfigError, match="'t9.huge'"):
        est.record(ExecutionRecord("k", "t9.huge", 10.0))


@pytest.mark.parametrize("body, message", [
    ("k,t2.micro,100\nk,t2.micro\n", "line 2: expected kind,vm_type,actual_runtime"),
    ("# header\nk,t2.micro,fast\n", "line 2: actual_runtime 'fast' is not a number"),
    ("k,t2.micro,100\n\nk,t9.huge,100\n", "line 3: .*unknown vm type 't9.huge'"),
    ("k,t2.micro,-5\n", "line 1: actual_runtime must be finite and > 0"),
    ("k,t2.micro,nan\n", "line 1: actual_runtime must be finite and > 0"),
])
def test_history_csv_bad_rows(tmp_path, body, message):
    path = tmp_path / "hist.csv"
    path.write_text(body)
    with pytest.raises(ConfigError, match=message):
        make().load_history_csv(path)


def test_config_validation():
    with pytest.raises(ConfigError):
        EstimatorConfig(mode="magic")
    with pytest.raises(ConfigError):
        EstimatorConfig(window=0)
    with pytest.raises(ConfigError, match="integer"):
        EstimatorConfig(window=2.0)
    with pytest.raises(ValueError):
        ExecutionRecord("k", "t2.micro", 0.0)


@pytest.mark.parametrize("runtime", [float("nan"), float("inf"), float("-inf")])
def test_execution_record_rejects_non_finite(runtime):
    """One such record would make every history estimate of its kind NaN or inf."""
    with pytest.raises(ValueError, match="finite"):
        ExecutionRecord("k", "t2.micro", runtime)
