"""Runtime estimator: oracle mode, windowed history, cross-type scaling."""

import math
import random

import pytest

from waasim.cloud import default_catalog
from waasim.errors import ConfigError
from waasim.estimator import EstimatorConfig, RuntimeEstimator

CATALOG = default_catalog()
TYPES = {t.name: t for t in CATALOG}
# The model runtime passed where history decides: far from every record, so
# an estimate that read it would show.
MODEL = 1e6


def make(mode="history", window=10, margin=1.5):
    return RuntimeEstimator(EstimatorConfig(mode, window, margin))


def test_oracle_divides_by_speed():
    est = make("oracle")
    assert est.estimate("k", TYPES["t2.large"], 120.0) == 60.0
    assert est.estimate("k", TYPES["t2.micro"], reference_runtime=50.0) == 50.0


def test_history_window_mean():
    est = make(window=2)
    est.record("k", TYPES["t2.micro"], 50.0)
    est.record("k", TYPES["t2.micro"], 70.0)
    assert est.estimate("k", TYPES["t2.micro"], MODEL) == 60.0


def test_cross_type_scaling():
    est = make(window=5)
    est.record("k", TYPES["t2.micro"], 100.0)  # speed 1.0
    assert est.estimate("k", TYPES["t2.large"], MODEL) == 50.0  # speed 2.0


def test_record_then_estimate_online():
    est = make(window=1)
    est.record("k", TYPES["t2.small"], 33.0)
    assert est.estimate("k", TYPES["t2.small"], MODEL) == 33.0
    est.record("k", TYPES["t2.small"], 44.0)
    assert est.estimate("k", TYPES["t2.small"], MODEL) == 44.0


def test_window_mean_against_bruteforce():
    rng = random.Random(4242)
    window = 7
    est = make(window=window)
    records = []
    for _ in range(1000):
        vm_type, runtime = rng.choice(CATALOG), rng.uniform(1.0, 500.0)
        records.append((vm_type, runtime))
        est.record("k", vm_type, runtime)
    for vm_type in CATALOG:
        same = [runtime for t, runtime in records if t is vm_type]
        expected = sum(same[-window:]) / len(same[-window:])
        assert est.estimate("k", vm_type, MODEL) == pytest.approx(expected)


def test_window_independence_of_old_records():
    est = make(window=3)
    for value in (100.0, 999.0, 10.0, 20.0, 30.0):
        est.record("k", TYPES["t2.micro"], value)
    assert est.estimate("k", TYPES["t2.micro"], MODEL) == 20.0


def test_cold_start_margin():
    est = make(window=3, margin=1.5)
    assert est.estimate("fresh", TYPES["t2.large"], 100.0) == 100.0 / 2.0 * 1.5


def test_monotone_in_speed_factor():
    """Faster type never gets a larger estimate under model-consistent data."""
    rng = random.Random(99)
    est = make(window=10)
    ref = 100.0
    for _ in range(200):
        vm_type = CATALOG[rng.randrange(len(CATALOG))]
        noise = rng.uniform(0.95, 1.05)
        est.record("k", vm_type, ref / vm_type.speed_factor * noise)
    ordered = sorted(CATALOG, key=lambda t: t.speed_factor)
    estimates = [est.estimate("k", t, MODEL) for t in ordered]
    assert all(b <= a for a, b in zip(estimates, estimates[1:]))
    assert all(e > 0 for e in estimates)


def test_config_validation():
    with pytest.raises(ConfigError):
        EstimatorConfig(mode="magic")
    with pytest.raises(ConfigError):
        EstimatorConfig(window=0)
    with pytest.raises(ConfigError, match="integer"):
        EstimatorConfig(window=2.0)
    with pytest.raises(ConfigError, match="integer"):
        EstimatorConfig(window=True)
    with pytest.raises(ConfigError, match="cold_start_margin"):
        EstimatorConfig(cold_start_margin=math.nan)
    with pytest.raises(ConfigError, match="cold_start_margin"):
        EstimatorConfig(cold_start_margin=math.inf)


def test_oracle_keeps_no_records():
    """No oracle estimate reads the history, so records are dropped."""
    est = make("oracle", window=3)
    before = [est.estimate(k, t, 90.0) for k in ("a", "b") for t in CATALOG]
    for i in range(10):
        assert est.record("ab"[i % 2], CATALOG[i % len(CATALOG)], 7.0 + i) is False
    assert not est._by_type and not est._normalized
    assert [est.estimate(k, t, 90.0) for k in ("a", "b") for t in CATALOG] == before
