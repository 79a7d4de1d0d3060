"""Task runtime estimation from execution history.

Two modes: "oracle" returns the exact model runtime; "history" keeps a
windowed moving average per task kind, scaled across VM types by the
speed-factor ratio when the target type has no records yet.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, UnknownKind
from .cloud import VmType


@dataclass(frozen=True)
class ExecutionRecord:
    task_kind: str
    vm_type_name: str
    actual_runtime: float

    def __post_init__(self) -> None:
        if self.actual_runtime <= 0:
            raise ValueError("actual_runtime must be > 0")


@dataclass(frozen=True)
class EstimatorConfig:
    mode: str = "history"  # "oracle" or "history"
    window: int = 10
    cold_start_margin: float = 1.5

    def __post_init__(self) -> None:
        if self.mode not in ("oracle", "history"):
            raise ConfigError(f"unknown estimator mode {self.mode!r}")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.cold_start_margin < 1:
            raise ConfigError("cold_start_margin must be >= 1")


class RuntimeEstimator:
    """Online estimate source; records are appended as tasks complete."""

    def __init__(self, config: EstimatorConfig, catalog: tuple[VmType, ...]):
        self.config = config
        self.catalog = {t.name: t for t in catalog}
        self._records: dict[str, list[ExecutionRecord]] = {}
        self._reference: dict[str, float] = {}

    def register_kind(self, kind: str, reference_runtime: float) -> None:
        """Register a kind's model runtime (used for oracle and cold start)."""
        self._reference[kind] = reference_runtime

    def record(self, rec: ExecutionRecord) -> None:
        self._records.setdefault(rec.task_kind, []).append(rec)

    def load_history_csv(self, path: str | Path) -> int:
        """Bootstrap history from `kind,vm_type,actual_runtime` rows."""
        count = 0
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].strip().startswith("#"):
                    continue
                kind, vm_type, runtime = row[0].strip(), row[1].strip(), float(row[2])
                self.record(ExecutionRecord(kind, vm_type, runtime))
                count += 1
        return count

    def estimate(self, kind: str, vm_type: VmType,
                 reference_runtime: float | None = None) -> float:
        """Estimated runtime of a `kind` task on `vm_type`, in seconds."""
        if reference_runtime is None:
            reference_runtime = self._reference.get(kind)
        records = self._records.get(kind, [])
        if self.config.mode == "oracle":
            if reference_runtime is None:
                raise UnknownKind(f"no registered runtime for kind {kind!r}")
            return reference_runtime / vm_type.speed_factor

        same_type = [r for r in records if r.vm_type_name == vm_type.name]
        if same_type:
            window = same_type[-self.config.window:]
            return sum(r.actual_runtime for r in window) / len(window)
        if records:
            window = records[-self.config.window:]
            normalized = [
                r.actual_runtime * self.catalog[r.vm_type_name].speed_factor
                for r in window
            ]
            return sum(normalized) / len(normalized) / vm_type.speed_factor
        if reference_runtime is None:
            raise UnknownKind(f"no records or registered runtime for kind {kind!r}")
        return reference_runtime / vm_type.speed_factor * self.config.cold_start_margin
