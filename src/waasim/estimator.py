"""Task runtime estimation from execution history.

Two modes: "oracle" returns the exact model runtime; "history" averages
the last `window` runtimes of a task kind on the target VM type or, when
that type has no records yet, the last `window` runtimes of the kind on any
type, normalized by speed factor.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .errors import ConfigError
from .cloud import VmType


@dataclass(frozen=True)
class ExecutionRecord:
    task_kind: str
    vm_type_name: str
    actual_runtime: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.actual_runtime) and self.actual_runtime > 0):
            raise ValueError("actual_runtime must be finite and > 0")


@dataclass(frozen=True)
class EstimatorConfig:
    mode: str = "history"  # "oracle" or "history"
    window: int = 10
    cold_start_margin: float = 1.5

    def __post_init__(self) -> None:
        if self.mode not in ("oracle", "history"):
            raise ConfigError(f"unknown estimator mode {self.mode!r}")
        if not isinstance(self.window, int) or self.window < 1:
            raise ConfigError("window must be an integer >= 1")
        if self.cold_start_margin < 1:
            raise ConfigError("cold_start_margin must be >= 1")


class RuntimeEstimator:
    """Online estimate source; records are added as tasks complete.

    Only the last `window` runtimes per (kind, type) and per kind are kept,
    so memory is O(kinds x types x window) and an estimate sums at most
    `window` terms. The sums are recomputed, never kept running: they add
    the same terms in the same order as a scan of the full history would,
    so the estimates are exactly equal to it.
    """

    def __init__(self, config: EstimatorConfig, catalog: tuple[VmType, ...]):
        self.config = config
        self.catalog = {t.name: t for t in catalog}
        window = partial(deque, maxlen=config.window)
        # (kind, vm type name) -> last runtimes on that type, in seconds.
        self._by_type: defaultdict[tuple[str, str], deque[float]] = defaultdict(window)
        # kind -> last runtimes on any type, times that type's speed factor.
        self._normalized: defaultdict[str, deque[float]] = defaultdict(window)
        # kind -> number of records that may have changed its estimates.
        self._revisions: dict[str, int] = {}

    def record(self, rec: ExecutionRecord) -> None:
        vm_type = self.catalog.get(rec.vm_type_name)
        if vm_type is None:
            raise ConfigError(
                f"execution record for kind {rec.task_kind!r}: "
                f"unknown vm type {rec.vm_type_name!r}")
        if self.config.mode == "oracle":
            return  # no oracle estimate reads the records
        self._by_type[rec.task_kind, rec.vm_type_name].append(rec.actual_runtime)
        self._normalized[rec.task_kind].append(rec.actual_runtime * vm_type.speed_factor)
        self._revisions[rec.task_kind] = self._revisions.get(rec.task_kind, 0) + 1

    def revision(self, kind: str) -> int:
        """A number that moves whenever a record may have changed the
        estimates of `kind`; under "oracle" no record does, so it never moves."""
        return self._revisions.get(kind, 0)

    def load_history_csv(self, path: str | Path) -> int:
        """Bootstrap history from `kind,vm_type,actual_runtime` rows."""
        count = 0
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or row[0].strip().startswith("#"):
                    continue
                where = f"{path}: line {reader.line_num}"
                if len(row) < 3:
                    raise ConfigError(
                        f"{where}: expected kind,vm_type,actual_runtime, got {len(row)} field(s)")
                kind, vm_type = row[0].strip(), row[1].strip()
                try:
                    runtime = float(row[2])
                except ValueError:
                    raise ConfigError(
                        f"{where}: actual_runtime {row[2].strip()!r} is not a number") from None
                if not math.isfinite(runtime) or runtime <= 0:
                    raise ConfigError(
                        f"{where}: actual_runtime must be finite and > 0, got {runtime!r}")
                try:
                    self.record(ExecutionRecord(kind, vm_type, runtime))
                except ConfigError as exc:
                    raise ConfigError(f"{where}: {exc}") from None
                count += 1
        return count

    def estimate(self, kind: str, vm_type: VmType, reference_runtime: float) -> float:
        """Estimated runtime on `vm_type`, in seconds, of a `kind` task whose
        model runtime is `reference_runtime` (used by oracle and cold start)."""
        if self.config.mode == "oracle":
            return reference_runtime / vm_type.speed_factor

        same_type = self._by_type.get((kind, vm_type.name))
        if same_type:
            return sum(same_type) / len(same_type)
        normalized = self._normalized.get(kind)
        if normalized:
            return sum(normalized) / len(normalized) / vm_type.speed_factor
        return reference_runtime / vm_type.speed_factor * self.config.cold_start_margin
