"""Task runtime estimation from execution history.

Two modes: "oracle" returns the exact model runtime; "history" averages
the last `window` runtimes of a task kind on the target VM type or, when
that type has no records yet, the last `window` runtimes of the kind on any
type, normalized by speed factor.
"""

from __future__ import annotations

import sys
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import partial

from .errors import ConfigError
from .cloud import VmType


@dataclass(frozen=True)
class EstimatorConfig:
    mode: str = "history"  # "oracle" or "history"
    window: int = 10
    cold_start_margin: float = 1.5

    def __post_init__(self) -> None:
        if self.mode not in ("oracle", "history"):
            raise ConfigError(f"unknown estimator mode {self.mode!r}")
        if not isinstance(self.window, int) or not 1 <= self.window <= sys.maxsize:
            raise ConfigError(f"estimator.window: must be an integer from 1 to {sys.maxsize}")
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

    def __init__(self, config: EstimatorConfig):
        self.config = config
        window = partial(deque, maxlen=config.window)
        # (kind, vm type name) -> last runtimes on that type, in seconds.
        self._by_type: defaultdict[tuple[str, str], deque[float]] = defaultdict(window)
        # kind -> last runtimes on any type, times that type's speed factor.
        self._normalized: defaultdict[str, deque[float]] = defaultdict(window)

    def record(self, kind: str, vm_type: VmType, runtime_s: float) -> bool:
        """Add a completed `kind` task's runtime on `vm_type`, in seconds.
        Returns whether the record was kept: under "oracle" none is, as no
        oracle estimate reads the records."""
        if self.config.mode == "oracle":
            return False
        self._by_type[kind, vm_type.name].append(runtime_s)
        self._normalized[kind].append(runtime_s * vm_type.speed_factor)
        return True

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
