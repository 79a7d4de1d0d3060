"""Task runtime estimation from execution history.

Two modes: "oracle" returns the exact model runtime; "history" averages
the last `window` runtimes of a task kind on the target VM type or, when
that type has no records yet, the last `window` runtimes of the kind on any
type, normalized by speed factor.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict, deque
from functools import partial

from .errors import ConfigError
from .cloud import VmType
from .schema import valueclass


class _Window:
    """The last `maxlen` runtimes of one kind (on one type, or normalized),
    and whether all of them are one value, known in O(1): appending that
    value again leaves the window, and so every estimate, as it was."""

    __slots__ = ("values", "run", "full")

    def __init__(self, maxlen: int):
        self.values: deque[float] = deque((), maxlen)
        self.run = 0  # how many values at the end equal the last one
        self.full: float | None = None  # the value every slot holds, if any

    def push(self, value: float) -> None:
        values = self.values
        self.run = self.run + 1 if values and values[-1] == value else 1
        self.full = value if self.run >= values.maxlen else None
        values.append(value)


@valueclass(frozen=True)
class EstimatorConfig:
    """How runtimes are estimated: "oracle" knows them; "history" estimates
    from the last `window` runtimes recorded, and multiplies the model
    runtime of a kind with no record yet by `cold_start_margin`."""

    mode: str = "history"  # "oracle" or "history"
    window: int = 10
    cold_start_margin: float = 1.5

    def __post_init__(self) -> None:
        if self.mode not in ("oracle", "history"):
            raise ConfigError(f"unknown estimator mode {self.mode!r}")
        if type(self.window) is not int or not 1 <= self.window <= sys.maxsize:
            raise ConfigError(f"estimator.window: must be an integer from 1 to {sys.maxsize}")
        if not (math.isfinite(self.cold_start_margin) and self.cold_start_margin >= 1):
            raise ConfigError("estimator.cold_start_margin: must be finite and >= 1")


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
        window = partial(_Window, config.window)
        # kind -> vm type name -> last runtimes on that type, in seconds.
        # Keyed by kind first: a pair of strings as one key costs a tuple
        # per record.
        self._by_type: defaultdict[str, defaultdict[str, _Window]] = defaultdict(
            partial(defaultdict, window))
        # kind -> last runtimes on any type, times that type's speed factor.
        self._normalized: defaultdict[str, _Window] = defaultdict(window)

    def record(self, kind: str, vm_type: VmType, runtime_s: float) -> bool:
        """Add a completed `kind` task's runtime on `vm_type`, in seconds.
        Returns whether an estimate can have moved. Under "oracle" none can,
        as no oracle estimate reads the records, and none is kept. Nor can
        one when both windows the record goes to, the (kind, type) one and
        the kind's normalized one, are already full of exactly the value it
        adds to them: their content stays as it was, and the record is
        dropped."""
        if self.config.mode == "oracle":
            return False
        same_type = self._by_type[kind][vm_type.name]
        normalized = self._normalized[kind]
        normalized_s = runtime_s * vm_type.speed_factor
        if same_type.full == runtime_s and normalized.full == normalized_s:
            return False
        same_type.push(runtime_s)
        normalized.push(normalized_s)
        return True

    def estimate(self, kind: str, vm_type: VmType, reference_runtime: float) -> float:
        """Estimated runtime on `vm_type`, in seconds, of a `kind` task whose
        model runtime is `reference_runtime` (used by oracle and cold start)."""
        if self.config.mode == "oracle":
            return reference_runtime / vm_type.speed_factor

        # A record makes and fills both of its windows, so a kind with
        # windows by type also has a normalized one, and none is empty.
        by_type = self._by_type.get(kind)
        if by_type is None:
            return reference_runtime / vm_type.speed_factor * self.config.cold_start_margin
        same_type = by_type.get(vm_type.name)
        if same_type is not None:
            values = same_type.values
            return sum(values) / len(values)
        values = self._normalized[kind].values
        return sum(values) / len(values) / vm_type.speed_factor
