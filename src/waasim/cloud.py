"""Simulated IaaS provider: VM catalog, instance lifecycle with delays,
per-second billing and the periodic idle-termination scan."""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from functools import cached_property
from itertools import takewhile
from operator import attrgetter

from .errors import ConfigError, IllegalState
from .schema import Field, Rule, valueclass
from .units import NANOS_PER_DOLLAR, USEC_PER_SEC, ceil_whole_seconds, nanos, usec

PROVISIONING = "provisioning"
IDLE = "idle"
BUSY = "busy"
TERMINATED = "terminated"


@valueclass(frozen=True, error=ConfigError)
class VmType:
    """A purchasable machine class.

    A task's runtime on this type is reference_runtime / speed_factor.
    """

    name: str
    vcpus: int = Field(metadata={"if_absent": 1, "rule": Rule(int, 1)})
    memory_mb: int = Field(metadata={"if_absent": 1024, "rule": Rule(int, 1)})
    price_per_second: float = Field(metadata={"as_float": True, "rule": Rule(float)})
    speed_factor: float = Field(metadata={"as_float": True, "rule": Rule(float, 0, strict=True)})

    def __post_init__(self) -> None:
        if not self.price_per_second >= 1e-9:
            raise ConfigError(f"vm type {self.name!r}: price_per_second must be >= 1e-09 "
                              "(one nano-dollar per second)")
        price = self.price_per_second
        if price * NANOS_PER_DOLLAR == math.inf:  # where `price_nanos` would overflow
            raise ConfigError(f"vm type {self.name!r}: price_per_second ${price:g} cannot be "
                              "counted in integer nano-dollars")

    # Cached in the instance dict, not a field, so as_dict() and the config
    # hash do not see it.
    @cached_property
    def price_nanos(self) -> int:
        return nanos(self.price_per_second)


@valueclass(frozen=True, error=ConfigError)
class VariabilityConfig:
    """Runtime variability: with mode "lognormal", each task's runtime is
    multiplied by exp(N(0, sigma))."""

    mode: str = "none"  # "none" or "lognormal"
    sigma: float = Field(default=0.0, metadata={"rule": Rule(float, 0)})


# Per-second prices of the T2 worker-node family; speed factors are
# synthetic defaults preserving the faster-is-pricier total order.
def default_catalog() -> tuple[VmType, ...]:
    return (
        VmType("t2.micro", 1, 1024, 0.0000041, 1.0),
        VmType("t2.small", 1, 2048, 0.0000082, 1.2),
        VmType("t2.medium", 2, 4096, 0.0000164, 1.6),
        VmType("t2.large", 2, 8192, 0.0000382, 2.0),
    )


@valueclass(error=ConfigError)
class CloudConfig:
    """The provider: its VM catalog, lifecycle delays and idle-scan timing
    in seconds, runtime variability and billing rule."""

    catalog: tuple[VmType, ...] = Field(default_factory=default_catalog)
    provisioning_delay: float = Field(default=90.0, metadata={"rule": Rule(float, 0)})
    deprovisioning_delay: float = Field(default=10.0, metadata={"rule": Rule(float, 0)})
    idle_threshold: float = Field(default=60.0, metadata={"rule": Rule(float, 0, strict=True)})
    # At least one microsecond, the simulation's time step.
    scan_interval: float = Field(default=10.0, metadata={"rule": Rule(float, 1e-6)})
    variability: VariabilityConfig = Field(default_factory=VariabilityConfig)
    bill_provisioning: bool = False

    def __post_init__(self) -> None:
        if not self.catalog:
            raise ConfigError("catalog must be non-empty")
        names = [t.name for t in self.catalog]
        if len(set(names)) != len(names):
            raise ConfigError("catalog names must be unique")
        if self.variability.mode not in ("none", "lognormal"):
            raise ConfigError(f"unknown variability mode {self.variability.mode!r}")

    @property
    def fastest_type(self) -> VmType:
        return max(self.catalog, key=lambda t: (t.speed_factor, -t.price_per_second, t.name))

    @property
    def cheapest_type(self) -> VmType:
        return min(self.catalog, key=lambda t: (t.price_per_second, -t.speed_factor, t.name))

    @property
    def provisioning_delay_us(self) -> int:
        return usec(self.provisioning_delay)

    @property
    def deprovisioning_delay_us(self) -> int:
        return usec(self.deprovisioning_delay)

    @property
    def idle_threshold_us(self) -> int:
        return usec(self.idle_threshold)

    @property
    def scan_interval_us(self) -> int:
        return usec(self.scan_interval)


def task_runtime_on(vm_type: VmType, reference_runtime: float,
                    rng: random.Random | None = None,
                    variability: VariabilityConfig | None = None) -> float:
    """Execution time of a task on a VM type, optionally perturbed by a
    multiplicative lognormal factor (one gauss draw per call)."""
    if reference_runtime <= 0:
        raise ValueError("reference_runtime must be > 0")
    base = reference_runtime / vm_type.speed_factor
    if variability is None or variability.mode == "none" or variability.sigma == 0.0:
        return base
    if rng is None:
        raise ValueError("lognormal variability requires an RNG")
    try:
        runtime = base * math.exp(rng.gauss(0.0, variability.sigma))
    except OverflowError:
        runtime = math.inf
    if runtime * USEC_PER_SEC == math.inf:  # where `usec(runtime)` would overflow
        raise ConfigError(f"variability.sigma: {variability.sigma:g} drew a runtime "
                          "too long to count in microseconds")
    return runtime


def estimated_cost_nanos(vm_type: VmType, est_runtime_us: int) -> int:
    """Per-second billing estimate: whole seconds rounded up times unit price."""
    return ceil_whole_seconds(est_runtime_us) * vm_type.price_nanos


class VmInstance:
    """A leased machine and where it is in its lifecycle: provisioning,
    idle, busy or terminated, and since when. `seq` is its provision order;
    `idle_since_us`, when it last went idle, is read only while it is idle."""

    __slots__ = ("id", "seq", "vm_type", "state", "available_at_us", "billing_start_us",
                 "idle_since_us", "terminated_at_us")

    def __init__(self, id: str, seq: int, vm_type: VmType, state: str,
                 available_at_us: int, billing_start_us: int):
        self.id = id
        self.seq = seq
        self.vm_type = vm_type
        self.state = state
        self.available_at_us = available_at_us
        self.billing_start_us = billing_start_us
        self.idle_since_us: int | None = None
        self.terminated_at_us: int | None = None


def finalize_billing(vm: VmInstance) -> tuple[int, int]:
    """The bill of a terminated instance's lease: (billed_seconds,
    bill_nanos), the ceil of its active seconds and that times the unit price.

    Active lease time starts at the instance's billing start (by default
    its availability instant, excluding the provisioning delay).
    """
    if vm.terminated_at_us is None:
        raise IllegalState(f"{vm.id} is not terminated")
    billed_seconds = ceil_whole_seconds(max(0, vm.terminated_at_us - vm.billing_start_us))
    return billed_seconds, billed_seconds * vm.vm_type.price_nanos


class Fleet:
    """All instances ever leased by one simulation, live and terminated, and
    the only keeper of their lifecycle. Calls come in non-decreasing time.
    An instance comes up busy with the task it was leased for, then moves
    idle -> busy, busy -> idle, and idle or busy -> terminated; any other
    transition raises IllegalState."""

    def __init__(self, config: CloudConfig):
        self.config = config
        # The config's delays in microseconds, converted once per simulation.
        self.provisioning_delay_us = config.provisioning_delay_us
        self.deprovisioning_delay_us = config.deprovisioning_delay_us
        self.idle_threshold_us = config.idle_threshold_us
        self.instances: dict[str, VmInstance] = {}
        # The instances in state IDLE, in the order they went idle: idle-since order.
        self._idle: dict[str, VmInstance] = {}
        # Per type name, a heap of the ids of its idle instances, least id
        # string first: the order in which dispatch breaks ties. An id enters
        # when a task on its instance finishes and leaves when dispatch takes
        # it; the id of an instance the idle scan terminated is dropped when
        # it reaches the top. So each id is in its heap at most once.
        self._heads: dict[str, list[str]] = {}
        # Terminated instances release_due has not returned, in termination
        # order, which is release order as the deprovisioning delay is constant.
        self._releasing: deque[VmInstance] = deque()
        self._live = 0

    def provision(self, vm_type: VmType, now_us: int) -> VmInstance:
        seq = len(self.instances) + 1
        available = now_us + self.provisioning_delay_us
        vm = VmInstance(
            id=f"vm-{seq:04d}",
            seq=seq,
            vm_type=vm_type,
            state=PROVISIONING,
            available_at_us=available,
            billing_start_us=now_us if self.config.bill_provisioning else available,
        )
        self.instances[vm.id] = vm
        self._live += 1
        return vm

    def mark_available(self, vm: VmInstance) -> None:
        if vm.state != PROVISIONING:
            raise IllegalState(f"{vm.id}: available while {vm.state}")
        vm.state = BUSY

    def start_task(self, vm: VmInstance) -> None:
        if vm.state != IDLE:
            raise IllegalState(f"{vm.id}: cannot start task while {vm.state}")
        vm.state = BUSY
        del self._idle[vm.id]

    def finish_task(self, vm: VmInstance, now_us: int) -> None:
        if vm.state != BUSY:
            raise IllegalState(f"{vm.id}: cannot finish task while {vm.state}")
        vm.state = IDLE
        vm.idle_since_us = now_us
        self._idle[vm.id] = vm
        heapq.heappush(self._heads.setdefault(vm.vm_type.name, []), vm.id)

    def terminate(self, vm: VmInstance, now_us: int) -> None:
        if vm.state == IDLE:
            del self._idle[vm.id]
        elif vm.state != BUSY:
            raise IllegalState(f"{vm.id}: cannot terminate while {vm.state}")
        vm.state = TERMINATED
        vm.terminated_at_us = now_us
        self._live -= 1
        self._releasing.append(vm)

    def idle_scan(self, now_us: int) -> list[VmInstance]:
        """Terminate every idle instance whose idle time reached the
        threshold, in provision order; busy and provisioning instances are
        untouched. Only the expired prefix of the idle index is read."""
        cutoff = now_us - self.idle_threshold_us
        expired = sorted(takewhile(lambda vm: vm.idle_since_us <= cutoff,
                                   self._idle.values()), key=attrgetter("seq"))
        for vm in expired:
            self.terminate(vm, now_us)
        return expired

    def idle_instances(self) -> list[VmInstance]:
        """The idle instances, in the order they went idle."""
        return list(self._idle.values())

    def idle_head(self, vm_type: VmType) -> str | None:
        """The least id string among the idle instances of `vm_type`, or
        None if it has none."""
        heap = self._heads.get(vm_type.name)
        while heap and self.instances[heap[0]].state != IDLE:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def take_idle_head(self, vm_type: VmType) -> str:
        """Take `idle_head(vm_type)` out of the index, so that no later call
        returns it before it goes idle again. The instance stays IDLE until
        its task starts."""
        vm_id = self.idle_head(vm_type)
        if vm_id is None:
            raise IllegalState(f"no idle {vm_type.name} instance")
        heapq.heappop(self._heads[vm_type.name])
        return vm_id

    def release_due(self, now_us: int) -> list[VmInstance]:
        """The terminated instances whose deprovisioning delay has passed
        and that no earlier call returned, in provision order."""
        cutoff = now_us - self.deprovisioning_delay_us
        due = []
        while self._releasing and self._releasing[0].terminated_at_us <= cutoff:
            due.append(self._releasing.popleft())
        return sorted(due, key=attrgetter("seq"))

    def unreleased(self, now_us: int) -> bool:
        """Whether any instance is still held: live, or terminated but not
        yet past the deprovisioning delay."""
        cutoff = now_us - self.deprovisioning_delay_us
        return self._live > 0 or (
            bool(self._releasing) and self._releasing[-1].terminated_at_us > cutoff)

    def next_due_us(self) -> int | None:
        """The earliest time at which `idle_scan` or `release_due` can return
        an instance, or None while no instance is idle or awaiting release.
        Both queues are in time order, so only their heads are read."""
        due = None
        if self._idle:
            due = next(iter(self._idle.values())).idle_since_us + self.idle_threshold_us
        if self._releasing:
            release = self._releasing[0].terminated_at_us + self.deprovisioning_delay_us
            if due is None or release < due:
                due = release
        return due
