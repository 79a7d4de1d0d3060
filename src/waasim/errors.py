"""Exception types shared across the simulator."""


class WaasimError(Exception):
    """Base class for all waasim errors."""


class SchemaError(WaasimError):
    """A workflow or config document is malformed (missing/invalid field)."""


class CycleError(WaasimError):
    """The task graph contains a cycle."""


class DanglingRefError(WaasimError):
    """A task references a parent id that does not exist."""


class ConfigError(WaasimError):
    """An experiment or scheduler configuration is invalid."""


class StallError(WaasimError):
    """The event queue drained while tasks were still unfinished."""


class ManifestMismatch(WaasimError):
    """Two reports being compared were produced from different workloads."""


class IllegalState(WaasimError):
    """An operation was applied to an object in the wrong lifecycle state."""
