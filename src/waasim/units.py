"""Internal time and money units.

Time is kept as integer microseconds and money as integer nano-dollars so
that event ordering and budget ledgers stay exact; floats only appear at
the API boundary (JSON documents, reports).
"""

from __future__ import annotations

import hashlib

from .errors import ConfigError

USEC_PER_SEC = 1_000_000
NANOS_PER_DOLLAR = 1_000_000_000


def usec(seconds: float) -> int:
    """Convert seconds to integer microseconds."""
    try:
        return round(seconds * USEC_PER_SEC)
    except (OverflowError, ValueError):
        raise ConfigError(f"{seconds:g} s cannot be counted in integer microseconds") from None


def nanos(dollars: float) -> int:
    """Convert dollars to integer nano-dollars."""
    try:
        return round(dollars * NANOS_PER_DOLLAR)
    except (OverflowError, ValueError):
        raise ConfigError(f"${dollars:g} cannot be counted in integer nano-dollars") from None


def ceil_whole_seconds(time_us: int) -> int:
    """Round a duration up to whole billing seconds (0 stays 0)."""
    return -(-time_us // USEC_PER_SEC)


def format_dollars(amount_nanos: int) -> str:
    """Exact decimal rendering with nine fractional digits."""
    sign = "-" if amount_nanos < 0 else ""
    amount_nanos = abs(amount_nanos)
    return f"{sign}{amount_nanos // NANOS_PER_DOLLAR}.{amount_nanos % NANOS_PER_DOLLAR:09d}"


def format_seconds(time_us: int) -> str:
    sign = "-" if time_us < 0 else ""
    time_us = abs(time_us)
    return f"{sign}{time_us // USEC_PER_SEC}.{time_us % USEC_PER_SEC:06d}"


def substream_seed(seed: int, name: str) -> int:
    """Derive a named RNG substream seed, stable across processes."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
