"""Unit conventions, conversions, and human-readable formatting.

The library stores quantities in fixed base units and converts only at the
presentation boundary:

==================  ==============  =========================
Quantity            Base unit       Typical presentation
==================  ==============  =========================
time                seconds (s)     s, min, h
power               watts (W)       W, kW
energy              joules (J)      J, kJ, MJ, kWh
compute rate        FLOP/s          GFLOPS, TFLOPS, MFLOPS
bandwidth           bytes/s         MB/s, GB/s
frequency           hertz (Hz)      MHz, GHz
capacity            bytes (B)       GB, GiB
==================  ==============  =========================

The paper reports HPL performance in GFLOPS/TFLOPS, STREAM and IOzone in
"MBPS" (decimal megabytes per second), power in kW, and energy efficiency in
MFLOPS/W or MBPS/W; helpers here produce exactly those presentations.
"""

from __future__ import annotations

import math

__all__ = [
    "KILO", "MEGA", "GIGA", "TERA", "PETA",
    "KIB", "MIB", "GIB", "TIB",
    "JOULES_PER_KWH",
    "mbps", "gbps",
    "si_format", "format_flops", "format_bandwidth", "format_power",
    "format_energy", "format_time", "format_bytes",
]

#: Decimal SI prefixes (used for rates: FLOPS, MB/s -- matching vendor and
#: benchmark reporting conventions).
KILO = 1e3
MEGA = 1e6
GIGA = 1e9
TERA = 1e12
PETA = 1e15

#: Binary prefixes (used for memory capacities).
KIB = 1024
MIB = 1024 ** 2
GIB = 1024 ** 3
TIB = 1024 ** 4

#: One kilowatt-hour in joules.
JOULES_PER_KWH = 3.6e6


def mbps(value: float) -> float:
    """Convert decimal MB/s (the STREAM/IOzone "MBPS") to bytes/s."""
    return float(value) * MEGA


def gbps(value: float) -> float:
    """Convert decimal GB/s to bytes/s."""
    return float(value) * GIGA


_SI_STEPS = (
    (PETA, "P"),
    (TERA, "T"),
    (GIGA, "G"),
    (MEGA, "M"),
    (KILO, "k"),
)


def si_format(value: float, unit: str, *, precision: int = 2) -> str:
    """Format ``value`` with an SI prefix, e.g. ``si_format(1.2e9, "FLOPS")``.

    Values below 1 kilo-unit are printed without a prefix.  Negative values
    keep their sign; non-finite values are printed verbatim.
    """
    if not math.isfinite(value):
        return f"{value} {unit}"
    magnitude = abs(value)
    for step, prefix in _SI_STEPS:
        if magnitude >= step:
            return f"{value / step:.{precision}f} {prefix}{unit}"
    return f"{value:.{precision}f} {unit}"


def format_flops(value: float, *, precision: int = 2) -> str:
    """Format a FLOP/s rate, e.g. ``"901.00 GFLOPS"``."""
    return si_format(value, "FLOPS", precision=precision)


def format_bandwidth(value: float, *, precision: int = 2) -> str:
    """Format a bytes/s bandwidth, e.g. ``"128.00 MB/s"``."""
    return si_format(value, "B/s", precision=precision)


def format_power(value: float, *, precision: int = 2) -> str:
    """Format a power in watts, e.g. ``"1.52 kW"``."""
    return si_format(value, "W", precision=precision)


def format_energy(value: float, *, precision: int = 2) -> str:
    """Format an energy in joules, e.g. ``"3.60 MJ"``."""
    return si_format(value, "J", precision=precision)


def format_time(seconds: float, *, precision: int = 1) -> str:
    """Format a duration: seconds below 2 min, minutes below 2 h, else hours."""
    if not math.isfinite(seconds):
        return f"{seconds} s"
    if abs(seconds) < 120:
        return f"{seconds:.{precision}f} s"
    if abs(seconds) < 7200:
        return f"{seconds / 60:.{precision}f} min"
    return f"{seconds / 3600:.{precision}f} h"


def format_bytes(value: float, *, precision: int = 1) -> str:
    """Format a capacity with binary prefixes, e.g. ``"32.0 GiB"``."""
    if not math.isfinite(value):
        return f"{value} B"
    magnitude = abs(value)
    for step, prefix in ((TIB, "Ti"), (GIB, "Gi"), (MIB, "Mi"), (KIB, "Ki")):
        if magnitude >= step:
            return f"{value / step:.{precision}f} {prefix}B"
    return f"{value:.0f} B"
