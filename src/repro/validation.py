"""Argument-validation helpers shared across the library.

Specifications and models validate eagerly at construction time so that a
misconfigured cluster or power model fails with a precise message instead of
producing silently wrong energy numbers several layers downstream.
"""

from __future__ import annotations

import math
from typing import Type

from .exceptions import ReproError

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_fraction",
    "check_positive_int",
    "check_finite",
]


def check_finite(value: float, name: str, *, exc: Type[ReproError] = ReproError) -> float:
    """Ensure ``value`` is a finite real number; return it as float."""
    value = float(value)
    if not math.isfinite(value):
        raise exc(f"{name} must be finite, got {value!r}")
    return value


def check_positive(value: float, name: str, *, exc: Type[ReproError] = ReproError) -> float:
    """Ensure ``value`` is finite and strictly positive; return it as float."""
    value = check_finite(value, name, exc=exc)
    if value <= 0:
        raise exc(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(value: float, name: str, *, exc: Type[ReproError] = ReproError) -> float:
    """Ensure ``value`` is finite and >= 0; return it as float."""
    value = check_finite(value, name, exc=exc)
    if value < 0:
        raise exc(f"{name} must be >= 0, got {value!r}")
    return value


def check_fraction(value: float, name: str, *, exc: Type[ReproError] = ReproError) -> float:
    """Ensure ``value`` lies in the closed interval [0, 1]; return it as float."""
    value = check_finite(value, name, exc=exc)
    if not 0.0 <= value <= 1.0:
        raise exc(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_positive_int(value: int, name: str, *, exc: Type[ReproError] = ReproError) -> int:
    """Ensure ``value`` is an integer >= 1; return it as int.

    Booleans are rejected: ``True`` counting as "1 node" is always a bug.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise exc(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise exc(f"{name} must be >= 1, got {value!r}")
    return value
