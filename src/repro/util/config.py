"""Small validation helpers for configuration dataclasses."""

from __future__ import annotations


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_fraction(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` lies in ``[0, 1]``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")

