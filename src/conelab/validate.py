"""Argument checks shared by the entry points."""

from __future__ import annotations

import numbers


def require_int(value, name: str, lo: int) -> None:
    """Raise ValueError unless value is an integer at least lo.

    numpy integers pass; a bool, a float such as 2.0 and anything else that
    is not a numbers.Integral is refused.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")
