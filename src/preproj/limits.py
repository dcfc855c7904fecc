"""Desk-scale guards for combinatorially explosive sweeps."""

import os

from .errors import ParseError

DEFAULT_MAX_N = 6


def scale_limit() -> int:
    """Largest n the exhaustive operations accept; PREPROJ_MAX_N overrides."""
    raw = os.environ.get("PREPROJ_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        limit = int(raw)
    except ValueError:
        raise ParseError(f"PREPROJ_MAX_N must be an integer, got {raw!r}") from None
    if limit < 1:
        raise ParseError(f"PREPROJ_MAX_N must be at least 1, got {raw!r}")
    return limit
