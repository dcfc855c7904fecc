"""Desk-scale guards for combinatorially explosive sweeps."""

import os

from .errors import ParseError, TooLarge

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


def guard(n: int, exhaustive: bool = False) -> None:
    """Refuse n above the scale limit; exhaustive sweeps over all of S_n stop
    one rank earlier than targeted runs."""
    limit = scale_limit() - 1 if exhaustive else scale_limit()
    if n > limit:
        raise TooLarge(f"n={n} exceeds the guard ({limit}); set PREPROJ_MAX_N to override")
