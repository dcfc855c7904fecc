"""Exact rational plumbing: coercion and the "p/q" wire format.

Public values and the wire format are ``fractions.Fraction``, the kernels
integers; floats are rejected at the boundary so no rounding can sneak in.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import ParseError

# Fraction expands "1e<k>" into a k-digit integer, so a short literal could
# take unbounded time and memory; exponents and the digits of a value are
# capped at Python's own int <-> str limit, so every value prints back.
MAX_EXPONENT = sys.int_info.default_max_str_digits
_TOO_LONG = 10**MAX_EXPONENT
_EXPONENT = re.compile(r"[eE][-+]?0*([\d_]*)\s*\Z")


def frac(value) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"exact rational required, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if exponent:
            digits = exponent.group(1).replace("_", "")
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
                raise ParseError(f"exponent of {value[:40]!r} exceeds {MAX_EXPONENT}")
        try:
            q = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {value!r}") from exc
        if max(abs(q.numerator), q.denominator) >= _TOO_LONG:
            raise ParseError(f"{value[:40]!r} needs more than {MAX_EXPONENT} digits")
        return q
    raise ParseError(f"cannot interpret {value!r} as a rational")


def rat_str(value: Fraction) -> str:
    """Render as "p/q", or just "p" for integers."""
    q = frac(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
