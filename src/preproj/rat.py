"""Exact rational plumbing: coercion and the "p/q" wire format.

Public values and the wire format are ``fractions.Fraction``, the kernels
integers; floats are rejected at the boundary so no rounding can sneak in.
``num_den`` is the one literal reader and returns integer lowest terms (p, q):
a wire literal "p" or "p/q" (ASCII digits, optional "-") costs one regex, ``int``
and a gcd, any other goes through ``Fraction``.  ``frac`` wraps it; ``ratio_str``
writes every "p" or "p/q" of the wire, ``rat_str`` the one of a value.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

from .errors import ParseError

# Fraction expands "1e<k>" into a k-digit integer, so a short literal could
# take unbounded time and memory; exponents and the digits of a value are
# capped at Python's own int <-> str limit, so every value prints back.  A
# wire literal shorter than the cap has fewer digits than it.
MAX_EXPONENT = sys.int_info.default_max_str_digits
_TOO_LONG = 10**MAX_EXPONENT
_EXPONENT = re.compile(r"[eE][-+]?0*([\d_]*)\s*\Z")
_WIRE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def num_den(value) -> tuple[int, int]:
    """Lowest terms (p, q), q > 0, of an int, Fraction or rational literal."""
    if isinstance(value, str):
        if len(value) < MAX_EXPONENT and (wire := _WIRE.fullmatch(value)):
            p, q = int(wire[1]), int(wire[2] or 1)
            if q:
                g = gcd(p, q)
                return p // g, q // g
        exponent = _EXPONENT.search(value)
        if exponent:
            digits = exponent.group(1).replace("_", "")
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
                raise ParseError(f"exponent of {value[:40]!r} exceeds {MAX_EXPONENT}")
        try:
            exact = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {value[:40]!r}") from exc
        if max(abs(exact.numerator), exact.denominator) >= _TOO_LONG:
            raise ParseError(f"{value[:40]!r} needs more than {MAX_EXPONENT} digits")
        return exact.numerator, exact.denominator
    if isinstance(value, Fraction):
        return value.as_integer_ratio()
    if isinstance(value, (bool, float)):
        raise ParseError(f"exact rational required, got {value!r}")
    if isinstance(value, int):
        return value, 1
    raise ParseError(f"cannot interpret {value!r} as a rational")


def frac(value) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction."""
    return value if isinstance(value, Fraction) else Fraction(*num_den(value))


def ratio_str(p: int, q: int) -> str:
    """p/q, q > 0, in lowest terms as "p/q", or just "p" for integers."""
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def rat_str(value: Fraction) -> str:
    """Render as "p/q", or just "p" for integers."""
    return ratio_str(*num_den(value))
