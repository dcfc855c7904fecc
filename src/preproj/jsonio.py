"""JSON wire formats: rationals as "p/q" strings, everything else nested.

Formats:
  PLFunc        {"breakpoints": [["0","2/5"], ...]}
  BFunc         {"k": "2/5", "breakpoints": [...]}
  CurveModule   {"n": 5, "i": 2, "kind": "sub", "curve": ["2/5", ...]}
  GridPermuton  {"m": 5, "mass": [["0","1/5",...], ...]}        (row-major, y down)
  Sheet         {"k": "1/2", "up": BFunc, "down": BFunc}
  Sawtooth      {"a": "1/5", "b": "4/5", "teeth": [["1/5","2/5"],...],
                 "endpoints": [true, true]}
  Module        one of {"type": "simple", "x": ...}, {"type": "sawtooth", ...},
                {"type": "curve_module", ...}
"""

from __future__ import annotations

from typing import Any

from .errors import ParseError
from .finite import CurveModule, DiamondCurve, Kind, _literals
from .permuton import GridPermuton
from .plfunc import BFunc, PLFunc
from .rat import frac, rat_str, ratio_str
from .sheets import SawtoothDesc, Sheet, SimpleModule


def _need(obj: dict, key: str, kind: type = object) -> Any:
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ParseError(f"missing field {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        raise ParseError(f"field {key!r} must be of type {kind.__name__}, got {value!r}")
    return value


def _get(obj: dict, key: str, kind: type, default: Any) -> Any:
    """An optional field: the default when obj lacks it, else as _need."""
    if isinstance(obj, dict) and key not in obj:
        return default
    return _need(obj, key, kind)


def _need_rows(obj: dict, key: str, width: int) -> list[list]:
    rows = _need(obj, key, list)
    if not all(isinstance(row, list) and len(row) == width for row in rows):
        raise ParseError(f"field {key!r} must hold lists of length {width}")
    return rows


def plfunc_to_json(f: PLFunc) -> dict:
    return {"breakpoints": [[ratio_str(x, w), ratio_str(y, w)] for x, y, w in f._pts]}


def plfunc_from_json(obj: dict) -> PLFunc:
    return PLFunc(_need_rows(obj, "breakpoints", 2))


def bfunc_to_json(b: BFunc) -> dict:
    return {"k": rat_str(b.k), **plfunc_to_json(b.f)}


def bfunc_from_json(obj: dict) -> BFunc:
    return BFunc(frac(_need(obj, "k")), plfunc_from_json(obj))


def curve_module_to_json(m: CurveModule) -> dict:
    return {
        "n": m.n,
        "i": m.i,
        "kind": m.kind.value,
        "curve": list(map(_literals(m.n)[0].__getitem__, m.curve.units)),
    }


def curve_module_from_json(obj: dict) -> CurveModule:
    kind_raw = _need(obj, "kind")
    try:
        kind = Kind(kind_raw)
    except ValueError as exc:
        raise ParseError(f"kind must be 'sub' or 'quot', got {kind_raw!r}") from exc
    curve = DiamondCurve.from_values(
        _need(obj, "i", int), _need(obj, "n", int), _need(obj, "curve", list)
    )
    return CurveModule(kind, curve)


def permuton_from_json(obj: dict) -> GridPermuton:
    m = _need(obj, "m", int)
    return GridPermuton(m, _need_rows(obj, "mass", m))


def sheet_from_json(obj: dict) -> Sheet:
    return Sheet(
        frac(_need(obj, "k")),
        bfunc_from_json(_need(obj, "up")),
        bfunc_from_json(_need(obj, "down")),
    )


def sawtooth_from_json(obj: dict) -> SawtoothDesc:
    flags = _get(obj, "endpoints", list, [True, True])
    if len(flags) != 2 or not all(isinstance(f, bool) for f in flags):
        raise ParseError("endpoints must be a pair of JSON booleans")
    return SawtoothDesc(
        frac(_need(obj, "a")),
        frac(_need(obj, "b")),
        [(frac(x), frac(v)) for x, v in _need_rows(obj, "teeth", 2)],
        tuple(flags),
    )


def module_from_json(obj: dict):
    kind = _need(obj, "type")
    if kind == "simple":
        return SimpleModule(frac(_need(obj, "x")))
    if kind == "sawtooth":
        return sawtooth_from_json(obj)
    if kind == "curve_module":
        return curve_module_from_json(obj)
    raise ParseError(f"unknown module type {kind!r}")
