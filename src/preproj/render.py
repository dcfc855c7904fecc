"""Deterministic SVG rendering of diamonds, boundary curves and sheets.

Native SVG coordinates already grow downwards, matching the drawing
convention used throughout, so curves are drawn without any flip.  Items are
laid out as unit-square panels left to right.  Output is built from exact
rationals with fixed decimal formatting, so equal inputs give equal bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import ParseError
from .finite import CurveModule, band, factors, projective
from .jsonio import (
    _get,
    _need,
    bfunc_from_json,
    curve_module_from_json,
    sheet_from_json,
)
from .plfunc import BFunc, bottom_curve, top_curve
from .sheets import Sheet

GREY = "#999999"
INK = "#000000"
FILL = "#4466cc"
FILL_OPACITY = "0.25"

PAD = Fraction(1, 20)
SPAN = 1 - 2 * PAD


# stroke width of the main curve per style tag
STYLES = {"": "3", "bold": "4.5", "light": "1.5"}


@dataclass(frozen=True)
class RenderSpec:
    """A row of drawable items; each item is (type, payload[, style tag])."""

    width_px: int = 1000
    items: tuple = field(default_factory=tuple)


def _entry(kind: str, style: str) -> tuple:
    """(payload from JSON, panel drawing, stroke width) of an item type and
    style tag; an unknown tag or type is a ParseError."""
    if style not in STYLES:
        raise ParseError(f"unknown style tag {style!r}")
    if kind not in ITEMS:
        raise ParseError(f"unknown render item type {kind!r}")
    return (*ITEMS[kind], STYLES[style])


def spec_from_json(obj: dict) -> RenderSpec:
    width = _get(obj, "width_px", int, 1000)
    if width <= 0:
        raise ParseError("width_px must be positive")
    items = []
    for raw in _get(obj, "items", list, []):
        kind = _need(raw, "type", str)
        style = _get(raw, "style", str, "")
        from_json = _entry(kind, style)[0]
        items.append((kind, from_json(raw), style))
    return RenderSpec(width, tuple(items))


def _fmt(v: Fraction) -> str:
    # fixed two decimals via integer arithmetic; exact and deterministic
    scaled = round(v * 100)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 100}.{scaled % 100:02d}"


class _Panel:
    def __init__(self, index: int, width_px: int) -> None:
        self.offset = Fraction(index)
        self.scale = Fraction(width_px)

    def pt(self, x: Fraction, y: Fraction) -> str:
        px = (self.offset + PAD + x * SPAN) * self.scale
        py = (PAD + y * SPAN) * self.scale
        return f"{_fmt(px)},{_fmt(py)}"

    def polyline(self, pts: Iterable[tuple[Fraction, Fraction]], stroke: str,
                 width: str) -> str:
        d = " ".join(self.pt(x, y) for x, y in pts)
        return (
            f'<polyline points="{d}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>'
        )

    def polygon(self, pts: Iterable[tuple[Fraction, Fraction]], fill: str,
                opacity: str) -> str:
        d = " ".join(self.pt(x, y) for x, y in pts)
        return (
            f'<polygon points="{d}" fill="{fill}" fill-opacity="{opacity}" '
            f'stroke="none"/>'
        )


def _diamond(panel: _Panel, k: Fraction) -> list[str]:
    return [
        panel.polyline(top_curve(k).breakpoints, GREY, "1.5"),
        panel.polyline(bottom_curve(k).breakpoints, GREY, "1.5"),
    ]


def _render_curve_module(panel: _Panel, m: CurveModule, width: str) -> list[str]:
    n, i = m.n, m.i
    k = Fraction(i, n)
    out = _diamond(panel, k)
    # grey lattice: the rotated square of every factor position of P_i
    half = Fraction(1, n)
    for j, d in factors(projective(i, n)):
        cx, cy = Fraction(j, n), Fraction(d, n)
        square = [
            (cx, cy - half),
            (cx + half, cy),
            (cx, cy + half),
            (cx - half, cy),
            (cx, cy - half),
        ]
        out.append(panel.polyline(square, GREY, "0.5"))
    # fill the module's band: curve to bottom for a sub, top to curve for a quot
    up, down = ([(Fraction(j, n), Fraction(u, n)) for j, u in enumerate(units)]
                for units in band(m))
    out.append(panel.polygon(up + down[::-1], FILL, FILL_OPACITY))
    curve = [(Fraction(j, n), v) for j, v in enumerate(m.curve.values)]
    out.append(panel.polyline(curve, INK, width))
    return out


def _render_bfunc(panel: _Panel, b: BFunc, width: str) -> list[str]:
    out = _diamond(panel, b.k)
    out.append(panel.polyline(list(b.f.breakpoints), INK, width))
    return out


def _render_sheet(panel: _Panel, s: Sheet, width: str) -> list[str]:
    out = _diamond(panel, s.k)
    for lo, hi in s.support:
        upper, lower = s.up.f.on(lo, hi), s.down.f.on(lo, hi)
        out.append(panel.polygon(upper + lower[::-1], FILL, FILL_OPACITY))
    out.append(panel.polyline(list(s.up.f.breakpoints), INK, width))
    out.append(panel.polyline(list(s.down.f.breakpoints), INK, width))
    return out


# item type -> (payload from JSON, panel drawing)
ITEMS = {
    "curve_module": (curve_module_from_json, _render_curve_module),
    "bfunc": (bfunc_from_json, _render_bfunc),
    "sheet": (sheet_from_json, _render_sheet),
}


def render_svg(spec: RenderSpec) -> str:
    """Render the described items to an SVG document string (byte-deterministic)."""
    count = max(len(spec.items), 1)
    width = spec.width_px * count
    height = spec.width_px
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for idx, item in enumerate(spec.items):
        _, draw, stroke = _entry(item[0], item[2] if len(item) > 2 else "")
        lines.extend(draw(_Panel(idx, spec.width_px), item[1], stroke))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
