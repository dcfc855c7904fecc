from fractions import Fraction as F

import pytest

from conftest import sheet_to_json
from preproj.errors import ParseError
from preproj.finite import CurveModule, DiamondCurve, Kind, ideal_of, projective
from preproj.plfunc import BFunc, bottom_curve, top_curve
from preproj.render import FILL, FILL_OPACITY, RenderSpec, _Panel, render_svg, spec_from_json
from preproj.jsonio import bfunc_to_json, curve_module_to_json
from preproj.sheets import Sheet
from preproj.symgroup import Perm

H = F(1, 2)


def _ideal_spec():
    return RenderSpec(
        1000, tuple(("curve_module", m) for m in ideal_of(Perm((2, 5, 3, 4, 1))))
    )


class TestRenderSvg:
    def test_byte_deterministic(self):
        spec = _ideal_spec()
        assert render_svg(spec) == render_svg(spec)

    def test_single_diamond(self):
        svg = render_svg(RenderSpec(1000, (("curve_module", projective(2, 5)),)))
        assert svg.startswith('<?xml version="1.0"')
        assert 'viewBox="0 0 1000 1000"' in svg
        assert svg.count("<polygon") == 1  # one shaded region
        assert "</svg>" in svg

    def test_four_panel_layout(self):
        svg = render_svg(_ideal_spec())
        assert 'viewBox="0 0 4000 1000"' in svg

    def test_quotient_fills_from_top_to_curve(self):
        # a sub is shaded from its curve down to the diamond's bottom, a
        # quotient from the diamond's top down to its curve
        curve = DiamondCurve(2, 5, (2, 3, 2, 3, 4, 3))
        top, bottom = (2, 1, 0, 1, 2, 3), (2, 3, 4, 5, 4, 3)

        def region(upper, lower):
            pts = [[(F(j, 5), F(u, 5)) for j, u in enumerate(units)] for units in (upper, lower)]
            return _Panel(0, 1000).polygon(pts[0] + pts[1][::-1], FILL, FILL_OPACITY)

        sub, quot = (render_svg(RenderSpec(1000, (("curve_module", CurveModule(kind, curve)),)))
                     for kind in (Kind.SUB, Kind.QUOT))
        assert sub != quot
        assert region(curve.units, bottom) in sub.splitlines()
        assert region(top, curve.units) in quot.splitlines()
        assert region(curve.units, bottom) not in quot.splitlines()

    def test_bfunc_and_sheet_items(self):
        sheet = Sheet(H, BFunc(H, top_curve(H)), BFunc(H, bottom_curve(H)))
        spec = RenderSpec(
            500,
            (("bfunc", BFunc(H, top_curve(H))), ("sheet", sheet)),
        )
        svg = render_svg(spec)
        assert 'viewBox="0 0 1000 500"' in svg
        assert svg.count("<polygon") == 1  # the sheet's support bubble

    def test_two_bubble_sheet_gets_two_regions(self):
        from preproj.plfunc import PLFunc

        down = PLFunc(
            [(0, H), (F(1, 4), F(3, 4)), (H, H), (F(3, 4), F(3, 4)), (1, H)]
        )
        sheet = Sheet(H, BFunc(H, PLFunc.constant(H)), BFunc(H, down))
        svg = render_svg(RenderSpec(500, (("sheet", sheet),)))
        assert svg.count("<polygon") == 2

    def test_unknown_item(self):
        with pytest.raises(ParseError):
            render_svg(RenderSpec(100, (("blob", None),)))


class TestSpecFromJson:
    def test_parses_all_item_kinds(self):
        sheet = Sheet(H, BFunc(H, top_curve(H)), BFunc(H, bottom_curve(H)))
        raw = {
            "width_px": 640,
            "items": [
                {"type": "curve_module", **curve_module_to_json(projective(1, 4))},
                {"type": "bfunc", **bfunc_to_json(BFunc(H, top_curve(H)))},
                {"type": "sheet", **sheet_to_json(sheet)},
            ],
        }
        spec = spec_from_json(raw)
        assert spec.width_px == 640
        assert [item[0] for item in spec.items] == ["curve_module", "bfunc", "sheet"]
        render_svg(spec)

    def test_style_tags(self):
        raw = {
            "items": [
                {
                    "type": "curve_module",
                    "style": "bold",
                    **curve_module_to_json(projective(1, 4)),
                }
            ]
        }
        svg = render_svg(spec_from_json(raw))
        assert 'stroke-width="4.5"' in svg
        with pytest.raises(ParseError):
            spec_from_json(
                {"items": [{"type": "bfunc", "style": "wavy",
                            **bfunc_to_json(BFunc(H, top_curve(H)))}]}
            )

    def test_rejects_unknown(self):
        with pytest.raises(ParseError):
            spec_from_json({"items": [{"type": "wat"}]})

    def test_rejects_bad_width(self):
        with pytest.raises(ParseError):
            spec_from_json({"width_px": 0, "items": []})
