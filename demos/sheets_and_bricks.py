"""Walk through sheets, their morphism combinatorics, and the bricks.

Run:  python demos/sheets_and_bricks.py
Writes two_bubble_sheet.svg next to this script.
"""

from fractions import Fraction as F
from pathlib import Path

from preproj.finite import projective
from preproj.plfunc import BFunc, PLFunc, bottom_curve, top_curve
from preproj.render import RenderSpec, render_svg
from preproj.sheets import (
    SawtoothDesc,
    Sheet,
    SimpleModule,
    b_interval,
    codependence_class,
    decorous_cover,
    end_dim,
    in_range_of_codependence,
    is_brick,
    is_deep,
    is_sawtooth,
)

H = F(1, 2)

print("== Sheets are cut out by two boundary curves ==")
full = Sheet(H, BFunc(H, top_curve(H)), BFunc(H, bottom_curve(H)))
print("all of P_{1/2}: support", list(full.support), "generators", full.generators)

two_bubble = Sheet(
    H,
    BFunc(H, PLFunc.constant(H)),
    BFunc(H, PLFunc([(0, H), (F(1, 4), F(3, 4)), (H, H), (F(3, 4), F(3, 4)), (1, H)])),
)
print("a sheet whose boundaries touch in the middle decomposes:")
print("  support:", [(str(a), str(b)) for a, b in two_bubble.support])

print("\n== Codependence of generators ==")
w_up = BFunc(H, PLFunc([(0, H), (F(2, 5), F(1, 10)), (H, F(1, 5)), (F(3, 5), F(1, 10)), (1, H)]))
source = Sheet(H, w_up, BFunc(H, bottom_curve(H)))
target = Sheet(
    H, w_up,
    BFunc(H, PLFunc([(0, H), (F(2, 5), F(9, 10)), (H, F(4, 5)), (F(3, 5), F(9, 10)), (1, H)])),
)
print("source generators:", [str(g) for g in source.generators])
for a in (F(0), F(7, 10)):
    cls = codependence_class(source, target, F(2, 5), a)
    print(f"  shift {a}: headroom {b_interval(source, target, F(2,5), a)}"
          f" pins together {[str(z) for z in cls]}")
print("shift 7/10 leaves the range of codependence of the base class:",
      not in_range_of_codependence(source, target, F(2, 5), 0, F(7, 10)))

print("\n== Bricks: simples and sawtooth modules, nothing else ==")
print("a simple module is a brick:", is_brick(SimpleModule(F(1, 3))))
peak = PLFunc([(0, F(1, 5)), (F(4, 5), 1), (1, F(4, 5))])
st = is_sawtooth(peak, 0, 1)
print("single-peak data is a sawtooth, hence a brick:", is_brick(st))
print("a projective is deep, hence not a brick:",
      not is_brick(projective(2, 5)),
      f"(End has dimension {end_dim(projective(2, 5))})")

print("\nthe thin module of a W-shaped sawtooth has scalar endomorphisms:")
w_teeth = SawtoothDesc(
    0, 1,
    [(0, F(2, 5)), (F(1, 5), F(3, 5)), (F(2, 5), F(2, 5)),
     (F(3, 5), F(3, 5)), (F(4, 5), F(2, 5)), (1, F(3, 5))],
)
print("  End dimension", end_dim(w_teeth), "deep:", is_deep(w_teeth))

print("\n== Interior sawtooth data is covered by a decorous submodule ==")
st2 = SawtoothDesc(F(1, 4), F(3, 4), [(F(1, 4), F(1, 4)), (H, H), (F(3, 4), F(1, 4))])
cover = decorous_cover(st2)
print("cover lives in P_k with k =", cover.k, "and boundary",
      [(str(x), str(v)) for x, v in cover.f.breakpoints])

out = Path(__file__).with_name("two_bubble_sheet.svg")
out.write_text(render_svg(RenderSpec(500, (("sheet", two_bubble), ("sheet", full)))))
print(f"\nwrote {out}")
