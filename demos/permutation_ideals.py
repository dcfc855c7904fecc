"""Walk through the discrete side: projectives, stripping, ideals, rigidity.

Run:  python demos/permutation_ideals.py
Writes ideal_25341.svg next to this script.
"""

from pathlib import Path

from preproj.finite import (
    hom_dims,
    ideal_of,
    ideal_via_word,
    is_tau_rigid_ideal,
    is_zero,
    projective,
    strip,
    tau_sub,
    top_removable,
)
from preproj.render import RenderSpec, render_svg
from preproj.symgroup import Perm, all_reduced_words


def show(module, label):
    marker = "  (zero)" if is_zero(module) else ""
    print(f"  {label}: {[str(v) for v in module.curve.values]}{marker}")


print("== The preprojective algebra on 4 vertices (unit square, y down) ==")
print("Each projective P_i is a diamond; curves sample its boundary at j/5.\n")
for i in range(1, 5):
    show(projective(i, 5), f"P_{i}")

print("\n== Stripping the top simple ==")
p2 = projective(2, 5)
print(f"top of P_2 holds S_j for j in {sorted(top_removable(p2))}")
s = strip(p2, 2)
show(s, "P_2 after stripping S_2")
print(f"now the top holds {sorted(top_removable(s))} (two new peaks)\n")

print("== The ideal of w = 25341 ==")
w = Perm((2, 5, 3, 4, 1))
ideal = ideal_of(w)
for i, m in enumerate(ideal, start=1):
    show(m, f"(I_w)^{i}")
print("note the first summand is zero: all of P_1 was stripped away\n")

print("== Independence of the reduced word ==")
words = all_reduced_words(w)
print(f"w has {len(words)} reduced words; every one yields the same ideal:",
      all(ideal_via_word(word, 5) == ideal for word in words))

print("\n== tau-rigidity ==")
print("Hom((I_w)^i, P_j/(I_w)^j) vanishes for every pair:")
quots = [tau_sub(m) for m in ideal]
for m in ideal:
    print("  ", hom_dims(m, quots))
print("is_tau_rigid_ideal(w):", is_tau_rigid_ideal(w))

out = Path(__file__).with_name("ideal_25341.svg")
out.write_text(render_svg(RenderSpec(500, tuple(("curve_module", m) for m in ideal))))
print(f"\nwrote {out}")
