"""Walk through the continuous side: permutons, boundary curves, the bridge.

Run:  python demos/permuton_bridge.py
"""

from fractions import Fraction as F

from preproj.continuous import bridge_mismatch, ideal_leq, left_act, tau_rigidity_cert
from preproj.permuton import boundary_function, from_perm, permuton_bruhat_leq, uniform
from preproj.plfunc import pointwise_leq
from preproj.symgroup import Perm, all_perms, bruhat_leq

w = Perm((2, 5, 3, 4, 1))
mu = from_perm(w)

print("== Boundary functions of the permuton of w = 25341 ==")
print("f(x) = -2 mu([0,x]x[0,y]) + y + x, one curve per apex y:\n")
for j in range(1, 5):
    b = boundary_function(mu, F(j, 5))
    print(f"  y={j}/5:", [(str(x), str(v)) for x, v in b.f.breakpoints])

print("\n== The bridge: curves of I_w equal permuton boundary curves ==")
print("at apex i/5 the permuton summand reproduces the ideal curve exactly:")
print("  all i:", all(bridge_mismatch(w, i) is None for i in range(1, 5)))
print("  every w in S_5, every i:",
      all(bridge_mismatch(v, i) is None for v in all_perms(5) for i in range(1, 5)))

print("\n== Worked permutons ==")
print("uniform measure: every summand is the chord from (0,a) to (1,1-a):")
for a in (F(1, 4), F(1, 2)):
    d = boundary_function(uniform(4), a)
    print(f"  a={a}:", [(str(x), str(v)) for x, v in d.f.breakpoints])

print("\n== The permuton Bruhat order restricts to the classical one ==")
agree = all(
    permuton_bruhat_leq(from_perm(u), from_perm(v)) == bruhat_leq(u, v)
    for u in all_perms(4)
    for v in all_perms(4)
)
print("  576 ordered pairs in S_4 agree:", agree)
print("  and ideal inclusion runs opposite to the order:",
      ideal_leq(from_perm(Perm((3, 2, 1))), from_perm(Perm((2, 3, 1)))))

print("\n== Two-sidedness of the ideal ==")
pushed = left_act(boundary_function(mu, F(3, 5)), F(2, 5))
print("  pushing the y=3/5 summand into P_{2/5} stays inside the ideal:",
      pointwise_leq(boundary_function(mu, F(2, 5)).f, pushed.f))

print("\n== Rigidity certificates ==")
for a, b in ((F(1, 5), F(4, 5)), (F(4, 5), F(1, 5)), (F(2, 5), F(2, 5))):
    print(f"  Hom(D^({a}), U^({b})) = 0 via", tau_rigidity_cert(mu, a, b).value)
