"""Tour of the algebra layer: root decompositions, invariant metrics, and
sectional curvature of the resulting geometries.

Run as `python demos/01_root_spaces_and_curvature.py`.
"""

import numpy as np

from biq import algebra as al
from biq import curvature as cu
from biq import metric as me

rng = np.random.default_rng(0)


def numerator_and_area(P, x, y):
    """The kernel's curvature numerator of span{x, y} and the plane's area
    <x,x><y,y> - <x,y>^2 under the metric."""
    cx, cy = P.dec.to_coords(x), P.dec.to_coords(y)
    area = float(cx @ P.mat @ cx) * float(cy @ P.mat @ cy) - float(cx @ P.mat @ cy) ** 2
    return float(cu.plane_terms(P, cx[None], cy[None]).numerator[0]), area


print("=" * 70)
print("Root-space decompositions with respect to the standard maximal torus")
print("=" * 70)
for fam in (al.su(3), al.sp(2), al.so(5), al.so(6)):
    dec = al.root_decomposition(fam)
    print(f"\n{fam}: dim {fam.dim}, rank {fam.rank}, {len(dec.roots)} root spaces")
    for r in dec.roots:
        print(f"  root functional {r.vector} (diagonal torus coordinates)")

print()
print("Every root pair (X, Y) rotates under the torus: [Z,X] = -r(Z) Y,")
print("[Z,Y] = r(Z) X.  Sanity check on a random Cartan element of sp(2):")
fam = al.sp(2)
dec = al.root_decomposition(fam)
z = al.torus_element(fam, rng.standard_normal(2))
r = dec.roots[0]
lhs = al.bracket(z, r.x).mat
print(f"  ||[Z,X] + r(Z) Y|| = {np.abs(lhs + r.value(z) * r.y.mat).max():.2e}")

print()
print("=" * 70)
print("Torus-invariant metrics: arbitrary on the Cartan subalgebra, one")
print("positive scalar per root space")
print("=" * 70)
dec = al.root_decomposition(al.su(3))
P = me.build_metric(dec, t_block=np.diag([1.0, 2.0]), alphas=[1.0, 2.0, 3.0])
x = dec.roots[1].x
print(f"\nP scales the second root space by its alpha: "
      f"P(X) = {al.inner_q(me.apply_P(P, x), x):.1f} X")

print("\nSectional curvature via the four-term numerator; for the")
print("bi-invariant metric it collapses to |[X,Y]|^2 / 4:")
P_id = me.build_metric(dec)
x = al.random_algebra_element(al.su(3), rng)
y = al.random_algebra_element(al.su(3), rng)
num, area = numerator_and_area(P_id, x, y)
xy = al.bracket(x, y)
print(f"  sectional        = {num / area:.6f}")
print(f"  |[X,Y]|^2/(4 A)  = {0.25 * al.inner_q(xy, xy) / area:.6f}")

print("\nGeneric invariant metrics are not curvature-nonnegative:")
alphas = [0.3, 2.0, 1.1]
P_def = me.build_metric(dec, alphas=alphas)
vals = []
for _ in range(2000):
    x = al.random_algebra_element(al.su(3), rng)
    y = al.random_algebra_element(al.su(3), rng)
    num, area = numerator_and_area(P_def, x, y)
    vals.append(num / area)
print(f"  alphas {alphas}: sectional range "
      f"[{min(vals):.3f}, {max(vals):.3f}] over 2000 planes")
