"""The classification catalog: torus normal forms, the two tables of
maximal equal-rank extensions, and the parameter-family enumerations.

Run as `python demos/04_classification_catalog.py` (the verification pass
takes a few seconds; add --scan for the exhaustive rank-2 scans, a few
seconds more).
"""

import sys

from biq import catalog as ca
from biq import freeness as fr

print("=" * 70)
print("Free torus normal forms")
print("=" * 70)
print("\nOn the special unitary groups (two variants, 1 <= l <= n/2):")
for n, l in [(3, 1), (5, 2), (6, 3)]:
    t1 = ca.su_tori(n, l, 1)
    print(f"  n={n}, l={l}: free mod center = "
          f"{fr.is_free_exact(t1.weights, fr.MOD_CENTER).free}")
print("\nOn the symplectic groups:")
for n in (2, 3, 4):
    t1 = ca.sp_tori(n, 1)
    print(f"  n={n}: free mod center = "
          f"{fr.is_free_exact(t1.weights, fr.MOD_CENTER).free}")
print("\nVariant identifications (lattice equivalence up to the family's")
print("symmetries and the side swap):")
print(f"  rank-2 unitary variants coincide:    "
      f"{ca.lattice_equivalent(ca.su_tori(3, 1, 1).weights, ca.su_tori(3, 1, 2).weights)}")
print(f"  rank-2 symplectic variants coincide: "
      f"{ca.lattice_equivalent(ca.sp_tori(2, 1).weights, ca.sp_tori(2, 2).weights)}")
print(f"  rank-3 symplectic variants differ:   "
      f"{not ca.lattice_equivalent(ca.sp_tori(3, 1).weights, ca.sp_tori(3, 2).weights)}")
print(f"  the extra torus on SO(6) is new:     "
      f"{not ca.lattice_equivalent(ca.spin6_extra().weights, ca.p_torus_weights(3, 1, ca.so(6)))}")

print()
print("=" * 70)
print("Classification tables (A: rank-one symmetric space quotients)")
print("=" * 70)
for table in ("A", "B"):
    print(f"\nTable {table}:")
    for entry in ca.table_entries(table):
        rep = ca.verify_entry(entry)
        verdict = "ok" if rep["passed"] else "FAILED"
        quotient = f" -> {entry.quotient}" if entry.quotient else ""
        print(f"  row {entry.row:2d}: {entry.group_name:9s} "
              f"U = {entry.u1_description} x {entry.u2_description}{quotient}"
              f"  [{entry.verified}: {verdict}]")

print()
print("=" * 70)
print("Parameter families")
print("=" * 70)
esch = ca.enumerate_eschenburg(2)
free = [r for r in esch if r.free]
pos = [r for r in free if r.positive_flag]
print(f"\n7-dimensional family, entries bounded by 2: {len(esch)} canonical "
      f"records, {len(free)} free, {len(pos)} positively curvable")
bz = ca.enumerate_bazaikin(3)
print(f"13-dimensional family, entries bounded by 3: {len(bz)} canonical "
      f"records, {sum(r.free for r in bz)} free")

if "--scan" in sys.argv:
    print()
    print("=" * 70)
    print("Exhaustive rank-2 scans (uniqueness of the two-sided forms)")
    print("=" * 70)
    for scan in (ca.scan_two_torus_sp2(3), ca.scan_two_torus_su3(3)):
        print(f"  {scan.family}, entries bounded by {scan.bound}: "
              f"{scan.free_pairs} free generator pairs, "
              f"{len(scan.two_sided_classes)} genuinely two-sided class(es), "
              f"matches the normal form: {scan.matches_normal_form}")
