#!/usr/bin/env python3
"""Generate Weyl groups as integer matrices and study their fixed sets
on the torus T = t/Gamma.

The headline example: the SU(3) torus has three Weyl-fixed points but
the torus of the dual group PSU(3) has only one, so the two tori are not
equivariantly isomorphic even though (as the other demos show) their
equivariant K-theory ranks agree.
"""

from torusdual import build_simple, dualize, fixed_set, full_fixed_points, generate

print("== Weyl group sizes ==")
for type_, rank in [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("D", 4), ("F", 4)]:
    group = generate(build_simple(type_, rank, "sc"))
    print(f"  W({type_}{rank}): {len(group):5d} elements, {len(group.classes):3d} conjugacy classes")
print()

print("== fixed sets per conjugacy class, SU(3) ==")
su3 = build_simple("A", 2, "sc")
group = generate(su3)
for c in group.classes:
    w = group.array[c.representative]
    rep = fixed_set(w)
    print(f"  class of size {len(c.members)}: T^w has dimension {rep.fixed_dim} "
          f"with {rep.component_count()} component(s)")
print()

print("== W-fixed points: SU(3) vs its dual ==")
full = full_fixed_points(su3)
print(f"  SU(3) torus: {len(full)} fixed points:")
for p in full:
    print(f"    ({', '.join(str(x) for x in p)})")
dual_full = full_fixed_points(dualize(su3))
print(f"  dual torus:  {len(dual_full)} fixed point:")
for p in dual_full:
    print(f"    ({', '.join(str(x) for x in p)})")
print()

print("== the fixed points of the simply connected form recover the center ==")
from torusdual import center

for type_, rank in [("A", 1), ("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2)]:
    rd = build_simple(type_, rank, "sc")
    n_fixed = len(full_fixed_points(rd))
    z = center(rd)
    print(f"  {type_}{rank}: {n_fixed} fixed points, center {z} of order {z.order}")
    assert n_fixed == z.order
