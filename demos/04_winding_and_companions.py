"""Companions, twisted loops and winding numbers.

Run as: python3 demos/04_winding_and_companions.py
"""

import numpy as np

import hyperlog as hl
from hyperlog.errors import TwistedLoop

print("== one loop, two companions, two winding numbers ==")
case = hl.demo("three_exp")
for name, directives in sorted(case.directives.items()):
    res = hl.analyze_loop(case.path, directives)
    print(
        f"companion {name!r}: directives {directives}, "
        f"winding {res.winding}, circular signature {res.circular_signature}"
    )
bounce = hl.analyze_loop(case.path, case.directives["constant_i"])
flip = hl.analyze_loop(case.path, case.directives["J_path"])
print(
    "deformable into each other together with their companions:",
    hl.c_homotopy_equivalent(bounce, flip),
)
print()

print("== a twisted loop has no winding number ==")
spec = hl.demo("lambda_loop").path
res = hl.analyze_loop(spec)
print("twisted:", res.twisted)
try:
    hl.winding_number(spec)
except TwistedLoop as err:
    print("winding_number:", err)
print("what it does have is a per-basepoint branch change:")
case = hl.demo("lambda_loop")
print(
    "  from +1:",
    hl.branch_change_report(spec, case.basepoints["plus_one"]),
)
print(
    "  from -1:",
    hl.branch_change_report(
        spec,
        case.basepoints["minus_one"],
        initial_unit=np.array(case.initial_units["minus_one"])[1:],
    ),
)
print()

print("== the branch change depends on where you start ==")
case = hl.demo("gamma1m_gamma2(3)")
for copy in sorted(case.basepoints):
    change = hl.branch_change_report(
        case.path,
        case.basepoints[copy],
        initial_unit=np.array(case.initial_units[copy])[1:],
    )
    print(f"  basepoint on {copy}: branch change {change:+d}")
print()

print("== shadows make all of this planar ==")
spec = hl.demo("slice_circle(i,2,1)").path
sp, rep, _sampling = hl.obstruct_path(spec)
shadow = hl.shadow_of(sp, rep)
print("the circle's shadow winds", hl.shadow_winding(shadow), "time around 0;")
print("its conjugate winds", hl.shadow_winding(shadow.conjugate()), "time.")
