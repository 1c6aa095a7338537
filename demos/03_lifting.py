"""Continuing the logarithm along a path, and when it cannot be done.

Run as: python3 demos/03_lifting.py
"""

import numpy as np

import hyperlog as hl

print("== a full positive turn gains one turn of argument ==")
spec = hl.demo("slice_circle(i,1,1)").path
res = hl.lift_path(spec)
lift = res.lift
print("start:", lift.values[0], " end:", lift.values[-1])
print("branch trace:", lift.branch_trace)
print("terminal branch:", lift.final_branch)
sig = hl.signature(hl.obstruct_path(spec)[1])
print("predicted from the signature:", hl.terminal_branch(lift.k0, sig))
print()

print("== the semi-tame contact stops the continuation ==")
res = hl.lift_path(hl.demo("sigma_arc").path)
print(f"status: {res.status} at t={res.t_fail:.4f} ({res.reason})")
print()

print("== ... but its reflection sails through +1 ==")
hat = hl.demo("sigma_hat").path
res = hl.lift_path(hat)
print("status:", res.status)
print("max residual of exp(lift) vs the path:",
      hl.verify_lift(res.lift, hl.obstruct_path(hat)[0]))
print()

print("== a lift can exist openly yet refuse to close up ==")
spec = hl.demo("meridians").path
res = hl.lift_path(spec)
gap = np.linalg.norm(res.lift.values[-1] - res.lift.values[0])
print("open lift status:", res.status)
print("value gap over one traversal:", gap)
print("closed lift:", res.closed_lift)
print("closed-sense liftability criterion:",
      hl.closed_nontame_liftable(spec))
print()

print("== the spinning loop: failure and rescue by reflection ==")
res = hl.lift_path(
    hl.demo("rocket_neg").path, initial_unit=np.array([1.0, 0.0, 0.0])
)
print("negative rocket:", res.status, f"(sampling: {res.sampling})")
res = hl.lift_path(hl.demo("rocket_pos").path)
print("reflected rocket:", res.status, " closed lift:", res.closed_lift)
