"""Where continuations of the logarithm can fail: contacts with the reals.

Run as: python3 demos/02_obstructions.py
"""

import hyperlog as hl


def show(name):
    sp, rep, sampling = hl.obstruct_path(hl.demo(name).path)
    print(f"-- {name} ({sampling}, {len(sp.params)} samples)")
    for c in rep.contacts:
        wrap = ", at the loop basepoint" if c.wrap else ""
        print(
            f"   contact t={c.t:.6f} value={c.value:+.3f} "
            f"kind={c.kind}{wrap}"
        )
    for r in rep.runs:
        print(f"   real run [{r.t0:.4f}, {r.t1:.4f}] sign {r.sign:+d}")
    print(f"   tame: {rep.tame}  unique companion: {rep.companion_unique}")
    print()


print("A path in a single slice crosses the axis transversally: each")
print("crossing is a flip (the imaginary direction reverses).")
show("slice_circle(i,1,1)")

print("The half circle that changes slice at -1 arrives along i and")
print("leaves along j: both one-sided directions exist but disagree, so")
print("the contact is semi-tame and blocks every continuation there.")
show("sigma_arc")

print("A loop can also touch the axis with no direction limit at all;")
print("near its contact the direction spins endlessly and the adaptive")
print("sampler gives up by design, leaving a uniform fallback grid:")
show("rocket_neg")

print("Paths that spend positive time on the axis leave the companion")
print("underdetermined: each real run accepts a flip or bounce directive.")
show("three_exp")
