"""A short tour of the arithmetic and the argument branches.

Run as: python3 demos/01_algebra_tour.py
"""

import math

import numpy as np

import hyperlog as hl
from hyperlog.algebra import exp, log, mul

i = hl.basis("i")
j = hl.basis("j")
k = hl.basis("k")

print("== multiplication table ==")
print("i * j =", mul(i, j))
print("j * k =", mul(j, k))
print("k * i =", mul(k, i))
print("j * i =", mul(j, i), " (anti-commutative)")

e = hl.basis("e", dim=8)
i8 = hl.basis("i", dim=8)
print("octonions: i * e =", mul(i8, e))

print()
print("== exponential and principal logarithm ==")
q = np.array([1.0, 1.0, 1.0, 0.0])
lg = log(q)
print("q        =", q)
print("log q    =", lg)
print("exp log q=", exp(lg))

print()
print("== argument branches ==")
print("every branch of the argument exponentiates back to the same point:")
for branch in range(-2, 3):
    arg = hl.branch_argument(i, branch)
    print(f"  branch {branch:+d}: Arg = {arg}  exp(Arg) = {exp(arg)}")

print()
print("== the logarithmic manifold ==")
print("exp alone collapses branches; the manifold keeps them apart.")
p1 = hl.embed(i * (math.pi / 2))
p2 = hl.embed(i * (math.pi / 2 + 2 * math.pi))
print("E(i pi/2)          =", p1)
print("E(i (pi/2 + 2 pi)) =", p2)
print("same first factor, different fibre point -> the log is single-")
print("valued on the manifold:", hl.project_log(*p1), "vs", hl.project_log(*p2))
