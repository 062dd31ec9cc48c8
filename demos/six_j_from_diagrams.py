#!/usr/bin/env python3
"""Computing a 6j symbol two independent ways.

Route 1: assemble the closed tetrahedral diagram from four 3-valent
intertwiner vertices and six summed edges, contract it exactly, and apply
the recorded correction factor.

Route 2: the closed-form oracle, Racah's single sum.
"""

import time

from spinnet.su2 import network_6j
from spinnet.tensor import eval_diagram, plan_contraction
from spinnet.wigner import w6j

js = (2, 1, 1, 1, 1, 1)
print(f"6j symbol {{{js[0]} {js[1]} {js[2]}; {js[3]} {js[4]} {js[5]}}}")

d, corr = network_6j(*js)
plan = plan_contraction(d)
print(f"diagram: {len(d.vertices)} vertices, contraction peak rank {plan.peak_rank}")

t0 = time.monotonic()
raw = eval_diagram(d, mode="exact", plan=plan).scalar_value().to_radical()
print(f"raw diagram value: {raw.serialize()}  ({time.monotonic() - t0:.2f}s exact)")
print(f"correction factor: {corr.value.serialize()}")

diagram_value = raw * corr.value
oracle_value = w6j(*js)
print(f"corrected value:   {diagram_value.serialize()}")
print(f"oracle value:      {oracle_value.serialize()}")
assert diagram_value == oracle_value, "routes must agree exactly"
print("both routes agree exactly.")
