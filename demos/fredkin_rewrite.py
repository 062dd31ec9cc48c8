#!/usr/bin/env python3
"""Deriving the Fredkin gate's branches by diagram rewriting.

Plugging the control wire of the postselected Fredkin gadget with a basis
state and running the rewrite engine reproduces the closed forms: the
identity for control 0 and the swap for control 1, with exact scalars.
"""

import numpy as np

from spinnet.exact import ExactScalar
from spinnet.rewrite import simplify
from spinnet.su2 import cswap_gadget
from spinnet.tensor import eval_diagram, plug_basis

# The default rules plus those that move the plugged control through the
# gadget (absorb, explode, copy, hopf, pi-copy).
FREDKIN_RULES = (
    "fuse", "remove-wire", "identity", "hh-cancel",
    "absorb", "explode", "copy", "hopf", "pi-copy",
)

for bit, name in ((0, "identity"), (1, "swap")):
    g = cswap_gadget()
    d = plug_basis(g, {g.inputs[0]: bit})
    s, trace = simplify(d, rules=FREDKIN_RULES)
    print(f"control |{bit}>: {len(d.vertices)} -> {len(s.vertices)} vertices "
          f"in {len(trace)} rewrites ({', '.join(r for r, _ in trace.steps)})")
    m = eval_diagram(s).to_matrix()
    for row in m:
        print("   ", [x.serialize() if x != ExactScalar.zero() else "0" for x in row])
    assert bool(np.all(m == eval_diagram(d).to_matrix())), "rewrites preserve the tensor"
    print(f"  -> exact {name} matrix, tensor preserved at every step")
    print()
