#!/usr/bin/env python3
"""Tour of the qubit-bundle symmetriser.

Builds the n-wire symmetriser diagram, contracts it exactly, and checks the
projector laws S^2 = S, S = S^T and trace S = n + 1 in exact arithmetic.
"""

import numpy as np

from spinnet.exact import ExactScalar
from spinnet.su2 import lambda_n, symmetriser
from spinnet.tensor import eval_diagram

for n in (2, 3):
    d = symmetriser(n)
    print(f"symmetriser({n}): {len(d.vertices)} vertices, {len(d.edges)} edges")
    print(f"  bundle normalisation lambda_{n} = {lambda_n(n).serialize()}")
    s = eval_diagram(d).to_matrix()
    print(f"  exact {2**n} x {2**n} matrix:")
    for row in s:
        print("   ", [x.to_radical().serialize() for x in row])
    assert bool(np.all(s.dot(s) == s)), "S^2 = S"
    assert bool(np.all(s.T == s)), "S = S^T"
    tr = ExactScalar.zero()
    for i in range(2**n):
        tr = tr + s[i, i]
    assert tr == ExactScalar(n + 1), "trace S = n + 1"
    print(f"  projector laws hold; trace = {n + 1}")
    print()
