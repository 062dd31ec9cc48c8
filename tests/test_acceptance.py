"""End-to-end acceptance checks.

Every derived quantity is verified through two independent routes: the
diagrammatic one (build, contract exactly, apply corrections) and the
closed-form oracle.  Expected values are frozen literals, never recomputed
on the diagram side.
"""

import math
import time
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from spinnet.exact import (
    ExactScalar,
    HalfInteger,
    RadicalNumber,
    sqrt_rational,
)
from spinnet.rewrite import RULES, simplify
from spinnet.su2 import (
    VertexSpec,
    corrected_spin_matrix,
    cswap_gadget,
    exact_matrix,
    invariance_defect,
    lambda_n,
    loop_network,
    network_6j,
    plug_vertex_arguments,
    symmetriser,
    theta_network,
    vertex_3jm,
    vertex_4jm,
)
from spinnet.tensor import eval_diagram, plug_basis
from spinnet.wigner import (
    invariant_loop,
    invariant_theta,
    triangle_ok,
    w3jm,
    w4jm,
    w6j,
    yutsis_matrix_3,
    yutsis_matrix_4,
)
from test_exact import _ref_half_integer_range
from test_rewrite import check_rule_soundness

H = Fraction(1, 2)
ONE = RadicalNumber.one()
ZERO = RadicalNumber.zero()


def rad(q, s=1):
    return RadicalNumber({s: Fraction(q)})


# -- 1. postselected Fredkin gadget ----------------------------------------


def test_cswap_gadget_matrix_bit_exact():
    t0 = time.monotonic()
    got = exact_matrix(cswap_gadget())
    inv = sqrt_rational(H)  # 1/sqrt(2)
    pattern = [
        [1, 0, 0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 1],
    ]
    want = [[inv if b else ZERO for b in row] for row in pattern]
    assert got == want
    assert time.monotonic() - t0 < 1.0


# -- 2. symmetriser scalars -------------------------------------------------


def test_symmetriser_scalars_formula_and_projector():
    t0 = time.monotonic()
    frozen = {
        2: rad(Fraction(1, 2), 2),       # 1/sqrt(2)
        3: rad(Fraction(1, 6), 2),       # 1/(3 sqrt(2))
        4: rad(Fraction(1, 48)),
        5: rad(Fraction(1, 7680)),
    }
    for n, want in frozen.items():
        assert lambda_n(n) == want
    # Independent route: strip the formula scalar and recover lambda from
    # the exact-projector requirement T^2 = (1/lambda) T.
    for n in (2, 3, 4):
        d = symmetriser(n)
        d.mul_scalar(lambda_n(n).to_exact_scalar().inverse())
        t = eval_diagram(d).to_matrix()
        c = t[0, 0]
        assert bool(np.all(t.dot(t) == c * t))
        assert c.inverse().to_radical() == frozen[n]
    # n = 5 in float mode with 1e-9 projector tolerance.
    d5 = symmetriser(5)
    d5.mul_scalar(lambda_n(5).to_exact_scalar().inverse())
    t5 = eval_diagram(d5, mode="float").to_matrix().real
    c5 = t5[0, 0]
    assert np.abs(t5 @ t5 - c5 * t5).max() < 1e-9 * abs(c5)
    assert abs(1.0 / c5 - frozen[5].to_float()) < 1e-9
    assert time.monotonic() - t0 < 30.0


# -- 3. symmetriser laws ----------------------------------------------------


def permutation_matrix(n, perm):
    dim = 2 ** n
    u = np.full((dim, dim), ExactScalar.zero(), dtype=object)
    for i in range(dim):
        bits = [(i >> (n - 1 - k)) & 1 for k in range(n)]
        j = sum(bits[perm[k]] << (n - 1 - k) for k in range(n))
        u[j, i] = ExactScalar.one()
    return u


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetriser_laws_exact(n):
    s = eval_diagram(symmetriser(n)).to_matrix()
    assert bool(np.all(s.dot(s) == s))
    assert bool(np.all(s.T == s))
    for perm in permutations(range(n)):
        assert bool(np.all(s.dot(permutation_matrix(n, perm)) == s))
    tr = ExactScalar.zero()
    for i in range(2 ** n):
        tr = tr + s[i, i]
    assert tr == ExactScalar(n + 1)


# -- 4. plugged 3-valent vertex ---------------------------------------------


def test_plugged_vertex_half_half_one():
    spins, ms, orient = (H, H, 1), (H, H, -1), "iio"
    d, corr = vertex_3jm(VertexSpec(spins, orient))
    d = plug_vertex_arguments(d, corr, spins, ms, orient)
    raw = eval_diagram(d).scalar_value().to_radical()
    assert raw == rad(-4, 2)  # -sqrt(2)^5
    corrected = raw * corr.value
    minus_inv_sqrt3 = -sqrt_rational(Fraction(1, 3))
    assert corrected == minus_inv_sqrt3
    assert corrected == w3jm(*spins, *ms)
    # The correction itself decomposes as plug norm x lambda x 1/N.
    assert corr.plug_norm == sqrt_rational(Fraction(1, 2)) ** 4  # sqrt(2)^-4
    assert corr.value == corr.plug_norm * corr.lambdas * corr.norms


# -- 5. 3-valent vertex matrices --------------------------------------------


def test_vertex_matrix_half_half_one():
    spins, orient = (H, H, 1), "iio"
    d, corr = vertex_3jm(VertexSpec(spins, orient))
    got = corrected_spin_matrix(d, corr, [H, H], [1])
    a = -sqrt_rational(Fraction(1, 3))
    b = sqrt_rational(Fraction(1, 6))
    want = [
        [a, ZERO, ZERO, ZERO],
        [ZERO, b, b, ZERO],
        [ZERO, ZERO, ZERO, a],
    ]
    assert got == want
    assert got == yutsis_matrix_3(spins, orient)


def test_vertex_matrix_one_one_one():
    spins, orient = (1, 1, 1), "iio"
    d, corr = vertex_3jm(VertexSpec(spins, orient))
    got = corrected_spin_matrix(d, corr, [1, 1], [1])
    b = sqrt_rational(Fraction(1, 6))
    want = [
        [ZERO, b, ZERO, -b, ZERO, ZERO, ZERO, ZERO, ZERO],
        [ZERO, ZERO, -b, ZERO, ZERO, ZERO, b, ZERO, ZERO],
        [ZERO, ZERO, ZERO, ZERO, ZERO, b, ZERO, -b, ZERO],
    ]
    assert got == want
    assert got == yutsis_matrix_3(spins, orient)


# -- 6. 4-valent vertex matrices --------------------------------------------


def test_four_valent_matrices_spin_halves():
    spins = (H, H, H, H)
    third, sixth, half = rad(Fraction(1, 3)), rad(Fraction(1, 6)), rad(Fraction(1, 2))
    d, corr = vertex_4jm(spins, 1, "iioo")
    got1 = corrected_spin_matrix(d, corr, [H, H], [H, H])
    want1 = [
        [third, ZERO, ZERO, ZERO],
        [ZERO, -sixth, -sixth, ZERO],
        [ZERO, -sixth, -sixth, ZERO],
        [ZERO, ZERO, ZERO, third],
    ]
    assert got1 == want1
    assert got1 == yutsis_matrix_4(spins, 1, "iioo")

    d, corr = vertex_4jm(spins, 0, "iioo")
    got0 = corrected_spin_matrix(d, corr, [H, H], [H, H])
    want0 = [
        [ZERO, ZERO, ZERO, ZERO],
        [ZERO, -half, half, ZERO],
        [ZERO, half, -half, ZERO],
        [ZERO, ZERO, ZERO, ZERO],
    ]
    assert got0 == want0
    assert got0 == yutsis_matrix_4(spins, 0, "iioo")


# -- 7. plugged 4-valent vertex ---------------------------------------------


def test_plugged_four_valent_value():
    spins, j, ms = (1, 1, H, H), 1, (1, 0, -H, -H)
    d, corr = vertex_4jm(spins, j, "iioo")
    d = plug_vertex_arguments(d, corr, spins, ms, "iioo")
    raw = eval_diagram(d).scalar_value().to_radical()
    assert raw == rad(8, 2)  # sqrt(2)^7
    corrected = raw * corr.value
    want = sqrt_rational(Fraction(1, 3)) * sqrt_rational(Fraction(1, 6))  # sqrt(2)/6
    assert want == rad(Fraction(1, 6), 2)
    assert corrected == want
    assert corrected == w4jm(*spins, *ms, j)


# -- 8. closed tetrahedral network, exact -----------------------------------


def test_closed_tetrahedron_exact():
    t0 = time.monotonic()
    d, corr = network_6j(2, 1, 1, 1, 1, 1)
    raw = eval_diagram(d, mode="exact").scalar_value().to_radical()
    assert raw == rad(480, 2)  # 480 sqrt(2)
    corrected = raw * corr.value
    assert corrected == rad(Fraction(1, 6))
    assert corrected == w6j(2, 1, 1, 1, 1, 1)
    assert time.monotonic() - t0 < 60.0


# -- 9. larger closed network, float ----------------------------------------


def test_closed_tetrahedron_large_float():
    t0 = time.monotonic()
    d, corr = network_6j(2, 2, 2, 1, 1, 1)
    raw = eval_diagram(d, mode="float").scalar_value().real
    want_raw = 645120 * math.sqrt(2)
    assert abs(raw - want_raw) < 1e-8 * want_raw
    corrected = raw * corr.value.to_float()
    want = math.sqrt(21) / 30
    assert abs(corrected - want) < 1e-8
    assert abs(corrected - w6j(2, 2, 2, 1, 1, 1).to_float()) < 1e-8
    assert time.monotonic() - t0 < 900.0


# -- 9b. larger closed networks, exact --------------------------------------


@pytest.mark.parametrize(
    "js,want_raw",
    [((2, 2, 2, 1, 1, 1), rad(645120, 2)), ((2, 2, 2, 2, 2, 2), rad(-4459069440))],
)
def test_closed_tetrahedron_large_exact(js, want_raw):
    d, corr = network_6j(*js)
    raw = eval_diagram(d, mode="exact").scalar_value().to_radical()
    assert raw == want_raw  # the float route gives the same raw value
    assert raw * corr.value == w6j(*js)


# -- 10. loop and theta invariants ------------------------------------------


@pytest.mark.parametrize("j,dim", [(H, 2), (1, 3), (Fraction(3, 2), 4)])
def test_loop_invariant(j, dim):
    d, corr = loop_network(j)
    raw = eval_diagram(d).scalar_value().to_radical()
    assert raw * corr.value == rad(dim)
    assert raw * corr.value == invariant_loop(j)


@pytest.mark.parametrize(
    "triad,sign", [((H, H, 1), 1), ((1, 1, 1), -1), ((Fraction(3, 2), 1, H), -1)]
)
def test_theta_invariant(triad, sign):
    d, corr = theta_network(*triad)
    raw = eval_diagram(d).scalar_value().to_radical()
    assert raw * corr.value == rad(sign)
    assert raw * corr.value == invariant_theta(*triad)


# -- 11. SU(2) invariance -----------------------------------------------------
#
# Checked exactly, through the su(2) generators: a zero defect covers every
# rotation, so no angles are sampled.  The full sweep is in
# tests/test_su2.py (TestInvariance).


@pytest.mark.parametrize("spins", [(H, H, 1), (1, 1, 1)])
def test_vertex_su2_invariance_random_rotations(spins):
    d, _ = vertex_3jm(VertexSpec(spins, "iio"))
    assert invariance_defect(d, dual_inputs=True) == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetriser_su2_commutation(n):
    assert invariance_defect(symmetriser(n), dual_inputs=False) == 0


# -- 12. rewrite soundness and gadget derivations ----------------------------


@pytest.mark.parametrize("rule", sorted(RULES))
def test_every_shipped_rule_sound_200_trials(rule):
    assert check_rule_soundness(rule, trials=200, seed=12345) == 0


# The default rules plus those that move a plugged control through the gadget.
CSWAP_RULES = (
    "fuse", "remove-wire", "identity", "hh-cancel",
    "absorb", "explode", "copy", "hopf", "pi-copy",
)


def test_simplify_reproduces_control_branches():
    # Control |0>: the gadget collapses entirely to two plain wires.
    g = cswap_gadget()
    d0 = plug_basis(g, {g.inputs[0]: 0})
    s0, tr0 = simplify(d0, rules=CSWAP_RULES)
    assert len(tr0) > 0
    assert all(data.kind == "B" for data in s0.vertices.values())
    eye = np.where(np.eye(4) == 1, ExactScalar.one(), ExactScalar.zero())
    assert bool(np.all(eval_diagram(s0).to_matrix() == eye))
    # Control |1>: simplification shrinks the diagram and the exact matrix
    # stays the swap, with unit coefficient.
    g = cswap_gadget()
    d1 = plug_basis(g, {g.inputs[0]: 1})
    s1, tr1 = simplify(d1, rules=CSWAP_RULES)
    assert len(tr1) > 0 and len(s1.vertices) < len(d1.vertices)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    want = np.where(swap == 1, ExactScalar.one(), ExactScalar.zero())
    assert bool(np.all(eval_diagram(s1).to_matrix() == want))


# -- 13. oracle property suite ------------------------------------------------


SPINS = [Fraction(0), H, Fraction(1), Fraction(3, 2)]


def test_3jm_orthogonality_exhaustive():
    for j1 in SPINS:
        for j2 in SPINS:
            h1, h2 = HalfInteger(j1), HalfInteger(j2)
            for j3 in SPINS:
                for j3p in SPINS:
                    h3, h3p = HalfInteger(j3), HalfInteger(j3p)
                    if not (triangle_ok(h1, h2, h3) and triangle_ok(h1, h2, h3p)):
                        continue
                    for m3 in _ref_half_integer_range(h3):
                        for m3p in _ref_half_integer_range(h3p):
                            total = ZERO
                            for m1 in _ref_half_integer_range(h1):
                                for m2 in _ref_half_integer_range(h2):
                                    total = total + (
                                        w3jm(h1, h2, h3, m1, m2, m3)
                                        * w3jm(h1, h2, h3p, m1, m2, m3p)
                                    )
                            same = h3.twice == h3p.twice and m3.twice == m3p.twice
                            want = (
                                RadicalNumber({1: Fraction(1, h3.twice + 1)})
                                if same
                                else ZERO
                            )
                            assert total == want


def test_3jm_symmetries_exhaustive():
    for j1 in SPINS:
        for j2 in SPINS:
            for j3 in SPINS:
                h = [HalfInteger(j1), HalfInteger(j2), HalfInteger(j3)]
                if not triangle_ok(*h):
                    continue
                jtot2 = h[0].twice + h[1].twice + h[2].twice
                sign = ONE if (jtot2 // 2) % 2 == 0 else -ONE
                for m1 in _ref_half_integer_range(h[0]):
                    for m2 in _ref_half_integer_range(h[1]):
                        m3 = -(m1 + m2)
                        if abs(m3.twice) > h[2].twice:
                            continue
                        ms = [m1, m2, m3]
                        base = w3jm(*h, *ms)
                        for perm in permutations(range(3)):
                            val = w3jm(*(h[p] for p in perm), *(ms[p] for p in perm))
                            even = perm in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
                            assert val == (base if even else sign * base)
                        assert w3jm(*h, -m1, -m2, -m3) == sign * base


SEXTUPLES = [
    (1, 1, 1, 1, 1, 1),
    (2, 1, 1, 1, 1, 1),
    (2, 2, 2, 1, 1, 1),
    (H, H, 1, H, H, 1),
    (1, H, H, 1, H, H),
    (Fraction(3, 2), 1, H, H, 1, Fraction(3, 2)),
]


@pytest.mark.parametrize("js", SEXTUPLES)
def test_6j_tetrahedral_symmetry(js):
    j1, j2, j3, j4, j5, j6 = js
    cols = [(j1, j4), (j2, j5), (j3, j6)]
    base = w6j(*js)
    for perm in permutations(range(3)):
        p = [cols[k] for k in perm]
        assert w6j(p[0][0], p[1][0], p[2][0], p[0][1], p[1][1], p[2][1]) == base
    for a in range(3):
        for b in range(a + 1, 3):
            p = [list(c) for c in cols]
            p[a].reverse()
            p[b].reverse()
            assert w6j(p[0][0], p[1][0], p[2][0], p[0][1], p[1][1], p[2][1]) == base


# -- 14. oracle sweep: every admissible 6j with spins <= 3/2 -----------------


def _admissible_6j(max_spin):
    """Every (j1, ..., j6) with spins in {0, 1/2, ..., max_spin} whose four
    triads (j1 j2 j3), (j1 j5 j6), (j4 j2 j6), (j3 j4 j5) are admissible."""
    values = [Fraction(t, 2) for t in range(int(2 * max_spin) + 1)]
    out = []
    for js in product(values, repeat=6):
        j1, j2, j3, j4, j5, j6 = js
        triads = ((j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j3, j4, j5))
        if all(triangle_ok(*t) for t in triads):
            out.append(js)
    return out


def test_6j_sweep_spins_up_to_three_halves_exact():
    symbols = _admissible_6j(Fraction(3, 2))
    assert len(symbols) == 181
    assert sum(max(js) <= 1 for js in symbols) == 47
    for js in symbols:
        d, corr = network_6j(*js)
        want = w6j(*js)
        for route, diagram in (("plain", d), ("simplify", simplify(d)[0])):
            raw = eval_diagram(diagram, mode="exact").scalar_value().to_radical()
            assert raw * corr.value == want, (js, route)
