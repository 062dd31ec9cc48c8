"""End-to-end acceptance checks.

Every derived quantity is verified through two independent routes: the
diagrammatic one (build, contract exactly, apply corrections) and the
closed-form oracle.  Expected values are frozen literals, never recomputed
on the diagram side.
"""

import math
import re
import time
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinnet.exact import (
    ExactScalar,
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
    w3jm,
    w4jm,
    w6j,
    yutsis_matrix_3,
    yutsis_matrix_4,
)
import sweeps
from sweeps import ORIENTATIONS_3, SPINS_UP_TO_2, SPINS_UP_TO_3_HALVES, TRIADS_UP_TO_2, admissible_6j
from test_exact import _ref_half_integer_range
from test_rewrite import check_rule_soundness
from test_wigner import SEXTUPLES, assert_3jm_orthogonality, assert_3jm_symmetries, assert_6j_tetrahedral_symmetry

H = Fraction(1, 2)
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


def test_3jm_orthogonality_exhaustive():
    assert_3jm_orthogonality(SPINS_UP_TO_3_HALVES)


def test_3jm_symmetries_exhaustive():
    assert_3jm_symmetries(SPINS_UP_TO_3_HALVES)


@pytest.mark.parametrize("js", SEXTUPLES)
def test_6j_tetrahedral_symmetry(js):
    assert_6j_tetrahedral_symmetry(js)


# -- 14. the CI sweeps, at a smaller range and sampled at their full range ---


def test_6j_sweep_spins_up_to_three_halves_exact():
    symbols = admissible_6j(SPINS_UP_TO_3_HALVES)
    assert len(symbols) == 181
    assert sum(max(js) <= 1 for js in symbols) == 47
    assert sweeps.six_j_oracle(SPINS_UP_TO_3_HALVES) == ((181, 362), [])


@settings(derandomize=True, max_examples=5, deadline=None, database=None)
@given(st.sampled_from(admissible_6j(SPINS_UP_TO_2)), st.sampled_from(TRIADS_UP_TO_2),
       st.sampled_from(ORIENTATIONS_3), st.data())
def test_a_sample_of_the_full_range_passes_the_sweeps_checks(js6, js3, orient, data):
    assert [bad for case in sweeps.six_j_routes([js6]) for bad in sweeps.check_6j(*case)] == []
    (vertex,) = sweeps.vertices_3jm([js3], [orient])
    assert sweeps.check_open(*vertex) == sweeps.check_invariance(*vertex) == []
    ms = data.draw(st.tuples(*(st.sampled_from(_ref_half_integer_range(j)) for j in js3)))
    assert sweeps.check_plugged(js3, ms, data.draw(st.sampled_from(("iio", "ioo")))) == []


def test_ci_runs_every_sweep_once():
    workflow = (Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml").read_text()
    assert re.findall(r"python3 -m sweeps (\S+)", workflow) == list(sweeps.SWEEPS)
