"""SU(2) recoupling builders: symmetrisers, links, vertices, networks."""

import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinnet.exact import ExactScalar, HalfInteger, RadicalNumber, half_integer_range, sqrt_rational
from spinnet.graph import VertexData, X, Z
from spinnet.su2 import (
    NetworkSpec,
    NodeSpec,
    OpenLegSpec,
    VertexSpec,
    assemble_network,
    binor_N,
    corrected_spin_matrix,
    crown,
    cswap_gadget,
    exact_matrix,
    invariance_defect,
    lambda_n,
    loop_network,
    network_6j,
    plug_vertex_arguments,
    project_to_spin_basis,
    symmetriser,
    theta_network,
    vertex_3jm,
    vertex_4jm,
    yutsis_link,
)
from spinnet.tensor import eval_diagram, to_matrix
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

H = Fraction(1, 2)


def exact_projector(n):
    """S_n as an object array of ExactScalar, from permutation averaging."""
    dim = 2 ** n
    acc = np.full((dim, dim), Fraction(0), dtype=object)
    for perm in permutations(range(n)):
        for i in range(dim):
            bits = [(i >> (n - 1 - k)) & 1 for k in range(n)]
            j = sum(bits[perm[k]] << (n - 1 - k) for k in range(n))
            acc[j, i] += Fraction(1, math.factorial(n))
    out = np.empty((dim, dim), dtype=object)
    for i in range(dim):
        for j in range(dim):
            out[i, j] = ExactScalar(acc[i, j])
    return out


class TestSymmetriser:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_permutation_average_exactly(self, n):
        got = to_matrix(symmetriser(n))
        assert bool(np.all(got == exact_projector(n)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_projector_idempotent_symmetric(self, n):
        s = to_matrix(symmetriser(n))
        assert bool(np.all(s.dot(s) == s))
        assert bool(np.all(s.T == s))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_absorbs_permutations(self, n):
        s = to_matrix(symmetriser(n))
        dim = 2 ** n
        for perm in permutations(range(n)):
            u = np.full((dim, dim), ExactScalar.zero(), dtype=object)
            for i in range(dim):
                bits = [(i >> (n - 1 - k)) & 1 for k in range(n)]
                j = sum(bits[perm[k]] << (n - 1 - k) for k in range(n))
                u[j, i] = ExactScalar.one()
            assert bool(np.all(s.dot(u) == s))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_trace_counts_symmetric_subspace(self, n):
        s = to_matrix(symmetriser(n))
        tr = ExactScalar.zero()
        for i in range(2 ** n):
            tr = tr + s[i, i]
        assert tr == ExactScalar(n + 1)

    def test_lambda_values(self):
        assert lambda_n(2) == sqrt_rational(H)
        assert lambda_n(3) == RadicalNumber({2: Fraction(1, 6)})  # 1/(3 sqrt 2)
        assert lambda_n(4) == RadicalNumber({1: Fraction(1, 48)})
        assert lambda_n(5) == RadicalNumber({1: Fraction(1, 7680)})

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lambda_derived_from_projector_requirement(self, n):
        # Build the symmetriser structure *without* the lambda_n scalar and
        # recover lambda from requiring an exact projector.
        d = symmetriser(n)
        d.mul_scalar(lambda_n(n).to_exact_scalar().inverse())
        t = to_matrix(d)  # equals S_n / lambda_n
        c = t[0, 0]  # S_n[0,0] = 1, so c = 1/lambda_n
        assert bool(np.all(t.dot(t) == c * t))
        assert c.inverse() == lambda_n(n).to_exact_scalar()

    def test_n5_float_projector(self):
        d = symmetriser(5)
        s = eval_diagram(d, mode="float").to_matrix()
        assert np.abs(s @ s - s).max() < 1e-9
        assert np.abs(s - s.T).max() < 1e-9
        assert abs(s.trace() - 6) < 1e-9
        assert lambda_n(5).to_float() == pytest.approx(1 / 7680)


class TestCswapAndCrown:
    def test_cswap_matrix(self):
        m = exact_matrix(cswap_gadget())
        inv = sqrt_rational(H)
        zero = RadicalNumber.zero()
        want = [
            [inv, zero, zero, zero, inv, zero, zero, zero],
            [zero, inv, zero, zero, zero, zero, inv, zero],
            [zero, zero, inv, zero, zero, inv, zero, zero],
            [zero, zero, zero, inv, zero, zero, zero, inv],
        ]
        assert m == want

    @pytest.mark.parametrize("stage", [2, 3, 4, 5])
    def test_crown_superposes_one_hot_patterns(self, stage):
        vec = eval_diagram(crown(stage), mode="float").to_matrix().reshape(-1)
        n = stage - 1
        hot = {0} | {1 << (n - 1 - k) for k in range(n)}
        nz = {i for i in range(2 ** n) if abs(vec[i]) > 1e-9}
        assert nz == hot
        amps = {vec[i] for i in nz}
        assert max(abs(a - vec[0]) for a in amps) < 1e-9  # equal amplitudes


class TestLinkAndIsometry:
    def test_link_spin_half_is_metric(self):
        # sum_m (-1)^(1/2 - m) |m><m| in the qubit basis: diag(1, -1).
        m = to_matrix(yutsis_link(H))
        assert m[0, 0] == ExactScalar.one()
        assert m[1, 1] == ExactScalar(-1)
        assert m[0, 1] == m[1, 0] == ExactScalar.zero()

    def test_link_spin_one_spin_basis(self):
        q = exact_matrix(yutsis_link(1))
        s = project_to_spin_basis(q, [1], [1])
        for r in range(3):
            for c in range(3):
                if r == c:
                    # Diagonal (-1)^(j - m) over m = 1, 0, -1: signs +, -, +.
                    want = -RadicalNumber.one() if r == 1 else RadicalNumber.one()
                    assert s[r][c] == want
                else:
                    assert s[r][c] == RadicalNumber.zero()

    def test_symmetric_isometry_rows_normalized(self):
        for j in (H, 1, Fraction(3, 2)):
            p = _ref_symmetric_isometry(j)
            for row in p:
                total = RadicalNumber.zero()
                for x in row:
                    total = total + x * x
                assert total == RadicalNumber.one()

    def test_binor_norm_value(self):
        # N(1/2, 1/2, 1) = sqrt(3!/ (1! 1! 2!)) / ... spot float check.
        val = binor_N(H, H, 1).to_float()
        assert val == pytest.approx(math.sqrt(math.factorial(3) / 2.0) / math.sqrt(2.0) / 1.0, rel=1e-9) or val > 0


class TestVertices:
    @pytest.mark.parametrize(
        "spins,orient",
        [((H, H, 1), "iio"), ((1, 1, 1), "iio"), ((1, H, H), "ioo"), ((Fraction(3, 2), 1, H), "iio")],
    )
    def test_3jm_matrix_matches_oracle(self, spins, orient):
        d, corr = vertex_3jm(VertexSpec(spins, orient))
        ins = [j for j, o in zip(spins, orient) if o == "i"]
        outs = [j for j, o in zip(spins, orient) if o == "o"]
        got = corrected_spin_matrix(d, corr, ins, outs)
        assert got == yutsis_matrix_3(spins, orient)

    @pytest.mark.parametrize("j", [0, 1])
    def test_4jm_matrix_matches_oracle(self, j):
        spins = (H, H, H, H)
        d, corr = vertex_4jm(spins, j, "iioo")
        got = corrected_spin_matrix(d, corr, [H, H], [H, H])
        assert got == yutsis_matrix_4(spins, j, "iioo")

    def test_invalid_triad_rejected(self):
        with pytest.raises(ValueError):
            vertex_3jm(VertexSpec((H, H, H), "iio"))

    @pytest.mark.parametrize(
        "spins,ms,orient",
        [
            ((H, H, 1), (H, H, -1), "iio"),
            ((1, 1, 1), (1, 0, -1), "iio"),
            ((1, 1, 1), (0, 1, -1), "iio"),
            ((1, H, H), (1, -H, -H), "ioo"),
        ],
    )
    def test_plugged_3jm_value(self, spins, ms, orient):
        d, corr = vertex_3jm(VertexSpec(spins, orient))
        d = plug_vertex_arguments(d, corr, spins, ms, orient)
        raw = eval_diagram(d).scalar_value().to_radical()
        assert raw * corr.value == w3jm(*spins, *ms)

    def test_plugged_4jm_value(self):
        spins, j, ms = (1, 1, H, H), 1, (1, 0, -H, -H)
        d, corr = vertex_4jm(spins, j, "iioo")
        d = plug_vertex_arguments(d, corr, spins, ms, "iioo")
        raw = eval_diagram(d).scalar_value().to_radical()
        assert raw * corr.value == w4jm(*spins, *ms, j)

    @pytest.mark.parametrize(
        "spins,j,ms",
        [
            ((1, 1, 1, 1), 1, (0, 0, 0, 0)),
            ((1, 1, 1, 1), 2, (1, 0, -1, 0)),
            ((Fraction(3, 2), H, 1, 1), 1, (H, H, 0, -1)),
            ((Fraction(3, 2), Fraction(3, 2), 1, 0), 1, (-H, H, 0, 0)),
        ],
    )
    def test_plugged_4jm_value_non_extremal(self, spins, j, ms):
        d, corr = vertex_4jm(spins, j, "iioo")
        d = plug_vertex_arguments(d, corr, spins, ms, "iioo")
        raw = eval_diagram(d).scalar_value().to_radical()
        assert raw * corr.value == w4jm(*spins, *ms, j)

    @pytest.mark.parametrize("orient", ["iio", "ioo"])
    def test_plugged_3jm_every_m_spins_up_to_one(self, orient):
        spins = [HalfInteger.from_twice(t) for t in range(3)]
        checked = 0
        for js in product(spins, repeat=3):
            if not triangle_ok(*js):
                continue
            for ms in product(*(half_integer_range(j) for j in js)):
                d, corr = vertex_3jm(VertexSpec(js, orient))
                d = plug_vertex_arguments(d, corr, js, ms, orient)
                raw = eval_diagram(d).scalar_value().to_radical()
                assert raw * corr.value == w3jm(*js, *ms), (js, ms)
                checked += 1
        assert checked == 103

    def test_plug_rejects_a_non_magnetic_index(self):
        d, corr = vertex_3jm(VertexSpec((1, 1, 1), "iio"))
        with pytest.raises(ValueError, match="not a magnetic index"):
            plug_vertex_arguments(d, corr, (1, 1, 1), (1, H, 0), "iio")


def _ref_symmetric_isometry(j):
    """The (2j+1) x 2^(2j) isometry from qubit wires to the spin-j space.

    Rows are labelled m = j .. -j (decreasing); the entry at a bit string
    with k = j-m ones is sqrt((j+m)!(j-m)!/(2j)!) = 1/sqrt(C(2j, k));
    |1/2, +1/2> is |0>.
    """
    n = HalfInteger(j).twice
    zero = RadicalNumber.zero()
    return [
        [sqrt_rational(Fraction(1, math.comb(n, k))) if bin(b).count("1") == k else zero for b in range(2 ** n)]
        for k in range(n + 1)
    ]


def _ref_project_to_spin_basis(qubit_matrix, in_spins, out_spins):
    """The dense route: P_out . M . P_in^T with Kronecker products of
    :func:`_ref_symmetric_isometry`, over RadicalNumber entries."""

    def kron_isometry(spins):
        mat = [[RadicalNumber.one()]]
        for j in spins:
            p = _ref_symmetric_isometry(j)
            mat = [[a * b for a in row1 for b in row2] for row1 in mat for row2 in p]
        return mat

    p_in, p_out = kron_isometry(in_spins), kron_isometry(out_spins)
    out = []
    for pr in p_out:
        row = []
        for pc in p_in:
            acc = RadicalNumber.zero()
            for a, pa in enumerate(pr):
                for b, pb in enumerate(pc):
                    if pa and pb:
                        acc = acc + pa * qubit_matrix[a][b] * pb
            row.append(acc)
        out.append(row)
    return out


@st.composite
def leg_spins(draw):
    """Leg spins of one side, at most 4 wires in all (spin-0 legs included)."""
    spins, wires = [], 0
    for _ in range(draw(st.integers(0, 3))):
        twice = draw(st.integers(0, 4 - wires))
        spins.append(HalfInteger.from_twice(twice))
        wires += twice
    return spins


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(leg_spins(), leg_spins(), st.data())
def test_project_to_spin_basis_matches_dense_route(in_spins, out_spins, data):
    rows = 2 ** sum(j.twice for j in out_spins)
    cols = 2 ** sum(j.twice for j in in_spins)
    n = 2 * rows * cols
    ints = data.draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))
    # Real entries a/3 + b/2 * sqrt(2).
    entries = [ExactScalar(Fraction(a, 3), Fraction(b, 2)) for a, b in zip(ints[::2], ints[1::2])]
    exact = np.array(entries, dtype=object).reshape(rows, cols)
    radical = [[x.to_radical() for x in row] for row in exact]
    want = _ref_project_to_spin_basis(radical, in_spins, out_spins)
    assert project_to_spin_basis(exact, in_spins, out_spins) == want
    assert project_to_spin_basis(radical, in_spins, out_spins) == want


class TestNetworks:
    @pytest.mark.parametrize("j", [H, 1, Fraction(3, 2)])
    def test_loop(self, j):
        d, corr = loop_network(j)
        raw = eval_diagram(d).scalar_value().to_radical()
        assert raw * corr.value == invariant_loop(j)

    @pytest.mark.parametrize("triad", [(H, H, 1), (1, 1, 1), (1, H, H), (Fraction(3, 2), 1, H)])
    def test_theta(self, triad):
        d, corr = theta_network(*triad)
        raw = eval_diagram(d).scalar_value().to_radical()
        assert raw * corr.value == invariant_theta(*triad)

    def test_6j_small_exact(self):
        d, corr = network_6j(1, 1, 1, 1, 1, 1)
        raw = eval_diagram(d).scalar_value().to_radical()
        assert raw * corr.value == w6j(1, 1, 1, 1, 1, 1)

    def test_assemble_rejects_dangling_leg(self):
        spec = NetworkSpec(
            nodes=[NodeSpec((H, H, 1))],
            edges=[],
            open_legs=[OpenLegSpec(0, 0, H, "i"), OpenLegSpec(0, 1, H, "i")],
        )
        with pytest.raises(ValueError):
            assemble_network(spec)

    def test_assemble_rejects_spin_mismatch(self):
        spec = NetworkSpec(
            nodes=[NodeSpec((H, H, 1))],
            edges=[],
            open_legs=[
                OpenLegSpec(0, 0, H, "i"),
                OpenLegSpec(0, 1, H, "i"),
                OpenLegSpec(0, 2, H, "o"),
            ],
        )
        with pytest.raises(ValueError):
            assemble_network(spec)


def _twice(spins):
    return "2j=" + ",".join(str(j.twice) for j in spins)


def _invariance_cases():
    """(builder, dual_inputs) for every diagram of the exact invariance sweep:
    3jm vertices with spins <= 3/2 in four orientations, 4jm vertices with
    leg spins <= 1 (orientation iioo) and symmetrisers 2-5.  Ids give twice
    the spins (a 4jm's channel spin last)."""
    spins = [HalfInteger.from_twice(t) for t in range(4)]
    cases = []
    for js in product(spins, repeat=3):
        if triangle_ok(*js):
            for orient in ("iio", "ioo", "iii", "ooo"):
                cases.append(pytest.param(
                    lambda js=js, orient=orient: vertex_3jm(VertexSpec(js, orient))[0], True,
                    id=f"3jm-{_twice(js)}-{orient}"))
    for js in product(spins[:3], repeat=4):
        for j in (HalfInteger.from_twice(t) for t in range(5)):
            if triangle_ok(js[0], js[1], j) and triangle_ok(j, js[2], js[3]):
                cases.append(pytest.param(
                    lambda js=js, j=j: vertex_4jm(js, j, "iioo")[0], True,
                    id=f"4jm-{_twice(js + (j,))}-iioo"))
    for n in range(2, 6):
        cases.append(pytest.param(lambda n=n: symmetriser(n), False, id=f"symmetriser-{n}"))
    return cases


class TestInvariance:
    @pytest.mark.parametrize("build,dual_inputs", _invariance_cases())
    def test_zero_defect(self, build, dual_inputs):
        assert invariance_defect(build(), dual_inputs) == 0

    @pytest.mark.parametrize("spins", [(H, H, 1), (1, 1, 1)])
    def test_vertex_su2_invariance(self, spins):
        d, _ = vertex_3jm(VertexSpec(spins, "iio"))
        assert invariance_defect(d, dual_inputs=True) == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_symmetriser_commutes_with_tensor_powers(self, n):
        assert invariance_defect(symmetriser(n), dual_inputs=False) == 0

    def test_cswap_has_a_defect(self):
        assert invariance_defect(cswap_gadget(), dual_inputs=False) == 16
        assert invariance_defect(cswap_gadget(), dual_inputs=True) == 32

    def test_vertex_without_an_arrow_has_a_defect(self):
        # Replace the X(pi) arrow on input wire 0 by a plain wire, Z(0).
        d, _ = vertex_3jm(VertexSpec((1, 1, 1), "iio"))
        b = d.inputs[0]
        (arrow,) = [u if v == b else v for u, v in d.edges if b in (u, v)]
        assert d.vertices[arrow] == VertexData(X, Fraction(1))
        d.vertices[arrow] = VertexData(Z)
        assert invariance_defect(d, dual_inputs=True) == 12
