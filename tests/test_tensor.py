"""Tensor engine: spider semantics, planning, exact/float agreement."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinnet import tensor
from spinnet.exact import ExactScalar, HalfInteger
from spinnet.graph import B, Diagram, VertexData, H, X, Z, make_spider, serialize
from spinnet.rewrite import DEFAULT_SIMPLIFY_RULES, simplify
from spinnet.su2 import network_6j, symmetriser
from spinnet.tensor import (
    ContractionPlan,
    RankCapExceeded,
    _exact_array,
    _omega_contract,
    _split_spiders,
    eval_diagram,
    plan_contraction,
    plug_basis,
    to_matrix,
    vertex_tensor,
)
from spinnet.wigner import w6j

# Fixed, reproducible property runs: the same examples on every run.
PROPERTIES = settings(derandomize=True, max_examples=150, deadline=None, database=None)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=15)
exact_scalars = st.builds(ExactScalar, rationals, rationals, rationals, rationals)


class TestVertexTensors:
    def test_z_spider_entries(self):
        t = vertex_tensor(VertexData(Z, Fraction(1, 2)), 3, "exact")
        assert t[0, 0, 0] == ExactScalar.one()
        assert t[1, 1, 1] == ExactScalar.phase_quarter(2)  # e^{i pi/2} = i
        assert t[0, 1, 0] == ExactScalar.zero()

    def test_x_spider_entries(self):
        # X_d(alpha) entry at parity p: (1/sqrt2)^d (1 + (-1)^p e^{i alpha pi})
        t = vertex_tensor(VertexData(X, Fraction(1)), 2, "exact")
        half = ExactScalar(Fraction(1, 2))
        assert t[0, 0] == (ExactScalar.one() + ExactScalar(-1)) * half  # 0
        assert t[0, 1] == (ExactScalar.one() - ExactScalar(-1)) * half  # 1
        assert t[0, 1] == ExactScalar.one()

    def test_hbox_entries(self):
        label = ExactScalar(0, 1)  # sqrt(2)
        t = vertex_tensor(VertexData(H, Fraction(0), label), 2, "exact")
        assert t[0, 0] == t[0, 1] == t[1, 0] == ExactScalar.one()
        assert t[1, 1] == label

    def test_hadamard_is_default_hbox(self):
        t = vertex_tensor(VertexData(H, Fraction(0), ExactScalar(-1)), 2, "float")
        had = np.array([[1, 1], [1, -1]], dtype=complex)
        assert np.abs(t - had).max() < 1e-12

    def test_float_matches_exact(self):
        rng = random.Random(0)
        for _ in range(50):
            kind = rng.choice([Z, X])
            ph = Fraction(rng.randrange(8), 4)
            deg = rng.randrange(1, 5)
            te = vertex_tensor(VertexData(kind, ph), deg, "exact")
            tf = vertex_tensor(VertexData(kind, ph), deg, "float")
            ce = np.array([x.to_complex() for x in te.reshape(-1)])
            assert np.abs(ce - tf.reshape(-1)).max() < 1e-12


class TestPlanner:
    def test_plan_covers_all_nodes(self):
        d = make_spider(Z, Fraction(0), 2, 2)
        plan = plan_contraction(d)
        # The 4-legged spider is split into two linked 3-legged chain nodes:
        # one pairwise step, back to rank 4.
        assert plan.peak_rank == 4
        assert len(plan.steps) == 1

    def test_rank_cap_enforced(self):
        d = Diagram()
        z = d.add_z()
        for _ in range(6):
            d.add_edge(z, d.add_output())
        with pytest.raises(RankCapExceeded):
            plan_contraction(d, rank_cap=5)
        plan = plan_contraction(d, rank_cap=6)
        assert plan.peak_rank <= 6

    def test_rank_cap_counts_self_loops(self, monkeypatch):
        # eval_diagram builds a vertex tensor before tracing its self-loops,
        # so an H-box with 5 self-loops and one wire needs rank 11, not 1.
        d = Diagram()
        h = d.add_h()
        for _ in range(5):
            d.add_edge(h, h)
        d.add_edge(h, d.add_output())
        with pytest.raises(RankCapExceeded, match="initial vertex rank 11 exceeds cap 4"):
            plan_contraction(d, rank_cap=4)

        def no_tensor(*args):
            raise AssertionError("vertex tensor built over the cap")

        monkeypatch.setattr(tensor._Exact, "vertex", staticmethod(no_tensor))
        with pytest.raises(RankCapExceeded):
            eval_diagram(d, rank_cap=4)
        assert plan_contraction(d, rank_cap=11).peak_rank == 1

    def test_env_rank_cap(self, monkeypatch):
        d = Diagram()
        z = d.add_z()
        for _ in range(6):
            d.add_edge(z, d.add_output())
        monkeypatch.setenv("SPINNET_RANK_CAP", "5")
        with pytest.raises(RankCapExceeded):
            plan_contraction(d)

    def test_deterministic(self):
        rng = random.Random(5)
        d = Diagram()
        vs = [d.add_z() if rng.random() < 0.5 else d.add_x() for _ in range(8)]
        for _ in range(12):
            d.add_edge(rng.choice(vs), rng.choice(vs))
        p1 = plan_contraction(d)
        p2 = plan_contraction(d)
        assert p1.steps == p2.steps


def random_clifford_diagram(rng, n_vertices):
    d = Diagram()
    vs = []
    for _ in range(n_vertices):
        r = rng.random()
        if r < 0.4:
            vs.append(d.add_z(Fraction(rng.randrange(4), 2)))
        elif r < 0.8:
            vs.append(d.add_x(Fraction(rng.randrange(4), 2)))
        else:
            vs.append(d.add_h())
    for v in vs:
        for _ in range(rng.randrange(0, 3)):
            if rng.random() < 0.6 and vs:
                w = rng.choice(vs)
                if d.vertices[v].kind == H and v == w:
                    continue
                d.add_edge(v, w)
            else:
                d.add_edge(v, d.add_output())
    # H-boxes need no self loops for the exact path used here; drop them.
    d.edges = [
        (a, b) for a, b in d.edges if not (a == b and d.vertices[a].kind == H)
    ]
    return d


class TestEvaluation:
    def test_bell_state(self):
        d = Diagram()
        z = d.add_z()
        d.add_edge(z, d.add_output())
        d.add_edge(z, d.add_output())
        t = eval_diagram(d)
        vec = t.to_matrix().reshape(-1)
        assert vec[0] == ExactScalar.one()
        assert vec[3] == ExactScalar.one()
        assert vec[1] == vec[2] == ExactScalar.zero()

    def test_cnot_matrix(self):
        d = Diagram()
        z, x = d.add_z(), d.add_x()
        d.add_edge(z, x)
        for v in (z, x):
            d.add_edge(d.add_input(), v)
            d.add_edge(v, d.add_output())
        m = eval_diagram(d, mode="float").to_matrix()
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        # Z-spider on wire 0 (MSB), X on wire 1: control = first wire.
        # The unnormalised spider pair carries a global 1/sqrt(2).
        assert np.abs(m - cnot / math.sqrt(2)).max() < 1e-12

    def test_exact_float_agreement_randomized(self):
        rng = random.Random(7)
        for _ in range(30):
            d = random_clifford_diagram(rng, rng.randrange(1, 10))
            te = eval_diagram(d, mode="exact")
            tf = eval_diagram(d, mode="float")
            ce = te.to_numpy()
            assert np.abs(ce - tf.data).max() < 1e-12

    def test_scalar_diagram(self):
        d = Diagram()
        d.mul_scalar(ExactScalar(0, 1))
        assert eval_diagram(d).scalar_value() == ExactScalar.sqrt2()

    def test_boundary_to_boundary_wire(self):
        d = Diagram()
        d.add_edge(d.add_input(), d.add_output())
        m = to_matrix(d)
        assert m[0, 0] == ExactScalar.one()
        assert m[1, 1] == ExactScalar.one()
        assert m[0, 1] == m[1, 0] == ExactScalar.zero()


class TestPlugBasis:
    def test_plug_selects_column(self):
        d = Diagram()
        z, x = d.add_z(), d.add_x()
        d.add_edge(z, x)
        i0, i1 = d.add_input(), d.add_input()
        d.add_edge(i0, z)
        d.add_edge(i1, x)
        d.add_edge(z, d.add_output())
        d.add_edge(x, d.add_output())
        full = eval_diagram(d, mode="float").to_matrix()
        for b0 in (0, 1):
            for b1 in (0, 1):
                p = plug_basis(d, {i0: b0, i1: b1})
                col = eval_diagram(p, mode="float").to_matrix().reshape(-1) / 2
                assert np.abs(col - full[:, 2 * b0 + b1]).max() < 1e-12

    def test_unnormalized_plug_scales_sqrt2(self):
        d = Diagram()
        d.add_edge(d.add_input(), d.add_output())
        i = d.inputs[0]
        raw = eval_diagram(plug_basis(d, {i: 0})).to_matrix().reshape(-1)
        assert raw[0] == ExactScalar.sqrt2()

    def test_plug_rejects_non_boundary(self):
        d = Diagram()
        z = d.add_z()
        d.add_edge(z, d.add_output())
        with pytest.raises(ValueError):
            plug_basis(d, {z: 0})


def rank0(x: ExactScalar):
    """``x`` as a rank-0 tensor of the exact backend."""
    coeffs, den = x.omega
    return tuple(np.array(c, dtype=object) for c in coeffs), den


class TestOmegaCoefficients:
    """The exact backend's Z[omega] form against ExactScalar arithmetic."""

    @PROPERTIES
    @given(exact_scalars, st.integers(1, 12))
    def test_round_trip(self, x, k):
        coeffs, den = x.omega
        assert den > 0 and math.gcd(den, *coeffs) == 1
        assert ExactScalar._from_omega(tuple(k * c for c in coeffs), k * den).omega == x.omega
        assert _exact_array(rank0(x)).item() == x

    @PROPERTIES
    @given(exact_scalars, exact_scalars)
    def test_product_matches_exact_scalar(self, x, y):
        prod = _omega_contract(rank0(x), rank0(y), [], [], 1, 1, 1, [])
        assert _exact_array(prod).item() == x * y

    @PROPERTIES
    @given(exact_scalars, st.integers(0, 3))
    def test_hbox_label_round_trip(self, label, degree):
        t = vertex_tensor(VertexData(H, Fraction(0), label), degree, "exact")
        ones = (1,) * degree
        assert t[ones] == label
        assert all(x == ExactScalar.one() for idx, x in np.ndenumerate(t) if idx != ones)


@st.composite
def clifford_diagrams(draw):
    """Small Z/X/H diagrams with Clifford phases, H labels and a scalar."""
    d = Diagram()
    vs = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from([Z, X, H]))
        if kind == H:
            vs.append(d.add_h(draw(exact_scalars)))
        else:
            phase = Fraction(draw(st.integers(0, 3)), 2)
            vs.append(d.add_z(phase) if kind == Z else d.add_x(phase))
    for _ in range(draw(st.integers(0, 8))):
        a = draw(st.sampled_from(vs))
        b = draw(st.sampled_from(vs + [None]))
        d.add_edge(a, d.add_output() if b is None else b)
    d.mul_scalar(draw(exact_scalars))
    return d


@PROPERTIES
@given(clifford_diagrams())
def test_exact_float_agreement_property(d):
    exact = eval_diagram(d, mode="exact").to_numpy()
    flt = eval_diagram(d, mode="float").data
    assert np.abs(exact - flt).max() <= 1e-9 * max(1.0, np.abs(flt).max())


# -- the dense exact backend, kept as the reference -----------------------


def _ref_skeleton(d: Diagram) -> dict[int, list[tuple]]:
    """Map node key -> ordered port labels, self-loops included twice.

    Port labels: ``("e", edge_index)`` for a wire between nodes and
    ``("open", boundary_id)`` for an open wire.  Node keys: vertex id, and
    ``-1 - boundary_id`` for the identity node on a wire between two
    boundaries.  Independent of the node table ``plan_contraction`` builds.
    """
    boundary = {v for v, data in d.vertices.items() if data.kind == B}
    nodes: dict[int, list[tuple]] = {v: [] for v in d.vertices if v not in boundary}
    for i, (a, b) in enumerate(d.edges):
        if a in boundary and b in boundary:
            nodes[-1 - min(a, b)] = [("open", a), ("open", b)]
        elif a in boundary:
            nodes[b].append(("open", a))
        elif b in boundary:
            nodes[a].append(("open", b))
        else:
            nodes[a].append(("e", i))
            nodes[b].append(("e", i))
    return nodes


def _ref_reduced(coeffs, den):
    """Four dense coefficient arrays over ``den``, gcd divided out."""
    coeffs = [np.asarray(c, dtype=object) for c in coeffs]
    g = math.gcd(den, *(x for c in coeffs for x in c.ravel().tolist()))
    return [np.asarray(c // g, dtype=object) for c in coeffs], den // g


def _ref_vertex(data: VertexData, degree: int):
    """A vertex tensor entry by entry from the diagram semantics, spread
    over four dense omega-coefficient arrays."""
    if data.kind != H:
        ph = ExactScalar.phase_quarter(int(4 * data.phase))
        norm = ExactScalar.inv_sqrt2() ** degree
    entries = {}
    for idx in itertools.product((0, 1), repeat=degree):
        if data.kind == Z:
            entries[idx] = (ExactScalar.zero() if any(idx) else ExactScalar.one()) + (
                ph if all(idx) else 0
            )
        elif data.kind == X:
            entries[idx] = norm * (1 - ph if sum(idx) % 2 else 1 + ph)
        else:
            entries[idx] = data.label if all(idx) else ExactScalar.one()
    den = math.lcm(*(x.omega[1] for x in entries.values()))
    coeffs = [np.zeros((2,) * degree, dtype=object) for _ in range(4)]
    for idx, x in entries.items():
        c, dx = x.omega
        for k in range(4):
            coeffs[k][idx] = c[k] * (den // dx)
    return _ref_reduced(coeffs, den)


def _ref_tensordot(a, b, axes):
    """All 16 coefficient tensordots, folded by omega^4 = -1."""
    (ca, da), (cb, db) = a, b
    out = [0, 0, 0, 0]
    for i in range(4):
        for j in range(4):
            p = np.tensordot(ca[i], cb[j], axes=axes)
            out[(i + j) % 4] = out[(i + j) % 4] + (-p if i + j >= 4 else p)
    return _ref_reduced(out, da * db)


def _ref_eval_exact(d: Diagram) -> np.ndarray:
    """``eval_diagram(d, mode="exact").data`` by the dense contraction:
    every tensor keeps all four omega arrays, built afresh for each node."""
    d = _split_spiders(d)
    tensors = {}
    for k, ports in _ref_skeleton(d).items():
        t = _ref_vertex(d.vertices[k] if k >= 0 else VertexData(Z), len(ports))
        for p in {p for p in ports if ports.count(p) == 2}:  # self-loops
            i = ports.index(p)
            j = ports.index(p, i + 1)
            t = _ref_reduced([np.trace(c, axis1=i, axis2=j) for c in t[0]], t[1])
            ports = [q for n, q in enumerate(ports) if n not in (i, j)]
        tensors[k] = ports, t
    for k1, k2 in plan_contraction(d).steps:
        ports1, t1 = tensors.pop(k1)
        ports2, t2 = tensors.pop(k2)
        shared = [p for p in ports1 if p[0] == "e" and p in ports2]
        axes = ([ports1.index(p) for p in shared], [ports2.index(p) for p in shared])
        merged = [p for p in ports1 if p not in shared] + [p for p in ports2 if p not in shared]
        tensors[min(k1, k2)] = merged, _ref_tensordot(t1, t2, axes)
    coeffs, den = d.scalar.omega
    ports, t = [], _ref_reduced(coeffs, den)
    for k in sorted(tensors):
        ports = ports + tensors[k][0]
        t = _ref_tensordot(t, tensors[k][1], ([], []))
    coeffs, den = t
    out = np.empty(coeffs[0].shape, dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = ExactScalar._from_omega(tuple(int(c[idx]) for c in coeffs), den)
    perm = [ports.index(("open", v)) for v in list(d.inputs) + list(d.outputs)]
    return np.transpose(out, axes=perm)


def assert_matches_reference(d: Diagram) -> np.ndarray:
    """The exact result equals the dense reference entry for entry."""
    got, want = eval_diagram(d, mode="exact").data, _ref_eval_exact(d)
    assert got.shape == want.shape
    assert all(type(a) is ExactScalar and a.omega == b.omega for a, b in zip(got.ravel(), want.ravel()))
    return got


@PROPERTIES
@given(clifford_diagrams())
def test_exact_matches_the_dense_reference(d):
    assert_matches_reference(d)


def zero_scalar_diagram():
    d = Diagram()
    d.add_edge(d.add_z(), d.add_output())
    d.mul_scalar(ExactScalar.zero())
    return d


def cancelling_diagram():
    """A Z-spider fed |0> and |1> on two legs: the zero state on the third."""
    d = Diagram()
    z = d.add_z()
    d.add_edge(z, d.add_x(Fraction(0)))
    d.add_edge(z, d.add_x(Fraction(1)))
    d.add_edge(z, d.add_output())
    return d


def wire_diagram():
    d = Diagram()
    d.add_edge(d.add_input(), d.add_output())
    return d


HALF_PLUS_I = ExactScalar(Fraction(1, 2), 0, 1)


def looped_hbox(loops: int):
    """An H-box labelled 1/2 + i with ``loops`` self-loops and one open leg."""
    d = Diagram()
    h = d.add_h(HALF_PLUS_I)
    for _ in range(loops):
        d.add_edge(h, h)
    d.add_edge(h, d.add_output())
    return d


def looped_x_quarter():
    """An X(1/4) spider with one self-loop and one open leg."""
    d = Diagram()
    x = d.add_x(Fraction(1, 4))
    d.add_edge(x, x)
    d.add_edge(x, d.add_output())
    return d


@pytest.mark.parametrize(
    "build, want",
    [
        (zero_scalar_diagram, [0, 0]),
        (cancelling_diagram, [0, 0]),
        (wire_diagram, [[1, 0], [0, 1]]),
        (Diagram, 1),
        # sum_b h(a, b, b): 1 + 1 at a = 0, 1 + c at a = 1
        (lambda: looped_hbox(1), [2, 1 + HALF_PLUS_I]),
        # sum_{b, c} h(a, b, b, c, c): 4 at a = 0, 3 + c at a = 1
        (lambda: looped_hbox(2), [4, 3 + HALF_PLUS_I]),
        # 2 (1/sqrt2)^3 (1 +- w) = (1 +- w)/sqrt2 with w = (1 + i)/sqrt2; parity of (a, b, b) is a
        (looped_x_quarter, [ExactScalar(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
                            ExactScalar(Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2))]),
    ],
    ids=["zero-scalar", "cancels-to-zero", "boundary-wire", "empty", "hbox-one-loop",
         "hbox-two-loops", "x-quarter-one-loop"],
)
def test_exact_edge_cases_match_the_dense_reference(build, want):
    shape = np.shape(want)
    want = [b if isinstance(b, ExactScalar) else ExactScalar(b) for b in np.ravel(np.array(want, dtype=object))]
    got = assert_matches_reference(build())
    assert got.shape == shape
    assert all(a == b for a, b in zip(got.ravel(), want))
    flt = eval_diagram(build(), mode="float").data
    assert flt.shape == shape
    assert np.abs(flt.ravel() - [b.to_complex() for b in want]).max() <= 1e-12


def test_plan_carries_the_node_table():
    d = Diagram()
    z, h, o = d.add_z(Fraction(1, 2)), d.add_h(HALF_PLUS_I), d.add_output()
    d.add_edge(z, z)  # edge 0: a self-loop takes no port
    d.add_edge(z, h)  # edge 1
    d.add_edge(h, o)  # edge 2: the open wire of o is port ~o
    a, b = d.add_input(), d.add_output()
    d.add_edge(a, b)  # edge 3: an identity node keyed ~a
    plan = plan_contraction(d)
    assert plan.nodes == {
        z: (d.vertices[z], (1,), 1),
        h: (d.vertices[h], (1, ~o), 0),
        ~a: (VertexData(Z), (~a, ~b), 0),
    }
    assert plan.steps == [(z, h), (~a, z)]  # the outer product of the two components comes last


def test_eval_splits_the_spiders_once(monkeypatch):
    calls = []
    real = tensor._split_spiders

    def count(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(tensor, "_split_spiders", count)
    d, _ = network_6j(*[HalfInteger(1)] * 6)
    want = eval_diagram(d, mode="float").scalar_value()
    assert len(calls) == 1  # inside plan_contraction
    plan = plan_contraction(d, mode="float")
    calls.clear()
    assert eval_diagram(d, mode="float", plan=plan).scalar_value() == want
    assert calls == []


def test_a_plan_for_another_diagram_is_refused():
    d, _ = network_6j(*[HalfInteger(1)] * 6)
    plan = plan_contraction(d)
    for other in (network_6j(*[HalfInteger(1)] * 3, *[HalfInteger(Fraction(1, 2))] * 3)[0], d.copy()):
        with pytest.raises(ValueError, match="plan was made for another diagram"):
            eval_diagram(other, plan=plan)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_shared_vertex_tensors_are_read_only(monkeypatch, mode):
    ops = tensor._MODES[mode]
    real, built = ops.vertex, []

    def spy(data, degree):
        built.append(real(data, degree))
        return built[-1]

    monkeypatch.setattr(ops, "vertex", staticmethod(spy))
    d = Diagram()
    zs = [d.add_z() for _ in range(4)]
    for a, b in zip(zs, zs[1:]):
        d.add_edge(a, b)
    d.add_edge(zs[0], d.add_output())
    d.add_edge(zs[-1], d.add_output())
    eval_diagram(d, mode=mode)
    assert len(built) == 1  # four Z(0) nodes of degree 2 share one tensor
    arrays = [c for c in built[0][0] if c is not None] if mode == "exact" else [built[0]]
    assert arrays
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0


def test_float_phase_does_not_reuse_the_exact_tensor():
    # Fraction(1, 2) == 0.5 with equal hashes; only the exact phase has an exact tensor.
    d = Diagram()
    a, b = d.add_z(Fraction(1, 2)), d.add_z(0.5)
    d.add_edge(a, d.add_output())
    d.add_edge(b, d.add_output())
    with pytest.raises(ValueError, match="requires float mode"):
        eval_diagram(d, mode="exact")


# -- the float step loop the program replaced, kept as the reference ------


def _ref_eval_steps(d: Diagram) -> np.ndarray:
    """``eval_diagram(d, mode="float").data`` by the step loop that scanned
    each step's ports and called ``np.tensordot``."""
    plan = plan_contraction(d, mode="float")
    tensors = {}
    for k, (data, ports, loops) in plan.nodes.items():
        t = vertex_tensor(data, len(ports) + 2 * loops, "float")
        tensors[k] = (ports, tensor._trace_trailing(t, loops) if loops else t)
    for k1, k2 in plan.steps:
        ports1, t1 = tensors.pop(k1)
        ports2, t2 = tensors.pop(k2)
        shared = [p for p in ports1 if p in ports2]
        axes = ([ports1.index(p) for p in shared], [ports2.index(p) for p in shared])
        merged = [p for p in ports1 if p not in shared] + [p for p in ports2 if p not in shared]
        tensors[k1] = (merged, np.tensordot(t1, t2, axes))
    (ports, t), = tensors.values() or [((), np.ones((), dtype=complex))]
    t = t * d.scalar.to_complex()
    perm = [ports.index(~v) for v in (*d.inputs, *d.outputs)]
    return np.transpose(t, axes=perm) if perm else t


def _ref_compile(plan: ContractionPlan, boundary: tuple[int, ...]) -> tuple[list, list[int]]:
    """The ``program`` of ``plan`` as a second pass over its steps made it,
    before the search wrote each step as it merged: the steps with their
    axes worked out once, then the permutation of the last tensor to
    ``boundary`` order."""
    ports = {k: p for k, (_, p, _) in plan.nodes.items()}
    program = []
    for k1, k2 in plan.steps:
        p1, p2 = ports.pop(k1), ports.pop(k2)
        shared = [p for p in p1 if p in p2]
        free1, free2 = [p for p in p1 if p not in p2], [p for p in p2 if p not in p1]
        ports[k1] = merged = free1 + free2
        program.append([list(map(p1.index, free1 + shared)), list(map(p2.index, shared + free2)),
                        2 ** len(free1), 2 ** len(shared), 2 ** len(free2), [2] * len(merged)])
    last = next(iter(ports.values()), ())
    return program, [last.index(~v) for v in boundary]


def checked_planner(d: Diagram, cap: int) -> ContractionPlan:
    """``plan_contraction(d, rank_cap=cap)``, its program checked against
    :func:`_ref_compile`."""
    plan = plan_contraction(d, rank_cap=cap)
    assert plan.program == _ref_compile(plan, (*d.inputs, *d.outputs))
    return plan


def assert_program_matches_steps(d: Diagram):
    got, want = eval_diagram(d, mode="float").data, _ref_eval_steps(d)
    assert np.shape(got) == np.shape(want)
    assert np.abs(got - want).max(initial=0) <= 1e-12 * max(1.0, np.abs(want).max(initial=0))


# The float-6j benchmark's symbols, as twice-spins: 6j(2,2,2,2,2,2) and ten
# tetrahedral classes spread over size.
FLOAT_6J = [(4, 4, 4, 4, 4, 4), (0, 2, 2, 0, 2, 2), (2, 2, 2, 2, 2, 4), (0, 0, 0, 4, 4, 4),
            (2, 2, 4, 4, 4, 2), (2, 4, 4, 2, 4, 4), (1, 1, 2, 1, 1, 2), (1, 1, 2, 3, 3, 2),
            (0, 3, 3, 2, 3, 3), (2, 2, 4, 3, 3, 3), (1, 3, 4, 3, 3, 4)]


class TestProgramMatchesSteps:
    def test_paper_manifest(self, paper_diagrams):
        for d, cap in paper_diagrams:
            assert_program_matches_steps(d)
            checked_planner(d, cap)

    @pytest.mark.parametrize("tw", FLOAT_6J, ids=lambda tw: "".join(map(str, tw)))
    def test_float_6j(self, tw):
        d, _ = network_6j(*[HalfInteger.from_twice(t) for t in tw])
        for diagram in (d, simplify(d, rules=DEFAULT_SIMPLIFY_RULES)[0]):
            assert_program_matches_steps(diagram)
            checked_planner(diagram, 28)

    @PROPERTIES
    @given(clifford_diagrams())
    def test_clifford_diagrams(self, d):
        assert_program_matches_steps(d)


def test_the_program_has_one_entry_per_step():
    d, _ = network_6j(*[HalfInteger(1)] * 6)
    for diagram in (d, simplify(d, rules=DEFAULT_SIMPLIFY_RULES)[0], wire_diagram(), Diagram()):
        plan = plan_contraction(diagram)
        steps, perm = plan.program
        assert len(steps) == len(plan.steps)
        rank = {k: len(ports) for k, (_, ports, _) in plan.nodes.items()}
        for (k1, k2), (pa, pb, m, s, n, shape) in zip(plan.steps, steps):
            assert sorted(pa) == list(range(rank[k1])) and sorted(pb) == list(range(rank.pop(k2)))
            assert (m * s, s * n, m * n) == (2 ** len(pa), 2 ** len(pb), 2 ** len(shape))
            assert set(shape) <= {2}
            rank[k1] = len(shape)
        assert sorted(perm) == list(range(len(diagram.inputs) + len(diagram.outputs)))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_eval_never_calls_tensordot(monkeypatch, mode):
    def refuse(*args, **kwargs):
        raise AssertionError("np.tensordot called")

    d, _ = network_6j(*[HalfInteger(1)] * 6)
    cases = [d, simplify(d, rules=DEFAULT_SIMPLIFY_RULES)[0], wire_diagram(), looped_hbox(2), Diagram()]
    want = [eval_diagram(c, mode=mode).data for c in cases]
    monkeypatch.setattr(np, "tensordot", refuse)
    for c, w in zip(cases, want):
        assert np.array_equal(eval_diagram(c, mode=mode).data, w)


# -- planner against the O(V*E) reference ---------------------------------


def reference_plan(d: Diagram, cap: int) -> ContractionPlan:
    """The planner as it was before the heap: rescans every node per step.

    Kept only to pin ``plan_contraction`` to the same plans and errors.
    """
    nodes = _ref_skeleton(d)
    widest = max((len(p) for p in nodes.values()), default=0)  # self-loops included
    if widest > cap:
        raise RankCapExceeded(f"initial vertex rank {widest} exceeds cap {cap}")
    for k, ports in nodes.items():
        seen: dict[tuple, int] = {}
        for p in list(ports):
            if p[0] == "e":
                seen[p] = seen.get(p, 0) + 1
        for p, cnt in seen.items():
            if cnt == 2:
                nodes[k] = [q for q in nodes[k] if q != p]
    plan = ContractionPlan()
    plan.peak_rank = max((len(p) for p in nodes.values()), default=0)
    while len(nodes) > 1:
        best = None
        keys = sorted(nodes)
        candidates = []
        edge_owner: dict[tuple, int] = {}
        for k in keys:
            for p in nodes[k]:
                if p[0] == "e":
                    if p in edge_owner and edge_owner[p] != k:
                        candidates.append((edge_owner[p], k))
                    else:
                        edge_owner[p] = k
        if not candidates:
            candidates = [(keys[0], k) for k in keys[1:]]
        for k1, k2 in candidates:
            p1, p2 = nodes[k1], nodes[k2]
            shared = sum(1 for p in set(p1) & set(p2) if p[0] == "e")
            merged_rank = len(p1) + len(p2) - 2 * shared
            step_cost = 2 ** (len(p1) + len(p2) - shared)
            key = (merged_rank, step_cost, min(k1, k2), max(k1, k2))
            if best is None or key < best[0]:
                best = (key, k1, k2)
        _, k1, k2 = best
        p1, p2 = nodes.pop(k1), nodes.pop(k2)
        shared = {p for p in set(p1) & set(p2) if p[0] == "e"}
        merged = [p for p in p1 if p not in shared] + [p for p in p2 if p not in shared]
        if len(merged) > cap:
            raise RankCapExceeded(
                f"contraction needs intermediate rank {len(merged)} > cap {cap}; "
                "raise the cap (SPINNET_RANK_CAP) or simplify the diagram first"
            )
        nodes[min(k1, k2)] = merged
        plan.steps.append((min(k1, k2), max(k1, k2)))
        plan.peak_rank = max(plan.peak_rank, len(merged))
        plan.cost += 2 ** (len(p1) + len(p2) - len(shared))
    return plan


def plan_outcome(planner, d: Diagram, cap: int):
    """(steps, peak_rank, cost) of a plan, or the RankCapExceeded message."""
    try:
        plan = planner(d, cap)
    except RankCapExceeded as exc:
        return str(exc)
    return plan.steps, plan.peak_rank, plan.cost


def assert_same_plan(d: Diagram, cap: int):
    """The planner equals the reference run on the split skeleton, and its
    program the reference compile of its steps."""
    got = plan_outcome(checked_planner, d, cap)
    assert got == plan_outcome(reference_plan, _split_spiders(d), cap)
    return got


class TestPlannerMatchesReference:
    @pytest.mark.parametrize("simplified", [False, True])
    def test_paper_manifest(self, paper_diagrams, simplified):
        for d, cap in paper_diagrams:
            if simplified:
                d, _ = simplify(d, rules=DEFAULT_SIMPLIFY_RULES)
            assert_same_plan(d, cap)

    @pytest.mark.parametrize("simplified", [False, True])
    def test_largest_6j(self, simplified):
        d, _ = network_6j(*[HalfInteger(2)] * 6)
        assert len(d.vertices) == 570
        if simplified:
            d, _ = simplify(d, rules=DEFAULT_SIMPLIFY_RULES)
        peak = assert_same_plan(d, 28)[1]
        # Too small a cap fails at the same step with the same message.
        assert "intermediate rank" in assert_same_plan(d, peak - 1)
        assert "initial vertex rank" in assert_same_plan(d, 1)


@st.composite
def multigraphs(draw):
    """Random planner inputs: self-loops, multi-edges, boundary-to-boundary
    wires, disconnected components and possibly no vertices at all."""
    d = Diagram()
    vs = [d.add_z() for _ in range(draw(st.integers(0, 12)))]
    for _ in range(draw(st.integers(0, 24)) if vs else 0):
        d.add_edge(draw(st.sampled_from(vs)), draw(st.sampled_from(vs)))
    for _ in range(draw(st.integers(0, 4)) if vs else 0):
        d.add_edge(draw(st.sampled_from(vs)), d.add_output())
    for _ in range(draw(st.integers(0, 2))):
        d.add_edge(d.add_input(), d.add_output())
    return d


@PROPERTIES
@given(multigraphs(), st.integers(0, 28))
def test_planner_matches_reference_property(d, cap):
    assert_same_plan(d, cap)


# -- spider splitting -----------------------------------------------------


@st.composite
def fusable_spiders(draw):
    """A Z or X spider of degree 4-9 with open legs, self-loops and possibly
    a multi-edge to a second spider of the same colour, together with the
    single spider that fusing them gives."""
    kind = draw(st.sampled_from([Z, X]))
    add = Diagram.add_z if kind == Z else Diagram.add_x
    phase = Fraction(draw(st.integers(0, 7)), 4)
    d = Diagram()
    v = add(d, phase)
    degree = draw(st.integers(4, 9))
    links = draw(st.integers(0, degree))
    loops = draw(st.integers(0, (degree - links) // 2))
    for _ in range(loops):
        d.add_edge(v, v)
    for _ in range(degree - links - 2 * loops):
        d.add_edge(d.add_input() if draw(st.booleans()) else d.add_output(), v)
    if links:
        w_phase = Fraction(draw(st.integers(0, 7)), 4)
        phase += w_phase
        w = add(d, w_phase)
        for _ in range(links):
            d.add_edge(v, w)
        for _ in range(draw(st.integers(0, 1))):
            d.add_edge(w, w)
        for _ in range(draw(st.integers(0, 5))):
            d.add_edge(w, d.add_output())
    # Any edge order, so chain links and loops land anywhere.
    d.edges = draw(st.permutations(d.edges))
    d.mul_scalar(draw(exact_scalars))
    return d, VertexData(kind, phase % 2), len(d.inputs) + len(d.outputs)


def max_spider_degree(d: Diagram) -> int:
    """The largest degree of a Z/X spider in ``d``, 0 if there is none."""
    degree = dict.fromkeys(d.vertices, 0)
    for a, b in d.edges:
        degree[a] += 1
        degree[b] += 1
    return max((n for v, n in degree.items() if d.vertices[v].kind in (Z, X)), default=0)


class TestSplitSpiders:
    @PROPERTIES
    @given(fusable_spiders())
    def test_split_keeps_the_spider_tensor(self, case):
        d, fused, legs = case
        scale = d.scalar
        exact = eval_diagram(d, mode="exact").data
        want = np.asarray(vertex_tensor(fused, legs, "exact") * scale, dtype=object)
        assert exact.shape == want.shape
        assert all(a == b for a, b in zip(exact.ravel(), want.ravel()))
        flt = eval_diagram(d, mode="float").data
        want_f = vertex_tensor(fused, legs, "float") * scale.to_complex()
        assert np.abs(flt - want_f).max() <= 1e-12

    @PROPERTIES
    @given(fusable_spiders())
    def test_split_leaves_the_input_alone(self, case):
        d = case[0]
        before = serialize(d)
        split = _split_spiders(d)
        assert serialize(d) == before
        assert split is not d
        assert max_spider_degree(split) == 3

    @PROPERTIES
    @given(clifford_diagrams())
    def test_nothing_to_split_returns_the_input(self, d):
        assert (_split_spiders(d) is d) == (max_spider_degree(d) <= 3)

    def test_hboxes_are_not_split(self):
        d = Diagram()
        h = d.add_h()
        for _ in range(5):
            d.add_edge(h, d.add_output())
        assert _split_spiders(d) is d


class TestSplitPlans:
    """Plans after ``simplify`` stay thin once fused spiders are split."""

    @pytest.mark.parametrize("n, peak", [(4, 10), (5, 10), (6, 15)])
    def test_symmetriser_peak_rank(self, n, peak):
        assert plan_contraction(symmetriser(n), mode="float").peak_rank <= peak

    def test_simplified_6j_212212_exact(self):
        js = [HalfInteger(j) for j in (2, 1, 2, 2, 1, 2)]
        d, corr = network_6j(*js)
        d, _ = simplify(d, rules=DEFAULT_SIMPLIFY_RULES)
        assert plan_contraction(d).peak_rank <= 16
        raw = eval_diagram(d, mode="exact").scalar_value().to_radical()
        assert raw * corr.value == w6j(*js)
