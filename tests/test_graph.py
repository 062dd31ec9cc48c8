"""Diagram data structure: construction, composition, serialization."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinnet.exact import ExactScalar
from spinnet.graph import (
    Diagram,
    H,
    X,
    Z,
    compose_par,
    compose_seq,
    deserialize,
    identity_diagram,
    make_hbox,
    make_spider,
    serialize,
    to_dot,
)
from spinnet.tensor import eval_diagram, to_matrix

PROPERTIES = settings(derandomize=True, max_examples=150, deadline=None, database=None)
rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
exact_scalars = st.builds(ExactScalar, rationals, rationals, rationals, rationals)


def test_basic_construction():
    d = Diagram()
    z = d.add_z(Fraction(1, 2))
    x = d.add_x()
    h = d.add_h()
    d.add_edge(z, x)
    d.add_edge(x, h)
    assert d.vertices[z].kind == Z
    assert d.vertices[x].kind == X
    assert d.vertices[h].kind == H
    assert d.vertices[h].label == ExactScalar(-1)
    assert d.degree(x) == 2
    d.validate()


def test_boundaries_and_copy():
    d = make_spider(Z, Fraction(0), 1, 2)
    assert len(d.inputs) == 1 and len(d.outputs) == 2
    c = d.copy()
    c.add_z()
    assert len(c.vertices) == len(d.vertices) + 1


def test_identity_composition():
    wire = identity_diagram(2)
    d = make_spider(X, Fraction(1), 2, 2)
    left = compose_seq(wire, d)
    right = compose_seq(d, wire)
    assert (to_matrix(left) == to_matrix(d)).all()
    assert (to_matrix(right) == to_matrix(d)).all()


def test_compose_par_matrix_is_kron():
    a = make_spider(Z, Fraction(1, 2), 1, 1)
    b = make_spider(X, Fraction(1), 1, 1)
    ab = compose_par(a, b)
    ma = eval_diagram(a, mode="float").to_matrix()
    mb = eval_diagram(b, mode="float").to_matrix()
    mab = eval_diagram(ab, mode="float").to_matrix()
    assert np.abs(mab - np.kron(ma, mb)).max() < 1e-12


def test_cup_cap_yanking_and_circle():
    # cup: no inputs, 2 outputs of a phase-free Z spider... use bare wire bend:
    cup = Diagram()
    a, b = cup.add_output(), cup.add_output()
    cup.add_edge(a, b)
    cap = Diagram()
    c, e = cap.add_input(), cap.add_input()
    cap.add_edge(c, e)
    # circle = closed loop = scalar 2
    circle = compose_seq(cup, cap)
    assert eval_diagram(circle).scalar_value() == ExactScalar(2)


def test_self_loop_traced():
    d = Diagram()
    z = d.add_z()
    d.add_edge(z, z)
    assert eval_diagram(d).scalar_value() == ExactScalar(2)


def test_serialize_roundtrip():
    d = Diagram()
    z = d.add_z(Fraction(3, 2))
    x = d.add_x(Fraction(1))
    h = d.add_h(ExactScalar(0, 1))  # sqrt(2) label
    i = d.add_input()
    o = d.add_output()
    d.add_edge(i, z)
    d.add_edge(z, x)
    d.add_edge(x, h)
    d.add_edge(h, o)
    d.mul_scalar(ExactScalar(0, Fraction(1, 2)))
    doc = serialize(d)
    d2 = deserialize(json.loads(json.dumps(doc)))
    assert (to_matrix(d2) == to_matrix(d)).all()
    assert d2.scalar == d.scalar


def test_serialize_float_phase_roundtrip():
    d = Diagram()
    z = d.add_z(0.7)
    d.add_edge(d.add_input(), z)
    d.add_edge(z, d.add_output())
    d2 = deserialize(serialize(d))
    assert isinstance(d2.vertices[z].phase, float)
    assert d2.vertices[z].phase == pytest.approx(0.7)


def test_validate_rejects_dangling_edge():
    d = Diagram()
    z = d.add_z()
    d.edges.append((z, z + 99))
    with pytest.raises(ValueError):
        d.validate()


@pytest.mark.parametrize("extra_edges", [0, 1])
def test_validate_rejects_boundary_degree(extra_edges):
    d = Diagram()
    z, b = d.add_z(), d.add_output()
    for _ in range(extra_edges):
        d.add_edge(z, b)
        d.add_edge(b, b)  # a self-loop adds two to the degree
    with pytest.raises(ValueError, match=f"boundary vertex {b} must have degree 1"):
        d.validate()


def test_to_dot_mentions_all_vertices():
    d = make_hbox(None, 1, 1)
    dot = to_dot(d)
    assert dot.startswith("graph")
    for v in d.vertices:
        assert str(v) in dot


@st.composite
def open_diagrams(draw, n_in=None, n_out=None):
    """Small Z/X/H diagrams with exact (pi/4) phases, H labels, a scalar and
    n_in inputs and n_out outputs (0-2 each unless given)."""
    n_in = draw(st.integers(0, 2)) if n_in is None else n_in
    n_out = draw(st.integers(0, 2)) if n_out is None else n_out
    d = Diagram()
    ins = [d.add_input() for _ in range(n_in)]
    vs = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from([Z, X, H]))
        if kind == H:
            vs.append(d.add_h(draw(exact_scalars)))
        else:
            phase = Fraction(draw(st.integers(0, 7)), 4)
            vs.append(d.add_z(phase) if kind == Z else d.add_x(phase))
    # The wires of one side end on distinct vertices, so their order matters.
    for b, v in zip(ins, draw(st.permutations(vs))):
        d.add_edge(b, v)
    for _ in range(draw(st.integers(0, 4))):
        d.add_edge(draw(st.sampled_from(vs)), draw(st.sampled_from(vs)))
    for v in draw(st.permutations(vs))[:n_out]:
        d.add_edge(v, d.add_output())
    d.mul_scalar(draw(exact_scalars))
    return d


@PROPERTIES
@given(open_diagrams())
def test_serialize_roundtrip_property(d):
    text = serialize(d)
    d2 = deserialize(text)
    assert serialize(d2) == text
    assert (to_matrix(d2) == to_matrix(d)).all()


@PROPERTIES
@given(st.data())
def test_compose_seq_is_the_matrix_product_property(data):
    a = data.draw(open_diagrams())
    b = data.draw(open_diagrams(n_in=len(a.outputs)))
    assert (to_matrix(compose_seq(a, b)) == to_matrix(b).dot(to_matrix(a))).all()


@PROPERTIES
@given(open_diagrams(), open_diagrams())
def test_compose_par_is_the_kronecker_product_property(a, b):
    assert (to_matrix(compose_par(a, b)) == np.kron(to_matrix(a), to_matrix(b))).all()
