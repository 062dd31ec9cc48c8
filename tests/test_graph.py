"""Diagram data structure: construction, composition, serialization."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinnet.exact import ExactScalar, HalfInteger
from spinnet.graph import (
    B,
    Diagram,
    H,
    VertexData,
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
from spinnet.su2 import network_6j
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


# -- the JSON text, pinned to the encoder it replaced -----------------------


def to_json_dict(d: Diagram) -> dict:
    """The schema-1 document of ``d``; ``serialize`` must equal
    ``json.dumps(to_json_dict(d), indent=2)``, byte for byte."""
    verts = []
    for v in sorted(d.vertices):
        data = d.vertices[v]
        entry: dict = {"id": v, "kind": data.kind}
        if data.kind in (Z, X):
            if isinstance(data.phase, Fraction):
                entry["phase"] = {"num": data.phase.numerator, "den": data.phase.denominator}
            else:
                entry["phase"] = {"float": float(data.phase)}
        elif data.kind == H:
            entry["label"] = data.label.serialize()
        verts.append(entry)
    return {
        "version": 1,
        "vertices": verts,
        "edges": [[a, b] for a, b in d.edges],
        "inputs": list(d.inputs),
        "outputs": list(d.outputs),
        "scalar": d.scalar.serialize(),
    }


def reference_text(d: Diagram) -> str:
    return json.dumps(to_json_dict(d), indent=2)


float_phases = st.one_of(
    st.sampled_from([0.30000000000000004, 0.1, 0.0, -0.0, 1.9999999999999998, 5e-324]),
    st.floats(-4, 4),
)
phases = st.one_of(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 8)), float_phases)


@st.composite
def file_diagrams(draw):
    """Valid diagrams as a file may hold them: exact and float phases (the
    records built directly, so unreduced and signed-zero phases occur), H
    labels, ids that skip values in any order, self-loops, multi-edges,
    wires between boundaries, and possibly no vertices or no boundaries."""
    n = draw(st.integers(0, 5))
    legs = draw(st.integers(0, 3)) if n else 0
    wires = draw(st.integers(0, 2))
    ids = draw(st.lists(st.integers(0, 999), min_size=n + legs + 2 * wires,
                        max_size=n + legs + 2 * wires, unique=True))
    spiders, bounds = ids[:n], ids[n:]
    d = Diagram()
    for v in spiders:
        kind = draw(st.sampled_from([Z, X, H]))
        d.vertices[v] = VertexData(H, label=draw(exact_scalars)) if kind == H else VertexData(kind, draw(phases))
    for v in bounds:
        d.vertices[v] = VertexData(B)
    for _ in range(draw(st.integers(0, 6)) if n else 0):
        d.edges.append((draw(st.sampled_from(spiders)), draw(st.sampled_from(spiders))))
    for b in bounds[:legs]:
        d.edges.append((b, draw(st.sampled_from(spiders))))
    for a, b in zip(bounds[legs::2], bounds[legs + 1::2]):
        d.edges.append((a, b))
    d.edges = draw(st.permutations(d.edges))
    for b in draw(st.permutations(bounds)):
        (d.inputs if draw(st.booleans()) else d.outputs).append(b)
    d._next_id = max(ids, default=-1) + 1
    d.mul_scalar(draw(exact_scalars))
    d.validate()
    return d


def entry_records(text: str, d: Diagram) -> dict[str, set[int]]:
    """For each distinct vertex entry of ``text`` apart from its id, the ids
    of the records that ``d``'s vertices with that entry hold."""
    records: dict[str, set[int]] = {}
    for entry in json.loads(text)["vertices"]:
        key = json.dumps({k: v for k, v in entry.items() if k != "id"}, sort_keys=True)
        records.setdefault(key, set()).add(id(d.vertices[entry["id"]]))
    return records


@PROPERTIES
@given(file_diagrams())
def test_serialize_is_the_indent_2_dump_property(d):
    text = serialize(d)
    assert text == reference_text(d)
    d2 = deserialize(text)
    assert serialize(d2) == text
    records = entry_records(text, d2)
    assert all(len(ids) == 1 for ids in records.values())
    assert len({id(r) for r in d2.vertices.values()}) == len(records)


@pytest.mark.parametrize("phase", [0.30000000000000004, -0.0, 0.0, 1e-300])
def test_float_phase_text_round_trips_exactly(phase):
    d = Diagram()
    z = d._add_vertex(VertexData(Z, phase))
    d.add_edge(z, d.add_output())
    text = serialize(d)
    assert text == reference_text(d) and f'"float": {phase!r}' in text
    got = deserialize(text).vertices[z].phase
    assert type(got) is float and got.hex() == phase.hex()


def test_equal_phases_of_different_types_keep_their_own_text():
    # Fraction(1, 2) == 0.5 and 0.0 == -0.0 with equal hashes, but each is
    # written, and read back, as itself.
    phases = [Fraction(1, 2), 0.5, 0.0, -0.0, Fraction(0), 0.5, -0.0]
    d = Diagram()
    for phase in phases:
        d.add_edge(d._add_vertex(VertexData(X, phase)), d.add_output())
    text = serialize(d)
    assert text == reference_text(d)
    got = [data.phase for data in deserialize(text).vertices.values() if data.kind == X]
    assert [(type(p), str(p)) for p in got] == [(type(p), str(p)) for p in phases]


def test_empty_diagram_text():
    assert serialize(Diagram()) == reference_text(Diagram())
    assert '"vertices": [],' in serialize(Diagram())


def test_loaded_6j_network_shares_one_record_per_kind_and_phase():
    d, _ = network_6j(*[HalfInteger(1)] * 6)
    text = serialize(d)
    d2 = deserialize(text)
    records = entry_records(text, d2)
    assert all(len(ids) == 1 for ids in records.values())
    assert len({id(r) for r in d2.vertices.values()}) == len(records) < len(d2.vertices) // 10
    assert d2.vertices == d.vertices and d2.edges == d.edges
