"""Rewrite engine: per-rule soundness, derived scalars, simplification."""

import json
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinnet import rewrite as rw
from spinnet.exact import ExactScalar, HalfInteger
from spinnet.graph import (
    H, X, Z, Diagram, VertexData, compose_par, make_spider, normalize_phase, serialize,
)
from spinnet.rewrite import (
    DEFAULT_SIMPLIFY_RULES,
    RULES,
    apply_rule,
    check_rule_soundness,
    derived_scalar_table,
    find_matches,
    simplify,
)
from spinnet.su2 import cswap_gadget, network_6j, symmetriser
from spinnet.tensor import plug_basis, to_matrix

# The default rules plus absorb, explode, copy, hopf and pi-copy: enough to
# reduce a plugged Fredkin gadget, but with no fixpoint on larger diagrams.
FULL_RULES = (
    "fuse", "remove-wire", "identity", "hh-cancel",
    "absorb", "explode", "copy", "hopf", "pi-copy",
)


# Every scalar that the seed-0 trials derive, per rule, in text form.
DERIVED_SCALARS = json.loads((Path(__file__).parent / "data" / "derived_scalars.json").read_text())


@pytest.mark.parametrize("rule", sorted(RULES))
def test_rule_soundness_200_trials(rule):
    assert check_rule_soundness(rule, trials=200, seed=0) == 0
    table = derived_scalar_table()
    for key, value in DERIVED_SCALARS[rule].items():
        assert table.get(key) == value, key


def _hopf_dropping_one_edge(w, site):
    u, v = site
    w.remove_edge(next(e for e, n in w.inc[u].items() if n == v))
    return ("hopf",)


def test_derivation_rejects_an_unsound_applier(monkeypatch):
    # The scalar is derived by running the applier itself, so a broken
    # surgery cannot ship with a scalar derived from some other right side.
    monkeypatch.setattr(rw, "_SCALAR_CACHE", {})
    monkeypatch.setattr(RULES["hopf"], "apply_at", _hopf_dropping_one_edge)
    d, _site = RULES["hopf"].lhs()
    with pytest.raises(ValueError, match="not proportional"):
        apply_rule(d, "hopf")


def test_derivation_rejects_a_site_that_does_not_match(monkeypatch):
    monkeypatch.setattr(rw, "_SCALAR_CACHE", {})
    rule = RULES["hopf"]
    d, (z, x) = rule.lhs()
    monkeypatch.setattr(rule, "lhs", lambda: (d, (x, z)))
    with pytest.raises(ValueError, match="is not a 'hopf' site"):
        rw._derive_scalar(rule, ("hopf",))


def test_derivation_rejects_an_applier_reporting_another_key(monkeypatch):
    monkeypatch.setattr(rw, "_SCALAR_CACHE", {})
    rule = RULES["hh-cancel"]
    apply_at = rule.apply_at
    monkeypatch.setattr(rule, "apply_at", lambda w, site: apply_at(w, site)[:1])
    with pytest.raises(ValueError, match="the applier reports"):
        rw._derive_scalar(rule, ("hh-cancel", "open"))


def test_negative_control_detects_wrong_scalar():
    # An hh-cancel surgery applied *without* its x2 scalar must change the
    # diagram's tensor, and the exact comparison must see it.
    d = Diagram()
    u, v = d.add_h(), d.add_h()
    d.add_edge(u, v)
    d.add_edge(d.add_input(), u)
    d.add_edge(v, d.add_output())
    good = apply_rule(d, "hh-cancel")
    bad = good.copy()
    bad.mul_scalar(ExactScalar(Fraction(1, 2)))  # undo the derived scalar
    before = to_matrix(d)
    assert bool(np.all(to_matrix(good) == before))
    assert not bool(np.all(to_matrix(bad) == before))


def test_derived_scalars_are_cached_and_exact():
    d = Diagram()
    u, v = d.add_h(), d.add_h()
    d.add_edge(u, v)
    d.add_edge(d.add_input(), u)
    d.add_edge(v, d.add_output())
    apply_rule(d, "hh-cancel")
    table = derived_scalar_table()
    assert any("hh-cancel" in k for k in table)
    key = next(k for k in table if "hh-cancel" in k and "open" in k)
    assert ExactScalar.deserialize(table[key]) == ExactScalar(2)


def test_fuse_adds_phases():
    d = Diagram()
    a = d.add_z(Fraction(1, 2))
    b = d.add_z(Fraction(1))
    d.add_edge(a, b)
    d.add_edge(d.add_input(), a)
    d.add_edge(b, d.add_output())
    out = apply_rule(d, "fuse")
    (spider,) = [v for v, data in out.vertices.items() if data.kind == "Z"]
    assert Fraction(out.vertices[spider].phase) % 2 == Fraction(3, 2)


def test_fuse_adds_float_phases_as_floats():
    d = Diagram()
    a = d.add_z(0.1)
    b = d.add_z(0.2)
    d.add_edge(a, b)
    d.add_edge(d.add_input(), a)
    d.add_edge(b, d.add_output())
    for out in (apply_rule(d, "fuse"), simplify(d)[0]):
        (phase,) = [data.phase for data in out.vertices.values() if data.kind == "Z"]
        assert isinstance(phase, float)
        assert abs(phase - 0.3) < 1e-12
        (entry,) = [e for e in json.loads(serialize(out))["vertices"] if e["kind"] == "Z"]
        assert entry["phase"] == {"float": phase}


def _chain(n):
    """An input, n phase-free Z spiders in a row, an output: simplify needs
    n steps (n - 1 fuses, then the identity)."""
    d = Diagram()
    prev = d.add_input()
    for _ in range(n):
        s = d.add_z()
        d.add_edge(prev, s)
        prev = s
    d.add_edge(prev, d.add_output())
    return d


@pytest.mark.parametrize("n", [1, 2, 5])
def test_simplify_max_steps_contract(n):
    d = _chain(n)
    text = serialize(d)
    with pytest.raises(RuntimeError):
        simplify(d, max_steps=n)
    assert serialize(d) == text
    out, trace = simplify(d, max_steps=n + 1)
    assert len(trace) == n
    assert [r for r, _ in trace.steps] == ["fuse"] * (n - 1) + ["identity"]
    assert [data.kind for data in out.vertices.values()] == ["B", "B"]
    assert serialize(d) == text


def test_apply_rule_rejects_bad_site():
    d = Diagram()
    a = d.add_z()
    b = d.add_z()
    d.add_edge(a, b)
    with pytest.raises(ValueError):
        apply_rule(d, "fuse", site=(a + 99, b))
    with pytest.raises(KeyError):
        find_matches(d, "no-such-rule")


def test_zh_relations_skips_a_self_looped_h_box():
    # Both legs of the H(-1) box are one self-loop: there are no two wires
    # to put the Z-X-Z chain on, so it is no site.
    d = Diagram()
    h = d.add_h()
    d.add_edge(h, h)
    text = serialize(d)
    assert find_matches(d, "zh-relations") == []
    out, trace = simplify(d, rules=("zh-relations",))
    assert len(trace) == 0
    assert serialize(out) == text


def test_simplify_reaches_fixpoint_and_preserves_tensor():
    d = symmetriser(3)
    before = to_matrix(d)
    sd, trace = simplify(d)
    assert len(trace) > 0
    assert len(sd.vertices) < len(d.vertices)
    for rule in DEFAULT_SIMPLIFY_RULES:
        assert find_matches(sd, rule) == []
    assert bool(np.all(to_matrix(sd) == before))


def test_simplify_trace_records_rules():
    d = Diagram()
    a = d.add_z()
    b = d.add_z()
    d.add_edge(a, b)
    d.add_edge(d.add_input(), a)
    d.add_edge(b, d.add_output())
    _, trace = simplify(d)
    assert [r for r, _ in trace.steps][:1] == ["fuse"]


class TestCswapDerivations:
    """Plugging the Fredkin control with a basis state and simplifying must
    reproduce the closed-form branches: identity for |0>, swap for |1>."""

    def test_control_zero_collapses_to_wires(self):
        g = cswap_gadget()
        d = plug_basis(g, {g.inputs[0]: 0})
        before = to_matrix(d)
        sd, trace = simplify(d, rules=FULL_RULES)
        # Everything cancels: only the four boundary vertices remain.
        assert all(data.kind == "B" for data in sd.vertices.values())
        assert len(trace) > 5
        identity = np.eye(4, dtype=object)
        want = np.where(identity == 1, ExactScalar.one(), ExactScalar.zero())
        assert bool(np.all(to_matrix(sd) == want))
        assert bool(np.all(before == want))

    def test_control_one_gives_swap(self):
        g = cswap_gadget()
        d = plug_basis(g, {g.inputs[0]: 1})
        before = to_matrix(d)
        sd, trace = simplify(d, rules=FULL_RULES)
        assert len(trace) > 0
        assert len(sd.vertices) < len(d.vertices)
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=object
        )
        want = np.where(swap == 1, ExactScalar.one(), ExactScalar.zero())
        assert bool(np.all(to_matrix(sd) == want))
        assert bool(np.all(before == want))


# -- reference matchers ---------------------------------------------------
#
# The matchers as they were before the incidence pass: each scans the whole
# edge list per vertex or per edge.  ``find_matches`` must return exactly
# what these return, for every rule.


def _ref_other_edges(d: Diagram, v: int, excluded: set[int]) -> list[tuple[int, int]]:
    """(edge index, other endpoint) for v's edges not touching ``excluded``."""
    out = []
    for i, (a, b) in enumerate(d.edges):
        if a == v and b not in excluded:
            out.append((i, b))
        elif b == v and a not in excluded:
            out.append((i, a))
    return out


def _ref_fuse(d: Diagram) -> list[tuple]:
    out = []
    for i, (a, b) in enumerate(d.edges):
        if a == b:
            continue
        ka, kb = d.vertices[a].kind, d.vertices[b].kind
        if ka == kb and ka in (Z, X):
            out.append((min(a, b), max(a, b)))
    return sorted(set(out))


def _ref_remove_wire(d: Diagram) -> list[tuple]:
    return sorted(
        (i, a) for i, (a, b) in enumerate(d.edges) if a == b and d.vertices[a].kind in (Z, X)
    )


def _ref_identity(d: Diagram) -> list[tuple]:
    out = []
    for v, data in d.vertices.items():
        if data.kind in (Z, X) and Fraction(data.phase) % 2 == 0 and isinstance(data.phase, (int, Fraction)):
            inc = [i for i, (a, b) in enumerate(d.edges) if v in (a, b)]
            if len(inc) == 2 and all(d.edges[i][0] != d.edges[i][1] for i in inc):
                out.append((v,))
    return sorted(out)


def _ref_is_plain_hadamard_box(d: Diagram, v: int) -> bool:
    data = d.vertices[v]
    return data.kind == H and data.label == ExactScalar(-1) and d.degree(v) == 2


def _ref_hh_cancel(d: Diagram) -> list[tuple]:
    out = set()
    for a, b in d.edges:
        if a != b and _ref_is_plain_hadamard_box(d, a) and _ref_is_plain_hadamard_box(d, b):
            out.add((min(a, b), max(a, b)))
    return sorted(out)


def _ref_hopf(d: Diagram) -> list[tuple]:
    out = set()
    for a, b in d.edges:
        if a == b:
            continue
        ka, kb = d.vertices[a].kind, d.vertices[b].kind
        if {ka, kb} == {Z, X} and sum(1 for x, y in d.edges if {x, y} == {a, b}) == 2:
            out.add((min(a, b), max(a, b)))
    return sorted(out)


def _ref_copy(d: Diagram) -> list[tuple]:
    out = []
    for v, data in d.vertices.items():
        if data.kind not in (Z, X) or d.degree(v) != 1:
            continue
        ph = Fraction(data.phase) % 2 if isinstance(data.phase, (int, Fraction)) else None
        if ph not in (Fraction(0), Fraction(1)):
            continue
        (i, w) = _ref_other_edges(d, v, set())[0]
        wd = d.vertices[w]
        if (
            w != v
            and wd.kind in (Z, X)
            and wd.kind != data.kind
            and isinstance(wd.phase, (int, Fraction))
            and Fraction(wd.phase) % 2 == 0
            and not any(a == b == w for a, b in d.edges)
        ):
            out.append((v, w))
    return sorted(out)


def _ref_pi_copy(d: Diagram) -> list[tuple]:
    out = []
    for v, data in d.vertices.items():
        if data.kind not in (Z, X) or d.degree(v) != 2:
            continue
        if not isinstance(data.phase, (int, Fraction)) or Fraction(data.phase) % 2 != 1:
            continue
        for _i, w in _ref_other_edges(d, v, set()):
            wd = d.vertices[w]
            if (
                w != v
                and wd.kind in (Z, X)
                and wd.kind != data.kind
                and isinstance(wd.phase, (int, Fraction))
                and sum(1 for a, b in d.edges if {a, b} == {v, w}) == 1
                and not any(a == b == w for a, b in d.edges)
            ):
                out.append((v, w))
    return sorted(set(out))


def _ref_bialgebra(d: Diagram) -> list[tuple]:
    out = set()
    for a, b in d.edges:
        if a == b:
            continue
        da, db = d.vertices[a], d.vertices[b]
        if {da.kind, db.kind} != {Z, X}:
            continue
        if not (
            isinstance(da.phase, (int, Fraction))
            and isinstance(db.phase, (int, Fraction))
            and Fraction(da.phase) % 2 == 0
            and Fraction(db.phase) % 2 == 0
        ):
            continue
        if sum(1 for x, y in d.edges if {x, y} == {a, b}) != 1:
            continue
        if any(x == y and x in (a, b) for x, y in d.edges):
            continue  # self-loops on the pair are handled by remove-wire first
        z, x = (a, b) if da.kind == Z else (b, a)
        out.add((z, x))
    return sorted(out)


def _ref_color_change(d: Diagram) -> list[tuple]:
    out = []
    for v, data in d.vertices.items():
        if data.kind == X and all(a != b for a, b in d.edges if v in (a, b)):
            out.append((v,))
    return sorted(out)


def _ref_absorb(d: Diagram) -> list[tuple]:
    # X basis states: X(pi) = sqrt(2)|1> selects the box's all-ones slice
    # (label kept); X(0) = sqrt(2)|0> selects the all-ones-free slice
    # (label becomes 1).
    out = []
    for v, data in d.vertices.items():
        if data.kind != X or d.degree(v) != 1:
            continue
        if not isinstance(data.phase, (int, Fraction)) or Fraction(data.phase) % 2 not in (
            Fraction(0),
            Fraction(1),
        ):
            continue
        (_i, w) = _ref_other_edges(d, v, set())[0]
        if w != v and d.vertices[w].kind == H:
            out.append((v, w))
    return sorted(out)


def _ref_explode(d: Diagram) -> list[tuple]:
    # Two shapes: a Z(0) state halves an H-box label offset; a label-1
    # H-box is the all-ones tensor and splits into per-leg Z(0) states.
    out = []
    for v, data in d.vertices.items():
        if data.kind == H and data.label == ExactScalar.one() and all(
            a != b for a, b in d.edges if v in (a, b)
        ):
            out.append((-1, v))
            continue
        if data.kind != Z or d.degree(v) != 1:
            continue
        if not isinstance(data.phase, (int, Fraction)) or Fraction(data.phase) % 2 != 0:
            continue
        (_i, w) = _ref_other_edges(d, v, set())[0]
        if w != v and d.vertices[w].kind == H:
            out.append((v, w))
    return sorted(out)


def _ref_zh(d: Diagram) -> list[tuple]:
    return sorted(
        (v,)
        for v in d.vertices
        if _ref_is_plain_hadamard_box(d, v) and not any(a == b == v for a, b in d.edges)
    )


REFERENCE_MATCHERS = {
    "fuse": _ref_fuse,
    "remove-wire": _ref_remove_wire,
    "identity": _ref_identity,
    "hh-cancel": _ref_hh_cancel,
    "hopf": _ref_hopf,
    "copy": _ref_copy,
    "pi-copy": _ref_pi_copy,
    "bialgebra": _ref_bialgebra,
    "color-change": _ref_color_change,
    "absorb": _ref_absorb,
    "explode": _ref_explode,
    "zh-relations": _ref_zh,
}


# -- reference appliers ---------------------------------------------------
#
# The appliers as they were before the in-place working form: each copies
# the diagram and rebuilds its edge list.  ``apply_rule`` must produce the
# same diagram (records in dict order, edges, boundaries, scalar) at every
# site, and ``simplify`` the same trace and result as the first-match loop
# over these.  The scalars come from the library, which derives them, fetched
# by key.  Only ``_ref_a_fuse`` differs from the original: float phases add
# as floats (``normalize_phase(pu + pv)``) instead of as exact binary
# fractions.


def _scalar(*key):
    """The library's derived scalar for a key."""
    return rw._derive_scalar(RULES[key[0]], key)


def _ref_incidence(d: Diagram) -> dict[int, list[tuple[int, int]]]:
    """v -> [(edge index, other end), ...] in edge order; a self-loop twice."""
    inc: dict[int, list[tuple[int, int]]] = {v: [] for v in d.vertices}
    for i, (a, b) in enumerate(d.edges):
        inc[a].append((i, b))
        inc[b].append((i, a))
    return inc


def _ref_remove_vertex(d: Diagram, v: int) -> None:
    d.edges = [(a, b) for a, b in d.edges if a != v and b != v]
    del d.vertices[v]
    d.inputs = [w for w in d.inputs if w != v]
    d.outputs = [w for w in d.outputs if w != v]


def _ref_a_fuse(d: Diagram, site: tuple) -> Diagram:
    u, v = site
    out = d.copy()
    pu, pv = out.vertices[u].phase, out.vertices[v].phase
    out.vertices[u] = VertexData(out.vertices[u].kind, normalize_phase(pu + pv))
    new_edges = []
    for a, b in out.edges:
        a = u if a == v else a
        b = u if b == v else b
        if a == u and b == u:
            continue  # fused connection or resulting self-loop: scalar-free
        new_edges.append((a, b))
    out.edges = new_edges
    del out.vertices[v]
    return out



def _ref_a_remove_wire(d: Diagram, site: tuple) -> Diagram:
    i, _v = site
    out = d.copy()
    del out.edges[i]
    return out



def _ref_a_identity(d: Diagram, site: tuple) -> Diagram:
    (v,) = site
    ends = [w for _i, w in _ref_incidence(d)[v]]
    out = d.copy()
    out.edges = [(a, b) for a, b in out.edges if v not in (a, b)]
    del out.vertices[v]
    out.add_edge(ends[0], ends[1])
    return out



def _ref_a_hh_cancel(d: Diagram, site: tuple) -> Diagram:
    u, v = site
    inc = _ref_incidence(d)
    out = d.copy()
    links = sum(1 for _i, w in inc[u] if w == v)
    if links == 2:
        # Closed pair: trace(H.H) = 4.
        _ref_remove_vertex(out, u)
        _ref_remove_vertex(out, v)
        out.mul_scalar(_scalar("hh-cancel", "closed"))
        return out
    nu = next(w for _i, w in inc[u] if w != v)
    nv = next(w for _i, w in inc[v] if w != u)
    _ref_remove_vertex(out, u)
    _ref_remove_vertex(out, v)
    out.add_edge(nu, nv)
    out.mul_scalar(_scalar("hh-cancel", "open"))
    return out



def _ref_a_hopf(d: Diagram, site: tuple) -> Diagram:
    u, v = site
    out = d.copy()
    removed = 0
    new_edges = []
    for a, b in out.edges:
        if {a, b} == {u, v} and removed < 2:
            removed += 1
            continue
        new_edges.append((a, b))
    out.edges = new_edges
    out.mul_scalar(_scalar("hopf"))
    return out



def _ref_a_copy(d: Diagram, site: tuple) -> Diagram:
    v, w = site
    others = [(i, n) for i, n in _ref_incidence(d)[w] if n != v]
    out = d.copy()
    kind = out.vertices[v].kind
    ph = Fraction(out.vertices[v].phase) % 2
    legs = len(others)
    out.edges = [(a, b) for a, b in out.edges if v not in (a, b) and w not in (a, b)]
    for _i, n in others:
        s = out.add_z(ph) if kind == Z else out.add_x(ph)
        out.add_edge(s, n)
    del out.vertices[v]
    del out.vertices[w]
    out.mul_scalar(_scalar("copy", kind, ph, legs))
    return out



def _ref_a_pi_copy(d: Diagram, site: tuple) -> Diagram:
    v, w = site
    inc = _ref_incidence(d)
    n_outer = next(n for _i, n in inc[v] if n != w)
    others = [(i, n) for i, n in inc[w] if n != v]
    out = d.copy()
    kind = out.vertices[v].kind  # colour of the pi spider
    ph = Fraction(out.vertices[w].phase) % 2
    legs = len(others)
    out.edges = [(a, b) for a, b in out.edges if v not in (a, b) and w not in (a, b)]
    sp2 = out.add_x(-ph) if kind == Z else out.add_z(-ph)
    out.add_edge(n_outer, sp2)
    for _i, n in others:
        p = out.add_z(rw._PI) if kind == Z else out.add_x(rw._PI)
        out.add_edge(sp2, p)
        out.add_edge(p, n)
    del out.vertices[v]
    del out.vertices[w]
    out.mul_scalar(_scalar("pi-copy", kind, ph, legs))
    return out



def _ref_a_bialgebra(d: Diagram, site: tuple) -> Diagram:
    z, x = site
    inc = _ref_incidence(d)
    z_others = [(i, n) for i, n in inc[z] if n != x]
    x_others = [(i, n) for i, n in inc[x] if n != z]
    out = d.copy()
    m, n = len(z_others), len(x_others)
    out.edges = [(a, b) for a, b in out.edges if z not in (a, b) and x not in (a, b)]
    new_x = []
    for _i, nb in z_others:
        xv = out.add_x()
        out.add_edge(nb, xv)
        new_x.append(xv)
    new_z = []
    for _i, nb in x_others:
        zv = out.add_z()
        out.add_edge(zv, nb)
        new_z.append(zv)
    for xv in new_x:
        for zv in new_z:
            out.add_edge(xv, zv)
    del out.vertices[z]
    del out.vertices[x]
    out.mul_scalar(_scalar("bialgebra", m, n))
    return out



def _ref_a_color_change(d: Diagram, site: tuple) -> Diagram:
    (v,) = site
    inc = _ref_incidence(d)[v]
    out = d.copy()
    ph = out.vertices[v].phase
    out.edges = [(a, b) for a, b in out.edges if v not in (a, b)]
    z = out.add_z(ph)
    for _i, nb in inc:
        h = out.add_h()
        out.add_edge(z, h)
        out.add_edge(h, nb)
    del out.vertices[v]
    key_ph = Fraction(ph) % 2 if isinstance(ph, (int, Fraction)) else Fraction(0)
    out.mul_scalar(_scalar("color-change", key_ph, len(inc)))
    return out



def _ref_a_absorb(d: Diagram, site: tuple) -> Diagram:
    v, w = site
    inc = _ref_incidence(d)
    out = d.copy()
    ph = Fraction(out.vertices[v].phase) % 2
    label = out.vertices[w].label
    legs = len(inc[w]) - 1
    del out.edges[inc[v][0][0]]
    del out.vertices[v]
    if ph == 0:
        out.vertices[w] = VertexData(H, Fraction(0), ExactScalar.one())
    out.mul_scalar(_scalar("absorb", ph, label, legs))
    return out



def _ref_a_explode(d: Diagram, site: tuple) -> Diagram:
    v, w = site
    inc = _ref_incidence(d)
    if v == -1:
        out = d.copy()
        legs = [nb for _i, nb in inc[w]]
        out.edges = [(a, b) for a, b in out.edges if w not in (a, b)]
        del out.vertices[w]
        for nb in legs:
            out.add_edge(out.add_z(), nb)
        out.mul_scalar(_scalar("explode", "split", len(legs)))
        return out
    out = d.copy()
    label = out.vertices[w].label
    legs = len(inc[w]) - 1
    del out.edges[inc[v][0][0]]
    del out.vertices[v]
    new_label = (ExactScalar.one() + label) * ExactScalar(Fraction(1, 2))
    out.vertices[w] = VertexData(H, Fraction(0), new_label)
    out.mul_scalar(_scalar("explode", label, legs))
    return out



def _ref_a_zh(d: Diagram, site: tuple) -> Diagram:
    (v,) = site
    ends = [w for _i, w in _ref_incidence(d)[v]]
    out = d.copy()
    if len(ends) != 2 or v in ends:
        raise ValueError("zh-relations needs an arity-2 H-box on distinct wires")
    out.edges = [(a, b) for a, b in out.edges if v not in (a, b)]
    del out.vertices[v]
    first, middle, last = out.add_z(rw._HALF), out.add_x(rw._HALF), out.add_z(rw._HALF)
    out.add_edge(first, middle)
    out.add_edge(middle, last)
    out.add_edge(ends[0], first)
    out.add_edge(last, ends[1])
    out.mul_scalar(_scalar("zh-relations"))
    return out



REFERENCE_APPLIERS = {
    "fuse": _ref_a_fuse,
    "remove-wire": _ref_a_remove_wire,
    "identity": _ref_a_identity,
    "hh-cancel": _ref_a_hh_cancel,
    "hopf": _ref_a_hopf,
    "copy": _ref_a_copy,
    "pi-copy": _ref_a_pi_copy,
    "bialgebra": _ref_a_bialgebra,
    "color-change": _ref_a_color_change,
    "absorb": _ref_a_absorb,
    "explode": _ref_a_explode,
    "zh-relations": _ref_a_zh,
}


def reference_simplify(d, rules=DEFAULT_SIMPLIFY_RULES, max_steps=10000):
    """``simplify``'s first-match loop, rescanning and copying the whole
    diagram at every step, driven by the reference matchers and appliers."""
    steps = []
    for _ in range(max_steps):
        for r in rules:
            matches = REFERENCE_MATCHERS[r](d)
            if matches:
                d = REFERENCE_APPLIERS[r](d, matches[0])
                steps.append((r, matches[0]))
                break
        else:
            return d, steps
    raise RuntimeError("reference simplify did not reach a fixpoint")


def assert_matchers_agree(d):
    assert set(REFERENCE_MATCHERS) == set(RULES)
    for rule, ref in REFERENCE_MATCHERS.items():
        assert find_matches(d, rule) == ref(d), rule


def _structure(d):
    """Everything a diagram holds, in order, with each phase's type."""
    return (
        [(v, data.kind, type(data.phase), data.phase, data.label) for v, data in d.vertices.items()],
        d.edges, d.inputs, d.outputs, d.scalar, d._next_id,
    )


def _outcome(apply):
    """The structure of one rewrite's result, or the error it raises."""
    try:
        return _structure(apply())
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_appliers_agree(d):
    """``apply_rule`` equals the reference applier at every site of every
    rule, and leaves its input as it was."""
    assert set(REFERENCE_APPLIERS) == set(RULES)
    before = serialize(d)
    for rule, ref in REFERENCE_APPLIERS.items():
        for site in find_matches(d, rule):
            got = _outcome(lambda: apply_rule(d, rule, site))
            assert got == _outcome(lambda: ref(d, site)), (rule, site)
    assert serialize(d) == before


def assert_simplify_agrees(d, rules=DEFAULT_SIMPLIFY_RULES, max_steps=10000):
    """Same trace and result as ``reference_simplify``, or both stop at
    ``max_steps``; the input is left as it was."""
    before = serialize(d)
    try:
        got, trace = simplify(d, rules=rules, max_steps=max_steps)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            reference_simplify(d, rules, max_steps)
    else:
        want, steps = reference_simplify(d, rules, max_steps)
        assert trace.steps == steps
        assert serialize(got) == serialize(want)
    assert serialize(d) == before


# The full rule set reaches no fixpoint on many diagrams (the 6j networks,
# symmetriser 4, seven of the sixteen manifest diagrams); there both sides
# must stop at the step budget.
FULL_BUDGET = 100


class TestMatchersMatchReference:
    def test_paper_manifest(self, paper_diagrams):
        for d, _cap in paper_diagrams:
            assert_matchers_agree(d)
            assert_appliers_agree(d)
            assert_simplify_agrees(d)
            assert_simplify_agrees(d, rules=FULL_RULES, max_steps=FULL_BUDGET)
            assert_matchers_agree(simplify(d)[0])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_symmetrisers(self, n):
        d = symmetriser(n)
        assert_matchers_agree(d)
        assert_appliers_agree(d)
        assert_simplify_agrees(d)
        assert_simplify_agrees(d, rules=FULL_RULES, max_steps=FULL_BUDGET)

    @pytest.mark.parametrize("bit", [0, 1])
    def test_plugged_cswap(self, bit):
        g = cswap_gadget()
        d = plug_basis(g, {g.inputs[0]: bit})
        assert_matchers_agree(d)
        assert_simplify_agrees(d)
        assert_simplify_agrees(d, rules=FULL_RULES)
        # Every intermediate diagram of the full rule set, where the rules
        # beyond the default set find their sites.
        for rule, site in simplify(d, rules=FULL_RULES)[1].steps:
            assert_matchers_agree(d)
            assert_appliers_agree(d)
            d = REFERENCE_APPLIERS[rule](d, site)

    @pytest.mark.parametrize("twice", [(2, 2, 2, 2, 2, 2), (1, 1, 2, 3, 3, 2)])
    def test_six_j(self, twice):
        d, _ = network_6j(*[HalfInteger(t) for t in twice])
        assert_matchers_agree(d)
        assert_appliers_agree(d)
        assert_simplify_agrees(d)
        assert_simplify_agrees(d, rules=FULL_RULES, max_steps=FULL_BUDGET)
        assert_matchers_agree(simplify(d)[0])


def _pair(kind_a, phase_a, kind_b, phase_b, links=1, loop_on_b=False, legs=1, state=False):
    """Spider a -- spider b (``links`` parallel edges), one input on a unless
    a is a ``state``, and ``legs`` outputs on b; optionally a self-loop on b."""
    d = Diagram()
    a = d.add_z(phase_a) if kind_a == Z else d.add_x(phase_a)
    b = d.add_z(phase_b) if kind_b == Z else d.add_x(phase_b)
    if not state:
        d.add_edge(d.add_input(), a)
    for _ in range(links):
        d.add_edge(a, b)
    if loop_on_b:
        d.add_edge(b, b)
    for _ in range(legs):
        d.add_edge(b, d.add_output())
    return d


@pytest.mark.parametrize("d", [
    _pair(Z, Fraction(1), X, 1.0),  # pi-copy onto a float phase
    _pair(Z, Fraction(1), X, Fraction(1, 2), loop_on_b=True),  # pi-copy onto a looped spider
    _pair(Z, Fraction(1), X, Fraction(0), links=2),  # pi-copy across a double edge
    _pair(X, 0.0, Z, Fraction(0), legs=2),  # float 0 is not phase-free
    _pair(Z, Fraction(0), X, Fraction(0), links=3),  # hopf needs exactly two links
    _pair(Z, Fraction(0), X, Fraction(0), links=2, loop_on_b=True),
    _pair(Z, Fraction(2), X, Fraction(-2), legs=3),  # unnormalised even phases
    _pair(Z, Fraction(1), X, Fraction(0), loop_on_b=True, state=True),  # copy onto a looped spider
    _pair(Z, Fraction(1), X, 0.0, legs=2, state=True),  # copy onto a float phase
], ids=["pi-copy-float", "pi-copy-loop", "pi-copy-double", "float-zero", "triple-link",
        "hopf-loop", "unnormalised", "copy-loop", "copy-float"])
def test_matcher_guards_match_reference(d):
    assert_matchers_agree(d)
    assert_appliers_agree(d)
    assert_simplify_agrees(d)


_PHASES = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), 1.0]
_LABELS = [ExactScalar(-1), ExactScalar(1), ExactScalar(2)]


@st.composite
def zxh_diagrams(draw):
    """Random small diagrams with self-loops, multi-edges, boundary-to-boundary
    wires, H-boxes labelled -1, 1 and 2 and Z/X phases 0, 1/2, 1, 3/2 and the
    float 1.0.  One to three left-hand-side instances of the rules, with
    sampled parameters, are planted beside them with ``compose_par``, so that
    every rule has sites to find; up to two spiders then get the float phase,
    and random edges join or break the instances."""
    d = Diagram()
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from((Z, X, H)))
        if kind == H:
            d.add_h(draw(st.sampled_from(_LABELS)))
        else:
            phase = draw(st.sampled_from(_PHASES))
            d.add_z(phase) if kind == Z else d.add_x(phase)
    rng = draw(st.randoms(use_true_random=False))
    for rule in draw(st.lists(st.sampled_from(sorted(RULES)), min_size=1, max_size=3)):
        r = RULES[rule]
        d = compose_par(d, r.lhs(*r.sample(rng))[0])
    spiders = [v for v, data in d.vertices.items() if data.kind in (Z, X)]
    for v in draw(st.lists(st.sampled_from(spiders), max_size=2, unique=True)) if spiders else ():
        d.vertices[v] = VertexData(d.vertices[v].kind, 1.0)
    vs = [v for v, data in d.vertices.items() if data.kind != "B"]
    # About one edge per two vertices, so that leaves and arity-2 vertices
    # stay common.
    for _ in range(draw(st.integers(0, len(vs) // 2 + 1)) if vs else 0):
        d.add_edge(draw(st.sampled_from(vs)), draw(st.sampled_from(vs)))
    for _ in range(draw(st.integers(0, 3)) if vs else 0):
        end = d.add_output() if draw(st.booleans()) else d.add_input()
        d.add_edge(draw(st.sampled_from(vs)), end)
    for _ in range(draw(st.integers(0, 2))):
        d.add_edge(d.add_input(), d.add_output())
    return d


PROPERTIES = settings(derandomize=True, max_examples=300, deadline=None, database=None)


@PROPERTIES
@given(zxh_diagrams())
def test_matchers_match_reference_property(d):
    assert_matchers_agree(d)
    assert_appliers_agree(d)
    assert_simplify_agrees(d)
    assert_simplify_agrees(d, rules=FULL_RULES, max_steps=FULL_BUDGET)


def test_vertex_records_are_frozen():
    d = Diagram()
    v = d.add_z(Fraction(1, 2))
    with pytest.raises(FrozenInstanceError):
        d.vertices[v].phase = Fraction(1)
    assert d.vertices[v].phase == Fraction(1, 2)


def test_editing_a_copy_leaves_the_original():
    d = make_spider(Z, Fraction(1, 2), 1, 2)
    text = serialize(d)
    c = d.copy()
    (s,) = [v for v, data in c.vertices.items() if data.kind == Z]
    c.vertices[s] = VertexData(X, Fraction(1))
    c.edges.append((s, s))
    del c.edges[0]
    c.add_z()
    assert serialize(d) == text
