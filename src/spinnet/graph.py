"""Undirected open graphs of Z/X spiders and H-boxes.

A :class:`Diagram` is a multigraph whose vertices are Z-spiders, X-spiders,
H-boxes, or boundary points, together with ordered input/output boundary
lists and a global :class:`~spinnet.exact.ExactScalar` factor.  Phases are
stored as multiples of pi (exact :class:`fractions.Fraction` or float).

Semantics (unnormalised linear-map convention):

* Z-spider with phase a*pi: all-zeros entry 1, all-ones entry exp(i*a*pi),
  everything else 0.
* X-spider with phase a*pi: entry at a bit-pattern of total parity p is
  (1/sqrt(2))^degree * (1 + (-1)^p * exp(i*a*pi)).
* H-box with label c: every entry 1 except the all-ones entry, which is c.
  The default label -1 on a 2-legged box gives sqrt(2) times the Hadamard
  gate.

Spider kinds and exact phases are decided here alone: every Z or X spider
is made by :meth:`Diagram.add_spider`, and :func:`pi_quarters` says which
phases have an exact factor omega^k (an int or Fraction on the pi/4 grid;
any other needs float mode).  :func:`serialize` writes every int or
Fraction phase as ``num``/``den``, so it stays exact through JSON.

Vertex records (:class:`VertexData`) are immutable, so :meth:`Diagram.copy`
and composition share them between diagrams; a rewrite replaces a record
instead of editing it.  The JSON loader shares them too: vertices whose
entries differ only in their id get one record.

The JSON text of :func:`serialize` is exactly ``json.dumps(doc, indent=2)``
of the schema-1 document (``version``, ``vertices`` sorted by id, ``edges``,
``inputs``, ``outputs``, ``scalar``).  It is joined from per-vertex and
per-edge lines, each distinct vertex record's text made once per call,
because the indenting encoder has no C path.  Vertex ids, edge ends and
boundary entries are non-negative ints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .exact import ExactScalar

__all__ = [
    "Phase",
    "VertexData",
    "Diagram",
    "make_spider",
    "make_hbox",
    "identity_diagram",
    "compose_seq",
    "compose_par",
    "serialize",
    "deserialize",
    "to_dot",
]

Phase = Union[Fraction, float]

Z, X, H, B = "Z", "X", "H", "B"
_KINDS = (Z, X, H, B)  # a tuple: `in` compares, so an unhashable kind is just unknown


def normalize_phase(phase: Phase) -> Phase:
    """Reduce a phase (in units of pi) modulo 2."""
    if isinstance(phase, Fraction):
        return phase if 0 <= phase.numerator < 2 * phase.denominator else phase % 2
    if isinstance(phase, int):
        return Fraction(phase) % 2
    return float(phase) % 2.0


def pi_quarters(phase: Phase) -> Optional[int]:
    """k in 0..7 if an int or Fraction phase is k/4 mod 2, so its factor
    e^(i pi phase) = omega^k is exact; None for a float or any other phase."""
    if not isinstance(phase, (Fraction, int)) or 4 % phase.denominator:
        return None
    return phase.numerator * (4 // phase.denominator) % 8


@dataclass(frozen=True)
class VertexData:
    """One diagram vertex: kind 'Z', 'X', 'H' or 'B' (boundary).  Immutable,
    so diagrams may share records."""

    kind: str
    phase: Phase = Fraction(0)
    label: Optional[ExactScalar] = None


class Diagram:
    """A ZXH diagram: vertices, multi-edges, ordered boundaries, scalar."""

    def __init__(self) -> None:
        self.vertices: dict[int, VertexData] = {}
        self.edges: list[tuple[int, int]] = []
        self.inputs: list[int] = []
        self.outputs: list[int] = []
        self.scalar: ExactScalar = ExactScalar.one()
        self._next_id = 0

    # -- construction -----------------------------------------------------

    def _add_vertex(self, data: VertexData) -> int:
        v = self._next_id
        self._next_id += 1
        self.vertices[v] = data
        return v

    def add_spider(self, kind: str, phase: Phase = Fraction(0)) -> int:
        """A Z or X spider, its phase reduced mod 2; ValueError for another kind."""
        if kind != Z and kind != X:
            raise ValueError(f"unknown spider kind {kind!r}")
        return self._add_vertex(VertexData(kind, normalize_phase(phase)))

    def add_z(self, phase: Phase = Fraction(0)) -> int:
        return self.add_spider(Z, phase)

    def add_x(self, phase: Phase = Fraction(0)) -> int:
        return self.add_spider(X, phase)

    def add_h(self, label: Optional[ExactScalar] = None) -> int:
        if label is None:
            label = ExactScalar(-1)
        return self._add_vertex(VertexData(H, Fraction(0), label))

    def add_boundary(self) -> int:
        return self._add_vertex(VertexData(B))

    def add_input(self) -> int:
        v = self.add_boundary()
        self.inputs.append(v)
        return v

    def add_output(self) -> int:
        v = self.add_boundary()
        self.outputs.append(v)
        return v

    def add_edge(self, u: int, v: int) -> None:
        if u not in self.vertices or v not in self.vertices:
            raise KeyError(f"unknown vertex {v if u in self.vertices else u}")
        self.edges.append((u, v))

    def mul_scalar(self, s: ExactScalar) -> None:
        self.scalar = self.scalar * s

    # -- queries ----------------------------------------------------------

    def degree(self, v: int) -> int:
        d = 0
        for a, b in self.edges:
            if a == v:
                d += 1
            if b == v:
                d += 1
        return d

    # -- copying / validation ---------------------------------------------

    def copy(self) -> "Diagram":
        d = Diagram()
        d.vertices = dict(self.vertices)
        d.edges = list(self.edges)
        d.inputs = list(self.inputs)
        d.outputs = list(self.outputs)
        d.scalar = self.scalar
        d._next_id = self._next_id
        return d

    def validate(self) -> None:
        """Raise ValueError on malformed structure."""
        degree = dict.fromkeys(self.vertices, 0)
        for a, b in self.edges:
            if a not in self.vertices or b not in self.vertices:
                raise ValueError(f"edge ({a}, {b}) references unknown vertex")
            degree[a] += 1
            degree[b] += 1
        seen = set()
        for v in self.inputs + self.outputs:
            if v not in self.vertices or self.vertices[v].kind != B:
                raise ValueError(f"boundary list entry {v} is not a boundary vertex")
            if v in seen:
                raise ValueError(f"vertex {v} listed twice among boundaries")
            seen.add(v)
        for v, data in self.vertices.items():
            if data.kind not in _KINDS:
                raise ValueError(f"unknown vertex kind {data.kind!r}")
            if data.kind == B:
                if v not in seen:
                    raise ValueError(f"boundary vertex {v} not listed in inputs/outputs")
                if degree[v] != 1:
                    raise ValueError(f"boundary vertex {v} must have degree 1")
            if data.kind == H and not isinstance(data.label, ExactScalar):
                raise ValueError(f"H-box {v} lacks an ExactScalar label")

    # -- misc -------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Diagram({len(self.vertices)} vertices, {len(self.edges)} edges, "
            f"{len(self.inputs)} in, {len(self.outputs)} out)"
        )


# -- generators -----------------------------------------------------------


def make_spider(kind: str, phase: Phase, n_in: int, n_out: int) -> Diagram:
    """A single Z or X spider with boundary wires."""
    d = Diagram()
    s = d.add_spider(kind, phase)
    for _ in range(n_in):
        d.add_edge(d.add_input(), s)
    for _ in range(n_out):
        d.add_edge(d.add_output(), s)
    return d


def make_hbox(label: Optional[ExactScalar], n_in: int, n_out: int) -> Diagram:
    """A single H-box with the given label (default -1) and boundary wires."""
    d = Diagram()
    h = d.add_h(label)
    for _ in range(n_in):
        d.add_edge(d.add_input(), h)
    for _ in range(n_out):
        d.add_edge(d.add_output(), h)
    return d


def identity_diagram(n: int) -> Diagram:
    """n parallel wires."""
    d = Diagram()
    for _ in range(n):
        d.add_edge(d.add_input(), d.add_output())
    return d


# -- composition ----------------------------------------------------------


def _merge_into(dst: Diagram, src: Diagram) -> dict[int, int]:
    """Copy src's structure into dst; returns old->new id map. Scalar included."""
    vmap: dict[int, int] = {}
    for v, data in src.vertices.items():
        vmap[v] = dst._add_vertex(data)
    for a, b in src.edges:
        dst.add_edge(vmap[a], vmap[b])
    dst.scalar = dst.scalar * src.scalar
    return vmap


def _sole_edge(d: Diagram, v: int) -> tuple[int, int]:
    """The unique edge incident to a degree-1 vertex, as (index, other_end)."""
    hits = [(i, b if a == v else a) for i, (a, b) in enumerate(d.edges) if a == v or b == v]
    if len(hits) != 1:
        raise ValueError(f"vertex {v} is not degree-1")
    return hits[0]


def compose_seq(d1: Diagram, d2: Diagram) -> Diagram:
    """Sequential composition: outputs of d1 plugged into inputs of d2."""
    if len(d1.outputs) != len(d2.inputs):
        raise ValueError(
            f"cannot compose: {len(d1.outputs)} outputs vs {len(d2.inputs)} inputs"
        )
    out = Diagram()
    m1 = _merge_into(out, d1)
    m2 = _merge_into(out, d2)
    for o, i in zip(d1.outputs, d2.inputs):
        vo, vi = m1[o], m2[i]
        ei, a = _sole_edge(out, vo)
        del out.edges[ei]
        if a == vi:
            # Earlier joins already wired these two boundaries together, so
            # plugging them closes a bare loop of wire: a circle, value 2.
            del out.vertices[vo]
            del out.vertices[vi]
            out.mul_scalar(ExactScalar(2))
            continue
        ej, b = _sole_edge(out, vi)
        del out.edges[ej]
        del out.vertices[vo]
        del out.vertices[vi]
        out.add_edge(a, b)
    out.inputs = [m1[v] for v in d1.inputs]
    out.outputs = [m2[v] for v in d2.outputs]
    return out


def compose_par(d1: Diagram, d2: Diagram) -> Diagram:
    """Parallel (tensor) composition; d1's wires come first."""
    out = Diagram()
    m1 = _merge_into(out, d1)
    m2 = _merge_into(out, d2)
    out.inputs = [m1[v] for v in d1.inputs] + [m2[v] for v in d2.inputs]
    out.outputs = [m1[v] for v in d1.outputs] + [m2[v] for v in d2.outputs]
    return out


# -- serialization --------------------------------------------------------

_SCHEMA_VERSION = 1
_NO_PHASE = {"num": 0, "den": 1}


def _record_tail(data: VertexData) -> str:
    """A vertex record's text after its id, from the comma on, indented as
    an entry of the top-level ``"vertices"`` list."""
    entry: dict = {"kind": data.kind}
    if data.kind in (Z, X):
        if isinstance(data.phase, (Fraction, int)):  # the types pi_quarters reads exactly
            entry["phase"] = {"num": data.phase.numerator, "den": data.phase.denominator}
        else:
            entry["phase"] = {"float": float(data.phase)}
    elif data.kind == H:
        entry["label"] = data.label.serialize()
    return "," + json.dumps(entry, indent=2)[1:].replace("\n", "\n    ")


def _list(items: list[str]) -> str:
    """A top-level list of already indented item texts, as ``json.dumps``
    with ``indent=2`` lays it out."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def serialize(d: Diagram) -> str:
    """Canonical JSON text for a diagram: ``json.dumps(doc, indent=2)`` of
    the schema-1 document (version, vertices by id, edges, inputs, outputs,
    scalar), byte for byte.

    The text is assembled line by line rather than by the pure-Python
    indenting encoder: each distinct vertex record's text is made once per
    call and shared by the vertices that have it.
    """
    tails: dict[tuple, str] = {}
    verts = []
    for v in sorted(d.vertices):
        data = d.vertices[v]
        phase = data.phase
        # Fraction(1, 2) == 0.5 and 0.0 == -0.0, but their texts differ.
        key = (data.kind, data.label, type(phase), repr(phase) if type(phase) is float else phase)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = _record_tail(data)
        verts.append(f'    {{\n      "id": {v}{tail}')
    edges = [f"    [\n      {a},\n      {b}\n    ]" for a, b in d.edges]
    return (
        f'{{\n  "version": {_SCHEMA_VERSION},\n  "vertices": {_list(verts)},\n'
        f'  "edges": {_list(edges)},\n  "inputs": {_list([f"    {v}" for v in d.inputs])},\n'
        f'  "outputs": {_list([f"    {v}" for v in d.outputs])},\n'
        f'  "scalar": {json.dumps(d.scalar.serialize())}\n}}'
    )


def _vertex_id(x, what: str) -> int:
    """``x`` if it is a non-negative int (not a bool), else ValueError.  The
    planner keys boundary ports ``~v``, so a negative id would collide."""
    if type(x) is not int or x < 0:
        raise ValueError(f"{what} {x!r} is not a non-negative integer")
    return x


def _field(obj, name: str, where: str):
    """``obj[name]``, else a ValueError naming ``where``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not an object")
    if name not in obj:
        raise ValueError(f'{where} has no "{name}"')
    return obj[name]


def _list_field(obj: dict, name: str) -> list:
    """The top-level list ``obj[name]``, else ValueError."""
    x = _field(obj, name, "diagram")
    if not isinstance(x, list):
        raise ValueError(f'diagram "{name}" is not a list')
    return x


def _record(key: tuple, v: int) -> VertexData:
    """The vertex record of a loader key: ``(kind, num, den, type(num),
    type(den))`` or ``(kind, x, type(x), has num or den)`` for a spider, a
    float ``x`` as its ``hex()``, ``("H", label text)`` or ``("B",)``.  ``v``
    names the first vertex with the key in a ValueError; the types in the
    key keep ``1.0`` or ``true`` from sharing the record of ``1``, so every
    entry is checked alike."""
    kind, *rest = key
    if kind == H:
        if not isinstance(rest[0], str):
            raise ValueError(f'vertex {v} "label" is not a string')
        return VertexData(H, Fraction(0), ExactScalar.deserialize(rest[0]))
    if kind == B:
        return VertexData(B)
    if len(rest) == 3:
        x, t, exact_too = rest
        if exact_too:
            raise ValueError(f'vertex {v} phase has both "float" and "num"/"den"')
        if t is not float and t is not int:  # a bool's type is bool
            raise ValueError(f"vertex {v} float phase {x!r} is not a JSON number")
        try:
            phase = float.fromhex(x) if t is float else float(x)
        except OverflowError:
            phase = math.inf
        if not math.isfinite(phase):
            raise ValueError(f"vertex {v} phase {phase} is not finite")
        return VertexData(kind, phase)
    num, den, *types = rest
    if types != [int, int]:
        raise ValueError(f"vertex {v} phase is not a ratio of integers")
    if den == 0:
        raise ValueError(f"vertex {v} phase {num}/0 has a zero denominator")
    return VertexData(kind, Fraction(num, den))


def from_json_dict(obj: dict) -> Diagram:
    """The diagram of a parsed schema-1 document; ValueError, naming the
    entry at fault, on malformed input.

    Vertices with the same entry, apart from the id, share one immutable
    :class:`VertexData`, so each distinct phase or label is parsed once.
    Vertex ids, edge ends and boundary entries must be non-negative ints; a
    ``float`` phase, a JSON number (not a bool) with no ``num`` or ``den``.
    """
    if not isinstance(obj, dict):
        raise ValueError("diagram JSON must be an object")
    if obj.get("version") != _SCHEMA_VERSION:
        raise ValueError(f"unsupported diagram schema version: {obj.get('version')!r}")
    d = Diagram()
    records: dict[tuple, VertexData] = {}
    for n, entry in enumerate(_list_field(obj, "vertices")):
        # Direct indexing first: _field on every entry makes loading about
        # 1.5 times slower.  On a miss, _field raises, naming the entry.
        try:
            v, kind = entry["id"], entry["kind"]
        except (KeyError, TypeError):
            v = _vertex_id(_field(entry, "id", f"vertex entry {n}"), "vertex id")
            kind = _field(entry, "kind", f"vertex {v}")
        v = _vertex_id(v, "vertex id")
        if kind not in _KINDS:
            raise ValueError(f"vertex {v} has unknown kind {kind!r}")
        if v in d.vertices:
            raise ValueError(f"vertex id {v!r} appears twice")
        if kind in (Z, X):
            p = entry.get("phase", _NO_PHASE)
            if isinstance(p, dict) and "float" in p:
                x = p["float"]
                # float.hex() keeps -0.0 apart from 0.0
                key: tuple = (kind, x.hex() if type(x) is float else x, type(x), "num" in p or "den" in p)
            else:
                try:
                    num, den = p["num"], p["den"]
                except (KeyError, TypeError):
                    num, den = (_field(p, x, f"vertex {v} phase") for x in ("num", "den"))
                key = (kind, num, den, type(num), type(den))
        elif kind == H:
            key = (kind, _field(entry, "label", f"vertex {v}"))
        else:
            key = (kind,)
        try:
            data = records.get(key)
        except TypeError:  # unhashable: a JSON list or object in the key
            raise ValueError(f"vertex {v} has a list or object for a phase number or label") from None
        if data is None:
            data = records[key] = _record(key, v)
        d.vertices[v] = data  # original ids, even if non-contiguous
    d._next_id = max(d.vertices, default=-1) + 1
    for n, e in enumerate(_list_field(obj, "edges")):
        try:
            a, b = e
        except (TypeError, ValueError):
            raise ValueError(f"edge {n} is not a pair of vertex ids") from None
        try:
            d.add_edge(_vertex_id(a, "edge end"), _vertex_id(b, "edge end"))
        except KeyError as exc:
            raise ValueError(f"edge {n} references {exc.args[0]}") from None
    d.inputs = [_vertex_id(v, "boundary entry") for v in _list_field(obj, "inputs")]
    d.outputs = [_vertex_id(v, "boundary entry") for v in _list_field(obj, "outputs")]
    scalar = _field(obj, "scalar", "diagram")
    if not isinstance(scalar, str):
        raise ValueError('diagram "scalar" is not a string')
    d.scalar = ExactScalar.deserialize(scalar)
    d.validate()
    return d


def deserialize(text: str) -> Diagram:
    """Parse a diagram from its JSON text (ValueError on malformed input)."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ValueError(f"malformed diagram JSON: {exc}") from exc
    return from_json_dict(obj)


def to_dot(d: Diagram) -> str:
    """Graphviz rendering of a diagram (for debugging/demos)."""
    lines = ["graph zxh {", "  node [fontsize=10];"]
    for v in sorted(d.vertices):
        data = d.vertices[v]
        if data.kind in (Z, X):
            fill = "#ccffcc" if data.kind == Z else "#ffcccc"
            attrs = f'shape=circle style=filled fillcolor="{fill}" label="{data.phase}"'
        elif data.kind == H:
            attrs = 'shape=box style=filled fillcolor="#ffffcc" label="H"'
        else:
            role = "in" if v in d.inputs else ("out" if v in d.outputs else "b")
            attrs = f'shape=point xlabel="{role}{v}"'
        lines.append(f"  v{v} [{attrs}];")
    for a, b in d.edges:
        lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines)
