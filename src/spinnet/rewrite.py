"""Diagram rewrite rules with derived (never transcribed) scalars.

Each rule is local surgery on a diagram together with a global scalar
factor, written once as four parts: a local matcher, an in-place applier
that does the surgery and returns the key of its scalar (the rule name and
its parameters, or None for a scalar-free rule), ``lhs(*params)``, which
builds a standalone left-hand-side instance and its site, and
``sample(rng)``, which draws parameters for the soundness trials.  Scalars
are *derived*: for a key, the rule's own applier rewrites the instance
``lhs(*key[1:])``, both sides are evaluated exactly, and the unique ratio is
frozen in a cache (:func:`derived_scalar_table`).  The derivation raises if
the site does not match, if the applier reports another key or if the two
sides are not proportional, so no unsound rule can ship.

Shipped rules (names are stable API):

* ``fuse``          -- merge two adjacent same-colour spiders (phases add).
* ``remove-wire``   -- delete a self-loop on a spider.
* ``identity``      -- drop a phase-free arity-2 spider.
* ``hh-cancel``     -- cancel two adjacent arity-2 H(-1) boxes (x2).
* ``hopf``          -- disconnect a doubly-connected Z/X pair (x1/2).
* ``copy``          -- copy a basis state through an opposite-colour spider.
* ``pi-copy``       -- push an arity-2 pi-spider through an opposite-colour
  spider, negating its phase.
* ``bialgebra``     -- replace a connected phase-free Z/X pair by the
  complete bipartite form.
* ``color-change``  -- turn an X spider into a Z spider with an H-box on
  every leg.
* ``absorb``        -- absorb an X(pi) state into an H-box leg (x sqrt(2)).
* ``explode``       -- absorb a Z(0) state into an H-box leg, halving the
  label offset (x2, label (1+a)/2).
* ``zh-relations``  -- expand an arity-2 H(-1) box into its Euler chain
  Z(pi/2) X(pi/2) Z(pi/2).

Rules rewrite a private mutable working form (:class:`_Work`) in place: the
vertex dict, the edges in a dict keyed by a monotone edge id, and per-vertex
incidence.  Removing an edge deletes its key, rewiring one assigns to its
key and a new edge takes the next id, so the dict keeps the order of the
diagram's edge list.  A matcher returns the sites anchored at one vertex
(every site has exactly one anchor, and depends only on its anchor, the
anchor's edges and the anchor's neighbours); an applier edits the working
form through a few primitives that record the vertices they touch.

:func:`find_matches` is the sorted union of the local sites and
:func:`apply_rule` copies, applies in place, multiplies in the scalar and
exports.  :func:`simplify` builds the working form once and keeps a heap of
the valid sites of each rule; after a step it re-examines only the touched
vertices and their neighbours, and drops stale heap entries as it pops
them, so a step costs O(degree * log) instead of O(V+E).  Inside the engine
a ``remove-wire`` site names its self-loop by edge id; outside it, by its
index in the edge list.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .exact import ExactScalar
from .graph import Diagram, H, VertexData, X, Z, compose_par, normalize_phase
from .tensor import eval_diagram

__all__ = [
    "RewriteRule",
    "RewriteTrace",
    "RULES",
    "find_matches",
    "apply_rule",
    "simplify",
    "check_rule_soundness",
    "derived_scalar_table",
    "DEFAULT_SIMPLIFY_RULES",
]

_PI = Fraction(1)
_HALF = Fraction(1, 2)
_ONE = ExactScalar.one()
_MINUS_ONE = ExactScalar(-1)
_SPIDERS = (Z, X)


@dataclass
class RewriteRule:
    """One rule's four parts, as the module docstring describes them."""

    name: str
    match_at: Callable[["_Work", int], list[tuple]]
    apply_at: Callable[["_Work", tuple], Optional[tuple]]
    lhs: Callable[..., tuple[Diagram, tuple]]
    sample: Callable[[random.Random], tuple]


@dataclass
class RewriteTrace:
    steps: list[tuple[str, tuple]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)


# -- derived scalar cache -------------------------------------------------

_SCALAR_CACHE: dict[tuple, ExactScalar] = {}


def _derive_scalar(rule: RewriteRule, key: tuple) -> ExactScalar:
    """The unique c with eval(lhs) = c * eval(rhs), where lhs is the rule's
    instance ``rule.lhs(*key[1:])`` and rhs is what the rule's own applier
    makes of it; cached per key."""
    if key in _SCALAR_CACHE:
        return _SCALAR_CACHE[key]
    lhs, site = rule.lhs(*key[1:])
    w = _Work(lhs)
    if site not in _all_sites(w, rule):
        raise ValueError(f"cannot derive scalar for {key}: {site} is not a {rule.name!r} site of its instance")
    reported = rule.apply_at(w, site)
    if reported != key:
        raise ValueError(f"cannot derive scalar for {key}: the applier reports {reported}")
    tl, tr = eval_diagram(lhs).data, eval_diagram(w.export()).data
    if tl.shape != tr.shape:
        raise ValueError(f"rule sides not proportional for {key}: shapes {tl.shape} and {tr.shape}")
    tl, tr = tl.reshape(-1), tr.reshape(-1)
    zero = ExactScalar.zero()
    c = next((a / b for a, b in zip(tl, tr) if b != zero), None)
    if c is None:
        if any(a != zero for a in tl):
            raise ValueError(f"cannot derive scalar for {key}: right side vanishes")
        c = _ONE  # both sides identically zero: any scalar is sound
    if any(a != c * b for a, b in zip(tl, tr)):
        raise ValueError(f"rule sides not proportional for {key}")
    _SCALAR_CACHE[key] = c
    return c


def derived_scalar_table() -> dict[str, str]:
    """All scalars derived so far, keyed by rule/parameter signature."""
    return {repr(k): v.serialize() for k, v in sorted(_SCALAR_CACHE.items(), key=lambda kv: repr(kv[0]))}


# -- the working form -----------------------------------------------------


class _Work:
    """A copy of a diagram that rules rewrite in place.

    ``edges`` maps a monotone edge id to its ends; ``inc[v]`` maps the id of
    each edge at v to its other end (a self-loop has one entry) and
    ``deg[v]`` counts a self-loop twice.  The primitives below are the only
    mutators, and each adds the vertices whose record or incidence it
    changes to ``touched``."""

    def __init__(self, d: Diagram) -> None:
        # Holds the vertices, boundaries and scalar; its edge list is stale
        # until export.
        self.diagram = d.copy()
        self.vertices = self.diagram.vertices
        self.edges: dict[int, tuple[int, int]] = dict(enumerate(d.edges))
        self.inc: dict[int, dict[int, int]] = {v: {} for v in self.vertices}
        self.deg = dict.fromkeys(self.vertices, 0)
        for e, (a, b) in self.edges.items():
            self.inc[a][e] = b
            self.inc[b][e] = a
            self.deg[a] += 1
            self.deg[b] += 1
        self.next_edge = len(self.edges)
        self.touched: set[int] = set()

    # -- queries ----------------------------------------------------------

    def others(self, v: int, skip: Optional[int] = None) -> list[int]:
        """The other ends of v's edges in edge order, leaving out ``skip``
        (a self-loop is listed once)."""
        return [n for _e, n in sorted(self.inc[v].items()) if n != skip]

    def looped(self, v: int) -> bool:
        return self.deg[v] > len(self.inc[v])

    def index(self, e: int) -> int:
        """Edge e's position in the exported edge list."""
        return list(self.edges).index(e)

    # -- primitives -------------------------------------------------------

    def _register(self, v: int) -> int:
        self.inc[v] = {}
        self.deg[v] = 0
        self.touched.add(v)
        return v

    def add_spider(self, kind: str, phase=Fraction(0)) -> int:
        return self._register(_add_spider(self.diagram, kind, phase))

    def add_h(self) -> int:
        return self._register(self.diagram.add_h())

    def replace(self, v: int, data: VertexData) -> None:
        self.vertices[v] = data
        self.touched.add(v)

    def remove_vertex(self, v: int) -> None:
        for e in list(self.inc[v]):
            self.remove_edge(e)
        del self.vertices[v], self.inc[v], self.deg[v]
        self.touched.add(v)

    def _attach(self, e: int, a: int, b: int) -> None:
        self.inc[a][e] = b
        self.inc[b][e] = a
        self.deg[a] += 1
        self.deg[b] += 1
        self.touched.add(a)
        self.touched.add(b)

    def _detach(self, e: int, a: int, b: int) -> None:
        del self.inc[a][e]
        self.inc[b].pop(e, None)  # already gone if e is a self-loop
        self.deg[a] -= 1
        self.deg[b] -= 1
        self.touched.add(a)
        self.touched.add(b)

    def add_edge(self, a: int, b: int) -> None:
        e = self.next_edge
        self.next_edge += 1
        self.edges[e] = (a, b)
        self._attach(e, a, b)

    def remove_edge(self, e: int) -> None:
        self._detach(e, *self.edges.pop(e))

    def rewire(self, e: int, old: int, new: int) -> None:
        """Move edge e's end(s) at ``old`` to ``new``, keeping its place in
        the edge order and its orientation."""
        a, b = self.edges[e]
        self._detach(e, a, b)
        a, b = (new if a == old else a), (new if b == old else b)
        self.edges[e] = (a, b)
        self._attach(e, a, b)

    def export(self) -> Diagram:
        """The rewritten diagram; the working form is spent."""
        self.diagram.edges = list(self.edges.values())
        return self.diagram


# -- small helpers --------------------------------------------------------

_OTHER = {Z: X, X: Z}


def _pi_multiple(phase) -> Optional[int]:
    """0 or 1 for an exact phase that is an even or odd multiple of pi,
    None for any other phase."""
    if isinstance(phase, Fraction):
        return phase.numerator % 2 if phase.denominator == 1 else None
    if isinstance(phase, int):
        return phase % 2
    return None


def _plain_hadamard_box(w: _Work, v: int) -> bool:
    """An arity-2 H-box labelled -1."""
    data = w.vertices[v]
    return data.kind == H and w.deg[v] == 2 and data.label == _MINUS_ONE


def _sole_neighbour(w: _Work, v: int) -> Optional[int]:
    """The other end of a degree-1 vertex's edge, None at any other degree."""
    if w.deg[v] != 1:
        return None
    (n,) = w.inc[v].values()
    return n


def _add_spider(d: Diagram, kind: str, phase=Fraction(0)) -> int:
    return d.add_z(phase) if kind == Z else d.add_x(phase)


def _add_outputs(d: Diagram, v: int, legs: int) -> None:
    for _ in range(legs):
        d.add_edge(v, d.add_output())


# -- rule: fuse -----------------------------------------------------------


def _m_fuse(w: _Work, v: int) -> list[tuple]:
    # Anchored at the smaller id.
    verts = w.vertices
    kind = verts[v].kind
    if kind not in _SPIDERS:
        return []
    return [(v, n) for n in set(w.inc[v].values()) if n > v and verts[n].kind == kind]


def _a_fuse(w: _Work, site: tuple) -> None:
    u, v = site
    pu, pv = w.vertices[u].phase, w.vertices[v].phase
    w.replace(u, VertexData(w.vertices[u].kind, normalize_phase(pu + pv)))
    # The fused connections and every resulting self-loop go (scalar-free);
    # v's other edges move to u in place.
    for e, n in list(w.inc[v].items()):
        if n == u or n == v:
            w.remove_edge(e)
        else:
            w.rewire(e, v, u)
    for e, n in list(w.inc[u].items()):
        if n == u:
            w.remove_edge(e)
    w.remove_vertex(v)


def _lhs_fuse(kind: str, p1, p2, links: int, a_ends: tuple, b_ends: tuple) -> tuple[Diagram, tuple]:
    """Two spiders joined by ``links`` edges; each flag of ``a_ends`` and
    ``b_ends`` adds a leg to an output (True) or an input (False)."""
    d = Diagram()
    a, b = _add_spider(d, kind, p1), _add_spider(d, kind, p2)
    for _ in range(links):
        d.add_edge(a, b)
    for v, ends in ((a, a_ends), (b, b_ends)):
        for to_output in ends:
            d.add_edge(v, d.add_output() if to_output else d.add_input())
    return d, (a, b)


def _sample_fuse(rng: random.Random) -> tuple:
    kind = rng.choice((Z, X))
    p1, p2 = (Fraction(rng.randrange(4), 2) for _ in range(2))
    links = rng.choice((1, 1, 2))
    a_ends, b_ends = (tuple(rng.random() < 0.7 for _ in range(rng.randrange(1, 3))) for _ in range(2))
    return kind, p1, p2, links, a_ends, b_ends


# -- rule: remove-wire ----------------------------------------------------


def _m_remove_wire(w: _Work, v: int) -> list[tuple]:
    if w.vertices[v].kind not in _SPIDERS:
        return []
    return [(e, v) for e, n in w.inc[v].items() if n == v]


def _a_remove_wire(w: _Work, site: tuple) -> None:
    w.remove_edge(site[0])


def _lhs_remove_wire(kind: str, ph, legs: int) -> tuple[Diagram, tuple]:
    d = Diagram()
    v = _add_spider(d, kind, ph)
    d.add_edge(v, v)
    _add_outputs(d, v, legs)
    return d, (0, v)


def _sample_kind_phase_legs(rng: random.Random) -> tuple:
    """A spider colour, a phase and one or two legs (remove-wire, pi-copy)."""
    return rng.choice((Z, X)), Fraction(rng.randrange(4), 2), rng.randrange(1, 3)


# -- rule: identity -------------------------------------------------------


def _m_identity(w: _Work, v: int) -> list[tuple]:
    data = w.vertices[v]
    # Two incidence entries at degree 2 means no self-loop.
    if (
        data.kind in _SPIDERS
        and w.deg[v] == 2
        and len(w.inc[v]) == 2
        and _pi_multiple(data.phase) == 0
    ):
        return [(v,)]
    return []


def _a_identity(w: _Work, site: tuple) -> None:
    (v,) = site
    a, b = w.others(v)
    w.remove_vertex(v)
    w.add_edge(a, b)


def _lhs_identity(kind: str) -> tuple[Diagram, tuple]:
    d = Diagram()
    v = _add_spider(d, kind)
    d.add_edge(v, d.add_input())
    d.add_edge(v, d.add_output())
    return d, (v,)


def _sample_identity(rng: random.Random) -> tuple:
    return (Z if rng.random() < 0.5 else X,)


# -- rule: hh-cancel ------------------------------------------------------


def _m_hh_cancel(w: _Work, v: int) -> list[tuple]:
    # Anchored at the smaller id.
    if not _plain_hadamard_box(w, v):
        return []
    return [(v, n) for n in set(w.inc[v].values()) if n > v and _plain_hadamard_box(w, n)]


def _a_hh_cancel(w: _Work, site: tuple) -> tuple:
    u, v = site
    # Empty for a closed pair (trace(H.H) = 4), else the two outer ends.
    ends = w.others(u, v) + w.others(v, u)
    w.remove_vertex(u)
    w.remove_vertex(v)
    if not ends:
        return ("hh-cancel", "closed")
    w.add_edge(*ends)
    return ("hh-cancel", "open")


def _lhs_hh_cancel(shape: str) -> tuple[Diagram, tuple]:
    """A "closed" pair of boxes joined twice, or an "open" one on a wire."""
    d = Diagram()
    u, v = d.add_h(), d.add_h()
    d.add_edge(u, v)
    if shape == "closed":
        d.add_edge(u, v)
    else:
        d.add_edge(u, d.add_input())
        d.add_edge(v, d.add_output())
    return d, (u, v)


def _sample_hh_cancel(rng: random.Random) -> tuple:
    return ("closed" if rng.random() < 0.2 else "open",)


# -- rule: hopf -----------------------------------------------------------


def _m_hopf(w: _Work, z: int) -> list[tuple]:
    # Anchored at the Z spider.
    if w.vertices[z].kind != Z:
        return []
    links = Counter(w.inc[z].values())
    return [
        (z, x) if z < x else (x, z)
        for x, n in links.items()
        if n == 2 and w.vertices[x].kind == X
    ]


def _a_hopf(w: _Work, site: tuple) -> tuple:
    u, v = site
    for e in [e for e, n in w.inc[u].items() if n == v]:
        w.remove_edge(e)
    return ("hopf",)


def _lhs_hopf(pz=Fraction(0), px=Fraction(0)) -> tuple[Diagram, tuple]:
    # The phases stay on the spiders, so the scalar does not depend on them.
    d = Diagram()
    z, x = d.add_z(pz), d.add_x(px)
    d.add_edge(z, x)
    d.add_edge(z, x)
    d.add_edge(z, d.add_input())
    d.add_edge(x, d.add_output())
    return d, (z, x)


def _sample_hopf(rng: random.Random) -> tuple:
    return tuple(Fraction(rng.randrange(4), 2) for _ in range(2))


# -- rule: copy -----------------------------------------------------------


def _m_copy(w: _Work, v: int) -> list[tuple]:
    data = w.vertices[v]
    if data.kind not in _SPIDERS or _pi_multiple(data.phase) is None:
        return []
    n = _sole_neighbour(w, v)
    if n is None:
        return []
    nd = w.vertices[n]
    if (
        nd.kind in _SPIDERS
        and nd.kind != data.kind
        and _pi_multiple(nd.phase) == 0
        and not w.looped(n)
    ):
        return [(v, n)]
    return []


def _a_copy(w: _Work, site: tuple) -> tuple:
    v, t = site
    others = w.others(t, v)
    kind = w.vertices[v].kind
    ph = Fraction(w.vertices[v].phase) % 2
    w.remove_vertex(v)
    w.remove_vertex(t)
    for n in others:
        w.add_edge(w.add_spider(kind, ph), n)
    return ("copy", kind, ph, len(others))


def _lhs_copy(kind: str, ph, legs: int) -> tuple[Diagram, tuple]:
    d = Diagram()
    s = _add_spider(d, kind, ph)
    t = _add_spider(d, _OTHER[kind])
    d.add_edge(s, t)
    _add_outputs(d, t, legs)
    return d, (s, t)


def _sample_copy(rng: random.Random) -> tuple:
    return rng.choice((Z, X)), Fraction(rng.choice((0, 1))), rng.randrange(1, 4)


# -- rule: pi-copy --------------------------------------------------------


def _m_pi_copy(w: _Work, v: int) -> list[tuple]:
    data = w.vertices[v]
    if data.kind not in _SPIDERS or w.deg[v] != 2 or _pi_multiple(data.phase) != 1:
        return []
    ends = list(w.inc[v].values())
    if len(ends) != 2 or ends[0] == ends[1]:
        return []  # a self-loop, or a double edge to one neighbour
    out = []
    for n in ends:
        nd = w.vertices[n]
        if (
            nd.kind in _SPIDERS
            and nd.kind != data.kind
            and isinstance(nd.phase, (int, Fraction))
            and not w.looped(n)
        ):
            out.append((v, n))
    return out


def _a_pi_copy(w: _Work, site: tuple) -> tuple:
    v, t = site
    (n_outer,) = w.others(v, t)
    others = w.others(t, v)
    kind = w.vertices[v].kind  # colour of the pi spider
    ph = Fraction(w.vertices[t].phase) % 2
    w.remove_vertex(v)
    w.remove_vertex(t)
    sp2 = w.add_spider(_OTHER[kind], -ph)
    w.add_edge(n_outer, sp2)
    for n in others:
        p = w.add_spider(kind, _PI)
        w.add_edge(sp2, p)
        w.add_edge(p, n)
    return ("pi-copy", kind, ph, len(others))


def _lhs_pi_copy(kind: str, ph, legs: int) -> tuple[Diagram, tuple]:
    d = Diagram()
    pi_sp = _add_spider(d, kind, _PI)
    sp = _add_spider(d, _OTHER[kind], ph)
    d.add_edge(d.add_input(), pi_sp)
    d.add_edge(pi_sp, sp)
    _add_outputs(d, sp, legs)
    return d, (pi_sp, sp)


# -- rule: bialgebra ------------------------------------------------------


def _m_bialgebra(w: _Work, z: int) -> list[tuple]:
    # Anchored at the Z spider; self-loops on the pair are left to
    # remove-wire.
    data = w.vertices[z]
    if data.kind != Z or _pi_multiple(data.phase) != 0 or w.looped(z):
        return []
    out = []
    for x, n in Counter(w.inc[z].values()).items():
        xd = w.vertices[x]
        if n == 1 and xd.kind == X and _pi_multiple(xd.phase) == 0 and not w.looped(x):
            out.append((z, x))
    return out


def _a_bialgebra(w: _Work, site: tuple) -> tuple:
    z, x = site
    z_others = w.others(z, x)
    x_others = w.others(x, z)
    w.remove_vertex(z)
    w.remove_vertex(x)
    new_x = []
    for nb in z_others:
        xv = w.add_spider(X)
        w.add_edge(nb, xv)
        new_x.append(xv)
    new_z = []
    for nb in x_others:
        zv = w.add_spider(Z)
        w.add_edge(zv, nb)
        new_z.append(zv)
    for xv in new_x:
        for zv in new_z:
            w.add_edge(xv, zv)
    return ("bialgebra", len(z_others), len(x_others))


def _lhs_bialgebra(m: int, n: int) -> tuple[Diagram, tuple]:
    d = Diagram()
    z, x = d.add_z(), d.add_x()
    d.add_edge(z, x)
    for _ in range(m):
        d.add_edge(d.add_input(), z)
    _add_outputs(d, x, n)
    return d, (z, x)


def _sample_bialgebra(rng: random.Random) -> tuple:
    return rng.randrange(1, 3), rng.randrange(1, 3)


# -- rule: color-change ---------------------------------------------------


def _m_color_change(w: _Work, v: int) -> list[tuple]:
    return [(v,)] if w.vertices[v].kind == X and not w.looped(v) else []


def _a_color_change(w: _Work, site: tuple) -> tuple:
    (v,) = site
    ends = w.others(v)
    ph = w.vertices[v].phase
    w.remove_vertex(v)
    z = w.add_spider(Z, ph)
    for nb in ends:
        h = w.add_h()
        w.add_edge(z, h)
        w.add_edge(h, nb)
    # The phase stays on the spider: a float phase shares the scalar of 0.
    key_ph = Fraction(ph) % 2 if isinstance(ph, (int, Fraction)) else Fraction(0)
    return ("color-change", key_ph, len(ends))


def _lhs_color_change(ph, legs: int) -> tuple[Diagram, tuple]:
    d = Diagram()
    v = d.add_x(ph)
    _add_outputs(d, v, legs)
    return d, (v,)


def _sample_color_change(rng: random.Random) -> tuple:
    return Fraction(rng.randrange(4), 2), rng.randrange(1, 4)


# -- rule: absorb ---------------------------------------------------------


def _m_absorb(w: _Work, v: int) -> list[tuple]:
    # X basis states: X(pi) = sqrt(2)|1> selects the box's all-ones slice
    # (label kept); X(0) = sqrt(2)|0> selects the all-ones-free slice
    # (label becomes 1).
    data = w.vertices[v]
    if data.kind != X or _pi_multiple(data.phase) is None:
        return []
    n = _sole_neighbour(w, v)
    return [(v, n)] if n is not None and w.vertices[n].kind == H else []


def _a_absorb(w: _Work, site: tuple) -> tuple:
    v, h = site
    ph = Fraction(w.vertices[v].phase) % 2
    label = w.vertices[h].label
    legs = w.deg[h] - 1
    w.remove_vertex(v)
    if ph == 0:
        w.replace(h, VertexData(H, Fraction(0), ExactScalar.one()))
    return ("absorb", ph, label, legs)


def _lhs_absorb(ph, label: ExactScalar, legs: int) -> tuple[Diagram, tuple]:
    d = Diagram()
    h = d.add_h(label)
    s = d.add_x(ph)
    d.add_edge(s, h)
    _add_outputs(d, h, legs)
    return d, (s, h)


def _sample_absorb(rng: random.Random) -> tuple:
    return (_PI if rng.random() < 0.5 else Fraction(0)), _MINUS_ONE, rng.randrange(1, 3)


# -- rule: explode --------------------------------------------------------


def _m_explode(w: _Work, v: int) -> list[tuple]:
    # Two shapes: a Z(0) state halves an H-box label offset; a label-1
    # H-box is the all-ones tensor and splits into per-leg Z(0) states.
    data = w.vertices[v]
    if data.kind == H:
        return [(-1, v)] if data.label == _ONE and not w.looped(v) else []
    if data.kind != Z or _pi_multiple(data.phase) != 0:
        return []
    n = _sole_neighbour(w, v)
    return [(v, n)] if n is not None and w.vertices[n].kind == H else []


def _a_explode(w: _Work, site: tuple) -> tuple:
    v, h = site
    if v == -1:
        ends = w.others(h)
        w.remove_vertex(h)
        for nb in ends:
            w.add_edge(w.add_spider(Z), nb)
        return ("explode", "split", len(ends))
    label = w.vertices[h].label
    legs = w.deg[h] - 1
    w.remove_vertex(v)
    new_label = (ExactScalar.one() + label) * ExactScalar(Fraction(1, 2))
    w.replace(h, VertexData(H, Fraction(0), new_label))
    return ("explode", label, legs)


def _lhs_explode(shape, legs: int) -> tuple[Diagram, tuple]:
    """``shape`` is "split" (a label-1 box) or the label of a box with a
    Z(0) state."""
    d = Diagram()
    if isinstance(shape, str):
        h = d.add_h(_ONE)
        _add_outputs(d, h, legs)
        return d, (-1, h)
    h = d.add_h(shape)
    s = d.add_z()
    d.add_edge(s, h)
    _add_outputs(d, h, legs)
    return d, (s, h)


def _sample_explode(rng: random.Random) -> tuple:
    if rng.random() < 0.3:
        return "split", rng.randrange(1, 4)
    return _MINUS_ONE, rng.randrange(1, 3)


# -- rule: zh-relations ---------------------------------------------------


def _m_zh(w: _Work, v: int) -> list[tuple]:
    return [(v,)] if _plain_hadamard_box(w, v) and not w.looped(v) else []


def _a_zh(w: _Work, site: tuple) -> tuple:
    (v,) = site
    a, b = w.others(v)
    w.remove_vertex(v)
    first = w.add_spider(Z, _HALF)
    middle = w.add_spider(X, _HALF)
    last = w.add_spider(Z, _HALF)
    w.add_edge(first, middle)
    w.add_edge(middle, last)
    w.add_edge(a, first)
    w.add_edge(last, b)
    return ("zh-relations",)


def _lhs_zh() -> tuple[Diagram, tuple]:
    d = Diagram()
    h = d.add_h()
    d.add_edge(d.add_input(), h)
    d.add_edge(h, d.add_output())
    return d, (h,)


def _sample_zh(rng: random.Random) -> tuple:
    return ()


# -- registry -------------------------------------------------------------

RULES: dict[str, RewriteRule] = {
    r.name: r
    for r in [
        RewriteRule("fuse", _m_fuse, _a_fuse, _lhs_fuse, _sample_fuse),
        RewriteRule("remove-wire", _m_remove_wire, _a_remove_wire, _lhs_remove_wire, _sample_kind_phase_legs),
        RewriteRule("identity", _m_identity, _a_identity, _lhs_identity, _sample_identity),
        RewriteRule("hh-cancel", _m_hh_cancel, _a_hh_cancel, _lhs_hh_cancel, _sample_hh_cancel),
        RewriteRule("hopf", _m_hopf, _a_hopf, _lhs_hopf, _sample_hopf),
        RewriteRule("copy", _m_copy, _a_copy, _lhs_copy, _sample_copy),
        RewriteRule("pi-copy", _m_pi_copy, _a_pi_copy, _lhs_pi_copy, _sample_kind_phase_legs),
        RewriteRule("bialgebra", _m_bialgebra, _a_bialgebra, _lhs_bialgebra, _sample_bialgebra),
        RewriteRule("color-change", _m_color_change, _a_color_change, _lhs_color_change, _sample_color_change),
        RewriteRule("absorb", _m_absorb, _a_absorb, _lhs_absorb, _sample_absorb),
        RewriteRule("explode", _m_explode, _a_explode, _lhs_explode, _sample_explode),
        RewriteRule("zh-relations", _m_zh, _a_zh, _lhs_zh, _sample_zh),
    ]
}

DEFAULT_SIMPLIFY_RULES = ("fuse", "remove-wire", "identity", "hh-cancel")


def _rule(name: str) -> RewriteRule:
    if name not in RULES:
        raise KeyError(f"unknown rule {name!r}")
    return RULES[name]


def _all_sites(w: _Work, rule: RewriteRule) -> list[tuple]:
    """Every site of a rule, sorted.  On a freshly built working form edge
    ids are edge-list indices, so the sites are the public ones."""
    match_at = rule.match_at
    return sorted(s for v in w.vertices for s in match_at(w, v))


def find_matches(d: Diagram, rule: str) -> list[tuple]:
    """All match sites of a rule, deterministically ordered."""
    return _all_sites(_Work(d), _rule(rule))


def _apply(w: _Work, rule: RewriteRule, site: tuple) -> None:
    """Rewrite one site in place and multiply in the rule's scalar."""
    key = rule.apply_at(w, site)
    if key is not None:
        w.diagram.mul_scalar(_derive_scalar(rule, key))


def apply_rule(d: Diagram, rule: str, site: Optional[tuple] = None) -> Diagram:
    """Apply one rule instance (first match if no site given)."""
    r = _rule(rule)
    w = _Work(d)
    matches = _all_sites(w, r)
    if site is None:
        if not matches:
            raise ValueError(f"no match for rule {rule!r}")
        site = matches[0]
    elif site not in matches:
        raise ValueError(f"{site} is not a valid match site for {rule!r}")
    _apply(w, r, site)
    return w.export()


class _Sites:
    """The valid sites of one rule on a working form: the sites found at
    each anchor, their union, and a heap holding every valid site (and
    possibly stale ones, dropped when they reach the top)."""

    def __init__(self, rule: RewriteRule, w: _Work) -> None:
        self.rule = rule
        self.at: dict[int, list[tuple]] = {}
        self.valid: set[tuple] = set()
        self.heap: list[tuple] = []
        self.examine(w, w.vertices)

    def examine(self, w: _Work, region: Iterable[int]) -> None:
        """Recompute the sites anchored at each vertex of ``region``."""
        at, valid, heap, match_at = self.at, self.valid, self.heap, self.rule.match_at
        verts = w.vertices
        for v in region:
            old = at.pop(v, ())
            if old:
                valid.difference_update(old)
            if v not in verts:
                continue
            new = match_at(w, v)
            if new:
                at[v] = new
                valid.update(new)
                for s in new:
                    if s not in old:
                        heapq.heappush(heap, s)

    def first(self) -> Optional[tuple]:
        heap, valid = self.heap, self.valid
        while heap and heap[0] not in valid:
            heapq.heappop(heap)
        return heap[0] if heap else None


def simplify(
    d: Diagram,
    rules: Optional[tuple[str, ...]] = None,
    max_steps: int = 10000,
) -> tuple[Diagram, RewriteTrace]:
    """Greedy fixpoint rewriting with the given ruleset (default: the
    terminating set fuse / remove-wire / identity / hh-cancel).  Each step
    applies the first site of the first rule in ``rules`` that has one; the
    input is left untouched."""
    if rules is None:
        rules = DEFAULT_SIMPLIFY_RULES
    w = _Work(d)
    tables = [_Sites(_rule(r), w) for r in rules]
    trace = RewriteTrace()
    for _ in range(max_steps):
        for t in tables:
            site = t.first()
            if site is not None:
                break
        else:
            return w.export(), trace
        rule = t.rule
        trace.steps.append(
            (rule.name, (w.index(site[0]), site[1]) if rule.name == "remove-wire" else site)
        )
        w.touched = set()
        _apply(w, rule, site)
        region = set(w.touched)
        for v in w.touched:
            if v in w.inc:
                region.update(w.inc[v].values())
        for t in tables:
            t.examine(w, region)
    raise RuntimeError("simplify did not reach a fixpoint within max_steps")


def _random_host(rng: random.Random) -> Diagram:
    d = Diagram()
    spiders = []
    for _ in range(rng.randrange(0, 4)):
        kind = rng.choice((Z, X))
        spiders.append(_add_spider(d, kind, Fraction(rng.randrange(4), 2)))
    for v in spiders:
        for _ in range(rng.randrange(0, 3)):
            if spiders and rng.random() < 0.5:
                d.add_edge(v, rng.choice(spiders))
            else:
                d.add_edge(v, d.add_output())
    return d


def check_rule_soundness(rule: str, trials: int = 200, seed: int = 0) -> int:
    """Randomised exact before/after equality trials: each plants a sampled
    instance of the rule's left-hand side beside a random host and rewrites
    a random site.  Returns the number of failing trials (0 means the rule
    is sound on the sampled family)."""
    r = _rule(rule)
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        d = compose_par(_random_host(rng), r.lhs(*r.sample(rng))[0])
        matches = find_matches(d, rule)
        if not matches:
            failures += 1
            continue
        site = matches[rng.randrange(len(matches))]
        before = eval_diagram(d)
        after = eval_diagram(apply_rule(d, rule, site))
        if before.data.shape != after.data.shape or not (before.data == after.data).all():
            failures += 1
    return failures
