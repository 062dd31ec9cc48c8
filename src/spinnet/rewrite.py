"""Diagram rewrite rules with derived (never transcribed) scalars.

Each rule is local surgery on a diagram together with a global scalar
factor.  Scalars are *derived*: for every rule and parameter signature a
minimal standalone instance of the left- and right-hand sides is built and
evaluated exactly, and the unique ratio is frozen in a cache
(:func:`derived_scalar_table`).  If the two sides ever failed to be
proportional the derivation would raise, so no unsound rule can ship.

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

Matching is O(V+E) per call: a matcher makes one pass over the edge list
(:func:`_incidence`) and reads degrees, self-loops and pair multiplicities
from it, and an applier locates the edges it rewires the same way.  Every
applier returns a new diagram (:meth:`Diagram.copy` shares the immutable
vertex records) and leaves its input untouched.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .exact import ExactScalar
from .graph import B, Diagram, H, VertexData, X, Z
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
    "FULL_SIMPLIFY_RULES",
]

_PI = Fraction(1)
_HALF = Fraction(1, 2)
_ONE = ExactScalar.one()
_MINUS_ONE = ExactScalar(-1)
_SPIDERS = (Z, X)


@dataclass
class RewriteRule:
    name: str
    matcher: Callable[[Diagram], list[tuple]]
    applier: Callable[[Diagram, tuple], Diagram]
    # Builds a random standalone-able instance into a host (for soundness
    # trials); returns nothing, mutates the host.
    seeder: Callable[[Diagram, random.Random], None]


@dataclass
class RewriteTrace:
    steps: list[tuple[str, tuple]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)


# -- derived scalar cache -------------------------------------------------

_SCALAR_CACHE: dict[tuple, ExactScalar] = {}


def _derive_scalar(key: tuple, lhs: Diagram, rhs: Diagram) -> ExactScalar:
    """The unique c with eval(lhs) = c * eval(rhs); cached per key."""
    if key in _SCALAR_CACHE:
        return _SCALAR_CACHE[key]
    tl = eval_diagram(lhs).data.reshape(-1)
    tr = eval_diagram(rhs).data.reshape(-1)
    c: Optional[ExactScalar] = None
    for a, b in zip(tl, tr):
        if b != ExactScalar.zero():
            c = a / b
            break
    if c is None:
        # Both sides identically zero: any scalar is sound; use 1.
        if all(a == ExactScalar.zero() for a in tl):
            _SCALAR_CACHE[key] = ExactScalar.one()
            return _SCALAR_CACHE[key]
        raise ValueError(f"cannot derive scalar for {key}: right side vanishes")
    for a, b in zip(tl, tr):
        if a != c * b:
            raise ValueError(f"rule sides not proportional for {key}")
    _SCALAR_CACHE[key] = c
    return c


def derived_scalar_table() -> dict[str, str]:
    """All scalars derived so far, keyed by rule/parameter signature."""
    return {repr(k): v.serialize() for k, v in sorted(_SCALAR_CACHE.items(), key=lambda kv: repr(kv[0]))}


# -- small helpers --------------------------------------------------------


def _incidence(d: Diagram) -> dict[int, list[tuple[int, int]]]:
    """v -> [(edge index, other end), ...] in edge order, from one pass over
    the edges.  A self-loop appears twice, so ``len`` is the degree."""
    inc: dict[int, list[tuple[int, int]]] = {v: [] for v in d.vertices}
    for i, (a, b) in enumerate(d.edges):
        inc[a].append((i, b))
        inc[b].append((i, a))
    return inc


def _self_looped(d: Diagram) -> set[int]:
    """Vertices that carry at least one self-loop."""
    return {a for a, b in d.edges if a == b}


def _pi_multiple(phase) -> Optional[int]:
    """0 or 1 for an exact phase that is an even or odd multiple of pi,
    None for any other phase."""
    if isinstance(phase, Fraction):
        return phase.numerator % 2 if phase.denominator == 1 else None
    if isinstance(phase, int):
        return phase % 2
    return None


def _spider_chain(d: Diagram, phases_kinds: list[tuple[str, Fraction]]) -> tuple[int, int]:
    """Add a chain of spiders; returns (first, last) vertex ids."""
    ids = []
    for kind, ph in phases_kinds:
        ids.append(d.add_z(ph) if kind == Z else d.add_x(ph))
    for a, b in zip(ids, ids[1:]):
        d.add_edge(a, b)
    return ids[0], ids[-1]


def _wire_diagram(n: int) -> Diagram:
    d = Diagram()
    for _ in range(n):
        d.add_edge(d.add_input(), d.add_output())
    return d


def _pattern_spider(kind: str, phase: Fraction, legs: int) -> Diagram:
    d = Diagram()
    s = d.add_z(phase) if kind == Z else d.add_x(phase)
    for _ in range(legs):
        d.add_edge(s, d.add_output())
    return d


# -- rule: fuse -----------------------------------------------------------


def _m_fuse(d: Diagram) -> list[tuple]:
    verts = d.vertices
    out = set()
    for a, b in d.edges:
        if a != b:
            ka = verts[a].kind
            if ka == verts[b].kind and ka in _SPIDERS:
                out.add((a, b) if a < b else (b, a))
    return sorted(out)


def _a_fuse(d: Diagram, site: tuple) -> Diagram:
    u, v = site
    out = d.copy()
    pu, pv = out.vertices[u].phase, out.vertices[v].phase
    out.vertices[u] = VertexData(out.vertices[u].kind, (Fraction(pu) + Fraction(pv)) % 2)
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


def _s_fuse(d: Diagram, rng: random.Random) -> None:
    kind = rng.choice((Z, X))
    p1, p2 = (Fraction(rng.randrange(4), 2) for _ in range(2))
    a = d.add_z(p1) if kind == Z else d.add_x(p1)
    b = d.add_z(p2) if kind == Z else d.add_x(p2)
    for _ in range(rng.choice((1, 1, 2))):
        d.add_edge(a, b)
    for v in (a, b):
        for _ in range(rng.randrange(1, 3)):
            d.add_edge(v, d.add_output() if rng.random() < 0.7 else d.add_input())


# -- rule: remove-wire ----------------------------------------------------


def _m_remove_wire(d: Diagram) -> list[tuple]:
    return sorted(
        (i, a) for i, (a, b) in enumerate(d.edges) if a == b and d.vertices[a].kind in _SPIDERS
    )


def _a_remove_wire(d: Diagram, site: tuple) -> Diagram:
    i, _v = site
    out = d.copy()
    del out.edges[i]
    return out


def _s_remove_wire(d: Diagram, rng: random.Random) -> None:
    kind = rng.choice((Z, X))
    v = d.add_z(Fraction(rng.randrange(4), 2)) if kind == Z else d.add_x(Fraction(rng.randrange(4), 2))
    d.add_edge(v, v)
    for _ in range(rng.randrange(1, 3)):
        d.add_edge(v, d.add_output())


# -- rule: identity -------------------------------------------------------


def _m_identity(d: Diagram) -> list[tuple]:
    inc = _incidence(d)
    out = []
    for v, data in d.vertices.items():
        legs = inc[v]
        # At degree 2 a self-loop is both legs, so checking one leg suffices.
        if (
            len(legs) == 2
            and data.kind in _SPIDERS
            and legs[0][1] != v
            and _pi_multiple(data.phase) == 0
        ):
            out.append((v,))
    return sorted(out)


def _a_identity(d: Diagram, site: tuple) -> Diagram:
    (v,) = site
    ends = [w for _i, w in _incidence(d)[v]]
    out = d.copy()
    out.edges = [(a, b) for a, b in out.edges if v not in (a, b)]
    del out.vertices[v]
    out.add_edge(ends[0], ends[1])
    return out


def _s_identity(d: Diagram, rng: random.Random) -> None:
    v = d.add_z() if rng.random() < 0.5 else d.add_x()
    d.add_edge(v, d.add_input())
    d.add_edge(v, d.add_output())


# -- rule: hh-cancel ------------------------------------------------------


def _plain_hadamard_boxes(d: Diagram) -> set[int]:
    """The arity-2 H-boxes labelled -1."""
    inc = _incidence(d)
    return {
        v for v, data in d.vertices.items()
        if data.kind == H and data.label == _MINUS_ONE and len(inc[v]) == 2
    }


def _m_hh_cancel(d: Diagram) -> list[tuple]:
    plain = _plain_hadamard_boxes(d)
    out = set()
    for a, b in d.edges:
        if a != b and a in plain and b in plain:
            out.add((a, b) if a < b else (b, a))
    return sorted(out)


def _a_hh_cancel(d: Diagram, site: tuple) -> Diagram:
    u, v = site
    inc = _incidence(d)
    out = d.copy()
    links = sum(1 for _i, w in inc[u] if w == v)
    if links == 2:
        # Closed pair: trace(H.H) = 4.
        out.remove_vertex(u)
        out.remove_vertex(v)
        out.mul_scalar(_derive_scalar(("hh-cancel", "closed"), _hh_lhs(2), Diagram()))
        return out
    nu = next(w for _i, w in inc[u] if w != v)
    nv = next(w for _i, w in inc[v] if w != u)
    out.remove_vertex(u)
    out.remove_vertex(v)
    out.add_edge(nu, nv)
    out.mul_scalar(_derive_scalar(("hh-cancel", "open"), _hh_lhs(1), _wire_diagram(1)))
    return out


def _hh_lhs(links: int) -> Diagram:
    d = Diagram()
    u, v = d.add_h(), d.add_h()
    for _ in range(links):
        d.add_edge(u, v)
    if links == 1:
        d.add_edge(d.add_input(), u)
        d.add_edge(v, d.add_output())
    return d


def _s_hh_cancel(d: Diagram, rng: random.Random) -> None:
    u, v = d.add_h(), d.add_h()
    if rng.random() < 0.2:
        d.add_edge(u, v)
        d.add_edge(u, v)
    else:
        d.add_edge(u, v)
        d.add_edge(u, d.add_input())
        d.add_edge(v, d.add_output())


# -- rule: hopf -----------------------------------------------------------


def _m_hopf(d: Diagram) -> list[tuple]:
    inc = _incidence(d)
    out = []
    for z, data in d.vertices.items():
        if data.kind != Z:
            continue
        links = Counter(w for _i, w in inc[z])
        for x, n in links.items():
            if n == 2 and d.vertices[x].kind == X:
                out.append((z, x) if z < x else (x, z))
    return sorted(out)


def _a_hopf(d: Diagram, site: tuple) -> Diagram:
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
    out.mul_scalar(_derive_scalar(("hopf",), _hopf_lhs(), _hopf_rhs()))
    return out


def _hopf_lhs() -> Diagram:
    d = Diagram()
    z, x = d.add_z(), d.add_x()
    d.add_edge(z, x)
    d.add_edge(z, x)
    d.add_edge(d.add_input(), z)
    d.add_edge(x, d.add_output())
    return d


def _hopf_rhs() -> Diagram:
    d = Diagram()
    z, x = d.add_z(), d.add_x()
    d.add_edge(d.add_input(), z)
    d.add_edge(x, d.add_output())
    return d


def _s_hopf(d: Diagram, rng: random.Random) -> None:
    z = d.add_z(Fraction(rng.randrange(4), 2))
    x = d.add_x(Fraction(rng.randrange(4), 2))
    d.add_edge(z, x)
    d.add_edge(z, x)
    d.add_edge(z, d.add_input())
    d.add_edge(x, d.add_output())


# -- rule: copy -----------------------------------------------------------


def _m_copy(d: Diagram) -> list[tuple]:
    inc, looped = _incidence(d), _self_looped(d)
    out = []
    for v, data in d.vertices.items():
        if data.kind not in _SPIDERS or len(inc[v]) != 1 or _pi_multiple(data.phase) is None:
            continue
        (_i, w) = inc[v][0]
        wd = d.vertices[w]
        if (
            wd.kind in _SPIDERS
            and wd.kind != data.kind
            and _pi_multiple(wd.phase) == 0
            and w not in looped
        ):
            out.append((v, w))
    return sorted(out)


def _copy_lhs(kind: str, ph: Fraction, legs: int) -> Diagram:
    d = Diagram()
    s = d.add_z(ph) if kind == Z else d.add_x(ph)
    t = d.add_x() if kind == Z else d.add_z()
    d.add_edge(s, t)
    for _ in range(legs):
        d.add_edge(t, d.add_output())
    return d


def _copy_rhs(kind: str, ph: Fraction, legs: int) -> Diagram:
    d = Diagram()
    for _ in range(legs):
        s = d.add_z(ph) if kind == Z else d.add_x(ph)
        d.add_edge(s, d.add_output())
    return d


def _a_copy(d: Diagram, site: tuple) -> Diagram:
    v, w = site
    others = [(i, n) for i, n in _incidence(d)[w] if n != v]
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
    out.mul_scalar(
        _derive_scalar(("copy", kind, ph, legs), _copy_lhs(kind, ph, legs), _copy_rhs(kind, ph, legs))
    )
    return out


def _s_copy(d: Diagram, rng: random.Random) -> None:
    kind = rng.choice((Z, X))
    ph = Fraction(rng.choice((0, 1)))
    s = d.add_z(ph) if kind == Z else d.add_x(ph)
    t = d.add_x() if kind == Z else d.add_z()
    d.add_edge(s, t)
    for _ in range(rng.randrange(1, 4)):
        d.add_edge(t, d.add_output())


# -- rule: pi-copy --------------------------------------------------------


def _m_pi_copy(d: Diagram) -> list[tuple]:
    inc, looped = _incidence(d), _self_looped(d)
    out = []
    for v, data in d.vertices.items():
        if data.kind not in _SPIDERS or len(inc[v]) != 2 or _pi_multiple(data.phase) != 1:
            continue
        (_i, w1), (_j, w2) = inc[v]
        if w1 == w2:
            continue  # a self-loop, or a double edge to one neighbour
        for w in (w1, w2):
            wd = d.vertices[w]
            if (
                wd.kind in _SPIDERS
                and wd.kind != data.kind
                and isinstance(wd.phase, (int, Fraction))
                and w not in looped
            ):
                out.append((v, w))
    return sorted(out)


def _pi_copy_sides(kind: str, ph: Fraction, legs: int) -> tuple[Diagram, Diagram]:
    lhs = Diagram()
    pi_sp = lhs.add_z(_PI) if kind == Z else lhs.add_x(_PI)
    sp = lhs.add_x(ph) if kind == Z else lhs.add_z(ph)
    lhs.add_edge(lhs.add_input(), pi_sp)
    lhs.add_edge(pi_sp, sp)
    for _ in range(legs):
        lhs.add_edge(sp, lhs.add_output())
    rhs = Diagram()
    sp2 = rhs.add_x(-ph) if kind == Z else rhs.add_z(-ph)
    rhs.add_edge(rhs.add_input(), sp2)
    for _ in range(legs):
        p = rhs.add_z(_PI) if kind == Z else rhs.add_x(_PI)
        rhs.add_edge(sp2, p)
        rhs.add_edge(p, rhs.add_output())
    return lhs, rhs


def _a_pi_copy(d: Diagram, site: tuple) -> Diagram:
    v, w = site
    inc = _incidence(d)
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
        p = out.add_z(_PI) if kind == Z else out.add_x(_PI)
        out.add_edge(sp2, p)
        out.add_edge(p, n)
    del out.vertices[v]
    del out.vertices[w]
    lhs, rhs = _pi_copy_sides(kind, ph, legs)
    out.mul_scalar(_derive_scalar(("pi-copy", kind, ph, legs), lhs, rhs))
    return out


def _s_pi_copy(d: Diagram, rng: random.Random) -> None:
    kind = rng.choice((Z, X))
    ph = Fraction(rng.randrange(4), 2)
    pi_sp = d.add_z(_PI) if kind == Z else d.add_x(_PI)
    sp = d.add_x(ph) if kind == Z else d.add_z(ph)
    d.add_edge(d.add_input(), pi_sp)
    d.add_edge(pi_sp, sp)
    for _ in range(rng.randrange(1, 3)):
        d.add_edge(sp, d.add_output())


# -- rule: bialgebra ------------------------------------------------------


def _m_bialgebra(d: Diagram) -> list[tuple]:
    # Self-loops on the pair are left to remove-wire.
    inc, looped = _incidence(d), _self_looped(d)
    out = []
    for z, data in d.vertices.items():
        if data.kind != Z or _pi_multiple(data.phase) != 0 or z in looped:
            continue
        links = Counter(w for _i, w in inc[z])
        for x, n in links.items():
            xd = d.vertices[x]
            if n == 1 and xd.kind == X and _pi_multiple(xd.phase) == 0 and x not in looped:
                out.append((z, x))
    return sorted(out)


def _bialgebra_sides(m: int, n: int) -> tuple[Diagram, Diagram]:
    lhs = Diagram()
    z, x = lhs.add_z(), lhs.add_x()
    lhs.add_edge(z, x)
    for _ in range(m):
        lhs.add_edge(lhs.add_input(), z)
    for _ in range(n):
        lhs.add_edge(x, lhs.add_output())
    rhs = Diagram()
    xs = [rhs.add_x() for _ in range(m)]
    zs = [rhs.add_z() for _ in range(n)]
    for xv in xs:
        rhs.add_edge(rhs.add_input(), xv)
        for zv in zs:
            rhs.add_edge(xv, zv)
    for zv in zs:
        rhs.add_edge(zv, rhs.add_output())
    return lhs, rhs


def _a_bialgebra(d: Diagram, site: tuple) -> Diagram:
    z, x = site
    inc = _incidence(d)
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
    lhs, rhs = _bialgebra_sides(m, n)
    out.mul_scalar(_derive_scalar(("bialgebra", m, n), lhs, rhs))
    return out


def _s_bialgebra(d: Diagram, rng: random.Random) -> None:
    z, x = d.add_z(), d.add_x()
    d.add_edge(z, x)
    for _ in range(rng.randrange(1, 3)):
        d.add_edge(d.add_input(), z)
    for _ in range(rng.randrange(1, 3)):
        d.add_edge(x, d.add_output())


# -- rule: color-change ---------------------------------------------------


def _m_color_change(d: Diagram) -> list[tuple]:
    looped = _self_looped(d)
    return sorted((v,) for v, data in d.vertices.items() if data.kind == X and v not in looped)


def _color_change_sides(ph, legs: int) -> tuple[Diagram, Diagram]:
    lhs = _pattern_spider(X, ph, legs)
    rhs = Diagram()
    z = rhs.add_z(ph)
    for _ in range(legs):
        h = rhs.add_h()
        rhs.add_edge(z, h)
        rhs.add_edge(h, rhs.add_output())
    return lhs, rhs


def _a_color_change(d: Diagram, site: tuple) -> Diagram:
    (v,) = site
    inc = _incidence(d)[v]
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
    lhs, rhs = _color_change_sides(key_ph, len(inc))
    out.mul_scalar(_derive_scalar(("color-change", key_ph, len(inc)), lhs, rhs))
    return out


def _s_color_change(d: Diagram, rng: random.Random) -> None:
    v = d.add_x(Fraction(rng.randrange(4), 2))
    for _ in range(rng.randrange(1, 4)):
        d.add_edge(v, d.add_output())


# -- rule: absorb ---------------------------------------------------------


def _m_absorb(d: Diagram) -> list[tuple]:
    # X basis states: X(pi) = sqrt(2)|1> selects the box's all-ones slice
    # (label kept); X(0) = sqrt(2)|0> selects the all-ones-free slice
    # (label becomes 1).
    inc = _incidence(d)
    out = []
    for v, data in d.vertices.items():
        if data.kind != X or len(inc[v]) != 1 or _pi_multiple(data.phase) is None:
            continue
        (_i, w) = inc[v][0]
        if d.vertices[w].kind == H:
            out.append((v, w))
    return sorted(out)


def _absorb_sides(ph: Fraction, label: ExactScalar, legs: int) -> tuple[Diagram, Diagram]:
    lhs = Diagram()
    h = lhs.add_h(label)
    s = lhs.add_x(ph)
    lhs.add_edge(s, h)
    for _ in range(legs):
        lhs.add_edge(h, lhs.add_output())
    rhs = Diagram()
    h2 = rhs.add_h(label if ph == 1 else ExactScalar.one())
    for _ in range(legs):
        rhs.add_edge(h2, rhs.add_output())
    return lhs, rhs


def _a_absorb(d: Diagram, site: tuple) -> Diagram:
    v, w = site
    inc = _incidence(d)
    out = d.copy()
    ph = Fraction(out.vertices[v].phase) % 2
    label = out.vertices[w].label
    legs = len(inc[w]) - 1
    del out.edges[inc[v][0][0]]
    del out.vertices[v]
    if ph == 0:
        out.vertices[w] = VertexData(H, Fraction(0), ExactScalar.one())
    lhs, rhs = _absorb_sides(ph, label, legs)
    out.mul_scalar(_derive_scalar(("absorb", ph, label, legs), lhs, rhs))
    return out


def _s_absorb(d: Diagram, rng: random.Random) -> None:
    h = d.add_h()
    s = d.add_x(_PI if rng.random() < 0.5 else Fraction(0))
    d.add_edge(s, h)
    for _ in range(rng.randrange(1, 3)):
        d.add_edge(h, d.add_output())


# -- rule: explode --------------------------------------------------------


def _m_explode(d: Diagram) -> list[tuple]:
    # Two shapes: a Z(0) state halves an H-box label offset; a label-1
    # H-box is the all-ones tensor and splits into per-leg Z(0) states.
    inc, looped = _incidence(d), _self_looped(d)
    out = []
    for v, data in d.vertices.items():
        if data.kind == H and data.label == _ONE and v not in looped:
            out.append((-1, v))
            continue
        if data.kind != Z or len(inc[v]) != 1 or _pi_multiple(data.phase) != 0:
            continue
        (_i, w) = inc[v][0]
        if d.vertices[w].kind == H:
            out.append((v, w))
    return sorted(out)


def _explode_sides(label: ExactScalar, legs: int) -> tuple[Diagram, Diagram]:
    lhs = Diagram()
    h = lhs.add_h(label)
    s = lhs.add_z()
    lhs.add_edge(s, h)
    for _ in range(legs):
        lhs.add_edge(h, lhs.add_output())
    rhs = Diagram()
    new_label = (ExactScalar.one() + label) * ExactScalar(Fraction(1, 2))
    h2 = rhs.add_h(new_label)
    for _ in range(legs):
        rhs.add_edge(h2, rhs.add_output())
    return rhs, lhs  # note: scalar derived below flips orientation back


def _split_sides(legs: int) -> tuple[Diagram, Diagram]:
    lhs = Diagram()
    h = lhs.add_h(ExactScalar.one())
    for _ in range(legs):
        lhs.add_edge(h, lhs.add_output())
    rhs = Diagram()
    for _ in range(legs):
        rhs.add_edge(rhs.add_z(), rhs.add_output())
    return lhs, rhs


def _a_explode(d: Diagram, site: tuple) -> Diagram:
    v, w = site
    inc = _incidence(d)
    if v == -1:
        out = d.copy()
        legs = [nb for _i, nb in inc[w]]
        out.edges = [(a, b) for a, b in out.edges if w not in (a, b)]
        del out.vertices[w]
        for nb in legs:
            out.add_edge(out.add_z(), nb)
        lhs, rhs = _split_sides(len(legs))
        out.mul_scalar(_derive_scalar(("explode", "split", len(legs)), lhs, rhs))
        return out
    out = d.copy()
    label = out.vertices[w].label
    legs = len(inc[w]) - 1
    del out.edges[inc[v][0][0]]
    del out.vertices[v]
    new_label = (ExactScalar.one() + label) * ExactScalar(Fraction(1, 2))
    out.vertices[w] = VertexData(H, Fraction(0), new_label)
    rhs, lhs = _explode_sides(label, legs)
    out.mul_scalar(_derive_scalar(("explode", label, legs), lhs, rhs))
    return out


def _s_explode(d: Diagram, rng: random.Random) -> None:
    if rng.random() < 0.3:
        h = d.add_h(ExactScalar.one())
        for _ in range(rng.randrange(1, 4)):
            d.add_edge(h, d.add_output())
        return
    h = d.add_h()
    s = d.add_z()
    d.add_edge(s, h)
    for _ in range(rng.randrange(1, 3)):
        d.add_edge(h, d.add_output())


# -- rule: zh-relations ---------------------------------------------------


def _m_zh(d: Diagram) -> list[tuple]:
    return sorted((v,) for v in _plain_hadamard_boxes(d))


def _zh_sides() -> tuple[Diagram, Diagram]:
    lhs = Diagram()
    h = lhs.add_h()
    lhs.add_edge(lhs.add_input(), h)
    lhs.add_edge(h, lhs.add_output())
    rhs = Diagram()
    first, last = _spider_chain(rhs, [(Z, _HALF), (X, _HALF), (Z, _HALF)])
    rhs.add_edge(rhs.add_input(), first)
    rhs.add_edge(last, rhs.add_output())
    return lhs, rhs


def _a_zh(d: Diagram, site: tuple) -> Diagram:
    (v,) = site
    ends = [w for _i, w in _incidence(d)[v]]
    out = d.copy()
    if len(ends) != 2 or v in ends:
        raise ValueError("zh-relations needs an arity-2 H-box on distinct wires")
    out.edges = [(a, b) for a, b in out.edges if v not in (a, b)]
    del out.vertices[v]
    first, last = _spider_chain(out, [(Z, _HALF), (X, _HALF), (Z, _HALF)])
    out.add_edge(ends[0], first)
    out.add_edge(last, ends[1])
    lhs, rhs = _zh_sides()
    out.mul_scalar(_derive_scalar(("zh-relations",), lhs, rhs))
    return out


def _s_zh(d: Diagram, rng: random.Random) -> None:
    h = d.add_h()
    d.add_edge(d.add_input(), h)
    d.add_edge(h, d.add_output())


# -- registry -------------------------------------------------------------

RULES: dict[str, RewriteRule] = {
    r.name: r
    for r in [
        RewriteRule("fuse", _m_fuse, _a_fuse, _s_fuse),
        RewriteRule("remove-wire", _m_remove_wire, _a_remove_wire, _s_remove_wire),
        RewriteRule("identity", _m_identity, _a_identity, _s_identity),
        RewriteRule("hh-cancel", _m_hh_cancel, _a_hh_cancel, _s_hh_cancel),
        RewriteRule("hopf", _m_hopf, _a_hopf, _s_hopf),
        RewriteRule("copy", _m_copy, _a_copy, _s_copy),
        RewriteRule("pi-copy", _m_pi_copy, _a_pi_copy, _s_pi_copy),
        RewriteRule("bialgebra", _m_bialgebra, _a_bialgebra, _s_bialgebra),
        RewriteRule("color-change", _m_color_change, _a_color_change, _s_color_change),
        RewriteRule("absorb", _m_absorb, _a_absorb, _s_absorb),
        RewriteRule("explode", _m_explode, _a_explode, _s_explode),
        RewriteRule("zh-relations", _m_zh, _a_zh, _s_zh),
    ]
}

DEFAULT_SIMPLIFY_RULES = ("fuse", "remove-wire", "identity", "hh-cancel")
FULL_SIMPLIFY_RULES = (
    "fuse",
    "remove-wire",
    "identity",
    "hh-cancel",
    "absorb",
    "explode",
    "copy",
    "hopf",
    "pi-copy",
)


def find_matches(d: Diagram, rule: str) -> list[tuple]:
    """All match sites of a rule, deterministically ordered."""
    if rule not in RULES:
        raise KeyError(f"unknown rule {rule!r}")
    return RULES[rule].matcher(d)


def apply_rule(d: Diagram, rule: str, site: Optional[tuple] = None) -> Diagram:
    """Apply one rule instance (first match if no site given)."""
    matches = find_matches(d, rule)
    if site is None:
        if not matches:
            raise ValueError(f"no match for rule {rule!r}")
        site = matches[0]
    elif site not in matches:
        raise ValueError(f"{site} is not a valid match site for {rule!r}")
    return RULES[rule].applier(d, site)


def simplify(
    d: Diagram,
    rules: Optional[tuple[str, ...]] = None,
    max_steps: int = 10000,
) -> tuple[Diagram, RewriteTrace]:
    """Greedy fixpoint rewriting with the given ruleset (default: the
    terminating set fuse / remove-wire / identity / hh-cancel)."""
    if rules is None:
        rules = DEFAULT_SIMPLIFY_RULES
    trace = RewriteTrace()
    cur = d
    for _ in range(max_steps):
        progressed = False
        for r in rules:
            matches = find_matches(cur, r)
            if matches:
                cur = RULES[r].applier(cur, matches[0])
                trace.steps.append((r, matches[0]))
                progressed = True
                break
        if not progressed:
            return cur, trace
    raise RuntimeError("simplify did not reach a fixpoint within max_steps")


def _random_host(rng: random.Random) -> Diagram:
    d = Diagram()
    spiders = []
    for _ in range(rng.randrange(0, 4)):
        kind = rng.choice((Z, X))
        ph = Fraction(rng.randrange(4), 2)
        spiders.append(d.add_z(ph) if kind == Z else d.add_x(ph))
    for v in spiders:
        for _ in range(rng.randrange(0, 3)):
            if spiders and rng.random() < 0.5:
                d.add_edge(v, rng.choice(spiders))
            else:
                d.add_edge(v, d.add_output())
    return d


def check_rule_soundness(rule: str, trials: int = 200, seed: int = 0) -> int:
    """Randomised exact before/after equality trials; returns the number of
    failing trials (0 means the rule is sound on the sampled family)."""
    if rule not in RULES:
        raise KeyError(f"unknown rule {rule!r}")
    r = RULES[rule]
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        d = _random_host(rng)
        r.seeder(d, rng)
        matches = r.matcher(d)
        if not matches:
            failures += 1
            continue
        site = matches[rng.randrange(len(matches))]
        before = eval_diagram(d)
        after_d = r.applier(d, site)
        after = eval_diagram(after_d)
        if before.data.shape != after.data.shape or not bool(
            np.all(before.data == after.data)
        ):
            failures += 1
    return failures
