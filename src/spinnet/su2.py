"""Diagram builders for SU(2) recoupling objects.

The construction realises a spin-j wire as a symmetrised bundle of 2j
qubit wires.  One primitive, :func:`_add_bundle`, builds every bundle: the
symmetriser over the wires, with an optional Z(pi) metric or X(pi) arrow
on each wire before or after it.  One helper, :func:`_add_boundaries`,
joins ports to new boundary wires.

* :func:`cswap_gadget` -- a Fredkin gate with the control post-selected.
* :func:`crown` -- the control-state gadget steering one symmetrisation
  stage; stage i superposes the all-zero pattern with the i-1 one-hot
  patterns on i-1 control wires.
* :func:`symmetriser` -- the projector onto the symmetric subspace of n
  qubit wires, built from crowns and CSWAPs; evaluates exactly to S_n.
* :func:`yutsis_link` -- the edge operator
  sum_m (-1)^(j-m) |j m><j m|: a bundle with a Z(pi) on every output wire.
* :func:`vertex_3jm`, :func:`vertex_4jm`, :func:`assemble_network`,
  :func:`network_6j`, :func:`theta_network`, :func:`loop_network` --
  intertwiner vertices and closed recoupling networks.  Every network
  goes through :func:`assemble_network`, which checks the whole
  :class:`NetworkSpec` in one pass before it adds a vertex; every internal
  edge and open leg is then one bundle.
* :func:`invariance_defect` -- the exact SU(2)-invariance certificate: the
  generators J_x and J_z of su(2) act on a diagram's exact matrix from the
  output and the input side, and the count of entries where the two
  differ is 0 exactly when the matrix is invariant (no sampling, no
  tolerance).

Builders return raw diagrams whose exact evaluation matches the
unnormalised diagrammatic value, together with a :class:`CorrectionFactor`
(products of lambda_n bundle normalisations, 1/N vertex normalisations and
basis-plug norms) that rescales raw values to Wigner-symbol conventions.

Every open leg of a vertex ends in a symmetriser, so its spin basis is the
Dicke basis |j m> = |D_k> / sqrt(C(2j, k)), k = j - m ones:

* :func:`plug_vertex_arguments` plugs |j m> as the one product state
  (1 << k) - 1 (wire 0 most significant), which is exact behind the
  symmetriser (<D_k| = C(2j, k) <b| there for every b of weight k), with
  plug norm sqrt(C(2j, k) / 2^(2j));
* :func:`project_to_spin_basis` sums the qubit-matrix entries of each
  (row class, column class) pair of :func:`_dicke_basis` and scales the sum
  by the class amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .exact import (
    ExactScalar,
    HalfInteger,
    RadicalNumber,
    factorial,
    sqrt_rational,
)
from .graph import Diagram, X, Z
from .tensor import eval_diagram, plug_basis
from .wigner import SpinLike, _hi, triangle_ok

__all__ = [
    "CorrectionFactor",
    "VertexSpec",
    "NodeSpec",
    "EdgeSpec",
    "OpenLegSpec",
    "NetworkSpec",
    "cswap_gadget",
    "crown",
    "symmetriser",
    "lambda_n",
    "binor_N",
    "yutsis_link",
    "vertex_3jm",
    "vertex_4jm",
    "assemble_network",
    "network_6j",
    "theta_network",
    "loop_network",
    "plug_vertex_arguments",
    "exact_matrix",
    "project_to_spin_basis",
    "corrected_spin_matrix",
    "invariance_defect",
]

_PI = Fraction(1)
_INV_SQRT2 = ExactScalar.inv_sqrt2()


# -- bookkeeping ----------------------------------------------------------


@dataclass
class CorrectionFactor:
    """Multiplicative correction from raw diagram value to symbol value."""

    lambdas: RadicalNumber = field(default_factory=RadicalNumber.one)
    norms: RadicalNumber = field(default_factory=RadicalNumber.one)
    plug_norm: RadicalNumber = field(default_factory=RadicalNumber.one)
    notes: list[str] = field(default_factory=list)

    @property
    def value(self) -> RadicalNumber:
        return self.lambdas * self.norms * self.plug_norm

    def times_lambda(self, j: SpinLike, note: str) -> None:
        self.lambdas = self.lambdas * lambda_n(_hi(j).twice)
        self.notes.append(note)

    def times_inv_norm(self, j1: SpinLike, j2: SpinLike, j3: SpinLike) -> None:
        self.norms = self.norms / binor_N(j1, j2, j3)
        self.notes.append(f"1/N({j1},{j2},{j3})")


@dataclass
class VertexSpec:
    """A 3-valent vertex: three spins plus an 'i'/'o' orientation per leg."""

    spins: tuple[SpinLike, SpinLike, SpinLike]
    orientation: str = "iio"

    def __post_init__(self) -> None:
        if len(self.spins) != 3:
            raise ValueError("VertexSpec needs exactly three spins")
        if len(self.orientation) != 3 or set(self.orientation) - {"i", "o"}:
            raise ValueError("orientation must be three letters from 'io'")
        if not triangle_ok(*self.spins):
            raise ValueError(f"inadmissible spin triad {self.spins}")


@dataclass
class NodeSpec:
    """A network vertex (three legs, referenced by index 0..2)."""

    spins: tuple[SpinLike, SpinLike, SpinLike]


@dataclass
class EdgeSpec:
    """Internal edge from (tail node, leg) to (head node, leg); the arrow
    points tail -> head."""

    tail: tuple[int, int]
    head: tuple[int, int]
    spin: SpinLike


@dataclass
class OpenLegSpec:
    """A dangling leg of a network node; orientation 'i' means ingoing."""

    node: int
    leg: int
    spin: SpinLike
    orientation: str = "o"

    def __post_init__(self) -> None:
        if self.orientation not in ("i", "o"):
            raise ValueError(f"orientation {self.orientation!r} is not 'i' or 'o'")


@dataclass
class NetworkSpec:
    nodes: list[NodeSpec]
    edges: list[EdgeSpec]
    open_legs: list[OpenLegSpec] = field(default_factory=list)


# -- scalar factors -------------------------------------------------------


def lambda_n(n: int) -> RadicalNumber:
    """Normalisation of the n-wire symmetriser construction.

    lambda_n = 2^(n(n-1)/4) / n! * (1/2)^(beta + sum_{i=4}^n (2^ceil(log2 i) - 1))
    with beta = 1 for n >= 3 and 0 otherwise.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 1:
        return RadicalNumber.one()
    e = n * (n - 1) // 2  # one sqrt(2) per CSWAP
    beta = 1 if n >= 3 else 0
    halves = beta + sum(2 ** _crown_width(i) - 1 for i in range(4, n + 1))
    q = Fraction(2 ** (e // 2), factorial(n) * 2 ** halves)
    out = RadicalNumber.from_rational(q)
    if e % 2:
        out = out * RadicalNumber({2: 1})
    return out


def _crown_width(stage: int) -> int:
    """Top wires of the crown of a stage >= 4, ceil(log2(stage)); the crown
    has one H-box, and a factor 1/2 in lambda_n, per nonzero top pattern."""
    return (stage - 1).bit_length()


def binor_N(j1: SpinLike, j2: SpinLike, j3: SpinLike) -> RadicalNumber:
    """Vertex normalisation N = sqrt((J+1)! prod (J-2ji)! / prod (2ji)!)
    where J = j1+j2+j3."""
    t1, t2, t3 = _hi(j1).twice, _hi(j2).twice, _hi(j3).twice
    if not triangle_ok(j1, j2, j3):
        raise ValueError(f"inadmissible spin triad ({j1}, {j2}, {j3})")
    J = (t1 + t2 + t3) // 2
    num = (
        factorial(J + 1)
        * factorial((-t1 + t2 + t3) // 2)
        * factorial((t1 - t2 + t3) // 2)
        * factorial((t1 + t2 - t3) // 2)
    )
    den = factorial(t1) * factorial(t2) * factorial(t3)
    return sqrt_rational(Fraction(num, den))


def _dicke_basis(spins: Sequence[SpinLike]) -> tuple[list[int], list[RadicalNumber]]:
    """The Dicke weight classes of a run of legs (see the module docstring).

    Returns the class of every bit string over the legs' wires (wire 0 most
    significant), which is its spin-basis index: legs in order, each leg
    counting k = 0 .. 2j ones (m = j .. -j).  Also returns the amplitude
    prod 1/sqrt(C(2j, k)) of every class; |D_k> sums the weight-k strings.
    """
    classes, amps = [0], [RadicalNumber.one()]
    for j in spins:
        n = _hi(j).twice
        leg = [sqrt_rational(Fraction(1, math.comb(n, k))) for k in range(n + 1)]
        classes = [c * (n + 1) + bin(bits).count("1") for c in classes for bits in range(2 ** n)]
        amps = [a * b for a in amps for b in leg]
    return classes, amps


# -- in-place construction helpers ---------------------------------------
#
# A "port" is a vertex id that expects exactly one more incident edge.


def _add_cswap(d: Diagram, c: int, t1: int, t2: int) -> tuple[int, int]:
    """Fredkin gate exchanging the t1/t2 wires when the control wire carries
    |1>; the control is consumed.  Returns the outgoing (t1, t2) ports.

    Realised as CNOT(t1->t2) . CCNOT(c,t2 -> t1) . CNOT(t1->t2) with the
    doubly-controlled phase as an H-box; carries a 1/sqrt(2) calibration so
    a bare gadget matches the postselected Fredkin matrix exactly.
    """
    z1 = d.add_z()  # first CNOT control, on t1
    x1 = d.add_x()  # first CNOT target, on t2
    d.add_edge(t1, z1)
    d.add_edge(t2, x1)
    d.add_edge(z1, x1)
    ha = d.add_h()  # Hadamard pair turning a CCZ into a CCNOT on t1
    zt = d.add_z()
    hb = d.add_h()
    d.add_edge(z1, ha)
    d.add_edge(ha, zt)
    d.add_edge(zt, hb)
    zc = d.add_z()  # control tap
    z2 = d.add_z()  # t2 tap
    hbox = d.add_h()
    d.add_edge(c, zc)
    d.add_edge(x1, z2)
    d.add_edge(zc, hbox)
    d.add_edge(z2, hbox)
    d.add_edge(zt, hbox)
    z3 = d.add_z()  # second CNOT control, on t1
    x2 = d.add_x()  # second CNOT target, on t2
    d.add_edge(hb, z3)
    d.add_edge(z2, x2)
    d.add_edge(z3, x2)
    d.mul_scalar(_INV_SQRT2)
    return z3, x2


def _add_crown(d: Diagram, stage: int) -> list[int]:
    """Control states for symmetrisation stage ``stage`` (>= 2).

    Returns stage-1 ports carrying the equal superposition of the all-zero
    control pattern and the stage-1 one-hot patterns.
    """
    if stage < 2:
        raise ValueError("stage must be >= 2")
    n = stage - 1  # number of control wires
    if n == 1:
        return [d.add_z()]
    if stage == 3:
        za, zb = d.add_z(), d.add_z()
        h = d.add_h()
        tap = d.add_z()
        d.add_edge(za, h)
        d.add_edge(zb, h)
        d.add_edge(tap, h)
        return [za, zb]
    k = _crown_width(stage)
    tops = [d.add_z() for _ in range(k)]
    controls: list[int] = []
    for g in range(1, 2 ** k):
        hbox = d.add_h()
        for t in range(k):
            bit = (g >> (k - 1 - t)) & 1
            xs = d.add_x(Fraction(0) if bit else _PI)
            d.add_edge(tops[t], xs)
            d.add_edge(xs, hbox)
        if len(controls) < n:
            had = d.add_h()
            d.add_edge(hbox, had)
            controls.append(had)
        else:
            tap = d.add_z()
            d.add_edge(hbox, tap)
    return controls


def _add_symmetriser(d: Diagram, ports: list[int]) -> list[int]:
    """Symmetriser structure over the given wire ports, which it rewrites in
    place (calibration scalars folded in by :func:`_add_cswap`; the
    lambda_n factor is NOT included)."""
    n = len(ports)
    for stage in range(2, n + 1):
        controls = _add_crown(d, stage)
        for k in range(stage - 1):
            ports[k], ports[stage - 1] = _add_cswap(d, controls[k], ports[k], ports[stage - 1])
    return ports


def _pi_on(d: Diagram, port: int, kind: Optional[str]) -> int:
    """The wire at ``port`` continued through a Z(pi) or X(pi) spider, or
    ``port`` itself if ``kind`` is None."""
    if kind is None:
        return port
    v = d.add_z(_PI) if kind == Z else d.add_x(_PI)
    d.add_edge(port, v)
    return v


def _add_bundle(
    d: Diagram, ports: Sequence[int], before: Optional[str] = None, after: Optional[str] = None
) -> list[int]:
    """A spin bundle over ``ports``: the symmetriser, with a pi spider of
    kind ``before`` / ``after`` (Z, X or None) on every wire before / after
    it.  Returns the outgoing ports; lambda_n is left to the caller."""
    ports = _add_symmetriser(d, [_pi_on(d, p, before) for p in ports])
    return [_pi_on(d, p, after) for p in ports]


def _add_boundaries(d: Diagram, ports: Sequence[int], side: list[int], pi: Optional[str] = None) -> None:
    """Joins each port, through its own pi spider of kind ``pi`` if given,
    to a new boundary appended to ``side`` (``d.inputs`` or ``d.outputs``)."""
    for p in ports:
        p = _pi_on(d, p, pi)
        b = d.add_boundary()
        side.append(b)
        d.add_edge(p, b)


def _wire_count(j: SpinLike) -> int:
    """The 2j wires of a spin-j bundle."""
    jh = _hi(j)
    if jh.twice < 0:
        raise ValueError(f"spin {jh} is negative")
    return jh.twice


# -- public gadgets -------------------------------------------------------


def cswap_gadget() -> Diagram:
    """Postselected Fredkin gate: 3 inputs (control, t1, t2), 2 outputs."""
    d = Diagram()
    c, t1, t2 = d.add_input(), d.add_input(), d.add_input()
    _add_boundaries(d, _add_cswap(d, c, t1, t2), d.outputs)
    return d


def crown(stage: int) -> Diagram:
    """The stage-th control-state gadget as a standalone diagram with
    stage-1 output wires."""
    d = Diagram()
    _add_boundaries(d, _add_crown(d, stage), d.outputs)
    return d


def symmetriser(n: int) -> Diagram:
    """n-wire symmetriser; evaluates exactly to the projector S_n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    d = Diagram()
    _add_boundaries(d, _add_bundle(d, [d.add_input() for _ in range(n)]), d.outputs)
    d.mul_scalar(lambda_n(n).to_exact_scalar())
    return d


def yutsis_link(j: SpinLike) -> Diagram:
    """The edge operator sum_m (-1)^(j-m) |j m><j m| on a 2j-wire bundle,
    with the Z(pi) metric on every output wire."""
    n = _wire_count(j)
    d = Diagram()
    _add_boundaries(d, _add_bundle(d, [d.add_input() for _ in range(n)]), d.outputs, pi=Z)
    d.mul_scalar(lambda_n(n).to_exact_scalar())
    return d


# -- vertices -------------------------------------------------------------


def _vertex_sign(js: Sequence[HalfInteger]) -> int:
    """Overall sign fixing the vertex phase convention to match the
    standard 3jm symbol.

    With the cup-end convention of :func:`_add_vertex_core` (lower leg
    index takes the |1> end) the construction differs from the 3jm tensor
    by exactly (-1)^(2*j2); calibrated against exact vertex matrices over
    many triads and orientations.
    """
    return -1 if js[1].twice % 2 else 1


def _add_vertex_core(d: Diagram, js: Sequence[HalfInteger]) -> list[list[int]]:
    """Singlet cups |10> - |01> realising a bare 3-valent vertex of an
    admissible triad; returns per-leg ports (2j_k ports for leg k).

    Legs a and b share (2j_a + 2j_b - 2j_c) / 2 cups.  Pairing layout:
    leg1 = [12-strands | 13-strands], leg2 = [12 | 23], leg3 = [13 | 23].
    The lower-numbered leg takes the |1> cup end, its X(pi) spider.
    """
    t = [j.twice for j in js]
    legs: list[list[int]] = [[], [], []]
    for a, b, c in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        for _ in range((t[a] + t[b] - t[c]) // 2):
            x, z = d.add_x(_PI), d.add_z(_PI)
            d.add_edge(x, z)
            legs[a].append(x)
            legs[b].append(z)
    return legs


def vertex_3jm(spec: VertexSpec) -> tuple[Diagram, CorrectionFactor]:
    """Diagram for a 3-valent intertwiner vertex: one network node whose
    three legs are all open.

    Boundary wires: 2j per leg; ingoing legs contribute inputs, outgoing
    legs outputs, both in leg order.  The corrected spin-basis matrix
    (:func:`corrected_spin_matrix`) equals the 3jm matrix of
    :func:`spinnet.wigner.yutsis_matrix_3`.
    """
    legs = zip(spec.spins, spec.orientation)
    return assemble_network(NetworkSpec(
        nodes=[NodeSpec(spec.spins)],
        edges=[],
        open_legs=[OpenLegSpec(0, k, j, o) for k, (j, o) in enumerate(legs)],
    ))


def vertex_4jm(
    spins: Sequence[SpinLike], j: SpinLike, orientation: str = "iioo"
) -> tuple[Diagram, CorrectionFactor]:
    """4-valent intertwiner with channel spin j: two 3-valent vertices
    joined by a summed internal edge.

    Legs 1,2 sit on the first vertex and legs 3,4 on the second; boundary
    wires follow leg order 1..4.
    """
    if len(spins) != 4 or len(orientation) != 4 or set(orientation) - {"i", "o"}:
        raise ValueError("need 4 spins and an orientation like 'iioo'")
    js = [_hi(x) for x in spins]
    jc = _hi(j)
    spec = NetworkSpec(
        nodes=[NodeSpec((js[0], js[1], jc)), NodeSpec((jc, js[2], js[3]))],
        edges=[EdgeSpec(tail=(0, 2), head=(1, 0), spin=jc)],
        open_legs=[
            OpenLegSpec(0, 0, js[0], orientation[0]),
            OpenLegSpec(0, 1, js[1], orientation[1]),
            OpenLegSpec(1, 1, js[2], orientation[2]),
            OpenLegSpec(1, 2, js[3], orientation[3]),
        ],
    )
    return assemble_network(spec)


def _claim(nodes: list[list[HalfInteger]], used: set, ref: tuple[int, int], spin: SpinLike) -> None:
    """Marks leg ``ref`` = (node, leg) as used.  It must exist, be unused
    and carry ``spin``."""
    n, l = ref
    if not (isinstance(n, int) and isinstance(l, int) and 0 <= n < len(nodes) and 0 <= l < 3):
        raise ValueError(f"leg {ref} does not exist")
    if ref in used:
        raise ValueError(f"leg {ref} used twice")
    used.add(ref)
    if nodes[n][l].twice != _hi(spin).twice:
        raise ValueError(f"spin {spin} does not match leg {ref} of spin {nodes[n][l]}")


def assemble_network(spec: NetworkSpec) -> tuple[Diagram, CorrectionFactor]:
    """Assemble 3-valent vertex cores, summed internal edges and open legs
    into one diagram.

    The whole spec is checked before a vertex is added: every node triad
    is admissible, and edge ends and open legs claim every leg exactly
    once with its spin.  An internal edge is a bundle with a Z(pi) metric
    on the tail side and an X(pi) arrow on the head side; an open leg is a
    bundle, behind an X(pi) arrow if ingoing, joined to new boundaries.
    Boundary wires follow the order of ``spec.open_legs``.  The correction
    collects one lambda per edge (internal or open), 1/N per vertex, and
    nothing else.
    """
    nodes = [[_hi(x) for x in node.spins] for node in spec.nodes]
    for js in nodes:
        if not triangle_ok(*js):
            raise ValueError(f"inadmissible spin triad {tuple(str(j) for j in js)}")
    used: set[tuple[int, int]] = set()
    for e in spec.edges:
        _claim(nodes, used, tuple(e.tail), e.spin)
        _claim(nodes, used, tuple(e.head), e.spin)
    for leg in spec.open_legs:
        _claim(nodes, used, (leg.node, leg.leg), leg.spin)
    for n in range(len(nodes)):
        for l in range(3):
            if (n, l) not in used:
                raise ValueError(f"leg ({n}, {l}) of node {n} left unconnected")
    d = Diagram()
    corr = CorrectionFactor()
    cores = []
    for js in nodes:
        cores.append(_add_vertex_core(d, js))
        d.mul_scalar(ExactScalar(_vertex_sign(js)))
        corr.times_inv_norm(*js)
    for e in spec.edges:
        (tn, tl), (hn, hl) = e.tail, e.head
        for p, h in zip(_add_bundle(d, cores[tn][tl], before=Z, after=X), cores[hn][hl]):
            d.add_edge(p, h)
        corr.times_lambda(e.spin, f"lambda(edge {e.tail}->{e.head})")
    for leg in spec.open_legs:
        ingoing = leg.orientation == "i"
        ports = _add_bundle(d, cores[leg.node][leg.leg], after=X if ingoing else None)
        _add_boundaries(d, ports, d.inputs if ingoing else d.outputs)
        corr.times_lambda(leg.spin, f"lambda(open leg {(leg.node, leg.leg)})")
    return d, corr


def network_6j(
    j1: SpinLike, j2: SpinLike, j3: SpinLike, j4: SpinLike, j5: SpinLike, j6: SpinLike
) -> tuple[Diagram, CorrectionFactor]:
    """The closed tetrahedral network whose corrected value is the 6j
    symbol {j1 j2 j3; j4 j5 j6}."""
    spec = NetworkSpec(
        nodes=[
            NodeSpec((j1, j2, j3)),
            NodeSpec((j1, j5, j6)),
            NodeSpec((j4, j2, j6)),
            NodeSpec((j3, j4, j5)),
        ],
        edges=[
            EdgeSpec(tail=(1, 0), head=(0, 0), spin=j1),
            EdgeSpec(tail=(2, 1), head=(0, 1), spin=j2),
            EdgeSpec(tail=(3, 0), head=(0, 2), spin=j3),
            EdgeSpec(tail=(2, 0), head=(3, 1), spin=j4),
            EdgeSpec(tail=(3, 2), head=(1, 1), spin=j5),
            EdgeSpec(tail=(1, 2), head=(2, 2), spin=j6),
        ],
    )
    return assemble_network(spec)


def theta_network(
    j1: SpinLike, j2: SpinLike, j3: SpinLike
) -> tuple[Diagram, CorrectionFactor]:
    """The closed two-vertex network; corrected value (-1)^(j1+j2+j3).

    The two vertices carry opposite cyclic orientation (the second one has
    its first two legs swapped), as required for the closed graph."""
    spec = NetworkSpec(
        nodes=[NodeSpec((j1, j2, j3)), NodeSpec((j2, j1, j3))],
        edges=[
            EdgeSpec(tail=(0, 0), head=(1, 1), spin=j1),
            EdgeSpec(tail=(0, 1), head=(1, 0), spin=j2),
            EdgeSpec(tail=(0, 2), head=(1, 2), spin=j3),
        ],
    )
    return assemble_network(spec)


def loop_network(j: SpinLike) -> tuple[Diagram, CorrectionFactor]:
    """A closed loop of spin j; corrected value 2j+1.

    The two half-edge decorations of a loop cancel pairwise, leaving the
    trace of the bundle symmetriser.
    """
    n = _wire_count(j)
    d = Diagram()
    junctions = [d.add_z() for _ in range(n)]
    for p, start in zip(_add_bundle(d, junctions), junctions):
        d.add_edge(p, start)
    corr = CorrectionFactor()
    corr.times_lambda(j, f"lambda(loop {j})")
    return d, corr


# -- exact matrix helpers -------------------------------------------------


def exact_matrix(d: Diagram) -> list[list[RadicalNumber]]:
    """Exact (outputs x inputs) matrix of a diagram with real entries."""
    m = eval_diagram(d, mode="exact").to_matrix()
    return [[x.to_radical() for x in row] for row in m]


def project_to_spin_basis(
    qubit_matrix: Sequence[Sequence],
    in_spins: Sequence[SpinLike],
    out_spins: Sequence[SpinLike],
) -> list[list[RadicalNumber]]:
    """The spin-basis matrix P_out . M . P_in^T of a qubit-wire matrix with
    real entries (RadicalNumber or ExactScalar).

    The isometries P are Dicke weight classes (see :func:`_dicke_basis`),
    so each spin entry is the sum of the qubit entries in its (row class,
    column class) pair, times the product of the two class amplitudes.
    """
    row_class, row_amp = _dicke_basis(out_spins)
    col_class, col_amp = _dicke_basis(in_spins)
    if len(qubit_matrix) != len(row_class) or any(len(row) != len(col_class) for row in qubit_matrix):
        raise ValueError("isometry dimensions do not match the matrix")
    sums: list[list] = [[None] * len(col_amp) for _ in row_amp]
    for r, row in zip(row_class, qubit_matrix):
        acc = sums[r]
        for c, x in zip(col_class, row):
            acc[c] = x if acc[c] is None else acc[c] + x
    return [[ra * ca * x for ca, x in zip(col_amp, acc)] for ra, acc in zip(row_amp, sums)]


def plug_vertex_arguments(
    d: Diagram,
    corr: CorrectionFactor,
    spins: Sequence[SpinLike],
    ms: Sequence[SpinLike],
    orientation: str,
) -> Diagram:
    """Plug magnetic arguments into every open leg of a vertex diagram.

    An ingoing leg with argument m receives the dual state |j, -m>, an
    outgoing leg receives |j, m>; the closed diagram's corrected value is
    then the symbol at (m1, ..., mk).  Every open leg of a diagram from
    :func:`assemble_network` (and so of :func:`vertex_3jm` and
    :func:`vertex_4jm`) ends in a symmetriser, so each leg takes the one
    product state (1 << k) - 1, k = j - m, as the module docstring says.
    :func:`~spinnet.tensor.plug_basis` plugs sqrt(2)^(2j) <b|, hence the
    plug norm sqrt(C(2j, k) / 2^(2j)) per leg, which accumulates on ``corr``.
    """
    ins, outs = list(d.inputs), list(d.outputs)
    bits: dict[int, int] = {}
    for j, m, o in zip(spins, ms, orientation):
        jh, mh = _hi(j), (-_hi(m) if o == "i" else _hi(m))
        n = jh.twice
        side = ins if o == "i" else outs
        wires = side[:n]
        del side[:n]
        if len(wires) != n:
            raise ValueError(f"leg of spin {jh} needs {n} wires")
        if abs(mh.twice) > n or (n + mh.twice) % 2:
            raise ValueError(f"m={mh} is not a magnetic index for j={jh}")
        k = (n - mh.twice) // 2
        b = (1 << k) - 1
        bits.update((w, (b >> (n - 1 - i)) & 1) for i, w in enumerate(wires))
        corr.plug_norm = corr.plug_norm * sqrt_rational(Fraction(math.comb(n, k), 2 ** n))
        corr.notes.append(f"plug |{jh},{mh}>")
    if ins or outs:
        raise ValueError("leg spins do not cover all boundary wires")
    return plug_basis(d, bits)


def corrected_spin_matrix(
    d: Diagram,
    corr: CorrectionFactor,
    in_spins: Sequence[SpinLike],
    out_spins: Sequence[SpinLike],
) -> list[list[RadicalNumber]]:
    """Exact spin-basis matrix of a vertex diagram: the exact qubit-wire
    matrix projected onto the spin basis and scaled by the correction.
    Matches :func:`spinnet.wigner.yutsis_matrix_3` / ``yutsis_matrix_4``."""
    q = eval_diagram(d, mode="exact").to_matrix()
    m = project_to_spin_basis(q, in_spins, out_spins)
    c = corr.value
    return [[c * x for x in row] for row in m]


# -- SU(2) invariance -----------------------------------------------------


def invariance_defect(d: Diagram, dual_inputs: bool) -> int:
    """Number of nonzero entries of J_x^out M - s M J_x^in and
    J_z^out M - M J_z^in, where M is the exact (outputs x inputs) matrix of
    ``d``, J = sum_w sigma^(w) over one side's wires and s = -1 if
    ``dual_inputs`` else +1.

    Output wires carry U.  With ``dual_inputs`` the input wires sit behind
    the X(pi) arrow and carry sigma_x U* sigma_x, whose generators are
    (-sigma_x, -sigma_y, sigma_z); otherwise they carry U.  J_x and J_z
    generate su(2) ([J_z, J_x] is proportional to J_y) and SU(2) is
    connected, so 0 proves that M intertwines the two representations:
    exact arithmetic, no sampling and no tolerance.  J_x flips one bit of
    an index; J_z multiplies it by (#zeros - #ones).
    """
    m = eval_diagram(d, mode="exact").to_matrix().tolist()
    n_out, n_in = len(d.outputs), len(d.inputs)
    s = -1 if dual_inputs else 1
    defect = 0
    for r, row in enumerate(m):
        for c, x in enumerate(row):
            jx_out = sum(m[r ^ 1 << w][c] for w in range(n_out))  # (J_x^out M)[r, c]
            jx_in = sum(row[c ^ 1 << w] for w in range(n_in))  # (M J_x^in)[r, c]
            jz = n_out - 2 * bin(r).count("1") - n_in + 2 * bin(c).count("1")  # z_out(r) - z_in(c)
            defect += bool(jx_out - s * jx_in) + bool(jz and x)
    return defect
