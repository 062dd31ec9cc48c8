"""Tensor-network evaluation of diagrams.

Every vertex becomes a small tensor (one binary index per incident wire);
edges are contractions.  Both modes below evaluate one definition of the
Z, X and H tensors, for any number type (:func:`_vertex_entries`).
:func:`plan_contraction` tabulates the diagram's nodes once: each node's
vertex, its ports and its self-loop count, where a port is an int, the edge
index of a wire or ``~v`` for the open wire of boundary ``v``.  In that
table every Z/X spider of more than 3 ports is a chain of 3-port nodes of
the same colour (spider fusion read backwards: exact, no scalar; its
self-loops stay on the first node); fused symmetriser towers otherwise leave
high-degree nodes on which greedy orders are much wider.  No copy of the
diagram is made.  A greedy search then picks a deterministic pairwise
contraction order that keeps intermediate ranks small.  It is
incremental: connected node pairs wait in a heap keyed by
(merged rank, cost exponent, node keys).  An entry is checked when popped
and dropped unless both nodes are alive, still neighbours and scored as
stored; a merge pushes only the pairs whose score it changed, so a step
costs O(deg log E) rather than a rescan of every node and edge.  The
search keeps each node's port list and writes the program as it merges:
for each step, both operands' axis permutations and the (m, s, n) matrix
shape, so that :func:`eval_diagram` runs a step as
``a.transpose(pa).reshape(m, s) @ b.transpose(pb).reshape(s, n)`` with no
port lookups.  The :class:`ContractionPlan` carries the node table, the
order and that program.  Two modes:

* ``"exact"`` -- results are numpy object arrays holding
  :class:`ExactScalar`, bit-for-bit reproducible elements of Q(omega),
  omega = e^(i pi/4).  Inside the contraction a tensor is the
  :attr:`ExactScalar.omega` form spread over arrays: four slots ``A_0..A_3``
  (one per power of omega) and one positive int ``D``, so an entry is
  ``sum_k A_k * omega^k / D`` in lowest terms.  A slot holds an object
  array of Python ints, or ``None`` where that coefficient is zero in every
  entry; an all-zero tensor keeps one zero array, so its shape survives.
  Because omega^4 = -1, one step transposes each present slot of each
  operand once and makes one integer matmul for each pair of present
  slots (at most 16), folded onto four powers, after which all-zero
  results are dropped and the gcd of ``D`` and every coefficient is
  divided out.  Python ints do not overflow.  ``_contracted`` returns
  that form as the program leaves it (scalar folded in, axes in boundary
  order); :func:`eval_diagram` turns it into ExactScalar once, at the end,
  and the exact read-outs of :mod:`spinnet.su2` read it as it is.
* ``"float"`` -- an H-box or a spider phase on the pi/4 grid gives the
  exact tensor with each entry rounded once (phases 0 and pi give exactly 1
  and -1); a phase off the grid gives a complex factor.  A vertex tensor is
  float64 when every entry is real and complex128 otherwise; the result is
  complex128.

In both modes :func:`eval_diagram` builds the tensor of each distinct
(kind, phase, label, ports, self-loops) at its port count and shares it,
read-only, between the nodes that have it: once per process, for tensors of
at most 3 ports, and once per call for wider H-boxes.  Self-loops obey
the loop identities: one drops from a Z or X spider with no scalar, and k
on an H-box labelled c give 2^k, and 2^k - 1 + c at the all-ones corner.

Matrix convention: inputs index columns and outputs index rows; wire 0 is
the most significant bit on each side.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Optional

import numpy as np

from .exact import ExactScalar
from .graph import B, Diagram, H, VertexData, X, Z, pi_quarters

__all__ = [
    "Tensor",
    "ContractionPlan",
    "RankCapExceeded",
    "plan_contraction",
    "eval_diagram",
    "plug_basis",
]

class RankCapExceeded(RuntimeError):
    """Raised when no contraction order stays under the rank cap."""


# -- exact tensors over Z[omega] ------------------------------------------

# (coefficient arrays A_0..A_3, None where all zero; denominator D); see
# the module docstring.
_OmegaTensor = tuple[tuple[Optional[np.ndarray], ...], int]


def _reduced(coeffs, den: int) -> _OmegaTensor:
    """Drop all-zero coefficient arrays and divide the gcd of ``den`` and
    every coefficient out of both.  ``coeffs`` holds at least one array."""
    # Ufuncs return 0-d object arrays as bare ints; asarray undoes that.
    # A slot's gcd is 0 exactly when every entry is 0, and feeds the gcd with den.
    arrays = [None if c is None else np.asarray(c, dtype=object) for c in coeffs]
    gcds = [0 if c is None else math.gcd(*c.ravel().tolist()) for c in arrays]
    kept = [c if g else None for c, g in zip(arrays, gcds)]
    if not any(gcds):
        shape = next(c for c in arrays if c is not None).shape
        return (np.zeros(shape, dtype=object), None, None, None), 1
    g = math.gcd(den, *gcds)
    if g > 1:
        kept = [None if c is None else np.asarray(c // g, dtype=object) for c in kept]
        den //= g
    return tuple(kept), den


def _exact_factor(data: VertexData) -> Optional[ExactScalar]:
    """An H-box's label, e^(i pi phase) on the pi/4 grid, else None."""
    if data.kind == H:
        return data.label
    k = pi_quarters(data.phase)
    return None if k is None else ExactScalar.phase_quarter(k)


def _inv_sqrt2_power(n: int) -> ExactScalar:
    """(1/sqrt2)^n: 1/2^(n/2), or sqrt2/2^((n+1)/2) with sqrt2 = w - w^3."""
    if n % 2:
        return ExactScalar._from_omega((0, 1, 0, -1), 2 ** (n // 2 + 1))
    return ExactScalar._from_omega((1, 0, 0, 0), 2 ** (n // 2))


# The parities of 0..15, which begin the Thue-Morse sequence.
_PARITY = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0], dtype=np.intp)
_PARITY.flags.writeable = False


def _vertex_entries(kind: str, degree: int, c, s, loops: int = 0) -> tuple[list, np.ndarray]:
    """The distinct entry values of a Z, X or H tensor (as in
    :mod:`spinnet.graph`) with ``degree`` legs and ``loops`` self-loops, and
    its index pattern: entry ``i`` of the flattened tensor is
    ``values[pattern[i]]``.  ``c`` is an H-box's label or a spider's
    e^(i pi phase) and ``s`` the X normalisation (1/sqrt2)^degree, of any
    number type that adds to and multiplies ints.  A self-loop drops from a
    Z or X spider with no scalar (X: the trace's 2 cancels (1/sqrt2)^2); k
    loops on an H-box sum 2^k entries, so its all-ones corner is 2^k - 1 + c."""
    if kind == X:
        pattern = _PARITY[: 2 ** degree]
        for _ in range(degree - 4):  # one more leading wire per pass
            pattern = np.concatenate((pattern, 1 - pattern))
        return [s * (1 + c), s * (1 - c)], pattern
    pattern = np.zeros(2 ** degree, dtype=np.intp)
    if kind == Z:
        # origin + 2 * corner: at degree 0 the one entry is both, 1 + c
        pattern[0] = 1
        pattern[-1] += 2
        return [0, 1, c, 1 + c] if degree == 0 else [0, 1, c], pattern
    if kind == H:
        pattern[-1] = 1
        return [2 ** loops, 2 ** loops - 1 + c], pattern
    raise ValueError(f"no tensor for vertex kind {kind!r}")


def _omega_table(values) -> tuple[np.ndarray, int]:
    """The :attr:`ExactScalar.omega` forms of ``values`` over one
    denominator: a (4, len(values)) object array of ints, whose row k holds
    the omega^k coefficients, and that denominator."""
    forms = [x.omega for x in values]
    den = math.lcm(*(d for _, d in forms))
    return np.array([[a[k] * (den // d) for a, d in forms] for k in range(4)], dtype=object), den


def _omega_vertex(data: VertexData, degree: int, loops: int = 0) -> _OmegaTensor:
    """The vertex tensor over Z[omega]: the exact values' coefficient tables,
    over one denominator, indexed by the pattern."""
    c = _exact_factor(data)
    if c is None:
        raise ValueError(f"phase {data.phase}*pi requires float mode")
    values, pattern = _vertex_entries(data.kind, degree, c, _inv_sqrt2_power(degree), loops)
    table, den = _omega_table(map(ExactScalar._coerce, values))
    return _reduced(list(table[:, pattern].reshape((4,) + (2,) * degree)), den)


def _omega_contract(a: _OmegaTensor, b: _OmegaTensor, pa: list[int], pb: list[int],
                    m: int, s: int, n: int, shape: list[int]) -> _OmegaTensor:
    """One program step (see :data:`_Step`): each present slot of ``a`` and
    ``b`` transposed and reshaped once, then one integer matmul per pair of
    present slots, folded by omega^4 = -1, each result reshaped to ``shape``."""
    ca = [None if c is None else c.transpose(pa).reshape(m, s) for c in a[0]]
    cb = [None if c is None else c.transpose(pb).reshape(s, n) for c in b[0]]
    out: list = [None] * 4
    for i, x in enumerate(ca):
        if x is None:
            continue
        for j, y in enumerate(cb):
            if y is None:
                continue
            p = x @ y
            k, neg = (i + j) % 4, i + j >= 4
            if out[k] is None:
                out[k] = -p if neg else p
            elif neg:
                out[k] -= p
            else:
                out[k] += p
    return _reduced([None if c is None else c.reshape(shape) for c in out], a[1] * b[1])


def _exact_array(t: _OmegaTensor) -> np.ndarray:
    """Object array of ExactScalar, equal values sharing one object."""
    coeffs, den = t
    shape = next(c for c in coeffs if c is not None).shape
    size = math.prod(shape)
    cache: dict[tuple, ExactScalar] = {}
    flat = np.empty(size, dtype=object)
    columns = (itertools.repeat(0, size) if c is None else c.ravel().tolist() for c in coeffs)
    for n, key in enumerate(zip(*columns)):
        x = cache.get(key)
        if x is None:
            x = cache[key] = ExactScalar._from_omega(key, den)
        flat[n] = x
    return flat.reshape(shape)


def _float_vertex(data: VertexData, degree: int, loops: int = 0) -> np.ndarray:
    """The vertex tensor in floats: the exact values each rounded once, or
    off the pi/4 grid those of a complex ``c`` and a float ``s``."""
    c, s = _exact_factor(data), _inv_sqrt2_power(degree)
    if c is None:
        c, s = complex(np.exp(1j * np.pi * float(data.phase))), s.to_complex().real
    values, pattern = _vertex_entries(data.kind, degree, c, s, loops)
    values = [complex(v) for v in values]
    if all(v.imag == 0 for v in values):
        values = [v.real for v in values]
    return np.array(values)[pattern].reshape((2,) * degree)


# -- planning -------------------------------------------------------------


# One program step, [pa, pb, m, s, n, shape], for the step (k1, k2) in the
# same place of ``ContractionPlan.steps``: k2 folds into k1 as the (m, s) @
# (s, n) product of k1's axes ordered by pa (free, then shared) and k2's by
# pb (shared, then free), reshaped to ``shape``.  Lists, not tuples: steps
# made as tuples read about 0.4 MB more peak RSS on every benchmark workload,
# likely because CPython keeps freed tuples of each size on a free list.
_Step = list


@dataclass
class ContractionPlan:
    """The network to contract, a deterministic pairwise merge order and
    the program that runs it.

    ``nodes`` maps each node key to ``(vertex, ports, self_loops)``.  Keys
    are vertex ids, ``~a`` for the identity node on a wire between
    boundaries ``a`` and ``b`` (``a < b``), and fresh ids from
    ``d._next_id`` up for chain nodes.  A port is an int: the edge index of a
    wire to another node, a fresh index from ``len(d.edges)`` up for a chain
    link, or ``~v`` for the open wire of boundary ``v``.  Each Z/X spider
    with more than 3 ports, taken in the order of its first port, is a chain
    (spider fusion read backwards: exact, as the X normalisation cancels
    along each link): it keeps its record, its self-loops and its first two
    ports plus a link; each new phase-0 node of its colour takes the next
    port and two links, the last one the final two ports and a link.  A
    self-loop takes no port, adds no rank and is never chained; it is
    counted in ``self_loops``, as every tensor is built at its port count
    (see :func:`_vertex_entries`).
    ``program`` is ``(one _Step per step, perm)``, where ``perm`` puts the
    last tensor's axes in the diagram's boundary order, inputs then outputs;
    the search writes each step as it makes the merge.  ``diagram`` is the
    diagram the plan was made for.
    """

    steps: list[tuple[int, int]] = field(default_factory=list)  # (k1, k2), k1 < k2: k2 folds into k1
    peak_rank: int = 0
    cost: int = 0  # sum over steps of 2**(number of distinct indices involved)
    nodes: dict[int, tuple[VertexData, tuple[int, ...], int]] = field(default_factory=dict)
    program: tuple[list[_Step], list[int]] = field(default_factory=lambda: ([], []))
    diagram: Optional[Diagram] = None


def _node_table(d: Diagram) -> dict[int, tuple[VertexData, tuple[int, ...], int]]:
    """The ``nodes`` of a plan for ``d``; see :class:`ContractionPlan`."""
    ports: dict[int, list[int]] = {v: [] for v, data in d.vertices.items() if data.kind != B}
    loops: Counter = Counter()
    for i, (a, b) in enumerate(d.edges):
        if a == b and a in ports:
            loops[a] += 1
        elif a in ports and b in ports:
            ports[a].append(i)
            ports[b].append(i)
        elif a in ports:
            ports[a].append(~b)
        elif b in ports:
            ports[b].append(~a)
        else:
            ports[~min(a, b)] = [~a, ~b]
    # A wire between boundaries is the identity: a 2-legged Z-spider.
    nodes = {k: (d.vertices[k] if k >= 0 else VertexData(Z), tuple(p), loops[k]) for k, p in ports.items()}
    # Chain each Z/X spider of more than 3 ports, in the order of first ports.
    wide = {k for k, p in ports.items() if len(p) > 3 and d.vertices[k].kind in (Z, X)}
    if not wide:
        return nodes
    key, link = d._next_id, len(d.edges)
    for v in dict.fromkeys(u for a, b in d.edges if a != b for u in (a, b) if u in wide):
        data, p, n = nodes[v]
        spider = VertexData(data.kind)
        nodes[v] = data, (p[0], p[1], link), n
        for q in p[2:-2]:
            nodes[key] = spider, (q, link, link + 1), 0
            key, link = key + 1, link + 1
        nodes[key] = spider, (p[-2], p[-1], link), 0
        key, link = key + 1, link + 1
    return nodes


def plan_contraction(d: Diagram, rank_cap: Optional[int] = None, mode: str = "exact") -> ContractionPlan:
    """Tabulate ``d``'s nodes once, with every Z/X spider of more than 3
    ports split into a chain of 3-port nodes (see :class:`ContractionPlan`),
    and order their merges, writing the program step of each merge as it is
    made.  :func:`eval_diagram` contracts that node table as it stands by
    running the program; no copy of ``d`` is made.  On simplified 6j
    networks the split keeps the peak rank near the unsimplified one
    (6j(2,1,2,2,1,2): 22 without it, 14 with it).

    At each step the pair of connected nodes whose merge has the smallest
    resulting rank is chosen (ties: smaller merge cost, then smallest node
    keys); the merged node takes the smaller key.  When no two nodes share
    an edge, the smallest key is merged with the node of least rank (ties:
    smallest key) as an outer product, so a plan leaves one node.  Raises
    :class:`RankCapExceeded` if the peak rank exceeds the cap, as one node's
    port count may already do; the cap is ``rank_cap``, else the mode's
    ``rank_cap`` in ``_MODES`` (24 exact, 28 float).  An unknown mode or a
    negative cap raises ValueError.  Self-loops add no rank: each node's
    tensor is built at its port count (see :func:`_vertex_entries`).

    The search is incremental: every connected pair has an entry in a heap
    keyed by its score, the pair's merged rank and cost exponent.  A popped
    entry is taken only if both nodes are alive, still share an edge and
    still have the stored score; otherwise it is stale and dropped.  A merge
    of k2 into k1 changes only the scores of k1's pairs: all of them if k1's
    port count changed, else only those with k2's former neighbours, and
    just those are pushed again.  So every connected pair has an entry at
    its current score, the first entry to pass the check is the best pair,
    and a step costs O(deg log E) instead of a scan over every node and edge.
    Each node's port list is kept through the search, so the program step
    of a merge (axis permutations and matrix shape) is written as the
    merge is made, and the last node's ports give the boundary permutation.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    cap = _MODES[mode].rank_cap if rank_cap is None else rank_cap
    if cap < 0:
        raise ValueError(f"rank cap {cap} is negative")
    plan = ContractionPlan(nodes=_node_table(d), diagram=d)
    ports: dict[int, list[int]] = {}  # node -> its ports, in its tensor's axis order
    nbr: dict[int, dict[int, int]] = {}  # node -> {neighbour: shared edges}
    owner: dict[int, int] = {}  # port -> first node seen holding it
    for k, (_, p, _) in plan.nodes.items():
        ports[k] = list(p)
        nbr[k] = {}
        for i in p:  # an edge index is in two nodes, an open port in one
            j = owner.setdefault(i, k)
            if j != k:
                nbr[k][j] = nbr[j][k] = nbr[k].get(j, 0) + 1

    # A heap entry is (merged rank, cost exponent, a, b) with a < b; the
    # exponent counts the distinct indices of the step, which costs 2 ** it.
    heap = []
    for a, row in nbr.items():
        for b, shared in row.items():
            if a < b:
                width = len(ports[a]) + len(ports[b])
                heap.append((width - 2 * shared, width - shared, a, b))
    heapify(heap)
    plan.peak_rank = max(map(len, ports.values()), default=0)
    if plan.peak_rank > cap:
        raise RankCapExceeded(f"initial vertex rank {plan.peak_rank} exceeds cap {cap}")
    program: list[_Step] = []
    while len(ports) > 1:
        while heap:
            merged_rank, exponent, k1, k2 = heappop(heap)
            shared = nbr[k1].get(k2) if k1 in nbr else None
            if shared is not None:  # both alive and still neighbours
                width = len(ports[k1]) + len(ports[k2])
                if width - 2 * shared == merged_rank and width - shared == exponent:
                    break
        else:
            # No pair shares an edge: outer products with the smallest key.
            k1 = min(ports)
            k2 = min((k for k in ports if k != k1), key=lambda k: (len(ports[k]), k))
            merged_rank = exponent = len(ports[k1]) + len(ports[k2])
        if merged_rank > cap:
            raise RankCapExceeded(
                f"contraction needs intermediate rank {merged_rank} > cap {cap}; "
                "raise the cap (--rank-cap) or simplify the diagram first"
            )
        plan.steps.append((k1, k2))
        plan.peak_rank = max(plan.peak_rank, merged_rank)
        plan.cost += 2 ** exponent
        # k2 folds into k1: k1's free axes, then k2's, in their own orders.
        p1, at2 = ports[k1], {p: j for j, p in enumerate(ports.pop(k2))}
        free1, shared1, shared2 = [], [], []
        for i, p in enumerate(p1):
            j = at2.pop(p, None)
            if j is None:
                free1.append(i)
            else:
                shared1.append(i)
                shared2.append(j)
        ports[k1] = [p1[i] for i in free1] + list(at2)
        program.append([free1 + shared1, shared2 + list(at2.values()), 2 ** len(free1),
                        2 ** len(shared1), 2 ** len(at2), [2] * merged_rank])
        row = nbr[k1]
        row.pop(k2, None)
        moved = nbr.pop(k2)
        moved.pop(k1, None)
        for j, shared in moved.items():
            del nbr[j][k2]
            row[j] = nbr[j][k1] = row.get(j, 0) + shared
        # Only pairs of k1 can have a new score: all of them if k1's port
        # count changed, else only those whose shared count did.
        n1 = len(ports[k1])
        for j in row if n1 != len(p1) else moved:
            shared = row[j]
            width = n1 + len(ports[j])
            a, b = (k1, j) if k1 < j else (j, k1)
            heappush(heap, (width - 2 * shared, width - shared, a, b))
    last = next(iter(ports.values()), [])
    plan.program = program, [last.index(~v) for v in (*d.inputs, *d.outputs)]
    return plan


# -- evaluation -----------------------------------------------------------


@dataclass
class Tensor:
    """Evaluation result: data axes follow ``inputs + outputs`` wire order."""

    data: np.ndarray
    n_inputs: int
    n_outputs: int
    mode: str

    def to_matrix(self) -> np.ndarray:
        """Matrix with rows indexed by outputs, columns by inputs (wire 0 = MSB)."""
        ni, no = self.n_inputs, self.n_outputs
        perm = list(range(ni, ni + no)) + list(range(ni))
        return np.transpose(self.data, axes=perm).reshape(2 ** no, 2 ** ni)

    def scalar_value(self):
        if self.n_inputs or self.n_outputs:
            raise ValueError("tensor has open wires")
        return self.data.item()


class _Exact:
    """Contraction steps over ``_OmegaTensor``; results are ExactScalar."""

    rank_cap = 24
    vertex = staticmethod(_omega_vertex)
    contract = staticmethod(_omega_contract)

    @staticmethod
    def freeze(t: _OmegaTensor) -> _OmegaTensor:
        for c in t[0]:
            if c is not None:
                c.flags.writeable = False
        return t

    @staticmethod
    def finish(t: _OmegaTensor, scalar: ExactScalar, perm: list[int]) -> _OmegaTensor:
        # t, its axes in the order perm, as a column times the scalar as a 1 x 1 matrix
        shape = next(c for c in t[0] if c is not None).shape
        return _omega_contract(t, _reduced(*scalar.omega), perm, [], -1, 1, 1, shape)


class _Float:
    """Contraction steps over float64 and complex128 arrays; the result is
    complex128."""

    rank_cap = 28
    vertex = staticmethod(_float_vertex)

    @staticmethod
    def contract(a: np.ndarray, b: np.ndarray, pa, pb, m, s, n, shape) -> np.ndarray:
        return (a.transpose(pa).reshape(m, s) @ b.transpose(pb).reshape(s, n)).reshape(shape)

    @staticmethod
    def freeze(t: np.ndarray) -> np.ndarray:
        t.flags.writeable = False
        return t

    @staticmethod
    def finish(t: np.ndarray, scalar: ExactScalar, perm: list[int]) -> np.ndarray:
        t = t * scalar.to_complex()
        return np.transpose(t, axes=perm) if perm else t


_MODES = {"exact": _Exact, "float": _Float}

# Read-only vertex tensors of at most 3 ports (8 entries), shared by every
# contraction in the process; see _contracted.
_VERTEX_CACHE: dict[tuple, object] = {}
_VERTEX_CACHE_MAX = 1024


def _contracted(d: Diagram, mode: str, plan: Optional[ContractionPlan] = None):
    """The tensor of ``d`` as the program leaves it, with the diagram scalar
    folded in and the axes in boundary order: an ``_OmegaTensor`` in exact
    mode, a complex128 array in float mode.  Arguments as in
    :func:`eval_diagram`."""
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    ops = _MODES[mode]
    if plan is None:
        plan = plan_contraction(d, mode=mode)
    elif plan.diagram is not d:  # its node table would be contracted in place of d's
        raise ValueError("the plan was made for another diagram")
    tensors = {}
    # One read-only tensor per distinct mode, vertex, port count and self-loop
    # count; type(phase) keeps a float phase from reusing the exact tensor of
    # an equal Fraction, which hashes the same.  Tensors of at most 3 ports
    # (every Z/X node and every Hadamard) are kept for the process, wider
    # H-boxes for this call; a full cache is cleared.
    built: dict[tuple, object] = {}
    for k, (data, ports, loops) in plan.nodes.items():
        key = (mode, data.kind, type(data.phase), data.phase, data.label, len(ports), loops)
        cache = _VERTEX_CACHE if len(ports) <= 3 else built
        t = cache.get(key)
        if t is None:
            if len(cache) >= _VERTEX_CACHE_MAX:
                cache.clear()
            t = cache[key] = ops.freeze(ops.vertex(data, len(ports), loops))
        tensors[k] = t
    steps, perm = plan.program
    for (k1, k2), step in zip(plan.steps, steps):
        t1, t2 = tensors.pop(k1), tensors.pop(k2)
        tensors[k1] = ops.contract(t1, t2, *step)
    # A plan leaves one tensor; a diagram with no nodes is a 0-legged H-box labelled 1.
    t, = tensors.values() or [ops.vertex(VertexData(H, label=ExactScalar.one()), 0)]
    return ops.finish(t, d.scalar, perm)


def eval_diagram(d: Diagram, mode: str = "exact", plan: Optional[ContractionPlan] = None) -> Tensor:
    """Contract a diagram to its tensor.

    Builds a tensor for each node of ``plan.nodes`` and runs
    ``plan.program``: each step is one matrix product of the two operands,
    transposed and reshaped as the program says (in exact mode, one for
    each pair of present omega slots), with no port lookups.  Without a
    plan, :func:`plan_contraction` makes one for ``d`` under the default
    cap; a plan is the one place a rank cap is given.  A given plan must
    have been made for ``d`` itself (raises ValueError otherwise).  In exact
    mode the entries are :class:`ExactScalar`, and ``.data.astype(complex)``
    rounds them; float mode returns complex128.  The result axes are
    ordered inputs-then-outputs.
    """
    t = _contracted(d, mode, plan)
    return Tensor(_exact_array(t) if mode == "exact" else t, len(d.inputs), len(d.outputs), mode)


# -- basis plugging -------------------------------------------------------


def plug_basis(d: Diagram, assignment: dict[int, int]) -> Diagram:
    """Plug computational basis states/effects into boundary wires.

    ``assignment`` maps boundary vertex ids to bits.  Each plugged boundary
    becomes a phase-0 (bit 0) or phase-pi (bit 1) X-spider, i.e. the
    unnormalised state sqrt(2)|0> or sqrt(2)|1>.
    """
    out = d.copy()
    for v, bit in assignment.items():
        if v not in out.vertices or out.vertices[v].kind != B:
            raise ValueError(f"vertex {v} is not a boundary")
        if bit not in (0, 1):
            raise ValueError(f"bit for wire {v} must be 0 or 1")
        out.vertices[v] = VertexData(X, Fraction(bit))
        out.inputs = [w for w in out.inputs if w != v]
        out.outputs = [w for w in out.outputs if w != v]
    return out
