"""Tensor-network evaluation of diagrams.

Every vertex becomes a small tensor (one binary index per incident wire);
edges are contractions.  :func:`plan_contraction` splits every Z/X spider
of degree > 3 into a chain of degree-3 spiders of the same colour (spider
fusion read backwards: exact, no scalar), on a copy; fused symmetriser
towers otherwise leave high-degree nodes on which greedy orders are much
wider.  It tabulates the copy's nodes once: each node's vertex, its ports
and its self-loop count, where a port is an int, the edge index of a wire
or ``~v`` for the open wire of boundary ``v``.  A greedy search then picks a
deterministic pairwise contraction order that keeps intermediate ranks
small.  It is incremental: connected node pairs wait in a heap keyed by
(merged rank, step cost, node keys), each entry stamped with when its two
nodes last merged; a merge re-scores only the pairs of the merged node, and
an entry whose stamps have moved is dropped when popped, so a step costs
O(deg log E) rather than a rescan of every node and edge.  The search keeps
each node's port list and writes the program as it merges: for each step,
both operands' axis permutations and the (m, s, n) matrix shape, so that
:func:`eval_diagram` runs a step as ``a.transpose(pa).reshape(m, s) @
b.transpose(pb).reshape(s, n)`` with no port lookups.  The
:class:`ContractionPlan` carries the node table, the order and that
program.  Two modes:

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
  divided out.  Python ints do not overflow.  Results become ExactScalar
  once, at the end of :func:`eval_diagram`.
* ``"float"`` -- complex128 arrays (needed for irrational phases).

In both modes :func:`eval_diagram` builds the tensor of each distinct
(kind, phase, label, degree, self-loops) once per call and shares it,
read-only, between the nodes that have it.  A node with self-loops is built
at its full degree and traced on its trailing axes, which is exact because
every Z, X and H tensor is symmetric in its legs.

Matrix convention: inputs index columns and outputs index rows; wire 0 is
the most significant bit on each side.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .exact import ExactScalar
from .graph import B, Diagram, H, VertexData, X, Z, phase_is_exact

__all__ = [
    "Tensor",
    "ContractionPlan",
    "RankCapExceeded",
    "vertex_tensor",
    "plan_contraction",
    "eval_diagram",
    "to_matrix",
    "plug_basis",
]

DEFAULT_RANK_CAP_EXACT = 24
DEFAULT_RANK_CAP_FLOAT = 28


class RankCapExceeded(RuntimeError):
    """Raised when no contraction order stays under the rank cap."""


def _rank_cap(mode: str, rank_cap: Optional[int]) -> int:
    """The explicit cap, else ``SPINNET_RANK_CAP``, else the mode default.

    Raises ValueError, naming where the cap came from, if the environment
    variable is not an integer or the cap is negative.
    """
    if rank_cap is not None:
        if rank_cap < 0:
            raise ValueError(f"rank cap {rank_cap} is negative")
        return rank_cap
    env = os.environ.get("SPINNET_RANK_CAP")
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"SPINNET_RANK_CAP={env!r} is not an integer") from None
        if cap < 0:
            raise ValueError(f"SPINNET_RANK_CAP={env!r} is negative")
        return cap
    return DEFAULT_RANK_CAP_EXACT if mode == "exact" else DEFAULT_RANK_CAP_FLOAT


# -- exact tensors over Z[omega] ------------------------------------------

# (coefficient arrays A_0..A_3, None where all zero; denominator D); see
# the module docstring.
_OmegaTensor = tuple[tuple[Optional[np.ndarray], ...], int]


def _reduced(coeffs, den: int) -> _OmegaTensor:
    """Drop all-zero coefficient arrays and divide the gcd of ``den`` and
    every coefficient out of both.  ``coeffs`` holds at least one array."""
    # Ufuncs return 0-d object arrays as bare ints; asarray undoes that.
    arrays = [None if c is None else np.asarray(c, dtype=object) for c in coeffs]
    kept = [c if c is not None and c.any() else None for c in arrays]
    if not any(c is not None for c in kept):
        shape = next(c for c in arrays if c is not None).shape
        return (np.zeros(shape, dtype=object), None, None, None), 1
    g = den
    for c in kept:
        if g == 1:
            break
        if c is not None:
            g = math.gcd(g, *c.ravel().tolist())
    if g > 1:
        kept = [None if c is None else np.asarray(c // g, dtype=object) for c in kept]
        den //= g
    return tuple(kept), den


def _omega_vertex(data: VertexData, degree: int) -> _OmegaTensor:
    """The vertex tensor built directly over Z[omega]."""
    shape = (2,) * degree
    ones = (1,) * degree
    if data.kind in (Z, X):
        if not phase_is_exact(data.phase):
            raise ValueError(f"phase {data.phase}*pi requires float mode")
        ph = ExactScalar.phase_quarter(int(4 * Fraction(data.phase)))
    if data.kind == Z:
        coeffs = [np.zeros(shape, dtype=object) for _ in range(4)]
        coeffs[0][(0,) * degree] += 1
        for k, c in enumerate(ph.omega[0]):
            coeffs[k][ones] += c
        return _reduced(coeffs, 1)
    if data.kind == X:
        # (1/sqrt2)^deg (1 +- e^(i alpha pi)) by parity, over one denominator
        norm = ExactScalar.inv_sqrt2() ** degree
        (even, d_even), (odd, d_odd) = (norm * (1 + ph)).omega, (norm * (1 - ph)).omega
        den = math.lcm(d_even, d_odd)
        odd_parity = np.indices(shape).sum(axis=0) % 2 == 1
        coeffs = [
            np.where(odd_parity, odd[k] * (den // d_odd), even[k] * (den // d_even)).astype(object)
            for k in range(4)
        ]
        return _reduced(coeffs, den)
    if data.kind == H:
        label, den = data.label.omega
        coeffs = [np.full(shape, den if k == 0 else 0, dtype=object) for k in range(4)]
        for k in range(4):
            coeffs[k][ones] = label[k]
        return _reduced(coeffs, den)
    raise ValueError(f"no tensor for vertex kind {data.kind!r}")


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


def vertex_tensor(data: VertexData, degree: int, mode: str = "exact") -> np.ndarray:
    """The tensor of one vertex with the given number of incident wires."""
    if mode == "exact":
        return _exact_array(_omega_vertex(data, degree))
    if mode == "float":
        shape = (2,) * degree
        if data.kind == Z:
            t = np.zeros(shape, dtype=complex)
            t[(0,) * degree] += 1.0
            t[(1,) * degree] += np.exp(1j * np.pi * float(data.phase))
            return t
        if data.kind == X:
            ph = np.exp(1j * np.pi * float(data.phase))
            norm = (0.5 ** 0.5) ** degree
            t = np.empty(shape, dtype=complex)
            for idx in itertools.product((0, 1), repeat=degree):
                t[idx] = norm * (1 + ph if sum(idx) % 2 == 0 else 1 - ph)
            return t
        if data.kind == H:
            t = np.ones(shape, dtype=complex)
            t[(1,) * degree] = data.label.to_complex()
            return t
        raise ValueError(f"no tensor for vertex kind {data.kind!r}")
    raise ValueError(f"unknown mode {mode!r}")


# -- planning -------------------------------------------------------------


def _split_spiders(d: Diagram) -> Diagram:
    """A copy of ``d`` in which every Z/X spider of degree > 3 is a chain of
    degree-3 spiders of the same colour; ``d`` itself if there is none.

    This is spider fusion read backwards, so the value is unchanged and no
    scalar is added: the X normalisation (1/sqrt2)^degree cancels along each
    link.  The original vertex keeps its phase and its first two wire ends;
    each new phase-0 vertex takes the next end and the last one the final
    two, in edge order.  ``d`` is never mutated.
    """
    degree = Counter(itertools.chain.from_iterable(d.edges))
    ends: dict[int, list[tuple[int, int]]] = {  # spider -> [(edge index, side)]
        v: [] for v, n in degree.items() if n > 3 and d.vertices[v].kind in (Z, X)
    }
    if not ends:
        return d
    for i, (a, b) in enumerate(d.edges):
        if a in ends:
            ends[a].append((i, 0))
        if b in ends:
            ends[b].append((i, 1))
    out = d.copy()
    for v, es in ends.items():
        add = out.add_z if d.vertices[v].kind == Z else out.add_x
        prev = v
        for n, (i, side) in enumerate(es[2:], start=3):
            if n < len(es):  # every end but the last opens a new link
                w = add()
                out.edges.append((prev, w))
                prev = w
            a, b = out.edges[i]
            out.edges[i] = (prev, b) if side == 0 else (a, prev)
    return out


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
    are vertex ids of the split diagram (see :func:`_split_spiders`), and
    ``~a`` for the identity node on a wire between boundaries ``a`` and
    ``b`` (``a < b``).  A port is an int: the edge index of a wire to
    another node, or ``~v`` for the open wire of boundary ``v``.  A self-loop
    takes no port; it is counted in ``self_loops``.  ``program`` is
    ``(one _Step per step, perm)``, where ``perm`` puts the last tensor's
    axes in the diagram's boundary order, inputs then outputs; the search
    writes each step as it makes the merge.  ``diagram`` is the diagram the
    plan was made for, before the split.
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
    return {k: (d.vertices[k] if k >= 0 else VertexData(Z), tuple(p), loops[k]) for k, p in ports.items()}


def plan_contraction(d: Diagram, rank_cap: Optional[int] = None, mode: str = "exact") -> ContractionPlan:
    """Split ``d``'s spiders once, tabulate its nodes, and order their
    merges, writing the program step of each merge as it is made.

    The plan is made for the diagram with every Z/X spider of degree > 3
    split into a chain of degree-3 spiders (see :func:`_split_spiders`), and
    it carries that diagram's node table, which :func:`eval_diagram`
    contracts as it stands by running the program.  On simplified 6j
    networks the split keeps the peak rank near the unsimplified one
    (6j(2,1,2,2,1,2): 22 without it, 14 with it).

    At each step the pair of connected nodes whose merge has the smallest
    resulting rank is chosen (ties: smaller merge cost, then smallest node
    keys); the merged node takes the smaller key.  When no two nodes share
    an edge, the smallest key is merged with the node of least rank (ties:
    smallest key) as an outer product, so a plan leaves one node.  Raises
    :class:`RankCapExceeded` if the peak rank exceeds the cap, or the port
    count of a node does with its self-loops (the rank at which
    :func:`eval_diagram` builds its tensor).

    The search is incremental: every connected pair sits in a heap keyed by
    its score and stamped with the step count at which each of its nodes
    last merged.  A merge re-scores only the pairs of the merged node, and
    a popped entry whose stamps have moved is stale and dropped; no other
    pair's score can have changed, so the chosen pair is the best one.  A
    step costs O(deg log E) instead of a scan over every node and edge.
    Each node's port list is kept through the search, so the program step
    of a merge (axis permutations and matrix shape) is written as the
    merge is made, and the last node's ports give the boundary permutation.
    """
    cap = _rank_cap(mode, rank_cap)
    plan = ContractionPlan(nodes=_node_table(_split_spiders(d)), diagram=d)
    ports: dict[int, list[int]] = {}  # node -> its ports, in its tensor's axis order
    nbr: dict[int, dict[int, int]] = {}  # node -> {neighbour: shared edges}
    stamp: dict[int, int] = {}  # node -> number of steps made when it last merged
    owner: dict[int, int] = {}  # port -> first node seen holding it
    widest = 0  # eval_diagram builds each vertex tensor before it traces out self-loops
    for k, (_, p, loops) in plan.nodes.items():
        widest = max(widest, len(p) + 2 * loops)
        ports[k] = list(p)
        nbr[k] = {}
        stamp[k] = 0
        for i in p:  # an edge index is in two nodes, an open port in one
            j = owner.setdefault(i, k)
            if j != k:
                nbr[k][j] = nbr[j][k] = nbr[k].get(j, 0) + 1

    def entry(a: int, b: int) -> tuple[int, int, int, int, int, int]:
        """The heap entry of the connected pair ``a``, ``b``: its score, with
        the smaller key first, then the two stamps it was scored at."""
        if a > b:
            a, b = b, a
        width, shared = len(ports[a]) + len(ports[b]), nbr[a][b]
        return (width - 2 * shared, 2 ** (width - shared), a, b, stamp[a], stamp[b])

    heap = [entry(a, b) for a in nbr for b in nbr[a] if a < b]
    heapq.heapify(heap)
    if widest > cap:
        raise RankCapExceeded(f"initial vertex rank {widest} exceeds cap {cap}")
    plan.peak_rank = max(map(len, ports.values()), default=0)
    program: list[_Step] = []
    while len(ports) > 1:
        while heap:
            merged_rank, step_cost, k1, k2, s1, s2 = heapq.heappop(heap)
            if stamp.get(k1) == s1 and stamp.get(k2) == s2:
                break
        else:
            # No pair shares an edge: outer products with the smallest key.
            k1 = min(ports)
            k2 = min((k for k in ports if k != k1), key=lambda k: (len(ports[k]), k))
            merged_rank = len(ports[k1]) + len(ports[k2])
            step_cost = 2 ** merged_rank
        if merged_rank > cap:
            raise RankCapExceeded(
                f"contraction needs intermediate rank {merged_rank} > cap {cap}; "
                "raise the cap (SPINNET_RANK_CAP) or simplify the diagram first"
            )
        plan.steps.append((k1, k2))
        plan.peak_rank = max(plan.peak_rank, merged_rank)
        plan.cost += step_cost
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
        del stamp[k2]
        stamp[k1] = len(plan.steps)
        nbr[k1].pop(k2, None)
        for j, shared in nbr.pop(k2).items():
            if j != k1:
                del nbr[j][k2]
                nbr[k1][j] = nbr[j][k1] = nbr[k1].get(j, 0) + shared
        for j in nbr[k1]:
            heapq.heappush(heap, entry(k1, j))
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

    def to_numpy(self) -> np.ndarray:
        """complex128 view of the data."""
        if self.mode == "float":
            return self.data
        flat = np.array(
            [x.to_complex() if isinstance(x, ExactScalar) else complex(x) for x in self.data.reshape(-1)],
            dtype=complex,
        )
        return flat.reshape(self.data.shape)

    def to_matrix(self) -> np.ndarray:
        """Matrix with rows indexed by outputs, columns by inputs (wire 0 = MSB)."""
        ni, no = self.n_inputs, self.n_outputs
        perm = list(range(ni, ni + no)) + list(range(ni))
        return np.transpose(self.data, axes=perm).reshape(2 ** no, 2 ** ni)

    def scalar_value(self):
        if self.n_inputs or self.n_outputs:
            raise ValueError("tensor has open wires")
        return self.data.item()


def _trace_trailing(a: np.ndarray, loops: int) -> np.ndarray:
    """Trace out ``loops`` self-loops on the trailing axes of ``a``, joining
    axis ``n + i`` to axis ``n + loops + i``; exact for the Z, X and H
    tensors, which are symmetric in their legs."""
    n, side = a.ndim - 2 * loops, 2 ** loops
    return np.trace(a.reshape(2 ** n, side, side), axis1=1, axis2=2).reshape((2,) * n)


class _Exact:
    """Contraction steps over ``_OmegaTensor``; results are ExactScalar."""

    vertex = staticmethod(_omega_vertex)
    contract = staticmethod(_omega_contract)

    @staticmethod
    def trace(t: _OmegaTensor, loops: int) -> _OmegaTensor:
        coeffs, den = t
        return _reduced([None if c is None else _trace_trailing(c, loops) for c in coeffs], den)

    @staticmethod
    def freeze(t: _OmegaTensor) -> _OmegaTensor:
        for c in t[0]:
            if c is not None:
                c.flags.writeable = False
        return t

    @staticmethod
    def finish(t: _OmegaTensor, scalar: ExactScalar) -> np.ndarray:
        # t as a column times the scalar as a 1 x 1 matrix
        shape = next(c for c in t[0] if c is not None).shape
        s = _reduced(*scalar.omega)
        return _exact_array(_omega_contract(t, s, list(range(len(shape))), [], -1, 1, 1, shape))


class _Float:
    """Contraction steps over complex128 arrays."""

    trace = staticmethod(_trace_trailing)

    @staticmethod
    def vertex(data: VertexData, degree: int) -> np.ndarray:
        return vertex_tensor(data, degree, "float")

    @staticmethod
    def contract(a: np.ndarray, b: np.ndarray, pa, pb, m, s, n, shape) -> np.ndarray:
        return (a.transpose(pa).reshape(m, s) @ b.transpose(pb).reshape(s, n)).reshape(shape)

    @staticmethod
    def freeze(t: np.ndarray) -> np.ndarray:
        t.flags.writeable = False
        return t

    @staticmethod
    def finish(t: np.ndarray, scalar: ExactScalar) -> np.ndarray:
        return t * scalar.to_complex()


_MODES = {"exact": _Exact, "float": _Float}


def eval_diagram(
    d: Diagram,
    mode: str = "exact",
    plan: Optional[ContractionPlan] = None,
    rank_cap: Optional[int] = None,
) -> Tensor:
    """Contract a diagram to its tensor.

    Builds a tensor for each node of ``plan.nodes`` and runs
    ``plan.program``: each step is one matrix product of the two operands,
    transposed and reshaped as the program says (in exact mode, one for
    each pair of present omega slots), with no port lookups.  Without a
    plan, :func:`plan_contraction` makes one for ``d``.  A given plan must
    have been made for ``d`` itself (raises ValueError otherwise).  In exact
    mode the entries are :class:`ExactScalar`; float mode returns
    complex128.  The result axes are ordered inputs-then-outputs.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    ops = _MODES[mode]
    if plan is None:
        plan = plan_contraction(d, rank_cap=rank_cap, mode=mode)
    elif plan.diagram is not d:  # its node table would be contracted in place of d's
        raise ValueError("the plan was made for another diagram")
    tensors = {}
    # One read-only tensor per distinct vertex and self-loop count; type(phase)
    # keeps a float phase from reusing the exact tensor of an equal Fraction,
    # which hashes the same.
    built: dict[tuple, object] = {}
    for k, (data, ports, loops) in plan.nodes.items():
        key = (data.kind, type(data.phase), data.phase, data.label, len(ports), loops)
        t = built.get(key)
        if t is None:
            t = ops.vertex(data, len(ports) + 2 * loops)
            t = built[key] = ops.freeze(ops.trace(t, loops) if loops else t)
        tensors[k] = t
    steps, perm = plan.program
    for (k1, k2), step in zip(plan.steps, steps):
        t1, t2 = tensors.pop(k1), tensors.pop(k2)
        tensors[k1] = ops.contract(t1, t2, *step)
    # A plan leaves one tensor; a diagram with no nodes is a 0-legged H-box labelled 1.
    t, = tensors.values() or [ops.vertex(VertexData(H, label=ExactScalar.one()), 0)]
    t = ops.finish(t, d.scalar)
    return Tensor(np.transpose(t, axes=perm) if perm else t, len(d.inputs), len(d.outputs), mode)


def to_matrix(d: Diagram, mode: str = "exact", **kw) -> np.ndarray:
    """Evaluate and reshape to the (outputs x inputs) matrix."""
    return eval_diagram(d, mode=mode, **kw).to_matrix()


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
