"""In-memory span tracer that instruments spinnet's layers from outside.

Each layer is timed by wrapping its public functions where callers look
them up (module attributes and class attributes), so the library itself
carries no tracing code.  A span records name, start, end, parent and
thread, plus the CPU time its thread and the whole process spent inside it.
``verify`` runs its cases on a thread pool, so a span opened on a thread
with no open span of its own is parented to the innermost span open on the
thread that installed the tracer.

Self time is a span's time minus its children's.  It is counted in CPU
seconds: under the interpreter lock a pool thread's wall-clock span also
holds the time it waited for other threads, so wall-clock self times would
add up to more than the pass took.  For a span with children on other
threads (``cli.verify``), self time is the process CPU time inside it minus
the self time of all its descendants.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from fractions import Fraction
from typing import Callable, Iterable, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "cpu", "proc", "parent", "thread", "attrs")

    def __init__(self, sid: int, name: str, parent: Optional[int], thread: int):
        self.id = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.attrs: dict = {}
        self.start = self.end = time.perf_counter()
        self.cpu = time.thread_time()
        self.proc = time.process_time()

    def finish(self) -> None:
        self.end = time.perf_counter()
        self.cpu = time.thread_time() - self.cpu
        self.proc = time.process_time() - self.proc

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Collects spans in memory; thread-safe."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()

    def open(self, name: str) -> Span:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1].id
            else:
                home = self._stacks.get(self._home)
                parent = home[-1].id if home else None
            span = Span(next(self._ids), name, parent, tid)
            stack.append(span)
            self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.finish()
        with self._lock:
            stack = self._stacks[span.thread]
            if stack and stack[-1] is span:
                stack.pop()
            else:  # an exception unwound past an unclosed child
                stack.remove(span)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def self_times(self) -> dict[int, float]:
        """Span id -> self time in CPU seconds (see the module docstring)."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[int, float] = {}

        def visit(s: Span) -> float:
            """Fills ``out`` for s's subtree; returns its descendants' self time."""
            below = 0.0
            same_thread = 0.0
            for c in children.get(s.id, ()):
                below += visit(c)
                if c.thread == s.thread:
                    same_thread += c.cpu
            if all(c.thread == s.thread for c in children.get(s.id, ())):
                out[s.id] = s.cpu - same_thread
            else:
                out[s.id] = s.proc - below
            return below + out[s.id]

        for s in self.spans:
            if s.parent is None:
                visit(s)
        return out


# -- what each wrapped call records ---------------------------------------


def _fraction_bits(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _contract_attrs(args, kwargs, result) -> dict:
    plan = kwargs.get("plan", args[2] if len(args) > 2 else None)
    attrs = {"mode": result.mode, "entries": int(result.data.size)}
    if plan is not None:
        attrs["cost"] = plan.cost
    if result.mode == "exact":
        attrs["bits"] = max(
            (_fraction_bits(q)
             for x in result.data.reshape(-1)
             for q in (x.re_rat, x.re_sqrt2, x.im_rat, x.im_sqrt2)),
            default=0,
        )
    return attrs


def _plan_attrs(args, kwargs, plan) -> dict:
    return {"cost": plan.cost, "peak_rank": plan.peak_rank}


def _simplify_attrs(args, kwargs, result) -> dict:
    d_in = args[0] if args else kwargs["d"]
    d_out, trace = result
    return {"v_in": len(d_in.vertices), "v_out": len(d_out.vertices), "steps": len(trace)}


def _build_attrs(args, kwargs, result) -> dict:
    d = result[0] if isinstance(result, tuple) else result
    return {"vertices": len(d.vertices)}


def _text_bytes(args, kwargs, result) -> dict:
    text = result if isinstance(result, str) else (args[0] if args else "")
    return {"bytes": len(text)}


# (span name, attrs hook, [(module, attribute), ...]).  Targets missing from
# the library are skipped and reported, so a later refactor that renames a
# function leaves its metric at zero instead of breaking the run.
_BUILD_FUNCTIONS = ("network_6j", "vertex_3jm", "vertex_4jm", "theta_network", "loop_network",
             "symmetriser", "cswap_gadget", "crown", "yutsis_link", "plug_vertex_arguments")
_ORACLES = ("w3jm", "w4jm", "w6j", "invariant_loop", "invariant_theta",
            "yutsis_matrix_3", "yutsis_matrix_4")

TARGETS: list[tuple[str, Optional[Callable], list[tuple[str, str]]]] = [
    ("tensor.contract", _contract_attrs,
     [("spinnet.tensor", "eval_diagram"), ("spinnet.cli", "eval_diagram"),
      ("spinnet.su2", "eval_diagram"), ("spinnet.rewrite", "eval_diagram")]),
    ("tensor.plan", _plan_attrs,
     [("spinnet.tensor", "plan_contraction"), ("spinnet.cli", "plan_contraction")]),
    ("tensor.to_matrix", None, [("spinnet.tensor", "Tensor.to_matrix")]),
    ("exact.to_radical", None, [("spinnet.exact", "ExactScalar.to_radical")]),
    ("su2.exact_matrix", None,
     [("spinnet.su2", "exact_matrix"), ("spinnet.cli", "exact_matrix")]),
    ("su2.correct", None,
     [("spinnet.su2", "corrected_spin_matrix"), ("spinnet.cli", "corrected_spin_matrix")]),
    ("su2.project", None, [("spinnet.su2", "project_to_spin_basis")]),
    ("su2.build", _build_attrs,
     [(module, n) for module in ("spinnet.su2", "spinnet.cli") for n in _BUILD_FUNCTIONS]),
    ("rewrite.simplify", _simplify_attrs,
     [("spinnet.rewrite", "simplify"), ("spinnet.cli", "simplify")]),
    ("graph.json", _text_bytes,
     [("spinnet.graph", "serialize"), ("spinnet.graph", "deserialize")]),
    # Only entry points: w6j and the matrices call w3jm/w4jm internally, so
    # wrapping those inside spinnet.wigner would count nested calls.
    ("wigner.oracle", None,
     [("spinnet.wigner", n) for n in ("w6j", "yutsis_matrix_3", "yutsis_matrix_4")]
     + [("spinnet.cli", n) for n in _ORACLES]),
    ("cli.verify", None, [("spinnet.cli", "cmd_verify")]),
]


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for p in path:
        owner = getattr(owner, p, None)
        if owner is None:
            return None, name
    return owner, name


def _wrapper(tracer: Tracer, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if hook is not None:
            # Bookkeeping gets its own span so callers' self time excludes it.
            book = tracer.open("trace.bookkeeping")
            try:
                span.attrs.update(hook(args, kwargs, result))
            finally:
                tracer.close(book)
        return result

    return traced


class Instrumentation:
    """Installs wrappers on every reachable target; ``remove`` restores them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        wrapped: dict[int, Callable] = {}
        for span_name, hook, sites in TARGETS:
            for module, attr in sites:
                owner, name = _resolve(module, attr)
                fn = getattr(owner, name, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                # One wrapper per function, shared by every import site.
                w = wrapped.setdefault(id(fn), _wrapper(tracer, span_name, fn, hook))
                self._saved.append((owner, name, owner.__dict__[name]))
                setattr(owner, name, w)

    def remove(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


# -- per-layer metrics ----------------------------------------------------

# exact.convert.s: exact values leaving the contraction as RadicalNumbers
# (to_radical, Tensor.to_matrix, exact_matrix's loop, the correction
# multiply) and the benchmark's own bit-for-bit comparison.
_CONVERT = ("exact.to_radical", "tensor.to_matrix", "su2.exact_matrix", "su2.correct",
            "bench.compare.exact")


def layer_metrics(spans: Iterable[Span], self_time: dict[int, float]) -> dict[str, float]:
    """Per-layer values of one traced pass (unit-free numbers)."""
    spans = list(spans)

    def named(*names):
        return [s for s in spans if s.name in names]

    def busy(ss):
        return sum(self_time[s.id] for s in ss)

    def attr_sum(ss, key):
        return sum(s.attrs.get(key, 0) for s in ss)

    contracts = named("tensor.contract")
    exact_c = [s for s in contracts if s.attrs.get("mode") == "exact"]
    float_c = [s for s in contracts if s.attrs.get("mode") == "float"]
    # A contraction planned internally carries its plan as a child span.
    for s in float_c:
        if "cost" not in s.attrs:
            s.attrs["cost"] = sum(c.attrs.get("cost", 0) for c in spans
                                  if c.parent == s.id and c.name == "tensor.plan")
    float_s = busy(float_c)
    float_cost = attr_sum(float_c, "cost")
    plans = named("tensor.plan")
    simps = named("rewrite.simplify")
    v_in = attr_sum(simps, "v_in")
    return {
        "tensor.contract.exact.s": busy(exact_c),
        "tensor.contract.exact.calls": len(exact_c),
        "tensor.contract.exact.entries_out": attr_sum(exact_c, "entries"),
        "exact.result_bits.max": max((s.attrs.get("bits", 0) for s in exact_c), default=0),
        "exact.convert.s": busy(named(*_CONVERT)),
        "su2.project.s": busy(named("su2.project")),
        "tensor.plan.s": busy(plans),
        "tensor.plan.calls": len(plans),
        "tensor.plan.cost": attr_sum(plans, "cost"),
        "tensor.plan.peak_rank": max((s.attrs.get("peak_rank", 0) for s in plans), default=0),
        "tensor.contract.float.s": float_s,
        "tensor.contract.float.calls": len(float_c),
        "tensor.contract.float.cost_base": float_cost,
        "tensor.contract.float.ns_per_cost": 1e9 * float_s / float_cost if float_cost else 0.0,
        "rewrite.simplify.s": busy(simps),
        "rewrite.simplify.calls": len(simps),
        "rewrite.steps": attr_sum(simps, "steps"),
        "rewrite.vertices_in": v_in,
        "rewrite.vertex_ratio": attr_sum(simps, "v_out") / v_in if v_in else 0.0,
        "su2.build.s": busy(named("su2.build")),
        "su2.build.calls": len(named("su2.build")),
        "su2.build.vertices": attr_sum(named("su2.build"), "vertices"),
        "graph.json.s": busy(named("graph.json")),
        "graph.json.bytes": attr_sum(named("graph.json"), "bytes"),
        "wigner.oracle.s": busy(named("wigner.oracle")),
        "wigner.oracle.calls": len(named("wigner.oracle")),
        "cli.verify.self_s": busy(named("cli.verify")),
    }
