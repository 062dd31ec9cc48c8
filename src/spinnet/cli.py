"""Command-line front end.

Subcommands:

* ``symbol``  -- print an exact Wigner symbol from the closed-form oracle.
* ``build``   -- build a gadget or a recoupling network and write it as
  JSON, with a correction-factor sidecar and optional DOT export.
* ``eval``    -- contract a diagram file (exact or float mode), optionally
  plugging basis states and simplifying first.
* ``verify``  -- run a manifest of cases, each built diagrammatically,
  corrected, and compared against both the stored expected value and the
  independent oracle.

Exit codes: 0 success, 1 verification failure, 2 usage/domain error,
3 rank cap exceeded.  Spins, triads, magnetic indices and orientations are
checked before anything is built, a field or argument that an object does
not take is rejected rather than ignored, and ``verify`` checks every case
before it runs any, so bad input exits 2 and is never a failed case.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .exact import HalfInteger, RadicalNumber, parse_int
from .graph import Diagram, deserialize, serialize, to_dot
from .rewrite import DEFAULT_SIMPLIFY_RULES, simplify
from .tensor import RankCapExceeded, eval_diagram, plan_contraction, plug_basis
from .su2 import (
    CorrectionFactor,
    VertexSpec,
    corrected_spin_matrix,
    cswap_gadget,
    crown,
    exact_matrix,
    loop_network,
    network_6j,
    plug_vertex_arguments,
    symmetriser,
    theta_network,
    vertex_3jm,
    vertex_4jm,
    yutsis_link,
)
from .wigner import (
    invariant_loop,
    invariant_theta,
    triangle_ok,
    w3jm,
    w4jm,
    w6j,
    yutsis_matrix_3,
    yutsis_matrix_4,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RANK_CAP = 3


class CliError(Exception):
    """Domain/usage error; reported with exit code 2."""


def _spin(value: str | int | float) -> HalfInteger:
    """A spin from a command-line literal or a manifest's JSON value itself."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise CliError(f"invalid spin {json.dumps(value)}: not a string or a number")
    try:
        return HalfInteger(value)
    except ValueError as exc:
        raise CliError(f"invalid spin {value!r}: {exc}") from None


def _spin_list(value, count: int) -> list[HalfInteger]:
    if not isinstance(value, list) or len(value) != count:
        raise CliError(f"expected a list of {count} spins, got {value!r}")
    return [_spin(t) for t in value]


# -- recoupling objects ---------------------------------------------------


class _Args(NamedTuple):
    """Checked arguments of one recoupling object (see :func:`_parse_args`)."""

    kind: str
    spins: tuple[HalfInteger, ...]
    ms: Optional[tuple[HalfInteger, ...]]  # symbol arguments, or None
    j: Optional[HalfInteger]  # channel spin of a 4jm
    orient: Optional[str]  # None for a closed network


class _Symbol(NamedTuple):
    """What the CLI knows about one recoupling object.  The callables look
    up the builders and oracles imported here when they run."""

    legs: int  # spins, one per open leg or network edge
    orientation: Optional[str]  # default orientation; None when closed
    triads: Callable[[list, Optional[HalfInteger]], list]
    build: Callable[[_Args], tuple[Diagram, CorrectionFactor]]
    oracle: Callable[[_Args], RadicalNumber]
    matrix: Optional[Callable[[_Args], list[list[RadicalNumber]]]] = None
    channel: bool = False


_SYMBOLS = {
    "3jm": _Symbol(
        3, "iio", lambda s, j: [s],
        lambda a: vertex_3jm(VertexSpec(a.spins, a.orient)),
        lambda a: w3jm(*a.spins, *a.ms),
        lambda a: yutsis_matrix_3(a.spins, a.orient)),
    "4jm": _Symbol(
        4, "iioo", lambda s, j: [(s[0], s[1], j), (j, s[2], s[3])],
        lambda a: vertex_4jm(a.spins, a.j, a.orient),
        lambda a: w4jm(*a.spins, *a.ms, a.j),
        lambda a: yutsis_matrix_4(a.spins, a.j, a.orient), channel=True),
    "6j": _Symbol(
        6, None, lambda s, j: [s[0:3], (s[0], s[4], s[5]), (s[3], s[1], s[5]), s[2:5]],
        lambda a: network_6j(*a.spins),
        lambda a: w6j(*a.spins)),
    "theta": _Symbol(
        3, None, lambda s, j: [s],
        lambda a: theta_network(*a.spins),
        lambda a: invariant_theta(*a.spins)),
    "loop": _Symbol(
        1, None, lambda s, j: [],
        lambda a: loop_network(*a.spins),
        lambda a: invariant_loop(*a.spins)),
}


def _fields(kind: str, with_ms: bool) -> set[str]:
    """The fields a recoupling object takes: its spins, the channel spin
    ``j`` of a 4jm and, if the object is open, ``orientation`` and (with
    ``with_ms``) its ``ms``."""
    sym = _SYMBOLS[kind]
    out = {"spins", "j"} if sym.channel else {"spins"}
    if sym.orientation is not None:
        out |= {"orientation", "ms"} if with_ms else {"orientation"}
    return out


def _parse_args(kind: str, fields: dict, with_ms: bool) -> _Args:
    """Checks the ``spins``, channel spin ``j``, ``orientation`` and, if
    ``with_ms`` and the object is open, the ``ms`` of a recoupling object.

    Raises CliError on bad input and KeyError for a missing field.
    """
    sym = _SYMBOLS[kind]
    spins = _spin_list(fields["spins"], sym.legs)
    j = _spin(fields["j"]) if sym.channel else None
    for s in spins:  # the channel spin is in a triad, which rejects it if negative
        if s.twice < 0:
            raise CliError(f"spin {s} is negative")
    for t in sym.triads(spins, j):
        if not triangle_ok(*t):
            raise CliError(f"triad ({', '.join(map(str, t))}) violates the triangle rule")
    orient = ms = None
    if sym.orientation is not None:
        orient = fields.get("orientation", sym.orientation)
        if not isinstance(orient, str) or len(orient) != sym.legs or set(orient) - {"i", "o"}:
            raise CliError(f"orientation {orient!r} is not {sym.legs} letters from 'io'")
        if with_ms:
            ms = tuple(_spin_list(fields["ms"], sym.legs))
            for s, m in zip(spins, ms):
                if abs(m.twice) > s.twice or (s.twice + m.twice) % 2:
                    raise CliError(f"m={m} is not a magnetic index for j={s}")
    return _Args(kind, tuple(spins), ms, j, orient)


def _line_args(kind: str, texts: Sequence[str], with_ms: bool, orient: Optional[str] = None) -> _Args:
    """Parses a command line's ``j1 .. jn [m1 .. mn] [j]`` for a recoupling object."""
    sym = _SYMBOLS[kind]
    n = sym.legs
    names = [f"j{k}" for k in range(1, n + 1)]
    if with_ms and sym.orientation is not None:
        names += [f"m{k}" for k in range(1, n + 1)]
    if sym.channel:
        names.append("j")
    if len(texts) != len(names):
        raise CliError(f"{kind} needs {' '.join(names)}")
    fields = {"spins": list(texts[:n]), "ms": list(texts[n:2 * n]), "j": texts[-1]}
    if orient is not None:
        fields["orientation"] = orient
    return _parse_args(kind, fields, with_ms)


def _diagram_value(a: _Args, mode: str):
    """Corrected value (RadicalNumber or float) of the object's diagram, ms plugged in."""
    d, corr = _SYMBOLS[a.kind].build(a)
    if a.ms is not None:
        d = plug_vertex_arguments(d, corr, a.spins, a.ms, a.orient)
    raw = eval_diagram(d, mode=mode).scalar_value()
    if mode == "exact":
        return raw.to_radical() * corr.value
    return raw.real * corr.value.to_float()


# -- symbol ---------------------------------------------------------------


def cmd_symbol(args: argparse.Namespace) -> int:
    a = _line_args(args.kind, args.spins, with_ms=True)
    v = _SYMBOLS[a.kind].oracle(a)
    print(f"{v.serialize()}  (~ {v.to_float():.12g})")
    return EXIT_OK


# -- build ----------------------------------------------------------------


def _count(value: str | int, what: str) -> int:
    """A non-negative int, given as an int literal (see
    :func:`~spinnet.exact.parse_int`) or as a manifest's JSON integer, called
    ``what``."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise CliError(f"{what} {json.dumps(value)} is not a string or an integer")
    try:
        n = value if isinstance(value, int) else parse_int(value)
    except ValueError:
        raise CliError(f"{what} {value!r} is not an integer") from None
    if n < 0:
        raise CliError(f"{what} {n} is negative")
    return n


class _Gadget(NamedTuple):
    """A diagram with no correction factor; ``build`` as in :class:`_Symbol`."""

    what: Optional[str]  # what its one argument is; None if it takes none
    parse: Optional[Callable[[object, str], object]]  # (text or JSON value, what); raises CliError
    fields: Optional[tuple[str, ...]]  # of a matrix case; None if verify does not take it
    build: Callable[..., Diagram]


_GADGETS = {
    "symmetriser": _Gadget("wire count", _count, ("n",), lambda n: symmetriser(n)),
    "cswap": _Gadget(None, None, (), lambda: cswap_gadget()),
    "crown": _Gadget("stage number", _count, None, lambda stage: crown(stage)),
    "link": _Gadget("spin", lambda text, what: _spin(text), None, lambda j: yutsis_link(j)),
}


def _build_object(kind: str, spins: list[str], orient: Optional[str]):
    """Returns (diagram, correction-or-None)."""
    if orient is not None and (kind not in _SYMBOLS or "orientation" not in _fields(kind, False)):
        raise CliError(f"{kind} takes no --orient")
    if kind in _SYMBOLS:
        return _SYMBOLS[kind].build(_line_args(kind, spins, with_ms=False, orient=orient))
    g = _GADGETS[kind]
    if len(spins) != (g.what is not None):
        raise CliError(f"{kind} needs one {g.what}" if g.what else f"{kind} takes no arguments")
    try:
        return g.build(*(g.parse(t, g.what) for t in spins)), None
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _correction_text(corr: CorrectionFactor) -> str:
    doc = {k: getattr(corr, k).serialize() for k in ("lambdas", "norms", "plug_norm", "value")}
    return json.dumps(doc | {"notes": list(corr.notes)}, indent=2)


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None
    print(f"wrote {path}")


def cmd_build(args: argparse.Namespace) -> int:
    d, corr = _build_object(args.kind, args.spins, args.orient)
    texts = [serialize(d)] + ([] if corr is None else [_correction_text(corr)])
    if args.out:  # the diagram, then its corrections in a sidecar file
        out = Path(args.out)
        for path, text in zip((out, out.with_suffix(out.suffix + ".corrections.json")), texts):
            _write(path, text + "\n")
    else:
        print("\n".join(texts))
    if args.dot:
        _write(Path(args.dot), to_dot(d))
    print(f"vertices: {len(d.vertices)}  edges: {len(d.edges)}  "
          f"inputs: {len(d.inputs)}  outputs: {len(d.outputs)}")
    return EXIT_OK


# -- eval -----------------------------------------------------------------


def _parse_plug(spec: str, d: Diagram) -> dict[int, int]:
    """'pos=bit,...' where pos indexes the boundary order inputs-then-outputs."""
    order = list(d.inputs) + list(d.outputs)
    assignment: dict[int, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            pos_s, bit_s = part.split("=")
            pos, bit = parse_int(pos_s), parse_int(bit_s)
        except ValueError:
            raise CliError(f"bad plug entry {part!r}; expected pos=bit") from None
        if not 0 <= pos < len(order):
            raise CliError(f"plug position {pos} out of range (diagram has {len(order)} wires)")
        if bit not in (0, 1):
            raise CliError(f"plug bit must be 0 or 1, got {bit}")
        if order[pos] in assignment:
            raise CliError(f"plug position {pos} is given twice")
        assignment[order[pos]] = bit
    return assignment


def cmd_eval(args: argparse.Namespace) -> int:
    cap = None if args.rank_cap is None else _count(args.rank_cap, "rank cap")
    path = Path(args.file)
    if not path.exists():
        raise CliError(f"no such file: {path}")
    try:
        d = deserialize(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read diagram: {exc}") from None
    if args.plug:
        d = plug_basis(d, _parse_plug(args.plug, d))
    if args.simplify:
        before = len(d.vertices)
        d, trace = simplify(d, rules=DEFAULT_SIMPLIFY_RULES)
        print(json.dumps({
            "rewrite_trace": [{"rule": r, "site": list(s)} for r, s in trace.steps],
            "vertices_before": before,
            "vertices_after": len(d.vertices),
        }))
    plan = plan_contraction(d, rank_cap=cap, mode=args.mode)
    print(f"peak rank: {plan.peak_rank}  steps: {len(plan.steps)}  cost: {plan.cost}")
    try:
        t = eval_diagram(d, mode=args.mode, plan=plan)
    except ValueError as exc:  # a phase off the pi/4 grid, in exact mode
        raise CliError(f"{exc}; evaluate it with --mode float") from None
    if t.n_inputs == 0 and t.n_outputs == 0:
        v = t.scalar_value()
        if args.mode == "exact":
            try:
                print(f"value: {v.to_radical().serialize()}")
            except ValueError:
                print(f"value: {v.serialize()}")
            print(f"float: {v.to_complex():.12g}")
        else:
            print(f"value: {v:.12g}")
    else:
        m = t.to_matrix()
        print(f"matrix ({m.shape[0]} x {m.shape[1]}), rows = outputs, cols = inputs:")
        for row in m:
            if args.mode == "exact":
                print("  [" + ", ".join(x.serialize() for x in row) + "]")
            else:
                print("  [" + ", ".join(f"{x:.6g}" for x in row) + "]")
    return EXIT_OK


# -- verify ---------------------------------------------------------------


def _load_manifest(name: str) -> dict:
    p = Path(name)
    if p.exists():
        source = p
    elif name == "paper.json":
        source = resources.files("spinnet.data").joinpath("paper.json")
    else:
        raise CliError(f"no such manifest: {name}")
    try:
        return json.loads(source.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # a directory, bad UTF-8, bad or too deep JSON
        raise CliError(f"cannot read manifest {name}: {exc}") from None


def _radical(text) -> RadicalNumber:
    if not isinstance(text, str):
        raise CliError(f"expected value {text!r} is not a string")
    return RadicalNumber.deserialize(text)


_CASE_FIELDS = {"id", "kind", "source", "expected"}


def _check_fields(case: dict, name: str, accepted: set[str]) -> None:
    """Rejects the fields of ``case`` that neither every case nor ``name`` takes."""
    extra = sorted(set(case) - _CASE_FIELDS - accepted)
    if extra:
        raise CliError(f"{name} takes no {' or '.join(map(repr, extra))} field")


def _tolerance(value) -> float:
    """A float case's ``tol``: a JSON number, finite and >= 0."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and 0 <= value <= sys.float_info.max):  # NaN fails both comparisons
        raise CliError(f"tol {value!r} is not a finite number >= 0")
    return float(value)


def _parse_case(case) -> dict:
    """A copy of ``case`` with its tol, expected value(s) and ``args`` (of a
    recoupling object or a gadget) parsed, after checking its kind, policy,
    invariant or matrix builder, and that it has no field they do not take.

    Raises CliError naming the case on malformed input, so that a bad
    manifest is a usage error and never a failed case.
    """
    if not isinstance(case, dict):
        raise CliError(f"manifest case {case!r} is not an object")
    for name in ("id", "source"):  # both are printed as text
        if not isinstance(case.get(name, ""), str):
            raise CliError(f"case {case.get('id', '?')!r}: {name} {case[name]!r} is not a string")
    out = dict(case)
    kind = case.get("kind")
    try:
        if kind == "matrix":
            builder = case.get("builder")
            named = isinstance(builder, str)  # a list or an object would not hash
            if named and builder in _SYMBOLS and _SYMBOLS[builder].matrix is not None:
                _check_fields(case, builder, _fields(builder, False) | {"builder"})
                out["args"] = _parse_args(builder, case, with_ms=False)
            elif named and builder in _GADGETS and _GADGETS[builder].fields is not None:
                g = _GADGETS[builder]
                _check_fields(case, builder, {"builder", *g.fields})
                out["args"] = tuple(g.parse(case[f], g.what) for f in g.fields)
            else:
                raise CliError(f"unknown matrix builder {builder!r}")
            rows = case["expected"]
            if not (isinstance(rows, list) and rows and all(
                    isinstance(r, list) and r and len(r) == len(rows[0]) for r in rows)):
                raise CliError(f"expected matrix {rows!r} is not a non-empty rectangular list of lists")
            out["expected"] = [[_radical(x) for x in row] for row in rows]
            return out
        if kind not in ("6j", "3jm", "4jm", "invariant"):
            raise CliError(f"unknown case kind {kind!r}")
        policy = case.get("policy", "exact")
        if policy not in ("exact", "float"):
            raise CliError(f"unknown policy {policy!r}")
        out["expected"] = _radical(case["expected"])
        if policy == "float":
            out["tol"] = _tolerance(case.get("tol", 1e-8))
        elif "tol" in case:
            raise CliError("tol applies only to policy 'float'")
        if kind == "invariant" and case["which"] not in ("loop", "theta"):
            raise CliError(f"unknown invariant {case['which']!r}")
        name = case["which"] if kind == "invariant" else kind
        accepted = _fields(name, True) | {"policy", "tol"}
        _check_fields(case, name, accepted | ({"which"} if kind == "invariant" else set()))
        out["args"] = _parse_args(name, case, with_ms=True)
        return out
    except KeyError as exc:
        raise CliError(f"case {case.get('id', '?')!r}: missing field {exc}") from None
    except (CliError, ValueError, TypeError) as exc:
        raise CliError(f"case {case.get('id', '?')!r}: {exc}") from None


def _matrix_case(case: dict) -> tuple[bool, str]:
    builder, a = case["builder"], case["args"]
    if builder in _GADGETS:
        got, oracle = exact_matrix(_GADGETS[builder].build(*a)), None
    else:
        sym = _SYMBOLS[builder]
        (d, corr), oracle = sym.build(a), sym.matrix(a)
        got = corrected_spin_matrix(
            d, corr, *([j for j, o in zip(a.spins, a.orient) if o == side] for side in "io"))
    expected = case["expected"]
    if len(got) != len(expected) or any(len(a) != len(b) for a, b in zip(got, expected)):
        return False, f"shape mismatch: got {len(got)}x{len(got[0])}"
    for r, (ra, rb) in enumerate(zip(got, expected)):
        for c, (a, b) in enumerate(zip(ra, rb)):
            if a != b:
                return False, f"entry ({r},{c}): got {a.serialize()}, expected {b.serialize()}"
    if oracle is not None and any(a != b for ra, rb in zip(got, oracle) for a, b in zip(ra, rb)):
        return False, "matrix disagrees with the oracle"
    return True, "ok"


def _run_case(case: dict) -> tuple[bool, str]:
    """Checks one case parsed by :func:`_parse_case`."""
    try:
        if case["kind"] == "matrix":
            return _matrix_case(case)
        a = case["args"]
        expected, oracle = case["expected"], _SYMBOLS[a.kind].oracle(a)
        if case.get("policy", "exact") == "exact":
            got = _diagram_value(a, "exact")
            if got != expected:
                return False, f"got {got.serialize()}, expected {expected.serialize()}"
            if got != oracle:
                return False, f"diagram {got.serialize()} disagrees with oracle {oracle.serialize()}"
            return True, f"value {got.serialize()}"
        tol = case["tol"]
        got = _diagram_value(a, "float")
        want = expected.to_float()
        scale = max(abs(want), 1.0)
        if abs(got - want) > tol * scale:
            return False, f"got {got!r}, expected {want!r} (tol {tol})"
        if abs(got - oracle.to_float()) > tol * scale:
            return False, f"diagram {got!r} disagrees with oracle {oracle.to_float()!r}"
        return True, f"value {got:.12g}"
    except (ValueError, KeyError, NotImplementedError) as exc:
        return False, f"{type(exc).__name__}: {exc}"


def cmd_verify(args: argparse.Namespace) -> int:
    manifest = _load_manifest(args.manifest)
    cases = manifest.get("cases", []) if isinstance(manifest, dict) else None
    if not isinstance(cases, list):
        raise CliError("manifest has no list of cases")
    # Every case is parsed before any runs: bad input exits 2, not 1.
    cases = [_parse_case(c) for c in cases]
    if args.only:
        cases = [c for c in cases if c["kind"] == args.only]
    if not cases:
        raise CliError("manifest has no (matching) cases")
    failures = 0
    for case in cases:
        ok, detail = _run_case(case)
        failures += not ok
        src = case.get("source", "")
        print(f"[{'PASS' if ok else 'FAIL'}] {case.get('id', '?'):32s} {detail}" + (f"  ({src})" if src else ""))
    print(f"{len(cases) - failures}/{len(cases)} cases passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


# -- entry point ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line, without the usage text."""

    def error(self, message: str):
        print(f"error: {self.prog}: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="spinnet", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("symbol", help="print an exact Wigner symbol")
    ps.add_argument("kind", choices=["3jm", "4jm", "6j"])
    ps.add_argument("spins", nargs="+")
    ps.set_defaults(func=cmd_symbol)

    pb = sub.add_parser("build", help="build a diagram and write it as JSON")
    # Let arguments like "-1/2" pass as negative spins, not option flags.
    for spun in (ps, pb):
        spun._negative_number_matcher = HalfInteger._LITERAL
    pb.add_argument("kind", choices=[*_GADGETS, *_SYMBOLS])
    pb.add_argument("spins", nargs="*")
    pb.add_argument("--orient", help="leg orientation string, e.g. iio")
    pb.add_argument("--out", help="output diagram JSON file")
    pb.add_argument("--dot", help="also write a DOT rendering")
    pb.set_defaults(func=cmd_build)

    pe = sub.add_parser("eval", help="contract a diagram file")
    pe.add_argument("file")
    pe.add_argument("--mode", choices=["exact", "float"], default="exact")
    pe.add_argument("--plug", help="basis plugs, e.g. '0=1,1=0' (wire positions)")
    pe.add_argument("--rank-cap")
    pe.add_argument("--simplify", action="store_true")
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser("verify", help="run a verification manifest")
    pv.add_argument("manifest", nargs="?", default="paper.json")
    pv.add_argument("--only", help="restrict to one case kind")
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RankCapExceeded as exc:
        print(f"rank cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RANK_CAP


if __name__ == "__main__":
    sys.exit(main())
