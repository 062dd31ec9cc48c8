"""Command-line front end.

Subcommands:

* ``symbol``  -- print an exact Wigner symbol from the closed-form oracle.
* ``build``   -- build a diagram (symmetriser, cswap, crown, link, 3jm,
  4jm, 6j, theta, loop) and write it as JSON, with a correction-factor
  sidecar and optional DOT export.
* ``eval``    -- contract a diagram file (exact or float mode), optionally
  plugging basis states and simplifying first.
* ``verify``  -- run a manifest of cases, each built diagrammatically,
  corrected, and compared against both the stored expected value and the
  independent oracle.

Exit codes: 0 success, 1 verification failure, 2 usage/domain error,
3 rank cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from .exact import ExactScalar, HalfInteger, RadicalNumber
from .graph import Diagram, deserialize, serialize, to_dot
from .rewrite import DEFAULT_SIMPLIFY_RULES, simplify
from .tensor import RankCapExceeded, _rank_cap, eval_diagram, plan_contraction, plug_basis
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


def _spin(text: str) -> HalfInteger:
    try:
        return HalfInteger(text)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise CliError(f"invalid spin {text!r}: {exc}") from None


def _spins(texts: Sequence[str]) -> list[HalfInteger]:
    return [_spin(t) for t in texts]


def _check_triads(kind: str, spins: Sequence[HalfInteger], j: Optional[HalfInteger] = None) -> None:
    """Raises CliError unless every spin triad of a 3jm, 4jm (channel spin
    ``j``), 6j or theta satisfies the triangle rule."""
    if kind in ("3jm", "theta"):
        triads = [tuple(spins)]
    elif kind == "4jm":
        j1, j2, j3, j4 = spins
        triads = [(j1, j2, j), (j, j3, j4)]
    elif kind == "6j":
        j1, j2, j3, j4, j5, j6 = spins
        triads = [(j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j3, j4, j5)]
    else:
        triads = []
    for t in triads:
        if not triangle_ok(*t):
            raise CliError(f"triad ({', '.join(map(str, t))}) violates the triangle rule")


def _print_value(v: RadicalNumber) -> None:
    print(f"{v.serialize()}  (~ {v.to_float():.12g})")


# -- symbol ---------------------------------------------------------------


def cmd_symbol(args: argparse.Namespace) -> int:
    kind = args.kind
    vals = _spins(args.spins)
    if kind == "3jm":
        if len(vals) != 6:
            raise CliError("3jm needs j1 j2 j3 m1 m2 m3")
        j1, j2, j3, m1, m2, m3 = vals
        _check_triads(kind, vals[:3])
        for j, m in ((j1, m1), (j2, m2), (j3, m3)):
            if abs(m.twice) > j.twice or (j.twice + m.twice) % 2:
                raise CliError(f"m={m} is not a magnetic index for j={j}")
        _print_value(w3jm(j1, j2, j3, m1, m2, m3))
    elif kind == "4jm":
        if len(vals) != 9:
            raise CliError("4jm needs j1 j2 j3 j4 m1 m2 m3 m4 j")
        _check_triads(kind, vals[:4], vals[8])
        _print_value(w4jm(*vals))
    else:  # 6j
        if len(vals) != 6:
            raise CliError("6j needs j1 j2 j3 j4 j5 j6")
        _check_triads(kind, vals)
        _print_value(w6j(*vals))
    return EXIT_OK


# -- build ----------------------------------------------------------------


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CliError(f"{what} {text!r} is not an integer") from None


def _build_object(kind: str, spins: list[str], orient: Optional[str]):
    """Returns (diagram, correction-or-None)."""
    try:
        if kind == "symmetriser":
            if len(spins) != 1:
                raise CliError("symmetriser needs one wire count")
            return symmetriser(_int(spins[0], "wire count")), None
        if kind == "cswap":
            return cswap_gadget(), None
        if kind == "crown":
            if len(spins) != 1:
                raise CliError("crown needs one stage number")
            return crown(_int(spins[0], "stage number")), None
        if kind == "link":
            if len(spins) != 1:
                raise CliError("link needs one spin")
            return yutsis_link(_spin(spins[0])), None
        if kind == "3jm":
            if len(spins) != 3:
                raise CliError("3jm needs three spins")
            return vertex_3jm(VertexSpec(tuple(_spins(spins)), orient or "iio"))
        if kind == "4jm":
            if len(spins) != 5:
                raise CliError("4jm needs four leg spins and a channel spin")
            return vertex_4jm(_spins(spins[:4]), _spin(spins[4]), orient or "iioo")
        if kind == "6j":
            if len(spins) != 6:
                raise CliError("6j needs six spins")
            return network_6j(*_spins(spins))
        if kind == "theta":
            if len(spins) != 3:
                raise CliError("theta needs three spins")
            return theta_network(*_spins(spins))
        if kind == "loop":
            if len(spins) != 1:
                raise CliError("loop needs one spin")
            return loop_network(_spin(spins[0]))
    except ValueError as exc:
        raise CliError(str(exc)) from None
    raise CliError(f"unknown build kind {kind!r}")


def _correction_dict(corr: CorrectionFactor) -> dict:
    return {
        "lambdas": corr.lambdas.serialize(),
        "norms": corr.norms.serialize(),
        "plug_norm": corr.plug_norm.serialize(),
        "value": corr.value.serialize(),
        "notes": list(corr.notes),
    }


def cmd_build(args: argparse.Namespace) -> int:
    result = _build_object(args.kind, args.spins, args.orient)
    d, corr = result if isinstance(result, tuple) else (result, None)
    doc = serialize(d)
    out = Path(args.out) if args.out else None
    if out is not None:
        out.write_text(doc + "\n")
        print(f"wrote {out}")
        if corr is not None:
            side = out.with_suffix(out.suffix + ".corrections.json")
            side.write_text(json.dumps(_correction_dict(corr), indent=2) + "\n")
            print(f"wrote {side}")
    else:
        print(doc)
        if corr is not None:
            print(json.dumps(_correction_dict(corr), indent=2))
    if args.dot:
        Path(args.dot).write_text(to_dot(d))
        print(f"wrote {args.dot}")
    print(f"vertices: {len(d.vertices)}  edges: {len(d.edges)}  "
          f"inputs: {len(d.inputs)}  outputs: {len(d.outputs)}")
    return EXIT_OK


# -- eval -----------------------------------------------------------------


def _resolve_rank_cap(mode: str, rank_cap: Optional[int] = None) -> int:
    try:
        return _rank_cap(mode, rank_cap)
    except ValueError as exc:
        raise CliError(str(exc)) from None


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
            pos, bit = int(pos_s), int(bit_s)
        except ValueError:
            raise CliError(f"bad plug entry {part!r}; expected pos=bit") from None
        if not 0 <= pos < len(order):
            raise CliError(f"plug position {pos} out of range (diagram has {len(order)} wires)")
        if bit not in (0, 1):
            raise CliError(f"plug bit must be 0 or 1, got {bit}")
        assignment[order[pos]] = bit
    return assignment


def cmd_eval(args: argparse.Namespace) -> int:
    path = Path(args.file)
    if not path.exists():
        raise CliError(f"no such file: {path}")
    try:
        d = deserialize(path.read_text())
    except (ValueError, KeyError, TypeError) as exc:
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
    plan = plan_contraction(d, rank_cap=_resolve_rank_cap(args.mode, args.rank_cap), mode=args.mode)
    print(f"peak rank: {plan.peak_rank}  steps: {len(plan.steps)}  cost: {plan.cost}")
    t = eval_diagram(d, mode=args.mode, plan=plan)
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
        text = p.read_text()
    elif name == "paper.json":
        text = resources.files("spinnet.data").joinpath("paper.json").read_text()
    else:
        raise CliError(f"no such manifest: {name}")
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CliError(f"cannot read manifest {name}: {exc}") from None


# Spins per case kind, per invariant and per matrix builder.
_SPIN_COUNTS = {"6j": 6, "3jm": 3, "4jm": 4, "loop": 1, "theta": 3}
_MATRIX_BUILDERS = ("3jm", "4jm", "symmetriser", "cswap")


def _spin_list(value, count: int) -> list[HalfInteger]:
    if not isinstance(value, list) or len(value) != count:
        raise CliError(f"expected a list of {count} spins, got {value!r}")
    return _spins(value)


def _radical(text) -> RadicalNumber:
    if not isinstance(text, str):
        raise CliError(f"expected value {text!r} is not a string")
    return RadicalNumber.deserialize(text)


def _parse_case(case) -> dict:
    """A copy of ``case`` with its spins, ms, j, n, tol and expected value(s)
    parsed, after checking its kind, policy, invariant or matrix builder.

    Raises CliError naming the case on malformed input, so that a bad
    manifest is a usage error and never a failed case.
    """
    if not isinstance(case, dict):
        raise CliError(f"manifest case {case!r} is not an object")
    out = dict(case)
    kind = case.get("kind")
    try:
        if kind == "matrix":
            builder = case.get("builder")
            if builder not in _MATRIX_BUILDERS:
                raise CliError(f"unknown matrix builder {builder!r}")
            out["expected"] = [[_radical(x) for x in row] for row in case["expected"]]
            if builder in ("3jm", "4jm"):
                out["spins"] = _spin_list(case["spins"], _SPIN_COUNTS[builder])
            if builder == "4jm":
                out["j"] = _spin(case["j"])
            if builder in ("3jm", "4jm"):
                _check_triads(builder, out["spins"], out.get("j"))
            if builder == "symmetriser":
                out["n"] = _int(str(case["n"]), "wire count")
            return out
        if kind not in ("6j", "3jm", "4jm", "invariant"):
            raise CliError(f"unknown case kind {kind!r}")
        policy = case.get("policy", "exact")
        if policy not in ("exact", "float"):
            raise CliError(f"unknown policy {policy!r}")
        out["expected"] = _radical(case["expected"])
        out["tol"] = float(case.get("tol", 1e-8))
        if kind == "invariant" and case["which"] not in ("loop", "theta"):
            raise CliError(f"unknown invariant {case['which']!r}")
        shape = case["which"] if kind == "invariant" else kind
        count = _SPIN_COUNTS[shape]
        out["spins"] = _spin_list(case["spins"], count)
        if kind in ("3jm", "4jm"):
            out["ms"] = _spin_list(case["ms"], count)
        if kind == "4jm":
            out["j"] = _spin(case["j"])
        _check_triads(shape, out["spins"], out.get("j"))
        return out
    except KeyError as exc:
        raise CliError(f"case {case.get('id', '?')!r}: missing field {exc}") from None
    except (CliError, ValueError, TypeError) as exc:
        raise CliError(f"case {case.get('id', '?')!r}: {exc}") from None


def _closed_value(d: Diagram, corr: CorrectionFactor, mode: str):
    """Corrected value of a closed diagram (RadicalNumber or float)."""
    raw = eval_diagram(d, mode=mode).scalar_value()
    if mode == "exact":
        return raw.to_radical() * corr.value
    return raw.real * corr.value.to_float()


def _case_diagram_value(case: dict, mode: str):
    kind, spins = case["kind"], case["spins"]
    if kind == "6j":
        d, corr = network_6j(*spins)
    elif kind == "3jm":
        orient = case.get("orientation", "iio")
        d, corr = vertex_3jm(VertexSpec(tuple(spins), orient))
        d = plug_vertex_arguments(d, corr, spins, case["ms"], orient)
    elif kind == "4jm":
        orient = case.get("orientation", "iioo")
        d, corr = vertex_4jm(spins, case["j"], orient)
        d = plug_vertex_arguments(d, corr, spins, case["ms"], orient)
    elif case["which"] == "loop":
        d, corr = loop_network(spins[0])
    else:
        d, corr = theta_network(*spins)
    return _closed_value(d, corr, mode)


def _case_oracle_value(case: dict) -> RadicalNumber:
    kind, spins = case["kind"], case["spins"]
    if kind == "6j":
        return w6j(*spins)
    if kind == "3jm":
        return w3jm(*spins, *case["ms"])
    if kind == "4jm":
        return w4jm(*spins, *case["ms"], case["j"])
    if case["which"] == "loop":
        return invariant_loop(spins[0])
    return invariant_theta(*spins)


def _matrix_case(case: dict) -> tuple[bool, str]:
    builder = case["builder"]
    if builder in ("3jm", "4jm"):
        spins = case["spins"]
        if builder == "3jm":
            orient = case.get("orientation", "iio")
            d, corr = vertex_3jm(VertexSpec(tuple(spins), orient))
            oracle = yutsis_matrix_3(spins, orient)
        else:
            orient = case.get("orientation", "iioo")
            d, corr = vertex_4jm(spins, case["j"], orient)
            oracle = yutsis_matrix_4(spins, case["j"], orient)
        got = corrected_spin_matrix(
            d, corr,
            [j for j, o in zip(spins, orient) if o == "i"],
            [j for j, o in zip(spins, orient) if o == "o"],
        )
    elif builder == "symmetriser":
        got, oracle = exact_matrix(symmetriser(case["n"])), None
    else:
        got, oracle = exact_matrix(cswap_gadget()), None
    expected = case["expected"]
    if len(got) != len(expected) or any(len(a) != len(b) for a, b in zip(got, expected)):
        return False, f"shape mismatch: got {len(got)}x{len(got[0])}"
    for r, (ra, rb) in enumerate(zip(got, expected)):
        for c, (a, b) in enumerate(zip(ra, rb)):
            if a != b:
                return False, f"entry ({r},{c}): got {a.serialize()}, expected {b.serialize()}"
    if oracle is not None:
        for ra, rb in zip(got, oracle):
            for a, b in zip(ra, rb):
                if a != b:
                    return False, "matrix disagrees with the oracle"
    return True, "ok"


def _run_case(case: dict) -> tuple[bool, str]:
    """Checks one case parsed by :func:`_parse_case`."""
    try:
        if case["kind"] == "matrix":
            return _matrix_case(case)
        expected, oracle = case["expected"], _case_oracle_value(case)
        if case.get("policy", "exact") == "exact":
            got = _case_diagram_value(case, "exact")
            if got != expected:
                return False, f"got {got.serialize()}, expected {expected.serialize()}"
            if got != oracle:
                return False, f"diagram {got.serialize()} disagrees with oracle {oracle.serialize()}"
            return True, f"value {got.serialize()}"
        tol = case["tol"]
        got = _case_diagram_value(case, "float")
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
    _resolve_rank_cap("exact")  # a malformed SPINNET_RANK_CAP is a usage error, not a failed case
    failures = 0
    for case in cases:
        ok, detail = _run_case(case)
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        src = case.get("source", "")
        print(f"[{status}] {case.get('id', '?'):32s} {detail}" + (f"  ({src})" if src else ""))
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

    # Let arguments like "-1/2" pass as negative spins, not option flags.
    spin_matcher = re.compile(r"^-\d+(/\d+|\.\d+)?$")

    ps = sub.add_parser("symbol", help="print an exact Wigner symbol")
    ps._negative_number_matcher = spin_matcher
    ps.add_argument("kind", choices=["3jm", "4jm", "6j"])
    ps.add_argument("spins", nargs="+")
    ps.set_defaults(func=cmd_symbol)

    pb = sub.add_parser("build", help="build a diagram and write it as JSON")
    pb.add_argument("kind", choices=[
        "symmetriser", "cswap", "crown", "link", "3jm", "4jm", "6j", "theta", "loop"
    ])
    pb.add_argument("spins", nargs="*")
    pb.add_argument("--orient", help="leg orientation string, e.g. iio")
    pb.add_argument("--out", help="output diagram JSON file")
    pb.add_argument("--dot", help="also write a DOT rendering")
    pb.set_defaults(func=cmd_build)

    pe = sub.add_parser("eval", help="contract a diagram file")
    pe.add_argument("file")
    pe.add_argument("--mode", choices=["exact", "float"], default="exact")
    pe.add_argument("--plug", help="basis plugs, e.g. '0=1,1=0' (wire positions)")
    pe.add_argument("--rank-cap", type=int, default=None)
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
