"""The benchmark's workloads: seeded input generators, one pass each, and
the correctness gate every value goes through.

All three workloads are closed loops with one caller: a pass runs its
fixed input set in order and the next pass starts when it returns.

* ``manifest``   -- ``spinnet verify`` on the shipped ``paper.json``,
  in-process through ``spinnet.cli.main`` with default options.
* ``float-6j``   -- admissible 6j symbols with spins <= 2, each built,
  sent through a JSON round trip and contracted in float mode twice
  (plain, and after ``rewrite.simplify``).
* ``exact-open`` -- exact contractions with open outputs: symmetriser
  projectors against the permutation average, and 3jm/4jm vertex
  matrices against the oracle, entry by entry.

Layer functions are always called through their module attribute
(``su2.network_6j``, not a local name) so that the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import re
import time
from fractions import Fraction
from importlib import resources
from typing import Callable

from spinnet import cli, graph, rewrite, su2, tensor, wigner
from spinnet.exact import HalfInteger, RadicalNumber

FLOAT_RTOL = 1e-8


def spins(twice: tuple[int, ...]) -> list[HalfInteger]:
    return [HalfInteger.from_twice(t) for t in twice]


def show(twice: tuple[int, ...]) -> str:
    return ",".join(str(HalfInteger.from_twice(t)) for t in twice)


def rel_err(got: complex, want: float) -> float:
    """|got - want| / |want|; absolute when the oracle value is 0."""
    return abs(got - want) / (abs(want) or 1.0)


class Outcome:
    """Counts every checked value; a failure is recorded, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.failures: list[str] = []

    def fail(self, what: str, n: int = 1) -> None:
        """``n`` values that could not be produced at all."""
        self.attempted += n
        self._miss(what, n)

    def exact(self, what: str, got, want) -> None:
        """An exact value, compared bit for bit."""
        self.attempted += 1
        if got != want:
            self._miss(f"{what}: got {got.serialize()}, expected {want.serialize()}")

    def close(self, what: str, got: complex, want: float) -> None:
        """A float value, within FLOAT_RTOL of the oracle."""
        self.attempted += 1
        err = rel_err(got, want)
        self.max_rel_err = max(self.max_rel_err, err)
        if not err <= FLOAT_RTOL:
            self._miss(f"{what}: got {got!r}, expected {want!r} (rel err {err:.3g})")

    def _miss(self, msg: str, n: int = 1) -> None:
        self.failed += n
        self.failures.append(msg)


def _untraced(name: str, fn: Callable, *args):
    return fn(*args)


def timed_each(items, label: Callable, run_one: Callable) -> dict[str, float]:
    """Run ``run_one`` on every item; wall seconds per item label."""
    times = {}
    for item in items:
        t0 = time.perf_counter()
        run_one(item)
        times[label(item)] = time.perf_counter() - t0
    return times


def plan_stats(d, mode: str) -> dict:
    plan = tensor.plan_contraction(d, mode=mode)
    return {"vertices": len(d.vertices), "peak_rank": plan.peak_rank, "cost": plan.cost}


# -- manifest -------------------------------------------------------------

_LINE = re.compile(r"^\[(PASS|FAIL)\] (\S+)\s+(.*)$")


class Manifest:
    """The shipped manifest through ``spinnet verify``.  The seed is unused:
    the inputs are the shipped file."""

    name = "manifest"

    def __init__(self, seed: int) -> None:
        self.path = resources.files("spinnet.data").joinpath("paper.json")
        self.cases: list[dict] = []

    def prepare(self) -> None:
        self.cases = json.loads(self.path.read_text())["cases"]

    def inputs(self) -> list[str]:
        return [c["id"] for c in self.cases]

    def run_pass(self, out: Outcome, span: Callable = _untraced) -> dict[str, float]:
        """One ``verify`` call is the pass's only timed input."""
        return timed_each(["verify"], str, lambda _: self._verify(out, span))

    def _verify(self, out: Outcome, span: Callable) -> None:
        buf, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc = cli.main(["verify", str(self.path)])
        except Exception as exc:  # a traceback fails every case of the pass
            out.fail(f"verify raised {type(exc).__name__}: {exc}", len(self.cases))
            return
        if rc not in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED):
            out.fail(f"verify exited {rc}: {err.getvalue().strip()}", len(self.cases))
            return
        lines = {}
        for line in buf.getvalue().splitlines():
            m = _LINE.match(line)
            if m:
                lines[m.group(2)] = (m.group(1), m.group(3))
        for case in self.cases:
            cid = case["id"]
            if cid not in lines:
                out.fail(f"{cid}: no result line")
                continue
            status, detail = lines[cid]
            src = case.get("source")
            if src and detail.endswith(f"  ({src})"):
                detail = detail[: -len(src) - 4]
            if status != "PASS":
                out.fail(f"{cid}: {detail}")
            elif case["kind"] == "matrix":
                out.attempted += 1  # verify compared every entry with expected and oracle
            else:
                span("bench.compare.exact", self._check_value, out, case, detail)

    @staticmethod
    def _check_value(out: Outcome, case: dict, detail: str) -> None:
        cid = case["id"]
        exact = case.get("policy", "exact") == "exact"
        try:
            if not detail.startswith("value "):
                raise ValueError
            text = detail[len("value "):]
            got = RadicalNumber.deserialize(text) if exact else float(text)
        except ValueError:
            out.fail(f"{cid}: unparsed result {detail!r}")
            return
        expected = RadicalNumber.deserialize(case["expected"])
        if exact:
            out.exact(cid, got, expected)
        else:
            out.close(cid, got, expected.to_float())

    def describe(self) -> list[dict]:
        rows = []
        for case in self.cases:
            row = {"id": case["id"], "kind": case["kind"]}
            d = _manifest_diagram(case)
            if d is not None:
                row.update(plan_stats(d, case.get("policy", "exact")))
            rows.append(row)
        return rows


def _manifest_diagram(case: dict):
    kind = case["kind"]
    js = [HalfInteger(str(s)) for s in case.get("spins", [])]
    if kind == "6j":
        return su2.network_6j(*js)[0]
    if kind == "invariant":
        build = su2.loop_network if case["which"] == "loop" else su2.theta_network
        return build(*js)[0]
    if kind in ("3jm", "4jm"):
        orient = case.get("orientation", "iio" if kind == "3jm" else "iioo")
        if kind == "3jm":
            d, corr = su2.vertex_3jm(su2.VertexSpec(tuple(js), orient))
        else:
            d, corr = su2.vertex_4jm(js, HalfInteger(str(case["j"])), orient)
        ms = [HalfInteger(str(m)) for m in case["ms"]]
        return su2.plug_vertex_arguments(d, corr, js, ms, orient)
    if kind == "matrix":
        b = case["builder"]
        if b == "3jm":
            return su2.vertex_3jm(su2.VertexSpec(tuple(js), case.get("orientation", "iio")))[0]
        if b == "4jm":
            return su2.vertex_4jm(js, HalfInteger(str(case["j"])),
                                  case.get("orientation", "iioo"))[0]
        if b == "symmetriser":
            return su2.symmetriser(int(case["n"]))
        if b == "cswap":
            return su2.cswap_gadget()
    return None


# -- float-6j -------------------------------------------------------------

MAX_TWICE_SPIN = 4          # spins <= 2
FLOAT6J_PER_GROUP = 5       # symmetry classes per group (integer / half-integer)
ANCHOR_6J = (4, 4, 4, 4, 4, 4)  # 6j(2,2,2,2,2,2): 570 vertices, always run


def admissible_6j(max_twice: int = MAX_TWICE_SPIN) -> list[tuple[int, ...]]:
    """Every admissible 6j symbol (as twice-spins) with spins <= max_twice/2."""
    out = []
    for tw in itertools.product(range(max_twice + 1), repeat=6):
        j1, j2, j3, j4, j5, j6 = spins(tw)
        triads = ((j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j3, j4, j5))
        if all(wigner.triangle_ok(*t) for t in triads):
            out.append(tw)
    return out


def tetrahedral_images(tw: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The 6j symbols equal to {tw} by the 24 tetrahedral symmetries:
    any column permutation, and swapping upper and lower entries in two
    columns."""
    cols = [(tw[0], tw[3]), (tw[1], tw[4]), (tw[2], tw[5])]
    out = set()
    for perm in itertools.permutations(cols):
        for flips in ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)):
            c = [(lo, up) if f else (up, lo) for (up, lo), f in zip(perm, flips)]
            out.add((c[0][0], c[1][0], c[2][0], c[0][1], c[1][1], c[2][1]))
    return sorted(out)


def _evenly(items: list, k: int) -> list:
    return [items[(2 * i + 1) * len(items) // (2 * k)] for i in range(k)]


def float_6j_symbols() -> list[tuple[int, ...]]:
    """6j(2,2,2,2,2,2) and the canonical (smallest) member of ten
    tetrahedral-symmetry classes spread over size, five integer-only and
    five with half-integer spins."""
    canon = {min(tetrahedral_images(tw)) for tw in admissible_6j()} - {ANCHOR_6J}
    order = sorted(canon, key=lambda tw: (sum(2 ** t for t in tw), tw))
    integer = [tw for tw in order if all(t % 2 == 0 for t in tw)]
    half = [tw for tw in order if any(t % 2 for t in tw)]
    return ([ANCHOR_6J] + _evenly(integer, FLOAT6J_PER_GROUP)
            + _evenly(half, FLOAT6J_PER_GROUP))


def gen_float_6j(seed: int) -> list[tuple[int, ...]]:
    """The fixed symbols in a seeded order.  The seed does not pick other
    members of a symmetry class: after ``simplify`` those differ up to 2x
    in time and 4x in peak memory (6j(2,1,2,2,1,2) plans to peak rank 22),
    so pass_s and peak_rss_mb would follow the seed more than the program."""
    symbols = float_6j_symbols()
    random.Random(seed).shuffle(symbols)
    return symbols


def _label_6j(tw: tuple[int, ...]) -> str:
    return f"6j({show(tw)})"


class Float6j:
    name = "float-6j"

    def __init__(self, seed: int) -> None:
        self.symbols = gen_float_6j(seed)
        self.stats: dict[tuple, dict] = {}

    def prepare(self) -> None:
        # The derived rewrite scalars are cached per process on first use.
        d, _ = su2.network_6j(*spins((2, 2, 2, 2, 2, 2)))
        rewrite.simplify(d, rules=rewrite.DEFAULT_SIMPLIFY_RULES)

    def inputs(self) -> list[str]:
        return [_label_6j(tw) for tw in self.symbols]

    def run_pass(self, out: Outcome, span: Callable = _untraced) -> dict[str, float]:
        return timed_each(self.symbols, _label_6j, lambda tw: self._one(tw, out, span))

    def _one(self, tw: tuple[int, ...], out: Outcome, span: Callable) -> None:
        label = _label_6j(tw)
        try:
            js = spins(tw)
            d, corr = su2.network_6j(*js)
            d = graph.deserialize(graph.serialize(d))
            want = wigner.w6j(*js).to_float()
            scale = corr.value.to_float()
        except Exception as exc:
            out.fail(f"{label}: {type(exc).__name__}: {exc}", 2)
            return
        stats = {"vertices": len(d.vertices)}
        for route in ("plain", "simplify"):
            try:
                if route == "simplify":
                    d, _ = rewrite.simplify(d, rules=rewrite.DEFAULT_SIMPLIFY_RULES)
                plan = tensor.plan_contraction(d, mode="float")
                raw = tensor.eval_diagram(d, mode="float", plan=plan).scalar_value()
            except Exception as exc:
                out.fail(f"{label} {route}: {type(exc).__name__}: {exc}")
                continue
            span("bench.check", out.close, f"{label} {route}", raw * scale, want)
            stats[route] = {"vertices": len(d.vertices), "peak_rank": plan.peak_rank,
                            "cost": plan.cost}
        self.stats[tw] = stats

    def describe(self) -> list[dict]:
        return [{"input": _label_6j(tw), **self.stats.get(tw, {})} for tw in self.symbols]


# -- exact-open -----------------------------------------------------------

SYMMETRISER_SIZES = (2, 3, 4)        # symmetriser(5) takes ~40 s
# 3jm triads (twice-spins) with spins <= 3/2; leg order and orientation are
# seeded.  Triads with a spin-2 leg take 3-10 s each and are left out.
TRIADS_3JM = ((1, 1, 2), (1, 2, 3), (2, 2, 2), (2, 3, 3))
EXACT4JM_CLASSES = 4


def admissible_4jm() -> list[tuple[tuple[int, ...], int]]:
    """4jm vertices (leg twice-spins, channel twice-spin) with legs in
    {1/2, 1, 3/2} and both triads summing to at most 3 in spin."""
    out = []
    for legs in itertools.product((1, 2, 3), repeat=4):
        for jc in range(0, 5):
            a, b, c, e = spins(legs)
            j = HalfInteger.from_twice(jc)
            if not (wigner.triangle_ok(a, b, j) and wigner.triangle_ok(j, c, e)):
                continue
            if legs[0] + legs[1] + jc <= 6 and jc + legs[2] + legs[3] <= 6:
                out.append((legs, jc))
    return out


def images_4jm(legs: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Leg orders that keep both triads: swap within a pair, swap the pairs."""
    a, b, c, e = legs
    out = set()
    for p, q in (((a, b), (c, e)), ((c, e), (a, b))):
        for p2 in (p, p[::-1]):
            for q2 in (q, q[::-1]):
                out.add(p2 + q2)
    return sorted(out)


def _shuffled(rng: random.Random, letters: str) -> str:
    out = list(letters)
    rng.shuffle(out)
    return "".join(out)


def gen_exact_open(seed: int) -> list[tuple]:
    """Symmetrisers, then seeded images of fixed 3jm triads and 4jm classes.
    Orientations are seeded orders of a fixed in/out split: with every leg
    ingoing, the spin projection of a 4jm vertex alone needs ~15 MB more."""
    rng = random.Random(seed)
    items: list[tuple] = [("symmetriser", n) for n in SYMMETRISER_SIZES]
    for triad in TRIADS_3JM:
        legs = list(triad)
        rng.shuffle(legs)
        items.append(("3jm", tuple(legs), _shuffled(rng, "iio")))
    canon = sorted({(min(images_4jm(legs)), jc) for legs, jc in admissible_4jm()},
                   key=lambda v: (sum(v[0]) + 2 * v[1], v))
    for legs, jc in _evenly(canon, EXACT4JM_CLASSES):
        items.append(("4jm", rng.choice(images_4jm(legs)), jc, _shuffled(rng, "iioo")))
    return items


def symmetriser_reference(n: int) -> list[list[RadicalNumber]]:
    """S_n = (1/n!) sum over permutations of the wire-permutation matrices
    (wire 0 is the most significant bit)."""
    dim = 2 ** n
    counts = [[0] * dim for _ in range(dim)]
    for perm in itertools.permutations(range(n)):
        for col in range(dim):
            bits = [(col >> (n - 1 - k)) & 1 for k in range(n)]
            row = sum(bits[perm[k]] << (n - 1 - k) for k in range(n))
            counts[row][col] += 1
    f = math.factorial(n)
    return [[RadicalNumber.from_rational(Fraction(c, f)) for c in r] for r in counts]


def _label(item: tuple) -> str:
    if item[0] == "symmetriser":
        return f"symmetriser({item[1]})"
    if item[0] == "3jm":
        return f"3jm({show(item[1])}; {item[2]})"
    return f"4jm({show(item[1])}; j={show((item[2],))}; {item[3]})"


class ExactOpen:
    name = "exact-open"

    def __init__(self, seed: int) -> None:
        self.items = gen_exact_open(seed)
        self.references: dict[int, list] = {}

    def prepare(self) -> None:
        self.references = {n: symmetriser_reference(n) for n in SYMMETRISER_SIZES}

    def inputs(self) -> list[str]:
        return [_label(item) for item in self.items]

    def _build(self, item: tuple):
        """(diagram, correction or None, leg spins in, leg spins out)."""
        if item[0] == "symmetriser":
            return su2.symmetriser(item[1]), None, None, None
        if item[0] == "3jm":
            js, orient = spins(item[1]), item[2]
            d, corr = su2.vertex_3jm(su2.VertexSpec(tuple(js), orient))
        else:
            js, orient = spins(item[1]), item[3]
            d, corr = su2.vertex_4jm(js, HalfInteger.from_twice(item[2]), orient)
        ins = [j for j, o in zip(js, orient) if o == "i"]
        outs = [j for j, o in zip(js, orient) if o == "o"]
        return d, corr, ins, outs

    def run_pass(self, out: Outcome, span: Callable = _untraced) -> dict[str, float]:
        return timed_each(self.items, _label, lambda item: self._one(item, out, span))

    def _one(self, item: tuple, out: Outcome, span: Callable) -> None:
        try:
            d, corr, ins, outs = self._build(item)
            if item[0] == "symmetriser":
                got = su2.exact_matrix(d)
                want = self.references[item[1]]
            else:
                got = su2.corrected_spin_matrix(d, corr, ins, outs)
                js = spins(item[1])
                if item[0] == "3jm":
                    want = wigner.yutsis_matrix_3(js, item[2])
                else:
                    want = wigner.yutsis_matrix_4(js, HalfInteger.from_twice(item[2]), item[3])
        except Exception as exc:
            out.fail(f"{_label(item)}: {type(exc).__name__}: {exc}")
            return
        span("bench.compare.exact", self._compare, out, _label(item), got, want)

    @staticmethod
    def _compare(out: Outcome, label: str, got, want) -> None:
        if len(got) != len(want) or any(len(a) != len(b) for a, b in zip(got, want)):
            out.fail(f"{label}: shape {len(got)}x{len(got[0]) if got else 0} "
                     f"!= {len(want)}x{len(want[0]) if want else 0}")
            return
        for r, (row_g, row_w) in enumerate(zip(got, want)):
            for c, (g, w) in enumerate(zip(row_g, row_w)):
                out.exact(f"{label}[{r},{c}]", g, w)

    def describe(self) -> list[dict]:
        return [{"input": _label(item), **plan_stats(self._build(item)[0], "exact")}
                for item in self.items]


WORKLOADS = {w.name: w for w in (Manifest, Float6j, ExactOpen)}
