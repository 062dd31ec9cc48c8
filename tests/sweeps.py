"""The named sweeps behind the CI certificates, each written once as a
function of its range, and the spin generators that they and the tests share.

A sweep returns ``(counts, bad)``: how much it checked and the cases that
failed.  ``SWEEPS`` maps each name to its sweep and the counts of its default,
full range.  ``PYTHONPATH=src:tests python3 -m sweeps NAME`` runs one, prints
its counts and first 5 failures, and exits 0 only when the counts equal the
pinned ones and no case failed.  The Tier-1 tests call the same sweeps, walks
and per-item checks at smaller ranges.

The references live in the test modules, which load pytest and hypothesis;
each sweep imports the ones it needs when it runs, so that a sweep that needs
none starts as fast as the library.
"""

import contextlib
import io
import sys
from itertools import product
from pathlib import Path

from spinnet.cli import main as cli_main
from spinnet.exact import HalfInteger
from spinnet.graph import serialize
from spinnet.rewrite import RULES, simplify
from spinnet.su2 import (VertexSpec, corrected_spin_matrix, cswap_gadget, invariance_defect, loop_network,
                         network_6j, plug_vertex_arguments, symmetriser, theta_network, vertex_3jm, vertex_4jm)
from spinnet.tensor import eval_diagram, plan_contraction
from spinnet.wigner import (invariant_loop, invariant_theta, triangle_ok, w3jm, w4jm, w6j, yutsis_matrix_3,
                            yutsis_matrix_4)

GOLDEN = Path(__file__).parent / "data" / "verify_paper.txt"


# -- generators ------------------------------------------------------------


def spins_up_to(twice):
    """The spins 0, 1/2, ..., twice/2."""
    return [HalfInteger.from_twice(t) for t in range(twice + 1)]


def valid_triads(spins):
    """Every admissible triad of ``spins``, in ``product`` order."""
    return (js for js in product(spins, repeat=3) if triangle_ok(*map(HalfInteger, js)))


def admissible_6j(spins):
    """Every sextuple whose four triads are admissible."""
    return [js for js in product(spins, repeat=6)
            if all(triangle_ok(*t) for t in ((js[0], js[1], js[2]), (js[0], js[4], js[5]),
                                              (js[3], js[1], js[5]), (js[2], js[3], js[4])))]


def admissible_4jm(legs, channels):
    """Every (j1, j2, j3, j4, j) with admissible triads (j1 j2 j), (j j3 j4)."""
    return [(*js, j) for js in product(legs, repeat=4) for j in channels
            if triangle_ok(js[0], js[1], j) and triangle_ok(j, js[2], js[3])]


SPINS_UP_TO_2 = spins_up_to(4)
SPINS_UP_TO_3_HALVES = spins_up_to(3)
LEGS_UP_TO_3_HALVES = SPINS_UP_TO_3_HALVES[1:]
CHANNELS_UP_TO_3 = spins_up_to(6)
TRIADS_UP_TO_2 = list(valid_triads(SPINS_UP_TO_2))
VERTICES_4JM = admissible_4jm(LEGS_UP_TO_3_HALVES, CHANNELS_UP_TO_3)
ORIENTATIONS_3 = ["".join(o) for o in product("io", repeat=3)]
ORIENTATIONS_4 = ["".join(o) for o in product("io", repeat=4)]
INVARIANCE_ORIENTATIONS = ("iio", "ioo", "iii", "ooo")


def _run(cases, check):
    """(number of cases, every failure ``check(*case)`` returns)."""
    n, bad = 0, []
    for case in cases:
        n += 1
        bad += check(*case)
    return n, bad


def _differs(label, got, want):
    return [] if got == want else [label]


def _value(d, corr):
    """The corrected exact value of a closed network."""
    return eval_diagram(d, mode="exact").scalar_value().to_radical() * corr.value


# -- walks: the diagrams that several sweeps share ---------------------------


def six_j_routes(symbols):
    """(js, correction, route, diagram) for each 6j symbol, plain and simplified."""
    for js in symbols:
        d, corr = network_6j(*js)
        for route, diagram in (("plain", d), ("simplify", simplify(d)[0])):
            yield js, corr, route, diagram


def vertices_3jm(triads, orients):
    """(label, diagram, correction) for each 3jm vertex in each orientation."""
    for js in triads:
        for orient in orients:
            yield ("3jm", js, orient), *vertex_3jm(VertexSpec(js, orient))


def vertices_4jm(legs, channels, orients):
    """(label, diagram, correction) for each admissible 4jm vertex in each orientation."""
    for *js, j in admissible_4jm(legs, channels):
        for orient in orients:
            yield ("4jm", tuple(js), j, orient), *vertex_4jm(js, j, orient)


# -- per-item checks: each returns the failures of one case ------------------


def check_6j(js, corr, route, diagram):
    """The exact and float values against w6j, and the JSON text against the indent-2 dump."""
    from test_graph import reference_text

    want = w6j(*js)
    w = want.to_float()
    flt = eval_diagram(diagram, mode="float").scalar_value() * corr.value.to_float()
    failed = {
        "exact": _value(diagram, corr) != want,
        # 1e-10 relative; the four symbols that vanish must come out below 1e-15
        "float": not abs(flt - w) <= (1e-10 * abs(w) if w else 1e-15),
        "text": serialize(diagram) != reference_text(diagram),
    }
    return [(kind, route, js) for kind, f in failed.items() if f]


def check_plan(js, corr, route, diagram, cap=28):
    """The plan against the reference planner on the reference split, its
    program against the reference compile and its node table against the split's."""
    from test_tensor import _ref_compile, _ref_split_spiders, _ref_table, plan_outcome, reference_plan

    split = _ref_split_spiders(diagram)
    got = plan_outcome(lambda d, c: plan_contraction(d, rank_cap=c), diagram, cap)
    if isinstance(got, str) or got != plan_outcome(reference_plan, split, cap):
        return [("plan", route, js)]
    plan = plan_contraction(diagram, rank_cap=cap)
    return (_differs(("program", route, js), plan.program, _ref_compile(plan, (*diagram.inputs, *diagram.outputs)))
            + _differs(("nodes", route, js), plan.nodes, _ref_table(split)))


def check_plugged(js, ms, orient):
    """The 3jm vertex plugged at ``ms`` against w3jm."""
    d, corr = vertex_3jm(VertexSpec(js, orient))
    d = plug_vertex_arguments(d, corr, js, ms, orient)
    return _differs((orient, js, ms), _value(d, corr), w3jm(*js, *ms))


def check_open(label, d, corr):
    """The vertex's corrected spin-basis matrix against the oracle's."""
    kind, js, *j, orient = label
    ins, outs = ([x for x, o in zip(js, orient) if o == side] for side in "io")
    want = yutsis_matrix_3(js, orient) if kind == "3jm" else yutsis_matrix_4(js, *j, orient)
    return _differs(label, corrected_spin_matrix(d, corr, ins, outs), want)


def check_invariance(label, d, corr):
    """A zero SU(2) invariance defect, the vertex's inputs dual."""
    return _differs(label, invariance_defect(d, dual_inputs=True), 0)


# -- the sweeps ------------------------------------------------------------


def verify_twice(runs=2):
    """``spinnet verify`` on the shipped paper.json, ``runs`` times in one process,
    so that later runs use the vertex tensors the first one cached; counts the
    runs whose output equals the golden text."""
    want, bad = GOLDEN.read_text(), []
    for run in range(1, runs + 1):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["verify"])
        bad += _differs((run, code), (code, out.getvalue()), (0, want))
    return runs - len(bad), bad


def _six_j(spins, check):
    symbols = admissible_6j(spins)
    n, bad = _run(six_j_routes(symbols), check)
    return (len(symbols), n), bad


def six_j_oracle(spins=SPINS_UP_TO_2):
    """Every admissible 6j, plain and simplified, by :func:`check_6j`."""
    return _six_j(spins, check_6j)


def six_j_planner(spins=SPINS_UP_TO_2):
    """Every admissible 6j, plain and simplified, by :func:`check_plan`."""
    return _six_j(spins, check_plan)


def cross_check(spins=spins_up_to(5)):
    """w6j against the closed contraction of four 3jm symbols."""
    from test_wigner import _ref_w6j

    return _run(((js,) for js in admissible_6j(spins)), lambda js: _differs(js, w6j(*js), _ref_w6j(*js)))


def oracle_matrices(triads=TRIADS_UP_TO_2, vertices=VERTICES_4JM):
    """The oracle against its references: each triad's 3jm matrix in all 8
    orientations, each 4jm vertex's matrix in all 16 and its w4jm at every m."""
    from test_exact import _ref_half_integer_range as m_range
    from test_wigner import _ref_w4jm, _ref_yutsis_matrix_3, _ref_yutsis_matrix_4

    n3, bad3 = _run(((js, o) for js in triads for o in ORIENTATIONS_3), lambda js, o: _differs(
        ("3jm", js, o), yutsis_matrix_3(js, o), _ref_yutsis_matrix_3(js, o)))
    n4, bad4 = _run(((js, j, o) for *js, j in vertices for o in ORIENTATIONS_4), lambda js, j, o: _differs(
        ("4jm", js, j, o), yutsis_matrix_4(js, j, o), _ref_yutsis_matrix_4(js, j, o)))
    nw, badw = _run(((js, j, ms) for *js, j in vertices for ms in product(*map(m_range, js))),
                    lambda js, j, ms: _differs(("w4jm", js, j, ms), w4jm(*js, *ms, j), _ref_w4jm(*js, *ms, j)))
    return (n3, n4, nw), bad3 + bad4 + badw


def plugged_3jm(spins=SPINS_UP_TO_3_HALVES, orients=("iio", "ioo")):
    """Every m of every admissible triad, by :func:`check_plugged`."""
    from test_exact import _ref_half_integer_range as m_range

    return _run(((js, ms, orient) for js in valid_triads(spins)
                 for ms in product(*map(m_range, js)) for orient in orients), check_plugged)


def loop_theta(spins=SPINS_UP_TO_2):
    """Every loop and every admissible theta against the oracle's invariants."""
    cases = [(loop_network, invariant_loop, (j,)) for j in spins]
    cases += [(theta_network, invariant_theta, js) for js in valid_triads(spins)]
    return _run(cases, lambda build, oracle, js: _differs((build.__name__, js), _value(*build(*js)), oracle(*js)))


def open_3jm(spins=SPINS_UP_TO_3_HALVES, orients=ORIENTATIONS_3):
    return _run(vertices_3jm(valid_triads(spins), orients), check_open)


def open_4jm(legs=LEGS_UP_TO_3_HALVES, channels=CHANNELS_UP_TO_3, orients=("iioo", "ioio")):
    return _run(vertices_4jm(legs, channels, orients), check_open)


def invariance_3jm(spins=SPINS_UP_TO_2, orients=INVARIANCE_ORIENTATIONS):
    return _run(vertices_3jm(valid_triads(spins), orients), check_invariance)


def invariance_4jm(legs=LEGS_UP_TO_3_HALVES, channels=CHANNELS_UP_TO_3, orients=("iioo", "ioio"),
                   symmetrisers=range(1, 8)):
    """The 4jm vertices; the counts add the defects of the symmetrisers (0
    each) and of the cswap gadget, plain and with dual inputs (16 and 32)."""
    n, bad = _run(vertices_4jm(legs, channels, orients), check_invariance)
    sym = tuple(invariance_defect(symmetriser(k), dual_inputs=False) for k in symmetrisers)
    cswap = tuple(invariance_defect(cswap_gadget(), dual_inputs=dual) for dual in (False, True))
    return (n, sym, cswap), bad


def soundness(trials=2000, seed=7919):
    """Every rewrite rule's randomised before/after trials; counts are (rules, trials)."""
    from test_rewrite import check_rule_soundness

    failures = {rule: check_rule_soundness(rule, trials=trials, seed=seed) for rule in sorted(RULES)}
    return (len(failures), trials), [(rule, n) for rule, n in failures.items() if n]


# name -> (sweep, its counts at the default range)
SWEEPS = {
    "verify-twice": (verify_twice, 2),
    "6j-oracle": (six_j_oracle, (570, 1140)),
    "6j-planner": (six_j_planner, (570, 1140)),
    "cross-check": (cross_check, 1479),
    "oracle-matrices": (oracle_matrices, (336, 1392, 7971)),
    "plugged-3jm": (plugged_3jm, 878),
    "loop-theta": (loop_theta, 47),
    "open-4jm": (open_4jm, 174),
    "open-3jm": (open_3jm, 184),
    "invariance-3jm": (invariance_3jm, 168),
    "invariance-4jm": (invariance_4jm, (174, (0,) * 7, (16, 32))),
    "soundness": (soundness, (9, 2000)),
}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in SWEEPS:
        sys.exit(f"usage: python3 -m sweeps NAME, NAME one of: {', '.join(SWEEPS)}")
    sweep, pinned = SWEEPS[sys.argv[1]]
    counts, bad = sweep()
    print(f"{sys.argv[1]}: counts {counts}, pinned {pinned}; {len(bad)} failed: {bad[:5]}")
    sys.exit(0 if counts == pinned and not bad else 1)
