"""Pins the output of every su2 builder: the sha256 of ``serialize(d)`` and,
for builders that return one, the correction's value and notes.

The pinned data is ``tests/data/builder_digests.json``.  Any change to a
builder's vertex order, edge order, scalar or correction shows up here.
Regenerate the file (only when a builder is meant to change) with::

    PYTHONPATH=src python tests/test_builder_digests.py --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from fractions import Fraction
from importlib import resources
from itertools import product
from pathlib import Path

import pytest

from spinnet.exact import HalfInteger
from spinnet.graph import serialize
from spinnet.su2 import (
    VertexSpec,
    crown,
    cswap_gadget,
    loop_network,
    network_6j,
    plug_vertex_arguments,
    symmetriser,
    theta_network,
    vertex_3jm,
    vertex_4jm,
    yutsis_link,
)
from spinnet.wigner import triangle_ok

DATA = Path(__file__).parent / "data" / "builder_digests.json"


def _spins(top_twice):
    return [HalfInteger.from_twice(t) for t in range(top_twice + 1)]


def _plugged(case):
    spins = [Fraction(s) for s in case["spins"]]
    ms = [Fraction(m) for m in case["ms"]]
    orient = case["orientation"]
    if case["kind"] == "3jm":
        d, corr = vertex_3jm(VertexSpec(tuple(spins), orient))
    else:
        d, corr = vertex_4jm(spins, Fraction(case["j"]), orient)
    return plug_vertex_arguments(d, corr, spins, ms, orient), corr


def builder_calls():
    """(id, call) for the fixed list of builder calls; a call returns a
    diagram or a (diagram, correction) pair."""
    calls = [(f"symmetriser-{n}", lambda n=n: symmetriser(n)) for n in range(7)]
    calls += [(f"link-2j={t}", lambda j=j: yutsis_link(j)) for t, j in enumerate(_spins(4))]
    calls += [(f"loop-2j={t}", lambda j=j: loop_network(j)) for t, j in enumerate(_spins(4))]
    calls += [(f"crown-{s}", lambda s=s: crown(s)) for s in range(2, 10)]
    calls.append(("cswap", cswap_gadget))
    for js in product(_spins(3), repeat=3):
        if triangle_ok(*js):
            for orient in ("iio", "ioo", "iii", "ooo"):
                calls.append((f"3jm-2j={','.join(str(j.twice) for j in js)}-{orient}",
                              lambda js=js, o=orient: vertex_3jm(VertexSpec(js, o))))
    for js in product(_spins(2), repeat=3):
        if triangle_ok(*js):
            calls.append((f"theta-2j={','.join(str(j.twice) for j in js)}",
                          lambda js=js: theta_network(*js)))
    for js in product(_spins(2), repeat=6):
        if all(triangle_ok(*t) for t in ((js[0], js[1], js[2]), (js[0], js[4], js[5]),
                                          (js[3], js[1], js[5]), (js[2], js[3], js[4]))):
            calls.append((f"6j-2j={','.join(str(j.twice) for j in js)}",
                          lambda js=js: network_6j(*js)))
    manifest = json.loads(resources.files("spinnet.data").joinpath("paper.json").read_text())
    for case in manifest["cases"]:
        if case["kind"] in ("3jm", "4jm"):
            calls.append((f"plugged-{case['id']}", lambda c=case: _plugged(c)))
    return calls


def digest(result):
    d, corr = result if isinstance(result, tuple) else (result, None)
    return {
        "sha256": hashlib.sha256(serialize(d).encode()).hexdigest(),
        "corr_value": None if corr is None else corr.value.serialize(),
        "corr_notes": None if corr is None else list(corr.notes),
    }


CALLS = builder_calls()


@functools.cache
def pinned():
    return json.loads(DATA.read_text())


def test_the_call_list_matches_the_pinned_file():
    assert [name for name, _ in CALLS] == list(pinned())


@pytest.mark.parametrize("name, call", CALLS, ids=[name for name, _ in CALLS])
def test_builder_output_is_pinned(name, call):
    assert digest(call()) == pinned()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_builder_digests.py --write")
    DATA.write_text(json.dumps({name: digest(call()) for name, call in CALLS}, indent=1) + "\n")
    print(f"wrote {len(CALLS)} digests to {DATA}")
