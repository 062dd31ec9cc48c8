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
from pathlib import Path

import pytest

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
from sweeps import admissible_6j, spins_up_to, valid_triads

DATA = Path(__file__).parent / "data" / "builder_digests.json"


def _twice(js):
    return ",".join(str(j.twice) for j in js)


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
    calls += [(f"link-2j={t}", lambda j=j: yutsis_link(j)) for t, j in enumerate(spins_up_to(4))]
    calls += [(f"loop-2j={t}", lambda j=j: loop_network(j)) for t, j in enumerate(spins_up_to(4))]
    calls += [(f"crown-{s}", lambda s=s: crown(s)) for s in range(2, 10)]
    calls.append(("cswap", cswap_gadget))
    calls += [(f"3jm-2j={_twice(js)}-{o}", lambda js=js, o=o: vertex_3jm(VertexSpec(js, o)))
              for js in valid_triads(spins_up_to(3)) for o in ("iio", "ioo", "iii", "ooo")]
    calls += [(f"theta-2j={_twice(js)}", lambda js=js: theta_network(*js)) for js in valid_triads(spins_up_to(2))]
    calls += [(f"6j-2j={_twice(js)}", lambda js=js: network_6j(*js)) for js in admissible_6j(spins_up_to(2))]
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
