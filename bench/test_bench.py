"""Tests of the benchmark itself:  python3 -m pytest bench"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

W = run.import_program()
import tracer  # noqa: E402
from spinnet.exact import HalfInteger, RadicalNumber  # noqa: E402
from spinnet.wigner import triangle_ok, w6j  # noqa: E402

MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _triads_6j(tw):
    j1, j2, j3, j4, j5, j6 = W.spins(tw)
    return ((j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j3, j4, j5))


@pytest.mark.parametrize("gen", [W.gen_float_6j, W.gen_exact_open])
def test_generators_are_deterministic_per_seed(gen):
    assert gen(7) == gen(7)
    assert len({repr(gen(s)) for s in range(6)}) > 1


@pytest.mark.parametrize("seed", range(5))
def test_float_6j_inputs_are_admissible(seed):
    symbols = W.gen_float_6j(seed)
    assert (4, 4, 4, 4, 4, 4) in symbols
    assert sorted(symbols) == sorted(W.float_6j_symbols())
    assert any(all(t % 2 == 0 for t in tw) for tw in symbols)
    assert any(any(t % 2 for t in tw) for tw in symbols)
    for tw in symbols:
        assert max(tw) <= W.MAX_TWICE_SPIN
        assert all(triangle_ok(*t) for t in _triads_6j(tw))


@pytest.mark.parametrize("seed", range(5))
def test_exact_open_inputs_are_admissible(seed):
    for item in W.gen_exact_open(seed):
        if item[0] == "3jm":
            assert triangle_ok(*W.spins(item[1]))
            assert len(item[2]) == 3 and set(item[2]) <= {"i", "o"}
        elif item[0] == "4jm":
            a, b, c, e = W.spins(item[1])
            j = HalfInteger.from_twice(item[2])
            assert triangle_ok(a, b, j) and triangle_ok(j, c, e)
            assert len(item[3]) == 4 and set(item[3]) <= {"i", "o"}
        else:
            assert item[1] in W.SYMMETRISER_SIZES


def test_tetrahedral_images_share_the_value():
    for tw in [(1, 1, 2, 1, 1, 2), (2, 2, 2, 0, 2, 2), (0, 1, 1, 2, 1, 1)]:
        images = W.tetrahedral_images(tw)
        assert tw in images
        assert {w6j(*W.spins(im)).serialize() for im in images} == {w6j(*W.spins(tw)).serialize()}


def test_symmetriser_reference_is_the_permutation_average():
    half = RadicalNumber.from_rational(Fraction(1, 2))
    one, zero = RadicalNumber.one(), RadicalNumber.zero()
    assert W.symmetriser_reference(2) == [
        [one, zero, zero, zero],
        [zero, half, half, zero],
        [zero, half, half, zero],
        [zero, zero, zero, one],
    ]


def test_metric_names_and_units():
    assert {w["name"] for w in MANIFEST["workloads"]} == set(W.WORKLOADS)
    for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"])


def test_self_time_excludes_children_across_threads():
    t = tracer.Tracer()

    def spin(seconds):
        end = time.thread_time() + seconds
        while time.thread_time() < end:
            pass

    def parent():
        spin(0.05)
        t.call("child", spin, 0.05)
        worker = threading.Thread(target=t.call, args=("worker", spin, 0.05))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    t.call("parent", parent)
    self_time = t.self_times()
    by_name = {s.name: s for s in t.spans}
    assert by_name["worker"].parent == by_name["parent"].id
    assert self_time[by_name["parent"].id] == pytest.approx(0.05, abs=0.02)
    assert self_time[by_name["child"].id] == pytest.approx(0.05, abs=0.02)


def test_instrumentation_is_removed_after_a_traced_pass():
    from spinnet import su2, tensor

    before = (tensor.eval_diagram, su2.eval_diagram, tensor.Tensor.to_matrix)
    inst = tracer.Instrumentation(tracer.Tracer())
    assert inst.missing == []
    assert tensor.eval_diagram is su2.eval_diagram is not before[0]
    inst.remove()
    assert (tensor.eval_diagram, su2.eval_diagram, tensor.Tensor.to_matrix) == before


def test_traced_pass_reports_every_layer_metric():
    wl = W.Float6j(0)
    wl.symbols = [(1, 1, 2, 1, 1, 2)]
    wl.prepare()
    out = W.Outcome()
    metrics, untraced, traced, spans, missing = run.run_traced(wl, out, 0.0)
    assert set(metrics) == {m["name"] for m in MANIFEST["per_layer"]}
    assert out.failed == 0 and out.attempted == 4
    assert metrics["tensor.contract.float.calls"] == 2
    assert metrics["rewrite.simplify.calls"] == 1
    assert metrics["graph.json.bytes"] > 0


def test_probed_pass_is_scaled_and_restores_the_alarm_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    wl = W.Float6j(0)
    wl.symbols = [(2, 2, 2, 2, 2, 2)]
    passes = run.Passes(probe=True)
    passes.run(wl, W.Outcome())
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(passes.scaled) == 1 and passes.scaled[0] > 0


@pytest.mark.parametrize("workload", ["exact-open", "manifest"])
def test_small_pass_has_no_failures(workload):
    wl = W.WORKLOADS[workload](0)
    if workload == "exact-open":
        wl.items = [("symmetriser", 2), ("3jm", (1, 1, 2), "ioo"), ("4jm", (1, 1, 1, 1), 2, "iooi")]
    wl.prepare()
    out = W.Outcome()
    wl.run_pass(out)
    assert out.attempted > 0
    assert out.failed == 0, out.failures
    assert out.max_rel_err <= W.FLOAT_RTOL


def test_wrong_value_is_counted_not_raised():
    out = W.Outcome()
    out.exact("x", RadicalNumber.one(), RadicalNumber.zero())
    out.close("y", 1.0 + 1e-6, 1.0)
    out.close("z", 1.0, 1.0)
    assert (out.attempted, out.failed) == (3, 2)
    assert out.failures[0].startswith("x:") and out.failures[1].startswith("y:")


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "float-6j", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_untraced_run_prints_every_end_to_end_metric_last():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-open", "--seed", "2",
         "--seconds", "0.1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in MANIFEST["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
