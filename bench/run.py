"""spinnet benchmark runner.

    python3 bench/run.py --workload {manifest,float-6j,exact-open} \
        --seed N --seconds S --trace {0,1}

Runs passes over one workload's inputs until ``--seconds`` have elapsed
(the pass in progress is finished), checks every value, prints a summary
and, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several fresh interpreters that import spinnet, make the inputs and do the
lazy set-up, scaled like ``pass_s``), ``pass_s`` (median pass wall time, scaled to nominal host
speed by ``SpeedProbe``) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

A JSON record with the machine, inputs, pass times and failures (and, when
traced, every span) is written under ``.bench_out/`` at the root of the
checkout.  The benchmark starts no threads; ``spinnet verify`` may.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60
MAX_FAILURES_SHOWN = 20

# Metric names and units: the manifest at the root of the checkout.
MANIFEST = ROOT / "BENCHMARK.json"


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    """Import spinnet from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "spinnet" / "__init__.py").is_file():
        _fail(f"no spinnet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import spinnet
    import workloads

    if Path(spinnet.__file__).resolve().parent != (SRC / "spinnet").resolve():
        _fail(f"imported spinnet from {spinnet.__file__}, not {SRC}")
    return workloads


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit(),
    }


def quartiles(xs: list[float]) -> dict:
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"n": len(xs), "p25": q[0], "median": statistics.median(xs), "p75": q[2]}


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that do the workload's set-up, raw
    and scaled to nominal host speed by the probe each one runs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    walls, scaled = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            _fail(f"set-up run failed ({proc.returncode}): {proc.stderr.strip()}")
        probe = json.loads(proc.stdout)
        own = walls[-1] - probe["inside_s"]
        scaled.append(own * PROBE_NOMINAL_S / probe["median_s"])
    return walls, scaled


PROBE_INTERVAL_S = 0.05
PROBE_NOMINAL_S = 0.0003


def probe_loop() -> float:
    """Wall seconds of fixed Fraction arithmetic and small-object churn,
    the kind of work spinnet does, using no spinnet code."""
    t0 = time.perf_counter()
    kept = {}
    for k in range(1, 60):
        q = Fraction(k % 7 + 1, k % 11 + 2) * Fraction(k % 5 + 3, k % 13 + 1)
        kept[k % 31] = (q + Fraction(1, k % 3 + 1), [k])
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples how fast the host runs while a pass runs: every
    ``PROBE_INTERVAL_S`` of wall time a SIGALRM handler times ``probe_loop``.

    On a shared host other tenants change how fast the same code runs, for
    seconds to minutes at a time; the probe loop slows down with it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe_loop())

    def __enter__(self) -> "SpeedProbe":
        self.samples = [probe_loop()]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe_loop())


class Passes:
    """Wall time of every pass and of every input within it; with ``probe``,
    also the pass time scaled to nominal host speed."""

    def __init__(self, probe: bool = False) -> None:
        self.probe = probe
        self.walls: list[float] = []
        self.scaled: list[float] = []
        self.per_input: list[dict[str, float]] = []

    def run(self, wl, outcome, span=None) -> None:
        with contextlib.ExitStack() as stack:
            probe = stack.enter_context(SpeedProbe()) if self.probe else None
            t0 = time.perf_counter()
            times = wl.run_pass(outcome) if span is None else wl.run_pass(outcome, span)
            wall = time.perf_counter() - t0
        self.walls.append(wall)
        self.per_input.append(times)
        if probe is not None:
            # The samples taken inside the pass are not the program's time.
            own = wall - sum(probe.samples[1:-1])
            self.scaled.append(own * PROBE_NOMINAL_S / statistics.median(probe.samples))

    def median(self) -> float:
        return statistics.median(self.walls)

    def record(self) -> dict:
        out = {"pass_wall_s": quartiles(self.walls), "per_pass_input_s": self.per_input}
        if self.scaled:
            out["pass_scaled_s"] = quartiles(self.scaled)
        return out


def run_untraced(wl, outcome, seconds: float) -> Passes:
    passes = Passes(probe=True)
    start = time.perf_counter()
    while not passes.walls or time.perf_counter() - start < seconds:
        passes.run(wl, outcome)
    return passes


def run_traced(wl, outcome, seconds: float):
    """Alternate untraced and traced passes; at least one of each."""
    from tracer import Instrumentation, Tracer, layer_metrics

    untraced, traced = Passes(), Passes()
    layers, spans, missing = [], [], []
    start = time.perf_counter()
    while not traced.walls or time.perf_counter() - start < seconds:
        if len(untraced.walls) <= len(traced.walls):
            untraced.run(wl, outcome)
            continue
        tracer = Tracer()
        inst = Instrumentation(tracer)
        missing = inst.missing
        try:
            traced.run(wl, outcome, tracer.call)
        finally:
            inst.remove()
        layers.append(layer_metrics(tracer.spans, tracer.self_times()))
        spans.append([s.as_dict() for s in tracer.spans])
    metrics = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
    metrics["trace.pass_s.untraced"] = untraced.median()
    metrics["trace.pass_s.traced"] = traced.median()
    metrics["trace.overhead"] = metrics["trace.pass_s.traced"] / metrics["trace.pass_s.untraced"]
    return metrics, untraced, traced, spans, missing


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, make the inputs, do the lazy set-up and exit")
    args = p.parse_args(argv)
    if args.setup_only:
        with SpeedProbe() as probe:
            wmod = import_program()
            if args.workload in wmod.WORKLOADS:
                wmod.WORKLOADS[args.workload](args.seed).prepare()
        print(json.dumps({"median_s": statistics.median(probe.samples),
                          "inside_s": sum(probe.samples[1:-1])}))
        return 0
    wmod = import_program()
    if args.workload not in wmod.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(wmod.WORKLOADS)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    setup, setup_scaled = ([], []) if args.trace else measure_setup(args.workload, args.seed)
    wl = wmod.WORKLOADS[args.workload](args.seed)
    wl.prepare()
    outcome = wmod.Outcome()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "inputs": wl.inputs()}
    manifest = json.loads(MANIFEST.read_text())
    if args.trace:
        metrics, untraced, traced, spans, missing = run_traced(wl, outcome, args.seconds)
        units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        passes = traced
        record.update(untraced=untraced.record(), traced=traced.record(),
                      uninstrumented=missing)
    else:
        passes = run_untraced(wl, outcome, args.seconds)
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "pass_s": statistics.median(passes.scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
        record.update(setup_wall_s=quartiles(setup), setup_scaled_s=quartiles(setup_scaled),
                      **passes.record())
    fail_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    record.update(input_stats=wl.describe(), attempted=outcome.attempted, failed=outcome.failed,
                  fail_frac=fail_frac, max_rel_err=outcome.max_rel_err,
                  failures=outcome.failures, metrics=metrics)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")

    for msg in outcome.failures[:MAX_FAILURES_SHOWN]:
        print(f"FAIL {msg}")
    if len(outcome.failures) > MAX_FAILURES_SHOWN:
        print(f"... and {len(outcome.failures) - MAX_FAILURES_SHOWN} more failures")
    walls = quartiles(passes.walls)
    print(f"workload {args.workload}  seed {args.seed}  inputs {len(record['inputs'])}  "
          f"passes {walls['n']}  pass wall p25/median/p75 "
          f"{walls['p25']:.4f}/{walls['median']:.4f}/{walls['p75']:.4f} s")
    print(f"fail_frac {fail_frac:.6g} ({outcome.failed}/{outcome.attempted})  "
          f"max_rel_err {outcome.max_rel_err:.3g}")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
