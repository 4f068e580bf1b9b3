"""chowreg benchmark: one closed-loop client driving the public API.

    python3 bench/run.py --workload totaro_256 --seed 1 --seconds 5 --trace 0

Run from the root of a chowreg checkout; the package is imported from its
``src/``.  One process, no threads: each operation starts when the previous
one returns.  A run performs whole cycles of its workload (see
``workloads.py``) until ``--seconds`` have passed, at least one cycle.

With ``--trace 0`` the run reports the end-to-end metrics; set-up is timed
in fresh interpreters.  With ``--trace 1`` it runs the first cycle
untraced, then the same inputs again under spans, reports the per-layer
metrics and writes the spans to ``.bench_out/``.  Every operation is checked
against its oracle.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60

# Timed in a fresh interpreter: import chowreg and load the fixtures.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import chowreg
for name in sys.argv[2:]:
    chowreg.load_fixture(name)
print(time.perf_counter() - t0)
"""


def measure_setup(fixtures):
    out = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *fixtures],
        capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT_S)
    return float(out.stdout.strip().splitlines()[-1])


def git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(seed):
    import mpmath

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def run_cycles(workload, fixtures, seed, seconds, clock, tracer=None):
    """Whole cycles until ``seconds`` have passed (at least one).  Under a
    tracer each operation is the root span of the spans it causes."""
    from workloads import cycle_ops, run_op

    outcomes = []
    t0 = clock()
    index = 0
    while True:
        for op in cycle_ops(workload, fixtures, seed, index):
            if tracer is None:
                outcomes.append(run_op(op, clock))
            else:
                with tracer.span("op") as span:
                    outcomes.append(run_op(op, clock))
                span.meta["op"] = op.name
        index += 1
        if clock() - t0 >= seconds:
            return outcomes


def timed_seconds(outcomes):
    return [o.seconds for o in outcomes if o.timed]


def end_to_end(outcomes, setup_samples):
    samples = timed_seconds(outcomes)
    return {
        "setup_s": statistics.median(setup_samples),
        "op_s": statistics.median(samples),
        "ok_share": sum(o.passed for o in outcomes) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(workload, fixtures, seed, seconds, clock):
    from tracing import Tracer, instrument, layer_metrics

    base = run_cycles(workload, fixtures, seed, 0, clock)
    tracer = Tracer(clock)
    with instrument(tracer):
        traced = run_cycles(workload, fixtures, seed, seconds, clock, tracer)
    m = layer_metrics(tracer.spans, [o.seconds for o in traced])
    m["trace.op_s.untraced"] = statistics.median(timed_seconds(base))
    m["trace.op_s.traced"] = statistics.median(timed_seconds(traced))
    m["trace.overhead"] = m["trace.op_s.traced"] / m["trace.op_s.untraced"]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans_{workload}_seed{seed}.json"
    path.write_text(json.dumps([s.to_dict() for s in tracer.spans]))
    return base + traced, m, str(path.relative_to(ROOT))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chowreg" / "__init__.py").is_file():
        print(f"error: no chowreg package under {SRC}; run from a chowreg "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chowreg
    import workloads

    if Path(chowreg.__file__).resolve().parent != SRC / "chowreg":
        print(f"error: imported chowreg from {chowreg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    wl = workloads.WORKLOADS[args.workload]
    setup_samples = ([] if args.trace else
                     [measure_setup(wl.fixtures) for _ in range(SETUP_SAMPLES)])
    fixtures = {n: chowreg.load_fixture(n) for n in wl.fixtures}
    clock = time.perf_counter

    spans_file = None
    if args.trace:
        outcomes, metrics, spans_file = traced_run(
            args.workload, fixtures, args.seed, args.seconds, clock)
    else:
        outcomes = run_cycles(args.workload, fixtures, args.seed, args.seconds,
                              clock)
        metrics = end_to_end(outcomes, setup_samples)
    if set(metrics) != set(units):
        print("error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 3

    failures = Counter(f"{o.op}: {o.error}" for o in outcomes if not o.passed)
    timed = timed_seconds(outcomes)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for o in outcomes:
        status = "ok" if o.passed else "FAILED"
        if o.error:
            status += f" ({o.error})"
        print(f"  op {o.op}: {o.seconds:.3f} s {status}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    # A run has at most six timed operations, too few for any percentile
    # above the median to have ten samples beyond it, so the tail is
    # reported as the maximum, outside the metrics.
    print(f"  op_s samples: {len(timed)}, max {max(timed):.6g} s; "
          f"setup_s samples: {len(setup_samples)}")
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_facts(args.seed),
        "op_s_samples": len(timed),
        "op_s_max": max(timed),
        "setup_s_samples": setup_samples,
        "outcomes": [[o.op, o.seconds, o.passed, o.error] for o in outcomes],
        "failures": failures,
        "spans_file": spans_file,
    }
    print("report " + json.dumps(report))
    result = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o.passed for o in outcomes),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
