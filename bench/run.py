"""poissonkit benchmark: run one workload, check every output, print metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, in this process and on this thread.  The run
repeats whole passes over the workload's operations until ``--seconds`` have
elapsed (at least two passes), checks every output against the independent
answers in ``oracles.py``, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, pass_s,
op_p50_ms, peak_rss_mb); with ``--trace 1`` the run also makes one span-traced
pass and one pass under cProfile and reports the per-layer metrics instead.

``pass_s`` and ``op_p50_ms`` are times at a reference CPU speed: every timed
call is bracketed by a fixed calibration loop, and its wall time is scaled by
``REFERENCE_S`` over the loop's mean time around it.  On a shared machine
whose CPU speed changes by half for tens of seconds at a time, this keeps
runs made at different moments comparable; the raw wall times go to
``bench/results/``.

The exit code is 0 when every output is correct, 1 when one is wrong, and 2
for a usage error or a checkout without the package source.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "work"
MIN_PASSES = 2
SETUP_PROBES = 7
# what the calibration loop takes at the reference speed (about this loop's
# time on the 2-core machine the README's figures come from)
REFERENCE_S = 0.002


def calibration_s() -> float:
    """Median of three timings of a fixed loop of exact rational additions,
    the kind of work poissonkit does; it reads the CPU speed of the moment."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 600):
            total += Fraction(1, i)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def import_poissonkit():
    init = SRC / "poissonkit" / "__init__.py"
    if not init.is_file():
        sys.stderr.write(f"bench: no poissonkit source under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import poissonkit

    if Path(poissonkit.__file__).resolve() != init.resolve():
        sys.stderr.write(f"bench: imported poissonkit from {poissonkit.__file__}, not {init}\n")
        sys.exit(2)
    return poissonkit


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import the package and build the inputs (timed by the parent run)")
    return p.parse_args(argv)


def workdir(args) -> Path:
    return WORK / f"{args.workload}-seed{args.seed}"


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that import poissonkit and
    generate and load the workload's inputs.  It is not scaled: start-up
    reads files as much as it computes, and a calibration taken in this
    process right after a child exits reads cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Failed(str):
    """The output recorded for an operation that raised: its exception."""


def run_pass(ops, reference=None, profile=None) -> dict:
    """One pass over all operations; an operation that raises has failed.

    Without a reference pass the outputs are kept.  With one, each output is
    compared with the reference output after the pass and then dropped, so
    that memory does not grow with the number of passes.  A ``cProfile``
    profile, if given, runs during the operations only.
    """
    gc.collect()
    walls, times, outputs = [], [], []
    before = calibration_s()
    for op in ops:
        if profile:
            profile.enable()
        t = time.perf_counter()
        try:
            out = op.run()
        except Exception as e:  # a failed operation is counted, not fatal
            out = Failed(f"{type(e).__name__}: {e}")
        wall = time.perf_counter() - t
        if profile:
            profile.disable()
        after = calibration_s()
        walls.append(wall)
        times.append(wall * 2 * REFERENCE_S / (before + after))
        outputs.append(out)
        before = after
    result = {
        "pass_s": sum(times),
        "wall_s": sum(walls),
        "op_s": times,
        "failed": [f"{op.name}: {out}" for op, out in zip(ops, outputs) if isinstance(out, Failed)],
    }
    if reference is None:
        result["outputs"] = outputs
    else:
        result["differs"] = [op.name for op, a, b in zip(ops, reference["outputs"], outputs)
                             if a != b]
    return result


def verify(ops, reference, passes) -> list:
    """Check the reference pass's outputs against their oracles, and every
    other pass for byte-identical outputs."""
    errors = []
    for op, out in zip(ops, reference["outputs"]):
        if isinstance(out, Failed):
            continue
        try:
            errs = op.check(out)
        except Exception as e:  # a malformed output is a wrong output
            errs = [f"checker raised {type(e).__name__}: {e}"]
        errors += [f"{op.name}: {e}" for e in errs]
    for name in sorted({name for p in passes for name in p["differs"]}):
        errors.append(f"{name}: output differs between identical calls")
    return errors


def main(argv=None) -> int:
    args = parse_args(argv)
    import_poissonkit()
    import workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed, workdir(args))
        return 0

    setup_s = measure_setup(args)
    calibration_s()  # the first calibrations in a process run slow
    ops = workloads.build(args.workload, args.seed, workdir(args))
    # the first pass is slower (allocator growth, first-call paths); it is
    # not timed, and its outputs are the ones checked against the oracles
    warmup = run_pass(ops)
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
        passes.append(run_pass(ops, warmup))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pass_s = statistics.median(p["pass_s"] for p in passes)

    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.trace:
        import tracing

        with tracing.Tracer() as tracer:
            traced = run_pass(ops, warmup)
        profile = cProfile.Profile()
        profiled = run_pass(ops, warmup, profile)
        passes += [traced, profiled]
        metrics = tracer.metrics()
        metrics.update(tracing.profile_metrics(profile))
        metrics["trace.overhead_s"] = traced["pass_s"] - pass_s
        units = {k: ("s" if k.endswith("_s") else "count") for k in metrics}
        tracer.write(RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        metrics = {
            "setup_s": setup_s,
            "pass_s": pass_s,
            "op_p50_ms": 1000 * statistics.median(t for p in passes for t in p["op_s"]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "pass_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

    errors = verify(ops, warmup, passes)
    passes.insert(0, warmup)
    failures = [f for p in passes for f in p["failed"]]
    for line in (errors + sorted(set(failures)))[:20]:
        sys.stderr.write(f"bench: {line}\n")
    result = {
        "correct": not errors,
        "attempted": len(ops) * len(passes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  passes=[p["pass_s"] for p in passes],
                  wall_passes=[p["wall_s"] for p in passes],
                  op_ms={op.name: [1000 * p["op_s"][k] for p in passes]
                         for k, op in enumerate(ops)})
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
