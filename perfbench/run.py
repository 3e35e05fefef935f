"""Run one workload of the cforbits benchmark and print its metrics.

    python3 perfbench/run.py --workload nondeg_table --seed 0 --seconds 5 --trace 0

Run from the root of a source checkout: the toolkit is imported from
``src/``.  Workloads (see ``workloads.py``): ``nondeg_table``,
``resonance_survey``, ``multistart_fp`` and ``spatial_fe``.

With ``--trace 0`` the workload runs whole passes over its seeded inputs, in
one single-threaded closed loop, until ``--seconds`` of wall time have passed
(at least one pass).  Times are then read from ``clock.SpeedClock``, which
corrects wall time for the shared machine's changing speed, and the last line
of output is the end-to-end report:

* ``ops_per_min``: work units per minute, the median over passes.  A unit is
  a case cross-checked through the CLI (``nondeg_table``), a ``k:n`` target
  found or shown out of range (``resonance_survey``), a continuation seed
  processed, accepted or not (``multistart_fp``), or an accepted solution
  that passes its re-check (``spatial_fe``).
* ``setup_s``: the import of the toolkit (after NumPy and ``scipy.integrate``,
  which the clock needs) plus the median of three input set-ups (input
  generation and schema load; base orbit and manifold samples for the
  continuation workloads).
* ``peak_rss_mb``: the process's peak resident set.
* ``ok_share``: operations that gave the known answer over operations
  attempted.

A line before it gives the same run under the workload's own names
(``verdicts_per_min``, ``resonances_per_s``, ``seeds_per_min``,
``solutions_per_min``, ``fail_share``).

With ``--trace 1`` the workload runs exactly one pass, traced, whatever
``--seconds`` says, so its integer counts repeat exactly for a seed.  The
speed clock does not run, so every time of this report is plain wall time.
The report holds the per-layer metrics (see ``trace.py``) and
``trace.pass_s``, the pass's wall time; ``perfbench/baseline.json`` gives the
tracing overhead per workload, measured against an untraced pass run just
before.  The spans are written to ``.perfbench_out/``.  The run fails if a
boundary the workload must use records no call, or a boundary it must not
use records any.

The exit code is 1 when an operation fails other than as the pool records
(``correct`` false), 3 when the coverage check fails and 2 when the toolkit
cannot be imported from the checkout.  Only the known failures of
``resonance_survey`` (targets on which ``find_closed_orbit`` raises today)
count as failed operations that lower ``ok_share`` without failing the run;
any other exception or disagreeing answer makes the run fail.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_toolkit():
    """Import cforbits from the checkout's ``src/``; returns the wall-time
    interval of the import."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    try:
        import cforbits.cli
    except ImportError as exc:
        raise ImportError(f"no toolkit under {src}: {exc}") from exc
    t1 = time.perf_counter()
    if not os.path.abspath(cforbits.__file__).startswith(src + os.sep):
        raise ImportError(f"cforbits was imported from {cforbits.__file__}, not {src}")
    return t0, t1


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(wl, inputs, setup_time, seconds, clock):
    """Whole passes until ``seconds`` of wall time have passed (at least
    one); returns the tally, the end-to-end metrics and a summary line under
    the workload's own metric names.  ``setup_time()`` gives ``setup_s``
    after the passes."""
    from perfbench.workloads import Tally

    tally = Tally()
    intervals = []  # (units, start, end) per pass
    start = time.perf_counter()
    while not intervals or time.perf_counter() - start < seconds:
        before, t0 = tally.units, time.perf_counter()
        wl.run_pass(inputs, tally)
        intervals.append((tally.units - before, t0, time.perf_counter()))
    passes = [(u, clock.correct(t0, t1)) for u, t0, t1 in intervals]
    setup_s = setup_time()
    metrics = {
        "ops_per_min": _metric(statistics.median(60.0 * u / t for u, t in passes), "ops/min"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_share": _metric((tally.attempted - tally.failed) / max(tally.attempted, 1),
                            "ratio"),
    }
    total = sum(t for _, t in passes)
    parts = [f"{wl.name}:"]
    for name, unit, factor, field in wl.rates:
        parts.append(f"{name}={factor * getattr(tally, field) / total:.4g} {unit}")
    parts.append(f"fail_share={tally.failed / max(tally.attempted, 1):.4g} ratio")
    parts.append(f"setup_s={setup_s:.4g} s ({len(passes)} passes, {tally.units} units, "
                 f"{total:.2f} s measured)")
    return tally, metrics, " ".join(parts)


def traced_pass(wl, inputs, tally):
    """One pass with the tracer installed; returns the tracer and the pass's
    wall time."""
    from perfbench.trace import Tracer

    with Tracer() as tracer:
        t0 = time.perf_counter()
        wl.run_pass(inputs, tally)
        return tracer, time.perf_counter() - t0


def trace_metrics(tracer, traced_s):
    """Per-layer metrics of a traced pass, plus the pass's wall time."""
    from perfbench.trace import layer_metrics

    metrics = {k: _metric(v, u) for k, (v, u) in layer_metrics(tracer).items()}
    metrics["trace.pass_s"] = _metric(traced_s, "s")
    return metrics


def main(argv=None):
    args = _parse(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, ROOT)
    from perfbench.clock import SpeedClock  # imports NumPy and scipy.integrate

    clock = SpeedClock()
    if args.trace == 0:
        clock.start()
    try:
        try:
            imported = _import_toolkit()
        except ImportError as exc:
            print(f"error: cannot import the toolkit: {exc}", file=sys.stderr)
            return 2
        return _run(args, clock, imported)
    finally:
        if args.trace == 0:
            clock.stop()


def _run(args, clock, imported):
    from perfbench.trace import coverage_errors
    from perfbench.workloads import WORKLOADS, Tally

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"{wl.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            t0 = time.perf_counter()
            inputs = wl.setup(args.seed, workdir)
            setups.append((t0, time.perf_counter()))

        def setup_time():
            return clock.correct(*imported) + statistics.median(
                clock.correct(*iv) for iv in setups)

        if args.trace == 0:
            tally, metrics, summary = measure(wl, inputs, setup_time, args.seconds, clock)
            print(summary)
        else:
            tally = Tally()
            tracer, traced = traced_pass(wl, inputs, tally)
            tracer.write_spans(os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.jsonl"))
            errors = coverage_errors(tracer, wl.active)
            if errors:
                print(f"error: coverage check failed on {wl.name}:\n  " + "\n  ".join(errors),
                      file=sys.stderr)
                return 3
            metrics = trace_metrics(tracer, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = not tally.wrong
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
