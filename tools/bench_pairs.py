"""Alternating parent/change pairs of one benchmark workload, and whether a
speed claim holds.

    python3 tools/bench_pairs.py PARENT CHANGE --workload nondeg_table --seed 0

PARENT and CHANGE are the roots of two source checkouts.  Each pair runs
``perfbench/run.py --workload W --seed S --seconds R --trace 0`` once from
each checkout's root, each run its own process, with R the ``run_seconds``
of CHANGE's ``BENCHMARK.json``; the parent runs first in the even pairs and
the change in the odd ones.  A run that fails, or whose report is not
``correct``, is refused: the tool stops with exit code 2.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles (``statistics.quantiles``, inclusive method; one
run is its own median and quartiles), the
change's wins (the pairs in which the change is better in the metric's
direction; a tie counts for neither side) and whether the gain rule holds:
the change wins at least 9 in 10 of the pairs, and its median is better
than the parent's by more than the parent's interquartile range.  Below
10 pairs no share of wins reads as 9 in 10, so the rule gives no
verdict.  A line per metric then gives its no-regression verdict against
the metric's ``bound``, a share of the parent's median: ``worse`` where
the change's median is worse than the parent's by more than the bound,
in the metric's direction; else ``unresolved`` where the parent's
interquartile range is wider than the bound, unless every change run
beats every parent run; else ``no worse``.  ``--pairs`` sets the number
of pairs (10).  With ``--trace``,
one more run per side with ``--trace 1`` follows the pairs, and the tool
prints both sides' per-call times of the model kernels
(``model.vector_field.us`` and ``model.hessian.us``), then every
per-layer count (a metric of unit "count") that differs between the two
traced reports, so the counts stand next to the wall times.  The tool
only reads the checkouts; ``perfbench/run.py`` leaves its working files
in each one's ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9
# below this many pairs no share of wins reads as 9 in 10: no verdict
MIN_PAIRS = 10
# the per-call times that a traced comparison prints for both sides
KERNEL_TIMES = ("model.vector_field.us", "model.hessian.us")


def run_once(checkout, workload, seed, seconds, trace=0):
    """The report of one run from the checkout's root: end to end, or per
    layer with ``trace`` 1."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    # run.py exits 0 only after printing a correct report as its last line
    report = (json.loads(done.stdout.strip().splitlines()[-1])
              if done.returncode == 0 else None)
    if not (report and report["correct"]):
        raise RuntimeError(f"run in {checkout} refused (exit {done.returncode}):\n"
                           f"{done.stdout}{done.stderr}")
    return report


def _spread(values):
    """(median, q1, q3); one value is its own median and quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarize(parent, change, metrics):
    """Per metric of ``metrics`` (BENCHMARK.json's end_to_end entries), the
    medians and quartiles of both sides, the change's wins, the gain rule
    (None below MIN_PAIRS pairs) and the no-regression verdict, from the
    reports of the pairs (``parent[i]`` with ``change[i]``)."""
    rows = []
    for m in metrics:
        sign = 1.0 if m["better"] == "higher" else -1.0
        p = [r["metrics"][m["name"]]["value"] for r in parent]
        c = [r["metrics"][m["name"]]["value"] for r in change]
        wins = sum(sign * (b - a) > 0.0 for a, b in zip(p, c))
        (pm, p1, p3), (cm, c1, c3) = _spread(p), _spread(c)
        bound = m["bound"] * abs(pm)
        if sign * (pm - cm) > bound:
            regression = "worse"
        elif (p3 - p1 > bound
              and not min(sign * b for b in c) > max(sign * a for a in p)):
            regression = "unresolved"
        else:
            regression = "no worse"
        rows.append({"metric": m["name"], "unit": m["unit"],
                     "parent": (pm, p1, p3), "change": (cm, c1, c3),
                     "wins": wins, "pairs": len(p),
                     "gain": (wins >= WIN_SHARE * len(p) and sign * (cm - pm) > p3 - p1
                              if len(p) >= MIN_PAIRS else None),
                     "bound": m["bound"], "regression": regression})
    return rows


def _verdict(gain):
    if gain is None:
        return f"needs {MIN_PAIRS} pairs"
    return "holds" if gain else "fails"


def format_rows(rows):
    return [f"{r['metric']}: parent {r['parent'][0]:.6g} [{r['parent'][1]:.6g}, "
            f"{r['parent'][2]:.6g}], change {r['change'][0]:.6g} "
            f"[{r['change'][1]:.6g}, {r['change'][2]:.6g}] {r['unit']}; "
            f"change wins {r['wins']}/{r['pairs']}; gain rule "
            f"{_verdict(r['gain'])}" for r in rows]


def format_regressions(rows):
    return [f"{r['metric']}: {r['regression']} (bound {r['bound']:g} of the "
            f"parent's median)" for r in rows]


def kernel_times(parent, change):
    """One line per model kernel of two traced reports: both sides'
    microseconds per call (None where a report lacks it)."""
    lines = []
    for name in KERNEL_TIMES:
        a, b = (report["metrics"].get(name, {}).get("value")
                for report in (parent, change))
        a, b = ("None" if v is None else f"{v:.3g}" for v in (a, b))
        lines.append(f"{name}: parent {a}, change {b}")
    return lines


def count_differences(parent, change):
    """One line per per-layer count (unit "count") of two traced reports
    whose values differ, or that one report lacks (value None)."""
    names = [n for n, m in {**parent["metrics"], **change["metrics"]}.items()
             if m["unit"] == "count"]
    lines = []
    for name in names:
        a, b = (report["metrics"].get(name, {}).get("value")
                for report in (parent, change))
        if a != b:
            lines.append(f"{name}: parent {a}, change {b}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--trace", action="store_true",
                   help="one traced run per side: print the counts that differ")
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": [], "change": []}
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                sides[side].append(run_once(getattr(args, side), args.workload,
                                            args.seed, spec["run_seconds"]))
        traced = [run_once(checkout, args.workload, args.seed,
                           spec["run_seconds"], trace=1)
                  for checkout in (args.parent, args.change) if args.trace]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs")
    rows = summarize(sides["parent"], sides["change"], spec["end_to_end"])
    print("\n".join(format_rows(rows)))
    print("\n".join(format_regressions(rows)))
    if traced:
        print("\n".join(kernel_times(*traced)))
        print("\n".join(count_differences(*traced))
              or "traced counts: all the same")
    return 0


if __name__ == "__main__":
    sys.exit(main())
