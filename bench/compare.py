"""Compare two checkouts (parent and change) on the benchmark, in pairs.

    python3 bench/compare.py --parent ../parent --change . --workload long-series --pairs 10

Each pair runs both checkouts on one seed, alternating which goes first;
pair i uses seed 1000 + i, and every run lasts BENCHMARK.json's
run_seconds. Per workload and end-to-end metric it prints
both sides' median and quartiles, the pairs the change won, and a verdict:

- `gain`: the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's interquartile range, with no more
  failed ops than the parent;
- `REGRESSION`: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
- `unresolved`: the run-to-run spread of either side exceeds the bound,
  unless every change run beats every parent run;
- `no change`: none of these.

`op_ms_p50` and `op_ms_p90`, which the benchmark prints but does not
bound, get the same rows without a bound: `gain` or `no change` only.

Without `--parent` it measures one checkout and prints each metric's
quartiles and spread (interquartile range / median) against its bound.
`--save FILE` keeps the raw results and `--load FILE` reports them again.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9
SEED0 = 1000  # pair i uses seed SEED0 + i, as in the recorded baseline
UNBOUNDED = [{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": None},
             {"name": "op_ms_p90", "unit": "ms", "better": "lower", "bound": None}]


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound, parent_failed=0, change_failed=0) -> dict:
    """Judge one metric on one workload from paired runs (parent[i] with change[i]).

    With `bound` None, only a gain is judged.
    """
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    worse_by = -sign * (c_med - p_med) / abs(p_med)
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    if bound is not None and worse_by > bound:
        outcome = "REGRESSION"
    elif sign * (c_med - p_med) > (p_q3 - p_q1) and wins >= WIN_SHARE * len(parent):
        outcome = "gain" if change_failed <= parent_failed else "no gain: more ops failed"
    elif bound is not None and spread > bound and not dominates:
        outcome = "unresolved"
    else:
        outcome = "no change"
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "worse_by": worse_by,
        "spread": spread,
        "verdict": outcome,
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced run; the full result, with provenance and failure counts."""
    out = checkout.resolve() / f".bench_result-{os.getpid()}.json"
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--out", str(out)]
    try:
        done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            raise RuntimeError(f"{checkout}: {' '.join(cmd)} failed:\n{done.stderr[-2000:]}")
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def collect(checkouts: dict, workloads, pairs: int, seconds: int) -> dict:
    """checkouts: side name -> path; both sides of a pair share its seed."""
    results = {w: {side: [] for side in checkouts} for w in workloads}
    for workload in workloads:
        for i in range(pairs):
            order = list(checkouts.items())
            if i % 2:
                order.reverse()
            for side, checkout in order:
                results[workload][side].append(run_once(checkout, workload, SEED0 + i, seconds))
                print(f"{workload} pair {i + 1}/{pairs} {side} done", file=sys.stderr, flush=True)
    return results


def fmt(q) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def values(runs, name):
    """A metric's values, from the bounded metrics or the printed extras."""
    return [r["metrics"][name]["value"] if name in r["metrics"] else r["extras"].get(name) for r in runs]


def spread_report(results: dict, spec: dict) -> list[str]:
    """One checkout: each metric's quartiles and spread against its bound."""
    lines = []
    for workload, sides in results.items():
        runs = sides["change"]
        lines.append(f"== {workload}: {len(runs)} runs, failed ops median "
                     f"{statistics.median(r['failed'] for r in runs):g}, all correct: "
                     f"{all(r['correct'] for r in runs)}")
        for metric in spec["end_to_end"] + UNBOUNDED:
            found = values(runs, metric["name"])
            if None in found:
                continue
            q = quartiles(found)
            spread = (q[2] - q[0]) / abs(q[1])
            bound = metric["bound"]
            if bound is None:
                flag = "not bounded"
            else:
                flag = f"bound {bound}, a third {bound / 3:.3f}: " + ("ok" if spread <= bound else "SPREAD > bound")
            lines.append(f"{metric['name']:16s} {fmt(q):>32s} {metric['unit']:>4s}  spread {spread:.3f}  {flag}")
    return lines


def report(results: dict, spec: dict) -> list[str]:
    if not all("parent" in sides for sides in results.values()):
        return spread_report(results, spec)
    lines = []
    for workload, sides in results.items():
        parent_failed = statistics.median(r["failed"] for r in sides["parent"])
        change_failed = statistics.median(r["failed"] for r in sides["change"])
        lines.append(f"== {workload}: failed ops median parent {parent_failed:g}, change {change_failed:g}")
        lines.append(f"{'metric':16s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} "
                     f"{'wins':>6s} {'worse_by':>9s} {'spread':>7s}  verdict")
        for metric in spec["end_to_end"] + UNBOUNDED:
            name = metric["name"]
            parent, change = values(sides["parent"], name), values(sides["change"], name)
            if None in parent + change:
                continue  # op_ms_p90 exists only where a run holds enough ops
            row = verdict(parent, change, metric["better"], metric["bound"], parent_failed, change_failed)
            lines.append(f"{name:16s} {fmt(row['parent']):>32s} {fmt(row['change']):>32s} "
                         f"{row['wins']:>3d}/{row['pairs']:<2d} {row['worse_by']:>+9.3f} "
                         f"{row['spread']:>7.3f}  {row['verdict']} [{metric['unit']}, bound {metric['bound']}]")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit (optional)")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--pairs", type=int, default=10, help="pairs, or runs of one checkout")
    parser.add_argument("--save", type=Path, help="write the raw results here")
    parser.add_argument("--load", type=Path, help="report saved results instead of running")
    args = parser.parse_args(argv)

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    if args.load:
        results = json.loads(args.load.read_text())
    else:
        if not args.change:
            parser.error("--change is required unless --load is given")
        checkouts = {"change": args.change}
        if args.parent:
            checkouts = {"parent": args.parent, "change": args.change}
            bench_files = {c: sorted((p.name, p.read_bytes()) for p in (c / "bench").glob("*.py"))
                           for c in checkouts.values()}
            if bench_files[args.parent] != bench_files[args.change]:
                print("warning: the two checkouts run different benchmark code", file=sys.stderr)
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        results = collect(checkouts, workloads, args.pairs, spec["run_seconds"])
        if args.save:
            args.save.write_text(json.dumps(results, indent=1) + "\n")
    print("\n".join(report(results, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
