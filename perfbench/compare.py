"""Compare two result sets of the benchmark, one row per workload.

    python3 perfbench/compare.py --base PARENT --change CHANGE [--save FILE]
    python3 perfbench/compare.py --load FILE

PARENT and CHANGE are the roots of two mpbvp checkouts (the same one twice
measures the benchmark's own noise).  Both run this directory's run.py, so
both sides use identical benchmark code and ``run_seconds`` from
BENCHMARK.json.  There are PAIRS pairs per workload; pair i runs seed
FIRST_SEED + i on both sides, and the side that runs first alternates from
pair to pair.

For each end-to-end metric the verdict is:

- ``win``: the change is better in at least 9/10 of the pairs (ties count
  for neither side), its median beats the parent's by more than the
  parent's interquartile range, and no more operations failed;
- ``unresolved``: a side's interquartile range, as a share of its median,
  exceeds the metric's bound, unless every change run beats every parent
  run;
- ``regression``: the change's median is worse than the parent's by more
  than the bound;
- ``same`` otherwise.

The exit status is 1 when any metric regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
WIN_SHARE = 0.9
PAIRS = 10
FIRST_SEED = 1


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True,
                          timeout=600, check=True)
    *_, summary_line, result_line = done.stdout.strip().splitlines()
    summary, result = json.loads(summary_line[2:]), json.loads(result_line)
    return {"failed": result["failed"], "attempted": result["attempted"],
            "wall_s": time.perf_counter() - started,
            "wall_op_s_p50": summary["wall_op_s_p50"],
            "kernel_s_p50": summary["kernel_s_p50"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def collect(base: Path, change: Path, workloads, seconds: int) -> dict:
    runs = {w: {"base": [], "change": []} for w in workloads}
    for workload in workloads:
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            order = [("base", base), ("change", change)]
            if i % 2:
                order.reverse()
            for side, checkout in order:
                runs[workload][side].append(run_once(checkout, workload, seed, seconds))
            print(f"{workload} pair {i + 1}/{PAIRS} done", file=sys.stderr, flush=True)
    return runs


def spread(values) -> float:
    """Interquartile range over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base, change, better: str, bound: float, more_failures: bool) -> tuple[str, str]:
    """(verdict, detail) for one metric on one workload; see the module doc."""
    sign = 1.0 if better == "higher" else -1.0
    median_b, median_c = statistics.median(base), statistics.median(change)
    q1, _, q3 = statistics.quantiles(base, n=4)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    relative = (median_c - median_b) / abs(median_b)
    gain = sign * (median_c - median_b)
    all_better = (min(change) > max(base)) if sign > 0 else (max(change) < min(base))
    detail = f"median {relative:+.1%}, {wins}/{len(base)} pairs better"
    if wins >= WIN_SHARE * len(base) and gain > q3 - q1 and not more_failures:
        return "win", detail
    if max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved", detail
    if -sign * relative > bound:
        return "regression", detail
    return "same", detail


def report(runs: dict, spec: dict) -> bool:
    """Print medians, quartiles and verdicts; True when something regressed."""
    metrics = spec["end_to_end"]
    regressed = False
    rows = []
    for workload, sides in runs.items():
        base, change = sides["base"], sides["change"]
        failed = {side: sum(r["failed"] for r in rs) for side, rs in sides.items()}
        attempted = {side: sum(r["attempted"] for r in rs) for side, rs in sides.items()}
        print(f"{workload}: failed ops base {failed['base']}/{attempted['base']}, "
              f"change {failed['change']}/{attempted['change']}")
        cells = []
        for metric in metrics:
            name = metric["name"]
            b = [r[name] for r in base]
            c = [r[name] for r in change]
            for side, values in (("base", b), ("change", c)):
                q1, q2, q3 = statistics.quantiles(values, n=4)
                print(f"  {name:12s} {side:6s} median {statistics.median(values):.6g} "
                      f"{metric['unit']}  quartiles {q1:.6g} .. {q3:.6g}  "
                      f"spread {spread(values):.1%}")
            result, detail = verdict(b, c, metric["better"], metric["bound"],
                                     failed["change"] > failed["base"])
            regressed |= result == "regression"
            cells.append(f"{name}: {result} ({detail}, bound {metric['bound']:.0%})")
        rows.append(f"{workload:18s} " + " | ".join(cells))
    print()
    print("\n".join(rows))
    return regressed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--load", type=Path)
    args = parser.parse_args()
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    if args.load:
        runs = json.loads(args.load.read_text(encoding="utf-8"))
    elif args.base and args.change:
        workloads = [w["name"] for w in spec["workloads"]]
        runs = collect(args.base.resolve(), args.change.resolve(), workloads,
                       spec["run_seconds"])
        if args.save:
            args.save.write_text(json.dumps(runs, indent=1), encoding="utf-8")
    else:
        parser.error("give --base and --change, or --load")
    return 1 if report(runs, spec) else 0


if __name__ == "__main__":
    sys.exit(main())
