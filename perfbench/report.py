"""Print every end-to-end metric of every workload, and the tracing overhead.

    python3 perfbench/report.py

Run from the root of an mpbvp checkout.  For each workload in
BENCHMARK.json this makes one untraced and one traced run, both with seed
SEED and ``run_seconds``, and prints the six end-to-end metrics with their
units, then the traced run's median operation time next to the untraced
one and their difference, which is what the tracer costs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
SEED = 1


def summary(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's ``#`` summary line, parsed."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600, check=True)
    line = next(ln for ln in done.stdout.splitlines() if ln.startswith("# "))
    return json.loads(line[2:])


def main() -> int:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["failed_frac"] = "ratio"  # failed / attempted; never a bounded metric
    for workload in (w["name"] for w in spec["workloads"]):
        plain = summary(workload, SEED, spec["run_seconds"], 0)
        traced = summary(workload, SEED, spec["run_seconds"], 1)
        print(f"{workload} (seed {SEED}, {plain['ops']} ops, "
              f"rotation {' '.join(plain['rotation'])})")
        for name, unit in units.items():
            note = ""
            if name == "op_s_tail":
                note = (f"  (p{plain['op_s_tail_percentile']:.1f}: "
                        f"{plain['op_s_tail_samples_beyond']} of {plain['ops']} samples beyond)")
            print(f"  {name:16s} {plain[name]:12.6g} {unit}{note}")
        overhead = traced["op_s_p50"] - plain["op_s_p50"]
        print(f"  {'traced op_s_p50':16s} {traced['op_s_p50']:12.6g} s  "
              f"(tracing overhead {overhead:+.6g} s, {overhead / plain['op_s_p50']:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
