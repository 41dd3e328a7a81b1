"""mpbvp benchmark: one workload, one seed, one closed-loop client.

Run from the root of a checkout (the mpbvp package is imported from its
``src`` directory):

    python3 perfbench/run.py --workload solve-fine --seed 1 --seconds 22 --trace 0

Set-up: SETUP_REPEATS fresh interpreters each import mpbvp and build and
write the seeded problem files; ``setup_s`` is the median of their times.
Then this process imports mpbvp, writes the same files and runs operations
back to back, each ``mpbvp.cli.main`` call in-process, in whole rotations
over the three problems.  ``--seconds`` fixes the number of rotations: as
many as take that long at the reference speed on the commit that defined
the benchmark (``Workload.rotation_s``).  So every run makes the same
operations, and the tail is the same order statistic in each, which keeps
it from jumping between the three problems' op times.  Every operation is
checked after it is timed.  BLAS threads are capped at the number of
usable cores.

Every reported time is scaled to a reference host speed (hostspeed.py):
each set-up by the kernel timed right after it in the same interpreter,
each operation by the kernel timed right before it.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` every operation runs under the tracer
and the line reports the per-layer metrics instead, per operation.  The
line before it starts with ``#`` and summarizes the run: every end-to-end
metric, the tail percentile used, the sample count, each op's scaled time,
and the unscaled wall-time median and tail with the kernel's median time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
SETUP_REPEATS = 11
TAIL_SAMPLES = 10
#: A run stops starting operations after this much wall time, so that it
#: ends well within the three minutes a run may take.
WALL_LIMIT_S = 140.0
#: Per-layer metrics of these modules describe the in-process set-up, not
#: an operation: the workloads build no problem once their files exist.
SETUP_MODULES = ("corpus",)
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile of
    ``times`` with TAIL_SAMPLES samples above it, or the minimum when
    there are too few samples."""
    ordered = sorted(times)
    beyond = min(TAIL_SAMPLES, len(ordered) - 1)
    rank = len(ordered) - 1 - beyond
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), beyond


def measure_setup(root: Path, n: int, seed: int, out_dir: Path) -> float:
    """Median scaled seconds of SETUP_REPEATS fresh-interpreter set-ups."""
    import hostspeed
    command = [sys.executable, str(HERE / "inputs.py"),
               "--n", str(n), "--seed", str(seed), "--out", str(out_dir)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(command, cwd=root, capture_output=True, text=True,
                              timeout=60, check=True)
        seconds, kernel = map(float, done.stdout.strip().splitlines()[-1].split())
        times.append(hostspeed.scaled(seconds, kernel))
    return statistics.median(times)


def run_op(cli, argvs) -> tuple[list[int], str]:
    """Call cli.main for each argv; (return codes, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in argvs]
    return codes, err.getvalue()


def clear(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


def run(workload, seed: int, seconds: float, traced: bool, root: Path, work: Path) -> dict:
    import hostspeed
    import mpbvp.cli
    import numpy
    from tracer import Tracer

    started = time.perf_counter()
    setup_s = measure_setup(root, workload.n, seed, work / "setup")
    phase, order = inputs.seeded_plan(seed)

    setup_tracer = Tracer()
    with setup_tracer.attached() if traced else contextlib.nullcontext():
        paths = inputs.write_inputs(workload.n, seed, work / "inputs")
    references = {name: workload.prepare(name, paths[name], phase, workload.n)
                  for name in order}

    out = work / "out"
    op_tracer = Tracer()
    times: list[float] = []  # scaled
    wall_times: list[float] = []
    kernels: list[float] = []
    failures: list[str] = []
    rotations = max(1, round(seconds / workload.rotation_s))
    while (len(times) < rotations * len(order)
           and time.perf_counter() - started < WALL_LIMIT_S):
        name = order[len(times) % len(order)]
        argvs = workload.argvs(str(paths[name]), str(out))
        clear(out)
        kernels.append(hostspeed.kernel_s())
        with op_tracer.attached() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                codes, stderr = run_op(mpbvp.cli, argvs)
            except Exception:
                codes, stderr = None, traceback.format_exc()
            wall_times.append(time.perf_counter() - t0)
        times.append(hostspeed.scaled(wall_times[-1], kernels[-1]))
        try:
            error = (f"raised: {stderr}" if codes is None
                     else workload.check(references[name], out, codes, stderr))
        except Exception:
            error = f"check raised: {traceback.format_exc()}"
        if error is not None:
            failures.append(f"op {len(times) - 1} ({name}): {error}")

    for failure in failures[:3]:
        print(failure, file=sys.stderr)
    tail_value, percentile, beyond = tail(times)
    e2e = {
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_value,
        "ops_per_s": len(times) / sum(times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary = dict(
        e2e,
        workload=workload.name, seed=seed, trace=int(traced), ops=len(times),
        failed_frac=len(failures) / len(times),
        op_s_tail_percentile=percentile, op_s_tail_samples_beyond=beyond,
        rotation=order, phase=[phase.real, phase.imag], op_times=times,
        wall_op_s_p50=statistics.median(wall_times), wall_op_s_tail=tail(wall_times)[0],
        kernel_s_p50=statistics.median(kernels), kernel_reference_s=hostspeed.REFERENCE_S,
        python=sys.version.split()[0], numpy=numpy.__version__,
        nproc=NPROC, blas_threads=NPROC,
    )
    print("# " + json.dumps(summary))
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    if traced:
        per_op = {name: value / len(times) for name, value in op_tracer.totals().items()}
        setup = setup_tracer.totals()
        metrics = {m["name"]: {"value": (setup if m["name"].split(".")[0] in SETUP_MODULES
                                         else per_op)[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": not failures, "attempted": len(times),
            "failed": len(failures), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    src = root / "src"
    if not (src / "mpbvp" / "__init__.py").is_file():
        print(f"mpbvp source not found under {src}; "
              "run from the root of an mpbvp checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # read when numpy is first imported, below
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(src))
    import mpbvp
    from workloads import WORKLOADS

    if Path(mpbvp.__file__).resolve().parent != (src / "mpbvp").resolve():
        print(f"imported mpbvp from {mpbvp.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
