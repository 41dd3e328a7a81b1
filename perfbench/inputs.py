"""Seeded problem files for the benchmark workloads.

The seed picks a unit-modulus phase e^{i theta} and the order in which the
reference problems p1, p2 and p3 rotate.  The phase multiplies (f, q) of
each problem, so the exact solution jet is the corpus closed form times the
same phase, while the work per operation does not depend on the seed.

Run as a script, this measures one fresh-interpreter set-up: it times
``import mpbvp`` plus building and writing the problem files, then times the
host speed kernel (see hostspeed.py), and prints both times in seconds on
its last line.  It is started from the root of a checkout:

    python3 perfbench/inputs.py --n 2048 --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import cmath
import math
import random
import sys
import time
from pathlib import Path

PROBLEMS = ("p1", "p2", "p3")


def seeded_plan(seed: int) -> tuple[complex, list[str]]:
    """(phase, rotation order) chosen by the seed."""
    rng = random.Random(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    order = rng.sample(PROBLEMS, len(PROBLEMS))
    return cmath.exp(1j * theta), order


def phased_problem(name: str, n: int, phase: complex):
    """Corpus problem ``name`` on an n-grid with (f, q) multiplied by ``phase``."""
    from mpbvp import BvpProblem, corpus

    base = corpus.build_problem(name, n)
    return BvpProblem(
        r=base.r, m=base.m, coeffs=base.coeffs, f=base.f * phase,
        q=base.q * phase, operator=base.operator, grid=base.grid,
    )


def write_inputs(n: int, seed: int, out_dir: Path) -> dict[str, Path]:
    """Write the seeded problem files into ``out_dir``; return name -> path."""
    from mpbvp import emit_problem

    phase, _ = seeded_plan(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in PROBLEMS:
        path = out_dir / f"{name}.json"
        emit_problem(phased_problem(name, n, phase), str(path))
        paths[name] = path
    return paths


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    src = Path.cwd() / "src"
    if not (src / "mpbvp" / "__init__.py").is_file():
        print(f"no mpbvp package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import mpbvp  # noqa: F401  (the import is what is timed)

    write_inputs(args.n, args.seed, args.out)
    seconds = time.perf_counter() - start
    import hostspeed  # after the timed part: it imports numpy

    print(seconds, hostspeed.kernel_s())
    return 0


if __name__ == "__main__":
    sys.exit(main())
