"""Workload operations and the correctness check each operation must pass.

An operation is one or two ``mpbvp.cli.main(argv)`` calls on a seeded
problem file.  Its check runs after it is timed and returns an error
message, or None when the artifacts are correct.  The tolerances sit
above the largest error measured at the commit that introduced the
benchmark, over seeds 1 to 8 (24 phased problems per workload):

- solve at n = 16384 against the phased closed form: 6.7e-16 to 2.1e-13,
  which is round-off;
- the solve of the k = 1024 approximation at n = 2048: 2.8e-8 to 2.6e-7,
  which is the approximation error itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mpbvp import build_multipoint_problem, corpus, parse_problem, problem_to_dict
from mpbvp.cli import REPORT_HEADER

KS = "4:256:x2"
KS_VALUES = [4, 8, 16, 32, 64, 128, 256]
EPS = "1e-3"
RHO = 4
K = 1024

SOLVE_TOL = 1e-11
APPROX_SOLVE_TOL = 1e-6


def _expected_solution(name: str, n: int, phase: complex) -> np.ndarray:
    """The solve CSV of the phased problem as the closed form gives it."""
    jet = corpus.exact_jet(name, n)
    columns = [jet.grid.nodes]
    for channel in jet.samples:
        for comp in range(jet.m):
            z = phase * channel[:, comp]
            columns += [z.real, z.imag]
    return np.column_stack(columns)


def _solution_error(path: Path, expected: np.ndarray) -> float | str:
    """Max abs deviation of a solve CSV from ``expected``, or what is malformed.

    The file is compared a row at a time, so the check needs far less memory
    than the operation that wrote it and does not set the peak RSS."""
    error, i = 0.0, -1
    with path.open(encoding="utf-8") as handle:
        next(handle)  # header
        for i, line in enumerate(handle):
            values = np.array(line.split(","), dtype=float)
            if i >= len(expected) or values.shape != expected[i].shape:
                return f"{path.name} row {i + 1} does not match the expected shape"
            error = max(error, float(np.max(np.abs(values - expected[i]))))
    if i + 1 != len(expected):
        return f"{path.name} has {i + 1} rows, expected {len(expected)}"
    return error


def _check_solution(path: Path, expected: np.ndarray, tol: float) -> str | None:
    error = _solution_error(path, expected)
    if isinstance(error, str):
        return error
    if not error <= tol:
        return f"{path.name} deviates from the closed form by {error:.3e} > {tol:.0e}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    why: str
    #: about the scaled seconds one rotation over p1, p2 and p3 took at the
    #: commit that defined the benchmark; run.py makes
    #: round(--seconds / rotation_s) rotations, a number that host speed and
    #: later program changes do not move
    rotation_s: float
    #: (problem file, output dir) -> the argv of each cli.main call of one op
    argvs: Callable[[str, str], list]
    #: (problem name, problem file, phase, n) -> reference data for ``check``
    prepare: Callable
    #: (reference, output dir, return codes, captured stderr) -> error or None
    check: Callable


def _solve_fine_check(expected, out: Path, codes, stderr):
    if codes != [0]:
        return f"exit codes {codes}"
    return _check_solution(out / "solve.csv", expected, SOLVE_TOL)


def _certify_check(_, out: Path, codes, stderr):
    if codes != [0]:
        return f"exit codes {codes}"
    if f"theorem 3: rho = {RHO}," not in stderr:
        return f"rho != {RHO}: {stderr.strip().splitlines()[-1:]}"
    lines = (out / "check_theorem3.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != REPORT_HEADER:
        return f"report header {lines[0]!r}"
    rows = [line.split(",") for line in lines[1:]]
    if [int(row[0]) for row in rows] != KS_VALUES:
        return f"report rows for k = {[row[0] for row in rows]}"
    if any(row[-1] != "1" for row in rows):
        return "a row has bound_holds = 0"
    return None


def _approx_prepare(name, path, phase, n):
    expected_problem = build_multipoint_problem(parse_problem(str(path)), K)
    return json.dumps(problem_to_dict(expected_problem)), _expected_solution(name, n, phase)


def _approx_check(reference, out: Path, codes, stderr):
    expected_problem, expected_solution = reference
    if codes != [0, 0]:
        return f"exit codes {codes}"
    emitted = parse_problem(str(out / f"approximate_k{K}.json"))
    # Chunk by chunk, so that the check holds no second copy of the text.
    position = 0
    for chunk in json.JSONEncoder().iterencode(problem_to_dict(emitted)):
        if not expected_problem.startswith(chunk, position):
            return f"approximate_k{K}.json differs from build_multipoint_problem(p, {K})"
        position += len(chunk)
    if position != len(expected_problem):
        return f"approximate_k{K}.json differs from build_multipoint_problem(p, {K})"
    return _check_solution(out / "solve.csv", expected_solution, APPROX_SOLVE_TOL)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="solve-fine",
            n=16384,
            rotation_s=2.7,
            why="solve <file> --out D at n=16384: the RK4 propagators and CSV "
                "output dominate; approximation and file IO do almost nothing",
            argvs=lambda path, out: [["solve", path, "--out", out]],
            prepare=lambda name, path, phase, n: _expected_solution(name, n, phase),
            check=_solve_fine_check,
        ),
        Workload(
            name="certify-coarse",
            n=2048,
            rotation_s=4.7,
            why="check <file> --theorem 3 --ks 4:256:x2 at n=2048: the paper's "
                "certificate path, with repeated propagators over 7 approximations",
            argvs=lambda path, out: [["check", path, "--theorem", "3", "--ks", KS,
                                      "--eps", EPS, "--out", out]],
            prepare=lambda name, path, phase, n: None,
            check=_certify_check,
        ),
        Workload(
            name="approx-roundtrip",
            n=2048,
            rotation_s=1.7,
            why="approximate <file> --k 1024, then solve the emitted file, at n=2048: "
                "problem-file IO, multipointify and 1025-term boundary application",
            argvs=lambda path, out: [
                ["approximate", path, "--k", str(K), "--out", out],
                ["solve", str(Path(out) / f"approximate_k{K}.json"), "--out", out],
            ],
            prepare=_approx_prepare,
            check=_approx_check,
        ),
    )
}
