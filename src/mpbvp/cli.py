"""Command-line interface: solve, approximate, sweep, constants, check.

The problem argument is either a built-in corpus name (p1, p2, p3, nn) or
the path of a JSON problem file.  Artifacts go to stdout by default or
into the ``--out`` directory (written atomically); diagnostics go to
stderr.  Exit codes: 0 success, 1 a checked bound failed, 2 the problem
is not uniquely solvable, 3 input/output or validation errors.

All CSV output uses 17 significant digits, so identical inputs produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys

import numpy as np

from . import corpus
from .approx import (
    build_multipoint_problem,
    constant_shift_rhs,
    remark3_constants,
    sawtooth_rhs,
    sweep,
    theorem2_check,
    theorem3_check,
)
from .bvp import BvpProblem, NotUniquelySolvableError, solve
from .funcspace import Grid
from .problemfile import (
    ProblemFormatError,
    parse_problem,
    problem_text,
    write_atomic,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NOT_SOLVABLE = 2
EXIT_IO = 3

REPORT_HEADER = "k,err_w1r,err_cr1,det,sigma_hat,bound_holds"


def _g(x: float) -> str:
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the IO/parse code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def _parse_ks(text: str) -> list:
    """Parse --ks: 'start:stop:x<factor>' geometric, or a comma list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or not parts[2].lower().startswith("x"):
            raise ValueError(f"--ks expects start:stop:x<factor>, got {text!r}")
        start, stop = int(parts[0]), int(parts[1])
        factor = int(parts[2][1:])
        if start < 1 or stop < start or factor < 2:
            raise ValueError(f"--ks range {text!r} is empty or not increasing")
        ks = []
        k = start
        while k <= stop:
            ks.append(k)
            k *= factor
        return ks
    ks = sorted({int(p) for p in text.split(",") if p.strip()})
    if not ks or ks[0] < 1:
        raise ValueError(f"--ks expects positive integers, got {text!r}")
    return ks


def _load_problem(source: str, grid_n: int | None) -> BvpProblem:
    name = source.strip().lower()
    if name in corpus.CORPUS_NAMES or name in corpus.DEGENERATE_NAMES:
        return corpus.build_problem(name, n=2048 if grid_n is None else grid_n)
    problem = parse_problem(source)
    if grid_n is not None and grid_n != problem.grid.n:
        problem = BvpProblem(
            r=problem.r, m=problem.m, coeffs=problem.coeffs, f=problem.f,
            q=problem.q, operator=problem.operator,
            grid=Grid(problem.a, problem.b, grid_n),
        )
    return problem


def _emit_artifact(text: str, out_dir: str | None, filename: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    write_atomic(path, text)
    print(f"wrote {path}", file=sys.stderr)


#: Rows formatted per string operation when writing a solution CSV.
CSV_BLOCK_ROWS = 1024


def _solution_csv(problem: BvpProblem, jet) -> str:
    header = ["t"]
    columns = [problem.grid.nodes]
    for j in range(problem.r + 1):
        for comp in range(problem.m):
            header.append(f"y{j}_{comp}_re")
            header.append(f"y{j}_{comp}_im")
            z = jet.samples[j][:, comp]
            columns += [z.real, z.imag]
    table = np.column_stack(columns)
    # '%.17g' renders a float exactly as format(x, ".17g") does.
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    parts = [",".join(header) + "\n"]
    for lo in range(0, len(table), CSV_BLOCK_ROWS):
        block = table[lo:lo + CSV_BLOCK_ROWS]
        parts.append(row * len(block) % tuple(block.ravel().tolist()))
    return "".join(parts)


def _report_csv(rows) -> str:
    buffer = io.StringIO()
    buffer.write(REPORT_HEADER + "\n")
    for row in rows:
        fields = [str(row.k)]
        for value in (row.err_w1r, row.err_cr1):
            fields.append("" if np.isnan(value) else _g(value))
        fields.append(_g(row.det_abs) if not np.isnan(row.det_abs) else "")
        fields.append(_g(row.sigma_hat) if not np.isnan(row.sigma_hat) else "")
        fields.append("1" if row.bound_holds else "0")
        buffer.write(",".join(fields) + "\n")
    return buffer.getvalue()


def _constants_text(constants) -> str:
    return "".join(
        f"{name} = {_g(value)}\n"
        for name, value in (
            ("c1", constants.c1),
            ("c2", constants.c2),
            ("lambda_hat", constants.lambda_hat),
            ("kappa_hat", constants.kappa_hat),
            ("sigma_hat", constants.sigma_hat),
        )
    )


def _cmd_solve(args) -> int:
    problem = _load_problem(args.problem, args.grid_n)
    solution = solve(problem)
    print(
        f"det = {abs(solution.det):.6e}, cond = {solution.cond:.6e}, "
        f"consistency defect = {solution.consistency_defect:.6e}, "
        f"boundary residual = {solution.boundary_residual:.6e}",
        file=sys.stderr,
    )
    _emit_artifact(_solution_csv(problem, solution.jet), args.out, "solve.csv")
    return EXIT_OK


def _cmd_approximate(args) -> int:
    problem = _load_problem(args.problem, args.grid_n)
    approx_problem = build_multipoint_problem(problem, args.k)
    _emit_artifact(problem_text(approx_problem), args.out, f"approximate_k{args.k}.json")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    problem = _load_problem(args.problem, args.grid_n)
    report = sweep(problem, _parse_ks(args.ks))
    rho = report.rho_solvable
    print(
        f"rho_solvable = {rho if rho is not None else 'none'}, "
        f"reference |det| = {report.meta['reference_det']:.6e}",
        file=sys.stderr,
    )
    _emit_artifact(_report_csv(report.rows), args.out, "sweep.csv")
    return EXIT_OK


def _cmd_constants(args) -> int:
    problem = _load_problem(args.problem, args.grid_n)
    constants = remark3_constants(problem)
    _emit_artifact(_constants_text(constants), args.out, "constants.txt")
    return EXIT_OK


def _cmd_check(args) -> int:
    problem = _load_problem(args.problem, args.grid_n)
    ks = _parse_ks(args.ks)
    if args.theorem == 2:
        entries = constant_shift_rhs(problem, ks, args.eps)
        report = theorem2_check(problem, entries, args.eps)
        verdict = (
            f"theorem 2: rho = {report.rho_solvable}, "
            f"measured kappa = "
            f"{_g(report.measured_kappa) if report.measured_kappa is not None else 'n/a'}, "
            f"stable = {report.stable}"
        )
    else:
        entries = sawtooth_rhs(problem, ks, args.eps)
        report = theorem3_check(problem, entries, args.eps)
        constants = report.constants
        verdict = (
            f"theorem 3: rho = {report.rho_bound}, "
            f"bound = {_g(report.meta['bound'])}, "
            f"kappa_hat = {_g(constants.kappa_hat)}, sigma_hat = {_g(constants.sigma_hat)}"
        )
    _emit_artifact(_report_csv(report.rows), args.out, f"check_theorem{args.theorem}.csv")
    status = "ok" if report.ok else "FAILED"
    print(f"{verdict} -> {status}", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use; each parse makes a fresh namespace."""
    parser = _Parser(prog="mpbvp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("problem", help="corpus name (p1, p2, p3, nn) or problem-file path")
        p.add_argument("--grid-n", type=int, default=None, help="override grid resolution")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="write artifacts into DIR instead of stdout")
        p.set_defaults(func=func)
        return p

    add("solve", _cmd_solve, "solve the problem and emit the solution jet as CSV")

    p_approx = add("approximate", _cmd_approximate,
                   "emit the k-th multipoint approximation as a problem file")
    p_approx.add_argument("--k", type=int, required=True, help="approximation index")

    p_sweep = add("sweep", _cmd_sweep, "error sweep over a range of k")
    p_sweep.add_argument("--ks", default="4:256:x2",
                         help="k values: start:stop:x<factor> or comma list")

    add("constants", _cmd_constants, "print the certified error constants")

    p_check = add("check", _cmd_check, "verify a perturbation bound")
    p_check.add_argument("--theorem", type=int, choices=(2, 3), required=True,
                         help="which bound to verify")
    p_check.add_argument("--eps", type=float, default=1e-3,
                         help="perturbation size (default 1e-3)")
    p_check.add_argument("--ks", default="4:256:x2",
                         help="k values: start:stop:x<factor> or comma list")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors (and --help); report the code instead
        # so programmatic callers get a return value.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NotUniquelySolvableError as exc:
        print(f"mpbvp: not uniquely solvable: {exc} "
              f"(|det| = {abs(exc.det):.3e}, cond = {exc.cond:.3e})", file=sys.stderr)
        return EXIT_NOT_SOLVABLE
    except (ProblemFormatError, OSError, ValueError) as exc:
        print(f"mpbvp: error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
