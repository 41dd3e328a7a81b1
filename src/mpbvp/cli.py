"""Command-line interface: solve, approximate, sweep, constants, check.

The problem argument is either a built-in corpus name (p1, p2, p3, nn) or
the path of a JSON problem file.  Artifacts go to stdout by default or
into the ``--out`` directory (written atomically); diagnostics go to
stderr.  Exit codes: 0 success, 1 a checked bound failed, 2 the problem
is not uniquely solvable, 3 input/output or validation errors.

All CSV output uses 17 significant digits, so identical inputs produce
byte-identical artifacts.  Every CSV value is format(x, ".17g").  The
solution CSV is rendered a block of rows at a time by an exact vectorized
formatter, which hands each value it cannot decide to format() itself.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .funcspace import Grid, _check_k
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
    else:
        ks = sorted({int(p) for p in text.split(",") if p.strip()})
        if not ks or ks[0] < 1:
            raise ValueError(f"--ks expects positive integers, got {text!r}")
    _check_k(ks[-1])
    return ks


def _load_problem(source: str, grid_n: int | None) -> BvpProblem:
    name = source.strip().lower()
    if name in corpus.CORPUS_NAMES or name in corpus.DEGENERATE_NAMES:
        return corpus.build_problem(name, n=2048 if grid_n is None else grid_n)
    problem = parse_problem(source)
    if grid_n is not None and grid_n != problem.grid.n:
        problem = dataclasses.replace(problem, grid=Grid(problem.a, problem.b, grid_n))
    return problem


def _emit_artifact(text: str, out_dir: str | None, filename: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    write_atomic(path, text)
    print(f"wrote {path}", file=sys.stderr)


#: Rows formatted per block when writing a solution CSV.
CSV_BLOCK_ROWS = 1024

# The solution CSV holds format(x, ".17g") of every value.  CPython computes
# 17 digits on its slow bignum path, so _format_17g renders a block at a
# time with exact arithmetic instead.  With k = floor(log10|x|), the digits
# are the rounded integer of D = |x|·10^(16−k).  D is formed as a
# double-double from Dekker's exact two-product of |x| and hi, where
# hi + lo is 10^(16−k) to 2^-106 relative; its fractional part is then off
# by less than 1e-13.  A value that this cannot decide goes to format():
# non-finite, outside _FAST_RANGE, or within _TIE_MARGIN of a rounding tie.
_FAST_RANGE = (1e-250, 1e250)
_TIE_MARGIN = 1e-6
_POW10_MIN = 16 - 256  # the table holds 10^q for |16 − q| <= 256
_SPLIT = 134217729.0  # 2^27 + 1: splits a double into two 26-bit halves

# A value's field is the masked bytes of a 47-byte superset: '-', "0.000",
# the 17 digits, '.', the 17 digits again, 'e', the exponent's sign and three
# digits, and the separator.  A point inside the digits takes the first copy
# up to it and the second copy after it.
_SUPERSET = np.frombuffer(b"-0.000" + bytes(17) + b"." + bytes(17) + b"e+000,", dtype=np.uint8)
_DIGITS, _POINT, _DIGITS_AFTER, _EXPONENT = 6, 23, 24, 41
#: Layouts: fixed notation with exponent k = -4 … 16 (k + 4), exponent
#: notation with 2 or 3 exponent digits (21, 22), and zero (23).
_LAYOUTS = 24


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """Rows hi, lo, hi's high half, hi's low half; column q − _POW10_MIN holds 10^q."""
    hi, lo = [], []
    for q in range(_POW10_MIN, 2 * 16 - _POW10_MIN + 1):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        h = num / den  # int / int is correctly rounded
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    high = hi * _SPLIT
    high -= high - hi
    return np.stack([hi, np.array(lo), high, hi - high])


@functools.cache
def _digit_chunks() -> tuple:
    """The ASCII of "%04d" % i as one uint32, and its count of trailing zeros."""
    i = np.arange(10000, dtype=np.uint16)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1).astype(np.uint8)
    zeros = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1).sum(axis=1)
    digits += ord("0")
    return digits.view(np.uint32).ravel(), zeros


@functools.cache
def _field_masks() -> np.ndarray:
    """The superset bytes of each field, by (sign, layout, digits) code."""
    masks = np.zeros((2 * _LAYOUTS * 17, len(_SUPERSET)), dtype=bool)
    first = [_DIGITS + i for i in range(17)]
    second = [_DIGITS_AFTER + i for i in range(17)]
    for negative in (0, 1):
        for layout in range(_LAYOUTS):
            for s in range(1, 18):  # digits left once trailing zeros are stripped
                if layout == 23:
                    body = [1]  # "0"
                elif layout >= 21:
                    body = first[:1] + ([_POINT] + second[1:s] if s > 1 else [])
                    body += list(range(_EXPONENT, _EXPONENT + 2))
                    body += list(range(_EXPONENT + 24 - layout, _EXPONENT + 5))
                elif layout < 4:  # 0.000ddd
                    body = list(range(1, 6 - layout)) + first[:s]
                else:
                    point = layout - 3
                    body = first[:point] + ([_POINT] + second[point:s] if s > point else [])
                field = [0] * negative + body + [len(_SUPERSET) - 1]
                masks[(negative * _LAYOUTS + layout) * 17 + s - 1, field] = True
    return masks


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple:
    """floor(D) as int64 and D − floor(D), for D = a·10^(16−k)."""
    hi, lo, hi_high, hi_low = np.take(_powers_of_ten(), 16 - _POW10_MIN - k, axis=1)
    product = a * hi
    high = a * _SPLIT
    high -= high - a
    low = a - high
    # Dekker: product + err is a·hi exactly
    err = high * hi_high - product
    err += high * hi_low
    err += low * hi_high
    err += low * hi_low
    err += a * lo
    whole = np.floor(product)
    frac = product - whole
    frac += err
    carry = np.floor(frac)
    frac -= carry
    return whole.astype(np.int64) + carry.astype(np.int64), frac


def _decimal(values: np.ndarray, zero: np.ndarray) -> tuple:
    """17 significant digits as one int64, the decimal exponent k, and the
    values whose digits only format() can decide."""
    a = np.abs(values)
    fast = (a >= _FAST_RANGE[0]) & (a < _FAST_RANGE[1])
    a = np.where(fast, a, 1.0)
    # log10 is off by one at most, near powers of ten; such k are redone
    k = np.floor(np.log10(a)).astype(np.intp)
    whole, frac = _scaled(a, k)
    shift = (whole >= 10 ** 17).astype(np.intp) - (whole < 10 ** 16)
    redo = np.flatnonzero(shift)
    if redo.size:
        k[redo] += shift[redo]
        whole[redo], frac[redo] = _scaled(a[redo], k[redo])
    slow = ~(fast | zero) | (whole < 10 ** 16) | (whole >= 10 ** 17)
    slow |= fast & (np.abs(frac - 0.5) <= _TIE_MARGIN)
    digits = whole + (frac > 0.5)
    rounded_up = digits == 10 ** 17  # 9.99…95 rounds to 1.0000000000000000e(k+1)
    digits[rounded_up] = 10 ** 16
    k += rounded_up
    return digits, k, slow


def _ascii_digits(digits: np.ndarray) -> tuple:
    """The 17 digits as ASCII bytes, one row per value, and their trailing zeros."""
    lead, rest = np.divmod(digits, 10 ** 16)
    top, bottom = np.divmod(rest, 10 ** 8)
    chunks = [*np.divmod(top, 10000), *np.divmod(bottom, 10000)]
    ascii_chunks, chunk_zeros = _digit_chunks()
    words = np.empty((len(digits), 5), dtype=np.uint32)  # 3 spare bytes, lead, chunks
    for i, chunk in enumerate(chunks):
        words[:, i + 1] = np.take(ascii_chunks, chunk)
    ascii_digits = words.view(np.uint8)[:, 3:]
    ascii_digits[:, 0] = lead + ord("0")
    # the lead digit is never 0
    zeros = np.take(chunk_zeros, chunks[0])
    for chunk in chunks[1:]:
        zeros = np.where(chunk == 0, zeros + 4, np.take(chunk_zeros, chunk))
    return ascii_digits, zeros


def _supersets(values: np.ndarray, seps: np.ndarray) -> tuple:
    """Each value's superset bytes, its layout code, and the values left to format()."""
    negative = np.signbit(values)
    zero = values == 0
    digits, k, slow = _decimal(values, zero)
    ascii_digits, zeros = _ascii_digits(digits)
    fields = np.empty((len(values), len(_SUPERSET)), dtype=np.uint8)
    fields[:] = _SUPERSET
    fields[:, _DIGITS:_DIGITS + 17] = ascii_digits
    fields[:, _DIGITS_AFTER:_DIGITS_AFTER + 17] = ascii_digits
    fields[:, _EXPONENT + 1] = np.where(k < 0, ord("-"), ord("+"))
    exponent = np.take(_digit_chunks()[0], np.abs(k)).view(np.uint8).reshape(-1, 4)
    fields[:, _EXPONENT + 2:_EXPONENT + 5] = exponent[:, 1:]
    fields[:, -1] = seps
    layout = np.where((k >= -4) & (k < 17), k + 4, np.where(np.abs(k) < 100, 21, 22))
    layout[zero] = 23
    return fields, (negative * _LAYOUTS + layout) * 17 + 16 - zeros, slow


def _format_17g(values: np.ndarray, seps: np.ndarray) -> str:
    """format(x, ".17g") of each value, each followed by its separator byte."""
    fields, code, slow = _supersets(values, seps)
    mask = np.take(_field_masks(), code, axis=0)
    fallback = np.flatnonzero(slow)
    if fallback.size:
        width = fields.shape[1]
        texts = [format(x, ".17g").encode("ascii") for x in values[fallback].tolist()]
        lengths = np.array([len(text) for text in texts])
        padded = b"".join(text.ljust(width, b"\0") for text in texts)
        fields[fallback] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, width)
        fields[fallback, lengths] = seps[fallback]
        mask[fallback] = np.arange(width) <= lengths[:, None]
    return str(fields[mask].data, "ascii")


def _csv_rows(table: np.ndarray) -> str:
    """The rows of a float table as CSV lines, block by block."""
    seps = np.full(table.shape[1], ord(","), dtype=np.uint8)
    seps[-1] = ord("\n")
    parts = []
    for lo in range(0, len(table), CSV_BLOCK_ROWS):
        block = table[lo:lo + CSV_BLOCK_ROWS]
        parts.append(_format_17g(block.ravel(), np.tile(seps, len(block))))
    return "".join(parts)


def _solution_csv(problem: BvpProblem, jet) -> str:
    header = ["t"]
    columns = [problem.grid.nodes]
    for j in range(problem.r + 1):
        for comp in range(problem.m):
            header.append(f"y{j}_{comp}_re")
            header.append(f"y{j}_{comp}_im")
            z = jet.samples[j][:, comp]
            columns += [z.real, z.imag]
    return ",".join(header) + "\n" + _csv_rows(np.column_stack(columns))


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
    _check_k(args.k)
    problem = _load_problem(args.problem, args.grid_n)
    approx_problem = build_multipoint_problem(problem, args.k)
    _emit_artifact(problem_text(approx_problem), args.out, f"approximate_k{args.k}.json")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    ks = _parse_ks(args.ks)
    problem = _load_problem(args.problem, args.grid_n)
    report = sweep(problem, ks)
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
    ks = _parse_ks(args.ks)
    problem = _load_problem(args.problem, args.grid_n)
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
