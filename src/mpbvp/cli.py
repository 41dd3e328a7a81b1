"""Command-line interface: solve, approximate, sweep, constants, check.

The problem argument is either a built-in corpus name (p1, p2, p3, nn) or
the path of a JSON problem file.  Artifacts go to stdout by default or
into the ``--out`` directory (written atomically); diagnostics go to
stderr.  Exit codes: 0 success, 1 a checked bound failed, 2 the problem
is not uniquely solvable, 3 input/output or validation errors.

All CSV output uses 17 significant digits, so identical inputs produce
byte-identical artifacts, whatever the BLAS thread count.  Every CSV value
is format(x, ".17g").  The solution CSV is rendered a block of rows at a
time by an exact vectorized formatter, which hands each value it cannot
decide to format() itself, and each block's bytes go straight to stdout or
into the atomic temp file, with no copy of the whole CSV.  A reader that closes
stdout early (``mpbvp solve p3 | head``) ends the output, not the command.
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
    _write_blocks_atomic,
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
    """Parse --ks: 'start:stop:x<factor>' geometric, or a comma list, sorted with any repeat."""
    text = text.strip()
    ranged = ":" in text
    expects = f"--ks expects {'start:stop:x<factor>' if ranged else 'positive integers'}, got {text!r}"
    try:
        if ranged:
            start, stop, factor = text.split(":")
            if factor[:1].lower() != "x":
                raise ValueError
            start, stop, factor = int(start), int(stop), int(factor[1:])
        else:
            ks = sorted(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ValueError(expects) from None
    if ranged:
        if start < 1 or stop < start or factor < 2:
            raise ValueError(f"--ks range {text!r} is empty or not increasing")
        ks = [start]
        while ks[-1] * factor <= stop:
            ks.append(ks[-1] * factor)
    elif not ks or ks[0] < 1:
        raise ValueError(expects)
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


def _write_stdout(content) -> None:
    """Write a str, or an iterable of ASCII byte blocks, to stdout and flush it."""
    if isinstance(content, str):
        sys.stdout.write(content)
    else:
        for block in content:
            sys.stdout.write(str(block, "ascii"))
    sys.stdout.flush()


def _emit_artifact(content, out_dir: str | None, filename: str) -> None:
    """Write an artifact, a str or an iterable of ASCII byte blocks (the
    solution CSV), to stdout or atomically to ``out_dir/filename``."""
    if out_dir is None:
        try:
            _write_stdout(content)
        except BrokenPipeError:
            # The reader has gone (``mpbvp solve p3 | head``), which is no
            # failure of the command.  What stdout still holds goes to
            # devnull, so that flushing it at exit cannot raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    if isinstance(content, str):
        write_atomic(path, content)
    else:
        _write_blocks_atomic(path, content)
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

# A value's field is the masked bytes of a 48-byte superset row:
#
#   1-6    the sign, then "0.", "0.0", "0.00" or "0.000" ending at 6;
#   7-23   the 17 digits;
#   24     the separator of a fixed-notation field without a point;
#   27     '.';
#   28-43  the digits after the first, again;
#   44     the separator of every other field.
#
# A point inside the digits takes the first copy up to it and the second
# after it.  Exponent notation puts its lead digit and point at 6-7 and its
# 'e', sign and exponent digits at 39-43.  A zero's digits are 10^16, so its
# "0" is the 0 at 43.  Most fields are then one or two runs of their row,
# and numpy's mask compaction in _format_17g costs about one pass per run.
# The other columns are never part of a field.  They align columns 0-7 to 8
# bytes and the 4-digit chunks of both copies to 4, so that each is written
# as one column of uint64 or uint32 words: numpy copies a narrow 2-D slice
# row by row, at several times the cost of such a column.
_WIDTH = 48
_DIGITS, _SEP_NO_POINT, _POINT, _EXPONENT, _SEP = 7, 24, 27, 39, 44
#: Layouts: fixed notation with exponent k = -4 … 16 (k + 4), exponent
#: notation with 2 or 3 exponent digits (21, 22), and zero (23).
_LAYOUTS = 24
#: Columns 0-7 of the superset row by layout, as one uint64 each; '_' is
#: never part of a field, and column 7 is overwritten by the lead digit.
_PREFIXES = np.frombuffer(
    b"_-0.000_" b"__-0.00_" b"___-0.0_" b"____-0._" + b"______-_" * 17 + b"_____-__" * 2
    + b"______-_", dtype=np.uint64)


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
    masks = np.zeros((2 * _LAYOUTS * 17, _WIDTH), dtype=bool)
    first = [_DIGITS + i for i in range(17)]
    second = [_POINT + i for i in range(17)]  # digit i >= 1 of the second copy
    for negative in (0, 1):
        for layout in range(_LAYOUTS):
            sign = [_PREFIXES[layout:layout + 1].tobytes().index(b"-")]
            for s in range(1, 18):  # digits left once trailing zeros are stripped
                if layout == 23:
                    body = [_POINT + 16]  # "0"
                elif layout >= 21:  # d.ddde+dd
                    body = [_DIGITS - 1] + ([_DIGITS] + first[1:s] if s > 1 else [])
                    body += list(range(_EXPONENT + 22 - layout, _EXPONENT + 5))
                elif layout < 4:  # 0.000ddd
                    body = list(range(sign[0] + 1, _DIGITS)) + first[:s]
                else:
                    point = layout - 3
                    body = first[:point] + ([_POINT] + second[point:s] if s > point else [])
                end = _SEP if _POINT in body or layout >= 21 else _SEP_NO_POINT
                field = sign * negative + body + [end]
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
    redo = np.flatnonzero((whole < 10 ** 16) | (whole >= 10 ** 17))
    slow = ~(fast | zero)
    if redo.size:
        k[redo] += np.where(whole[redo] < 10 ** 16, -1, 1)
        whole[redo], frac[redo] = _scaled(a[redo], k[redo])
        slow[redo] |= (whole[redo] < 10 ** 16) | (whole[redo] >= 10 ** 17)
    # a value that is not fast was scaled as 1.0, whose frac is 0
    slow |= np.abs(frac - 0.5) <= _TIE_MARGIN
    digits = whole + (frac > 0.5)
    rounded_up = digits == 10 ** 17  # 9.99…95 rounds to 1.0000000000000000e(k+1)
    digits[rounded_up] = 10 ** 16
    k += rounded_up
    return digits, k, slow


def _split_digits(digits: np.ndarray, zero: np.ndarray) -> tuple:
    """The lead digit and the four 4-digit chunks after it of each value's 17
    digits, and their trailing zeros (any count for a zero value)."""
    lead = digits // 10 ** 16
    rest = digits - lead * 10 ** 16
    top = rest // 10 ** 8
    bottom = (rest - top * 10 ** 8).astype(np.int32)
    top = top.astype(np.int32)
    chunks = []
    for half in (top, bottom):  # below 10^8: int32 splits into two 4-digit chunks
        high = half // 10000
        chunks += [high, half - high * 10000]
    chunk_zeros = _digit_chunks()[1]
    zeros = np.take(chunk_zeros, chunks[-1])
    # only a last chunk of 0 lets the zeros run on into the chunks before it
    redo = np.flatnonzero((chunks[-1] == 0) & ~zero)
    if redo.size:
        run = np.take(chunk_zeros, chunks[0][redo])  # the lead digit is never 0
        for chunk in chunks[1:-1]:
            chunk = chunk[redo]
            run = np.where(chunk == 0, run + 4, np.take(chunk_zeros, chunk))
        zeros[redo] = run + 4
    return lead, chunks, zeros


def _supersets(values: np.ndarray, seps: np.ndarray) -> tuple:
    """Each value's superset row, its layout code, and the values left to format()."""
    negative = np.signbit(values)
    zero = values == 0
    digits, k, slow = _decimal(values, zero)
    lead, chunks, zeros = _split_digits(digits, zero)
    layout = k + 4
    # exponent notation, k < -4 or k >= 17, is the only layout that writes k
    # (a zero's k is 0)
    scientific = np.flatnonzero((k < -4) | (k >= 17))
    k = k[scientific]
    layout[scientific] = np.where(np.abs(k) < 100, 21, 22)
    layout[zero] = 23
    fields = np.empty((len(values), _WIDTH), dtype=np.uint8)
    fields.view(np.uint64)[:, 0] = np.take(_PREFIXES, layout)
    lead += ord("0")
    fields[:, _DIGITS] = lead
    ascii_chunks = _digit_chunks()[0]
    words = fields.view(np.uint32)
    for i, chunk in enumerate(chunks):
        words[:, (_DIGITS + 1) // 4 + i] = words[:, (_POINT + 1) // 4 + i] = np.take(
            ascii_chunks, chunk)
    fields[:, _SEP_NO_POINT] = seps
    fields[:, _POINT] = ord(".")
    fields[:, _SEP] = seps
    if scientific.size:
        fields[scientific, _DIGITS - 1] = lead[scientific]
        fields[scientific, _DIGITS] = ord(".")
        # "e+dd" or "e+ddd", ending at _EXPONENT + 4
        sign = np.where(k < 0, ord("-"), ord("+"))
        exponent = np.take(ascii_chunks, np.abs(k)).view(np.uint8).reshape(-1, 4)
        wide = np.abs(k) >= 100
        fields[scientific, _EXPONENT] = ord("e")
        fields[scientific, _EXPONENT + 1] = np.where(wide, sign, ord("e"))
        fields[scientific, _EXPONENT + 2] = np.where(wide, exponent[:, 1], sign)
        fields[scientific, _EXPONENT + 3] = exponent[:, 2]
        fields[scientific, _EXPONENT + 4] = exponent[:, 3]
    return fields, (negative * _LAYOUTS + layout) * 17 + 16 - zeros, slow


def _format_17g(values: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """format(x, ".17g") of each value, each followed by its separator byte,
    as ASCII bytes (a uint8 array)."""
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
    return fields[mask]


def _csv_rows(columns):
    """The CSV lines of a float table given by its columns, as ASCII byte
    blocks of CSV_BLOCK_ROWS rows; each block's rows are stacked from the
    columns as it is rendered."""
    rows = len(columns[0])
    seps = np.full((min(rows, CSV_BLOCK_ROWS), len(columns)), ord(","), dtype=np.uint8)
    seps[:, -1] = ord("\n")
    seps = seps.ravel()
    for lo in range(0, rows, CSV_BLOCK_ROWS):
        block = np.column_stack([column[lo:lo + CSV_BLOCK_ROWS] for column in columns])
        yield _format_17g(block.ravel(), seps[:block.size])


def _solution_csv(problem: BvpProblem, jet):
    """The solution CSV as ASCII byte blocks: the header line, then the rows.
    The data columns are the jet table's float view, channel by channel,
    component by component, real part before imaginary."""
    header = ["t", *(f"y{j}_{comp}_{part}" for j in range(problem.r + 1)
                     for comp in range(problem.m) for part in ("re", "im"))]
    yield (",".join(header) + "\n").encode("ascii")
    yield from _csv_rows([problem.grid.nodes,
                          *jet.table.view(float).reshape(problem.grid.n + 1, -1).T])


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
