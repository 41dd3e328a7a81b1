"""Approximation pipeline: discretized problems, error sweeps, certificates.

Given a problem whose boundary operator holds a measure or not, this module
builds the explicit multipoint approximations — interval-mean coefficients
plus midpoint-discretized boundary measures — and measures how fast their
solutions converge.  It also computes the certified error constants

    kappa_hat = (c1 + c2) * lambda_hat + c1 * c2 + 1

from the matrizant of the limit problem, and runs the two perturbation
checks: the strong one (L1-small right-hand sides, W^r_1 error) and the
weak one (sup-small primitives, C^(r-1) error), the latter with a built-in
sawtooth perturbation that is large in L1 but small after integration.
One driver, ``_family``, solves the limit problem and its members in one
pass for ``sweep``, both checks and ``remark3_constants`` (no members);
``_check_entries`` is the checks' one entry validator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import takewhile

import numpy as np

from .boundary import (
    default_probe_jets,
    multipointify,
    norm_lower_bound,
    norm_upper_bound,
)
from .bvp import BvpProblem, BvpSolution, _solve_pass
from .funcspace import (
    PiecewisePoly,
    PolyMatrix,
    PolyVector,
    _bits,
    _check_k,
    _equal_partition,
    norm_cl,
    norm_w1r,
    vec_norm,
)

__all__ = [
    "ErrorConstants",
    "SweepRow",
    "ApproximationReport",
    "approximate_coefficients",
    "build_multipoint_problem",
    "sweep",
    "remark3_constants",
    "theorem2_check",
    "theorem3_check",
    "constant_shift_rhs",
    "sawtooth_rhs",
]

_SIGMA_PROBE_KS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class ErrorConstants:
    """Certified constants of the limit problem.

    c1 bounds |V|_C * |[TV]^-1|, c2 the variation-of-constants factor,
    lambda_hat >= 1/|B| comes from a probe lower bound on |B|, and
    sigma_hat bounds the norms of the discretized operators.  kappa_hat is
    an upper bound for the true error constant, so certificates built from
    it are conservative.
    """

    c1: float
    c2: float
    lambda_hat: float
    kappa_hat: float
    sigma_hat: float


@dataclass
class SweepRow:
    """Per-k record of a sweep or theorem check.  A check's gaps are |f_k - f|_1
    and, for theorem 3, |F_k - F|_C, read as ``_check_entries`` reads them."""

    k: int
    solvable: bool
    err_w1r: float = float("nan")
    err_cr1: float = float("nan")
    det_abs: float = float("nan")
    sigma_hat: float = float("nan")
    c1_factor: float = float("nan")
    bound_holds: bool | None = None
    ratio: float | None = None
    margin: float | None = None
    l1_gap: float | None = None
    primitive_gap: float | None = None


@dataclass
class ApproximationReport:
    """Rows plus constants, thresholds, and the verdict of a check."""

    rows: list
    constants: ErrorConstants | None = None
    rho_solvable: int | None = None
    rho_bound: int | None = None
    theorem: int | None = None
    eps: float | None = None
    measured_kappa: float | None = None
    stable: bool | None = None
    ok: bool = True
    meta: dict = field(default_factory=dict)


def approximate_coefficients(A: PolyMatrix, k: int) -> PolyMatrix:
    """Piecewise-constant approximation by interval means on k equal parts.

    The L1 distance to a Lipschitz coefficient decays like 1/k.  The means
    read the entry's ``_parts``: a cell that one part covers takes that
    part's mean, so a constant piece gives its cells its own bits (but a
    -0.0 real or imaginary part reads +0.0), and a cell that a breakpoint
    cuts divides its integral by its width.  The
    result stores A's own pieces: a run of bitwise-equal neighbouring means
    is one piece, so the edge j/k is a breakpoint only where the means on
    either side of it differ.  Entries with the same bits share one table
    of means, formed once.
    """
    k = _check_k(k)
    edges = _equal_partition(A.a, A.b, k)
    tables = {}

    def means(entry):
        key = _bits([entry])
        if key in tables:
            return tables[key]
        widths, part_means, first = entry._parts(edges)
        sums = np.add.reduceat(widths * part_means, first[:-1])
        cells = np.diff(edges.clip(entry.a, entry.b))
        # Real and imaginary parts divide separately: that is Python's
        # complex / float, which numpy's complex division (a multiply by
        # the reciprocal) does not reproduce bit for bit.
        out = (sums.view(float).reshape(k, 2) / cells[:, None]).view(complex)[:, 0]
        out = np.where(np.diff(first) == 1, part_means[first[:-1]], out)
        # Bits, not values, decide a run, so -0.0 and +0.0 stay apart.
        bits = out.view(np.uint64).reshape(k, 2)
        starts = np.concatenate([[True], (bits[1:] != bits[:-1]).any(axis=1)])
        tables[key] = PiecewisePoly.step(np.append(edges[:-1][starts], edges[-1]), out[starts])
        return tables[key]

    return PolyMatrix([[means(entry) for entry in row] for row in A.entries])


def build_multipoint_problem(problem: BvpProblem, k: int,
                             f: PolyVector | None = None,
                             q: np.ndarray | None = None) -> BvpProblem:
    """The k-th multipoint approximation of a problem.

    Coefficients become interval means, the boundary operator is
    multipointified, and the right-hand side is carried over verbatim
    unless overridden.  An operator without a measure is kept as is.
    """
    return BvpProblem(
        r=problem.r,
        m=problem.m,
        coeffs=[approximate_coefficients(A, k) for A in problem.coeffs],
        f=problem.f if f is None else f,
        q=problem.q if q is None else np.asarray(q, dtype=complex),
        operator=multipointify(problem.operator, k),
        grid=problem.grid,
    )


def remark3_constants(problem: BvpProblem) -> ErrorConstants:
    """Compute the certified constants (c1, c2, lambda_hat, kappa_hat, sigma_hat).

    c1 and c2 come from the matrizant of the companion system and the
    characteristic matrix; lambda_hat is the reciprocal of a probe lower
    bound for |B|, so kappa_hat = (c1 + c2) lambda_hat + c1 c2 + 1 is an
    upper bound for the true constant.  sigma_hat takes the operator-norm
    upper bound over the _SIGMA_PROBE_KS discretizations: this is the
    family pass with no approximations.
    """
    return _family(problem, [], certify=True)[1].constants


def _family(problem: BvpProblem, entries, certify: bool):
    """Solve the limit problem and its approximations in one RK4 pass.

    ``entries`` are checked (k, f_k, q_k) triples, None keeping the
    problem's f or q.  Returns the reference solution and a report with the
    rows and rho_solvable, and with ``certify`` the constants too.  A
    refused reference raises NotUniquelySolvableError as ``solve`` does.
    """
    members = [build_multipoint_problem(problem, k, f=f_k, q=q_k) for k, f_k, q_k in entries]
    (reference, *solved), w_c = _solve_pass([problem, *members], inverse=certify)
    rows = [_row(k, member, sol, reference)
            for (k, _, _), member, sol in zip(entries, members, solved)]
    report = ApproximationReport(rows=rows,
                                 rho_solvable=_first_tail_index(rows, lambda r: r.solvable))
    if not certify:
        return reference, report
    # With no rows, the probe discretizations stand in for the members.
    op = problem.operator
    sigma_hat = max([row.sigma_hat for row in rows] or
                    [norm_upper_bound(multipointify(op, k)) for k in _SIGMA_PROBE_KS])
    v_c = reference.matrizant_norm_c
    c1 = 1.0 + v_c * reference.char_inverse_norm
    if problem.r == 1:
        c2 = 2.0 + v_c * w_c * problem.coeffs[0].l1_norm()
    else:
        c2 = 2.0 + v_c * w_c * ((problem.b - problem.a) + problem.coeffs[-1].l1_norm())
    lam = 1.0 / norm_lower_bound(op, default_probe_jets(problem.r, problem.m, problem.grid))
    kappa = (c1 + c2) * lam + c1 * c2 + 1.0
    report.constants = ErrorConstants(c1=c1, c2=c2, lambda_hat=lam, kappa_hat=kappa,
                                      sigma_hat=sigma_hat)
    return reference, report


def _row(k: int, member: BvpProblem, sol, reference: BvpSolution) -> SweepRow:
    """The row of a member from its solution, or from the
    NotUniquelySolvableError that refused it."""
    row = SweepRow(k=k, solvable=isinstance(sol, BvpSolution), det_abs=abs(sol.det),
                   sigma_hat=norm_upper_bound(member.operator))
    if not row.solvable:
        return row
    row.c1_factor = sol.matrizant_norm_c * sol.char_inverse_norm
    diff = sol.jet - reference.jet
    row.err_w1r = norm_w1r(diff)
    row.err_cr1 = norm_cl(diff, member.r - 1)
    return row


def _first_tail_index(rows, predicate) -> int | None:
    """Smallest k in rows from which predicate holds for every later row."""
    tail = list(takewhile(predicate, reversed(rows)))
    return tail[-1].k if tail else None


def _sorted_entries(rhs_sequence, none: str, duplicate: str) -> list:
    """The (k, f_k, q_k) entries sorted by k, each k through ``_check_k``.
    No entries raise the message ``none``, a repeated k ``duplicate``."""
    entries = []
    for entry in rhs_sequence:
        if len(entry) != 3:
            raise ValueError("right-hand sides must be (k, f, q) entries")
        entries.append((_check_k(entry[0]), *entry[1:]))
    entries.sort(key=lambda e: e[0])
    if not entries:
        raise ValueError(none)
    if len({e[0] for e in entries}) != len(entries):
        raise ValueError(duplicate)
    return entries


def sweep(problem: BvpProblem, ks) -> ApproximationReport:
    """Solve the k-th approximations for every k and record their errors.

    Rows with a singular characteristic matrix are flagged, not failed.
    ``bound_holds`` in a plain sweep records unique solvability.  A sweep
    forms no certificate, so ``constants`` is None.
    """
    entries = _sorted_entries([(k, None, None) for k in ks],
                              "need at least one k", "duplicate k in the sweep")
    reference, report = _family(problem, entries, certify=False)
    for row in report.rows:
        row.bound_holds = row.solvable
    report.rho_bound = report.rho_solvable
    report.ok = report.rho_solvable is not None
    report.meta = {
        "reference_det": abs(reference.det),
        "reference_cond": reference.cond,
        "grid_n": problem.grid.n,
    }
    return report


def _check_eps(eps: float) -> None:
    # Also false for nan, so a nan eps cannot reach the perturbations.
    if not 0.0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")


def _check_entries(problem: BvpProblem, rhs_sequence, eps: float, theorem: int):
    """The sorted (k, f_k, q_k) entries of a theorem check and, by k, their
    (L1 gap |f_k - f|_1, primitive gap |F_k - F|_C or None).  Refuses a bad
    eps, and an entry whose |q_k - q| or whose gap the theorem bounds (the
    L1 gap for 2, the primitive's for 3) is not below eps.  A primitive sums
    exact integrals between the nodes and the difference's breakpoints, so
    its sup is exact on every grid for piecewise-constant differences."""
    _check_eps(eps)
    entries = _sorted_entries(rhs_sequence, "need at least one perturbed right-hand side",
                              "duplicate k in the right-hand side sequence")
    gaps, parts = {}, {}
    nodes = problem.grid.nodes
    for k, f_k, q_k in entries:
        if not isinstance(f_k, PolyVector) or f_k.m != problem.m:
            raise ValueError(f"entry k={k} needs a right-hand side of {problem.m} components")
        # Per component, the gaps of f_kc - f_c, formed once for each distinct
        # f_kc (by bits), as f_k - f forms them.
        diffs = []
        for c, (x, y) in enumerate(zip(f_k.components, problem.f.components)):
            key = (c, x.widths.tobytes(), *_bits([x]))
            if key not in parts:
                diff, primitive = x - y, None
                if theorem == 3:
                    points = np.sort(np.concatenate([nodes, diff.breakpoints]))
                    primitive = float(np.abs(np.cumsum(diff.integrals(points))).max())
                parts[key] = (diff.abs_integral(), primitive)
            diffs.append(parts[key])
        l1 = sum(l1 for l1, _ in diffs)
        primitive = sum(gap for _, gap in diffs) if theorem == 3 else None
        name, gap = ("|F_k - F|_C", primitive) if theorem == 3 else ("|f_k - f|_1", l1)
        if not gap < eps:
            raise ValueError(f"entry k={k} violates {name} < eps ({gap:.3e} >= {eps:.3e})")
        if not vec_norm(np.asarray(q_k, dtype=complex) - problem.q) < eps:
            raise ValueError(f"entry k={k} violates |q_k - q| < eps")
        gaps[k] = (l1, primitive)
    return entries, gaps


def theorem2_check(problem: BvpProblem, rhs_sequence, eps: float) -> ApproximationReport:
    """Strong perturbation check: L1-small right-hand sides, W^r_1 error.

    Every entry (k, f_k, q_k) must satisfy |f_k - f|_1 < eps and
    |q_k - q| < eps (violations are rejected).  The report records the
    measured sup of |x_k - y|_{r,1} / eps beyond the solvability threshold
    and whether that ratio has stabilized at the tail of the sweep.
    """
    entries, gaps = _check_entries(problem, rhs_sequence, eps, theorem=2)
    report = _family(problem, entries, certify=False)[1]
    report.theorem, report.eps = 2, eps
    for row in report.rows:
        row.l1_gap, row.primitive_gap = gaps[row.k]
        if row.solvable:
            row.ratio = row.err_w1r / eps
    report.stable = False
    if report.rho_solvable is not None:
        tail = [r.ratio for r in report.rows if r.k >= report.rho_solvable]
        report.measured_kappa = max(tail)
        report.stable = (len(tail) < 2 or
                         abs(tail[-1] - tail[-2]) <= 0.1 * max(tail[-1], tail[-2], 1e-300))
    report.ok = bool(report.stable)
    return report


def theorem3_check(problem: BvpProblem, rhs_sequence, eps: float) -> ApproximationReport:
    """Weak perturbation check: sup-small primitives, C^(r-1) certificate.

    Entries must satisfy |F_k - F|_C < eps (the primitives' sup read as
    ``_check_entries`` reads it) and |q_k - q| < eps; the L1 gap may be large.
    The certificate verifies |x_k - y|_(r-1) < kappa_hat * sigma_hat * eps
    for every k beyond the detected threshold rho.
    """
    entries, gaps = _check_entries(problem, rhs_sequence, eps, theorem=3)
    report = _family(problem, entries, certify=True)[1]
    report.theorem, report.eps = 3, eps
    bound = report.constants.kappa_hat * report.constants.sigma_hat * eps
    for row in report.rows:
        row.l1_gap, row.primitive_gap = gaps[row.k]
        row.bound_holds = row.solvable and row.err_cr1 < bound
        if row.solvable:
            row.margin = row.err_cr1 / bound
    report.rho_bound = _first_tail_index(report.rows, lambda r: r.solvable and bool(r.bound_holds))
    report.ok = report.rho_bound is not None
    report.meta = {"bound": bound}
    return report


def constant_shift_rhs(problem: BvpProblem, ks, eps: float):
    """Entries (k, f + eps/(2(b-a)) on component 0, q): L1 gap eps/2 < eps."""
    _check_eps(eps)
    a, b = problem.a, problem.b
    shift = [PiecewisePoly.constant(eps / (2.0 * (b - a)), a, b)]
    f_k = problem.f + PolyVector(shift + [PiecewisePoly.zero(a, b)] * (problem.m - 1))
    return [(_check_k(k), f_k, problem.q.copy()) for k in ks]


def _sawtooth(a: float, b: float, k: int, eps: float) -> PiecewisePoly:
    """Zero-mean square wave on the 2k equal parts of [a, b], whatever the
    grid: the sawtooth perturbation of f's component 0.  Its amplitude
    1.4 * eps * k / (b - a) grows like k, so its L1 norm 1.4 * eps * k is far
    beyond eps, while its primitive's sup is a half tooth's area, 0.7 * eps."""
    breakpoints = _equal_partition(a, b, 2 * k)
    amplitude = 1.4 * eps * k / (b - a)
    values = np.where(np.arange(2 * k) % 2 == 0, amplitude, -amplitude)
    mean = float(np.dot(values, np.diff(breakpoints))) / (b - a)
    return PiecewisePoly.step(breakpoints, values - mean)


def sawtooth_rhs(problem: BvpProblem, ks, eps: float):
    """Entries (k, f + sawtooth_k, q) for the weak perturbation check; the
    first k of ``ks`` with 4k > n is refused.  The components the sawtooth
    leaves alone, f_c + 0 for c > 0, are formed once for every entry."""
    _check_eps(eps)
    a, b, n = problem.a, problem.b, problem.grid.n
    f = problem.f.components
    rest = [c + PiecewisePoly.zero(a, b) for c in f[1:]]
    ks = [_check_k(k) for k in ks]
    for k in [k for k in ks if 4 * k > n][:1]:
        raise ValueError(f"sawtooth with {k} teeth needs a grid with n >= {4 * k}")
    return [(k, PolyVector([f[0] + _sawtooth(a, b, k, eps), *rest]), problem.q.copy()) for k in ks]
