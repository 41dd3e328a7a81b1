"""Problem containers, companion reduction, and the matrizant-based solver.

A problem is the system L y = y^(r) + sum_l A_l(t) y^(l) = f on [a, b] with
rm boundary conditions B y = q.  The solver reduces it to the first-order
companion system v' + P v = g, T v = q, and integrates the matrizant V of P
together with the particular solution R, R(a) = 0, in one augmented RK4
pass, which samples every coefficient and f where its breakpoints lie.  The
solution is assembled from the characteristic matrix [T V]:

    u = V [T V]^-1 (q - T R) + R.

The problem is flagged as not uniquely solvable when [T V] cannot be
inverted or its condition number is not at most COND_LIMIT, as when the
matrizant overflows and [T V] is not finite.  ``_solve_pass`` is
the one driver: ``solve``, the approximation sweeps and the certified
constants all solve through it, and it returns solutions and nothing
else.  The pass's grouping of the systems that share P is the only one,
and its finish runs slot by slot, filling each solution's jet table:
channels 0 .. r-1 are u's blocks, and ``_top_channels`` writes
y^(r) = f - sum_l A_l y^(l) into channel r in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boundary import BoundaryOperator, LiftedOperator, apply_operator, lift
from .funcspace import (
    Grid,
    PiecewisePoly,
    PolyMatrix,
    PolyVector,
    SampledJet,
    _spans,
    mat_norm,
    traj_norm_c,
    vec_norm,
)
from .linode import _propagate

__all__ = [
    "BvpProblem",
    "BvpSolution",
    "NotUniquelySolvableError",
    "companion_reduce",
    "solve",
    "residuals",
]

#: Condition numbers above this flag the problem as not uniquely solvable.
COND_LIMIT = 1e12


class NotUniquelySolvableError(RuntimeError):
    """Raised when the characteristic matrix is singular or numerically so."""

    def __init__(self, message: str, det: complex = 0.0, cond: float = float("inf")):
        super().__init__(message)
        self.det = det
        self.cond = cond


@dataclass
class BvpProblem:
    """An order-r system of m equations with boundary operator and grid.

    ``coeffs[l]`` multiplies y^(l) for l = 0..r-1.  The problem keeps the
    data it is given, which must span the grid's [a, b] to 1e-9 (b - a), and
    the solve pass reads each datum where its breakpoints lie, on a node or
    not.  Re-gridding a problem is ``dataclasses.replace(problem, grid=...)``.
    """

    r: int
    m: int
    coeffs: list
    f: PolyVector
    q: np.ndarray
    operator: object
    grid: Grid

    def __post_init__(self):
        if self.r < 1 or self.m < 1:
            raise ValueError("need r >= 1 and m >= 1")
        if len(self.coeffs) != self.r:
            raise ValueError(f"order-{self.r} problem needs {self.r} coefficient matrices")
        for l, A in enumerate(self.coeffs):
            if A.shape != (self.m, self.m):
                raise ValueError(f"coefficient {l} must be {self.m} x {self.m}")
        if self.f.m != self.m:
            raise ValueError("right-hand side dimension mismatch")
        self.q = np.asarray(self.q, dtype=complex).reshape(self.r * self.m)
        if not np.all(np.isfinite(self.q)):
            raise ValueError("boundary values must be finite")
        if not isinstance(self.operator, BoundaryOperator):
            raise TypeError("operator must be a boundary operator")
        if self.operator.r != self.r or self.operator.m != self.m:
            raise ValueError("boundary operator shape does not match the problem")
        # Every entry and component, not a container's first one.
        op = self.operator
        rows = [*(row for A in self.coeffs for row in A.entries), *self.f.entries,
                [op], *(() if op.phi is None else op.phi.entries)]
        if not _spans(self.grid, [e for row in rows for e in row]):
            raise ValueError("grid, coefficient, right-hand side, and operator intervals disagree")

    @property
    def a(self) -> float:
        return self.grid.a

    @property
    def b(self) -> float:
        return self.grid.b

    @property
    def d(self) -> int:
        return self.r * self.m


@dataclass
class BvpSolution:
    """Solution jet plus solver diagnostics.

    ``matrizant_norm_c`` is the C-norm |V|_C of the matrizant,
    ``char_inverse_norm`` the norm |[TV]^-1| of the inverse characteristic
    matrix, and ``consistency_defect`` the O(h^2) truncation error of the
    jet's centred differences (``SampledJet.consistency_defect``), formed
    when first read.
    """

    jet: SampledJet
    char_matrix: np.ndarray
    det: complex
    cond: float
    matrizant_norm_c: float
    char_inverse_norm: float
    boundary_residual: float

    @cached_property
    def consistency_defect(self) -> float:
        return self.jet.consistency_defect()


def companion_reduce(problem: BvpProblem):
    """Reduce to the first-order companion system (P, g, T, q).

    P carries -I blocks on the superdiagonal and the coefficient row
    (A_0 ... A_{r-1}) at the bottom; g stacks r-1 zero blocks over f; T is
    the boundary operator compiled on the problem grid.  P and g hold the
    problem's own coefficient and f entries, for r = 1 those of A_0 and f:
    a reader of them on the grid locates their breakpoints by the node rule.
    """
    return (_companion_matrix(problem), _companion_forcing(problem),
            lift(problem.operator, problem.grid), problem.q)


def _companion_matrix(problem: BvpProblem) -> PolyMatrix:
    """P of companion_reduce: the problem's own coefficient entries, which
    every pass, top channel and ``residuals`` read here, and f in
    ``_companion_forcing``.  For r = 1, P holds A_0's entries."""
    r, m, a, b = problem.r, problem.m, problem.a, problem.b
    zero = PiecewisePoly.zero(a, b)
    minus_one = PiecewisePoly.constant(-1.0, a, b)
    d = r * m
    # Each row above the bottom block holds -1 one block to the right.
    entries = [[minus_one if j == i + m else zero for j in range(d)] for i in range(d - m)]
    entries += [[e for A in problem.coeffs for e in A.entries[i]] for i in range(m)]
    return PolyMatrix(entries)


def _companion_forcing(problem: BvpProblem) -> PolyVector:
    """g of companion_reduce: r - 1 zero blocks over the problem's f."""
    zeros = [PiecewisePoly.zero(problem.a, problem.b)] * (problem.d - problem.m)
    return PolyVector(zeros + problem.f.components)


def _ldexp(x, e: int) -> np.ndarray:
    """x * 2**e, exact unless it leaves the float range, where it saturates
    to +-inf or 0.  Complex x is scaled part by part, so a zero part stays 0."""
    x = np.asarray(x)
    with np.errstate(over="ignore", under="ignore"):
        if np.iscomplexobj(x):
            return np.ldexp(np.ascontiguousarray(x).view(float), e).view(complex)
        return np.ldexp(x, e)


def _scaled_lift(problem: BvpProblem) -> tuple[LiftedOperator, int]:
    """The operator compiled on the problem grid and divided by 2**e, the
    binary order of its largest weight, together with e.

    e comes from the largest and the negated smallest real and imaginary
    part of its point and density weights, which is the largest magnitude,
    and the freshly compiled weights are scaled in place, so no temporary
    has their size.  The division is exact, so [TV], T R and q / 2**e come
    out as the unscaled values divided by 2**e, and a power-of-two scale of
    the boundary weights changes nothing that is formed from them.
    """
    T = lift(problem.operator, problem.grid)
    parts = [T.weights.view(float), T.densities.view(float)]
    e = int(np.frexp(max(max(p.max(initial=0.0), -p.min(initial=0.0)) for p in parts))[1])
    with np.errstate(over="ignore", under="ignore"):
        for p in parts:
            np.ldexp(p, -e, out=p)
    return T, e


def _check_solvable(char: np.ndarray, e: int) -> tuple[complex, float, np.ndarray, float]:
    """Gate the characteristic matrix [TV] = char * 2**e.

    Returns the det and cond of [TV], inv(char) and |[TV]^-1|.  The tests
    run on char, so they do not depend on the scale of the weights.
    """
    # numpy forms a det as sign * exp(log|det|).  Where that leaves the
    # float range a zero part of the sign turns into nan, so the det of
    # char, rescaled part by part, stands in; elsewhere it would differ in
    # the last bits, as exp(log x - d e log 2) is not exp(log x) / 2**(d e).
    with np.errstate(over="ignore", invalid="ignore"):
        det = complex(np.linalg.det(_ldexp(char, e)))
    if not np.isfinite(det):
        det = complex(_ldexp(np.linalg.det(char), char.shape[0] * e)[0])
    try:
        inverse = np.linalg.inv(char)
    except np.linalg.LinAlgError as exc:
        raise NotUniquelySolvableError("characteristic matrix is singular", det=det) from exc
    inverse_norm = mat_norm(inverse)
    cond = mat_norm(char) * inverse_norm
    if not cond <= COND_LIMIT:  # a nan cond fails this test too
        reason = "numerically singular" if np.all(np.isfinite(char)) else "not finite"
        raise NotUniquelySolvableError(
            f"characteristic matrix is {reason} (cond = {cond:.3e})",
            det=det,
            cond=cond,
        )
    return det, cond, inverse, float(_ldexp(inverse_norm, -e))


def solve(problem: BvpProblem) -> BvpSolution:
    """Solve the boundary-value problem on its grid.

    Raises NotUniquelySolvableError when the characteristic matrix cannot
    be inverted or fails the condition test.
    """
    return _solve_pass([problem])[0]


def _solve_pass(problems) -> list:
    """Solve problems of one shape on one grid in one RK4 pass.

    Returns the solution of the first problem, which raises
    NotUniquelySolvableError if refused, then, for every other problem,
    its BvpSolution or the NotUniquelySolvableError that refused it.

    Each problem is one companion system (P, g), and ``_propagate`` alone
    decides which of them share P.  The pass hands over one slot at a time:
    ``_assemble`` forms the u = col(y, ..., y^(r-1)) of each of its members,
    |V|_C taken once per slot, and the slot is dropped before the next is
    made.  Once the pass is exhausted, the finish runs slot by slot: each
    solved member's jet table is allocated and u copied into its channels
    0 .. r-1, one member at a time, and ``_top_channels`` writes channel r
    of the slot's members in place, with the P of the slot's own system.
    """
    systems = [(_companion_matrix(p), _companion_forcing(p)) for p in problems]
    out, slots = {}, []
    for V, columns in _propagate(systems, problems[0].grid):
        norm = traj_norm_c(V)
        slots.append([])
        for R, indices in columns:
            for i in indices:
                slots[-1].append(i)
                try:
                    out[i] = _assemble(problems[i], V, R, norm)
                except NotUniquelySolvableError as exc:
                    if i == 0:
                        raise
                    # A record with no traceback, whose frames would hold the slot.
                    out[i] = NotUniquelySolvableError(str(exc), exc.det, exc.cond)
        del V, columns, R
    grid, r, m = problems[0].grid, problems[0].r, problems[0].m
    for slot in slots:
        solved = [i for i in slot if isinstance(out[i], tuple)]
        for i in solved:
            # u is dropped as its copy lands: one u at a time beside the tables.
            table = np.empty((grid.n + 1, r + 1, m), dtype=complex)
            table[:, :r] = out[i][0].reshape(grid.n + 1, r, m)
            out[i] = table, out[i][1]
        _top_channels(grid, systems[slot[0]][0], [(systems[i][1], out[i][0]) for i in solved])
        for i in solved:
            table, solution = out[i]
            solution.jet = SampledJet(grid, table)
            out[i] = solution
    return [out[i] for i in range(len(problems))]


def _assemble(problem: BvpProblem, V: np.ndarray, R: np.ndarray,
              matrizant_norm_c: float) -> tuple[np.ndarray, BvpSolution]:
    """The samples u = col(y, ..., y^(r-1)), (n+1, rm), of ``problem``'s
    solution and its BvpSolution, whose jet the pass sets once the top
    channel is formed, from its matrizant V and forced trajectory R: lift
    the operator, gate [TV], form u and |T u - q|, the lifted weights' last
    reader.  Raises NotUniquelySolvableError as ``solve`` does."""
    # Everything the operator touches is divided by 2**e.
    T, e = _scaled_lift(problem)
    q = _ldexp(problem.q, -e)
    char = T.apply_trajectory(V)
    det, cond, inverse, inverse_norm = _check_solvable(char, e)

    coef = inverse @ (q - T.apply_values(R))
    # In C order, as ``residuals`` stacks a jet: a product's bits follow the
    # layout it reads, and |T u - q| is to be the same there.
    u = np.einsum("nij,j->ni", V, coef, order="C")
    u += R
    boundary_residual = float(_ldexp(vec_norm(T.apply_values(u) - q), e))
    del T
    return u, BvpSolution(jet=None, det=det, cond=cond, char_matrix=_ldexp(char, e),
                          matrizant_norm_c=matrizant_norm_c,
                          char_inverse_norm=inverse_norm,
                          boundary_residual=boundary_residual)


def _top_channels(grid: Grid, P: PolyMatrix, members):
    """Write f - sum_l A_l y^(l) at the nodes into channel r of each member
    (g, table) that shares the companion matrix P, as the members of one
    slot do: its forcing g and its (n+1, r+1, m) jet table, whose channels
    l < r hold y^(l).  The whole grid is read in one pass, by ``_at_nodes``:
    the bottom block row [A_0 ... A_{r-1}] of P once for all the members,
    (n+1)·m·d values, and each member's f, the bottom block of g, alone,
    straight into channel r."""
    if not members:
        return
    d, m = P.shape[0], members[0][1].shape[2]
    r = d // m
    # [A_0 ... A_{r-1}] at the nodes, step-first.
    values = _at_nodes(P.entries[d - m:], grid)
    for g, table in members:
        top = table[:, r]
        _at_nodes(g.entries[d - m:], grid, top[..., None])
        for l in range(r):
            product = np.einsum("nij,nj->ni", values[..., l * m:(l + 1) * m], table[:, l])
            # A column at a time: numpy buffers a strided 2-d difference.
            for c in range(m):
                top[:, c] -= product[:, c]


def _at_nodes(rows, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Values (n+1, p, q) of the entries ``rows[i][j]`` at the nodes, read
    by the node rule as ``PiecewisePoly.grid_samples`` reads them, written
    entry by entry into ``out``, by default a fresh array."""
    out = np.empty((grid.n + 1, len(rows), len(rows[0])), dtype=complex) if out is None else out
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[:, i, j] = entry._node_values(grid, 0, grid.n)
    return out


def residuals(problem: BvpProblem, jet: SampledJet) -> tuple[float, float]:
    """(L1 norm of L y - f over the grid, |B y - q| in the vector norm) of
    the jet y, for the problem's data as the solver reads them: ``_top_channels``
    writes f - sum_l A_l y^(l) into channel r of a copy of the jet's table."""
    grid, r = problem.grid, problem.r
    if jet.grid != grid:
        raise ValueError("the jet must lie on the problem's grid")
    table = jet.table.copy()
    _top_channels(grid, _companion_matrix(problem), [(_companion_forcing(problem), table)])
    defect = jet.table[:, r] - table[:, r]
    ode_residual = float(np.trapezoid(np.abs(defect), dx=grid.h, axis=0).sum())
    boundary_residual = vec_norm(apply_operator(problem.operator, jet) - problem.q)
    return ode_residual, boundary_residual
