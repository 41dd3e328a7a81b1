"""Problem containers, companion reduction, and the matrizant-based solver.

A problem is the system L y = y^(r) + sum_l A_l(t) y^(l) = f on [a, b] with
rm boundary conditions B y = q.  The solver reduces to the first-order
companion system v' + P v = g, T v = q, and integrates the matrizant V of
P together with the particular solution R, R(a) = 0, in one augmented RK4
pass.  The solution is assembled from the characteristic matrix [T V]:

    u = V [T V]^-1 (q - T R) + R.

The problem is flagged as not uniquely solvable when [T V] cannot be
inverted or its condition number is not at most COND_LIMIT, as when the
matrizant overflows and [T V] is not finite.  ``_solve_pass`` is
the one driver: ``solve``, the approximation sweeps and the certified
constants all solve through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary import (
    GeneralBoundaryOperator,
    LiftedOperator,
    MultipointBoundaryOperator,
    apply_operator,
    lift,
)
from .funcspace import (
    Grid,
    PiecewisePoly,
    PolyMatrix,
    PolyVector,
    SampledJet,
    mat_norm,
    norm_l1,
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

    ``coeffs[l]`` multiplies y^(l) for l = 0..r-1.  Coefficient breakpoints
    are snapped to grid nodes at construction so the integrator never steps
    across a discontinuity; the right-hand side f is left untouched.
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
        snapped = []
        for l, A in enumerate(self.coeffs):
            if A.shape != (self.m, self.m):
                raise ValueError(f"coefficient {l} must be {self.m} x {self.m}")
            snapped.append(A.snapped(self.grid))
        self.coeffs = snapped
        if self.f.m != self.m:
            raise ValueError("right-hand side dimension mismatch")
        self.q = np.asarray(self.q, dtype=complex).reshape(self.r * self.m)
        if not np.all(np.isfinite(self.q)):
            raise ValueError("boundary values must be finite")
        if not isinstance(self.operator, (GeneralBoundaryOperator, MultipointBoundaryOperator)):
            raise TypeError("operator must be a boundary operator")
        if self.operator.r != self.r or self.operator.m != self.m:
            raise ValueError("boundary operator shape does not match the problem")
        tol = 1e-9 * (self.grid.b - self.grid.a)
        for x, y in ((self.grid.a, self.f.a), (self.grid.b, self.f.b),
                     (self.grid.a, self.operator.a), (self.grid.b, self.operator.b)):
            if abs(x - y) > tol:
                raise ValueError("grid, right-hand side, and operator intervals disagree")

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
    matrix, and ``consistency_defect`` the largest finite-difference
    mismatch between neighbouring jet channels.
    """

    jet: SampledJet
    char_matrix: np.ndarray
    det: complex
    cond: float
    matrizant_norm_c: float = field(default=float("nan"))
    char_inverse_norm: float = field(default=float("nan"))
    consistency_defect: float = field(default=float("nan"))
    boundary_residual: float = field(default=float("nan"))


def companion_reduce(problem: BvpProblem):
    """Reduce to the first-order companion system (P, g, T, q).

    P carries -I blocks on the superdiagonal and the coefficient row
    (A_0 ... A_{r-1}) at the bottom; g stacks r-1 zero blocks over f; T is
    the boundary operator compiled on the problem grid.  For r = 1 this is
    (A_0, f, lift(B, grid), q).
    """
    P, g = _companion_system(problem)
    return P, g, lift(problem.operator, problem.grid), problem.q


def _companion_system(problem: BvpProblem) -> tuple[PolyMatrix, PolyVector]:
    """The (P, g) of companion_reduce: the system without its boundary operator."""
    r, m = problem.r, problem.m
    if r == 1:
        return problem.coeffs[0], problem.f
    a, b = problem.a, problem.b
    zero = PiecewisePoly.zero(a, b)
    minus_one = PiecewisePoly.constant(-1.0, a, b)
    d = r * m
    entries = [[zero for _ in range(d)] for _ in range(d)]
    for block in range(r - 1):
        for i in range(m):
            entries[block * m + i][(block + 1) * m + i] = minus_one
    for block in range(r):
        A = problem.coeffs[block]
        for i in range(m):
            for j in range(m):
                entries[(r - 1) * m + i][block * m + j] = A.entries[i][j]
    P = PolyMatrix(entries)
    g = PolyVector([zero] * ((r - 1) * m) + list(problem.f.components))
    return P, g


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

    The division is exact, so [TV], T R and q / 2**e come out as the
    unscaled values divided by 2**e, and a power-of-two scale of the
    boundary weights changes nothing that is formed from them.
    """
    T = lift(problem.operator, problem.grid)
    e = int(np.frexp(np.abs(T.weights.view(float)).max(initial=0.0))[1])
    return LiftedOperator(T.point_terms, _ldexp(T.weights, -e)), e


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


def _solve_pass(problems, inverse: bool = False) -> list:
    """Solve problems of one shape on one grid in one RK4 pass.

    Returns the solution of the first problem, which raises
    NotUniquelySolvableError if refused; then, with ``inverse``, its
    |V^-1|_C; then, for every other problem, its BvpSolution or the
    NotUniquelySolvableError that refused it.
    """
    first = problems[0]
    tables = _propagate([_companion_system(p) for p in problems], first.grid,
                        inverse=inverse, rows=first.m)
    out = [_finish(first, *next(tables))]
    if inverse:
        out.append(traj_norm_c(next(tables)[0]))
    for problem, passed in zip(problems[1:], tables):
        try:
            out.append(_finish(problem, *passed))
        except NotUniquelySolvableError as exc:
            out.append(exc)
    return out


def _finish(problem: BvpProblem, augmented: np.ndarray, coefficients: np.ndarray) -> BvpSolution:
    """The solution of ``problem`` from its table [V | R] and the node
    values (n+1, m, d+1) of the bottom block row [A_0 ... A_{r-1} | f] of
    its companion system: lift the operator, gate [TV], assemble the jet
    and its diagnostics.  Raises NotUniquelySolvableError as ``solve`` does.
    """
    grid = problem.grid
    r, m = problem.r, problem.m
    d = problem.d
    V, R = augmented[..., :d], augmented[..., d]
    # Everything the operator touches is divided by 2**e.
    T, e = _scaled_lift(problem)
    q = _ldexp(problem.q, -e)
    char = T.apply_trajectory(V)
    det, cond, inverse, inverse_norm = _check_solvable(char, e)

    coef = inverse @ (q - T.apply_values(R))
    u = np.einsum("nij,j->ni", V, coef) + R

    samples = [u[:, l * m:(l + 1) * m] for l in range(r)]
    top = coefficients[..., d].copy()
    for l in range(r):
        top -= np.einsum("nij,nj->ni", coefficients[..., l * m:(l + 1) * m], samples[l])
    samples.append(top)

    jet = SampledJet(grid, m, r, samples)
    solution = BvpSolution(jet=jet, char_matrix=_ldexp(char, e), det=det, cond=cond,
                           matrizant_norm_c=traj_norm_c(V), char_inverse_norm=inverse_norm)
    # The top jet channel satisfies the differential identity by construction,
    # so the meaningful self-check is the finite-difference consistency of the
    # derivative channels plus the boundary defect.
    solution.consistency_defect = jet.consistency_defect()
    solution.boundary_residual = float(_ldexp(vec_norm(T.apply_values(u) - q), e))
    return solution


def residuals(problem: BvpProblem, jet: SampledJet) -> tuple[float, float]:
    """(L1 norm of L y - f over the grid, |B y - q| in the vector norm) of
    the jet y."""
    grid = problem.grid
    defect = jet.samples[problem.r].copy()
    for l in range(problem.r):
        A_nodes = problem.coeffs[l].eval_at(grid.nodes)
        defect += np.einsum("nij,nj->ni", A_nodes, jet.samples[l])
    defect -= problem.f.eval_at(grid.nodes)
    ode_residual = norm_l1(grid, defect)
    boundary_residual = vec_norm(apply_operator(problem.operator, jet) - problem.q)
    return ode_residual, boundary_residual
