"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the package's own numerical routines:
the matrix exponential is a scaling-and-squaring Taylor series, the BVP
oracle is a Crank-Nicolson finite-difference scheme assembled as one
sparse linear system (with its own companion reduction and its own
boundary-row quadrature), and the determinant identity reference
integrates the coefficient trace analytically piece by piece.  Package
objects are used only to *read* problem data, never to compute.  The
exceptions are ``dense_weights`` and the readings after it, which give
tests what the package itself never needs (a compiled operator's dense
weights, a left-hand limit, an interval integral, a measure's mass and
total variation) from the package's own data and primitives, with their
bits.  ``exact_integral`` and ``exact_mean`` difference each piece's
antiderivative in exact rational arithmetic from the float data.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from mpbvp import (
    BoundaryOperator,
    BvpProblem,
    GeneralBoundaryOperator,
    Grid,
    MatrixMeasure,
    PiecewisePoly,
    PolyMatrix,
    PolyVector,
    ScalarMeasure,
)
from mpbvp.boundary import BoundaryTerm
from mpbvp.funcspace import _horner


def dense_weights(lifted) -> np.ndarray:
    """The (rows, n+1, rm) weight array of a compiled operator, read from
    its parts: the point weights on their nodes, then each density's
    weights added, one addition per node, as a dense compilation sums them."""
    out = np.zeros(lifted.shape, dtype=complex)
    out[:, lifted.nodes] = lifted.weights
    out[lifted.density_rows, :, lifted.density_columns] += lifted.densities
    return out


def left_limit(p: PiecewisePoly, t):
    """p(t) read on the left-hand piece at an interior breakpoint, where
    ``p(t)`` reads the right-hand one; elsewhere it is ``p(t)``, bit for bit."""
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    out = _horner(p.table[np.searchsorted(p.breakpoints[1:-1], tt, side="left")], tt)
    return out[0] if np.ndim(t) == 0 else out


def interval_integral(p: PiecewisePoly, c: float | None = None, d: float | None = None) -> complex:
    """Exact integral of p over [c, d], by default [a, b]: ``p.integrals([c, d])``."""
    return complex(p.integrals([p.a if c is None else c, p.b if d is None else d])[0])


def _exact_integral(p: PiecewisePoly, c: float, d: float) -> tuple:
    """The real and imaginary parts of the integral of p over [c, d] as exact
    fractions: each overlapped piece's antiderivative differenced at its
    part's ends."""
    re = im = Fraction(0)
    for j, cj in enumerate(p.coeffs):
        lo, hi = max(c, p.breakpoints[j]), min(d, p.breakpoints[j + 1])
        if hi > lo:
            lo, hi = Fraction(float(lo)), Fraction(float(hi))
            for i, x in enumerate(cj):
                power = (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
                re += Fraction(float(x.real)) * power
                im += Fraction(float(x.imag)) * power
    return re, im


def exact_integral(p: PiecewisePoly, c: float, d: float) -> complex:
    """The integral of p over [c, d], each part rounded once from its exact value."""
    re, im = _exact_integral(p, c, d)
    return complex(float(re), float(im))


def exact_mean(p: PiecewisePoly, c: float, d: float) -> complex:
    """The mean of p over [c, d] (c < d), each part rounded once from its exact value."""
    width = Fraction(float(d)) - Fraction(float(c))
    re, im = _exact_integral(p, c, d)
    return complex(float(re / width), float(im / width))


def measure_mass(mu) -> complex:
    """A scalar measure's mass: its atoms' masses plus its density's integral."""
    dens = 0 if mu.density is None else interval_integral(mu.density)
    return complex(mu.masses.sum() + dens)


def total_variation(mu) -> float:
    """A scalar measure's total variation: sum of |atom masses| plus the L1
    mass of its density, since the two parts are mutually singular."""
    dens = 0.0 if mu.density is None else mu.density.abs_integral()
    return float(np.abs(mu.masses).sum() + dens)


def variation_matrix(phi) -> np.ndarray:
    """The total variation of every entry of a matrix measure."""
    return np.array([[total_variation(e) for e in row] for row in phi.entries])


def expm_taylor(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring plus a Taylor series."""
    A = np.asarray(A, dtype=complex)
    norm = float(np.linalg.norm(A, 1))
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm))) + 1
    B = A / (2.0 ** squarings)
    X = np.eye(A.shape[0], dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    for j in range(1, 60):
        term = term @ B / j
        X = X + term
        if np.linalg.norm(term, 1) <= 1e-20 * max(1.0, np.linalg.norm(X, 1)):
            break
    for _ in range(squarings):
        X = X @ X
    return X


def _node_index(grid: Grid, t: float) -> int:
    """Index of the grid node equal to t (asserts t is on the grid)."""
    idx = int(round((t - grid.a) / grid.h))
    assert abs(grid.a + idx * grid.h - t) <= 1e-9 * (grid.b - grid.a), (
        f"point {t} is not a grid node"
    )
    return min(max(idx, 0), grid.n)


def _companion_midpoints(problem: BvpProblem, grid: Grid):
    """(P(t_mid), g(t_mid)) arrays for the first-order reduction, built here."""
    r, m = problem.r, problem.m
    d = r * m
    mids = grid.half_nodes
    n = grid.n
    P = np.zeros((n, d, d), dtype=complex)
    for block in range(r - 1):
        for i in range(m):
            P[:, block * m + i, (block + 1) * m + i] = -1.0
    for block in range(r):
        A_mid = problem.coeffs[block].eval_at(mids)
        P[:, (r - 1) * m:, block * m:(block + 1) * m] = A_mid
    g = np.zeros((n, d), dtype=complex)
    g[:, (r - 1) * m:] = problem.f.eval_at(mids)
    return P, g


def _boundary_rows(problem: BvpProblem, grid: Grid) -> np.ndarray:
    """Dense (d, (n+1)d) weight matrix discretizing the boundary operator.

    Point terms land on exact grid nodes; densities use plain trapezoid
    weights on node samples (this oracle is second order throughout).
    """
    r, m = problem.r, problem.m
    d = r * m
    n = grid.n
    W = np.zeros((d, (n + 1) * d), dtype=complex)
    op = problem.operator
    for term in op.terms:
        s = _node_index(grid, term.node)
        block = term.order * m
        W[:, s * d + block:s * d + block + m] += term.beta
    if op.phi is not None:
        trap = np.full(n + 1, grid.h, dtype=float)
        trap[0] *= 0.5
        trap[-1] *= 0.5
        top = (r - 1) * m
        for i in range(d):
            for j in range(m):
                mu = op.phi.entries[i][j]
                for t, w in zip(mu.nodes.tolist(), mu.masses.tolist()):
                    s = _node_index(grid, t)
                    W[i, s * d + top + j] += w
                if mu.density is not None:
                    dens = mu.density(grid.nodes)
                    for s in range(n + 1):
                        W[i, s * d + top + j] += trap[s] * dens[s]
    return W


def crank_nicolson_solve(problem: BvpProblem) -> np.ndarray:
    """Solve the BVP with a sparse Crank-Nicolson scheme; returns y at nodes.

    The cell equations are (v_{i+1} - v_i)/h + P(t_{i+1/2}) (v_i + v_{i+1})/2
    = g(t_{i+1/2}) for the first-order unknowns v = col(y, ..., y^(r-1)),
    bordered by the d discretized boundary rows.
    """
    grid = problem.grid
    r, m = problem.r, problem.m
    d = r * m
    n = grid.n
    h = grid.h
    P, g = _companion_midpoints(problem, grid)

    eye = np.eye(d, dtype=complex)
    matrix = scipy.sparse.lil_matrix(((n + 1) * d, (n + 1) * d), dtype=complex)
    rhs = np.zeros((n + 1) * d, dtype=complex)
    for i in range(n):
        left = -eye / h + 0.5 * P[i]
        right = eye / h + 0.5 * P[i]
        matrix[i * d:(i + 1) * d, i * d:(i + 1) * d] = left
        matrix[i * d:(i + 1) * d, (i + 1) * d:(i + 2) * d] = right
        rhs[i * d:(i + 1) * d] = g[i]
    W = _boundary_rows(problem, grid)
    matrix[n * d:, :] = W
    rhs[n * d:] = problem.q

    v = scipy.sparse.linalg.spsolve(matrix.tocsr(), rhs)
    return v.reshape(n + 1, d)[:, :m]


def exact_trace_integral(A: PolyMatrix, nodes: np.ndarray) -> np.ndarray:
    """Analytic cumulative integral of trace A from a to each node."""
    a = A.a
    out = np.zeros(len(nodes), dtype=complex)
    rows, _ = A.shape
    for idx, t in enumerate(nodes):
        total = 0j
        for i in range(rows):
            total += interval_integral(A.entries[i][i], a, float(t))
        out[idx] = total
    return out


# ---------------------------------------------------------------------------
# Randomized problem factory (rejection-sampled on solvability)


def _random_poly(rng, a, b, degree, scale) -> PiecewisePoly:
    npieces = int(rng.integers(1, 3))
    if npieces == 1:
        breakpoints = [a, b]
    else:
        cut = a + (b - a) * float(rng.uniform(0.3, 0.7))
        breakpoints = [a, cut, b]
    pieces = []
    for _ in range(npieces):
        coeffs = scale * (rng.standard_normal(degree + 1)
                          + 1j * rng.standard_normal(degree + 1))
        pieces.append(coeffs)
    return PiecewisePoly(breakpoints, pieces)


def _random_operator(rng, r, m, a, b):
    d = r * m
    if rng.random() < 0.5:
        nterms = int(rng.integers(2, 5))
        nodes = [a, b] + [a + (b - a) * float(rng.uniform(0.2, 0.8))
                          for _ in range(nterms - 2)]
        terms = []
        for node in nodes:
            order = int(rng.integers(0, r))
            beta = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
            terms.append(BoundaryTerm(node=node, order=order, beta=beta))
        return BoundaryOperator(r, m, a, b, terms)
    from mpbvp import MatrixMeasure, ScalarMeasure
    alphas = [rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
              for _ in range(r - 1)]
    entries = []
    for i in range(d):
        row = []
        for j in range(m):
            atoms = []
            for loc in (a, b):
                if rng.random() < 0.6:
                    atoms.append((loc, complex(rng.standard_normal(),
                                               rng.standard_normal())))
            density = None
            if rng.random() < 0.5:
                density = _random_poly(rng, a, b, 1, 0.8)
            row.append(ScalarMeasure(a, b, atoms=atoms, density=density))
        entries.append(row)
    return GeneralBoundaryOperator(r, m, alphas, MatrixMeasure(entries))


def random_problem(rng, n: int = 512, max_cond: float = 1e6):
    """A random uniquely solvable problem with r <= 3, m <= 3 on [0, 1].

    Rejection-samples until the characteristic matrix is comfortably
    nonsingular, so invariant checks are not dominated by conditioning.
    """
    from mpbvp import NotUniquelySolvableError, solve

    a, b = 0.0, 1.0
    for _ in range(60):
        r = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        scale = 0.6 / r
        coeffs = []
        for _ in range(r):
            entries = [[_random_poly(rng, a, b, 2, scale) for _ in range(m)]
                       for _ in range(m)]
            coeffs.append(PolyMatrix(entries))
        f = PolyVector([_random_poly(rng, a, b, 3, 1.0) for _ in range(m)])
        q = rng.standard_normal(r * m) + 1j * rng.standard_normal(r * m)
        operator = _random_operator(rng, r, m, a, b)
        problem = BvpProblem(r=r, m=m, coeffs=coeffs, f=f, q=q,
                             operator=operator, grid=Grid(a, b, n))
        try:
            solution = solve(problem)
        except NotUniquelySolvableError:
            continue
        if solution.cond <= max_cond:
            return problem
    raise RuntimeError("rejection sampling failed to find a solvable problem")


def tie_keeping_permutation(rng, t):
    """A random permutation of range(t.size) that keeps equal t in their order."""
    perm = rng.permutation(t.size)
    for value in np.unique(t):
        perm[t[perm] == value] = np.flatnonzero(t == value)
    return perm


def scaled_boundary_problem(problem: BvpProblem, scale: float) -> BvpProblem:
    """``problem`` with its multipoint weights and boundary values times ``scale``."""
    op = problem.operator
    terms = [BoundaryTerm(t.node, t.order, scale * t.beta) for t in op.terms]
    return BvpProblem(problem.r, problem.m, problem.coeffs, problem.f, scale * problem.q,
                      BoundaryOperator(op.r, op.m, op.a, op.b, terms), problem.grid)


def growth_problem(lam: float, n: int = 2048) -> BvpProblem:
    """y'' = lam^2 y on [0, 1] with y(0) = y(1) = 1.

    The matrizant grows like e^lam: [TV] is ill conditioned from about
    lam = 40 on, and from about lam = 710 on it overflows to non-finite
    entries.
    """
    a, b = 0.0, 1.0
    terms = [BoundaryTerm(a, 0, np.array([[1.0], [0.0]])),
             BoundaryTerm(b, 0, np.array([[0.0], [1.0]]))]
    return BvpProblem(r=2, m=1,
                      coeffs=[PolyMatrix([[PiecewisePoly.constant(-lam ** 2, a, b)]]),
                              PolyMatrix.zero(1, 1, a, b)],
                      f=PolyVector.zero(1, a, b), q=np.array([1.0, 1.0]),
                      operator=BoundaryOperator(2, 1, a, b, terms),
                      grid=Grid(a, b, n))


def step_problem(n: int, jump: float = 0.3, a: float = 0.0, b: float = 1.0,
                 forcing: bool = False) -> BvpProblem:
    """y' + a0(t) y = f on [a, b] with y(a) = 1, where a0 steps from 1 to 2
    at ``jump`` and f is 1, on an n-step grid.  y is 1 up to the jump and
    (1 + exp(-2 (t - jump))) / 2 after it.  With ``forcing`` a0 is 1 and f
    steps from 1 to 2 instead, and y is 2 - exp(-(t - jump)) after it."""
    step = PiecewisePoly.step([a, jump, b], [1.0, 2.0])
    one = PiecewisePoly.constant(1.0, a, b)
    a0, f = (one, step) if forcing else (step, one)
    operator = BoundaryOperator(1, 1, a, b, [BoundaryTerm(a, 0, np.ones((1, 1)))])
    return BvpProblem(r=1, m=1, coeffs=[PolyMatrix([[a0]])], f=PolyVector([f]),
                      q=np.array([1.0]), operator=operator, grid=Grid(a, b, n))


def density_step_problem(n: int, c: float = 0.3, *later: float) -> BvpProblem:
    """y'' + y = 1 on [0, 1] with y(0) = 0 and int_0^1 y' rho dt = q, where the
    density rho steps from 1 to 2 at ``c``, and up by 1 again at each of the
    ascending ``later``, on an n-step grid: a general operator.  q is that of
    y = 1 - cos t + sin t, whose y' = sin t + cos t has the primitive sin t - cos t."""
    primitive = lambda t: np.sin(t) - np.cos(t)
    edges = [0.0, c, *later, 1.0]
    values = np.arange(1.0, len(edges))
    rho = PiecewisePoly.step(edges, values)
    phi = MatrixMeasure([[ScalarMeasure.zero(0.0, 1.0)], [ScalarMeasure.from_density(rho)]])
    q = sum(v * (primitive(e1) - primitive(e0)) for v, e0, e1 in zip(values, edges[:-1], edges[1:]))
    return BvpProblem(r=2, m=1, coeffs=[PolyMatrix([[PiecewisePoly.constant(1.0, 0.0, 1.0)]]),
                                        PolyMatrix.zero(1, 1, 0.0, 1.0)],
                      f=PolyVector([PiecewisePoly.constant(1.0, 0.0, 1.0)]), q=np.array([0.0, q]),
                      operator=GeneralBoundaryOperator(2, 1, [np.array([[1.0], [0.0]])], phi),
                      grid=Grid(0.0, 1.0, n))


def point_condition_problem(t: float) -> BvpProblem:
    """y'' + y = 1 on [0.1, 0.7] with y(0.1) = 0 and y(t) = 1, a multipoint
    operator, on a 300-step grid.  With s = x - 0.1, y(x) is
    1 - cos(s) + sin(s) cos(t - 0.1) / sin(t - 0.1)."""
    a, b = 0.1, 0.7
    op = BoundaryOperator(2, 1, a, b, [BoundaryTerm(a, 0, np.array([[1.0], [0.0]])),
                                      BoundaryTerm(t, 0, np.array([[0.0], [1.0]]))])
    return BvpProblem(r=2, m=1, coeffs=[PolyMatrix([[PiecewisePoly.constant(1.0, a, b)]]),
                                        PolyMatrix.zero(1, 1, a, b)],
                      f=PolyVector([PiecewisePoly.constant(1.0, a, b)]), q=np.array([0.0, 1.0]),
                      operator=op, grid=Grid(a, b, 300))
