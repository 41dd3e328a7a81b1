"""Built-in reference problems with closed-form solutions.

Three uniquely solvable problems cover the main shapes — scalar first
order with an integral condition, scalar second order with a
discontinuous complex coefficient and a mixed point/integral condition,
and a coupled first-order pair with a two-point plus integral condition —
together with one deliberately degenerate problem whose characteristic
matrix is singular.  A builder returns its problem and its closed form's
derivative callables, unsampled: ``build_problem`` builds a problem by name,
sampling and solving nothing, and ``exact_jet`` samples a solvable one's
exact solution jet.  The tier-1 tests check every closed form against its
problem's data; nothing is checked at run time.
"""

from __future__ import annotations

import numpy as np

from .boundary import BoundaryOperator, BoundaryTerm, GeneralBoundaryOperator
from .bvp import BvpProblem
from .funcspace import Grid, PiecewisePoly, PolyMatrix, PolyVector, SampledJet
from .stieltjes import MatrixMeasure, ScalarMeasure

__all__ = [
    "CORPUS_NAMES",
    "DEGENERATE_NAMES",
    "build_problem",
    "exact_jet",
]

CORPUS_NAMES = ("p1", "p2", "p3")
DEGENERATE_NAMES = ("nn",)


def _p1(n: int):
    """Scalar first order: y' + y = 1 + t with a prescribed integral.

    Exact solution y = exp(-t) + t; the condition reads int_0^1 y dt.
    """
    a, b = 0.0, 1.0
    coeffs = [PolyMatrix.constant([[1.0]], a, b)]
    f = PolyVector([PiecewisePoly.single([1.0, 1.0], a, b)])
    phi = MatrixMeasure([[ScalarMeasure.lebesgue(a, b, 1.0)]])
    operator = GeneralBoundaryOperator(1, 1, [], phi)
    q = np.array([1.5 - np.exp(-1.0)], dtype=complex)
    problem = BvpProblem(r=1, m=1, coeffs=coeffs, f=f, q=q, operator=operator, grid=Grid(a, b, n))
    return problem, [
        lambda t: np.exp(-t) + t,
        lambda t: 1.0 - np.exp(-t),
    ]


def _p2(n: int):
    """Scalar second order with a jumping complex coefficient.

    y'' + a0(t) y = f where a0 steps from 1 to 1 + 0.5i at t = 0.5, the
    exact solution is y = t^3 - t, and the conditions are y(0) = 0 and
    int_0^1 y dt = -1/4, the latter written as y(0) + int (1-s) y'(s) ds.
    """
    a, b = 0.0, 1.0
    low, high = 1.0, 1.0 + 0.5j
    a0 = PiecewisePoly.step([a, 0.5, b], [low, high])
    coeffs = [
        PolyMatrix([[a0]]),
        PolyMatrix.zero(1, 1, a, b),
    ]
    # f = 6t + a0(t) (t^3 - t), piece by piece
    cubic = np.array([0.0, -1.0, 0.0, 1.0], dtype=complex)  # t^3 - t
    f_piece_low = low * cubic + np.array([0.0, 6.0, 0.0, 0.0])
    f_piece_high = high * cubic + np.array([0.0, 6.0, 0.0, 0.0])
    f = PolyVector([PiecewisePoly([a, 0.5, b], [f_piece_low, f_piece_high])])
    alphas = [np.array([[1.0], [1.0]], dtype=complex)]
    phi = MatrixMeasure([
        [ScalarMeasure.zero(a, b)],
        [ScalarMeasure.from_density(PiecewisePoly.single([1.0, -1.0], a, b))],
    ])
    operator = GeneralBoundaryOperator(2, 1, alphas, phi)
    q = np.array([0.0, -0.25], dtype=complex)
    problem = BvpProblem(r=2, m=1, coeffs=coeffs, f=f, q=q, operator=operator, grid=Grid(a, b, n))
    return problem, [
        lambda t: t ** 3 - t,
        lambda t: 3.0 * t ** 2 - 1.0,
        lambda t: 6.0 * t,
    ]


def _p3(n: int):
    """Coupled first-order pair with a two-point plus integral condition.

    y' + [[0, -1], [0, 0]] y = (4t - 1 - t^2, 2t - 2); exact
    y = (t^2, (1 - t)^2); the conditions are y1(0) + y1(1) = 1 and
    int_0^1 y2 dt = 1/3.  The integrated component is deliberately
    curved so that atomic discretizations of the condition converge at
    a visible (second-order) rate rather than being exact.
    """
    a, b = 0.0, 1.0
    coeffs = [PolyMatrix.constant([[0.0, -1.0], [0.0, 0.0]], a, b)]
    f = PolyVector([
        PiecewisePoly.single([-1.0, 4.0, -1.0], a, b),
        PiecewisePoly.single([-2.0, 2.0], a, b),
    ])
    delta_sum = ScalarMeasure(a, b, atoms=[(a, 1.0), (b, 1.0)])
    phi = MatrixMeasure([
        [delta_sum, ScalarMeasure.zero(a, b)],
        [ScalarMeasure.zero(a, b), ScalarMeasure.lebesgue(a, b, 1.0)],
    ])
    operator = GeneralBoundaryOperator(1, 2, [], phi)
    q = np.array([1.0, 1.0 / 3.0], dtype=complex)
    problem = BvpProblem(r=1, m=2, coeffs=coeffs, f=f, q=q, operator=operator, grid=Grid(a, b, n))
    return problem, [
        lambda t: np.stack([t ** 2, (1.0 - t) ** 2], axis=-1),
        lambda t: np.stack([2.0 * t, 2.0 * t - 2.0], axis=-1),
    ]


def _nn(n: int):
    """Degenerate: y'' = 0 with y'(0) = y'(1) = 0.

    Every constant solves it, so the characteristic matrix is singular and
    the solver must refuse.
    """
    a, b = 0.0, 1.0
    coeffs = [PolyMatrix.zero(1, 1, a, b), PolyMatrix.zero(1, 1, a, b)]
    f = PolyVector.zero(1, a, b)
    terms = [
        BoundaryTerm(node=a, order=1, beta=np.array([[1.0], [0.0]], dtype=complex)),
        BoundaryTerm(node=b, order=1, beta=np.array([[0.0], [1.0]], dtype=complex)),
    ]
    operator = BoundaryOperator(2, 1, a, b, terms)
    q = np.zeros(2, dtype=complex)
    problem = BvpProblem(r=2, m=1, coeffs=coeffs, f=f, q=q, operator=operator, grid=Grid(a, b, n))
    return problem, None


_BUILDERS = {"p1": _p1, "p2": _p2, "p3": _p3, "nn": _nn}


def build_problem(name: str, n: int = 2048) -> BvpProblem:
    """Build a named reference problem on an (a, b, n) grid."""
    return _load(name, n)[0]


def exact_jet(name: str, n: int = 2048) -> SampledJet:
    """Exact solution jet y, y', ..., y^(r) of a named solvable reference
    problem, sampled on its grid."""
    problem, derivatives = _load(name, n)
    if derivatives is None:
        raise ValueError(f"problem {name!r} has no closed-form solution")
    return SampledJet.from_callables(problem.grid, problem.m, problem.r, derivatives)


def _load(name: str, n: int):
    """The named builder's problem on n steps and its closed form's derivative
    callables, or None, unsampled."""
    key = name.strip().lower()
    if key not in _BUILDERS:
        known = ", ".join(sorted(_BUILDERS))
        raise ValueError(f"unknown problem {name!r} (known: {known})")
    return _BUILDERS[key](n)
