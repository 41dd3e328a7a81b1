"""Fundamental matrices of first-order linear systems via fixed-step RK4.

The forward trajectory solves Y' = -A(t) Y with Y(a) = I; the inverse
trajectory solves Z' = Z A(t) with Z(a) = I, so Z(t) = Y(t)^-1 without ever
inverting a matrix.  Coefficient evaluations are piece-aware: the value at
the right end of a step is taken as the left-hand limit, which keeps the
integrator at full order when coefficients jump at grid nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .funcspace import Grid, PolyMatrix, PolyVector, sample_cubic

__all__ = [
    "MatrixTrajectory",
    "fundamental_matrix",
    "inverse_fundamental",
    "forced_trajectory",
]


@dataclass(frozen=True)
class MatrixTrajectory:
    """Node samples of a time-dependent d x d matrix, shaped (n+1, d, d)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 3 or v.shape[0] != self.grid.n + 1 or v.shape[1] != v.shape[2]:
            raise ValueError("trajectory values must be shaped (n+1, d, d)")

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def at(self, t: float) -> np.ndarray:
        return sample_cubic(self.grid, self.values, t)


def _coefficient_panels(A: PolyMatrix, grid: Grid):
    """Evaluate A at step starts (right limit), midpoints, and step ends (left limit)."""
    nodes = grid.nodes
    start = A.eval_at(nodes[:-1], side="right")
    mid = A.eval_at(grid.half_nodes)
    end = A.eval_at(nodes[1:], side="left")
    for name, panel in (("start", start), ("mid", mid), ("end", end)):
        if not np.all(np.isfinite(panel)):
            raise ValueError(f"coefficient evaluation produced non-finite values ({name})")
    return start, mid, end


def _rk4_matrix(A: PolyMatrix, grid: Grid, transpose_action: bool) -> np.ndarray:
    """Integrate Y' = -A Y (or Z' = Z A when transpose_action) from the identity."""
    start, mid, end = _coefficient_panels(A, grid)
    d = start.shape[1]
    h = grid.h
    out = np.empty((grid.n + 1, d, d), dtype=complex)
    y = np.eye(d, dtype=complex)
    out[0] = y

    if transpose_action:
        def rhs(mat, state):
            return state @ mat
    else:
        def rhs(mat, state):
            return -(mat @ state)

    for i in range(grid.n):
        a0, am, a1 = start[i], mid[i], end[i]
        k1 = rhs(a0, y)
        k2 = rhs(am, y + 0.5 * h * k1)
        k3 = rhs(am, y + 0.5 * h * k2)
        k4 = rhs(a1, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out[i + 1] = y
    return out


def fundamental_matrix(A: PolyMatrix, grid: Grid) -> MatrixTrajectory:
    """Matrizant of y' + A(t) y = 0: solves Y' = -A(t) Y, Y(a) = I."""
    p, q = A.shape
    if p != q:
        raise ValueError("coefficient matrix must be square")
    return MatrixTrajectory(grid, _rk4_matrix(A, grid, transpose_action=False))


def inverse_fundamental(A: PolyMatrix, grid: Grid) -> MatrixTrajectory:
    """Inverse matrizant: solves Z' = Z A(t), Z(a) = I, so Z = Y^-1."""
    p, q = A.shape
    if p != q:
        raise ValueError("coefficient matrix must be square")
    return MatrixTrajectory(grid, _rk4_matrix(A, grid, transpose_action=True))


def forced_trajectory(A: PolyMatrix, g: PolyVector, grid: Grid) -> np.ndarray:
    """RK4 integration of u' = -A(t) u + g(t), u(a) = 0, sampled on the grid.

    This is the particular solution of the inhomogeneous system, computed
    at the same order as the matrizant.
    """
    start, mid, end = _coefficient_panels(A, grid)
    nodes = grid.nodes
    g_start = g.eval_at(nodes[:-1], side="right")
    g_mid = g.eval_at(grid.half_nodes)
    g_end = g.eval_at(nodes[1:], side="left")
    d = start.shape[1]
    h = grid.h
    out = np.empty((grid.n + 1, d), dtype=complex)
    u = np.zeros(d, dtype=complex)
    out[0] = u
    for i in range(grid.n):
        k1 = g_start[i] - start[i] @ u
        k2 = g_mid[i] - mid[i] @ (u + 0.5 * h * k1)
        k3 = g_mid[i] - mid[i] @ (u + 0.5 * h * k2)
        k4 = g_end[i] - end[i] @ (u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out[i + 1] = u
    return out
