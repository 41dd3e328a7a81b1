"""Scalar and matrix measures: atoms plus piecewise-polynomial densities.

A measure here is a finite list of atoms together with an absolutely
continuous part given by a piecewise-polynomial density.  This class is
wide enough for every boundary functional the solver supports while keeping
total variation and discretization computable in closed form.  Atoms are
sorted and coalesced in one pass, and integrating sampled data against a
measure is a contraction with its node weights ``weights(grid)``.
"""

from __future__ import annotations

import numpy as np

from .funcspace import Grid, PiecewisePoly, _cluster_starts, _linear_stencil, mat_norm

__all__ = [
    "ScalarMeasure",
    "MatrixMeasure",
    "total_variation",
    "tv_distance",
    "discretize_measure",
]


def _merge_tol(a: float, b: float) -> float:
    return (b - a) * 1e-12


def _merge_atoms(atoms, a: float, b: float):
    """Validate atoms, sort them by location and coalesce each cluster,
    summing from its first atom; clusters of zero weight are dropped."""
    tol = _merge_tol(a, b)
    pairs = list(atoms)
    t = np.array([p[0] for p in pairs], dtype=float)
    w = np.array([p[1] for p in pairs], dtype=complex)
    bad = np.flatnonzero(~((t >= a - tol) & (t <= b + tol)))
    if bad.size:
        raise ValueError(f"atom location {t[bad[0]]} outside [{a}, {b}]")
    if not np.all(np.isfinite(w)):
        raise ValueError("atom weights must be finite")
    order = np.argsort(t, kind="stable")
    t, w = t[order], w[order]
    starts = _cluster_starts(t, tol)
    merged = w[starts]
    np.add.at(merged, np.cumsum(starts)[~starts] - 1, w[~starts])
    keep = merged != 0
    return list(zip(t[starts][keep].tolist(), merged[keep].tolist()))


class ScalarMeasure:
    """A finite atom list plus an optional piecewise-polynomial density.

    Atoms within (b - a) * 1e-12 of each other are coalesced at
    construction; atoms with exactly zero weight are dropped.
    """

    __slots__ = ("a", "b", "atoms", "density")

    def __init__(self, a: float, b: float, atoms=(), density: PiecewisePoly | None = None):
        a, b = float(a), float(b)
        if not a < b:
            raise ValueError("measure needs a < b")
        if density is not None:
            tol = _merge_tol(a, b)
            if abs(density.a - a) > tol or abs(density.b - b) > tol:
                raise ValueError("density must span the measure's interval")
            if density.is_zero:
                density = None
        self.a = a
        self.b = b
        self.atoms = _merge_atoms(atoms, a, b)
        self.density = density

    # -- constructors ------------------------------------------------------

    @classmethod
    def point_mass(cls, a: float, b: float, location: float, weight=1.0) -> "ScalarMeasure":
        return cls(a, b, atoms=[(location, weight)])

    @classmethod
    def lebesgue(cls, a: float, b: float, scale=1.0) -> "ScalarMeasure":
        return cls(a, b, density=PiecewisePoly.constant(scale, a, b))

    @classmethod
    def from_density(cls, density: PiecewisePoly) -> "ScalarMeasure":
        return cls(density.a, density.b, density=density)

    @classmethod
    def zero(cls, a: float, b: float) -> "ScalarMeasure":
        return cls(a, b)

    # -- queries -----------------------------------------------------------

    @property
    def is_atomic(self) -> bool:
        return self.density is None

    def mass(self) -> complex:
        total = sum((w for _, w in self.atoms), 0j)
        if self.density is not None:
            total += self.density.integrate()
        return complex(total)

    def weights(self, grid: Grid) -> np.ndarray:
        """Node weights w, shaped (n+1,), with <x, mu> = sum_s w[s] x(t_s).

        Atoms use the linear stencil of their location; the density uses
        the trapezoid rule with end correction of ``_density_weights``.
        """
        w = np.zeros(grid.n + 1, dtype=complex)
        if self.atoms:
            t, weight = zip(*self.atoms)
            base, stencil = _linear_stencil(grid, t)
            np.add.at(w, base[:, None] + np.arange(2), np.array(weight)[:, None] * stencil)
        if self.density is not None:
            w += _density_weights(grid, self.density)
        return w

    def __sub__(self, other: "ScalarMeasure") -> "ScalarMeasure":
        tol = _merge_tol(self.a, self.b)
        if abs(self.a - other.a) > tol or abs(self.b - other.b) > tol:
            raise ValueError("measures must share the same interval")
        atoms = list(self.atoms) + [(t, -w) for t, w in other.atoms]
        if self.density is None:
            density = None if other.density is None else -other.density
        elif other.density is None:
            density = self.density
        else:
            density = self.density - other.density
        return ScalarMeasure(self.a, self.b, atoms=atoms, density=density)

    def __repr__(self):
        dens = "none" if self.density is None else repr(self.density)
        return f"ScalarMeasure({len(self.atoms)} atoms, density={dens})"


def _segment_boundaries(grid: Grid, density: PiecewisePoly):
    """Map density breakpoints to node indices, or None if any sit off-grid."""
    indices = [0]
    for t in density.breakpoints[1:-1]:
        s = (t - grid.a) / grid.h
        i = int(round(s))
        if abs(s - i) > 1e-9:
            return None
        if indices[-1] < i < grid.n:
            indices.append(i)
    indices.append(grid.n)
    return indices


#: Euler-Maclaurin end weights (in units of h): the h^2/12 derivative
#: correction with 4-point one-sided difference stencils, read inward from
#: either end of a segment.
_END_CORRECTION = np.array([-11.0, 18.0, -9.0, 2.0]) / 72.0


def _density_weights(grid: Grid, density: PiecewisePoly) -> np.ndarray:
    """Node weights of the trapezoid rule for x * density over the grid.

    Each smooth segment gets the Euler-Maclaurin end correction, which
    upgrades the rule to O(h^4) for data whose density breakpoints sit on
    grid nodes.  With a breakpoint off the grid the rule falls back to the
    plain trapezoid on right-limit samples.
    """
    nodes, h = grid.nodes, grid.h
    seg = _segment_boundaries(grid, density)
    if seg is None:
        trap = np.full(grid.n + 1, h)
        trap[[0, -1]] *= 0.5
        return trap * density(nodes)
    out = np.zeros(grid.n + 1, dtype=complex)
    poly = np.polynomial.polynomial.polyval
    seg = np.asarray(seg)
    pieces = density._piece_index(0.5 * (nodes[seg[:-1]] + nodes[seg[1:]]))
    for i0, i1, piece in zip(seg[:-1], seg[1:], pieces):
        trap = np.full(i1 - i0 + 1, h)
        trap[[0, -1]] *= 0.5
        if trap.size >= 4:
            trap[:4] += h * _END_CORRECTION
            trap[-4:] += h * _END_CORRECTION[::-1]
        out[i0:i1 + 1] += trap * poly(nodes[i0:i1 + 1], density.coeffs[piece])
    return out


def total_variation(measure: ScalarMeasure) -> float:
    """Total variation: sum of |atom weights| plus the L1 mass of the density."""
    tv = sum(abs(w) for _, w in measure.atoms)
    if measure.density is not None:
        tv += measure.density.abs_integral()
    return float(tv)


def tv_distance(mu: ScalarMeasure, nu: ScalarMeasure) -> float:
    """Total variation of the difference measure mu - nu."""
    return total_variation(mu - nu)


def discretize_measure(measure: ScalarMeasure, k: int) -> ScalarMeasure:
    """Replace the density by k midpoint atoms on equal subintervals.

    Subinterval j of k contributes an atom at its midpoint carrying the
    exact integral of the density over that subinterval, so the total mass
    is preserved exactly.  Existing atoms pass through unchanged; a purely
    atomic measure is returned as is.
    """
    if int(k) != k or k < 1:
        raise ValueError(f"need an integer k >= 1, got {k}")
    if measure.density is None:
        return ScalarMeasure(measure.a, measure.b, atoms=measure.atoms)
    a, b = measure.a, measure.b
    edges = a + (b - a) * np.arange(k + 1) / k
    midpoints = 0.5 * (edges[:-1] + edges[1:])
    atoms = list(measure.atoms) + list(zip(midpoints.tolist(),
                                           measure.density.integrals(edges).tolist()))
    return ScalarMeasure(a, b, atoms=atoms)


class MatrixMeasure:
    """A rows x cols matrix of scalar measures over one interval."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = [list(r) for r in entries]
        if not rows or not rows[0]:
            raise ValueError("need a non-empty matrix of measures")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        a, b = rows[0][0].a, rows[0][0].b
        tol = _merge_tol(a, b)
        for r in rows:
            for e in r:
                if abs(e.a - a) > tol or abs(e.b - b) > tol:
                    raise ValueError("all entries must share the same interval")
        self.entries = rows

    @classmethod
    def zero(cls, rows: int, cols: int, a: float, b: float) -> "MatrixMeasure":
        return cls([[ScalarMeasure.zero(a, b) for _ in range(cols)] for _ in range(rows)])

    @property
    def shape(self):
        return (len(self.entries), len(self.entries[0]))

    @property
    def a(self) -> float:
        return self.entries[0][0].a

    @property
    def b(self) -> float:
        return self.entries[0][0].b

    def weights(self, grid: Grid) -> np.ndarray:
        """Entrywise node weights shaped (rows, n+1, cols); see ScalarMeasure.weights."""
        w = np.array([[entry.weights(grid) for entry in row] for row in self.entries])
        return w.transpose(0, 2, 1)

    def apply(self, grid: Grid, values) -> np.ndarray:
        """Integrate sampled (n+1, cols) data row-wise: out_i = sum_j < x_j, mu_ij >."""
        v = np.asarray(values, dtype=complex)
        if v.ndim == 1:
            v = v[:, None]
        rows, cols = self.shape
        if v.shape != (grid.n + 1, cols):
            raise ValueError(f"expected samples shaped {(grid.n + 1, cols)}, got {v.shape}")
        return np.einsum("isj,sj->i", self.weights(grid), v)

    def discretize(self, k: int) -> "MatrixMeasure":
        return MatrixMeasure(
            [[discretize_measure(e, k) for e in row] for row in self.entries]
        )

    def variation_matrix(self) -> np.ndarray:
        rows, cols = self.shape
        out = np.empty((rows, cols))
        for i in range(rows):
            for j in range(cols):
                out[i, j] = total_variation(self.entries[i][j])
        return out

    def norm_tv(self) -> float:
        """Matrix norm (max column sum) of the entrywise total variations."""
        return mat_norm(self.variation_matrix())
