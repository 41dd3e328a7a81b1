"""Scalar and matrix measures, and the grid functionals compiled from them.

A measure here is one table of atoms (``nodes`` and ``masses``) together
with an absolutely continuous part given by a piecewise-polynomial density,
so ``MatrixMeasure.discretize`` gives each subinterval's atom the density's
exact integral over it.  Atoms are sorted and coalesced in one pass by
``funcspace._coalesce``, in ``_atom_table``, for a measure and for the
discretized atoms that ``multipointify`` reads with no measure built.
This module compiles grid weights and applies them: a ``LiftedOperator``
places a table of point terms, a matrix measure's atoms or a boundary
operator's point evaluations, on a grid by ``funcspace._place_points`` on
the nodes a non-zero weight reaches, and gives each entry with a density
one row of ``_density_weights``, fourth order wherever its breakpoints
fall: the corrected trapezoid on each segment of 4 or more nodes between
them, and product integration on every other cell.  A matrix measure is
applied as such a functional, and ``boundary.lift`` maps a boundary
operator onto one.
"""

from __future__ import annotations

import numpy as np

from .funcspace import (_GAUSS_W, _GAUSS_X, BLOCK_STEPS, Grid, PiecewisePoly, _Entries,
                        _check_k, _clamp_points, _coalesce, _cubic_stencil, _equal_partition,
                        _horner, _located_breakpoints, _place_points, _spans)

__all__ = [
    "ScalarMeasure",
    "MatrixMeasure",
]


class ScalarMeasure:
    """A read-only atom table, ``nodes`` (float, sorted) and ``masses``
    (complex), plus an optional piecewise-polynomial density.

    ``atoms``, (location, mass) pairs or a (K, 2) array, are clamped into
    [a, b] and coalesced within ``_merge_tol(a, b)`` at construction;
    clusters of zero mass are dropped.
    """

    __slots__ = ("a", "b", "nodes", "masses", "density")

    def __init__(self, a: float, b: float, atoms=(), density: PiecewisePoly | None = None):
        a, b = float(a), float(b)
        if not a < b:
            raise ValueError("measure needs a < b")
        if density is not None and not _spans((a, b), [density]):
            raise ValueError("density must span the measure's interval")
        density = None if density is None or density.is_zero else density
        table = np.array(atoms, dtype=complex)
        if table.size and (table.shape[1:] != (2,) or np.any(table[:, 0].imag)):
            raise ValueError("atoms must be (real location, mass) pairs")
        t, w = table.reshape(-1, 2).T
        self.a = a
        self.b = b
        self.nodes, self.masses = _atom_table(a, b, t.real, w)
        self.nodes.flags.writeable = self.masses.flags.writeable = False
        self.density = density

    # -- constructors ------------------------------------------------------

    @classmethod
    def lebesgue(cls, a: float, b: float, scale=1.0) -> "ScalarMeasure":
        return cls(a, b, density=PiecewisePoly.constant(scale, a, b))

    @classmethod
    def from_density(cls, density: PiecewisePoly) -> "ScalarMeasure":
        return cls(density.a, density.b, density=density)

    @classmethod
    def zero(cls, a: float, b: float) -> "ScalarMeasure":
        return cls(a, b)

    def __repr__(self):
        dens = "none" if self.density is None else repr(self.density)
        return f"ScalarMeasure({self.nodes.size} atoms, density={dens})"


def _atom_table(a: float, b: float, t, w) -> tuple:
    """The atom table (nodes, masses) of atoms at t with masses w on [a, b]:
    t clamped into it, sorted, coalesced within ``_merge_tol(a, b)``, and
    clusters of zero mass dropped."""
    t = _clamp_points(t, a, b, "atom location")
    if not np.isfinite(w).all():
        raise ValueError("atom weights must be finite")
    order = np.argsort(t, kind="stable")
    starts, masses = _coalesce(t[order], w[order], a, b)
    keep = masses != 0
    return t[order][starts][keep], masses[keep]


def _discretized_atoms(measure: ScalarMeasure, k: int) -> tuple:
    """The atom table (nodes, masses) of the measure discretized on k equal
    subintervals, with no measure built: its own atoms and, with a density,
    one midpoint atom per subinterval carrying the density's integral."""
    if measure.density is None:
        return measure.nodes, measure.masses
    a, b = measure.a, measure.b
    edges = _equal_partition(a, b, k)
    midpoints = 0.5 * (edges[:-1] + edges[1:])
    return _atom_table(a, b, np.concatenate([measure.nodes, midpoints]),
                       np.concatenate([measure.masses, measure.density.integrals(edges)]))


#: Euler-Maclaurin end weights (in units of h): the h^2/12 derivative
#: correction with 4-point one-sided difference stencils, read inward from
#: either end of a segment.
_END_CORRECTION = np.array([-11.0, 18.0, -9.0, 2.0]) / 72.0


def _density_weights(grid: Grid, density: PiecewisePoly, out: np.ndarray | None = None):
    """Add the node weights of the integral of x * density over the grid to
    ``out`` (n+1,), a zero vector, by default a fresh one, and return it.

    The density's segments run between 0, n, the node of each on-node
    breakpoint and both nodes of each cell an off-node one cuts, by
    ``funcspace._located_breakpoints``.  A segment of 4 or more nodes gets the
    trapezoid rule with the Euler-Maclaurin end correction, O(h^4), added
    BLOCK_STEPS nodes at a time; a node two segments share gets the sum of
    both, in either order the same bits.  Every other cell, a product cell,
    gets product integration: the 24-point Gauss rule on each piece of it
    between the breakpoints in it, read at each point by the cubic stencil
    that point terms carry, so it is exact wherever x is a cubic on the stencil."""
    nodes, h = grid.nodes, grid.h
    out = np.zeros(grid.n + 1, dtype=complex) if out is None else out
    t, on, i = _located_breakpoints(grid, density)
    seg = np.sort(np.concatenate([[0, grid.n], i, i[~on] + 1]))
    seg = seg[np.diff(seg, prepend=-1) > 0]
    long = np.diff(seg) >= 3
    pieces = density._piece_index(0.5 * (nodes[seg[:-1]] + nodes[seg[1:]])[long])
    for i0, i1, piece in zip(seg[:-1][long], seg[1:][long], pieces):
        # Only the first and last four nodes of a segment weigh other than h.
        size = i1 - i0 + 1
        ends = np.full(min(size, 8), h)
        ends[[0, -1]] *= 0.5
        ends[:4] += h * _END_CORRECTION
        ends[-4:] += h * _END_CORRECTION[::-1]
        cuts = [0, size] if size <= 8 else [0, 4, *range(4 + BLOCK_STEPS, size - 4, BLOCK_STEPS),
                                            size - 4, size]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            x = nodes[i0 + lo:i0 + hi]
            trap = ends[lo:hi] if lo == 0 else ends[-4:] if hi == size else np.full(hi - lo, h)
            out[i0 + lo:i0 + hi] += trap * _horner(density.coeffs[piece][None], x)
    product = np.repeat(~long, np.diff(seg))
    if product.any():
        # Gauss pieces end at the product cells' nodes and the breakpoints in
        # them; a piece that starts in no product cell is dropped.
        cells = np.flatnonzero(product)
        edges = np.sort(np.concatenate([nodes[cells], nodes[cells + 1], t[~on]]))
        edges = edges[np.diff(edges, prepend=-np.inf) > 0]
        keep = product[np.searchsorted(nodes, edges[:-1], side="right") - 1]
        left, half = edges[:-1][keep], 0.5 * np.diff(edges)[keep, None]
        x = (half * (_GAUSS_X + 1.0) + left[:, None]).ravel()
        base, w = _cubic_stencil(grid, x)
        mass = (half * _GAUSS_W).ravel() * density(x)
        np.add.at(out, base[:, None] + np.arange(w.shape[1]), w * mass[:, None])
    return out


class LiftedOperator:
    """A grid functional compiled from point terms and density entries, held
    as the weights it has on the nodes of a (n+1, width) sample array and no
    others: a boundary operator's on the stacked rm-vector
    col(y, y', ..., y^(r-1)), as ``boundary.lift`` compiles it, or a matrix
    measure's on samples of its cols columns.

    Point terms, measure atoms included, carry the 4-point cubic stencil of
    their location, and a term on a node by the node rule weighs that node
    by exactly 1: ``weights[i, k, c]`` weighs column c at node ``nodes[k]``
    in row i, for the K nodes their non-zero weights reach.
    Row p of ``densities`` (P, n+1) holds the ``_density_weights`` of the
    density of ``entries[i][j]``, the corrected trapezoid on its segments of
    4 or more nodes and product integration on its other cells, which weighs
    column ``density_columns[p]`` = first + j in row ``density_rows[p]`` = i.
    ``point_terms`` lists the (node, order, beta) point terms compiled in,
    formed only when read, and ``shape`` is (rows, n+1, width), that of a
    dense weight array.
    """

    __slots__ = ("_terms", "nodes", "weights", "density_rows", "density_columns",
                 "densities", "shape")

    def __init__(self, grid: Grid, nodes, orders, betas, width: int, entries=(), first: int = 0):
        self._terms = (nodes, orders, betas)
        self.nodes, self.weights = _place_points(grid, nodes, orders, betas, width)
        slots = [(i, first + j, mu.density) for i, row in enumerate(entries)
                 for j, mu in enumerate(row) if mu.density is not None]
        self.density_rows, self.density_columns = np.array(
            [slot[:2] for slot in slots], dtype=np.intp).reshape(-1, 2).T
        self.densities = np.zeros((len(slots), grid.n + 1), dtype=complex)
        for weights, (_, _, density) in zip(self.densities, slots):
            _density_weights(grid, density, weights)
        self.shape = (betas.shape[1], grid.n + 1, width)

    @property
    def point_terms(self) -> tuple:
        """The (node, order, beta) point terms compiled in, formed when read."""
        nodes, orders, betas = self._terms
        return tuple(zip(nodes.tolist(), orders.tolist(), betas))

    def _apply(self, v: np.ndarray) -> np.ndarray:
        """Apply to samples (width, w, n+1), steps last, giving (rows, w): one fixed-order
        NumPy contraction per part, no BLAS call, so no bit hangs on the BLAS thread count;
        the density part forms only the products it keeps.  Overflow gives inf or nan quietly."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.einsum("ikc,cwk->iw", self.weights, v[..., self.nodes])
            np.add.at(out, self.density_rows,
                      np.einsum("pwj,pj->pw", v[self.density_columns], self.densities))
        return out

    def apply_values(self, values) -> np.ndarray:
        """Apply to node samples shaped (n+1, width)."""
        v = np.asarray(values, dtype=complex)
        if v.shape != self.shape[1:]:
            raise ValueError(f"expected samples shaped {self.shape[1:]}, got {v.shape}")
        return self._apply(v.T[:, None])[:, 0]

    def apply_trajectory(self, values) -> np.ndarray:
        """Apply columnwise to a matrix trajectory shaped (n+1, width, rows)."""
        v = np.asarray(values, dtype=complex)
        shape = self.shape[1:] + self.shape[:1]
        if v.shape != shape:
            raise ValueError(f"expected a trajectory shaped {shape}, got {v.shape}")
        return self._apply(v.transpose(1, 2, 0))


class MatrixMeasure(_Entries):
    """A rows x cols matrix of scalar measures over one interval."""

    __slots__ = ()
    _EMPTY = "need a non-empty matrix of measures"

    def _atom_terms(self, order: int, k: int | None = None):
        """Every entry's atoms, entry by entry, as point terms of the given order
        whose (rows, cols) betas hold the mass in the entry's slot, at nodes moved
        onto the matrix's [a, b] with the entry's ends: nodes, orders, betas.
        Given k, the atoms are those of ``discretize(k)``, with no measure built."""
        atoms = [(entry.nodes, entry.masses) if k is None else _discretized_atoms(entry, k)
                 for row in self.entries for entry in row]
        nodes = np.clip(np.concatenate([t for t, _ in atoms]), self.a, self.b)
        slot = np.repeat(np.arange(len(atoms)), [t.size for t, _ in atoms])
        betas = np.zeros((nodes.size, len(atoms)), dtype=complex)
        betas[np.arange(nodes.size), slot] = np.concatenate([w for _, w in atoms])
        return nodes, np.full(nodes.size, order), betas.reshape((nodes.size,) + self.shape)

    def apply(self, grid: Grid, values) -> np.ndarray:
        """Integrate sampled (n+1, cols) data row-wise: out_i = sum_j < x_j, mu_ij >."""
        v = np.asarray(values, dtype=complex)
        v = v[:, None] if v.ndim == 1 else v
        return LiftedOperator(grid, *self._atom_terms(0), self.shape[1],
                              self.entries).apply_values(v)

    def discretize(self, k: int) -> "MatrixMeasure":
        """Every density replaced by k midpoint atoms on equal subintervals, each
        carrying the density's exact integral over its subinterval, so the mass
        is kept; existing atoms pass through, and an atomic entry is returned as is."""
        k = _check_k(k)
        return MatrixMeasure([[e if e.density is None else ScalarMeasure(
                                   e.a, e.b, atoms=np.stack(_discretized_atoms(e, k), axis=1))
                               for e in row] for row in self.entries])
