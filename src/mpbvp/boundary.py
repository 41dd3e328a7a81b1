"""Boundary operators: one class, its Riesz-form builder, compilation.

A ``BoundaryOperator`` sends an order-(r-1) jet y to

    B y = sum_j beta_j y^(l_j)(t_j) + integral (dPhi) y^(r-1)

with beta_j in C^{rm x m}, held as one coalesced table of point terms, and
Phi an rm x m matrix measure or None: the paper's multipoint form is the
table alone, and ``GeneralBoundaryOperator`` builds its Riesz form, the
alphas at a and Phi.  An atom of Phi with mass w at t is the point term
(t, r-1, w in its entry), so ``_point_terms`` gives every point evaluation
as one table.  ``multipointify`` is that table with every density
discretized on k equal subintervals, which converges weak-* but never in
total variation; an operator without Phi is its own.  ``lift`` maps an
operator onto the one grid functional that ``stieltjes`` compiles and
applies, a ``LiftedOperator`` on the stacked jet: its point terms, and
Phi's densities in the columns of y^(r-1).  ``boundary`` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .funcspace import (Grid, SampledJet, _check_k, _clamp_points, _coalesce, _horner, _spans,
                        norm_cl, vec_norm)
from .stieltjes import LiftedOperator, MatrixMeasure

__all__ = [
    "BoundaryOperator",
    "GeneralBoundaryOperator",
    "BoundaryTerm",
    "LiftedOperator",
    "apply_operator",
    "multipointify",
    "lift",
    "norm_lower_bound",
    "norm_upper_bound",
    "default_probe_jets",
]


@dataclass(frozen=True)
class BoundaryTerm:
    """One point term: beta @ y^(order)(node), beta shaped (rm, m)."""

    node: float
    order: int
    beta: np.ndarray


class BoundaryOperator:
    """B y = sum_j beta_j y^(l_j)(t_j) + integral (dPhi) y^(r-1) on [a, b].

    The point terms are one read-only table: ``nodes`` (K,), ``orders`` (K,)
    and ``betas`` (K, rm, m), sorted by (node, order).  Terms of one order
    within the merge tolerance of their cluster's first node are coalesced
    at construction, each sum started from that first term; ``terms`` lists
    the rows as ``BoundaryTerm`` records.  ``phi`` is the rm x m matrix
    measure on [a, b] acting on y^(r-1), or None.
    """

    __slots__ = ("r", "m", "a", "b", "nodes", "orders", "betas", "phi", "_terms")

    def __init__(self, r: int, m: int, a: float, b: float, terms=(),
                 phi: MatrixMeasure | None = None):
        if r < 1 or m < 1:
            raise ValueError("need r >= 1 and m >= 1")
        terms = list(terms)
        shape = (r * m, m)
        betas = [np.asarray(term.beta, dtype=complex) for term in terms]
        for beta in betas:
            if beta.shape != shape:
                raise ValueError(f"weight must be shaped {shape}, got {beta.shape}")
        self._set(r, m, a, b, [term.node for term in terms], [term.order for term in terms],
                  np.array(betas).reshape((len(terms),) + shape), phi)

    @classmethod
    def _from_table(cls, r: int, m: int, a: float, b: float,
                    nodes, orders, betas, phi=None) -> "BoundaryOperator":
        """Build from arrays shaped (K,), (K,), (K, rm, m); ``__init__``'s value checks run."""
        out = cls.__new__(cls)
        out._set(r, m, a, b, nodes, orders, betas, phi)
        return out

    def _set(self, r, m, a, b, nodes, orders, betas, phi):
        """Validate, clamp, sort and coalesce the term table in one pass; check phi."""
        a, b = float(a), float(b)
        if not a < b:
            raise ValueError("operator needs a < b")
        if phi is not None:
            if phi.shape != (r * m, m):
                raise ValueError(f"phi must be shaped {(r * m, m)}, got {phi.shape}")
            if not _spans((a, b), [phi]):
                raise ValueError(f"phi must span the operator's interval [{a}, {b}]")
        orders = np.asarray(orders)
        betas = np.asarray(betas, dtype=complex)
        bad = np.flatnonzero(~((orders >= 0) & (orders <= r - 1) & (orders % 1 == 0)))
        if bad.size:
            raise ValueError(f"derivative order {orders[bad[0]]} outside 0..{r - 1}")
        orders = orders.astype(np.intp)
        nodes = _clamp_points(nodes, a, b, "node")
        if not np.isfinite(betas).all():
            raise ValueError("weight contains non-finite entries")
        order = np.lexsort((orders, nodes))
        nodes, orders, betas = nodes[order], orders[order], betas[order]
        starts, merged = _coalesce(nodes, betas, a, b, breaks=np.diff(orders, prepend=-1) != 0)
        self.r = r
        self.m = m
        self.a = a
        self.b = b
        self.nodes = nodes[starts]
        self.orders = orders[starts]
        self.betas = merged
        for array in (self.nodes, self.orders, self.betas):
            array.flags.writeable = False
        self.phi = phi
        self._terms = None

    @property
    def rows(self) -> int:
        return self.r * self.m

    @property
    def terms(self) -> tuple:
        """The table's rows as ``BoundaryTerm`` records (read-only views)."""
        if self._terms is None:
            self._terms = tuple(map(BoundaryTerm, self.nodes.tolist(),
                                    self.orders.tolist(), self.betas))
        return self._terms


def GeneralBoundaryOperator(r: int, m: int, alphas, phi: MatrixMeasure) -> BoundaryOperator:
    """The Riesz form on phi's interval: ``alphas[l]`` (l = 0..r-2) weights
    y^(l)(a), as an order-l term at a, and ``phi`` is the rm x m matrix
    measure acting on y^(r-1).  For r = 1 ``alphas`` must be empty."""
    if r < 1 or m < 1:
        raise ValueError("need r >= 1 and m >= 1")
    rows = r * m
    mats = [np.asarray(al, dtype=complex) for al in alphas]
    if len(mats) != r - 1:
        raise ValueError(f"order-{r} operator needs {r - 1} alpha blocks")
    for l, al in enumerate(mats):
        if al.shape != (rows, m):
            raise ValueError(f"alpha_{l} must be shaped {(rows, m)}, got {al.shape}")
        if not np.all(np.isfinite(al)):
            raise ValueError(f"alpha_{l} contains non-finite entries")
    return BoundaryOperator._from_table(r, m, phi.a, phi.b, np.full(r - 1, phi.a),
                                        np.arange(r - 1), np.reshape(mats, (r - 1, rows, m)),
                                        phi)


def apply_operator(op, jet: SampledJet) -> np.ndarray:
    """Evaluate a boundary operator on a jet of order >= r - 1."""
    values = _stacked_jet(op, jet)
    return lift(op, jet.grid).apply_values(values)


def _stacked_jet(op, jet: SampledJet) -> np.ndarray:
    """The samples of col(y, ..., y^(r-1)) that ``op`` applies to, (n+1, rm):
    the jet table's channels 0 .. r-1 in C order."""
    if jet.m != op.m:
        raise ValueError(f"jet has {jet.m} components, operator expects {op.m}")
    if jet.r < op.r - 1:
        raise ValueError(f"operator needs jet order >= {op.r - 1}, got {jet.r}")
    return jet.table[:, :op.r].reshape(jet.grid.n + 1, op.r * op.m)


def multipointify(op: BoundaryOperator, k: int) -> BoundaryOperator:
    """Discretize a boundary operator into one without a measure, with parameter k.

    Every density in Phi is replaced by k midpoint atoms carrying the exact
    per-subinterval integrals; original atoms pass through.  The operator's
    point terms and those atoms then coalesce as one table.  An operator
    without Phi is its own discretization, once k is checked.
    """
    k = _check_k(k)
    if op.phi is None:
        return op
    return BoundaryOperator._from_table(op.r, op.m, op.a, op.b, *_point_terms(op, k))


def _point_terms(op: BoundaryOperator, k: int | None = None):
    """Every point evaluation of an operator as one table: nodes, orders, betas.

    The operator's table as held, then the atoms of Phi, when it has one, as
    order-(r-1) terms, of Phi's discretization on k subintervals when k is given.
    """
    table = (op.nodes, op.orders, op.betas)
    if op.phi is None:
        return table
    return tuple(map(np.concatenate, zip(table, op.phi._atom_terms(op.r - 1, k))))


def lift(op: BoundaryOperator, grid: Grid) -> LiftedOperator:
    """Compile a boundary operator to its weights on the grid.

    Derivative orders become block indices of the stacked vector, so the
    compiled functional applied to col(y, ..., y^(r-1)) equals B y.  No
    array of the grid's size times rm^2 is formed: point terms weigh the
    nodes they touch, and the densities of Phi, when it has one, one (n+1)
    vector per entry, in the columns of y^(r-1).
    """
    entries = () if op.phi is None else op.phi.entries
    return LiftedOperator(grid, *_point_terms(op), op.rows, entries, (op.r - 1) * op.m)


def norm_upper_bound(op: BoundaryOperator) -> float:
    """Upper bound for the operator norm of an operator without a measure:
    the sum of the matrix norms of its weights.  ``multipointify`` first."""
    if op.phi is not None:
        raise ValueError("norm_upper_bound needs an operator without a measure; "
                         "multipointify it first")
    return float(np.abs(op.betas).sum(axis=1).max(axis=1, initial=0.0).sum())


def norm_lower_bound(op, probes) -> float:
    """Certified lower bound for the operator norm from a family of probe jets.

    Returns max over probes of |B y| / |y|_(r-1).  The probe list must be
    non-empty and its jets must share one grid, on which the operator is
    lifted once.
    """
    probes = list(probes)
    if not probes:
        raise ValueError("need at least one probe jet")
    grid = probes[0].grid
    lifted = lift(op, grid)
    best = 0.0
    for i, jet in enumerate(probes):
        if jet.grid != grid:
            raise ValueError(f"probe {i} lies on another grid than probe 0")
        denom = norm_cl(jet, min(op.r - 1, jet.r))
        if denom == 0.0:
            continue
        best = max(best, vec_norm(lifted.apply_values(_stacked_jet(op, jet))) / denom)
    if best == 0.0:
        raise ValueError("all probes annihilated the operator; enlarge the family")
    return best


def _poly_jet(grid: Grid, m: int, r: int, component: int, coeffs) -> SampledJet:
    """Jet whose given component is the polynomial with the given coefficients."""
    table = np.zeros((grid.n + 1, r + 1, m), dtype=complex)
    c = np.asarray(coeffs, dtype=float)
    for l in range(r + 1):
        table[:, l, component] = _horner(c[None], grid.nodes)
        # The derivative, j c_j at degree j - 1, as ``polyder`` forms it.
        c = c[1:] * np.arange(1, c.size) if c.size > 1 else np.zeros(1)
    return SampledJet(grid, table)


def default_probe_jets(r: int, m: int, grid: Grid) -> list:
    """Fixed probe family: per component, constants, a sign-flipping linear
    ramp, a Chebyshev-like cubic, and monomials feeding each derivative
    channel."""
    a, b = grid.a, grid.b
    s = np.array([-(a + b) / (b - a), 2.0 / (b - a)])  # affine map onto [-1, 1]
    # Powers are repeated convolutions and 4 s^3 - 3 s a difference in
    # place, as numpy.polynomial forms them.
    cubic = 4.0 * np.convolve(np.convolve(s, s), s)
    cubic[:2] -= 3.0 * s
    shapes = [
        np.array([1.0]),
        -s,  # the ramp 1 - 2*(t-a)/(b-a)
        cubic,
    ]
    ramp = power = np.array([-a, 1.0])
    for l in range(1, r):
        power = ramp if l == 1 else np.convolve(power, ramp)
        shapes.append(power / factorial(l))
    jets = []
    for component in range(m):
        for c in shapes:
            jets.append(_poly_jet(grid, m, r, component, c))
    return jets
