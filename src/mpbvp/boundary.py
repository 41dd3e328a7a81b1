"""Boundary operators: measure representation, multipoint form, compilation.

A general operator sends an order-(r-1) jet y to

    B y = sum_{l=0}^{r-2} alpha_l y^(l)(a) + integral (dPhi) y^(r-1)

with alpha_l in C^{rm x m} and Phi an rm x m matrix measure; for r = 1 only
the integral term is present.  A multipoint operator is a finite sum
B y = sum_j beta_j y^(l_j)(t_j), held as one table of point terms.  An
atom of Phi with mass w at t is the point term (t, r-1, w in its entry), so
``_point_terms`` gives either kind's point evaluations as one such table.
``multipointify`` is the coalesced table of the operator with every density
discretized on k equal subintervals, which converges weak-* but never in
total variation; a multipoint operator is its own.  ``lift`` maps
either kind onto the one grid functional that ``stieltjes`` compiles and
applies, a ``LiftedOperator`` on the stacked jet: its point-term table,
and Phi's densities in the columns of y^(r-1).  ``boundary`` re-exports
that class.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .funcspace import (Grid, SampledJet, _check_k, _clamp_points, _coalesce, _horner,
                        norm_cl, vec_norm)
from .stieltjes import LiftedOperator, MatrixMeasure

__all__ = [
    "GeneralBoundaryOperator",
    "MultipointBoundaryOperator",
    "BoundaryTerm",
    "LiftedOperator",
    "apply_operator",
    "multipointify",
    "lift",
    "norm_lower_bound",
    "norm_upper_bound",
    "default_probe_jets",
]


class GeneralBoundaryOperator:
    """Riesz-form boundary operator with point weights at a and a matrix measure.

    ``alphas[l]`` (l = 0..r-2) weights y^(l)(a); ``phi`` is the rm x m matrix
    measure acting on y^(r-1).  For r = 1 ``alphas`` must be empty.
    """

    __slots__ = ("r", "m", "alphas", "phi")

    def __init__(self, r: int, m: int, alphas, phi: MatrixMeasure):
        if r < 1 or m < 1:
            raise ValueError("need r >= 1 and m >= 1")
        rows = r * m
        mats = [np.asarray(al, dtype=complex) for al in alphas]
        if len(mats) != max(r - 1, 0):
            raise ValueError(f"order-{r} operator needs {max(r - 1, 0)} alpha blocks")
        for l, al in enumerate(mats):
            if al.shape != (rows, m):
                raise ValueError(f"alpha_{l} must be shaped {(rows, m)}, got {al.shape}")
            if not np.all(np.isfinite(al)):
                raise ValueError(f"alpha_{l} contains non-finite entries")
        if phi.shape != (rows, m):
            raise ValueError(f"phi must be shaped {(rows, m)}, got {phi.shape}")
        self.r = r
        self.m = m
        self.alphas = mats
        self.phi = phi

    @property
    def a(self) -> float:
        return self.phi.a

    @property
    def b(self) -> float:
        return self.phi.b

    @property
    def rows(self) -> int:
        return self.r * self.m


@dataclass(frozen=True)
class BoundaryTerm:
    """One multipoint term: beta @ y^(order)(node), beta shaped (rm, m)."""

    node: float
    order: int
    beta: np.ndarray


class MultipointBoundaryOperator:
    """B y = sum_j beta_j y^(l_j)(t_j) as one read-only table: ``nodes`` (K,),
    ``orders`` (K,) and ``betas`` (K, rm, m), sorted by (node, order).

    Terms of one order within the merge tolerance of their cluster's first
    node are coalesced at construction, each sum started from that first
    term; ``terms`` lists the rows as ``BoundaryTerm`` records.
    """

    __slots__ = ("r", "m", "a", "b", "nodes", "orders", "betas", "_terms")

    def __init__(self, r: int, m: int, a: float, b: float, terms):
        if r < 1 or m < 1:
            raise ValueError("need r >= 1 and m >= 1")
        terms = list(terms)
        shape = (r * m, m)
        betas = [np.asarray(term.beta, dtype=complex) for term in terms]
        for beta in betas:
            if beta.shape != shape:
                raise ValueError(f"weight must be shaped {shape}, got {beta.shape}")
        self._set(r, m, a, b, [term.node for term in terms], [term.order for term in terms],
                  np.array(betas).reshape((len(terms),) + shape))

    @classmethod
    def _from_table(cls, r: int, m: int, a: float, b: float,
                    nodes, orders, betas) -> "MultipointBoundaryOperator":
        """Build from arrays shaped (K,), (K,), (K, rm, m); ``__init__``'s value checks run."""
        out = cls.__new__(cls)
        out._set(r, m, a, b, nodes, orders, betas)
        return out

    def _set(self, r, m, a, b, nodes, orders, betas):
        """Validate, clamp, sort and coalesce the term table in one pass."""
        a, b = float(a), float(b)
        if not a < b:
            raise ValueError("operator needs a < b")
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


def apply_operator(op, jet: SampledJet) -> np.ndarray:
    """Evaluate a boundary operator on a jet of order >= r - 1."""
    values = _stacked_jet(op, jet)
    return lift(op, jet.grid).apply_values(values)


def _stacked_jet(op, jet: SampledJet) -> np.ndarray:
    """The samples of col(y, ..., y^(r-1)) that ``op`` applies to, (n+1, rm)."""
    if jet.m != op.m:
        raise ValueError(f"jet has {jet.m} components, operator expects {op.m}")
    if jet.r < op.r - 1:
        raise ValueError(f"operator needs jet order >= {op.r - 1}, got {jet.r}")
    return np.hstack(jet.samples[:op.r])


def multipointify(op, k: int) -> MultipointBoundaryOperator:
    """Discretize a boundary operator into a multipoint one with parameter k.

    Every density in Phi is replaced by k midpoint atoms carrying the exact
    per-subinterval integrals; original atoms pass through.  The point-term
    table of that operator then coalesces as any multipoint table does.  A
    multipoint operator is its own discretization, once k is checked.
    """
    k = _check_k(k)
    if isinstance(op, MultipointBoundaryOperator):
        return op
    return MultipointBoundaryOperator._from_table(op.r, op.m, op.a, op.b, *_point_terms(op, k))


def _point_terms(op, k: int | None = None):
    """Every point evaluation of an operator as one table: nodes, orders, betas.

    A multipoint operator gives its table as held; a general one its alphas
    as order-l terms at a, then the atoms of Phi as order-(r-1) terms, of
    Phi's discretization on k subintervals when k is given.
    """
    if isinstance(op, MultipointBoundaryOperator):
        return op.nodes, op.orders, op.betas
    if not isinstance(op, GeneralBoundaryOperator):
        raise TypeError(f"not a boundary operator: {type(op).__name__}")
    count = op.r - 1
    nodes, orders, betas = op.phi._atom_terms(count, k)
    return (np.concatenate([np.full(count, op.a), nodes]),
            np.concatenate([np.arange(count), orders]),
            np.concatenate([np.reshape(op.alphas, (count, op.rows, op.m)), betas]))


def lift(op, grid: Grid) -> LiftedOperator:
    """Compile a boundary operator to its weights on the grid.

    Derivative orders become block indices of the stacked vector, so the
    compiled functional applied to col(y, ..., y^(r-1)) equals B y.  No
    array of the grid's size times rm^2 is formed: point terms weigh the
    nodes they touch, and the densities of Phi one (n+1) vector per entry,
    in the columns of y^(r-1).
    """
    phi = op.phi.entries if isinstance(op, GeneralBoundaryOperator) else ()
    return LiftedOperator(grid, *_point_terms(op), op.rows, phi, (op.r - 1) * op.m)


def norm_upper_bound(op: MultipointBoundaryOperator) -> float:
    """Upper bound for the operator norm: sum of matrix norms of the weights."""
    return float(np.abs(op.betas).sum(axis=1).max(axis=1, initial=0.0).sum())


def norm_lower_bound(op, probes) -> float:
    """Certified lower bound for the operator norm from a family of probe jets.

    Returns max over probes of |B y| / |y|_(r-1); the probe list must be
    non-empty.  The operator is lifted once per grid the probes live on.
    """
    probes = list(probes)
    if not probes:
        raise ValueError("need at least one probe jet")
    r = op.r
    best = 0.0
    lifted = {}
    for jet in probes:
        denom = norm_cl(jet, min(r - 1, jet.r))
        if denom == 0.0:
            continue
        values = _stacked_jet(op, jet)
        if jet.grid not in lifted:
            lifted[jet.grid] = lift(op, jet.grid)
        best = max(best, vec_norm(lifted[jet.grid].apply_values(values)) / denom)
    if best == 0.0:
        raise ValueError("all probes annihilated the operator; enlarge the family")
    return best


def _poly_jet(grid: Grid, m: int, r: int, component: int, coeffs) -> SampledJet:
    """Jet whose given component is the polynomial with the given coefficients."""
    chans = []
    c = np.asarray(coeffs, dtype=float)
    for _ in range(r + 1):
        vals = np.zeros((grid.n + 1, m), dtype=complex)
        vals[:, component] = _horner(c[None], grid.nodes) if c.size else 0.0
        chans.append(vals)
        # The derivative, j c_j at degree j - 1, as ``polyder`` forms it.
        c = c[1:] * np.arange(1, c.size) if c.size > 1 else np.zeros(1)
    return SampledJet(grid, m, r, chans)


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
