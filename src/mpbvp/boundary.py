"""Boundary operators: measure representation, multipoint form, compilation.

A general operator sends an order-(r-1) jet y to

    B y = sum_{l=0}^{r-2} alpha_l y^(l)(a) + integral (dPhi) y^(r-1)

with alpha_l in C^{rm x m} and Phi an rm x m matrix measure; for r = 1 only
the integral term is present.  A multipoint operator is a finite sum of
matrix weights against jet values at nodes.  ``multipointify`` turns the
former into the latter by discretizing every density of Phi on k equal
subintervals, which converges weak-* but never in total variation.
``lift`` compiles either kind once per grid to one weight array on the
stacked jet; every application of an operator is a contraction with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .funcspace import Grid, SampledJet, _cubic_stencil, mat_norm, norm_cl, vec_norm
from .stieltjes import MatrixMeasure

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
    """Finite sum of matrix weights against jet values at interior/endpoint nodes.

    Terms sharing a node (within the merge tolerance) and a derivative order
    are coalesced at construction and kept sorted by (node, order).
    """

    __slots__ = ("r", "m", "a", "b", "terms")

    def __init__(self, r: int, m: int, a: float, b: float, terms):
        if r < 1 or m < 1:
            raise ValueError("need r >= 1 and m >= 1")
        a, b = float(a), float(b)
        if not a < b:
            raise ValueError("operator needs a < b")
        rows = r * m
        tol = (b - a) * 1e-12
        cleaned = []
        for term in terms:
            node, order, beta = term.node, term.order, np.asarray(term.beta, dtype=complex)
            if not 0 <= order <= r - 1:
                raise ValueError(f"derivative order {order} outside 0..{r - 1}")
            if node < a - tol or node > b + tol:
                raise ValueError(f"node {node} outside [{a}, {b}]")
            if beta.shape != (rows, m):
                raise ValueError(f"weight must be shaped {(rows, m)}, got {beta.shape}")
            if not np.all(np.isfinite(beta)):
                raise ValueError("weight contains non-finite entries")
            cleaned.append((min(max(node, a), b), order, beta))
        cleaned.sort(key=lambda t: (t[0], t[1]))
        merged: list[tuple[float, int, np.ndarray]] = []
        for node, order, beta in cleaned:
            if merged and order == merged[-1][1] and node - merged[-1][0] <= tol:
                merged[-1] = (merged[-1][0], order, merged[-1][2] + beta)
            else:
                merged.append((node, order, beta.copy()))
        self.r = r
        self.m = m
        self.a = a
        self.b = b
        self.terms = tuple(BoundaryTerm(n, o, be) for n, o, be in merged)

    @property
    def rows(self) -> int:
        return self.r * self.m


def apply_operator(op, jet: SampledJet) -> np.ndarray:
    """Evaluate a boundary operator on a jet of order >= r - 1."""
    if jet.m != op.m:
        raise ValueError(f"jet has {jet.m} components, operator expects {op.m}")
    if jet.r < op.r - 1:
        raise ValueError(f"operator needs jet order >= {op.r - 1}, got {jet.r}")
    return lift(op, jet.grid).apply_values(np.hstack(jet.samples[:op.r]))


def multipointify(op: GeneralBoundaryOperator, k: int) -> MultipointBoundaryOperator:
    """Discretize a general operator into a multipoint one with parameter k.

    The alpha blocks become order-l terms at a (independent of k).  Every
    density in Phi is replaced by k midpoint atoms carrying the exact
    per-subinterval integrals; original atoms pass through.  Atoms are then
    grouped by location into order-(r-1) terms.
    """
    if int(k) != k or k < 1:
        raise ValueError(f"need an integer k >= 1, got {k}")
    rows, m = op.rows, op.m
    terms = [BoundaryTerm(op.a, l, alpha) for l, alpha in enumerate(op.alphas)]
    disc = op.phi.discretize(k)
    tol = (op.b - op.a) * 1e-12
    located = [(t, i, j, w) for i, row in enumerate(disc.entries)
               for j, entry in enumerate(row) for t, w in entry.atoms]
    if located:
        t, i, j, w = (np.array(column) for column in zip(*located))
        order = np.argsort(t, kind="stable")
        t, i, j, w = t[order], i[order], j[order], w[order]
        # A cluster starts where the gap to the previous atom exceeds tol.
        starts = np.concatenate([[True], np.diff(t) > tol])
        cluster = np.cumsum(starts) - 1
        weights = np.zeros((int(cluster[-1]) + 1, rows, m), dtype=complex)
        np.add.at(weights, (cluster, i, j), w)
        terms += [BoundaryTerm(float(node), op.r - 1, weight)
                  for node, weight in zip(t[starts], weights)]
    return MultipointBoundaryOperator(op.r, op.m, op.a, op.b, terms)


class LiftedOperator:
    """A boundary operator compiled to one linear functional on a grid.

    ``weights[i, s, c]`` weighs entry c of the stacked rm-vector
    col(y, y', ..., y^(r-1)) at node s in row i.  Point terms carry the
    4-point cubic stencil of their node, measure atoms the linear stencil
    of their location, and densities trapezoid weights with the
    Euler-Maclaurin end correction.  ``point_terms`` lists the
    (node, block, beta) terms compiled in.
    """

    __slots__ = ("point_terms", "weights")

    def __init__(self, point_terms, weights: np.ndarray):
        self.point_terms = tuple(point_terms)
        self.weights = weights

    def apply_values(self, values) -> np.ndarray:
        """Apply to node samples of an rm-vector function, shaped (n+1, rm)."""
        v = np.asarray(values, dtype=complex)
        if v.shape != self.weights.shape[1:]:
            raise ValueError(f"expected samples shaped {self.weights.shape[1:]}")
        return np.einsum("isc,sc->i", self.weights, v)

    def apply_trajectory(self, values) -> np.ndarray:
        """Apply columnwise to a matrix trajectory shaped (n+1, rm, rm)."""
        v = np.asarray(values, dtype=complex)
        shape = self.weights.shape[1:] + self.weights.shape[:1]
        if v.shape != shape:
            raise ValueError(f"expected a trajectory shaped {shape}")
        return np.einsum("isc,scj->ij", self.weights, v)


def lift(op, grid: Grid) -> LiftedOperator:
    """Compile a boundary operator to its weight array on the grid.

    Derivative orders become block indices of the stacked vector, so the
    compiled functional applied to col(y, ..., y^(r-1)) equals B y.
    """
    if isinstance(op, GeneralBoundaryOperator):
        point_terms = [(op.a, l, alpha) for l, alpha in enumerate(op.alphas)]
    elif isinstance(op, MultipointBoundaryOperator):
        point_terms = [(t.node, t.order, t.beta) for t in op.terms]
    else:
        raise TypeError(f"not a boundary operator: {type(op).__name__}")
    m, d = op.m, op.rows
    weights = np.zeros((d, grid.n + 1, d), dtype=complex)
    for node, block, beta in point_terms:
        base, w = _cubic_stencil(grid, node)
        weights[:, base:base + w.size, block * m:(block + 1) * m] += (
            w[None, :, None] * beta[:, None, :])
    if isinstance(op, GeneralBoundaryOperator):
        weights[:, :, (op.r - 1) * m:] += op.phi.weights(grid)
    return LiftedOperator(point_terms, weights)


def norm_upper_bound(op: MultipointBoundaryOperator) -> float:
    """Upper bound for the operator norm: sum of matrix norms of the weights."""
    return float(sum(mat_norm(term.beta) for term in op.terms))


def norm_lower_bound(op, probes) -> float:
    """Certified lower bound for the operator norm from a family of probe jets.

    Returns max over probes of |B y| / |y|_(r-1); the probe list must be
    non-empty.
    """
    probes = list(probes)
    if not probes:
        raise ValueError("need at least one probe jet")
    r = op.r
    best = 0.0
    for jet in probes:
        denom = norm_cl(jet, min(r - 1, jet.r))
        if denom == 0.0:
            continue
        best = max(best, vec_norm(apply_operator(op, jet)) / denom)
    if best == 0.0:
        raise ValueError("all probes annihilated the operator; enlarge the family")
    return best


def _poly_jet(grid: Grid, m: int, r: int, component: int, coeffs) -> SampledJet:
    """Jet whose given component is the polynomial with the given coefficients."""
    poly = np.polynomial.polynomial
    chans = []
    c = np.asarray(coeffs, dtype=float)
    for _ in range(r + 1):
        vals = np.zeros((grid.n + 1, m), dtype=complex)
        vals[:, component] = poly.polyval(grid.nodes, c) if c.size else 0.0
        chans.append(vals)
        c = poly.polyder(c) if c.size > 1 else np.zeros(1)
    return SampledJet(grid, m, r, chans)


def default_probe_jets(r: int, m: int, grid: Grid) -> list:
    """Fixed probe family: per component, constants, a sign-flipping linear
    ramp, a Chebyshev-like cubic, and monomials feeding each derivative
    channel."""
    a, b = grid.a, grid.b
    poly = np.polynomial.polynomial
    s = np.array([-(a + b) / (b - a), 2.0 / (b - a)])  # affine map onto [-1, 1]
    shapes = [
        np.array([1.0]),
        -s,  # the ramp 1 - 2*(t-a)/(b-a)
        poly.polysub(4.0 * poly.polypow(s, 3), 3.0 * s),
    ]
    for l in range(1, r):
        shapes.append(poly.polypow(np.array([-a, 1.0]), l) / math.factorial(l))
    jets = []
    for component in range(m):
        for c in shapes:
            jets.append(_poly_jet(grid, m, r, component, c))
    return jets
