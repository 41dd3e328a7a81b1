"""Uniform grids, piecewise-polynomial data, sampled jets, and norms.

Conventions used across the package: the norm of a vector function is the
sum of its component norms, the norm of a matrix function is the maximum of
its column norms, and numeric vectors/matrices use the matching discrete
norms (entrywise sum, maximum column sum).  Sampled norms use the
trapezoid rule, densities ``stieltjes._density_weights``.  Three rules
place all data: by the interval rule, ``_spans``, intervals are the same
when their ends agree to 1e-9 (b - a), and ``_pinned`` moves a sum's second
operand's ends onto the first's; by the point rule, ``_clamp_points``, a
point of [a, b] lies within ``_merge_tol(a, b)`` of it and is clamped into
it; by the node rule, ``_located``, a breakpoint or point term within
``_merge_tol(a, b)`` of a grid node lies on it.  Data keep their breakpoints:
``_located_breakpoints`` locates them for grid samples, the top jet channel
and density quadrature, and ``_place_points`` locates point terms.

A piecewise polynomial is held as one zero-padded coefficient table with a
row per piece.  Every operation works on the whole table: evaluation is one
Horner pass, ``integrals`` adds up ``_parts``, whose means read each piece
about the part's own midpoint, sums gather both operands' rows at the
merged pieces, and |.| integrals of constant pieces are one dot product.
Evaluation takes the right-hand piece at an interior breakpoint; the
left-hand limits that RK4 step ends need come from ``grid_samples``.
Vectors and matrices of them, and matrices of measures, are rows of
entries on one interval, by one contract, ``_Entries``.

A sampled jet is one (n+1, r+1, m) table of node samples, channel j
holding y^(j), which its one constructor, ``SampledJet(grid, table)``,
wraps without a copy; its norms ``norm_cl`` and ``norm_w1r`` reduce its
channels one at a time and sum them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

__all__ = [
    "Grid",
    "PiecewisePoly",
    "PolyVector",
    "PolyMatrix",
    "SampledJet",
    "norm_cl",
    "norm_w1r",
    "vec_norm",
    "mat_norm",
    "traj_norm_c",
]

#: Highest polynomial degree a single piece may carry.
MAX_PIECE_DEGREE = 8

#: Largest grid size n; bounds every (n+1)-sized array a solve allocates.
MAX_GRID_N = 2**20

#: Steps, or nodes, that one block of grid work forms together: the RK4
#: pass's increments and table rows, and a density's quadrature weights.
#: Bounds the temporaries of each.
BLOCK_STEPS = 512

@dataclass(frozen=True)
class Grid:
    """Uniform grid t_i = a + i*(b - a)/n for i = 0..n."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("grid endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"grid needs a < b, got [{self.a}, {self.b}]")
        try:
            n = operator.index(self.n)
        except TypeError:
            n = None
        if n is None or not 2 <= n <= MAX_GRID_N:
            raise ValueError(f"grid needs an integer n in [2, {MAX_GRID_N}], got {self.n!r}")
        # An integer type such as np.int64 is stored as a Python int.
        object.__setattr__(self, "n", n)

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        return _equal_partition(self.a, self.b, self.n)

    @cached_property
    def half_nodes(self) -> np.ndarray:
        """Midpoints of the n grid cells."""
        return self.a + (self.b - self.a) * (2.0 * np.arange(self.n) + 1.0) / (2.0 * self.n)


def _equal_partition(a: float, b: float, k: int) -> np.ndarray:
    """The edges a + (b - a) j / k, j = 0..k, of k equal parts of [a, b]: the
    grid's nodes, the interval means' parts and a discretized density's."""
    return a + (b - a) * np.arange(k + 1) / k


def _spans(interval, items) -> bool:
    """Whether every item's [a, b] is ``interval``'s to 1e-9 (b - a): the
    interval rule.  ``interval`` is an (a, b) pair or has ``.a`` and ``.b``."""
    a, b = interval if isinstance(interval, tuple) else (interval.a, interval.b)
    return all(max(abs(item.a - a), abs(item.b - b)) <= 1e-9 * (b - a) for item in items)


def _fractional_index(grid: Grid, t) -> np.ndarray:
    """t in steps from a, clamped into [0, n]; by the node rule, a t on a
    node reads as that node's index."""
    t = np.asarray(t, dtype=float)
    i, on = _located(grid, t)
    return np.where(on, i, np.clip((t - grid.a) / grid.h, 0.0, float(grid.n)))


def _linear_stencil(grid: Grid, t):
    """First node indices and weights (K, 2) of linear interpolation at t (clamped)."""
    s = _fractional_index(grid, t)
    i = np.minimum(s.astype(np.intp), grid.n - 1)
    w = s - i
    return i, np.stack([1.0 - w, w], axis=-1)


#: Each k's three Lagrange weights j != k and their factors' denominators j - k.
_LAGRANGE_FACTORS = [(np.delete(range(4), k), np.delete(np.arange(4.0) - k, k)) for k in range(4)]


def _cubic_stencil(grid: Grid, t):
    """First node indices and weights (K, 4) of 4-point Lagrange interpolation at t.

    Falls back to the linear stencil on grids with fewer than 4 cells.
    """
    n, t = grid.n, np.asarray(t, dtype=float)
    if n < 4:
        return _linear_stencil(grid, t)
    if not t.size:
        return np.zeros(t.shape, dtype=np.intp), np.ones(t.shape + (4,))
    s = _fractional_index(grid, t)
    base = np.clip(np.minimum(s.astype(np.intp), n - 1) - 1, 0, n - 3)
    x = s - base
    w = np.ones(x.shape + (4,))
    # Weight j takes its factors (x - k) / (j - k) in the order k = 0 .. 3.
    for k, (j, denominators) in enumerate(_LAGRANGE_FACTORS):
        w[..., j] *= (x[..., None] - k) / denominators
    return base, w


def _place_points(grid: Grid, nodes, orders, betas, width: int) -> tuple:
    """Point terms on the K nodes that a non-zero weight of theirs reaches:
    those nodes (K,), ascending, and their weights (rows, K, width).  Term t
    adds w[t, s] * betas[t, i, c] at (i, base[t] + s, orders[t] m + c),
    where (base, w) is its node's cubic stencil and m = betas.shape[2],
    summing in term order, so each weight has the bits it has in a
    (rows, n+1, width) array.  A 0 adds nothing to a weight's bits, so the
    stencil zeros and terms of weight 0 are left out.  A term that the node
    rule puts on a node weighs that node by exactly 1, with no stencil: it
    is the stencil's own result at an integral x, whose other weights are 0."""
    m, nodes = betas.shape[2], np.asarray(nodes, dtype=float)
    index, on = _located(grid, nodes)
    base, w = index[:, None], np.ones((index.size, 1))
    if not on.all():
        off_base, off_w = _cubic_stencil(grid, nodes[~on])
        base = np.zeros((index.size, off_w.shape[1]), dtype=np.intp)
        w = np.zeros(base.shape)
        base[on, 0], w[on, 0] = index[on], 1.0
        base[~on], w[~on] = off_base[:, None] + np.arange(off_w.shape[1]), off_w
    t, s = np.nonzero((w != 0) & betas.any(axis=(1, 2))[:, None])
    at = base[t, s]
    hit = np.bincount(at, minlength=grid.n + 1) > 0
    out = np.zeros((betas.shape[1], np.count_nonzero(hit), width), dtype=complex)
    np.add.at(out, (np.arange(out.shape[0])[None, :, None],
                    (np.cumsum(hit) - 1)[at][:, None, None],
                    (orders[t, None] * m + np.arange(m))[:, None, :]),
              w[t, s, None, None] * betas[t])
    return np.flatnonzero(hit), out


def _cluster_starts(x: np.ndarray, tol: float, breaks=None) -> np.ndarray:
    """Mask of the sorted points x that start a cluster: those more than tol
    beyond the first point of the cluster before them, and those where
    ``breaks`` is set.  Only points within tol of their predecessor need
    the sequential pass."""
    starts = np.ones(x.size, dtype=bool)
    close = x[1:] - x[:-1] <= tol
    if breaks is not None:
        close &= ~breaks[1:]
    first = None
    for i in np.flatnonzero(close) + 1:
        if starts[i - 1]:
            first = x[i - 1]
        starts[i] = x[i] - first > tol
    return starts


def _merge_tol(a: float, b: float) -> float:
    """The distance within which points of [a, b] are one cluster."""
    return (b - a) * 1e-12


def _located(grid: Grid, t) -> tuple:
    """The node rule: each t's nearest node index, and whether t is within
    ``_merge_tol(a, b)`` of it."""
    i = np.clip(np.rint((t - grid.a) / grid.h), 0, grid.n).astype(np.intp)
    return i, np.abs(t - grid.nodes[i]) <= _merge_tol(grid.a, grid.b)


def _located_breakpoints(grid: Grid, p) -> tuple:
    """The node rule on p's interior breakpoints t, clipped into [a, b]: t, whether
    each lies on a node, and its node or else the cell it cuts, which a t of [a, b]
    off every node lies inside.  Every reader of data breakpoints on a grid calls it."""
    t = np.clip(p.breakpoints[1:-1], grid.a, grid.b)
    i, on = _located(grid, t)
    return t, on, i - (~on & (t < grid.nodes[i]))


def _clamp_points(t, a: float, b: float, what: str) -> np.ndarray:
    """t clamped into [a, b], the point rule: a point of [a, b] lies within
    ``_merge_tol(a, b)`` of it, and the first that does not is refused as ``what``."""
    t = np.asarray(t, dtype=float)
    tol = _merge_tol(a, b)
    for i in np.flatnonzero(~((t >= a - tol) & (t <= b + tol)))[:1]:
        raise ValueError(f"{what} {t[i]} outside [{a}, {b}]")
    # min(max(t, a), b), which keeps a -0.0 point at a = 0.0
    return np.where(t > b, b, np.where(t < a, a, t))


def _coalesce(x: np.ndarray, values: np.ndarray, a: float, b: float, breaks=None):
    """The cluster starts of the sorted points x of [a, b], within
    ``_merge_tol(a, b)``, and each cluster's values summed in order from its
    first point's: the coalescing of measure atoms and of multipoint terms."""
    starts = _cluster_starts(x, _merge_tol(a, b), breaks)
    sums = values[starts]
    np.add.at(sums, np.cumsum(starts)[~starts] - 1, values[~starts])
    return starts, sums


def _bits(entries) -> tuple:
    """The bytes of each entry's breakpoints and table: equal bits sample alike."""
    return tuple(b for e in entries for b in (e.breakpoints.tobytes(), e.table.tobytes()))


def _check_k(k) -> int:
    """k as an int: a number of subintervals, a whole number in [1, MAX_GRID_N].
    A bool is not one; NaN and inf fail the range test before int() sees them."""
    if isinstance(k, (bool, np.bool_)) or not 1 <= k <= MAX_GRID_N or int(k) != k:
        raise ValueError(f"need an integer k in [1, {MAX_GRID_N}], got {k}")
    return int(k)


def _horner(table: np.ndarray, t: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Row rows[i] of a coefficient table (lowest degree first) evaluated at
    t[i], by default row i.  The rows are read a column at a time and the
    sums formed in place, so no gathered copy of the table is formed.

    The same operations as ``polyval`` per row, so zero padding above a
    row's degree leaves every sum bit for bit unchanged.
    """
    out = table[rows, -1] + t * 0
    for k in range(table.shape[1] - 2, -1, -1):
        out *= t
        out += table[rows, k]
    return out


class PiecewisePoly:
    """Complex piecewise polynomial on [a, b] in the global variable t.

    The working representation is one zero-padded coefficient table:
    ``table[j, :widths[j]]`` holds the coefficients of piece j, lowest
    degree first, and the rest of row j is zero.  Evaluation, sums,
    interval integrals and means (``integrals``, ``_parts``) and |.|
    integrals each run on the whole table at once.  ``coeffs`` lists the
    pieces at their own widths, which is what problem files store.
    Evaluation at an interior breakpoint takes the right-hand piece; the
    point b always belongs to the last piece.
    """

    __slots__ = ("breakpoints", "table", "widths", "_coeffs", "_keys")

    def __init__(self, breakpoints, coeffs):
        pieces = [np.atleast_1d(np.asarray(c, dtype=complex)) for c in coeffs]
        widths = np.array([c.size if c.ndim == 1 else 0 for c in pieces], dtype=np.intp)
        table = np.zeros((len(pieces), self._table_width(widths)), dtype=complex)
        if pieces:
            table[np.arange(table.shape[1]) < widths[:, None]] = np.concatenate(pieces)
        self._set(breakpoints, table, widths)

    @classmethod
    def _from_table(cls, breakpoints, table, widths) -> "PiecewisePoly":
        """Wrap a zero-padded table whose row j starts with piece j's ``widths[j]``
        coefficients.  ``__init__``'s checks run: a sum can overflow, and a
        problem file's table is outside input."""
        out = cls.__new__(cls)
        out._set(breakpoints, table, widths)
        return out

    @staticmethod
    def _table_width(widths) -> int:
        """Table width for these piece widths; rejects empty and over-degree pieces."""
        if widths.min(initial=1) < 1:
            raise ValueError("each piece needs a non-empty 1-d coefficient array")
        width = int(widths.max(initial=1))
        if width - 1 > MAX_PIECE_DEGREE:
            raise ValueError(f"piece degree {width - 1} exceeds the cap {MAX_PIECE_DEGREE}")
        return width

    def _set(self, breakpoints, table, widths):
        table = table[:, :self._table_width(widths)]
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if not np.isfinite(bp).all():
            raise ValueError("breakpoints must be finite")
        if not (bp[1:] - bp[:-1] > 0).all():
            raise ValueError("breakpoints must be strictly increasing")
        if table.shape[0] != bp.size - 1:
            raise ValueError(
                f"{bp.size - 1} pieces require {bp.size - 1} coefficient arrays, "
                f"got {table.shape[0]}"
            )
        if not np.isfinite(table).all():
            raise ValueError("polynomial coefficients must be finite")
        self.breakpoints = bp
        self.table = table
        self.widths = widths
        self._coeffs = self._keys = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, a: float, b: float) -> "PiecewisePoly":
        return cls([a, b], [[value]])

    @classmethod
    def zero(cls, a: float, b: float) -> "PiecewisePoly":
        return cls([a, b], [[0.0]])

    @classmethod
    def single(cls, coeffs, a: float, b: float) -> "PiecewisePoly":
        """One piece spanning [a, b] with the given coefficients."""
        return cls([a, b], [coeffs])

    @classmethod
    def step(cls, breakpoints, values) -> "PiecewisePoly":
        """Piecewise-constant function taking values[j] on piece j."""
        column = np.asarray(values, dtype=complex)
        if column.ndim != 1:
            raise ValueError("step values must be a 1-d sequence of scalars")
        return cls._from_table(breakpoints, column[:, None], np.ones(column.size, dtype=np.intp))

    # -- basic queries -----------------------------------------------------

    @property
    def a(self) -> float:
        return float(self.breakpoints[0])

    @property
    def b(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def npieces(self) -> int:
        return self.table.shape[0]

    @property
    def coeffs(self) -> list:
        """Coefficient arrays of the pieces, each at its own width."""
        if self._coeffs is None:
            mask = np.arange(self.table.shape[1]) < self.widths[:, None]
            self._coeffs = np.split(self.table[mask], np.cumsum(self.widths)[:-1])
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self.table.any()

    def _piece_index(self, t) -> np.ndarray:
        """Index of the piece each t falls in, found among the interior
        breakpoints, the right-hand one at a breakpoint: below a it is the
        first piece, above b the last."""
        return np.searchsorted(self.breakpoints[1:-1], t, side="right")

    def __call__(self, t):
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        # A single piece is evaluated, broadcast, with no piece search.
        out = _horner(self.table, tt, slice(None) if self.npieces == 1 else self._piece_index(tt))
        return out[0] if np.ndim(t) == 0 else out

    def grid_samples(self, grid: Grid, lo: int = 0, hi: int | None = None):
        """Values on ``grid`` as RK4 steps lo .. hi - 1 read them: (node
        values (hi-lo+1,), step-end left limits (hi-lo,), midpoint values
        (hi-lo,)), by default over all n steps.  Nodes read the pieces by
        the node rule (``_node_values``), midpoints as ``__call__`` does,
        and a step end is its node's value but where breakpoints lie on
        that node: it reads the piece before the first of them.  Each value
        depends only on its point and the piece it is read on, so a range's
        samples are those slices of the whole grid's."""
        hi = grid.n if hi is None else hi
        at_nodes, at_mids = self._node_values(grid, lo, hi), self(grid.half_nodes[lo:hi])
        if self.npieces == 1:
            return at_nodes, at_nodes[1:], at_mids
        ends = at_nodes[1:].copy()
        _, at, on = self._keys
        on = on[(on > lo) & (on <= hi)]
        ends[on - lo - 1] = _horner(self.table, grid.nodes[on], np.searchsorted(at, on))
        return at_nodes, ends, at_mids

    def _node_values(self, grid: Grid, lo: int, hi: int) -> np.ndarray:
        """Values (hi-lo+1,) at nodes lo .. hi: node k reads the piece after each
        breakpoint that ``_located_breakpoints`` puts on or before it, except
        on b.  The breakpoints are located once per grid, for every range and reader."""
        nodes = grid.nodes[lo:hi + 1]
        if self.npieces == 1:
            return self(nodes)
        if self._keys is None or self._keys[0] != grid:
            _, on, i = _located_breakpoints(grid, self)
            # Each breakpoint in steps from a: on its node (past n on b), or half into its cell.
            self._keys = grid, i + np.where(on, i == grid.n, 0.5), i[on]
        return _horner(self.table, nodes,
                       np.searchsorted(self._keys[1], np.arange(lo, hi + 1), side="right"))

    # -- calculus ----------------------------------------------------------

    def integrals(self, edges) -> np.ndarray:
        """Exact integrals over [edges[i], edges[i+1]] for every i, each the sum
        of its ``_parts``' widths times means.  Parts outside [a, b] add nothing."""
        widths, means, first = self._parts(edges)
        return np.add.reduceat(widths * means, first[:-1])

    def _parts(self, edges) -> tuple:
        """The part rule: the parts' widths and means, and each interval's first
        part, of the edges clipped into [a, b] and split at the interior
        breakpoints strictly inside them.  A part's mean is the sum over even j
        of d_j h^j / (j + 1), d_j = p^(j)(mid) / j! of its piece at its midpoint
        and h its half-width, so a constant piece's mean is its own value, with
        its bits but for a -0.0 real or imaginary part, which reads +0.0."""
        e = np.asarray(edges, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise ValueError("need at least two edges")
        if not (e[1:] - e[:-1] >= 0).all():
            raise ValueError("integration needs nondecreasing edges (c <= d)")
        e = e.clip(self.breakpoints[0], self.breakpoints[-1])
        inner = self.breakpoints[1:-1]
        inner = inner[(inner > e[0]) & (e[np.searchsorted(e[:-1], inner)] > inner)]
        points = np.sort(np.concatenate([e, inner]))
        lo, hi = points[:-1], points[1:]
        w, index, mid = self.table.shape[1], self._piece_index(lo), 0.5 * (lo + hi)
        h2, means = 0.25 * (hi - lo) ** 2, 0.0
        for j in reversed(range(0, w, 2)):  # Horner in h^2 of p^(j)(mid) / j! / (j + 1)
            taylor = self.table[:, j:] * [comb(i, j) / (j + 1) for i in range(j, w)]
            means = _horner(np.take(taylor, index, axis=0), mid) + means * h2
        return hi - lo, means, np.arange(e.size) + np.searchsorted(inner, e)

    def abs_integral(self) -> float:
        """Integral of |p(t)| over [a, b], exact up to quadrature on smooth arcs.

        Constant pieces (all coefficients above degree 0 exactly zero)
        contribute |c_j| times their width, summed in one dot product.  Every
        other piece is split at the real zeros of |p|^2 so that |p| is
        analytic on every sub-arc, then integrated by fixed Gauss-Legendre
        quadrature.
        """
        lo, hi = self.breakpoints[:-1], self.breakpoints[1:]
        flat = ~self.table[:, 1:].any(axis=1)
        total = float(np.dot(np.abs(self.table[flat, 0]), (hi - lo)[flat]))
        for j in np.flatnonzero(~flat):
            total += _piece_abs_integral(self.table[j, :self.widths[j]], lo[j], hi[j])
        return total

    # -- algebra -----------------------------------------------------------

    def _binary(self, other: "PiecewisePoly", sign: float) -> "PiecewisePoly":
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        if not _spans(self, [other]):
            raise ValueError("operands must share the same interval")
        other = _pinned(other, self.a, self.b)
        # A breakpoint within the merge tolerance of the last kept one, or
        # equal to it, is dropped (np.unique would import numpy.ma).
        merged = np.sort(np.concatenate([self.breakpoints, other.breakpoints]))
        bp = merged[_cluster_starts(merged, _merge_tol(self.a, self.b))]
        bp[-1] = self.b
        mid = 0.5 * (bp[:-1] + bp[1:])
        ia, ib = self._piece_index(mid), other._piece_index(mid)
        ta, tb = self.table[ia], other.table[ib]
        table = np.zeros((mid.size, max(ta.shape[1], tb.shape[1])), dtype=complex)
        table[:, :ta.shape[1]] += ta
        table[:, :tb.shape[1]] += sign * tb
        return PiecewisePoly._from_table(bp, table,
                                         np.maximum(self.widths[ia], other.widths[ib]))

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __neg__(self):
        return PiecewisePoly._from_table(self.breakpoints, -self.table, self.widths)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex)):
            return PiecewisePoly._from_table(self.breakpoints, self.table * scalar, self.widths)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return f"PiecewisePoly({self.npieces} pieces on [{self.a}, {self.b}])"


def _pinned(p: PiecewisePoly, a: float, b: float) -> PiecewisePoly:
    """p with its ends on [a, b], which ``_spans`` has checked, by the
    interval rule; p itself when nothing moves.  A piece left empty is dropped."""
    bp = np.clip(p.breakpoints, a, b)
    bp[0], bp[-1] = a, b
    if np.array_equal(bp, p.breakpoints):
        return p
    keep = bp[1:] - bp[:-1] > 0
    return PiecewisePoly._from_table(np.concatenate([[a], bp[1:][keep]]),
                                     p.table[keep], p.widths[keep])


#: numpy's ``leggauss(24)``, the 24-point Gauss-Legendre rule on [-1, 1], to
#: the bit; it is symmetric to the bit, so nodes and weights from the middle out.
_GAUSS_HALF = np.array([
    (0.06405689286260563, 0.12793819534675202), (0.1911188674736163, 0.12583745634682825),
    (0.3150426796961634, 0.1216704729278033), (0.4337935076260451, 0.11550566805372552),
    (0.5454214713888396, 0.10744427011596556), (0.6480936519369755, 0.09761865210411393),
    (0.7401241915785544, 0.0861901615319532), (0.820001985973903, 0.07334648141108016),
    (0.8864155270044011, 0.05929858491543636), (0.9382745520027328, 0.04427743881741941),
    (0.9747285559713095, 0.02853138862893356), (0.9951872199970213, 0.01234122979998869)])
_GAUSS_X = np.concatenate([-_GAUSS_HALF[::-1, 0], _GAUSS_HALF[:, 0]])
_GAUSS_W = np.concatenate([_GAUSS_HALF[::-1, 1], _GAUSS_HALF[:, 1]])


def _piece_abs_integral(coeffs: np.ndarray, lo: float, hi: float) -> float:
    re = np.real(coeffs)
    im = np.imag(coeffs)
    sq = np.convolve(re, re) + np.convolve(im, im)
    scale = float(np.max(np.abs(sq))) if sq.size else 0.0
    if scale == 0.0:
        return 0.0
    trimmed = np.trim_zeros(np.where(np.abs(sq) > 1e-14 * scale, sq, 0.0), "b")
    if trimmed.size <= 1:
        # |p| is constant on the piece
        return float(np.sqrt(max(trimmed[0] if trimmed.size else 0.0, 0.0)) * (hi - lo))
    roots = np.roots(trimmed[::-1])
    cuts = [lo, hi]
    for z in roots:
        # Zeros of |p|^2 have even multiplicity, so rounding scatters them
        # off the real axis by about sqrt(eps); accept a wide band (spurious
        # cuts merely subdivide smooth arcs and cost nothing).
        if abs(z.imag) <= 1e-5 * (1.0 + abs(z.real)) and lo < z.real < hi:
            cuts.append(float(z.real))
    cuts = sorted(set(cuts))
    total = 0.0
    for left, right in zip(cuts[:-1], cuts[1:]):
        if right - left <= 1e-15 * max(abs(lo), abs(hi), 1.0):
            continue
        x = 0.5 * (right - left) * _GAUSS_X + 0.5 * (right + left)
        vals = np.sqrt(np.maximum(_horner(sq[None], x), 0.0))
        total += 0.5 * (right - left) * float(np.dot(_GAUSS_W, vals))
    return total


class _Entries:
    """Entries on one interval [a, b], held as rows: the contract that
    ``PolyMatrix``, ``PolyVector`` (its one-column case) and
    ``stieltjes.MatrixMeasure`` share.  Construction refuses no rows, an
    empty first row, ragged rows and, by the interval rule, entries on
    different intervals; ``a`` and ``b`` are the first entry's."""

    __slots__ = ("entries",)
    #: The messages that refuse empty input and entries on different intervals.
    _EMPTY = "need a non-empty matrix of entries"
    _APART = "all entries must share the same interval"

    def __init__(self, entries):
        rows = [list(r) for r in entries]
        if not rows or not rows[0]:
            raise ValueError(self._EMPTY)
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        if not _spans(rows[0][0], [e for r in rows for e in r]):
            raise ValueError(self._APART)
        self.entries = rows

    @property
    def shape(self):
        return (len(self.entries), len(self.entries[0]))

    @property
    def a(self) -> float:
        return self.entries[0][0].a

    @property
    def b(self) -> float:
        return self.entries[0][0].b


class PolyVector(_Entries):
    """Column vector of piecewise polynomials sharing one interval: an
    (m, 1) matrix of entries whose ``components`` are its rows' one entry."""

    __slots__ = ()
    _EMPTY, _APART = "need at least one component", "all components must share the same interval"

    def __init__(self, components):
        super().__init__([c] for c in components)

    @classmethod
    def zero(cls, m: int, a: float, b: float) -> "PolyVector":
        return cls([PiecewisePoly.zero(a, b) for _ in range(m)])

    @property
    def components(self) -> list:
        return [row[0] for row in self.entries]

    @property
    def m(self) -> int:
        return len(self.entries)

    def eval_at(self, t) -> np.ndarray:
        """Values (K, m) at K points t, or (m,) at a scalar t."""
        return np.stack([comp(t) for comp in self.components], axis=-1)

    def l1_norm(self) -> float:
        return sum(c.abs_integral() for c in self.components)

    def __add__(self, other):
        if not isinstance(other, PolyVector) or other.m != self.m:
            return NotImplemented
        return PolyVector([x + y for x, y in zip(self.components, other.components)])

    def __sub__(self, other):
        if not isinstance(other, PolyVector) or other.m != self.m:
            return NotImplemented
        return PolyVector([x - y for x, y in zip(self.components, other.components)])

    def __mul__(self, scalar):
        return PolyVector([c * scalar for c in self.components])

    __rmul__ = __mul__


class PolyMatrix(_Entries):
    """Matrix of piecewise polynomials sharing one interval."""

    __slots__ = ()

    @classmethod
    def constant(cls, matrix, a: float, b: float) -> "PolyMatrix":
        arr = np.atleast_2d(np.asarray(matrix, dtype=complex))
        return cls(
            [[PiecewisePoly.constant(arr[i, j], a, b) for j in range(arr.shape[1])]
             for i in range(arr.shape[0])]
        )

    @classmethod
    def zero(cls, rows: int, cols: int, a: float, b: float) -> "PolyMatrix":
        return cls([[PiecewisePoly.zero(a, b) for _ in range(cols)] for _ in range(rows)])

    def eval_at(self, t) -> np.ndarray:
        """Values (K, p, q) at K points t, or (p, q) at a scalar t."""
        return np.stack([np.stack([e(t) for e in row], axis=-1) for row in self.entries], axis=-2)

    def l1_norm(self) -> float:
        """Maximum over columns of the summed entrywise L1 norms."""
        return max(sum(e.abs_integral() for e in column) for column in zip(*self.entries))


class SampledJet:
    """Node samples of y and its derivatives y^(j) for j = 0..r, as one table.

    ``table`` is an (n+1, r+1, m) complex array with table[i, j] holding
    y^(j)(t_i), channel j being the view ``samples[j]``; ``m`` and ``r`` are
    read from its shape.  The one constructor checks the table and wraps a
    complex one as it is, with no copy.  ``perfbench/workloads.py`` reads
    ``samples``, ``m``, ``grid`` and ``from_callables``.
    """

    __slots__ = ("grid", "table")

    def __init__(self, grid: Grid, table):
        table = np.asarray(table, dtype=complex)
        if table.ndim != 3 or table.shape[0] != grid.n + 1 or 0 in table.shape:
            raise ValueError(f"jet table has shape {table.shape}, expected "
                             f"({grid.n + 1}, r + 1, m) with r >= 0 and m >= 1")
        # The channel is only searched for when the check fails.
        if not np.isfinite(table).all():
            j = np.flatnonzero(~np.isfinite(table).all(axis=(0, 2)))[0]
            raise ValueError(f"channel {j} contains non-finite samples")
        self.grid, self.table = grid, table

    @classmethod
    def from_callables(cls, grid: Grid, m: int, r: int, derivatives) -> "SampledJet":
        """Build a jet by sampling closed-form derivative callables y, ...,
        y^(r) on the grid's nodes, each giving (n+1) values per component."""
        derivatives = list(derivatives)
        if len(derivatives) != r + 1:
            raise ValueError(f"order-{r} jet needs {r + 1} channels, got {len(derivatives)}")
        return cls(grid, np.stack([np.reshape(f(grid.nodes), (grid.n + 1, m))
                                   for f in derivatives], axis=1))

    @property
    def m(self) -> int:
        return self.table.shape[2]

    @property
    def r(self) -> int:
        return self.table.shape[1] - 1

    @property
    def samples(self) -> tuple:
        """The channels y^(0) .. y^(r), views table[:, j] of shape (n+1, m)."""
        return tuple(self.table[:, j] for j in range(self.r + 1))

    def __sub__(self, other):
        if not isinstance(other, SampledJet):
            return NotImplemented
        if (other.grid != self.grid) or other.m != self.m or other.r != self.r:
            raise ValueError("jets must share grid, dimension, and order")
        return SampledJet(self.grid, self.table - other.table)

    def consistency_defect(self) -> float:
        """Max deviation of centered differences of channel j from channel j+1:
        their own O(h^2) truncation error on a smooth jet, however exact the
        jet, which does not fall with h across a kink of channel j."""
        h, t = self.grid.h, self.table
        worst = 0.0
        for j in range(self.r):
            # In place: one temporary of a channel's size.
            defect = np.subtract(t[2:, j], t[:-2, j])
            defect /= 2.0 * h
            defect -= t[1:-1, j + 1]
            worst = max(worst, float(np.max(np.abs(defect))))
        return worst


# -- sampled-data operations ------------------------------------------------


def norm_cl(jet: SampledJet, l: int) -> float:
    """Sum of the C-norms of channels 0..l, each the sum over components of max |.|."""
    if l > jet.r:
        raise ValueError(f"order {l} exceeds jet order {jet.r}")
    if l < 0:
        raise ValueError("order must be nonnegative")
    return sum(float(np.abs(jet.table[:, j]).max(axis=0).sum()) for j in range(l + 1))


def norm_w1r(jet: SampledJet) -> float:
    """Sum of the L1 norms of all channels 0..r, each the sum over components
    of the trapezoid rule on |.|."""
    h = jet.grid.h
    return sum(float(np.trapezoid(np.abs(jet.table[:, j]), dx=h, axis=0).sum())
               for j in range(jet.r + 1))


def vec_norm(v) -> float:
    """Entrywise-sum norm of a numeric vector."""
    return float(np.abs(np.asarray(v)).sum())


def mat_norm(M) -> float:
    """Maximum column sum norm of a numeric matrix."""
    arr = np.atleast_2d(np.asarray(M))
    return float(np.abs(arr).sum(axis=0).max())


def traj_norm_c(values) -> float:
    """C-norm of a matrix trajectory shaped (n+1, d, d).

    Per the matrix convention: max over columns of the summed per-entry sup
    norms down each column.  The sups are taken a block of steps at a time,
    with no temporary of the trajectory's size; a max is exact.
    """
    arr = np.asarray(values)
    if arr.ndim != 3:
        raise ValueError("expected a trajectory shaped (n+1, d, d)")
    sup, step = np.zeros(arr.shape[1:]), 1 + 2**15 // max(1, np.prod(arr.shape[1:]))
    for lo in range(0, arr.shape[0], step):
        np.maximum(sup, np.abs(arr[lo:lo + step]).max(axis=0), out=sup)
    return float(sup.sum(axis=0).max())
