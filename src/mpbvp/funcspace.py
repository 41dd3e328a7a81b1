"""Uniform grids, piecewise-polynomial data, sampled jets, and norms.

Conventions used across the package: the norm of a vector function is the
sum of its component norms, the norm of a matrix function is the maximum of
its column norms, and numeric vectors/matrices use the matching discrete
norms (entrywise sum, maximum column sum).  Quadrature on sampled data is
the composite trapezoid rule on the grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "PiecewisePoly",
    "PolyVector",
    "PolyMatrix",
    "SampledJet",
    "antiderivative",
    "norm_l1",
    "norm_c",
    "norm_cl",
    "norm_w1r",
    "vec_norm",
    "mat_norm",
    "traj_norm_c",
]

#: Highest polynomial degree a single piece may carry.
MAX_PIECE_DEGREE = 8

_polyval = np.polynomial.polynomial.polyval


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
        if int(self.n) != self.n or self.n < 2:
            raise ValueError(f"grid needs an integer n >= 2, got {self.n}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        return self.a + (self.b - self.a) * np.arange(self.n + 1) / self.n

    @cached_property
    def half_nodes(self) -> np.ndarray:
        """Midpoints of the n grid cells."""
        return self.a + (self.b - self.a) * (2.0 * np.arange(self.n) + 1.0) / (2.0 * self.n)

    def nearest_node(self, t: float) -> float:
        """Coordinate of the grid node closest to t."""
        i = int(round((t - self.a) / self.h))
        i = min(max(i, 0), self.n)
        return float(self.nodes[i])


def _fractional_index(grid: Grid, t: float) -> float:
    s = (t - grid.a) / grid.h
    return min(max(s, 0.0), float(grid.n))


def _linear_stencil(grid: Grid, t: float):
    """(first node index, weights) of linear interpolation at t (clamped to [a, b])."""
    s = _fractional_index(grid, t)
    i = min(int(s), grid.n - 1)
    w = s - i
    return i, np.array([1.0 - w, w])


def _cubic_stencil(grid: Grid, t: float):
    """(first node index, weights) of 4-point Lagrange interpolation at t.

    Falls back to the linear stencil on grids with fewer than 4 cells.
    """
    n = grid.n
    if n < 4:
        return _linear_stencil(grid, t)
    s = _fractional_index(grid, t)
    i = min(int(s), n - 1)
    base = min(max(i - 1, 0), n - 3)
    x = s - base
    w = np.empty(4)
    for j in range(4):
        num = 1.0
        for k in range(4):
            if k != j:
                num *= (x - k) / (j - k)
        w[j] = num
    return base, w


def sample_linear(grid: Grid, values: np.ndarray, t: float):
    """Linear interpolation of node samples at a scalar t (clamped to [a, b])."""
    base, w = _linear_stencil(grid, t)
    return np.tensordot(w, values[base:base + 2], axes=(0, 0))


def sample_cubic(grid: Grid, values: np.ndarray, t: float):
    """4-point Lagrange interpolation of node samples at a scalar t.

    Falls back to linear interpolation on grids with fewer than 4 cells.
    The first axis of ``values`` must run over the grid nodes.
    """
    base, w = _cubic_stencil(grid, t)
    return np.tensordot(w, values[base:base + w.size], axes=(0, 0))


class PiecewisePoly:
    """Complex piecewise polynomial on [a, b] in the global variable t.

    ``coeffs[j]`` holds the coefficients of piece j, lowest degree first.
    Evaluation at an interior breakpoint takes the right-hand piece by
    default; the point b always belongs to the last piece.
    """

    __slots__ = ("breakpoints", "coeffs", "_table")

    def __init__(self, breakpoints, coeffs):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite")
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if len(coeffs) != bp.size - 1:
            raise ValueError(
                f"{bp.size - 1} pieces require {bp.size - 1} coefficient arrays, got {len(coeffs)}"
            )
        stored = []
        for c in coeffs:
            arr = np.atleast_1d(np.asarray(c, dtype=complex))
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError("each piece needs a non-empty 1-d coefficient array")
            if arr.size - 1 > MAX_PIECE_DEGREE:
                raise ValueError(
                    f"piece degree {arr.size - 1} exceeds the cap {MAX_PIECE_DEGREE}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError("polynomial coefficients must be finite")
            stored.append(arr)
        self.breakpoints = bp
        self.coeffs = stored
        self._table = None

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
        return cls(breakpoints, [[v] for v in values])

    # -- basic queries -----------------------------------------------------

    @property
    def a(self) -> float:
        return float(self.breakpoints[0])

    @property
    def b(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def npieces(self) -> int:
        return len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(np.all(c == 0) for c in self.coeffs)

    def __call__(self, t, side: str = "right"):
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        tt = np.atleast_1d(arr)
        flag = "right" if side == "right" else "left"
        idx = np.searchsorted(self.breakpoints, tt, side=flag) - 1
        idx = np.clip(idx, 0, self.npieces - 1)
        if self._table is None:
            # Zero padding above a piece's degree leaves polyval's Horner sums unchanged.
            table = np.zeros((self.npieces, max(c.size for c in self.coeffs)), dtype=complex)
            for j, c in enumerate(self.coeffs):
                table[j, :c.size] = c
            self._table = table
        coeffs = self._table[idx]
        out = coeffs[:, -1] + tt * 0
        for k in range(coeffs.shape[1] - 2, -1, -1):
            out = coeffs[:, k] + out * tt
        return out[0] if scalar else out

    # -- calculus ----------------------------------------------------------

    def _overlaps(self, c: float, d: float):
        """Yield (piece index, lo, hi) for the parts of [c, d] in each piece."""
        bp = self.breakpoints
        for j in range(self.npieces):
            lo = max(c, bp[j])
            hi = min(d, bp[j + 1])
            if hi > lo:
                yield j, lo, hi

    def integrate(self, c: float | None = None, d: float | None = None) -> complex:
        """Exact integral of the polynomial over [c, d] (defaults to [a, b])."""
        c = self.a if c is None else float(c)
        d = self.b if d is None else float(d)
        if d < c:
            raise ValueError("integration needs c <= d")
        total = 0.0 + 0.0j
        for j, lo, hi in self._overlaps(c, d):
            cj = self.coeffs[j]
            anti = np.concatenate([[0.0 + 0.0j], cj / np.arange(1, cj.size + 1)])
            total += _polyval(hi, anti) - _polyval(lo, anti)
        return complex(total)

    def abs_integral(self, c: float | None = None, d: float | None = None) -> float:
        """Integral of |p(t)| over [c, d], exact up to quadrature on smooth arcs.

        Each piece is split at the real zeros of |p|^2 so that |p| is analytic
        on every sub-arc, then integrated by fixed Gauss-Legendre quadrature.
        """
        c = self.a if c is None else float(c)
        d = self.b if d is None else float(d)
        if d < c:
            raise ValueError("integration needs c <= d")
        total = 0.0
        for j, lo, hi in self._overlaps(c, d):
            total += _piece_abs_integral(self.coeffs[j], lo, hi)
        return total

    def mean(self, c: float, d: float) -> complex:
        if not d > c:
            raise ValueError("mean needs c < d")
        return self.integrate(c, d) / (d - c)

    def derivative(self) -> "PiecewisePoly":
        ders = []
        for cj in self.coeffs:
            if cj.size == 1:
                ders.append(np.zeros(1, dtype=complex))
            else:
                ders.append(cj[1:] * np.arange(1, cj.size))
        return PiecewisePoly(self.breakpoints, ders)

    # -- algebra -----------------------------------------------------------

    def _binary(self, other: "PiecewisePoly", sign: float) -> "PiecewisePoly":
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        tol = 1e-12 * max(self.b - self.a, 1.0)
        if abs(self.a - other.a) > tol or abs(self.b - other.b) > tol:
            raise ValueError("operands must share the same interval")
        merged = np.unique(np.concatenate([self.breakpoints, other.breakpoints]))
        keep = [merged[0]]
        for t in merged[1:]:
            if t - keep[-1] > tol:
                keep.append(t)
        keep[0], keep[-1] = self.a, self.b
        bp = np.asarray(keep)
        coeffs = []
        for j in range(bp.size - 1):
            mid = 0.5 * (bp[j] + bp[j + 1])
            ca = self._piece_at(mid)
            cb = other._piece_at(mid)
            width = max(ca.size, cb.size)
            out = np.zeros(width, dtype=complex)
            out[: ca.size] += ca
            out[: cb.size] += sign * cb
            coeffs.append(out)
        return PiecewisePoly(bp, coeffs)

    def _piece_at(self, t: float) -> np.ndarray:
        idx = int(np.searchsorted(self.breakpoints, t, side="right") - 1)
        idx = min(max(idx, 0), self.npieces - 1)
        return self.coeffs[idx]

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __neg__(self):
        return PiecewisePoly(self.breakpoints, [-c for c in self.coeffs])

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex)):
            return PiecewisePoly(self.breakpoints, [c * scalar for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    # -- grid alignment ----------------------------------------------------

    def snapped(self, grid: Grid) -> "PiecewisePoly":
        """Move breakpoints onto the nearest grid nodes.

        The endpoints stay pinned to a and b.  Pieces that collapse to zero
        width are dropped with a warning; a displacement beyond h/2 (which
        can only happen for breakpoints outside [a, b]) also warns.
        """
        bp = [float(grid.a)]
        coeffs = []
        for j in range(self.npieces):
            right = self.b if j == self.npieces - 1 else float(self.breakpoints[j + 1])
            snapped = grid.b if j == self.npieces - 1 else grid.nearest_node(right)
            if abs(snapped - right) > grid.h / 2 + 1e-9 * (grid.b - grid.a):
                warnings.warn(
                    f"breakpoint {right} moved by more than h/2 during grid alignment",
                    stacklevel=2,
                )
            if snapped - bp[-1] <= 0:
                warnings.warn(
                    f"piece [{self.breakpoints[j]}, {right}] collapsed during grid alignment",
                    stacklevel=2,
                )
                continue
            bp.append(snapped)
            coeffs.append(self.coeffs[j])
        if len(coeffs) == 0:
            # everything collapsed onto one node; keep the last piece
            bp = [grid.a, grid.b]
            coeffs = [self.coeffs[-1]]
        if bp[-1] < grid.b:
            bp.append(grid.b)
            coeffs.append(self.coeffs[-1])
        return PiecewisePoly(bp, coeffs)

    def __repr__(self):
        return f"PiecewisePoly({self.npieces} pieces on [{self.a}, {self.b}])"


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(24)


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
        vals = np.sqrt(np.maximum(np.polynomial.polynomial.polyval(x, sq), 0.0))
        total += 0.5 * (right - left) * float(np.dot(_GAUSS_W, vals))
    return total


def _common_interval(items, what: str):
    a, b = items[0].a, items[0].b
    tol = 1e-12 * max(b - a, 1.0)
    for p in items[1:]:
        if abs(p.a - a) > tol or abs(p.b - b) > tol:
            raise ValueError(f"all {what} must share the same interval")
    return a, b


class PolyVector:
    """Column vector of piecewise polynomials sharing one interval."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = list(components)
        if not comps:
            raise ValueError("need at least one component")
        _common_interval(comps, "components")
        self.components = comps

    @classmethod
    def zero(cls, m: int, a: float, b: float) -> "PolyVector":
        return cls([PiecewisePoly.zero(a, b) for _ in range(m)])

    @property
    def m(self) -> int:
        return len(self.components)

    @property
    def a(self) -> float:
        return self.components[0].a

    @property
    def b(self) -> float:
        return self.components[0].b

    def eval_at(self, t, side: str = "right") -> np.ndarray:
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        tt = np.atleast_1d(arr)
        out = np.empty((tt.size, self.m), dtype=complex)
        for j, comp in enumerate(self.components):
            out[:, j] = comp(tt, side=side)
        return out[0] if scalar else out

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

    def snapped(self, grid: Grid) -> "PolyVector":
        return PolyVector([c.snapped(grid) for c in self.components])


class PolyMatrix:
    """Matrix of piecewise polynomials sharing one interval."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = [list(r) for r in entries]
        if not rows or not rows[0]:
            raise ValueError("need a non-empty matrix of entries")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        _common_interval([e for r in rows for e in r], "entries")
        self.entries = rows

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

    @property
    def shape(self):
        return (len(self.entries), len(self.entries[0]))

    @property
    def a(self) -> float:
        return self.entries[0][0].a

    @property
    def b(self) -> float:
        return self.entries[0][0].b

    def eval_at(self, t, side: str = "right") -> np.ndarray:
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        tt = np.atleast_1d(arr)
        p, q = self.shape
        out = np.empty((tt.size, p, q), dtype=complex)
        for i in range(p):
            for j in range(q):
                out[:, i, j] = self.entries[i][j](tt, side=side)
        return out[0] if scalar else out

    def l1_norm(self) -> float:
        """Maximum over columns of the summed entrywise L1 norms."""
        p, q = self.shape
        best = 0.0
        for j in range(q):
            best = max(best, sum(self.entries[i][j].abs_integral() for i in range(p)))
        return best

    def snapped(self, grid: Grid) -> "PolyMatrix":
        return PolyMatrix([[e.snapped(grid) for e in row] for row in self.entries])


class SampledJet:
    """Node samples of y and its derivatives y^(j) for j = 0..r.

    ``samples[j]`` is an (n+1, m) complex array with samples[j][i] holding
    y^(j)(t_i).  Off-node evaluation interpolates with a 4-point Lagrange
    stencil.
    """

    __slots__ = ("grid", "m", "r", "samples")

    def __init__(self, grid: Grid, m: int, r: int, samples):
        if m < 1 or r < 0:
            raise ValueError("need m >= 1 and r >= 0")
        chans = []
        for j, ch in enumerate(samples):
            arr = np.asarray(ch, dtype=complex)
            if arr.ndim == 1:
                arr = arr[:, None]
            if arr.shape != (grid.n + 1, m):
                raise ValueError(
                    f"channel {j} has shape {arr.shape}, expected {(grid.n + 1, m)}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"channel {j} contains non-finite samples")
            chans.append(arr)
        if len(chans) != r + 1:
            raise ValueError(f"order-{r} jet needs {r + 1} channels, got {len(chans)}")
        self.grid = grid
        self.m = m
        self.r = r
        self.samples = tuple(chans)

    @classmethod
    def from_callables(cls, grid: Grid, m: int, r: int, derivatives) -> "SampledJet":
        """Build a jet by sampling closed-form derivative callables on the grid."""
        chans = []
        for f in derivatives:
            vals = np.asarray(f(grid.nodes), dtype=complex)
            if vals.ndim == 1:
                vals = vals[:, None]
            chans.append(vals)
        return cls(grid, m, r, chans)

    def channel(self, j: int) -> np.ndarray:
        if not 0 <= j <= self.r:
            raise ValueError(f"channel {j} out of range for an order-{self.r} jet")
        return self.samples[j]

    def value(self, t: float, order: int = 0) -> np.ndarray:
        return sample_cubic(self.grid, self.channel(order), t)

    def __sub__(self, other):
        if not isinstance(other, SampledJet):
            return NotImplemented
        if (other.grid != self.grid) or other.m != self.m or other.r != self.r:
            raise ValueError("jets must share grid, dimension, and order")
        return SampledJet(
            self.grid, self.m, self.r,
            [x - y for x, y in zip(self.samples, other.samples)],
        )

    def consistency_defect(self) -> float:
        """Max deviation of centered differences of channel j from channel j+1."""
        h = self.grid.h
        worst = 0.0
        for j in range(self.r):
            lower = self.samples[j]
            upper = self.samples[j + 1]
            approx = (lower[2:] - lower[:-2]) / (2.0 * h)
            worst = max(worst, float(np.max(np.abs(approx - upper[1:-1]))))
        return worst


# -- sampled-data operations ------------------------------------------------


def _as_components(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError("expected samples shaped (n+1,) or (n+1, m)")
    return arr


def antiderivative(grid: Grid, values) -> np.ndarray:
    """Cumulative trapezoid primitive F with F(a) = 0, sampled on the grid.

    Accepts (n+1,) or (n+1, m) samples and preserves the input shape.
    """
    arr = np.asarray(values, dtype=complex)
    flat = arr.ndim == 1
    v = _as_components(arr)
    if v.shape[0] != grid.n + 1:
        raise ValueError("samples do not match the grid")
    increments = 0.5 * (v[1:] + v[:-1]) * grid.h
    out = np.vstack([np.zeros((1, v.shape[1]), dtype=complex), np.cumsum(increments, axis=0)])
    return out[:, 0] if flat else out


def norm_l1(grid: Grid, values) -> float:
    """L1 norm of a sampled vector function: sum over components of trapz |.|"""
    v = _as_components(values)
    if v.shape[0] != grid.n + 1:
        raise ValueError("samples do not match the grid")
    return float(np.trapezoid(np.abs(v), dx=grid.h, axis=0).sum())


def norm_c(values) -> float:
    """Sup norm of a sampled vector function: sum over components of max |.|"""
    v = _as_components(values)
    return float(np.abs(v).max(axis=0).sum())


def norm_cl(jet: SampledJet, l: int) -> float:
    """Sum of the C-norms of channels 0..l."""
    if l > jet.r:
        raise ValueError(f"order {l} exceeds jet order {jet.r}")
    if l < 0:
        raise ValueError("order must be nonnegative")
    return sum(norm_c(jet.samples[j]) for j in range(l + 1))


def norm_w1r(jet: SampledJet) -> float:
    """Sum of the L1 norms of all channels 0..r."""
    return sum(norm_l1(jet.grid, jet.samples[j]) for j in range(jet.r + 1))


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
    norms down each column.
    """
    arr = np.asarray(values)
    if arr.ndim != 3:
        raise ValueError("expected a trajectory shaped (n+1, d, d)")
    sup = np.abs(arr).max(axis=0)
    return float(sup.sum(axis=0).max())
