"""Fundamental matrices of first-order linear systems via fixed-step RK4.

On the augmented state (u, 1) of u' = -A(t) u + g(t) an RK4 step is the
linear map U -> U + D_i U.  The bottom row of that state is always
(0, ..., 0, 1) and the bottom row of every increment D_i is 0, so every
RK4 array holds only its top d rows: (d, s, N), with s = d + 1 and the
steps on the last axis.  ``_mm`` multiplies these batch-last arrays with
d broadcast multiply-adds over whole rows of steps, where a stacked ``@``
would pay numpy's per-matrix overhead on each tiny product; contracting
over the right factor's d rows is exact whenever its bottom row is 0.  The
increments D_i are formed in blocks of BLOCK_STEPS steps from the
coefficient panels, and a chunked scan composes each block: about sqrt(L)
chunks of a block of L steps form their prefix increments side by side,
then the state is carried across the chunks, so the Python loops run
about 2 sqrt(L) times per block instead of L.

One pass propagates a family of K systems of one shape on one grid, such
as a limit problem and its multipoint approximations.  Each member's
increments are formed on their own, so its coefficient panels are freed
before the next member's, and written into the member's rows of one
(K, n+1, d, s) table.  One scan then composes every member in place: the
members' chunks lie side by side on the chunk axis and their states are
carried by one stacked product, so the scan's Python loops run once for
the family, and each member's nodes are bit for bit those of a pass of its
own.  A pass holds at most PASS_BYTES of tables; a larger family is split
over several passes.

A pass from I_{d+1} gives the top rows [V | R] of the augmented matrizant
[[V, R], [0, 1]]: the matrizant V and the forced trajectory R with
R(a) = 0 together.  The left d columns of every product do not depend on
g, so V is bit for bit the same for any forcing; ``fundamental_matrix``
is V of a zero-forcing pass.  Z = V^-1 composes, transposed, the inverse
increments (I + D_i)^-1 - I, so Z V = I step by step.  It is a member of
the pass of the system it inverts, and its increments come from the left
d columns of that system's increments, which are the increments of V; so
Z needs no second evaluation of the coefficients.  Storing increments
rather than I + D_i keeps their low bits.  Node values come out
step-first, as (n+1, d, s).

The RK4 stages of step i read the coefficients at t_i, at the midpoint and
at t_{i+1}.  The end of step i is the start of step i+1, so each entry is
evaluated once at the n+1 nodes and once at the n midpoints
(``PiecewisePoly.grid_samples``).  A step end takes the left-hand limit,
which keeps full order at jumps on grid nodes; it differs from the node
value only at a breakpoint on a node, where it alone is evaluated again.
Each member's pass hands over the node values of the bottom rows of
[A | g] that the caller asks for, so the solver assembles its top jet
channel without evaluating the coefficients again.
"""

from __future__ import annotations

import math
import numpy as np

from .funcspace import Grid, PolyMatrix, PolyVector

__all__ = [
    "fundamental_matrix",
    "inverse_fundamental",
    "forced_trajectory",
]

#: Steps whose increments are formed together; bounds the work arrays.
BLOCK_STEPS = 512
#: Bytes of node tables one propagation pass holds; a pass holds at least
#: one member, and Z always shares the pass of the system it inverts.
PASS_BYTES = 32 * 2**20


def _coefficient_panels(F, grid: Grid):
    """Samples of A or g on the grid, entry by entry with
    ``PiecewisePoly.grid_samples``: node values (..., n+1), midpoint values
    (..., n) and step-end left limits (..., n), batch-last, where ... is
    the shape of F."""
    if isinstance(F, PolyMatrix):
        shape, entries = F.shape, [entry for row in F.entries for entry in row]
    else:
        shape, entries = (F.m,), F.components
    nodes = np.empty((len(entries), grid.n + 1), dtype=complex)
    ends = np.empty((len(entries), grid.n), dtype=complex)
    mids = np.empty_like(ends)
    for j, entry in enumerate(entries):
        nodes[j], ends[j], mids[j] = entry.grid_samples(grid)
    for name, panel in (("node", nodes), ("mid", mids), ("end", ends)):
        if not np.all(np.isfinite(panel)):
            raise ValueError(f"coefficient evaluation produced non-finite values ({name})")
    return tuple(panel.reshape(shape + panel.shape[1:]) for panel in (nodes, mids, ends))


def _mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product of batch-last matrices A (s, t, ...) and B (u, w, ...),
    summed over the u <= t rows that B holds.

    This is A times B whenever the t - u rows that B leaves out are 0.  The
    batch axes broadcast; the sum over rows runs in order j = 0 .. u-1.
    """
    out = A[:, 0, None] * B[None, 0]
    for j in range(1, B.shape[0]):
        out += A[:, j, None] * B[None, j]
    return out


def _increments(panels, forcing, h: float):
    """Top rows of the RK4 step increments, yielded batch-last as
    (d, d + 1, L) blocks of at most BLOCK_STEPS steps, from the
    ``_coefficient_panels`` of A and of g.

    They act on (u, 1)' = [[-A, g], [0, 0]] (u, 1), whose bottom row is 0
    in every stage.
    """
    d, _, n = panels[1].shape
    for lo in range(0, n, BLOCK_STEPS):
        hi = min(lo + BLOCK_STEPS, n)
        # Stage coefficients at the step starts, midpoints and step ends.
        m0, mm, m1 = (np.empty((d, d + 1, hi - lo), dtype=complex) for _ in range(3))
        for m, panel, f in zip((m0, mm, m1), panels, forcing):
            np.negative(panel[..., lo:hi], out=m[:, :d])
            m[:, d] = f[:, lo:hi]
        # Stages of U' = M U from U = I, with k1 = m0: D_i = h/6 (k1 + 2 k2 + 2 k3 + k4).
        k2 = mm + (0.5 * h) * _mm(mm, m0)
        k3 = mm + (0.5 * h) * _mm(mm, k2)
        k4 = m1 + h * _mm(m1, k3)
        yield (h / 6.0) * (m0 + 2.0 * (k2 + k3) + k4)


def _scan(table: np.ndarray) -> None:
    """Compose, in place, the RK4 steps of every member of ``table``.

    ``table`` is (K, n+1, d, s).  Row 0 of each member holds the top rows
    of its start U_0.  The rows of each block of BLOCK_STEPS steps hold the
    top rows of its increments D_i batch-last, as one (d, s, L) array, so
    that a block is filled and read back with contiguous copies.  On return
    row i holds U_i, where U_{i+1} = U_i + D_i U_i.  With s = d + 1 the
    bottom row of U is (0, ..., 0, 1) and that of D_i is 0.

    Each block of L steps is cut into about sqrt(L) chunks of c steps, the
    last one padded with zero increments, and copied out batch-last with
    the chunks of all members on one axis.  The chunks' prefix increments
    Q_j = Q_{j-1} + D_j + D_j Q_{j-1}, so that I + Q_j is the product of
    the first j steps, are formed for all members and chunks at once; the
    states are then carried from chunk to chunk by one stacked product, and
    U = U_c + Q_j U_c gives every node.  Q_j U_c is the one product whose
    right factor has a non-zero bottom row: it adds Q_j's last column to
    the last column of the top-row product.
    """
    K, rows, d, s = table.shape
    n = rows - 1
    # The carry multiplies by the full (s, s) states, whose top rows are
    # rewritten in place; a stacked @ is cheapest for one product per chunk.
    state = np.empty((K, s, s), dtype=complex)
    state[:] = np.eye(s)
    top = state[:, :d]
    top[...] = table[:, 0]
    for lo in range(0, n, BLOCK_STEPS):
        hi = min(lo + BLOCK_STEPS, n)
        L = hi - lo
        c = math.isqrt(L - 1) + 1
        chunks = -(-L // c)
        # Step k c + j of member m sits at [..., m chunks + k, j]: the
        # members' chunks lie side by side on one axis.
        padded = np.zeros((d, s, K, chunks * c), dtype=complex)
        padded[..., :L] = table[:, lo + 1:hi + 1].reshape(K, d, s, L).transpose(1, 2, 0, 3)
        D = padded.reshape(d, s, K * chunks, c)
        Q = np.empty_like(D)
        Q[..., 0] = D[..., 0]
        for j in range(1, c):
            Q[..., j] = Q[..., j - 1] + D[..., j] + _mm(D[..., j], Q[..., j - 1])
        # The increments are spent; free them before U is formed.
        del padded, D
        # The carry runs member-first: chunk k's I + Q_c is last[:, k], and
        # its start goes to starts[:, k].
        last = Q[..., -1].reshape(d, s, K, chunks).transpose(2, 3, 0, 1)
        starts = np.empty((K, chunks, d, s), dtype=complex)
        for k in range(chunks):
            starts[:, k] = top
            top += last[:, k] @ state
        chunk_starts = np.ascontiguousarray(starts.transpose(2, 3, 0, 1)).reshape(d, s, -1, 1)
        U = _mm(Q, chunk_starts)
        U[:, d:] += Q[:, d:]
        U += chunk_starts
        table[:, lo + 1:hi + 1] = U.reshape(d, s, K, chunks * c)[..., :L].transpose(2, 3, 0, 1)


def _propagate(systems, grid: Grid, inverse: bool = False, rows: int = 0):
    """Yield, system by system, the top rows [V | R] (n+1, d, d+1) of the
    augmented matrizant [[V, R], [0, 1]], each with the node values
    (n+1, rows, d+1) of the bottom ``rows`` rows of [A | g].

    ``systems`` are (A, g) pairs of one shape, A d x d.  With ``inverse``
    the inverse matrizant Z = V^-1 (n+1, d, d) of the first system follows
    its table, with None for node values.

    The members of a pass share one (K, n+1, d, d+1) table, and each table
    is yielded as a view of it.  A pass holds at most PASS_BYTES of tables,
    or one member's table if that is larger; Z is a member of the first
    system's pass.
    """
    systems = list(systems)
    d, cols = systems[0][0].shape
    if d != cols:
        raise ValueError("coefficient matrix must be square")
    s = d + 1
    # A member is a system index, or None for Z of system 0.
    members = [0, None, *range(1, len(systems))] if inverse else list(range(len(systems)))
    per_pass = max(1, PASS_BYTES // ((grid.n + 1) * d * s * 16))
    lo = 0
    while lo < len(members):
        hi = lo + per_pass
        if inverse and lo == 0:
            # Z rides in the pass of the system it inverts.
            hi = max(hi, 2)
        group = members[lo:hi]
        table = np.empty((len(group), grid.n + 1, d, s), dtype=complex)
        table[:, 0] = np.eye(d, s)
        coefficients = [None] * len(group)
        for slot, member in enumerate(group):
            if member is not None:
                z = slot + 1 if inverse and member == 0 else None
                coefficients[slot] = _fill(table, slot, z, *systems[member], grid, rows)
        _scan(table)
        for slot, member in enumerate(group):
            yield (table[slot] if member is not None
                   else table[slot, :, :, :d].swapaxes(1, 2)), coefficients[slot]
        lo = hi


def _fill(table: np.ndarray, slot: int, z: int | None, A: PolyMatrix,
          g: PolyVector, grid: Grid, rows: int) -> np.ndarray:
    """Write the increments of (A, g) into the blocks of ``table[slot]``, as
    _scan reads them, and with ``z`` the transposed inverse increments
    E_i^T = ((I + D_i)^-1 - I)^T of their left d columns into the blocks of
    ``table[z]``, padded with zero columns.  Returns the node values
    (n+1, rows, s) of the bottom ``rows`` rows of [A | g]; the rest of the
    coefficient samples are freed on return."""
    d = A.shape[0]
    panels = _coefficient_panels(A, grid)
    forcing = _coefficient_panels(g, grid)
    kept = np.empty((grid.n + 1, rows, d + 1), dtype=complex)
    kept[..., :d] = panels[0][d - rows:].transpose(2, 0, 1)
    kept[..., d] = forcing[0][d - rows:].T
    eye = np.eye(d, dtype=complex)
    i = 1
    for D in _increments(panels, forcing, grid.h):
        s, L = D.shape[1:]
        # A member's rows are contiguous, so the reshape is a view.
        table[slot, i:i + L].reshape(d, s, L)[...] = D
        if z is not None:
            # Z_{i+1} = Z_i + Z_i E_i, composed transposed as Z^T.  Solved
            # step-first on a transposed view of the block.
            step = D[:, :d].transpose(2, 0, 1)
            inverse = table[z, i:i + L].reshape(d, s, L)
            inverse[:, :d] = np.linalg.solve(eye + step, -step).transpose(2, 1, 0)
            inverse[:, d:] = 0.0
        i += L
    return kept


def fundamental_matrix(A: PolyMatrix, grid: Grid) -> np.ndarray:
    """Matrizant (n+1, d, d) of y' + A(t) y = 0: solves Y' = -A(t) Y, Y(a) = I."""
    return next(_propagate([(A, PolyVector.zero(A.shape[0], A.a, A.b))], grid))[0][..., :-1]


def inverse_fundamental(A: PolyMatrix, grid: Grid) -> np.ndarray:
    """Inverse matrizant (n+1, d, d) Z = Y^-1 of Z' = Z A(t), Z(a) = I, as
    Z_{i+1} = Z_i + Z_i E_i."""
    tables = _propagate([(A, PolyVector.zero(A.shape[0], A.a, A.b))], grid, inverse=True)
    next(tables)
    return next(tables)[0]


def forced_trajectory(A: PolyMatrix, g: PolyVector, grid: Grid) -> np.ndarray:
    """RK4 integration of u' = -A(t) u + g(t), u(a) = 0, sampled on the grid.

    This is the particular solution of the inhomogeneous system, computed
    at the same order as the matrizant.
    """
    return next(_propagate([(A, g)], grid))[0][..., -1]
