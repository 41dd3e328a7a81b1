"""Fundamental matrices of first-order linear systems via fixed-step RK4.

On the augmented state (u, 1) of u' = -A(t) u + g(t) an RK4 step is the
linear map U -> U + D_i U.  The bottom row of that state is always
(0, ..., 0, 1) and the bottom row of every increment D_i is 0, so every
RK4 array holds only its top d rows: (d, s, N), with s = d + 1 and the
steps on the last axis.  ``_mm`` multiplies these batch-last arrays with
d broadcast multiply-adds over whole rows of steps, where a stacked ``@``
would pay numpy's per-matrix overhead on each tiny product; contracting
over the right factor's d rows is exact whenever its bottom row is 0.
Column k of a product reads only column k of the right factor, so systems
that share A share the left d columns of every stage and increment: one
wide (d, d + G, N) array holds such a group, one forcing column per
distinct g, each with the bits of a pass of its own.

One pass propagates a family of systems of one shape on one grid, such
as a limit problem and its multipoint approximations, grouped by the bits
of A (each entry's breakpoints and table), one slot at a time: a slot is
a group's forcing columns, or as many of them as PASS_BYTES allows.  The
n steps are cut into chunks of c = isqrt(n - 1) + 1 steps, with at least
one zero increment of padding.  A slot is one zeroed work array
(d, d + G, chunks c), step i in column i, that takes its increments, A
sampled once.  Then c - 1 iterations form, in place, the prefix
increments of every chunk, and one loop over the chunks carries the
slot's columns with one stacked product of narrow (d, s) states: a
stacked ``@`` of another width does not keep the bits.  One loop over the
slot's blocks of chunks, from the last, then writes the state after step
i over increment i, in column i + 1, V and every R side by side, and the
start [I | 0] in column 0: a slot's V and R are views of its work array.
The pass keeps no reference to a slot it has handed over, so a consumer
that drops the tables drops the slot before the next one is made.

Besides its slot, a pass holds one segment of coefficient samples at a
time.  ``_fill`` samples a run of whole blocks of BLOCK_STEPS steps, at
most SEGMENT_BYTES of [A | g_1], forms their increments block by block
and drops the samples before the next segment, so every increment, and
every table, has the bits of one sampling of the whole grid.  The tables
are all a pass hands over: a caller that needs the coefficients at the
nodes, as the solver's top jet channel does, evaluates them itself, with
the bits of the node samples here.

A pass from I_{d+1} gives the top rows [V | R] of the augmented matrizant
[[V, R], [0, 1]]: the matrizant V and the forced trajectory R with
R(a) = 0 together.  The left d columns of every product do not depend on
g, so V is bit for bit the same for any forcing; ``fundamental_matrix``
is V of a zero-forcing pass.  Storing increments rather than I + D_i
keeps their low bits.  Tables come out step-first, with the steps on
the work array's unit stride.  Z = V^-1 is the
transposed matrizant of the adjoint system v' = A(t)^T v, whose
coefficient ``_adjoint`` forms: to the pass it is one more system, and
``inverse_fundamental`` is V of its zero-forcing pass, transposed.

The RK4 stages of step i read the coefficients at t_i, at the midpoint and
at t_{i+1}.  The end of step i is the start of step i+1, so each entry is
evaluated once at the n+1 nodes and once at the n midpoints
(``PiecewisePoly.grid_samples``).  A step end takes the left-hand limit,
which keeps full order at jumps on grid nodes; it differs from the node
value only at a breakpoint that the node rule puts on a node, where it
alone is evaluated again.
"""

from __future__ import annotations

import math

import numpy as np

from .funcspace import BLOCK_STEPS, Grid, PolyMatrix, PolyVector, _bits, _spans

__all__ = [
    "fundamental_matrix",
    "inverse_fundamental",
    "forced_trajectory",
]

#: Bytes of the one slot's work array that a propagation pass holds at a
#: time, chunk padding included, each forcing column counted as a narrow
#: (d, s) slot's; a slot holds at least one column.
PASS_BYTES = 32 * 2**20
#: Bytes of the node, midpoint and step-end samples of [A | g_1] that a
#: fill holds at once, rounded down to whole blocks, at least one: 4 blocks
#: at d = 2, so a 2048-step pass samples once.  Samples of the whole grid
#: would be a pass's largest arrays (54 MiB at d = 8, n = 16384), and a
#: segment of one block pays the sampling calls once per block.
SEGMENT_BYTES = 5 * 2**17


def _segment_steps(d: int) -> int:
    """A segment's steps: whole blocks, at least one, whose [A | g_1] samples fit SEGMENT_BYTES."""
    return BLOCK_STEPS * max(1, SEGMENT_BYTES // (3 * d * (d + 1) * BLOCK_STEPS * 16))


def _coefficient_panels(rows, grid: Grid, lo: int, hi: int):
    """Samples of the entries ``rows[i][j]`` over steps lo .. hi - 1 of the
    grid, with ``PiecewisePoly.grid_samples``: node values (d, w, hi-lo+1),
    midpoint values (d, w, hi-lo) and step-end left limits (d, w, hi-lo),
    batch-last."""
    nodes = np.empty((len(rows), len(rows[0]), hi - lo + 1), dtype=complex)
    ends = np.empty(nodes.shape[:2] + (hi - lo,), dtype=complex)
    mids = np.empty_like(ends)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            nodes[i, j], ends[i, j], mids[i, j] = entry.grid_samples(grid, lo, hi)
    for name, panel in (("node", nodes), ("mid", mids), ("end", ends)):
        if not np.isfinite(panel).all():
            raise ValueError(f"coefficient evaluation produced non-finite values ({name})")
    return nodes, mids, ends


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


def _increments(left, right, h: float, out: np.ndarray) -> None:
    """Write columns of the top rows of the RK4 step increments into
    ``out`` (d, w, steps), batch-last, BLOCK_STEPS steps at a time, from the
    ``_coefficient_panels`` ``left`` of [-A | ...] and ``right`` of the
    columns: [-A | g] itself when ``right`` is ``left``, or forcings g.

    They act on (u, 1)' = [[-A, g], [0, 0]] (u, 1), whose bottom row is 0
    in every stage; each column reads only -A and itself.
    """
    _, mids, ends = left
    n = out.shape[-1]
    for lo in range(0, n, BLOCK_STEPS):
        block = slice(lo, min(lo + BLOCK_STEPS, n))
        # Stage coefficients at the step starts, midpoints and step ends.
        m0, mm, m1 = (panel[..., block] for panel in right)
        # Stages of U' = M U from U = I, with k1 = m0: D_i = h/6 (k1 + 2 k2 + 2 k3 + k4).
        k2 = mm + (0.5 * h) * _mm(mids[..., block], m0)
        k3 = mm + (0.5 * h) * _mm(mids[..., block], k2)
        k4 = m1 + h * _mm(ends[..., block], k3)
        np.multiply(h / 6.0, m0 + 2.0 * (k2 + k3) + k4, out=out[..., block])


def _propagate(systems, grid: Grid):
    """Yield, slot by slot, (V, [(R, indices), ...]): the top rows [V | R]
    of the augmented matrizants [[V, R], [0, 1]] of a slot's systems, V
    (n+1, d, d) and each R (n+1, d) with the indices in ``systems`` that it
    serves, and nothing else.

    ``systems`` are (A, g) pairs of one shape, A d x d and g of d
    components (a system of another shape is refused by its index), whose
    entries' and components' intervals are each the grid's to 1e-9 (b - a),
    as a BvpProblem's.  Groups of equal A come in order, system 0's first,
    one forcing column per distinct g, each column counted as a narrow
    (d, s) slot's against PASS_BYTES.  The generator keeps no reference to
    a slot it has yielded.
    """
    systems = list(systems)
    d = systems[0][0].shape[0]
    for i, (A, g) in enumerate(systems):
        if A.shape != (d, d) or g.m != d:
            raise ValueError(f"system {i} has a {A.shape[0]} x {A.shape[1]} coefficient matrix "
                             f"and {g.m} forcing components, not {d} x {d} and {d}")
    # Every entry of A and component of g, not a container's first one.
    if not _spans(grid, [e for A, g in systems for r in [*A.entries, *g.entries] for e in r]):
        raise ValueError("coefficient and forcing intervals do not span the grid")
    n = grid.n
    # Whole chunks past step n - 1, so that the state after it has a column.
    c = math.isqrt(n - 1) + 1
    padded = (n // c + 1) * c
    # Columns (g, the systems sharing A and g), by group; the large keys go with the dict.
    groups = {}
    for i, (A, g) in enumerate(systems):
        A, columns = groups.setdefault(_bits(e for row in A.entries for e in row), (A, {}))
        columns.setdefault(_bits(g.components), (g, []))[1].append(i)
    # Each column counts as a narrow slot's d + 1 work-array columns.
    per_slot = max(1, PASS_BYTES // (padded * d * 16 * (d + 1)))
    for A, columns in groups.values():
        columns = list(columns.values())
        for lo in range(0, len(columns), per_slot):
            yield _slot(A, columns[lo:lo + per_slot], grid, c, padded)


def _slot(A: PolyMatrix, columns: list, grid: Grid, c: int, padded: int) -> tuple:
    """The (V, [(R, indices), ...]) of A's forcing ``columns`` [(g, indices),
    ...], from a zeroed work array of ``padded`` steps, chunks of c: the
    padding of the last chunk stays 0."""
    d = A.shape[0]
    work = np.zeros((d, d + len(columns), padded), dtype=complex)
    _fill(work, A, [g for g, _ in columns], grid)
    V, Rs = _slot_tables(work, _compose(work, c), grid.n)
    return V, [(R, indices) for R, (_, indices) in zip(Rs, columns)]


def _compose(work: np.ndarray, c: int) -> np.ndarray:
    """Compose the RK4 steps of a slot's ``work`` (d, d+G, chunks c), as
    ``_slot`` lays it out in chunks of c steps, and return the chunk starts
    of its G forcing columns, (G, chunks, d, s).

    With s = d + 1 the bottom row of every state U is (0, ..., 0, 1) and
    that of every increment D_i is 0.  The chunks' prefix increments
    Q_j = Q_{j-1} + D_j + D_j Q_{j-1}, so that I + Q_j is the product of
    their first j steps, overwrite the increments, for every chunk at once.
    The states of the slot's columns, from I, are then carried from chunk
    to chunk by one stacked product of narrow (d, s) states each.
    """
    d, width = work.shape[:2]
    Q = work.reshape(d, width, -1, c)
    for j in range(1, c):
        step = _mm(Q[..., j], Q[..., j - 1])
        Q[..., j] += Q[..., j - 1]
        Q[..., j] += step
    # Chunk k of column g ends in I + lasts[g, k]: the shared left d columns and its own.
    last = Q[..., -1].transpose(2, 0, 1)
    lasts = np.empty((width - d,) + last.shape[:2] + (d + 1,), dtype=complex)
    lasts[..., :d] = last[..., :d]
    lasts[..., d] = last[..., d:].transpose(2, 0, 1)
    # The carry multiplies by the full (s, s) states, whose top rows are
    # rewritten in place; a stacked ``@`` of another width does not keep the bits.
    state = np.empty((width - d, d + 1, d + 1), dtype=complex)
    state[:] = np.eye(d + 1)
    top = state[:, :d]
    starts = np.empty_like(lasts)
    for k in range(lasts.shape[1]):
        starts[:, k] = top
        top += np.matmul(lasts[:, k], state)
    return starts


def _slot_tables(work: np.ndarray, starts: np.ndarray, n: int) -> tuple:
    """V (n+1, d, d) and [R_1, ..., R_G], each (n+1, d), of a composed
    slot's G forcing columns, as views of ``work``.  U = U_c + Q_j U_c from
    each chunk's start U_c is the state after the step whose prefix
    increment Q_j is, and lands one column to its right; column 0 gets the
    start [I | 0].  V's start, the left columns of the first column's chunk
    starts, lies beside each column's start of R.  Column by column, Q_j U_c
    reads Q_j's left d columns only, and R's adds Q_j's forcing column, as
    the product with a start's non-zero bottom row does.  The chunk length
    is the slot's, as ``starts`` counts the chunks."""
    d, width, chunks = work.shape[0], work.shape[1], starts.shape[1]
    c = work.shape[-1] // chunks
    Q = work.reshape(d, width, chunks, c)
    chunk_starts = np.concatenate([starts[0, ..., :d], starts[..., d].transpose(1, 2, 0)], axis=-1)
    chunk_starts = np.ascontiguousarray(chunk_starts.transpose(1, 2, 0))[..., None]
    # A few chunks at a time, so that no temporary is the size of a table,
    # from the last: a block's states overwrite the first increment of the
    # block after it.  The padding's last state has no column.
    step = max(1, BLOCK_STEPS // c)
    for k in reversed(range(0, chunks, step)):
        ks = slice(k, k + step)
        U = _mm(Q[:, :d, ks], chunk_starts[:, :, ks])
        U[:, d:] += Q[:, d:, ks]
        U += chunk_starts[:, :, ks]
        U = U.reshape(d, width, -1)[..., :work.shape[-1] - k * c - 1]
        work[..., k * c + 1:k * c + 1 + U.shape[-1]] = U
    work[..., 0] = np.eye(d, width)
    tables = work[..., :n + 1].transpose(2, 0, 1)
    return tables[..., :d], [tables[..., col] for col in range(d, width)]


def _fill(work: np.ndarray, A: PolyMatrix, forcings: list, grid: Grid) -> None:
    """Write the increments of A and its ``forcings`` g_1 ... g_G into a
    slot's ``work`` (d, d+G, ...), step i in column i.  The coefficients
    are sampled one segment of whole blocks at a time, at most
    SEGMENT_BYTES of [A | g_1]: A with g_1, as in a group of one, and each
    further g alone after it, its samples dropped before the next."""
    d, n = A.shape[0], grid.n
    columns = [r + g for r, g in zip(A.entries, forcings[0].entries)]
    steps = _segment_steps(d)
    for lo in range(0, n, steps):
        hi = min(lo + steps, n)
        left = _coefficient_panels(columns, grid, lo, hi)
        for panel in left:
            np.negative(panel[:, :d], out=panel[:, :d])
        _increments(left, left, grid.h, work[:, :d + 1, lo:hi])
        for column, g in zip(range(d + 1, d + len(forcings)), forcings[1:]):
            right = _coefficient_panels(g.entries, grid, lo, hi)
            _increments(left, right, grid.h, work[:, column:column + 1, lo:hi])
            del right
        del left


def _adjoint(A: PolyMatrix) -> PolyMatrix:
    """-A^T: the solver's coefficient of the adjoint system v' = A(t)^T v
    of y' = -A(t) y, whose matrizant is (V^-1)^T."""
    return PolyMatrix([[-entry for entry in column] for column in zip(*A.entries)])


def fundamental_matrix(A: PolyMatrix, grid: Grid) -> np.ndarray:
    """Matrizant (n+1, d, d) of y' + A(t) y = 0: solves Y' = -A(t) Y, Y(a) = I."""
    return next(_propagate([(A, PolyVector.zero(A.shape[0], A.a, A.b))], grid))[0]


def inverse_fundamental(A: PolyMatrix, grid: Grid) -> np.ndarray:
    """Inverse matrizant (n+1, d, d) Z = Y^-1 of Z' = Z A(t), Z(a) = I: the
    transposed matrizant of the adjoint system."""
    return fundamental_matrix(_adjoint(A), grid).swapaxes(1, 2)


def forced_trajectory(A: PolyMatrix, g: PolyVector, grid: Grid) -> np.ndarray:
    """RK4 integration of u' = -A(t) u + g(t), u(a) = 0, sampled on the grid.

    This is the particular solution of the inhomogeneous system, computed
    at the same order as the matrizant.
    """
    return next(_propagate([(A, g)], grid))[1][0][0]
