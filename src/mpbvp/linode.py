"""Fundamental matrices of first-order linear systems via fixed-step RK4.

On the augmented state (u, 1) of u' = -A(t) u + g(t) an RK4 step is the
linear map U -> U + D_i U.  The bottom row of that state is always
(0, ..., 0, 1) and the bottom row of every increment D_i is 0, so every
RK4 array holds only its top d rows: (d, s, N), with s = d + 1 and the
steps on the last axis.  ``_mm`` multiplies these batch-last arrays with
d broadcast multiply-adds over whole rows of steps, where a stacked ``@``
would pay numpy's per-matrix overhead on each tiny product; contracting
over the right factor's d rows is exact whenever its bottom row is 0.

One pass propagates a family of K systems of one shape on one grid, such
as a limit problem and its multipoint approximations.  Its steps are cut
into blocks of BLOCK_STEPS steps, and each block of L steps into chunks of
c = isqrt(L - 1) + 1 steps, the last one padded with zero increments.  The
pass keeps one zeroed work array per run of equal-length blocks (all but
a shorter last block form one run), (d, s, K, B, chunks c).  Each member's
increments D_i are formed block by block from one panel triple of its
coefficient samples and written straight into its slot, so its panels
are freed before the next member's.  Then one loop of c - 1 iterations
forms, in place, the prefix increments of every chunk of every member and
block at once, and one loop over all of the pass's chunks, in order,
carries the members' states from chunk to chunk with one stacked product.
So the prefix loop runs c - 1 times per run rather than per block, the
carry once per chunk, and each member's nodes are bit for bit those of a
pass of its own.  A member's step-first (n+1, d, s) table is formed from its
prefix increments and chunk starts only when it is yielded.  A pass holds
at most PASS_BYTES of work arrays; a larger family is split over several
passes.

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
#: Bytes of work array one propagation pass holds, chunk padding included;
#: a pass holds at least one member, and Z always shares the pass of the
#: system it inverts.
PASS_BYTES = 32 * 2**20


def _coefficient_panels(A: PolyMatrix, g: PolyVector, grid: Grid):
    """Samples of [-A | g] on the grid, entry by entry with
    ``PiecewisePoly.grid_samples``: node values (d, s, n+1), midpoint values
    (d, s, n) and step-end left limits (d, s, n), batch-last."""
    d = A.shape[0]
    nodes = np.empty((d, d + 1, grid.n + 1), dtype=complex)
    ends = np.empty((d, d + 1, grid.n), dtype=complex)
    mids = np.empty_like(ends)
    for i, row in enumerate(A.entries):
        for j, entry in enumerate([*row, g.components[i]]):
            nodes[i, j], ends[i, j], mids[i, j] = entry.grid_samples(grid)
    for name, panel in (("node", nodes), ("mid", mids), ("end", ends)):
        if not np.all(np.isfinite(panel)):
            raise ValueError(f"coefficient evaluation produced non-finite values ({name})")
        np.negative(panel[:, :d], out=panel[:, :d])
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


def _increments(panels, h: float):
    """Top rows of the RK4 step increments, yielded batch-last as
    (d, d + 1, L) blocks of at most BLOCK_STEPS steps, from the
    ``_coefficient_panels`` of [-A | g], which each stage slices.

    They act on (u, 1)' = [[-A, g], [0, 0]] (u, 1), whose bottom row is 0
    in every stage.
    """
    nodes, mids, ends = panels
    n = mids.shape[-1]
    for lo in range(0, n, BLOCK_STEPS):
        hi = min(lo + BLOCK_STEPS, n)
        # Stage coefficients at the step starts, midpoints and step ends.
        m0, mm, m1 = nodes[..., lo:hi], mids[..., lo:hi], ends[..., lo:hi]
        # Stages of U' = M U from U = I, with k1 = m0: D_i = h/6 (k1 + 2 k2 + 2 k3 + k4).
        k2 = mm + (0.5 * h) * _mm(mm, m0)
        k3 = mm + (0.5 * h) * _mm(mm, k2)
        k4 = m1 + h * _mm(m1, k3)
        yield (h / 6.0) * (m0 + 2.0 * (k2 + k3) + k4)


def _runs(n: int) -> list:
    """The runs of equal-length blocks of an n-step pass, in order, as
    (blocks B, steps per block L, steps per chunk c, chunks per block)."""
    runs = []
    for B, L in ((n // BLOCK_STEPS, BLOCK_STEPS), (1, n % BLOCK_STEPS)):
        if B and L:
            c = math.isqrt(L - 1) + 1
            runs.append((B, L, c, -(-L // c)))
    return runs


def _propagate(systems, grid: Grid, inverse: bool = False, rows: int = 0):
    """Yield, system by system, the top rows [V | R] (n+1, d, d+1) of the
    augmented matrizant [[V, R], [0, 1]], each with the node values
    (n+1, rows, d+1) of the bottom ``rows`` rows of [A | g].

    ``systems`` are (A, g) pairs of one shape, A d x d.  With ``inverse``
    the inverse matrizant Z = V^-1 (n+1, d, d) of the first system follows
    its table, with None for node values.

    The K members of a pass share one zeroed work array per run of
    equal-length blocks, (d, s, K, B, chunks c): step k c + j of block b of
    member m sits at [..., m, b, k c + j], and the padding of a block's last
    chunk stays 0.  ``_fill`` writes the increments there, and ``_compose``
    turns them into prefix increments and chunk starts; each member's table
    is formed from those as it is yielded.  The work arrays of a pass hold
    at most PASS_BYTES, padding included, or one member if that is larger;
    Z is a member of the first system's pass.
    """
    systems = list(systems)
    d, cols = systems[0][0].shape
    if d != cols:
        raise ValueError("coefficient matrix must be square")
    s = d + 1
    runs = _runs(grid.n)
    # A member is a system index, or None for Z of system 0.
    members = [0, None, *range(1, len(systems))] if inverse else list(range(len(systems)))
    per_pass = max(1, PASS_BYTES // (sum(B * chunks * c for B, _, c, chunks in runs) * d * s * 16))
    lo = 0
    while lo < len(members):
        hi = lo + per_pass
        if inverse and lo == 0:
            # Z rides in the pass of the system it inverts.
            hi = max(hi, 2)
        group = members[lo:hi]
        work = [np.zeros((d, s, len(group), B, chunks * c), dtype=complex)
                for B, _, c, chunks in runs]

        def blocks(slot):
            return [w[:, :, slot, b, :L] for w, (B, L, _, _) in zip(work, runs) for b in range(B)]

        coefficients = [None] * len(group)
        for slot, member in enumerate(group):
            if member is not None:
                z = blocks(slot + 1) if inverse and member == 0 else None
                coefficients[slot] = _fill(blocks(slot), z, *systems[member], grid, rows)
        starts = _compose(work, runs)
        for slot, member in enumerate(group):
            # Neither a table nor its node values outlive their yield here.
            yield _member_table(work, starts, runs, slot, member is None), coefficients[slot]
            coefficients[slot] = None
        lo = hi


def _compose(work: list, runs: list) -> list:
    """Compose the RK4 steps of a pass's ``work`` arrays, as ``_propagate``
    lays them out, and return each array's chunk starts (K, B chunks, d, s).

    With s = d + 1 the bottom row of every state U is (0, ..., 0, 1) and
    that of every increment D_i is 0.  The chunks' prefix increments
    Q_j = Q_{j-1} + D_j + D_j Q_{j-1}, so that I + Q_j is the product of
    their first j steps, overwrite the increments, for every member, block
    and chunk of an array at once.  The members' states, from I, are then
    carried from chunk to chunk by one stacked product, over all the pass's
    chunks in order.
    """
    d, s, K = work[0].shape[:3]
    for w, (_, _, c, _) in zip(work, runs):
        Q = w.reshape(d, s, -1, c)
        for j in range(1, c):
            step = _mm(Q[..., j], Q[..., j - 1])
            Q[..., j] += Q[..., j - 1]
            Q[..., j] += step
    # The carry multiplies by the full (s, s) states, whose top rows are
    # rewritten in place; a stacked @ is cheapest for one product per chunk.
    state = np.empty((K, s, s), dtype=complex)
    state[:] = np.eye(s)
    top = state[:, :d]
    # Chunk k of member m in an array ends in I + last[m, k], and its start
    # goes to starts[m, k].
    lasts = [w.reshape(d, s, K, -1, c)[..., -1].transpose(2, 3, 0, 1)
             for w, (_, _, c, _) in zip(work, runs)]
    starts = [np.empty_like(last) for last in lasts]
    for last, start in ((last[:, k], start[:, k]) for last, start in zip(lasts, starts)
                        for k in range(last.shape[1])):
        start[...] = top
        top += last @ state
    return starts


def _member_table(work: list, starts: list, runs: list, slot: int,
                  inverse: bool) -> np.ndarray:
    """The step-first table (n+1, d, s) of member ``slot`` of a composed
    pass, or with ``inverse`` Z (n+1, d, d) from its transposed left
    columns: U = U_c + Q_j U_c from each chunk's start U_c.  Q_j U_c is the
    one product whose right factor has a non-zero bottom row: it adds Q_j's
    last column to the last column of the top-row product."""
    d, s = work[0].shape[:2]
    table = np.empty((sum(B * L for B, L, _, _ in runs) + 1, d, s), dtype=complex)
    table[0] = np.eye(d, s)
    i = 1
    for w, start, (B, L, c, chunks) in zip(work, starts, runs):
        Q = w[:, :, slot].reshape(d, s, B, chunks, c)
        chunk_starts = np.ascontiguousarray(start[slot].transpose(1, 2, 0))
        chunk_starts = chunk_starts.reshape(d, s, B, chunks, 1)
        # Block by block, so that no temporary is the size of a table.
        for b in range(B):
            U = _mm(Q[:, :, b], chunk_starts[:, :, b])
            U[:, d:] += Q[:, d:, b]
            U += chunk_starts[:, :, b]
            table[i:i + L] = U.reshape(d, s, chunks * c)[..., :L].transpose(2, 0, 1)
            i += L
    return table[..., :d].swapaxes(1, 2) if inverse else table


def _fill(blocks: list, inverse_blocks: list | None, A: PolyMatrix, g: PolyVector,
          grid: Grid, rows: int) -> np.ndarray:
    """Write the increments of (A, g) into ``blocks``, one (d, s, L) view of
    the work arrays per block, and with ``inverse_blocks``, Z's views, the
    transposed inverse increments E_i^T = ((I + D_i)^-1 - I)^T of their left
    d columns into the left d columns; the last column stays 0.  Returns the
    node values (n+1, rows, s) of the bottom ``rows`` rows of [A | g]; the
    rest of the coefficient samples are freed on return."""
    d = A.shape[0]
    panels = _coefficient_panels(A, g, grid)
    kept = np.empty((grid.n + 1, rows, d + 1), dtype=complex)
    np.negative(panels[0][d - rows:, :d].transpose(2, 0, 1), out=kept[..., :d])
    kept[..., d] = panels[0][d - rows:, d].T
    eye = np.eye(d, dtype=complex)
    for block, D in enumerate(_increments(panels, grid.h)):
        blocks[block][...] = D
        if inverse_blocks is not None:
            # Z_{i+1} = Z_i + Z_i E_i, composed transposed as Z^T.  Solved
            # step-first on a transposed view of the block.
            step = D[:, :d].transpose(2, 0, 1)
            inverse_blocks[block][:, :d] = np.linalg.solve(eye + step, -step).transpose(2, 1, 0)
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
