"""Fundamental matrices of first-order linear systems via fixed-step RK4.

On the augmented state (u, 1) of u' = -A(t) u + g(t) an RK4 step is the
linear map U -> U + D_i U.  The bottom row of that state is always
(0, ..., 0, 1) and the bottom row of every increment D_i is 0, so every
RK4 array holds only its top d rows: (d, s, N), with s = d, or s = d + 1
when g is given, and the steps on the last axis.  ``_mm`` multiplies these
batch-last arrays with d broadcast multiply-adds over whole rows of steps,
where a stacked ``@`` would pay numpy's per-matrix overhead on each tiny
product; contracting over the right factor's d rows is exact whenever its
bottom row is 0.  The increments D_i are formed in blocks of BLOCK_STEPS
steps from the coefficient panels, and a chunked scan composes each block:
about sqrt(L) chunks of a block of L steps form their prefix increments
side by side, then the state is carried across the chunks, so the Python
loops run about 2 sqrt(L) times per block instead of L.  One pass from
I_{d+1} gives the top rows [V | R] of the augmented matrizant
[[V, R], [0, 1]]: the matrizant V and the forced trajectory R with
R(a) = 0 together.  Z = V^-1 composes, transposed, the inverse increments
(I + D_i)^-1 - I, so Z V = I step by step.  Storing increments rather than
I + D_i keeps their low bits.  Step ends take left-hand coefficient limits,
which keeps full order at jumps on grid nodes.  Node values come out
step-first, as (n+1, d, s).
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


def _coefficient_panels(F, grid: Grid):
    """Evaluate A or g at step starts (right limit), midpoints, and step ends (left limit)."""
    nodes = grid.nodes
    start = F.eval_at(nodes[:-1], side="right")
    mid = F.eval_at(grid.half_nodes)
    end = F.eval_at(nodes[1:], side="left")
    for name, panel in (("start", start), ("mid", mid), ("end", end)):
        if not np.all(np.isfinite(panel)):
            raise ValueError(f"coefficient evaluation produced non-finite values ({name})")
    return start, mid, end


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


def _increments(A: PolyMatrix, g: PolyVector | None, grid: Grid):
    """Top rows of the RK4 step increments, yielded batch-last as (d, s, L)
    blocks of at most BLOCK_STEPS steps.

    They act on u' = -A u, or with g on (u, 1)' = [[-A, g], [0, 0]] (u, 1),
    whose bottom row is 0 in every stage.
    """
    d, cols = A.shape
    if d != cols:
        raise ValueError("coefficient matrix must be square")
    panels = _coefficient_panels(A, grid)
    forcing = None if g is None else _coefficient_panels(g, grid)
    s = d + (g is not None)
    h = grid.h
    for lo in range(0, grid.n, BLOCK_STEPS):
        hi = min(lo + BLOCK_STEPS, grid.n)
        m0, mm, m1 = (np.zeros((d, s, hi - lo), dtype=complex) for _ in panels)
        for m, panel in zip((m0, mm, m1), panels):
            np.negative(panel[lo:hi].transpose(1, 2, 0), out=m[:, :d])
        if forcing is not None:
            for m, f in zip((m0, mm, m1), forcing):
                m[:, d] = f[lo:hi].T
        # Stages of U' = M U from U = I, with k1 = m0: D_i = h/6 (k1 + 2 k2 + 2 k3 + k4).
        k2 = mm + (0.5 * h) * _mm(mm, m0)
        k3 = mm + (0.5 * h) * _mm(mm, k2)
        k4 = m1 + h * _mm(m1, k3)
        yield (h / 6.0) * (m0 + 2.0 * (k2 + k3) + k4)


def _compose(blocks, start: np.ndarray, n: int) -> np.ndarray:
    """Top rows (n+1, d, s) of the node values of U_{i+1} = U_i + D_i U_i
    from the top rows ``start`` of U_0, for batch-last (d, s, L) blocks of
    the top rows of increments D_i.

    With s = d + 1 the bottom row of U is (0, ..., 0, 1) and that of D_i
    is 0.  Each block of L increments is cut into about sqrt(L) chunks of
    c steps, the last one padded with zero increments.  The chunks' prefix
    increments Q_j = Q_{j-1} + D_j + D_j Q_{j-1}, so that I + Q_j is the
    product of the first j steps, are formed for all chunks at once; the
    state is then carried from chunk to chunk, and U = U_c + Q_j U_c gives
    every node.  Q_j U_c is the one product whose right factor has a
    non-zero bottom row: it adds Q_j's last column to the last column of
    the top-row product.
    """
    d, s = start.shape
    out = np.empty((n + 1, d, s), dtype=complex)
    out[0] = start
    # The carry multiplies by the full (s, s) state, whose top rows are
    # rewritten in place; a plain @ is cheapest for one product per chunk.
    state = np.eye(s, dtype=complex)
    state[:d] = start
    i = 1
    for D in blocks:
        L = D.shape[-1]
        c = math.isqrt(L - 1) + 1
        chunks = -(-L // c)
        # Step k c + j of the block sits at [..., k, j].
        padded = np.zeros((d, s, chunks * c), dtype=complex)
        padded[..., :L] = D
        D = padded.reshape(d, s, chunks, c)
        Q = np.empty_like(D)
        Q[..., 0] = D[..., 0]
        for j in range(1, c):
            Q[..., j] = Q[..., j - 1] + D[..., j] + _mm(D[..., j], Q[..., j - 1])
        chunk_starts = np.empty((d, s, chunks), dtype=complex)
        for k in range(chunks):
            chunk_starts[..., k] = state[:d]
            state[:d] += Q[..., k, -1] @ state
        U = _mm(Q, chunk_starts[..., None])
        U[:, d:] += Q[:, d:]
        U += chunk_starts[..., None]
        out[i:i + L] = U.reshape(d, s, chunks * c)[..., :L].transpose(2, 0, 1)
        i += L
    return out


def _propagate(A: PolyMatrix, g: PolyVector | None, grid: Grid) -> np.ndarray:
    """Top rows of the node values of the composed RK4 steps from I,
    shaped (n+1, d, s).

    Without g this is the matrizant V (s = d).  With g it is [V | R], the
    top rows of the augmented matrizant [[V, R], [0, 1]] (s = d + 1), which
    carries V and the forced trajectory R in one pass.
    """
    d = A.shape[0]
    start = np.eye(d, d + (g is not None), dtype=complex)
    return _compose(_increments(A, g, grid), start, grid.n)


def fundamental_matrix(A: PolyMatrix, grid: Grid) -> np.ndarray:
    """Matrizant (n+1, d, d) of y' + A(t) y = 0: solves Y' = -A(t) Y, Y(a) = I."""
    return _propagate(A, None, grid)


def inverse_fundamental(A: PolyMatrix, grid: Grid) -> np.ndarray:
    """Inverse matrizant (n+1, d, d) Z = Y^-1 of Z' = Z A(t), Z(a) = I, as
    Z_{i+1} = Z_i + Z_i E_i."""
    eye = np.eye(A.shape[0], dtype=complex)
    # Solved step-first on a transposed view of each block, then handed to
    # _compose batch-last and transposed, as E_i^T.
    steps = (D.transpose(2, 0, 1) for D in _increments(A, None, grid))
    blocks = (np.linalg.solve(eye + D, -D).transpose(2, 1, 0) for D in steps)
    return _compose(blocks, eye, grid.n).swapaxes(1, 2)


def forced_trajectory(A: PolyMatrix, g: PolyVector, grid: Grid) -> np.ndarray:
    """RK4 integration of u' = -A(t) u + g(t), u(a) = 0, sampled on the grid.

    This is the particular solution of the inhomogeneous system, computed
    at the same order as the matrizant.
    """
    return _propagate(A, g, grid)[..., -1]
