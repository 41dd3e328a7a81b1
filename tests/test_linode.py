"""Fundamental matrices, inverses, and particular solutions."""

import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from mpbvp import (
    Grid,
    PiecewisePoly,
    PolyMatrix,
    PolyVector,
    SampledJet,
    approximate_coefficients,
    build_multipoint_problem,
    corpus,
    forced_trajectory,
    fundamental_matrix,
    inverse_fundamental,
    sawtooth_rhs,
    sweep,
    theorem3_check,
)
from mpbvp import linode
from mpbvp.bvp import _solve_pass, companion_reduce, solve
from mpbvp.linode import (
    BLOCK_STEPS,
    _adjoint,
    _coefficient_panels,
    _compose,
    _increments,
    _mm,
    _propagate,
    _slot_tables,
)
from oracles import exact_trace_integral, expm_taylor, growth_problem, left_limit


def _grid(n=2048):
    return Grid(0.0, 1.0, n)


def test_scalar_exponential_decay():
    A = PolyMatrix.constant([[1.0]], 0.0, 1.0)
    V = fundamental_matrix(A, _grid())
    assert abs(V[-1, 0, 0] - np.exp(-1.0)) <= 1e-12


def test_nilpotent_coefficient_closed_form():
    A = PolyMatrix.constant([[0.0, 1.0], [0.0, 0.0]], 0.0, 1.0)
    grid = _grid(256)
    V = fundamental_matrix(A, grid)
    # Y' = -A Y integrates exactly: Y(t) = [[1, -t], [0, 1]]
    expected = np.stack([np.array([[1.0, -t], [0.0, 1.0]]) for t in grid.nodes])
    np.testing.assert_allclose(V, expected, atol=1e-13)


def test_constant_complex_matches_series_exponential():
    matrix = np.array([[0.3 + 0.2j, -1.0], [0.5, -0.1j]])
    A = PolyMatrix.constant(matrix, 0.0, 1.0)
    # 1537 steps end in a partial block of step increments.
    assert 1537 % BLOCK_STEPS != 0
    for n in (2048, 1537):
        grid = _grid(n)
        V = fundamental_matrix(A, grid)
        for idx in (n // 4, n // 2, n):
            np.testing.assert_allclose(V[idx],
                                       expm_taylor(-matrix * grid.nodes[idx]), atol=1e-9)


def test_inverse_fundamental_is_inverse():
    matrix = np.array([[0.0, 1.0], [-2.0, 0.3]])
    A = PolyMatrix.constant(matrix, 0.0, 1.0)
    grid = _grid()
    V = fundamental_matrix(A, grid)
    W = inverse_fundamental(A, grid)
    products = np.einsum("nij,njk->nik", W, V)
    eye = np.broadcast_to(np.eye(2), products.shape)
    assert float(np.max(np.abs(products - eye))) <= 1e-12


def test_liouville_determinant_identity():
    entries = [
        [PiecewisePoly.single([0.5, 1.0], 0.0, 1.0), PiecewisePoly.constant(2.0, 0.0, 1.0)],
        [PiecewisePoly.zero(0.0, 1.0), PiecewisePoly.step([0.0, 0.5, 1.0], [1.0, -1.0])],
    ]
    A = PolyMatrix(entries)
    grid = _grid()
    V = fundamental_matrix(A, grid)
    dets = np.linalg.det(V)
    expected = np.exp(-exact_trace_integral(A, grid.nodes))
    rel = np.max(np.abs(dets - expected) / np.abs(expected))
    assert rel <= 1e-8


def test_piecewise_coefficient_keeps_full_order():
    # A jumps from 1 to 2 at t = 0.5 (a grid node); the flow is
    # exp(-1*0.5) * exp(-2*0.5) = exp(-1.5).  Getting this to 1e-12 needs
    # the step-end evaluations to use the left-hand piece.
    A = PolyMatrix([[PiecewisePoly.step([0.0, 0.5, 1.0], [1.0, 2.0])]])
    V = fundamental_matrix(A, _grid())
    assert abs(V[-1, 0, 0] - np.exp(-1.5)) <= 1e-12


def test_forced_trajectory_matches_closed_form():
    g = PolyVector([PiecewisePoly.constant(1.0, 0.0, 1.0)])
    for grid in (_grid(), _grid(1537)):
        # u' = -a u + 1 with u(0) = 0: u(t) = t for a = 0, 1 - exp(-t) for a = 1
        for a, expected in ((0.0, grid.nodes), (1.0, 1.0 - np.exp(-grid.nodes))):
            u = forced_trajectory(PolyMatrix.constant([[a]], 0.0, 1.0), g, grid)
            assert float(np.max(np.abs(u[:, 0] - expected))) <= 1e-12


def _coupled_system():
    """A 2 x 2 complex coefficient with a jump and a mixed-degree forcing."""
    entries = [
        [PiecewisePoly.single([0.5, 1.0j], 0.0, 1.0), PiecewisePoly.constant(2.0, 0.0, 1.0)],
        [PiecewisePoly.step([0.0, 0.5, 1.0], [-1.0, 0.3j]),
         PiecewisePoly.single([0.1, 0.0, 1.0], 0.0, 1.0)],
    ]
    g = PolyVector([PiecewisePoly.single([1.0, -2.0j, 0.5], 0.0, 1.0),
                    PiecewisePoly.step([0.0, 0.5, 1.0], [1.0, 0.0])])
    return PolyMatrix(entries), g


def test_non_finite_left_limit_is_refused():
    # 1.3e308 + 1e308 t overflows only at t = 1/2 from the left: the nodes
    # (right limits) and midpoints of the grid stay finite.
    jump = PiecewisePoly([0.0, 0.5, 1.0], [[1.3e308, 1e308], [0.0]])
    grid = Grid(0.0, 1.0, 4)
    assert np.all(np.isfinite(jump(grid.nodes))) and np.all(np.isfinite(jump(grid.half_nodes)))
    zero = PiecewisePoly.zero(0.0, 1.0)
    for system in ((PolyMatrix([[jump]]), PolyVector([zero])),
                   (PolyMatrix([[zero]]), PolyVector([jump]))):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"non-finite.*\(end\)"):
            next(_propagate([system], grid))


@pytest.mark.parametrize("interval", [(0.0, 0.5), (0.0, 1.0 + 1e-6), (-1e-6, 1.0)])
def test_coefficients_that_do_not_span_the_grid_are_refused(interval):
    # A = 1 on [0, 0.5] against a grid on [0, 1] used to extrapolate its
    # last piece: the forced trajectory read 1 - exp(-1) at t = 1.
    A = PolyMatrix.constant([[1.0]], *interval)
    g = PolyVector([PiecewisePoly.constant(1.0, *interval)])
    grid = _grid(64)
    for call in (lambda: forced_trajectory(A, g, grid),
                 lambda: forced_trajectory(PolyMatrix.constant([[1.0]], 0.0, 1.0), g, grid),
                 lambda: fundamental_matrix(A, grid), lambda: inverse_fundamental(A, grid)):
        with pytest.raises(ValueError, match="do not span the grid"):
            call()


def test_systems_of_another_shape_are_refused():
    # A's rows are zipped with g's components: a forcing of 1 component
    # used to read (0.635, 0.635) at t = 1 for a 2 x 2 rotation, one of 3
    # lost its third in silence, and a family member of another shape
    # failed inside the RK4 stages with a broadcast error.
    grid = _grid(64)
    A = PolyMatrix.constant([[0.0, -1.0], [1.0, 0.0]], 0.0, 1.0)

    def forcing(m):
        return PolyVector([PiecewisePoly.constant(1.0, 0.0, 1.0)] * m)

    for m in (1, 3):
        with pytest.raises(ValueError, match="system 0 .* not 2 x 2 and 2"):
            forced_trajectory(A, forcing(m), grid)
    with pytest.raises(ValueError, match="system 1 has a 3 x 3 coefficient matrix"):
        list(_propagate([(A, forcing(2)), (PolyMatrix.constant(np.eye(3), 0.0, 1.0),
                                          forcing(3))], grid))
    for matrizant in (fundamental_matrix, inverse_fundamental):
        with pytest.raises(ValueError, match="system 0"):
            matrizant(PolyMatrix.constant(np.ones((2, 3)), 0.0, 1.0), grid)


def test_ends_within_the_interval_tolerance_are_propagated():
    # BvpProblem's tolerance, 1e-9 (b - a): u' = -u + 1 on [0, 1 - 1e-10].
    A = PolyMatrix.constant([[1.0]], 0.0, 1.0 - 1e-10)
    g = PolyVector([PiecewisePoly.constant(1.0, 1e-10, 1.0)])
    grid = _grid(64)
    u = forced_trajectory(A, g, grid)
    assert float(np.max(np.abs(u[:, 0] - (1.0 - np.exp(-grid.nodes))))) <= 1e-9


def _system_increments(A, g, grid):
    """The (d, s, n) increments of (A, g), their left columns and their
    forcing column formed apart, from samples of the whole grid."""
    d = A.shape[0]
    left = [-panel for panel in _coefficient_panels(A.entries, grid, 0, grid.n)]
    right = _coefficient_panels([[entry] for entry in g.components], grid, 0, grid.n)
    increments = np.empty((d, d + 1, grid.n), dtype=complex)
    _increments(left, left, grid.h, increments[:, :d])
    _increments(left, right, grid.h, increments[:, d:])
    return increments


def _chunk(n):
    """The chunk length c of an n-step pass and its padded column count,
    whole chunks with at least one column past step n - 1."""
    c = math.isqrt(n - 1) + 1
    return c, (n // c + 1) * c


def _full_square(top):
    """The (s, s, ...) batch-last arrays whose top rows are ``top`` and
    whose bottom rows are 0, as an augmented increment has."""
    d, s = top.shape[:2]
    full = np.zeros((s, s) + top.shape[2:], dtype=top.dtype)
    full[:d] = top
    return full


@pytest.mark.parametrize("n", [2, 3, 513, 1537, 2 * BLOCK_STEPS + 1, 16384, 16385])
def test_chunked_composition_matches_step_loop(n):
    # The whole pass is cut into chunks of c = isqrt(n - 1) + 1 steps, with
    # at least one zero increment of padding: n = 2 is one chunk and one of
    # padding, 3 two chunks of 2 (the last one padded), 16384 = 128 x 128
    # and one chunk of padding, and 16385 128 chunks of 129, the last one
    # padded with 127 zero increments.  ``_slot_tables`` reads the chunk
    # length off the work array and its chunk starts, so chunks of 7 steps
    # compose too.  It writes V and R over the work array, the state after
    # step i in column i + 1.
    A, g = _coupled_system()
    grid = _grid(n)
    rng = np.random.default_rng(n)
    # Two slots: the RK4 increments, and random increments of the size of
    # h whose product stays near I.
    members = [_system_increments(A, g, grid),
               (rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))) / n]
    # The reference steps the explicit (3, 3) augmented state from I.
    references = []
    for increments in members:
        expected = [np.eye(3, dtype=complex)]
        for D in _full_square(increments).transpose(2, 0, 1):
            expected.append(expected[-1] + D @ expected[-1])
        expected = np.stack(expected)
        np.testing.assert_array_equal(expected[:, 2], np.broadcast_to([0, 0, 1], (n + 1, 3)))
        references.append(expected)
    for c in (_chunk(n)[0], 7):
        for increments, expected in zip(members, references):
            w = np.zeros((2, 3, (n // c + 1) * c), dtype=complex)
            w[..., :n] = increments
            V, (R,) = _slot_tables(w, _compose(w, c), n)
            assert np.shares_memory(V, w) and np.shares_memory(R, w)
            got = np.concatenate([V, R[..., None]], axis=-1)
            assert (float(np.max(np.abs(got - expected[:, :2])))
                    <= 1e-13 * float(np.max(np.abs(expected))))


class _CountingNumpy:
    """numpy, with a count of its ``matmul`` calls."""

    def __init__(self):
        self.matmuls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        self.matmuls += 1
        return np.matmul(*args, **kwargs)


def test_carry_is_one_stacked_product_per_chunk(monkeypatch):
    # Slots of one, three and one columns, 26 steps in five chunks of 6: the
    # states of every column of a slot cross each chunk edge together, in
    # one product.
    rng = np.random.default_rng(26)
    work = [(rng.standard_normal((2, width, 30)) + 0j) / 26 for width in (3, 5, 3)]
    expected = [_compose(w.copy(), 6) for w in work]
    counting = _CountingNumpy()
    monkeypatch.setattr(linode, "np", counting)
    for w, want, G in zip(work, expected, (1, 3, 1)):
        counting.matmuls = 0
        starts = _compose(w, 6)
        assert counting.matmuls == 5
        assert starts.shape == (G, 5, 2, 3)
        np.testing.assert_array_equal(starts, want)


def _with_adjoint(systems):
    """``systems`` and, last, the adjoint of system 0 with zero forcing, as
    ``bvp._solve_pass`` propagates them for |V^-1|_C."""
    A = systems[0][0]
    return [*systems, (_adjoint(A), PolyVector.zero(A.shape[0], A.a, A.b))]


def _adjoint_inverse(table):
    """Z = V^-1 of system 0 from the [V | R] table of its adjoint."""
    return table[..., :-1].swapaxes(1, 2)


def _scanned_tables(systems, grid):
    """Every table of a pass, [V | R] of each system, as
    ``_reference_compose`` forms them one by one from the pass's increments
    of the whole grid."""
    d = systems[0][0].shape[0]
    return [_reference_compose(_full_square(_system_increments(A, g, grid)),
                               np.eye(d + 1, dtype=complex))[:, :d] for A, g in systems]


def _members(systems, grid):
    """(index, V, R) of every system of a ``_propagate`` pass, slot by slot."""
    for V, columns in _propagate(systems, grid):
        for R, indices in columns:
            for i in indices:
                yield i, V, R


def _pass_tables(systems, grid):
    """The tables of a ``_propagate`` pass in the order of ``systems``, each
    [V | R] (n+1, d, d+1), copied: a slot goes before the next is made."""
    tables = [None] * len(systems)
    for V, columns in _propagate(systems, grid):
        for R, indices in columns:
            for i in indices:
                tables[i] = np.concatenate([V, R[..., None]], axis=-1)
        del V, columns, R
    return tables


def _member_bytes(n, d=2):
    """Bytes of one member's work array, chunk padding included."""
    return _chunk(n)[1] * d * (d + 1) * 16


#: The coupled system's (d = 2) fill samples segments of this many steps.
SEGMENT = BLOCK_STEPS * (linode.SEGMENT_BYTES // (3 * 2 * 3 * BLOCK_STEPS * 16))
#: Grids on which the jumps of A and g at t = 1/2 lie on the edge of the
#: first or second segment (2k SEGMENT) or one step inside one
#: (2k SEGMENT +- 2), and that edge.
SEGMENT_EDGES = {2 * k * SEGMENT + e: k * SEGMENT for k in (1, 2) for e in (-2, 0, 2)}


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("n", [2, 3, 22, 23, 24, 26, 511, 512, 513, 1537, 2049, 16384, 16385,
                               *SEGMENT_EDGES])
def test_pass_tables_are_bitwise_the_per_block_scan(monkeypatch, n, K, inverse):
    # 22, 23 and 24 steps pad their last 5-step chunk by 3, 2 and 1; 26 is
    # five chunks of 6.  511, 512 and 513 straddle a block of increments,
    # 1537 and 2049 end in a one-step block after full ones; c divides
    # 16384, which takes a chunk of padding, and not 16385.  The reference
    # reads samples of the whole grid, the pass samples by segment.
    A, g = _coupled_system()
    systems = [(A, g), (approximate_coefficients(A, 1), g),
               (approximate_coefficients(A, 3), g * 2.0j)][:K]
    if inverse:
        systems = _with_adjoint(systems)
    grid = _grid(n)
    expected = _scanned_tables(systems, grid)
    edges, panels = {0}, linode._coefficient_panels

    def recording_panels(rows, grid, lo, hi):
        edges.add(lo)
        return panels(rows, grid, lo, hi)

    monkeypatch.setattr(linode, "_coefficient_panels", recording_panels)
    # Slots as wide as their groups, and then one column a slot.
    for cap in (linode.PASS_BYTES, _member_bytes(n)):
        monkeypatch.setattr(linode, "PASS_BYTES", cap)
        got = _pass_tables(systems, grid)
        assert len(got) == len(expected)
        for want, have in zip(expected, got):
            assert have.shape == want.shape
            np.testing.assert_array_equal(have, want)
    assert SEGMENT_EDGES.get(n, 0) in edges


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_batch_last_product_matches_matmul(s):
    rng = np.random.default_rng(s)

    def matrices(rows, cols, *batch):
        shape = (rows, cols) + batch
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def stacked(X):
        return np.moveaxis(X, (0, 1), (-2, -1))

    def check(A, B, full_B):
        expected = np.moveaxis(np.matmul(stacked(A), stacked(full_B)), (-2, -1), (0, 1))
        got = _mm(A, B)
        assert got.shape == expected.shape
        scale = np.moveaxis(np.matmul(stacked(np.abs(A)), stacked(np.abs(full_B))),
                            (-2, -1), (0, 1))
        assert np.all(np.abs(got - expected) <= 1e-15 * scale)

    # The shapes _increments and _compose multiply: two (d, s, L) blocks,
    # and the (d, s, chunks, c) prefix increments times the chunk starts,
    # with s = d + 1 against an explicit zero bottom row; s = d is a full product.
    for t in (s, s + 1):
        for A, B in ((matrices(s, t, 37), matrices(s, t, 37)),
                     (matrices(s, t, 5, 7), matrices(s, t, 5, 1))):
            check(A, B, _full_square(B))


def _reference_panel(F, t, left=False):
    """F at the points t, entry by entry, as (len(t), ...) with ... the shape
    of F: left-hand limits with ``left``, else values."""
    value = (lambda e: left_limit(e, t)) if left else (lambda e: e(t))
    if isinstance(F, PolyVector):
        return np.stack([value(c) for c in F.components], axis=-1)
    return np.stack([np.stack([value(e) for e in row], axis=-1) for row in F.entries], axis=-2)


def _reference_panels(F, grid):
    """F at the step starts (right limits), midpoints and step ends (left
    limits): three evaluations of every entry."""
    nodes = grid.nodes
    return (_reference_panel(F, nodes[:-1]),
            _reference_panel(F, grid.half_nodes),
            _reference_panel(F, nodes[1:], left=True))


def _reference_increments(A, g, grid):
    """The full-square (s, s, n) RK4 increments, bottom row included."""
    d = A.shape[0]
    panels = _reference_panels(A, grid)
    forcing = None if g is None else _reference_panels(g, grid)
    s = d + (g is not None)
    h = grid.h
    m0, mm, m1 = (np.zeros((s, s, grid.n), dtype=complex) for _ in panels)
    for m, panel in zip((m0, mm, m1), panels):
        np.negative(panel.transpose(1, 2, 0), out=m[:d, :d])
    if forcing is not None:
        for m, f in zip((m0, mm, m1), forcing):
            m[:d, d] = f.T
    k2 = mm + (0.5 * h) * _reference_mm(mm, m0)
    k3 = mm + (0.5 * h) * _reference_mm(mm, k2)
    k4 = m1 + h * _reference_mm(m1, k3)
    return (h / 6.0) * (m0 + 2.0 * (k2 + k3) + k4)


def _reference_mm(A, B):
    """Full-square batch-last product, summed over all A.shape[1] rows."""
    out = A[:, 0, None] * B[None, 0]
    for j in range(1, A.shape[1]):
        out += A[:, j, None] * B[None, j]
    return out


def _reference_compose(increments, start):
    """The chunked scan, kept as a bit-level oracle, on full-square
    (s, s, n) increments from an (s, s) start: the n steps are cut into
    chunks of c = isqrt(n - 1) + 1, the last one padded with zero
    increments; the chunks' prefix increments are formed, and the state
    carried from chunk to chunk.  Returns the (n+1, s, s) states."""
    s, n = start.shape[0], increments.shape[-1]
    c, padded = _chunk(n)
    D = np.zeros((s, s, padded), dtype=complex)
    D[..., :n] = increments
    D = D.reshape(s, s, -1, c)
    Q = np.empty_like(D)
    Q[..., 0] = D[..., 0]
    for j in range(1, c):
        Q[..., j] = Q[..., j - 1] + D[..., j] + _reference_mm(D[..., j], Q[..., j - 1])
    chunk_starts = np.empty((s, s, padded // c), dtype=complex)
    state = start
    for k in range(padded // c):
        chunk_starts[..., k] = state
        state = state + Q[..., k, -1] @ state
    U = chunk_starts[..., None] + _reference_mm(Q, chunk_starts[..., None])
    out = np.empty((n + 1, s, s), dtype=complex)
    out[0] = start
    out[1:] = U.reshape(s, s, padded)[..., :n].transpose(2, 0, 1)
    return out


def _assert_top_rows_match_full_square(A, g, grid):
    d = A.shape[0]
    s = d + 1
    full = _reference_compose(_reference_increments(A, g, grid), np.eye(s, dtype=complex))
    top = _pass_tables([(A, g)], grid)[0]
    assert top.shape == (grid.n + 1, d, s)
    np.testing.assert_array_equal(top, full[:, :d])
    np.testing.assert_array_equal(full[:, d:], np.broadcast_to(np.eye(s)[d:], full[:, d:].shape))


@pytest.mark.parametrize("name", ["p1", "p2", "p3"])
@pytest.mark.parametrize("n", [2048, 16384])
def test_top_rows_equal_full_square_propagation_on_corpus(name, n):
    problem = corpus.build_problem(name, n)
    P, g = companion_reduce(problem)[:2]
    _assert_top_rows_match_full_square(P, g, problem.grid)


@pytest.mark.parametrize("n", [2, 3, 513, 1025, 1537])
def test_top_rows_equal_full_square_propagation_on_coupled_system(n):
    A, g = _coupled_system()
    _assert_top_rows_match_full_square(A, g, _grid(n))


@pytest.mark.parametrize("name", ["p1", "p2", "p3"])
def test_inverse_fundamental_stays_inverse_on_the_fine_grid(name):
    problem = corpus.build_problem(name, 16384)
    P = companion_reduce(problem)[0]
    V = fundamental_matrix(P, problem.grid)
    Z = inverse_fundamental(P, problem.grid)
    defect = np.einsum("nij,njk->nik", Z, V) - np.eye(V.shape[1])
    assert float(np.max(np.abs(defect))) <= 1e-14


@pytest.mark.parametrize("n", [2049, 16385])
def test_inverse_fundamental_stays_inverse_across_a_jump_inside_a_step(n):
    # Z is the adjoint's matrizant, not V's step-by-step inverse: Z V = I
    # holds to the RK4 error and round-off, here with A's jump at 1/2
    # inside a step.
    A, _ = _coupled_system()
    grid = _grid(n)
    defect = (np.einsum("nij,njk->nik", inverse_fundamental(A, grid), fundamental_matrix(A, grid))
              - np.eye(2))
    assert float(np.max(np.abs(defect))) <= 1e-13


@pytest.mark.parametrize("lam", [1.0, 5.0, 10.0, 20.0])
def test_inverse_norm_of_the_growth_problem_matches_its_closed_form(lam):
    # y'' = lam^2 y: V^-1(t) = [[cosh lam t, -sinh(lam t)/lam],
    # [-lam sinh lam t, cosh lam t]], so |V^-1|_C = cosh lam + lam sinh lam.
    exact = math.cosh(lam) + lam * math.sinh(lam)
    errors = [abs(_solve_pass([growth_problem(lam, n)], inverse=True)[1] - exact) / exact
              for n in (2048, 16384)]
    assert errors[1] <= 1e-12
    # Fourth order reads 4096x; at lam <= 5 the n = 2048 error is near round-off.
    if lam >= 10.0:
        assert errors[1] * 1000.0 <= errors[0]


def test_augmented_pass_carries_matrizant_and_forced_trajectory():
    A, g = _coupled_system()
    for grid in (_grid(), _grid(1537)):
        augmented = _pass_tables([(A, g)], grid)[0]
        assert augmented.shape == (grid.n + 1, 2, 3)
        np.testing.assert_array_equal(augmented[:, :, :2], fundamental_matrix(A, grid))
        np.testing.assert_array_equal(augmented[:, :, 2], forced_trajectory(A, g, grid))


def _reference_inverse(A, grid):
    """Z = V^-1 by one pass of its own: the full-square scan of the
    increments of (-A^T, None), transposed."""
    eye = np.eye(A.shape[0], dtype=complex)
    return _reference_compose(_reference_increments(_adjoint(A), None, grid), eye).swapaxes(1, 2)


def _assert_family_equals_single_passes(systems, grid):
    tables = _pass_tables(_with_adjoint(systems), grid)
    assert len(tables) == len(systems) + 1
    for (A, g), got in zip(systems, tables):
        np.testing.assert_array_equal(got, _pass_tables([(A, g)], grid)[0])
    # Z of the first system, from its adjoint's table in the family pass, is
    # Z from the adjoint's increments alone.
    Z = _adjoint_inverse(tables[-1])
    np.testing.assert_array_equal(Z, inverse_fundamental(systems[0][0], grid))
    np.testing.assert_array_equal(Z, _reference_inverse(systems[0][0], grid))


@pytest.mark.parametrize("name", ["p1", "p2", "p3"])
@pytest.mark.parametrize("n", [2048, 16384])
def test_family_pass_equals_one_member_passes_on_corpus(name, n):
    # The limit problem, its k-th approximations and their sawtooth
    # perturbations, as a sweep and a theorem 3 check propagate them.
    problem = corpus.build_problem(name, n)
    ks = (4, 32, 256)
    members = [problem] + [build_multipoint_problem(problem, k) for k in ks]
    members += [build_multipoint_problem(problem, k, f=f) for k, f, _ in
                sawtooth_rhs(problem, ks, 1e-3)]
    systems = [companion_reduce(p)[:2] for p in members]
    _assert_family_equals_single_passes(systems, problem.grid)


@pytest.mark.parametrize("n, wide", [
    *(pytest.param(n, False, id=str(n)) for n in (2, 3, 513, 1537)),
    pytest.param(1537, True, id="1537-wide"),
])
def test_family_pass_equals_one_member_passes_on_coupled_system(monkeypatch, n, wide):
    # 513 and 1537 end in a padded chunk of 7 and 17 steps.  The wide family
    # gives A eight more forcings: a slot of nine forcing columns, whose
    # tables are formed in one loop over 39 chunks of 40 steps, 12 a block.
    A, g = _coupled_system()
    systems = [(A, g), (approximate_coefficients(A, 1), g),
               (approximate_coefficients(A, 3), g * 2.0j)]
    systems += [(A, g * (k + 0.5j)) for k in range(8 if wide else 0)]
    slots, slot_tables = [], linode._slot_tables

    def recording_slot_tables(work, starts, n):
        slots.append((work.shape[1] - 2, starts.shape[1]))
        return slot_tables(work, starts, n)

    monkeypatch.setattr(linode, "_slot_tables", recording_slot_tables)
    _assert_family_equals_single_passes(systems, _grid(n))
    if wide:
        c, padded = _chunk(n)
        assert (9, padded // c) in slots
        assert padded // c > 2 * (BLOCK_STEPS // c) and n % c


def _record_slots(monkeypatch):
    """Record, per slot as it is composed, its forcing columns G and the
    bytes of every work array the pass still holds, its own included."""
    slots, live, compose = [], [], linode._compose

    def recording_compose(work, c):
        live.append(weakref.ref(work))
        held = sum(ref().nbytes for ref in live if ref() is not None)
        slots.append((work.shape[1] - work.shape[0], held))
        return compose(work, c)

    monkeypatch.setattr(linode, "_compose", recording_compose)
    return slots


@pytest.mark.parametrize("tables_per_pass", [1, 2])
def test_family_passes_hold_at_most_the_byte_cap(monkeypatch, tables_per_pass):
    A, g = _coupled_system()
    grid = _grid(1537)
    # Five members and the adjoint of the first, six one-member groups: six
    # slots of one column, whatever the cap, made one at a time.
    systems = _with_adjoint([(approximate_coefficients(A, k), g) for k in (1, 2, 3, 4, 5)])
    expected = _pass_tables(systems, grid)
    member_bytes = _member_bytes(grid.n)
    cap = tables_per_pass * member_bytes + member_bytes // 2
    monkeypatch.setattr(linode, "PASS_BYTES", cap)
    slots = _record_slots(monkeypatch)
    got = _pass_tables(systems, grid)
    for want, have in zip(expected, got, strict=True):
        np.testing.assert_array_equal(have, want)
    # The pass holds one slot, at most the cap, at a time.
    assert slots == [(1, member_bytes)] * len(systems)
    assert member_bytes <= cap


def test_pass_byte_cap_counts_the_chunk_padding(monkeypatch):
    # At n = 26 a member's work holds five chunks of 6 steps, 30 columns
    # against 26 steps and 27 nodes: a cap of nine members' work fits nine
    # forcing columns, where a count without the padding would fit ten.
    # The members share A, so their eleven columns are cut into two slots.
    A, g = _coupled_system()
    grid = _grid(26)
    assert _chunk(grid.n) == (6, 30)
    member_bytes = _member_bytes(grid.n)
    monkeypatch.setattr(linode, "PASS_BYTES", 9 * member_bytes)
    slots = _record_slots(monkeypatch)
    tables = _pass_tables([(A, g * (k + 0.5j)) for k in range(11)], grid)
    assert len(tables) == 11
    column_bytes = member_bytes // 3
    assert slots == [(9, 11 * column_bytes), (2, 4 * column_bytes)]


@pytest.mark.parametrize("n", [3, 26, 513, 16385])
def test_chunk_padding_holds_zero_increments(monkeypatch, n):
    # Every column past step n - 1 must be 0 when a slot is composed.
    # Freed arrays of the work arrays' size, full of NaN, are left for the
    # allocator to hand back, so that an array that is not zeroed shows.
    A, g = _coupled_system()
    composed, compose = [], linode._compose

    def recording_compose(work, c):
        composed.append(work[..., n:].copy())
        return compose(work, c)

    monkeypatch.setattr(linode, "_compose", recording_compose)
    for _ in range(3):
        junk = [np.full((2, width, _chunk(n)[1]), np.nan, dtype=complex) for width in (3, 4) * 4]
        del junk
        _pass_tables(_with_adjoint([(A, g), (A, g * 2.0)]), _grid(n))
    assert [padding.shape[1] for padding in composed] == [4, 3] * 3
    assert not any(padding.any() for padding in composed)


def _p2_mixed_problems(n=2048):
    """p2 with k in {3, 4, 7, 8} and their sawtooth members, and p2 with
    its coefficients halved: only the limit and the even k share the bits
    of their companion A, and the halved one shares its breakpoints but
    not its table."""
    problem = corpus.build_problem("p2", n)
    ks = (3, 4, 7, 8)
    members = [problem] + [build_multipoint_problem(problem, k) for k in ks]
    members += [build_multipoint_problem(problem, k, f=f) for k, f, _ in
                sawtooth_rhs(problem, ks, 1e-3)]
    halved = [PolyMatrix([[e * 0.5 for e in row] for row in A.entries]) for A in problem.coeffs]
    return members + [dataclasses.replace(problem, coeffs=halved)]


def test_mixed_groups_equal_one_member_passes():
    problems = _p2_mixed_problems()
    systems = _with_adjoint([companion_reduce(p)[:2] for p in problems])
    grid = problems[0].grid
    got = {i: out for i, *out in _members(systems, grid)}
    assert sorted(got) == list(range(len(systems)))
    for i, (A, g) in enumerate(systems):
        (_, *alone), = _members([(A, g)], grid)
        for have, want in zip(got[i], alone, strict=True):
            np.testing.assert_array_equal(have, want)
    Z = got[10][0].swapaxes(1, 2)
    np.testing.assert_array_equal(Z, inverse_fundamental(systems[0][0], grid))
    np.testing.assert_array_equal(Z, _reference_inverse(systems[0][0], grid))
    # The limit, k = 4 and 8 and their sawtooth members share one V; k = 3
    # and 7 share one each with their sawtooth member; the halved A and the
    # adjoint have their own.
    shared = {i: next(j for j in got if got[j][0] is got[i][0]) for i in got}
    assert shared == {0: 0, 1: 1, 2: 0, 3: 3, 4: 0, 5: 1, 6: 0, 7: 3, 8: 0, 9: 9, 10: 10}


def test_mixed_family_solves_as_one_member_solves():
    # Each member's top channel is its own: it evaluates the bottom row of
    # its own companion system, so members that share V but not f (the
    # sawtooth members) or share f but not A (the halved problem) must
    # each solve as they do alone.
    problems = _p2_mixed_problems()
    solutions, _ = _solve_pass(problems)
    assert len(solutions) == len(problems)
    for problem, together in zip(problems, solutions, strict=True):
        alone = solve(problem)
        for have, want in zip(together.jet.samples, alone.jet.samples, strict=True):
            np.testing.assert_array_equal(have, want)
        assert together.consistency_defect == alone.consistency_defect
        assert together.boundary_residual == alone.boundary_residual


def test_a_solution_forms_its_consistency_defect_once_it_is_read(monkeypatch):
    # No certificate reads a member's defect, so the pass forms none; a
    # solution forms its own from its finished jet, once.
    defect, calls = SampledJet.consistency_defect, []
    monkeypatch.setattr(SampledJet, "consistency_defect", lambda jet: calls.append(jet) or defect(jet))
    solutions, _ = _solve_pass(_p2_mixed_problems())
    assert calls == []
    first = solutions[0]
    assert first.consistency_defect == first.consistency_defect == defect(first.jet)
    assert len(calls) == 1 and calls[0] is first.jet and first.jet.r == 2


def test_group_wider_than_the_byte_cap_splits_over_passes(monkeypatch):
    # One A with seven forcings and the adjoint, under a cap of nine
    # work-array columns, three narrow slots: three forcings (2 + 3) in each
    # of the first two slots, then the last forcing (2 + 1), then the
    # adjoint's slot (2 + 1).
    A, g = _coupled_system()
    grid = _grid(1537)
    systems = _with_adjoint([(A, g * (k + 0.5j)) for k in range(7)])
    expected = [_pass_tables([system], grid)[0] for system in systems]
    column_bytes = _member_bytes(grid.n) // 3
    monkeypatch.setattr(linode, "PASS_BYTES", 9 * column_bytes + column_bytes // 2)
    slots = _record_slots(monkeypatch)
    got = _pass_tables(systems, grid)
    assert slots == [(3, 5 * column_bytes), (3, 5 * column_bytes), (1, 3 * column_bytes),
                     (1, 3 * column_bytes)]
    for want, have in zip(expected, got, strict=True):
        np.testing.assert_array_equal(have, want)
    np.testing.assert_array_equal(_adjoint_inverse(got[-1]), _reference_inverse(A, grid))


def test_a_slot_work_array_is_its_tables_and_goes_with_them(monkeypatch):
    # Three groups: the slot of (A, g) and (A, 2g), that of A/2 and that of
    # the adjoint of A.  V and every R of a slot are views of its work array
    # and of no other, and the pass keeps no reference to a slot it has
    # yielded: once its consumer drops the tables, the work array goes.
    A, g = _coupled_system()
    half = PolyMatrix([[e * 0.5 for e in row] for row in A.entries])
    systems = _with_adjoint([(A, g), (A, g * 2.0), (half, g)])
    slots, compose = [], linode._compose

    def recording_compose(work, c):
        slots.append(weakref.ref(work))
        return compose(work, c)

    monkeypatch.setattr(linode, "_compose", recording_compose)
    released, views, members = [], [], []
    for V, columns in _propagate(systems, _grid(1537)):
        members.append([indices for _, indices in columns])
        views.append([[np.shares_memory(table, ref()) for table in (V, *(R for R, _ in columns))]
                      for ref in slots if ref() is not None])
        del V, columns
        gc.collect()
        released.append([ref() is None for ref in slots])
    assert members == [[[0], [1]], [[2]], [[3]]]
    assert views == [[[True, True, True]], [[True, True]], [[True, True]]]
    assert released == [[True], [True, True], [True, True, True]]


def test_slot_is_dead_before_the_next_one_is_filled(monkeypatch):
    # A certificate's family over p2 with k in {3, 4, 7, 8}, the halved
    # problem and the adjoint: five slots.  Each slot's work array, V and R
    # are gone when the next slot's work array is filled, so a pass holds
    # one slot at a time.
    dead, slots, fill = [], [], linode._fill

    def recording_fill(work, *args):
        dead.append([ref() is None for ref in slots])
        slots.append(weakref.ref(work))
        return fill(work, *args)

    monkeypatch.setattr(linode, "_fill", recording_fill)
    problems = _p2_mixed_problems()
    solutions, w_c = _solve_pass(problems, inverse=True)
    assert w_c is not None
    assert dead == [[True] * k for k in range(5)]
    alone, _ = _solve_pass(problems)
    for together, single in zip(solutions, alone, strict=True):
        for have, want in zip(together.jet.samples, single.jet.samples, strict=True):
            np.testing.assert_array_equal(have, want)


def test_pass_holds_one_segment_of_coefficient_samples():
    # Samples of the whole grid, three (d, d + 1, n) panels (19 MB here),
    # would exceed the bound; a segment's are about 0.6 MB.  The pass hands
    # over V and R, views of its one work array, and nothing else: with
    # the tables formed beside the work array, and segments twice as long,
    # the pass peaked at 12.3 MiB here.
    A, g = _coupled_system()
    grid = _grid(65536)
    d = 2
    bound = _member_bytes(grid.n) + 1.25 * 2**20
    assert 3 * d * (d + 1) * grid.n * 16 > 18 * 10**6
    grid.nodes, grid.half_nodes  # cached before the count, as a solve finds them
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = list(_propagate([(A, g)], grid))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(out) == 1
    assert peak < bound


def test_many_group_sweep_holds_one_slot_at_a_time():
    # p2's odd k do not share the limit's A: the limit, each k and the
    # adjoint are groups of their own, nine slots of 1.5 MiB at n = 16384.
    # With every slot of the family held together, the traced peak of this
    # sweep read 14.65 MiB; one slot at a time, 10.3 MiB.
    problem = corpus.build_problem("p2", 16384)
    problem.grid.nodes, problem.grid.half_nodes  # cached before the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = sweep(problem, [3, 5, 7, 9, 11, 13, 15])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert [row.k for row in report.rows] == [3, 5, 7, 9, 11, 13, 15]
    assert peak < 11.5 * 2**20


KS_4_256 = (4, 8, 16, 32, 64, 128, 256)


@pytest.mark.parametrize("name, ks, forcings", [
    ("p1", KS_4_256, [8, 1]),
    ("p2", KS_4_256, [8, 1]),
    ("p3", KS_4_256, [8, 1]),
    ("p2", (3, 4, 7, 8), [3, 1, 1, 1]),
    ("p3", (3, 4, 7, 8), [5, 1]),
])
def test_theorem3_family_samples_each_coefficient_group_once(monkeypatch, name, ks, forcings):
    # A theorem 3 check propagates the limit problem, one sawtooth member
    # per k and the limit's adjoint in one pass: each group is one fill,
    # with one forcing column per distinct f, that samples A once, with its
    # first f, and then each other f.  p2's odd k do not share the limit's
    # A, and the adjoint, last, is a group of its own.
    fills, samplings = [], []
    fill, panels = linode._fill, linode._coefficient_panels

    def counting_fill(work, A, fs, *args):
        fills.append(len(fs))
        return fill(work, A, fs, *args)

    def counting_panels(rows, *args):
        samplings.append(len(rows[0]))
        return panels(rows, *args)

    monkeypatch.setattr(linode, "_fill", counting_fill)
    monkeypatch.setattr(linode, "_coefficient_panels", counting_panels)
    problem = corpus.build_problem(name, 2048)
    report = theorem3_check(problem, sawtooth_rhs(problem, ks, 1e-3), 1e-3)
    assert report.ok
    assert fills == forcings
    d = problem.r * problem.m
    assert samplings == [width for G in forcings for width in [d + 1] + [1] * (G - 1)]
