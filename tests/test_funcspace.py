"""Piecewise polynomials, grids, jets, and the norm conventions."""

import ast
import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpbvp import (
    BoundaryOperator,
    BoundaryTerm,
    Grid,
    MatrixMeasure,
    PiecewisePoly,
    PolyMatrix,
    PolyVector,
    SampledJet,
    ScalarMeasure,
    lift,
    mat_norm,
    norm_cl,
    norm_w1r,
    traj_norm_c,
    vec_norm,
)
from mpbvp import (
    approximate_coefficients,
    build_multipoint_problem,
    companion_reduce,
    corpus,
    sawtooth_rhs,
)
from mpbvp.funcspace import (MAX_GRID_N, _GAUSS_W, _GAUSS_X, _cubic_stencil, _Entries,
                             _equal_partition, _fractional_index, _horner, _located, _merge_tol,
                             _piece_abs_integral, _place_points)
from oracles import exact_integral, interval_integral, left_limit


# -- layering ----------------------------------------------------------------


def _package_imports(module_name):
    """The mpbvp modules that a module's source imports from, at any depth."""
    tree = ast.parse(Path(importlib.import_module(f"mpbvp.{module_name}").__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mpbvp."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("mpbvp."))
    return found


@pytest.mark.parametrize("name", ["funcspace", "stieltjes", "boundary"])
def test_data_modules_import_no_solver_module(name):
    # Grids, polynomials, measures and boundary operators are the layer
    # that the propagator, the solver and the tools build on.
    solver = {"linode", "bvp", "approx", "problemfile", "corpus", "cli"}
    assert not _package_imports(name) & solver


# -- grids -------------------------------------------------------------------


def test_grid_nodes_and_spacing():
    grid = Grid(0.0, 1.0, 4)
    np.testing.assert_allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(grid.half_nodes, [0.125, 0.375, 0.625, 0.875])
    assert grid.h == 0.25


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 8)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 1)
    for n in (MAX_GRID_N + 1, 10**400, float("inf"), float("nan"), 2.5):
        with pytest.raises(ValueError, match="grid needs an integer n"):
            Grid(0.0, 1.0, n)
    assert Grid(0.0, 1.0, MAX_GRID_N).h == 1.0 / MAX_GRID_N


@pytest.mark.parametrize("call, message", [
    (lambda grid: Grid(0.0, float("inf"), 8), "grid endpoints must be finite"),
    (lambda grid: SampledJet(grid, 1, 0, [np.zeros(8)]),
     "channel 0 has shape (8, 1), expected (9, 1)"),
    (lambda grid: SampledJet(grid, 1, 1, [np.zeros(9), np.full(9, np.nan)]),
     "channel 1 contains non-finite samples"),
    (lambda grid: SampledJet(grid, 1, 1, [np.zeros(9)]), "order-1 jet needs 2 channels, got 1"),
])
def test_a_bad_grid_or_jet_is_refused(call, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        call(Grid(0.0, 1.0, 8))

def test_grid_refuses_a_float_n():
    # An integral float once passed, and solve then died slicing with it.
    for n in (2048.0, np.float64(16.0), "16"):
        with pytest.raises(ValueError, match="grid needs an integer n"):
            Grid(0.0, 1.0, n)


def test_grid_stores_an_integer_type_n_as_an_int():
    grid = Grid(0.0, 1.0, np.int64(16))
    assert type(grid.n) is int
    assert grid == Grid(0.0, 1.0, 16) and hash(grid) == hash(Grid(0.0, 1.0, 16))


# -- piecewise polynomials ---------------------------------------------------


def test_evaluation_sides_at_breakpoints():
    p = PiecewisePoly.step([0.0, 0.5, 1.0], [1.0, 2.0])
    assert p(0.5) == 2.0                      # interior breakpoint: right piece
    assert left_limit(p, 0.5) == 1.0
    assert p(1.0) == 2.0                      # the right endpoint has no right piece
    assert p(0.0) == 1.0


def _polyval_per_piece(p, t, side):
    """Reference evaluation: one polyval call per piece."""
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    idx = np.clip(np.searchsorted(p.breakpoints, tt, side=side) - 1, 0, p.npieces - 1)
    out = np.zeros(tt.shape, dtype=complex)
    for j in np.unique(idx):
        mask = idx == j
        out[mask] = np.polynomial.polynomial.polyval(tt[mask], p.coeffs[j])
    return out


def _bits(values):
    return np.asarray(values, dtype=complex).reshape(-1).view(np.uint64)


def test_evaluation_is_bitwise_per_piece_polyval():
    rng = np.random.default_rng(7)
    bp = [-1.0, -0.25, 0.0, 0.5, 1.5, 2.0]
    coeffs = [rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
              for deg in (0, 3, 8, 1, 5)]
    coeffs[1][0] = -0.0
    p = PiecewisePoly(bp, coeffs)
    t = np.concatenate([bp, rng.uniform(-1.0, 2.0, 500), [-3.0, -1.5, 2.5, 4.0]])
    # The left-hand limit is the oracle's: the package evaluates on the right.
    for side, evaluate in (("right", p), ("left", lambda x: left_limit(p, x))):
        np.testing.assert_array_equal(_bits(evaluate(t)), _bits(_polyval_per_piece(p, t, side)))
        for x in (-1.5, -0.25, 0.5, 2.0, 3.0):
            value = evaluate(x)
            assert np.ndim(value) == 0
            np.testing.assert_array_equal(_bits(value), _bits(_polyval_per_piece(p, x, side)))


def test_integrate_exact_polynomial():
    p = PiecewisePoly.single([0.0, 0.0, 0.0, 1.0], 0.0, 1.0)  # t^3
    assert abs(interval_integral(p, 0.0, 1.0) - 0.25) <= 1e-15
    assert abs(interval_integral(p, 0.25, 0.75) - (0.75 ** 4 - 0.25 ** 4) / 4) <= 1e-15


def test_abs_integral_splits_at_roots():
    # |t^2 - 1/4| integrates to exactly 1/4 over [0, 1]
    p = PiecewisePoly.single([-0.25, 0.0, 1.0], 0.0, 1.0)
    assert abs(p.abs_integral() - 0.25) <= 1e-12


def test_abs_integral_complex_coefficients():
    # |i t| integrates like |t|
    p = PiecewisePoly.single([0.0, 1j], 0.0, 1.0)
    assert abs(p.abs_integral() - 0.5) <= 1e-12


def test_arithmetic_merges_breakpoints():
    p = PiecewisePoly.step([0.0, 0.5, 1.0], [1.0, 2.0])
    q = PiecewisePoly.step([0.0, 0.25, 1.0], [10.0, 20.0])
    s = p + q
    assert s(0.1) == 11.0
    assert s(0.3) == 21.0
    assert s(0.7) == 22.0
    d = p - q
    assert d(0.7) == -18.0
    assert (2.0 * p)(0.7) == 4.0
    assert (-p)(0.7) == -2.0


def test_degree_cap_enforced():
    with pytest.raises(ValueError):
        PiecewisePoly.single(np.ones(10), 0.0, 1.0)


def _binary_per_piece(p, q, sign):
    """Reference sum: the merge loop, one midpoint lookup per merged piece."""
    tol = 1e-12 * max(p.b - p.a, 1.0)
    merged = np.unique(np.concatenate([p.breakpoints, q.breakpoints]))
    keep = [merged[0]]
    for t in merged[1:]:
        if t - keep[-1] > tol:
            keep.append(t)
    keep[0], keep[-1] = p.a, p.b
    coeffs = []
    for lo, hi in zip(keep[:-1], keep[1:]):
        mid = 0.5 * (lo + hi)
        ca, cb = (x.coeffs[min(max(int(np.searchsorted(x.breakpoints, mid, side="right")) - 1,
                                   0), x.npieces - 1)] for x in (p, q))
        out = np.zeros(max(ca.size, cb.size), dtype=complex)
        out[:ca.size] += ca
        out[:cb.size] += sign * cb
        coeffs.append(out)
    return keep, coeffs


def _random_poly(rng, breakpoints, degrees):
    return PiecewisePoly(breakpoints, [rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
                                       for d in degrees])


def test_sum_is_bitwise_the_per_piece_merge():
    rng = np.random.default_rng(11)
    tol = 1e-12
    # Merged points 0.5 + (0, 0.6, 1.2, 1.8) tol: measured against the last
    # kept point 0.5 + 1.2 tol survives; measured against the previous merged
    # point every one after 0.5 would go.
    chain_p = _random_poly(rng, [0.0, 0.5, 0.5 + 1.2 * tol, 0.8, 1.0], [2, 0, 8, 1])
    chain_q = _random_poly(rng, [0.0, 0.5 + 0.6 * tol, 0.5 + 1.8 * tol, 1.0], [0, 3, 5])
    wide = _random_poly(rng, np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 30)])),
                        rng.integers(0, 9, 31))
    steps = PiecewisePoly.step(np.linspace(0.0, 1.0, 9), rng.standard_normal(8))
    shared = _random_poly(rng, [0.0, 0.25, 0.5, 1.0], [1, 4, 0])
    for p, q in [(chain_p, chain_q), (wide, steps), (steps, wide), (shared, steps),
                 (wide, shared), (shared, shared)]:
        for sign, result in ((1.0, p + q), (-1.0, p - q)):
            keep, coeffs = _binary_per_piece(p, q, sign)
            np.testing.assert_array_equal(result.breakpoints.view(np.uint64),
                                          np.asarray(keep).view(np.uint64))
            assert [c.size for c in result.coeffs] == [c.size for c in coeffs]
            for got, want in zip(result.coeffs, coeffs):
                np.testing.assert_array_equal(_bits(got), _bits(want))
    kept = (chain_p + chain_q).breakpoints
    np.testing.assert_array_equal(kept, [0.0, 0.5, 0.5 + 1.2 * tol, 0.8, 1.0])


def test_sum_overflowing_to_inf_is_rejected():
    big = PiecewisePoly.step([0, 1], [1e308])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        big + big


def test_integrals_match_per_interval_antiderivatives():
    rng = np.random.default_rng(5)
    bp = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, 11)), [2.0]])
    # Positive coefficients on t >= 0: no cancellation, so 1e-15 is a few ulps.
    # Integrals that differenced the global antiderivative read 9.0e-15 here.
    p = PiecewisePoly(bp, [rng.uniform(0.1, 1.0, d + 1) + 1j * rng.uniform(0.1, 1.0, d + 1)
                           for d in rng.integers(0, 9, 12)])
    edges = np.sort(np.concatenate([[-0.5, 0.0, 2.0, 2.5], bp[[3, 3, 7]],
                                    rng.uniform(0.0, 2.0, 5)]))
    got = p.integrals(edges)
    assert got.shape == (edges.size - 1,)
    for (c, d), value in zip(zip(edges[:-1], edges[1:]), got):
        want = exact_integral(p, c, d)
        assert abs(value - want) <= 1e-15 * abs(want), (c, d)
    assert p.integrals([0.3, 0.3])[0] == 0.0
    with pytest.raises(ValueError):
        p.integrals([0.5, 0.4])


def test_integrals_far_from_zero_are_cancellation_free():
    # A linear piece on [1000, 1001]: integrals that differenced the global
    # antiderivative lost log10(1000 k) digits, 4.8e-11 of width * sup here.
    p = PiecewisePoly.single([0.3 + 0.7j, 0.2 - 0.1j], 1000.0, 1001.0)
    edges = _equal_partition(1000.0, 1001.0, 1024)
    sup = np.abs(p(edges)).max()
    for (c, d), value in zip(zip(edges[:-1], edges[1:]), p.integrals(edges)):
        assert abs(value - exact_integral(p, c, d)) <= 1e-15 * (d - c) * sup, (c, d)


def test_parts_leave_no_empty_part_at_a_breakpoint_on_an_edge():
    # A breakpoint on an edge splits nothing: each cell beside it is one part,
    # which the interval means read as covering it, whatever side the
    # constant piece is on.  A breakpoint at 0.45, inside a cell, adds a part.
    for pieces in ([[0.3], [0.1, 0.2, 0.3, 0.4]], [[0.1, 0.2, 0.3, 0.4], [0.3]]):
        p = PiecewisePoly([0.0, 0.5, 1.0], pieces)
        widths, _, first = p._parts(_equal_partition(0.0, 1.0, 10))
        assert first.tolist() == list(range(11)) and (widths > 0).all()
        widths, _, first = PiecewisePoly([0.0, 0.45, 1.0], pieces)._parts(
            _equal_partition(0.0, 1.0, 10))
        assert first.tolist() == list(range(5)) + list(range(6, 12)) and (widths > 0).all()


def _abs_integral_per_piece(p, c, d):
    """Reference |.| integral: root splitting and quadrature on every piece,
    the pieces' values summed exactly."""
    values = []
    for j in range(p.npieces):
        lo, hi = max(c, p.breakpoints[j]), min(d, p.breakpoints[j + 1])
        if hi > lo:
            values.append(_piece_abs_integral(p.coeffs[j], lo, hi))
    return math.fsum(values)


def _restricted(p, c, d):
    """The pieces of p that meet [c, d], cut to it: a polynomial on [c, d]."""
    keep = (p.breakpoints[1:] > c) & (p.breakpoints[:-1] < d)
    ends = np.clip(p.breakpoints[1:], c, d)[keep]
    return PiecewisePoly([c, *ends], [coeffs for coeffs, k in zip(p.coeffs, keep) if k])


def test_abs_integral_of_constant_pieces_matches_quadrature():
    problem = corpus.build_problem("p1", 2048)
    [(_, f_k, _)] = sawtooth_rhs(problem, [64], 1e-3)
    diff = (f_k - problem.f).components[0]
    assert diff.npieces > 64 and not diff.table[:, 1:].any()   # every piece is constant
    steps = PiecewisePoly.step([0.0, 0.3, 0.7, 1.0], [3.0 + 4.0j, -1.5j, 2.0 - 2.0j])
    mixed = PiecewisePoly([0.0, 0.3, 0.5, 1.0], [[1.0 - 1.0j], [0.5, -2.0, 1j], [0.0, 0.0]])
    for p, c, d in [(diff, diff.a, diff.b), (steps, 0.0, 1.0), (steps, 0.1, 0.8),
                    (mixed, 0.0, 1.0), (mixed, 0.2, 0.9)]:
        want = _abs_integral_per_piece(p, c, d)
        assert abs(_restricted(p, c, d).abs_integral() - want) <= 1e-15 * want
    assert abs(steps.abs_integral() - (5.0 * 0.3 + 1.5 * 0.4 + 8.0 ** 0.5 * 0.3)) <= 1e-15 * 3.0


@given(
    cut=st.floats(0.1, 0.9),
    v1=st.floats(-5, 5),
    v2=st.floats(-5, 5),
    t=st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_addition_matches_pointwise(cut, v1, v2, t):
    p = PiecewisePoly.step([0.0, cut, 1.0], [v1, v2])
    q = PiecewisePoly.single([0.5, -1.0, 2.0], 0.0, 1.0)
    assert abs((p + q)(t) - (p(t) + q(t))) <= 1e-12 * (abs(v1) + abs(v2) + 4.0)


# -- grid samples ------------------------------------------------------------


def _on_the_nodes(p, grid):
    """p, on the grid's [a, b], with each interior breakpoint that the node
    rule puts on a node moved onto it, onto b at node n and onto the node's
    bits elsewhere, and the pieces this leaves empty dropped."""
    bp = np.clip(p.breakpoints, grid.a, grid.b)
    i, on = _located(grid, bp)
    bp[1:-1] = np.where(on, np.where(i == grid.n, grid.b, grid.nodes[i]), bp)[1:-1]
    keep = bp[1:] > bp[:-1]
    return PiecewisePoly._from_table(np.concatenate([bp[:1], bp[1:][keep]]),
                                     p.table[keep], p.widths[keep])


def _assert_grid_samples_are_three_evaluations(p, grid):
    """grid_samples against one evaluation per node set of p with its
    breakpoints moved where the node rule reads them (``_on_the_nodes``):
    the nodes (right limits), the step ends (left limits) and the
    midpoints.  Bytes are compared, because array_equal takes -0.0 for 0.0."""
    nodes, on_nodes = grid.nodes, _on_the_nodes(p, grid)
    want = (on_nodes(nodes), left_limit(on_nodes, nodes[1:]), on_nodes(grid.half_nodes))
    for have, expected in zip(p.grid_samples(grid), want):
        assert have.shape == expected.shape
        assert have.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ["p1", "p2", "p3"])
def test_grid_samples_of_corpus_coefficients(name):
    # The entries of P and g of the limit problem, its k-th approximations
    # and their sawtooth forcings, as a theorem 3 check samples them.
    problem = corpus.build_problem(name, 2048)
    ks = (1, 4, 256)
    members = [problem] + [build_multipoint_problem(problem, k) for k in ks]
    members += [build_multipoint_problem(problem, k, f=f) for k, f, _ in
                sawtooth_rhs(problem, ks, 1e-3)]
    for member in members:
        P, g = companion_reduce(member)[:2]
        for entry in [e for row in P.entries for e in row] + g.components:
            _assert_grid_samples_are_three_evaluations(entry, problem.grid)


def _random_pieces(rng, grid, kind):
    """A piecewise polynomial on the grid's interval whose breakpoints lie
    on nodes, on midpoints, off the grid, or near nodes: within the node
    rule's tolerance of one, a and b included, with two near the first."""
    a, b, n = grid.a, grid.b, grid.n
    count = int(rng.integers(1, min(n, 12) + 1))
    if kind == "nodes":
        inner = grid.nodes[rng.choice(np.arange(1, n), size=min(count, n - 1), replace=False)]
    elif kind == "midpoints":
        inner = grid.half_nodes[rng.choice(n, size=count, replace=False)]
    elif kind == "near":
        at = grid.nodes[rng.integers(0, n + 1, size=count)]
        inner = np.concatenate([at, at[:1]]) + rng.uniform(-0.9, 0.9, count + 1) * _merge_tol(a, b)
        inner = inner[(inner > a) & (inner < b)]
    else:
        inner = rng.uniform(a, b, size=count)
    bp = np.concatenate([[a], np.unique(inner), [b]])
    pieces = [rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
              for deg in rng.integers(0, 4, size=bp.size - 1)]
    return PiecewisePoly(bp, pieces)


@pytest.mark.parametrize("n", [2, 3, 513, 1537])
@pytest.mark.parametrize("interval", [(0.0, 1.0), (-1.5, 0.5)])
def test_grid_samples_are_three_evaluations(n, interval):
    rng = np.random.default_rng(n)
    grid = Grid(*interval, n)
    a, b = interval
    cases = [_random_pieces(rng, grid, kind) for kind in ("nodes", "midpoints", "off", "near")
             for _ in range(8)]
    # One piece; equal rows on several pieces, one of them wider.
    cases += [PiecewisePoly.single([0.5, -2.0j, 1.0], a, b),
              PiecewisePoly.constant(-1.0, a, b),
              PiecewisePoly(grid.nodes[[0, n // 2, n]], [[0.5, 2.0], [0.5, 2.0, 0.0]]),
              PiecewisePoly([a, 0.5 * (a + b), b], [[0.0], [-0.0]])]
    # All-zero pieces: interval means of a zero coefficient, their negation,
    # whose rows of -0.0 evaluate to -0.0 at t < 0, and rows that differ
    # only in the sign of a zero part.
    for k in (2, 3, n):
        means = approximate_coefficients(PolyMatrix.zero(1, 1, a, b), k).entries[0][0]
        cases += [means, -means]
    cases.append(PiecewisePoly.step(grid.nodes[[0, 1, n]],
                                    [complex(-0.0, 0.0), complex(0.0, -0.0)]))
    for p in cases:
        _assert_grid_samples_are_three_evaluations(p, grid)


@pytest.mark.parametrize("n", [3, 513, 1537])
def test_grid_samples_over_a_node_range_are_slices_of_the_whole_grid(n):
    # Ranges whose first or last node is a breakpoint on a node, one step
    # off one, a single step, and the whole grid.  Bytes are compared.
    rng = np.random.default_rng(n)
    grid = Grid(-1.5, 0.5, n)
    cases = [_random_pieces(rng, grid, kind) for kind in ("nodes", "midpoints", "off", "near")
             for _ in range(4)]
    cases += [PiecewisePoly.single([0.5, -2.0j, 1.0], -1.5, 0.5),
              PiecewisePoly(grid.nodes[[0, n // 2, n]], [[0.5, 2.0], [-1.0j]])]
    for p in cases:
        whole = p.grid_samples(grid)
        i, located = _located(grid, p.breakpoints[1:-1])
        on = i[located]
        edges = {0, 1, n - 1, n, *on.tolist(), *(on - 1).tolist(), *(on + 1).tolist()}
        ranges = [(lo, hi) for lo in sorted(edges) for hi in sorted(edges) if 0 <= lo < hi <= n]
        assert (0, n) in ranges and any(lo + 1 == hi for lo, hi in ranges)
        for lo, hi in ranges:
            want = (whole[0][lo:hi + 1], whole[1][lo:hi], whole[2][lo:hi])
            for have, expected in zip(p.grid_samples(grid, lo, hi), want):
                assert have.shape == expected.shape
                assert have.tobytes() == expected.tobytes()


def test_grid_samples_on_one_grid_then_another_read_each_grid():
    # A polynomial keeps its located breakpoints for one grid at a time: on
    # a second grid, and on an equal copy of the first, it reads what a
    # fresh copy of it reads there.  Bytes are compared.
    rng = np.random.default_rng(5)
    grids = [Grid(-1.5, 0.5, 513), Grid(-1.5, 0.5, 1537), Grid(-1.5, 0.5, 513)]
    for kind in ("nodes", "near", "off"):
        p = _random_pieces(rng, grids[0], kind)
        for grid in grids:
            fresh = PiecewisePoly._from_table(p.breakpoints, p.table, p.widths)
            for have, want in zip(p.grid_samples(grid), fresh.grid_samples(grid), strict=True):
                assert have.tobytes() == want.tobytes()


def test_grid_samples_take_left_limits_at_the_node_itself():
    # The breakpoint -0.0 equals the node 0.0.  At t = -0.0 the first piece
    # would evaluate to -0.0; at the node it is 0.0, as __call__ gives it.
    p = PiecewisePoly([-1.0, -0.0, 1.0], [[-0.0, 1.0], [2.0]])
    _assert_grid_samples_are_three_evaluations(p, Grid(-1.0, 1.0, 4))


def test_grid_samples_read_breakpoints_where_the_node_rule_puts_them():
    # On [0.1, 0.7] with h = 0.06, 0.34 is an ulp off node 4 and 0.37 lies
    # inside a step.  The samples read 0.34 on the node, so the step before
    # it reads the left piece at its end, and they are the samples of the
    # jump on the node's bits.
    grid = Grid(0.1, 0.7, 10)
    node = grid.nodes[4]
    assert 0 < abs(node - 0.34) < 1e-12
    p = PiecewisePoly.step([0.1, 0.34, 0.37, 0.7], [1.0, 2.0, 3.0])
    nodes, ends, _ = p.grid_samples(grid)
    assert (ends[3], nodes[4]) == (1.0, 2.0)
    on_node = PiecewisePoly.step([0.1, node, 0.37, 0.7], [1.0, 2.0, 3.0])
    for have, want in zip(p.grid_samples(grid), on_node.grid_samples(grid), strict=True):
        assert have.tobytes() == want.tobytes()
    # Two breakpoints on one node leave an empty piece, read nowhere: the
    # node reads the right-hand piece, the step that ends there the left.
    two = PiecewisePoly.step([0.1, node - 4e-13, node + 4e-13, 0.7], [1.0, 2.0, 3.0])
    nodes, ends, mids = two.grid_samples(grid)
    assert (ends[3], nodes[4]) == (1.0, 3.0)
    assert 2.0 not in np.concatenate([nodes, ends, mids])
    # A breakpoint on a reads the piece after it, one on b the piece before it.
    for bp, at_a, at_b in (([0.1, 0.1 + 4e-13, 0.7], 2.0, 2.0), ([0.1, 0.7 - 4e-13, 0.7], 1.0, 1.0)):
        nodes, ends, _ = PiecewisePoly.step(bp, [1.0, 2.0]).grid_samples(grid)
        assert (nodes[0], nodes[-1], ends[-1]) == (at_a, at_b, at_b)


# -- sampling and interpolation ----------------------------------------------


def test_cubic_interpolation_reproduces_cubics():
    # A point term off the nodes is compiled to the 4-point cubic stencil.
    grid = Grid(0.0, 1.0, 16)
    values = (grid.nodes ** 3 - 2.0 * grid.nodes)[:, None]
    for t in (0.03, 0.37, 0.5, 0.91, 1.0):
        op = BoundaryOperator(1, 1, 0.0, 1.0, [BoundaryTerm(t, 0, np.ones((1, 1)))])
        assert abs(lift(op, grid).apply_values(values)[0] - (t ** 3 - 2.0 * t)) <= 1e-13


def test_linear_interpolation_on_matrix_samples():
    # A measure atom off the nodes reads the 4-point cubic stencil of its
    # location (n = 4 cells), which is exact on entries linear in t.
    grid = Grid(0.0, 1.0, 4)
    values = np.stack([np.array([[t, 0.0], [0.0, 1.0]]) for t in grid.nodes])
    atom = MatrixMeasure([[ScalarMeasure(0.0, 1.0, atoms=[(0.375, 1.0)])]])
    out = np.array([[atom.apply(grid, values[:, i, j])[0] for j in range(2)] for i in range(2)])
    np.testing.assert_allclose(out, [[0.375, 0.0], [0.0, 1.0]], atol=1e-14)


def _loop_stencil(grid, t):
    """``_cubic_stencil`` as a loop that forms each weight's index set and
    denominators where it uses them."""
    s = _fractional_index(grid, t)
    base = np.clip(np.minimum(s.astype(np.intp), grid.n - 1) - 1, 0, grid.n - 3)
    x = s - base
    w = np.ones(x.shape + (4,))
    for k in range(4):
        j = np.delete(np.arange(4), k)
        w[..., j] *= (x[..., None] - k) / (j - k)
    return base, w


@pytest.mark.parametrize("n", [4, 7, 2048])
def test_cubic_stencil_matches_the_loop_bit_for_bit(n):
    # On nodes, an ulp to either side of them (on them by the node rule) and
    # at random points, a and b included; and on no point at all.
    grid = Grid(-1.5, 0.5, n)
    t = np.concatenate([grid.nodes, np.nextafter(grid.nodes, -np.inf),
                        np.nextafter(grid.nodes, np.inf),
                        np.random.default_rng(n).uniform(-1.5, 0.5, 200)])
    t = np.clip(t, -1.5, 0.5)
    for points in (t, t[:0]):
        base, w = _cubic_stencil(grid, points)
        want_base, want_w = _loop_stencil(grid, points)
        assert base.dtype == want_base.dtype and w.shape == want_w.shape
        assert base.tobytes() == want_base.tobytes() and w.tobytes() == want_w.tobytes()


def _stencil_placement(grid, nodes, orders, betas, width):
    """The nodes that the point terms reach and the dense (rows, n+1, width)
    weights they put there: each term's ``_cubic_stencil`` weights (the
    linear stencil below 4 cells), the non-zero ones, added in term order."""
    m = betas.shape[2]
    dense = np.zeros((betas.shape[1], grid.n + 1, width), dtype=complex)
    reached = np.zeros(grid.n + 1, dtype=bool)
    for x, order, beta in zip(nodes, orders, betas):
        (base,), (w,) = _cubic_stencil(grid, np.array([x]))
        for s, weight in enumerate(w):
            if weight != 0 and beta.any():
                dense[:, base + s, order * m:(order + 1) * m] += weight * beta
                reached[base + s] = True
    return np.flatnonzero(reached), dense


@pytest.mark.parametrize("n", [3, 7, 2048])
def test_a_term_on_a_node_weighs_it_as_its_stencil_does(n):
    # A term on a node, one an ulp to either side of it (on it by the node
    # rule) and one between nodes get their stencil's weights bit for bit;
    # the first two weigh the node by exactly 1, and nothing else.
    grid = Grid(0.1, 0.7, n)
    at = sorted({0, 1, n // 2, n - 1, n})
    points = []
    for i in at:
        t = grid.nodes[i]
        points += [t, np.nextafter(t, 1.0) if i < n else np.nextafter(t, 0.0)]
        if 0 < i < n:
            points += [np.nextafter(t, 0.0), t + 0.37 * grid.h]
    points = np.array(points)
    rng = np.random.default_rng(n)
    orders = rng.integers(0, 2, points.size)
    betas = rng.standard_normal((points.size, 4, 2)) + 1j * rng.standard_normal((points.size, 4, 2))
    betas[3] = 0.0
    betas[4, 0] = -0.0
    nodes, weights = _place_points(grid, points, orders, betas, 4)
    want_nodes, dense = _stencil_placement(grid, points, orders, betas, 4)
    np.testing.assert_array_equal(nodes, want_nodes)
    assert weights.tobytes() == dense[:, nodes].tobytes()
    _, on = _located(grid, points)
    assert np.count_nonzero(on) == points.size - (len(at) - 2)  # all but the between points
    _, w = _cubic_stencil(grid, points[on])
    assert (w.max(axis=1) == 1.0).all() and (np.count_nonzero(w, axis=1) == 1).all()


# -- vectors, matrices, jets -------------------------------------------------


def test_poly_vector_norms_sum_components():
    f = PolyVector([
        PiecewisePoly.single([0.0, 1.0], 0.0, 1.0),       # t
        PiecewisePoly.constant(-2.0, 0.0, 1.0),
    ])
    assert abs(f.l1_norm() - 2.5) <= 1e-12                # 1/2 + 2
    values = f.eval_at(np.array([0.0, 1.0]))
    assert values.shape == (2, 2)
    # function C-norm sums the component sups: 1 + 2
    grid = Grid(0.0, 1.0, 64)
    assert abs(norm_cl(SampledJet(grid, 2, 0, [f.eval_at(grid.nodes)]), 0) - 3.0) <= 1e-12


@pytest.mark.parametrize("cls, entry, empty, apart", [
    (PolyMatrix, PiecewisePoly.zero, "need a non-empty matrix of entries",
     "all entries must share the same interval"),
    (MatrixMeasure, ScalarMeasure.zero, "need a non-empty matrix of measures",
     "all entries must share the same interval"),
    (PolyVector, PiecewisePoly.zero, "need at least one component",
     "all components must share the same interval"),
], ids=["PolyMatrix", "MatrixMeasure", "PolyVector"])
def test_containers_share_one_construction_check_and_ends(cls, entry, empty, apart):
    # A vector is the one-column case: it is built from its components.
    column = cls is PolyVector
    build = (lambda rows: cls([row[0] for row in rows])) if column else cls
    assert (cls.shape, cls.a, cls.b) == (_Entries.shape, _Entries.a, _Entries.b)
    assert column or cls.__init__ is _Entries.__init__
    with pytest.raises(ValueError, match=f"^{empty}$"):
        cls([])
    if not column:
        with pytest.raises(ValueError, match=f"^{empty}$"):
            cls([[]])
        with pytest.raises(ValueError, match="^ragged rows$"):
            cls([[entry(0.0, 1.0)], [entry(0.0, 1.0)] * 2])
    # Every entry is checked by the interval rule, not only the first one.
    with pytest.raises(ValueError, match=f"^{apart}$"):
        build([[entry(0.0, 2.0)], [entry(0.0, 2.0)], [entry(0.0, 2.0 + 1e-8)]])
    rows = [[entry(0.0, 2.0)], [entry(1e-9, 2.0 + 1e-9)], [entry(0.0, 2.0)]]
    container = build(rows)
    assert container.shape == (3, 1)
    assert (container.a, container.b) == (0.0, 2.0)
    assert [row[0] for row in container.entries] == [row[0] for row in rows]
    if not column:
        wide = cls([[entry(-1.0, 3.0)] * 2] * 3)
        assert (wide.shape, wide.a, wide.b) == ((3, 2), -1.0, 3.0)


def test_poly_matrix_l1_norm_takes_max_column():
    A = PolyMatrix([
        [PiecewisePoly.constant(1.0, 0.0, 1.0), PiecewisePoly.zero(0.0, 1.0)],
        [PiecewisePoly.constant(-2.0, 0.0, 1.0), PiecewisePoly.constant(3.0, 0.0, 1.0)],
    ])
    assert abs(A.l1_norm() - 3.0) <= 1e-12


def test_numeric_norm_conventions():
    assert vec_norm(np.array([1.0, -2.0, 2.0j])) == 5.0
    assert mat_norm(np.array([[1.0, 0.0], [-2.0, 3.0]])) == 3.0


def test_trajectory_c_norm():
    grid = Grid(0.0, 1.0, 64)
    V = np.stack([np.array([[1.0, t], [0.0, 1.0]]) for t in grid.nodes])
    assert abs(traj_norm_c(V) - 2.0) <= 1e-12


def test_jet_norms():
    grid = Grid(0.0, 1.0, 256)
    jet = SampledJet.from_callables(grid, 1, 1, [lambda t: t, lambda t: np.ones_like(t)])
    # W-norm = integral of |t| + integral of |1| = 1/2 + 1
    assert abs(norm_w1r(jet) - 1.5) <= 1e-10
    assert abs(norm_cl(jet, 0) - 1.0) <= 1e-12
    assert abs(norm_cl(jet, 1) - 2.0) <= 1e-12
    with pytest.raises(ValueError):
        norm_cl(jet, 2)


def test_jet_consistency_defect_flags_mismatch():
    grid = Grid(0.0, 1.0, 128)
    good = SampledJet.from_callables(grid, 1, 1,
                                     [lambda t: t ** 2, lambda t: 2.0 * t])
    bad = SampledJet.from_callables(grid, 1, 1,
                                    [lambda t: t ** 2, lambda t: np.zeros_like(t)])
    assert good.consistency_defect() <= 1e-10
    assert bad.consistency_defect() > 0.5


def test_norm_l1_matches_exact_integral():
    grid = Grid(0.0, 1.0, 512)
    values = np.stack([grid.nodes, -np.ones_like(grid.nodes)], axis=1)
    # integral |t| + integral |-1| = 3/2; trapezoid is exact for both
    assert abs(norm_w1r(SampledJet(grid, 2, 0, [values])) - 1.5) <= 1e-12


def _random_channels(rng, grid, m, r):
    shape = (grid.n + 1, m)
    return [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(r + 1)]


def test_jet_samples_are_views_of_its_table_with_the_channels_bits():
    rng = np.random.default_rng(46)
    grid = Grid(0.0, 1.0, 16)
    channels = _random_channels(rng, grid, 2, 2)
    jet = SampledJet(grid, 2, 2, channels)
    assert jet.table.shape == (17, 3, 2)
    assert len(jet.samples) == 3
    for j, (sample, channel) in enumerate(zip(jet.samples, channels)):
        assert sample.base is jet.table
        assert sample.shape == (17, 2) and sample.strides == jet.table[:, j].strides
        np.testing.assert_array_equal(_bits(sample), _bits(channel))
        np.testing.assert_array_equal(_bits(jet.table[:, j]), _bits(channel))
    # The constructor copies: the jet does not see later writes to its input.
    channels[0][0, 0] = 7.0
    assert jet.samples[0][0, 0] != 7.0


def test_jet_difference_is_the_bitwise_channel_difference():
    rng = np.random.default_rng(47)
    grid = Grid(-1.0, 2.0, 24)
    for m, r in ((1, 0), (2, 1), (3, 2)):
        x, y = _random_channels(rng, grid, m, r), _random_channels(rng, grid, m, r)
        diff = SampledJet(grid, m, r, x) - SampledJet(grid, m, r, y)
        assert (diff.m, diff.r, diff.table.shape) == (m, r, (25, r + 1, m))
        for j in range(r + 1):
            np.testing.assert_array_equal(_bits(diff.samples[j]), _bits(x[j] - y[j]))


def _reference_norm_c(values):
    """Sum over components of max |.|: the sup norm of one channel, as the
    per-channel helper computed it before jets were held as one table."""
    return float(np.abs(values).max(axis=0).sum())


def _reference_norm_l1(grid, values):
    """Sum over components of the trapezoid rule on |.|, per channel."""
    return float(np.trapezoid(np.abs(values), dx=grid.h, axis=0).sum())


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1, 2])
def test_jet_norms_are_bitwise_the_per_channel_sums(m, r):
    rng = np.random.default_rng(100 * m + r)
    grid = Grid(0.25, 3.5, 37)
    channels = [c * 10.0 ** rng.integers(-3, 4) for c in _random_channels(rng, grid, m, r)]
    jet = SampledJet(grid, m, r, channels)
    for l in range(r + 1):
        want = sum(_reference_norm_c(channels[j]) for j in range(l + 1))
        assert norm_cl(jet, l) == want
    assert norm_w1r(jet) == sum(_reference_norm_l1(grid, c) for c in channels)
    # The same on a difference, whose table is formed by one subtraction.
    other = _random_channels(rng, grid, m, r)
    diff = jet - SampledJet(grid, m, r, other)
    deltas = [x - y for x, y in zip(channels, other)]
    assert norm_cl(diff, r) == sum(_reference_norm_c(c) for c in deltas)
    assert norm_w1r(diff) == sum(_reference_norm_l1(grid, c) for c in deltas)


@pytest.mark.parametrize("call, message", [
    (lambda grid: SampledJet(grid, 0, 0, [np.zeros(9)]), "need m >= 1 and r >= 0"),
    (lambda grid: SampledJet(grid, 2, 0, [np.zeros(9)]),
     "channel 0 has shape (9, 1), expected (9, 2)"),
    (lambda grid: SampledJet(grid, 1, 2, [np.zeros(9), np.full(9, np.inf), np.zeros(8)]),
     "channel 1 contains non-finite samples"),
    (lambda grid: SampledJet(grid, 1, 1, [np.zeros(9), np.zeros(8), np.full(9, np.nan)]),
     "channel 1 has shape (8, 1), expected (9, 1)"),
    (lambda grid: SampledJet(grid, 1, 0, [np.zeros(9), np.zeros(9)]),
     "order-0 jet needs 1 channels, got 2"),
    (lambda grid: (SampledJet(grid, 1, 1, [np.zeros(9), np.full(9, 1e308)])
                   - SampledJet(grid, 1, 1, [np.zeros(9), np.full(9, -1e308)])),
     "channel 1 contains non-finite samples"),
])
def test_jet_constructor_messages_are_kept(call, message):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        call(Grid(0.0, 1.0, 8))


def test_gauss_rule_and_horner_are_bitwise_numpy_polynomial():
    # The 24-point rule is a table and one polynomial is evaluated by
    # _horner, so that no command imports numpy.polynomial; both must keep
    # the bits leggauss and polyval give.
    x, w = np.polynomial.legendre.leggauss(24)
    np.testing.assert_array_equal(_GAUSS_X.view(np.uint64), x.view(np.uint64))
    np.testing.assert_array_equal(_GAUSS_W.view(np.uint64), w.view(np.uint64))
    rng = np.random.default_rng(24)
    t = rng.uniform(-2.0, 2.0, 200)
    for size in (1, 2, 5, 9):
        for c in (rng.standard_normal(size),
                  rng.standard_normal(size) + 1j * rng.standard_normal(size)):
            want = np.polynomial.polynomial.polyval(t, c)
            np.testing.assert_array_equal(_horner(c[None], t).view(np.uint64),
                                          want.view(np.uint64))
    # Rows gathered a column at a time give the bits of the gathered table.
    table = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    rows = rng.integers(0, 7, t.size)
    np.testing.assert_array_equal(_horner(table, t, rows).view(np.uint64),
                                  _horner(table[rows], t).view(np.uint64))
