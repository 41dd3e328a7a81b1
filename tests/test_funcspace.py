"""Piecewise polynomials, grids, jets, and the norm conventions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpbvp import (
    Grid,
    PiecewisePoly,
    PolyMatrix,
    PolyVector,
    SampledJet,
    antiderivative,
    mat_norm,
    norm_c,
    norm_cl,
    norm_l1,
    norm_w1r,
    traj_norm_c,
    vec_norm,
)
from mpbvp.funcspace import sample_cubic, sample_linear


# -- grids -------------------------------------------------------------------


def test_grid_nodes_and_spacing():
    grid = Grid(0.0, 1.0, 4)
    np.testing.assert_allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(grid.half_nodes, [0.125, 0.375, 0.625, 0.875])
    assert grid.h == 0.25
    assert grid.nearest_node(0.61) == 0.5
    assert grid.nearest_node(0.64) == 0.75


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 8)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 1)


# -- piecewise polynomials ---------------------------------------------------


def test_evaluation_sides_at_breakpoints():
    p = PiecewisePoly.step([0.0, 0.5, 1.0], [1.0, 2.0])
    assert p(0.5) == 2.0                      # interior breakpoint: right piece
    assert p(0.5, side="left") == 1.0
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
    for side in ("right", "left"):
        np.testing.assert_array_equal(_bits(p(t, side=side)),
                                      _bits(_polyval_per_piece(p, t, side)))
        for x in (-1.5, -0.25, 0.5, 2.0, 3.0):
            value = p(x, side=side)
            assert np.ndim(value) == 0
            np.testing.assert_array_equal(_bits(value), _bits(_polyval_per_piece(p, x, side)))


def test_integrate_exact_polynomial():
    p = PiecewisePoly.single([0.0, 0.0, 0.0, 1.0], 0.0, 1.0)  # t^3
    assert abs(p.integrate(0.0, 1.0) - 0.25) <= 1e-15
    assert abs(p.integrate(0.25, 0.75) - (0.75 ** 4 - 0.25 ** 4) / 4) <= 1e-15


def test_abs_integral_splits_at_roots():
    # |t^2 - 1/4| integrates to exactly 1/4 over [0, 1]
    p = PiecewisePoly.single([-0.25, 0.0, 1.0], 0.0, 1.0)
    assert abs(p.abs_integral(0.0, 1.0) - 0.25) <= 1e-12


def test_abs_integral_complex_coefficients():
    # |i t| integrates like |t|
    p = PiecewisePoly.single([0.0, 1j], 0.0, 1.0)
    assert abs(p.abs_integral(0.0, 1.0) - 0.5) <= 1e-12


def test_mean_and_derivative():
    p = PiecewisePoly.single([0.0, 1.0], 0.0, 1.0)  # t
    assert abs(p.mean(0.0, 0.5) - 0.25) <= 1e-15
    assert abs(p.mean(0.5, 1.0) - 0.75) <= 1e-15
    dp = p.derivative()
    assert dp(0.3) == 1.0


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


def test_snapped_moves_breakpoints_to_nodes():
    grid = Grid(0.0, 1.0, 8)
    p = PiecewisePoly.step([0.0, 0.3, 1.0], [1.0, 2.0])
    snapped = p.snapped(grid)
    np.testing.assert_allclose(snapped.breakpoints, [0.0, 0.25, 1.0])
    assert snapped(0.26) == 2.0


@given(
    c0=st.floats(-10, 10),
    c1=st.floats(-10, 10),
    n=st.integers(2, 64),
)
@settings(max_examples=60, deadline=None)
def test_trapezoid_antiderivative_exact_for_linear(c0, c1, n):
    # The composite trapezoid rule integrates degree <= 1 exactly.
    grid = Grid(0.0, 1.0, n)
    values = c0 + c1 * grid.nodes
    F = antiderivative(grid, values)
    exact = c0 * grid.nodes + 0.5 * c1 * grid.nodes ** 2
    scale = abs(c0) + abs(c1) + 1.0
    np.testing.assert_allclose(F, exact, atol=1e-12 * scale)


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


# -- sampling and interpolation ----------------------------------------------


def test_cubic_interpolation_reproduces_cubics():
    grid = Grid(0.0, 1.0, 16)
    values = grid.nodes ** 3 - 2.0 * grid.nodes
    for t in (0.03, 0.37, 0.5, 0.91, 1.0):
        assert abs(sample_cubic(grid, values, t) - (t ** 3 - 2.0 * t)) <= 1e-13


def test_linear_interpolation_on_matrix_samples():
    grid = Grid(0.0, 1.0, 4)
    values = np.stack([np.array([[t, 0.0], [0.0, 1.0]]) for t in grid.nodes])
    out = sample_linear(grid, values, 0.375)
    np.testing.assert_allclose(out, [[0.375, 0.0], [0.0, 1.0]], atol=1e-14)


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
    assert abs(norm_c(f.eval_at(Grid(0.0, 1.0, 64).nodes)) - 3.0) <= 1e-12


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
    assert abs(norm_l1(grid, values) - 1.5) <= 1e-12
