"""Companion reduction and the boundary-value solver."""

import numpy as np
import pytest

from mpbvp import (
    BoundaryTerm,
    BvpProblem,
    Grid,
    MultipointBoundaryOperator,
    NotUniquelySolvableError,
    PiecewisePoly,
    PolyMatrix,
    PolyVector,
    companion_reduce,
    corpus,
    residuals,
    solve,
)
from oracles import crank_nicolson_solve, random_problem


def _dirichlet(r, m, a, b, *nodes_orders):
    terms = []
    d = r * m
    for row, (node, order) in enumerate(nodes_orders):
        beta = np.zeros((d, m), dtype=complex)
        beta[row, 0] = 1.0
        terms.append(BoundaryTerm(node=node, order=order, beta=beta))
    return MultipointBoundaryOperator(r, m, a, b, terms)


def test_companion_matrix_structure():
    a, b = 0.0, 1.0
    problem = BvpProblem(
        r=2, m=1,
        coeffs=[PolyMatrix.constant([[2.0]], a, b), PolyMatrix.constant([[3.0]], a, b)],
        f=PolyVector.zero(1, a, b),
        q=np.zeros(2, dtype=complex),
        operator=_dirichlet(2, 1, a, b, (a, 0), (b, 0)),
        grid=Grid(a, b, 16),
    )
    P, g, T, q = companion_reduce(problem)
    np.testing.assert_allclose(P.eval_at(np.array([0.3]))[0], [[0.0, -1.0], [2.0, 3.0]])
    assert g.eval_at(np.array([0.3])).shape == (1, 2)


def test_companion_third_order_zero_coefficients():
    a, b = 0.0, 1.0
    problem = BvpProblem(
        r=3, m=1,
        coeffs=[PolyMatrix.zero(1, 1, a, b)] * 3,
        f=PolyVector.zero(1, a, b),
        q=np.zeros(3, dtype=complex),
        operator=_dirichlet(3, 1, a, b, (a, 0), (a, 1), (b, 0)),
        grid=Grid(a, b, 16),
    )
    P, _, _, _ = companion_reduce(problem)
    np.testing.assert_allclose(
        P.eval_at(np.array([0.5]))[0],
        [[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [0.0, 0.0, 0.0]],
    )


def test_first_order_reduction_is_identity():
    problem = corpus.build_problem("p1", 64)
    P, g, _, _ = companion_reduce(problem)
    assert P is problem.coeffs[0]
    assert g is problem.f


def test_solve_trivial_first_order():
    a, b = 0.0, 1.0
    problem = BvpProblem(
        r=1, m=1,
        coeffs=[PolyMatrix.zero(1, 1, a, b)],
        f=PolyVector([PiecewisePoly.constant(1.0, a, b)]),
        q=np.array([0.0], dtype=complex),
        operator=_dirichlet(1, 1, a, b, (a, 0)),
        grid=Grid(a, b, 512),
    )
    solution = solve(problem)
    np.testing.assert_allclose(solution.jet.samples[0][:, 0], problem.grid.nodes,
                               atol=1e-12)


def test_solve_constant_forced_by_integral_condition():
    from mpbvp import GeneralBoundaryOperator, MatrixMeasure, ScalarMeasure
    a, b = 0.0, 1.0
    phi = MatrixMeasure([[ScalarMeasure.lebesgue(a, b, 1.0)]])
    problem = BvpProblem(
        r=1, m=1,
        coeffs=[PolyMatrix.zero(1, 1, a, b)],
        f=PolyVector.zero(1, a, b),
        q=np.array([1.0], dtype=complex),
        operator=GeneralBoundaryOperator(1, 1, [], phi),
        grid=Grid(a, b, 512),
    )
    solution = solve(problem)
    np.testing.assert_allclose(solution.jet.samples[0][:, 0], 1.0, atol=1e-12)


def test_solve_second_order_dirichlet_line():
    a, b = 0.0, 1.0
    problem = BvpProblem(
        r=2, m=1,
        coeffs=[PolyMatrix.zero(1, 1, a, b)] * 2,
        f=PolyVector.zero(1, a, b),
        q=np.array([0.0, 1.0], dtype=complex),
        operator=_dirichlet(2, 1, a, b, (a, 0), (b, 0)),
        grid=Grid(a, b, 512),
    )
    solution = solve(problem)
    np.testing.assert_allclose(solution.jet.samples[0][:, 0], problem.grid.nodes,
                               atol=1e-12)
    np.testing.assert_allclose(solution.jet.samples[1][:, 0], 1.0, atol=1e-12)


def test_degenerate_neumann_pair_rejected():
    problem = corpus.build_problem("nn", 128)
    with pytest.raises(NotUniquelySolvableError) as info:
        solve(problem)
    assert info.value.det == 0.0


def test_small_determinant_with_moderate_condition_solves():
    # y' = 0 with y(0) scaled by diag(1, 1e-6, 1e-7): |det [TV]| = 1e-13,
    # but cond = 1e7, so the gate passes and the solution is y = 1 exactly.
    a, b = 0.0, 1.0
    scales = np.array([1.0, 1e-6, 1e-7])
    problem = BvpProblem(
        r=1, m=3,
        coeffs=[PolyMatrix.zero(3, 3, a, b)],
        f=PolyVector.zero(3, a, b),
        q=scales,
        operator=MultipointBoundaryOperator(1, 3, a, b, [BoundaryTerm(a, 0, np.diag(scales))]),
        grid=Grid(a, b, 64),
    )
    solution = solve(problem)
    assert abs(solution.det) == pytest.approx(1e-13, rel=1e-12)
    assert solution.cond == pytest.approx(1e7, rel=1e-12)
    np.testing.assert_array_equal(solution.jet.samples[0], 1.0)
    np.testing.assert_array_equal(solution.jet.samples[1], 0.0)


def test_solution_diagnostics_populated():
    solution = solve(corpus.build_problem("p1", 512))
    assert solution.det != 0
    assert np.isfinite(solution.cond)
    assert solution.boundary_residual <= 1e-10
    assert solution.consistency_defect <= 1e-4


def test_linearity_of_solve():
    base = corpus.build_problem("p3", 512)
    f2 = PolyVector([
        PiecewisePoly.single([0.5, -1.0, 0.25], 0.0, 1.0),
        PiecewisePoly.constant(2.0j, 0.0, 1.0),
    ])
    q2 = np.array([0.5j, -1.0], dtype=complex)
    combined = BvpProblem(r=base.r, m=base.m, coeffs=base.coeffs,
                          f=base.f + f2, q=base.q + q2,
                          operator=base.operator, grid=base.grid)
    second = BvpProblem(r=base.r, m=base.m, coeffs=base.coeffs, f=f2, q=q2,
                        operator=base.operator, grid=base.grid)
    s_base, s_second, s_comb = solve(base), solve(second), solve(combined)
    for j in range(base.r + 1):
        gap = s_comb.jet.samples[j] - s_base.jet.samples[j] - s_second.jet.samples[j]
        assert float(np.max(np.abs(gap))) <= 1e-9


def test_zero_rhs_gives_zero_solution():
    base = corpus.build_problem("p2", 512)
    zero = BvpProblem(r=base.r, m=base.m, coeffs=base.coeffs,
                      f=PolyVector.zero(base.m, base.a, base.b),
                      q=np.zeros_like(base.q),
                      operator=base.operator, grid=base.grid)
    solution = solve(zero)
    for channel in solution.jet.samples:
        assert float(np.max(np.abs(channel))) <= 1e-12


def test_residuals_detect_wrong_solution():
    problem, jet = corpus.load("p1", 256)
    good = solve(problem)
    _, boundary_ok = residuals(problem, good.jet)
    assert boundary_ok <= 1e-10
    # shift the solution by a constant: the integral condition must notice
    from mpbvp import SampledJet
    shifted = SampledJet(jet.grid, jet.m, jet.r,
                         [jet.samples[0] + 1.0, jet.samples[1]])
    ode_bad, boundary_bad = residuals(problem, shifted)
    assert boundary_bad > 0.5
    assert ode_bad > 0.5  # y' + y picks up the constant as well


def test_solver_agrees_with_finite_difference_oracle():
    problem = corpus.build_problem("p3", 1024)
    mine = solve(problem).jet.samples[0]
    reference = crank_nicolson_solve(problem)
    assert float(np.max(np.abs(mine - reference))) <= 1e-4


def test_oracle_agreement_on_general_second_order():
    problem = corpus.build_problem("p2", 1024)
    mine = solve(problem).jet.samples[0]
    reference = crank_nicolson_solve(problem)
    assert float(np.max(np.abs(mine - reference))) <= 1e-4


def test_boundary_residual_matches_residuals():
    for name in corpus.CORPUS_NAMES:
        problem = corpus.build_problem(name, 512)
        solution = solve(problem)
        assert solution.boundary_residual == pytest.approx(
            residuals(problem, solution.jet)[1], rel=1e-12, abs=1e-15)


def test_fine_grid_solve_keeps_roundoff():
    # 16384 steps: an RK4 composition that rounds I + D_i on every step
    # drifts past 2e-13 on p1; composing the increments D_i stays near 6e-15.
    for name in corpus.CORPUS_NAMES:
        problem, exact = corpus.load(name, 16384)
        jet = solve(problem).jet
        err = max(float(np.max(np.abs(mine - ref)))
                  for mine, ref in zip(jet.samples, exact.samples))
        assert err <= 5e-14, name


def test_top_channel_is_bitwise_the_node_evaluation():
    # The pass hands the solver the node values of [A_0 ... A_{r-1} | f];
    # the top channel f - sum_l A_l y^(l) must be what evaluating the
    # coefficients at the nodes gives, for m up to 3.
    rng = np.random.default_rng(11)
    problems = [corpus.build_problem(name, 2048) for name in ("p1", "p2", "p3")]
    problems += [random_problem(rng, 257) for _ in range(8)]
    assert max(problem.m for problem in problems) == 3
    for problem in problems:
        jet = solve(problem).jet
        nodes = problem.grid.nodes
        top = problem.f.eval_at(nodes)
        for l in range(problem.r):
            top -= np.einsum("nij,nj->ni", problem.coeffs[l].eval_at(nodes), jet.samples[l])
        assert jet.samples[-1].tobytes() == top.tobytes()
