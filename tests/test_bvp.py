"""Companion reduction and the boundary-value solver."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from mpbvp import (
    BoundaryOperator,
    BoundaryTerm,
    BvpProblem,
    GeneralBoundaryOperator,
    Grid,
    MatrixMeasure,
    NotUniquelySolvableError,
    PiecewisePoly,
    PolyMatrix,
    PolyVector,
    ScalarMeasure,
    build_multipoint_problem,
    companion_reduce,
    corpus,
    lift,
    multipointify,
    residuals,
    sawtooth_rhs,
    solve,
)
from mpbvp import bvp
from mpbvp.bvp import _solve_pass
from mpbvp.funcspace import _bits
from mpbvp.linode import _segment_steps
from oracles import (
    crank_nicolson_solve,
    dense_weights,
    density_step_problem,
    growth_problem,
    random_problem,
    scaled_boundary_problem,
    step_problem,
    tie_keeping_permutation,
)


def _dirichlet(r, m, a, b, *nodes_orders):
    terms = []
    d = r * m
    for row, (node, order) in enumerate(nodes_orders):
        beta = np.zeros((d, m), dtype=complex)
        beta[row, 0] = 1.0
        terms.append(BoundaryTerm(node=node, order=order, beta=beta))
    return BoundaryOperator(r, m, a, b, terms)


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
    # The lists compare their entries by identity.
    assert P.entries == problem.coeffs[0].entries
    assert g.components == problem.f.components


def test_problem_keeps_the_data_it_is_given():
    # A step at 0.3 on a 4-step grid keeps its jump where it is: in the
    # problem, through re-gridding with dataclasses.replace, which keeps the
    # same objects, and in the companion system the solve pass reads.
    problem = step_problem(4)
    a0 = problem.coeffs[0]
    assert a0.entries[0][0].breakpoints.tolist() == [0.0, 0.3, 1.0]
    finer = dataclasses.replace(problem, grid=Grid(0.0, 1.0, 2048))
    assert finer.coeffs[0] is a0
    assert companion_reduce(problem)[0].entries == a0.entries


def _valid_fields():
    """The fields of a valid r = 2, m = 1 problem on [0, 1]."""
    a, b = 0.0, 1.0
    return dict(r=2, m=1, coeffs=[PolyMatrix.zero(1, 1, a, b)] * 2, f=PolyVector.zero(1, a, b),
                q=np.zeros(2), operator=_dirichlet(2, 1, a, b, (a, 0), (b, 0)),
                grid=Grid(a, b, 16))


def _problem_with(**fields):
    return lambda: BvpProblem(**{**_valid_fields(), **fields})


def _general(r, alphas, phi_rows):
    return lambda: GeneralBoundaryOperator(
        r, 1, alphas, MatrixMeasure([[ScalarMeasure.zero(0.0, 1.0)]] * phi_rows))


_INTERVALS = "grid, coefficient, right-hand side, and operator intervals disagree"


@pytest.mark.parametrize("build, error, message", [
    (_problem_with(r=0), ValueError, "need r >= 1 and m >= 1"),
    (_problem_with(coeffs=[PolyMatrix.zero(1, 1, 0.0, 1.0)]), ValueError,
     "order-2 problem needs 2 coefficient matrices"),
    (_problem_with(coeffs=[PolyMatrix.zero(2, 2, 0.0, 1.0)] * 2), ValueError,
     "coefficient 0 must be 1 x 1"),
    (_problem_with(f=PolyVector.zero(2, 0.0, 1.0)), ValueError,
     "right-hand side dimension mismatch"),
    (_problem_with(q=[0.0, np.nan]), ValueError, "boundary values must be finite"),
    (_problem_with(operator="y(0) = y(1) = 0"), TypeError, "operator must be a boundary operator"),
    (_problem_with(operator=_dirichlet(1, 1, 0.0, 1.0, (0.0, 0))), ValueError,
     "boundary operator shape does not match the problem"),
    (_problem_with(f=PolyVector.zero(1, 0.0, 2.0)), ValueError, _INTERVALS),
    (_problem_with(operator=_dirichlet(2, 1, 0.0, 0.5, (0.0, 0), (0.5, 0))), ValueError,
     _INTERVALS),
    (_problem_with(coeffs=[PolyMatrix.zero(1, 1, 0.5, 1.0)] * 2), ValueError, _INTERVALS),
    (_problem_with(coeffs=[PolyMatrix.zero(1, 1, 0.0, 1.0), PolyMatrix.zero(1, 1, 0.0, 1.5)]),
     ValueError, _INTERVALS),
    (_general(0, [], 1), ValueError, "need r >= 1 and m >= 1"),
    (_general(2, [], 2), ValueError, "order-2 operator needs 1 alpha blocks"),
    (_general(2, [np.ones((1, 1))], 2), ValueError, "alpha_0 must be shaped (2, 1), got (1, 1)"),
    (_general(2, [[[1.0], [np.inf]]], 2), ValueError, "alpha_0 contains non-finite entries"),
    (_general(2, [np.ones((2, 1))], 1), ValueError, "phi must be shaped (2, 1), got (1, 1)"),
    (lambda: BoundaryOperator(1, 1, 0.0, 2.0, phi=MatrixMeasure([[ScalarMeasure.zero(0.0, 1.0)]])),
     ValueError, "phi must span the operator's interval [0.0, 2.0]"),
], ids=["order", "coeff-count", "coeff-shape", "rhs-size", "data", "operator-type",
        "operator-shape", "rhs-interval", "operator-interval", "coeff-start", "coeff-end",
        "general-order", "alpha-count", "alpha-shape", "alpha-finite", "phi-shape",
        "phi-interval"])
def test_malformed_problem_or_operator_is_refused(build, error, message):
    # Each check of BvpProblem, GeneralBoundaryOperator and phi, by its message.
    # A coefficient off the grid's interval is refused like f and the
    # operator: the solve pass would otherwise stretch it onto [a, b].
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_ends_within_the_interval_tolerance_are_accepted():
    # 1e-9 (b - a) is the tolerance for every interval the problem holds.
    # The problem keeps such data; the solve pins its ends to [a, b], for
    # the coefficients and for an f stacked under exact-interval zeros.
    fields = _valid_fields()
    near = [PolyMatrix.zero(1, 1, 0.0, 1.0 + 1e-10), PolyMatrix.zero(1, 1, -1e-10, 1.0)]
    problem = BvpProblem(**{**fields, "coeffs": near})
    assert problem.coeffs[0] is near[0]
    assert solve(problem).jet.samples[0].shape == (17, 1)
    t = fields["grid"].nodes
    for one in (PiecewisePoly.constant(1.0, 0.0, 1.0 + 1e-10),
                PiecewisePoly.constant(1.0, -1e-10, 1.0),
                PiecewisePoly.step([0.0, 1.0, 1.0 + 1e-10], [1.0, 5.0])):
        f = PolyVector([one])
        problem = BvpProblem(**{**fields, "f": f})
        assert problem.f is f
        # y'' = 1, y(0) = y(1) = 0.
        np.testing.assert_allclose(solve(problem).jet.samples[0][:, 0], 0.5 * t * (t - 1.0),
                                   rtol=0, atol=1e-15)


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
    assert str(info.value) == "characteristic matrix is singular"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the matrizant overflows
@pytest.mark.parametrize("lam, message", [
    (40, "numerically singular (cond = 4.825e+18)"),
    (800, "not finite (cond = nan)"),
    (2000, "not finite (cond = nan)"),
])
def test_growth_beyond_the_condition_limit_is_refused(lam, message):
    # A nan cond is not <= COND_LIMIT: a non-finite [TV] is refused by the
    # gate, not passed on to the jet.
    with pytest.raises(NotUniquelySolvableError,
                       match=rf"^characteristic matrix is {re.escape(message)}$"):
        solve(growth_problem(lam))


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
        operator=BoundaryOperator(1, 3, a, b, [BoundaryTerm(a, 0, np.diag(scales))]),
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
    problem, jet = corpus.build_problem("p1", 256), corpus.exact_jet("p1", 256)
    good = solve(problem)
    _, boundary_ok = residuals(problem, good.jet)
    assert boundary_ok <= 1e-10
    # shift the solution by a constant: the integral condition must notice
    from mpbvp import SampledJet
    table = jet.table.copy()
    table[:, 0] += 1.0
    shifted = SampledJet(jet.grid, table)
    ode_bad, boundary_bad = residuals(problem, shifted)
    assert boundary_bad > 0.5
    assert ode_bad > 0.5  # y' + y picks up the constant as well


def test_residuals_refuse_a_jet_on_another_grid():
    problem = corpus.build_problem("p1", 256)
    for n in (128, 512):
        with pytest.raises(ValueError, match="the jet must lie on the problem's grid"):
            residuals(problem, corpus.exact_jet("p1", n))


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


def _point_and_density_problem(n):
    """y'' = 1 on [0, 1] with B y = (y(0.4), int_0^1 y' rho dt), rho = 1 on
    [0, 1/2) and 2 on [1/2, 1]: a point term and a density in one operator,
    which neither the general nor the multipoint form holds.  The data is
    that of y = t^2/2 + c1 t + c0, whose integral condition reads
    7/8 + 3 c1 / 2, with its closed form."""
    a, b = 0.0, 1.0
    c0, c1 = 0.3, -0.7
    rho = PiecewisePoly([a, 0.5, b], [[1.0], [2.0]])
    op = BoundaryOperator(2, 1, a, b, [BoundaryTerm(0.4, 0, np.array([[1.0], [0.0]]))],
                          MatrixMeasure([[ScalarMeasure.zero(a, b)],
                                         [ScalarMeasure.from_density(rho)]]))
    problem = BvpProblem(r=2, m=1, coeffs=[PolyMatrix.zero(1, 1, a, b)] * 2,
                         f=PolyVector([PiecewisePoly.constant(1.0, a, b)]),
                         q=[0.08 + 0.4 * c1 + c0, 0.875 + 1.5 * c1], operator=op,
                         grid=Grid(a, b, n))
    return problem, lambda t: (0.5 * t ** 2 + c1 * t + c0, t + c1, np.ones_like(t))


@pytest.mark.parametrize("n", [2048, 2049, 4097, 16384])
def test_a_point_term_and_a_density_in_one_operator(n):
    # The point 0.4 lies off the nodes, and rho's breakpoint 1/2 on one at
    # even n and inside a cell at odd n; the cubic stencil, the corrected
    # trapezoid and the cut cell's Gauss rule are exact on this data.  The
    # plain trapezoid over all of rho, as an off-node breakpoint once made
    # it, read 2.0e-8 / 5.0e-9 at n = 2049 / 4097.
    problem, exact = _point_and_density_problem(n)
    jet = solve(problem).jet
    for got, want in zip(jet.samples, exact(problem.grid.nodes)):
        np.testing.assert_allclose(got[:, 0], want, rtol=0, atol=1e-13)
    # multipointify keeps the point term and discretizes rho alone
    approx = multipointify(problem.operator, 4)
    assert approx.phi is None
    assert approx.nodes.tolist() == [0.125, 0.375, 0.4, 0.625, 0.875]
    assert approx.orders.tolist() == [1, 1, 0, 1, 1]
    np.testing.assert_array_equal(approx.betas[:, :, 0], [[0.0, 0.25], [0.0, 0.25], [1.0, 0.0],
                                                         [0.0, 0.5], [0.0, 0.5]])


_NODE_614 = Grid(0.0, 1.0, 2048).nodes[614]


@pytest.mark.parametrize("n, c", [
    (1024, 0.3), (2048, 0.3), (4096, 0.3), (16384, 0.3),
    pytest.param(2048, np.nextafter(_NODE_614, 1.0), id="2048-node+ulp"),
    pytest.param(2048, np.nextafter(_NODE_614, 0.0), id="2048-node-ulp"),
    pytest.param(2048, _NODE_614 + 1e-3 / 2048, id="2048-node+1e-3h"),
    pytest.param(2048, _NODE_614 - 1e-3 / 2048, id="2048-node-1e-3h"),
])
def test_a_density_step_solves_to_its_closed_form(n, c):
    # 0.3 is no node of these grids, and 1e-3 h from node 614 is none either:
    # the cell the step cuts is read by the Gauss rule on either side of it.
    # An ulp from the node, the node rule reads the step on it.  The plain
    # trapezoid over all of rho read 2.2e-4 / 3.7e-5 / 5.6e-5 / 1.4e-5 at
    # c = 0.3.
    _assert_solves_to_the_closed_form(density_step_problem(n, c))


@pytest.mark.parametrize("n, cells", [(1024, 1), (1024, 2), (2048, 1), (2048, 2)])
def test_a_density_segment_of_one_or_two_cells_solves_to_its_closed_form(n, cells):
    # rho steps up on the nodes 1/2 and 1/2 + cells h: the segment between
    # them has 2 or 3 nodes, and its cells are read by the Gauss rule.  The
    # plain trapezoid over that segment read 1.3e-10 / 2.7e-10 / 1.7e-11 /
    # 3.4e-11.
    _assert_solves_to_the_closed_form(density_step_problem(n, 0.5, 0.5 + cells / n))


def _assert_solves_to_the_closed_form(problem):
    """The jet of a ``density_step_problem`` within 1e-12 of 1 - cos t + sin t."""
    jet = solve(problem).jet
    t = jet.grid.nodes
    exact = (1.0 - np.cos(t) + np.sin(t), np.sin(t) + np.cos(t), np.cos(t) - np.sin(t))
    for got, want in zip(jet.samples, exact, strict=True):
        np.testing.assert_allclose(got[:, 0], want, rtol=0, atol=1e-12)


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
        problem, exact = corpus.build_problem(name, 16384), corpus.exact_jet(name, 16384)
        jet = solve(problem).jet
        err = max(float(np.max(np.abs(mine - ref)))
                  for mine, ref in zip(jet.samples, exact.samples))
        assert err <= 5e-14, name


@pytest.mark.parametrize("name", ["p2", "p3"])
def test_fine_grid_solve_holds_no_coefficient_table(name):
    # The pass hands over V and R only, views of its work array: the solve
    # evaluates its bottom row at the nodes over the whole grid once V and R
    # are gone, and builds the top channel and the defect then.  With the node
    # values of [A_0 ... A_{r-1} | f] handed over and kept to the end, p2
    # and p3 peaked at 4.5 and 5.8 MiB; with V and R formed beside the work
    # array, a dense compiled operator and the top channel formed while the
    # pass held its tables, at 3.5 and 3.3 MiB.
    problem = corpus.build_problem(name, 16384)
    solve(problem)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solve(problem)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * 2**20


def test_two_point_system_of_eight_holds_its_work_array_and_little_else():
    # d = 8 with a constant random A and conditions at a and b only.  The
    # pass's one work array, (8, 9, 1 + 91 chunks of 91 steps), is V and R;
    # the compiled operator weighs the 2 nodes its terms touch.  With V and
    # R formed beside the work array and a dense (8, n+1, 8) operator, the
    # solve peaked at 20.2 MiB here.
    d, n = 8, 8192
    rng = np.random.default_rng(8)
    op = BoundaryOperator(1, d, 0.0, 1.0, [
        BoundaryTerm(0.0, 0, rng.standard_normal((d, d))),
        BoundaryTerm(1.0, 0, rng.standard_normal((d, d)))])
    problem = BvpProblem(1, d, [PolyMatrix.constant(rng.standard_normal((d, d)) / d, 0.0, 1.0)],
                         PolyVector([PiecewisePoly.constant(1.0, 0.0, 1.0)] * d), np.ones(d), op,
                         Grid(0.0, 1.0, n))
    solve(problem)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solve(problem)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    work = (1 + 91 * 91) * d * (d + 1) * 16
    assert peak < work + 5 * 2**20
    assert lift(op, problem.grid).nodes.tolist() == [0, n]


def test_top_channel_is_bitwise_the_node_evaluation():
    # The solver evaluates [A_0 ... A_{r-1} | f] at the nodes a segment at
    # a time; the top channel f - sum_l A_l y^(l) must be what evaluating
    # the coefficients as given at all the nodes at once gives, for m up to 3.
    # p1-p3 at n = 8194 and the random problems at n = 2049 span several
    # segments (4096 steps at d = 2, 512 at d > 4).
    rng = np.random.default_rng(11)
    problems = [corpus.build_problem(name, n) for name in ("p1", "p2", "p3") for n in (2048, 8194)]
    problems += [random_problem(rng, 257) for _ in range(8)]
    problems += [random_problem(rng, 2049) for _ in range(4)]
    assert max(problem.m for problem in problems) == 3
    assert max(problem.d for problem in problems if problem.grid.n == 2049) > 4
    for problem in problems:
        jet = solve(problem).jet
        nodes = problem.grid.nodes
        top = problem.f.eval_at(nodes)
        for l in range(problem.r):
            A = problem.coeffs[l].eval_at(nodes)
            top -= np.einsum("nij,nj->ni", A, jet.samples[l])
        assert jet.samples[-1].tobytes() == top.tobytes()


def test_a_family_evaluates_each_coefficient_set_once(monkeypatch):
    # A theorem 3 family of p2 with k = 3, 4, 7 and 8: the limit and the even
    # k share their coefficients bit for bit, the odd k have their own, so
    # the finish reads A's bottom row at the nodes for three sets, once over
    # the whole grid, and each member's f alone, once, never with it.  Every
    # member's jet is still the one it has solved alone.
    problem = corpus.build_problem("p2", 2048)
    members = [build_multipoint_problem(problem, k, f=f_k, q=q_k)
               for k, f_k, q_k in sawtooth_rhs(problem, (3, 4, 7, 8), 1e-3)]
    family = [problem, *members]
    calls, at_nodes = [], bvp._at_nodes

    def recording(rows, grid, out=None):
        calls.append(_bits(e for row in rows for e in row))
        return at_nodes(rows, grid, out)

    monkeypatch.setattr(bvp, "_at_nodes", recording)
    solutions, _ = _solve_pass(family, inverse=True)
    monkeypatch.undo()
    sets = {_bits(e for A in p.coeffs for row in A.entries for e in row): p for p in family}
    assert len(sets) == 3
    rows = [_bits(e for row in companion_reduce(p)[0].entries[-p.m:] for e in row)
            for p in sets.values()]
    rows += [_bits(p.f.components) for p in family]
    assert sorted(calls) == sorted(rows)
    for member, together in zip(family, solutions, strict=True):
        alone = solve(member).jet
        assert len(together.jet.samples) == len(alone.samples) == member.r + 1
        for have, want in zip(together.jet.samples, alone.samples, strict=True):
            assert have.tobytes() == want.tobytes()


def test_one_pass_top_channel_is_bitwise_the_per_segment_one():
    # On 8194 steps p2's jump at 1/2 is node 4097, one step inside the pass's
    # third segment of 2048 steps.  Reading the whole grid at once must give
    # the bits that reading it a segment at a time gave.
    problem = corpus.build_problem("p2", 8194)
    jet = solve(problem).jet
    P, g = companion_reduce(problem)[:2]
    d, m, r, grid = problem.d, problem.m, problem.r, problem.grid
    step = _segment_steps(d)
    assert 4097 % step == 1
    top = np.empty((grid.n + 1, m), dtype=complex)
    for lo in range(0, grid.n + 1, step):
        hi = min(lo + step, grid.n + 1) - 1

        def at_nodes(rows):
            return np.stack([np.stack([e._node_values(grid, lo, hi) for e in row], axis=-1)
                             for row in rows], axis=-2)

        values = at_nodes(P.entries[d - m:])
        block = top[lo:hi + 1]
        block[:] = at_nodes([g.components[d - m:]])[:, 0]
        for l in range(r):
            block -= np.einsum("nij,nj->ni", values[..., l * m:(l + 1) * m],
                               jet.table[lo:hi + 1, l])
    assert jet.samples[r].tobytes() == top.tobytes()


# ---------------------------------------------------------------------------
# Metamorphic relations of the solve


def _multipoint_random_problems(seed, count=12, n=256):
    """``count`` seeded random problems on n steps, each with a multipoint
    operator: a general one is replaced by its k = 2 multipoint form, and a
    problem that form leaves refused is drawn again."""
    rng = np.random.default_rng(seed)
    problems = []
    while len(problems) < count:
        problem = random_problem(rng, n=n)
        if problem.operator.phi is not None:
            problem = dataclasses.replace(problem, operator=multipointify(problem.operator, 2))
            try:
                solve(problem)
            except NotUniquelySolvableError:
                continue
        problems.append(problem)
    return problems, rng


def _with_terms(problem, terms):
    op = problem.operator
    return dataclasses.replace(
        problem, operator=BoundaryOperator(op.r, op.m, op.a, op.b, terms))


def _random_terms(rng, problem, nodes, beta=None):
    """One term at each of ``nodes``, of random order, with weight ``beta``
    or a random one."""
    shape = (problem.r * problem.m, problem.m)
    return [BoundaryTerm(node=float(t), order=int(rng.integers(0, problem.r)),
                         beta=(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                               if beta is None else beta))
            for t in nodes]


def _assert_same_weights_and_jet(problem, other, scale=1.0):
    """lift(W) of the two operators is bitwise the same (for scale 1), and
    the jet of ``other`` is bitwise ``scale`` times that of ``problem``."""
    if scale == 1.0:
        np.testing.assert_array_equal(dense_weights(lift(other.operator, other.grid)),
                                      dense_weights(lift(problem.operator, problem.grid)))
    for x, y in zip(solve(problem).jet.samples, solve(other).jet.samples, strict=True):
        np.testing.assert_array_equal(y, scale * x)


def test_permuting_multipoint_terms_leaves_weights_and_jet_unchanged():
    # Each operator gains 3 fresh nodes with 2 terms each and a term at
    # each of its own nodes; terms of one node and order sum in input
    # order, so the permutation keeps equal nodes in their order.
    problems, rng = _multipoint_random_problems(seed=81)
    for problem in problems:
        op = problem.operator
        nodes = np.concatenate([np.repeat(rng.uniform(op.a, op.b, 3), 2), op.nodes])
        terms = [*op.terms, *_random_terms(rng, problem, nodes)]
        perm = tie_keeping_permutation(rng, np.array([term.node for term in terms]))
        assert not np.array_equal(perm, np.arange(len(terms)))
        _assert_same_weights_and_jet(_with_terms(problem, terms),
                                     _with_terms(problem, [terms[i] for i in perm]))


def test_zero_weight_terms_leave_weights_and_jet_unchanged():
    # Zero weights of either sign, at fresh nodes, at the ends and at the
    # operator's own nodes.
    problems, rng = _multipoint_random_problems(seed=82)
    for problem in problems:
        op = problem.operator
        shape = (problem.r * problem.m, problem.m)
        terms = list(op.terms)
        for zero in (0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)):
            nodes = [*rng.uniform(op.a, op.b, 2), op.a, op.b, *op.nodes]
            terms += _random_terms(rng, problem, nodes, np.full(shape, zero))
        _assert_same_weights_and_jet(problem, _with_terms(problem, terms))


def test_scaling_f_and_q_scales_the_jet_exactly():
    problems, _ = _multipoint_random_problems(seed=83)
    for problem in problems:
        for e in (300, -300):
            scale = 2.0 ** e
            scaled = dataclasses.replace(problem, f=problem.f * scale, q=problem.q * scale)
            _assert_same_weights_and_jet(problem, scaled, scale)


def test_scaling_weights_and_q_leaves_the_jet_unchanged():
    # 2**1023 overflows most random weights, so each problem is also scaled
    # by the largest power of two that keeps its weights finite.
    problems, _ = _multipoint_random_problems(seed=84)
    checked = 0
    for problem in problems:
        jet = solve(problem).jet.samples
        top = 1023 - max(np.frexp(np.abs(problem.operator.betas.view(float)).max())[1], 0)
        for e in (300, -300, 900, -900, 1023, top):
            scale = 2.0 ** e
            with np.errstate(over="ignore"):
                if not np.all(np.isfinite(problem.operator.betas * scale)):
                    continue
            scaled = solve(scaled_boundary_problem(problem, scale)).jet.samples
            for x, y in zip(jet, scaled, strict=True):
                np.testing.assert_array_equal(x, y)
            checked += 1
    assert checked >= 5 * len(problems)
