"""Approximation pipeline: coefficient means, sweeps, constants, bounds."""

import dataclasses
import re
import tracemalloc
import weakref

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
    approximate_coefficients,
    build_multipoint_problem,
    constant_shift_rhs,
    corpus,
    multipointify,
    remark3_constants,
    sawtooth_rhs,
    solve,
    sweep,
    theorem2_check,
    theorem3_check,
)
from mpbvp.approx import ErrorConstants, SweepRow, _sawtooth
from mpbvp.boundary import default_probe_jets, norm_lower_bound, norm_upper_bound
from mpbvp import bvp, linode
from mpbvp.bvp import companion_reduce
from mpbvp.funcspace import (MAX_GRID_N, _check_k, _equal_partition, _located, mat_norm, norm_cl,
                             norm_w1r, traj_norm_c)
from mpbvp.linode import inverse_fundamental
from oracles import (exact_mean, expm_taylor, interval_integral, random_problem,
                     scaled_boundary_problem)


def _identity_matrix_fn():
    return PolyMatrix([[PiecewisePoly.single([0.0, 1.0], 0.0, 1.0)]])  # A(t) = t


def test_interval_means_of_linear_coefficient():
    A2 = approximate_coefficients(_identity_matrix_fn(), 2)
    entry = A2.entries[0][0]
    assert entry(0.2) == 0.25
    assert entry(0.7) == 0.75


def test_constant_coefficient_is_fixed_point():
    A = PolyMatrix.constant([[3.0 - 1.0j]], 0.0, 1.0)
    for k in (1, 3, 8):
        Ak = approximate_coefficients(A, k)
        ts = np.linspace(0.0, 1.0, 17)
        np.testing.assert_allclose(Ak.eval_at(ts), A.eval_at(ts), atol=1e-15)


def test_interval_means_are_bitwise_the_per_interval_means():
    rng = np.random.default_rng(2)
    bp = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 9)), [1.0]])
    A = PolyMatrix([[PiecewisePoly(bp, [rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
                                        for d in rng.integers(0, 9, 10)])
                     for _ in range(2)] for _ in range(2)])
    for k in (1, 3, 7, 64):
        for row, approx_row in zip(A.entries, approximate_coefficients(A, k).entries):
            for entry, approx in zip(row, approx_row):
                _assert_midpoints_are_the_means(entry, approx, k)


def _assert_midpoints_are_the_means(entry, approx, k):
    """Each cell's mean is the part rule's, bit for bit: the mean of the one
    part that covers the cell, or else its integral over its width.  Each lies
    within 1e-15 of the entry's sup of the exact mean; means that differenced
    the global antiderivative read up to 1.2e-14 here (k = 64)."""
    edges = _equal_partition(entry.a, entry.b, k)
    _, means, first = entry._parts(edges)
    covered = np.diff(first) == 1
    want = np.array([interval_integral(entry, c, d) / (d - c)
                     for c, d in zip(edges[:-1], edges[1:])])
    want[covered] = means[first[:-1][covered]]
    got = approx(0.5 * (edges[:-1] + edges[1:]))
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    exact = np.array([exact_mean(entry, c, d) for c, d in zip(edges[:-1], edges[1:])])
    sup = np.abs(entry(np.linspace(entry.a, entry.b, 4097))).max()
    assert np.abs(got - exact).max() <= 1e-15 * sup


def _step_entries(rng):
    """Step functions on [0, 1] with a few exact values, jumping at multiples
    of 1/21, so that the means on cells of 3 and 7 parts repeat."""
    for _ in range(6):
        bp = np.concatenate([[0.0], np.sort(rng.choice(np.arange(1, 21), 4, replace=False)) / 21,
                             [1.0]])
        yield PiecewisePoly.step(bp, rng.choice([1.0, 2.0, -0.5j, 0.0], bp.size - 1))


def test_interval_means_keep_one_piece_per_run_of_equal_means():
    rng = np.random.default_rng(16)
    entries = list(_step_entries(rng))
    for _ in range(2):
        problem = random_problem(rng, n=64)
        entries += [entry for A in problem.coeffs for row in A.entries for entry in row]
    merged = 0
    for k in (1, 3, 7, 64):
        for entry in entries:
            approx = approximate_coefficients(PolyMatrix([[entry]]), k).entries[0][0]
            bits = approx.table.view(np.uint64)
            assert not (bits[1:] == bits[:-1]).all(axis=1).any()
            edges = entry.a + (entry.b - entry.a) * np.arange(k + 1) / k
            assert np.isin(approx.breakpoints, edges).all()
            _assert_midpoints_are_the_means(entry, approx, k)
            merged += k - approx.npieces
    assert merged > 0


@pytest.mark.parametrize("a", [0.0, 1000.0, 1e6])
def test_means_of_a_constant_are_one_piece_with_its_bits(a):
    # The means once divided a difference of the global antiderivative by
    # the width: 0.3 on [0, 1] broke into 3 / 6 pieces at k = 4 / 7.
    for c in (0.3, 0.1 + 0.7j, -1 / 3):
        A = PolyMatrix([[PiecewisePoly.constant(c, a, a + 1.0)]])
        for k in (3, 7, 16, 1024):
            approx = approximate_coefficients(A, k).entries[0][0]
            assert approx.breakpoints.tolist() == [a, a + 1.0]
            np.testing.assert_array_equal(approx.table.view(np.uint64),
                                          np.array([[c]], dtype=complex).view(np.uint64))


@pytest.mark.parametrize("a", [0.0, 1000.0, 1e6])
def test_a_step_on_the_partition_keeps_its_own_bits(a):
    bp = _equal_partition(a, a + 1.0, 8)[[0, 3, 5, 8]]
    entry = PiecewisePoly.step(bp, [0.3, 0.1 + 0.7j, -1 / 3])
    for k in (8, 16, 1024):
        approx = approximate_coefficients(PolyMatrix([[entry]]), k).entries[0][0]
        np.testing.assert_array_equal(approx.breakpoints.view(np.uint64), bp.view(np.uint64))
        np.testing.assert_array_equal(approx.table.view(np.uint64), entry.table.view(np.uint64))
    # 0.3 beside a cubic: means read from constant pieces alone missed this
    # entry, and 0.3 broke into 297 pieces on [0, 0.5] at k = 1024.
    entry = PiecewisePoly([a, a + 0.5, a + 1.0], [[0.3], [0.1, 0.2, 0.3, 0.4]])
    for k in (10, 1024):
        approx = approximate_coefficients(PolyMatrix([[entry]]), k).entries[0][0]
        assert approx.breakpoints[:2].tolist() == [a, a + 0.5]
        np.testing.assert_array_equal(approx.table[0].view(np.uint64),
                                      np.array([0.3], dtype=complex).view(np.uint64))


def test_a_short_entry_s_last_cell_is_the_mean_of_its_part():
    # An entry that ends 5e-10 short of b spans [0, 1] by the interval rule.
    # Its last cell's integral, divided by the full cell width, read 5.1e-7
    # off the full-span entry's mean.  A last cell that 0.9999 cuts takes the
    # mean over the part of it that the entry covers.
    full = PiecewisePoly.single([1.0, 2.0], 0.0, 1.0)
    short = PiecewisePoly.single([1.0, 2.0], 0.0, 1.0 - 5e-10)
    cut = PiecewisePoly([0.0, 0.9999, 1.0 - 5e-10], [[1.0, 2.0], [3.0, 2.0]])
    means = approximate_coefficients(PolyMatrix([[full, short, cut]]), 1024).entries[0]
    want, got, got_cut = (entry(1.0) for entry in means)
    assert abs(got - want) <= 1e-9 * abs(want)
    want_cut = exact_mean(cut, 1.0 - 1.0 / 1024, cut.b)
    assert abs(got_cut - want_cut) <= 1e-15 * abs(want_cut)


def test_signed_zero_means_stay_apart():
    # The mean over [0, 4] underflows to -0.0, the mean over [4, 8] is +0.0.
    entry = PiecewisePoly.step([0.0, 0.25, 8.0], [-2e-323, 0.0])
    approx = approximate_coefficients(PolyMatrix([[entry]]), 2).entries[0][0]
    assert approx.breakpoints.tolist() == [0.0, 4.0, 8.0]
    assert np.signbit(approx.table.real[:, 0]).tolist() == [True, False]


def test_a_signed_zero_in_a_constant_piece_reads_plus_zero():
    # A part's mean is Horner's, which adds mid * 0 as evaluation does, so a
    # -0.0 real or imaginary part of a constant piece averages to +0.0.
    entry = PiecewisePoly([0.0, 0.5, 1.0], [[-0.0], [complex(1.0, -0.0)]])
    approx = approximate_coefficients(PolyMatrix([[entry]]), 4).entries[0][0]
    assert approx.breakpoints.tolist() == [0.0, 0.5, 1.0]
    np.testing.assert_array_equal(approx.table.view(np.uint64),
                                  np.array([[0.0], [1.0]], dtype=complex).view(np.uint64))


@pytest.mark.parametrize("name", corpus.CORPUS_NAMES)
def test_corpus_approximations_store_the_limit_pieces(name):
    problem = corpus.build_problem(name, 2048)
    for k in (4, 1024):
        approx = build_multipoint_problem(problem, k)
        for A, Ak in zip(problem.coeffs, approx.coeffs):
            for row, approx_row in zip(A.entries, Ak.entries):
                for entry, approx_entry in zip(row, approx_row):
                    assert approx_entry.npieces == entry.npieces
                    for got, want in zip(approx_entry.grid_samples(problem.grid),
                                         entry.grid_samples(problem.grid)):
                        np.testing.assert_array_equal(got, want)


def test_mean_approximation_l1_error_law():
    # For A(t) = t the L1 distance to its interval means is exactly 1/(4k).
    A = _identity_matrix_fn()
    for k in (1, 2, 4, 8, 16):
        gap = PolyMatrix([[A.entries[0][0] - approximate_coefficients(A, k).entries[0][0]]])
        assert abs(gap.l1_norm() - 1.0 / (4.0 * k)) <= 1e-12


def test_build_multipoint_problem_keeps_rhs():
    problem = corpus.build_problem("p1", 256)
    approx = build_multipoint_problem(problem, 4)
    assert approx.operator.phi is None
    assert approx.f is problem.f
    np.testing.assert_array_equal(approx.q, problem.q)


def test_build_multipoint_problem_is_fixed_point_on_multipoint_input():
    problem = corpus.build_problem("p1", 256)
    once = build_multipoint_problem(problem, 4)
    twice = build_multipoint_problem(once, 7)
    assert twice.operator is once.operator


def test_sweep_errors_decrease_on_p1():
    problem = corpus.build_problem("p1", 512)
    report = sweep(problem, [4, 8, 16, 32, 64])
    errs = [row.err_w1r for row in report.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert report.rho_solvable == 4
    assert report.ok
    assert [row.k for row in report.rows] == [4, 8, 16, 32, 64]


def test_sweep_on_a_decimal_interval_falls_as_k_squared():
    # y'' + t y = 1, y(0.1) = 1, y(0.7) = 0: the member edges 0.1 + 0.6 j / k
    # miss their nodes by an ulp (14 of 99 at k = 100), and the node rule
    # reads them on their nodes.  Read inside the steps, they lifted
    # k^2 err_cr1 by 22 % from k = 12 to k = 100.
    a, b = 0.1, 0.7
    terms = [BoundaryTerm(a, 0, np.array([[1.0], [0.0]])),
             BoundaryTerm(b, 0, np.array([[0.0], [1.0]]))]
    problem = BvpProblem(
        r=2, m=1,
        coeffs=[PolyMatrix([[PiecewisePoly.single([0.0, 1.0], a, b)]]), PolyMatrix.zero(1, 1, a, b)],
        f=PolyVector([PiecewisePoly.constant(1.0, a, b)]),
        q=np.array([1.0, 0.0]),
        operator=BoundaryOperator(2, 1, a, b, terms),
        grid=Grid(a, b, 3000),
    )
    edges = a + (b - a) * np.arange(1, 100) / 100
    assert np.count_nonzero(edges != problem.grid.nodes[30:3000:30]) > 0
    report = sweep(problem, [3, 6, 12, 30, 60, 100])
    scaled = {row.k: row.k ** 2 * row.err_cr1 for row in report.rows}
    for k in (30, 60, 100):
        assert abs(scaled[k] / scaled[12] - 1.0) <= 0.02, scaled


def _singular_at_k1_problem():
    # The condition integral of 6(t - 1/2) y dt kills the k = 1 midpoint
    # discretization (its single atom has zero weight) while the limit
    # problem and every k >= 2 stay uniquely solvable.
    a, b = 0.0, 1.0
    phi = MatrixMeasure([[ScalarMeasure.from_density(
        PiecewisePoly.single([-3.0, 6.0], a, b))]])
    return BvpProblem(
        r=1, m=1,
        coeffs=[PolyMatrix.constant([[1.0]], a, b)],
        f=PolyVector([PiecewisePoly.constant(1.0, a, b)]),
        q=np.array([0.1], dtype=complex),
        operator=GeneralBoundaryOperator(1, 1, [], phi),
        grid=Grid(a, b, 512),
    )


def test_sweep_flags_singular_rows_without_failing():
    problem = _singular_at_k1_problem()
    report = sweep(problem, [1, 2, 4, 8])
    assert not report.rows[0].solvable
    assert all(row.solvable for row in report.rows[1:])
    assert report.rho_solvable == 2
    assert report.ok


def test_remark3_constants_reference_problem():
    # y' = f with y(0) = q on [0, 1]: the matrizant is constant 1, the
    # boundary norm is 1, so c1 = c2 = 2 and kappa = (2+2)*1 + 4 + 1 = 9.
    a, b = 0.0, 1.0
    problem = BvpProblem(
        r=1, m=1,
        coeffs=[PolyMatrix.zero(1, 1, a, b)],
        f=PolyVector([PiecewisePoly.constant(1.0, a, b)]),
        q=np.array([0.0], dtype=complex),
        operator=BoundaryOperator(1, 1, a, b, [
            BoundaryTerm(node=a, order=0, beta=np.array([[1.0]])),
        ]),
        grid=Grid(a, b, 2048),
    )
    constants = remark3_constants(problem)
    assert abs(constants.c1 - 2.0) <= 1e-9
    assert abs(constants.c2 - 2.0) <= 1e-9
    assert abs(constants.lambda_hat - 1.0) <= 1e-9
    assert abs(constants.kappa_hat - 9.0) <= 1e-9
    assert abs(constants.sigma_hat - 1.0) <= 1e-12

    # the constants depend only on the operator pair, not on the data
    scaled = BvpProblem(r=1, m=1, coeffs=problem.coeffs, f=problem.f,
                        q=10.0 * problem.q, operator=problem.operator,
                        grid=problem.grid)
    again = remark3_constants(scaled)
    assert again == constants


def test_remark3_constants_second_order_dirichlet():
    # y'' = f with y(0), y(1) prescribed.  The companion matrizant is
    # [[1, t], [0, 1]], so |V|_C = |V^-1|_C = 2, the characteristic matrix
    # is [[1, 0], [1, 1]] with inverse norm 2, and the probe bound for the
    # operator norm is 2. Hence c1 = 5, c2 = 6, kappa = 11/2 + 30 + 1.
    a, b = 0.0, 1.0
    d = 2
    terms = []
    for row, node in enumerate((a, b)):
        beta = np.zeros((d, 1), dtype=complex)
        beta[row, 0] = 1.0
        terms.append(BoundaryTerm(node=node, order=0, beta=beta))
    problem = BvpProblem(
        r=2, m=1,
        coeffs=[PolyMatrix.zero(1, 1, a, b)] * 2,
        f=PolyVector.zero(1, a, b),
        q=np.zeros(2, dtype=complex),
        operator=BoundaryOperator(2, 1, a, b, terms),
        grid=Grid(a, b, 2048),
    )
    constants = remark3_constants(problem)
    assert abs(constants.c1 - 5.0) <= 1e-9
    assert abs(constants.c2 - 6.0) <= 1e-9
    assert abs(constants.lambda_hat - 0.5) <= 1e-9
    assert abs(constants.kappa_hat - 36.5) <= 1e-9


def test_remark3_p3_closed_form_constants():
    problem = corpus.build_problem("p3", 1024)
    constants = remark3_constants(problem)
    assert abs(constants.c1 - 4.0) <= 1e-9
    assert abs(constants.c2 - 6.0) <= 1e-9
    assert abs(constants.lambda_hat - 0.5) <= 1e-9
    assert abs(constants.sigma_hat - 3.0) <= 1e-10
    assert abs(constants.kappa_hat - 30.0) <= 1e-8


def test_remark3_p1_closed_form_constants():
    # y' + y = f with the integral condition: V = e^-t, so |V|_C = 1 but
    # |V^-1|_C = e, and [TV] = 1 - 1/e.
    constants = remark3_constants(corpus.build_problem("p1", 512))
    assert abs(constants.c1 - (1.0 + 1.0 / (1.0 - np.exp(-1.0)))) <= 1e-9
    assert abs(constants.c2 - (2.0 + np.e)) <= 1e-9


def test_certificate_is_valid():
    # lambda_hat * sigma_hat >= 1 always (the identity B applied after B^-1);
    # a certificate below that would be unsound.
    for name in ("p1", "p2", "p3"):
        constants = remark3_constants(corpus.build_problem(name, 512))
        assert constants.lambda_hat * constants.sigma_hat >= 1.0 - 1e-12


def test_eq19_style_boundedness_along_sweep():
    problem = corpus.build_problem("p2", 512)
    report = sweep(problem, [4, 8, 16, 32, 64])
    c1 = remark3_constants(problem).c1
    for row in report.rows:
        if row.solvable and row.k >= report.rho_solvable:
            assert row.c1_factor <= c1 + 1e-9


def test_characteristic_matrices_converge():
    from mpbvp.bvp import companion_reduce
    from mpbvp.linode import fundamental_matrix

    problem = corpus.build_problem("p1", 512)
    P, _, T, _ = companion_reduce(problem)
    V = fundamental_matrix(P, problem.grid)
    char = T.apply_trajectory(V)
    gaps = []
    for k in (4, 16, 64):
        pk = build_multipoint_problem(problem, k)
        Pk, _, Tk, _ = companion_reduce(pk)
        Vk = fundamental_matrix(Pk, problem.grid)
        char_k = Tk.apply_trajectory(Vk)
        gaps.append(float(np.max(np.abs(char_k - char))))
    assert gaps[1] <= gaps[0] / 2.0
    assert gaps[2] <= gaps[1] / 2.0


def test_theorem2_constant_shift():
    problem = corpus.build_problem("p1", 512)
    eps = 1e-3
    # the ratio stabilizes once the approximation error is far below the
    # fixed perturbation response, which takes k in the hundreds
    entries = constant_shift_rhs(problem, [4, 16, 64, 128, 256], eps)
    report = theorem2_check(problem, entries, eps)
    assert report.ok
    assert report.rho_solvable == 4
    assert report.stable
    constants = remark3_constants(problem)
    # measured ratio must sit below the conservative certificate
    assert report.measured_kappa <= constants.kappa_hat


def test_theorem2_rejects_large_perturbation():
    problem = corpus.build_problem("p1", 256)
    eps = 1e-3
    entries = constant_shift_rhs(problem, [4, 8], 4.0 * eps)  # L1 gap = 2 eps
    with pytest.raises(ValueError):
        theorem2_check(problem, entries, eps)


def test_theorem_checks_refuse_pair_entries():
    problem = corpus.build_problem("p1", 256)
    eps = 1e-3
    pairs = [(f_k, q_k) for _, f_k, q_k in constant_shift_rhs(problem, [1, 2], eps)]
    for check in (theorem2_check, theorem3_check):
        with pytest.raises(ValueError, match=r"\(k, f, q\) entries"):
            check(problem, pairs, eps)


def test_theorem3_sawtooth_certificate():
    problem = corpus.build_problem("p1", 1024)
    eps = 1e-3
    entries = sawtooth_rhs(problem, [4, 8, 16, 32, 64], eps)
    report = theorem3_check(problem, entries, eps)
    assert report.ok
    assert report.rho_bound == 4
    bound = report.meta["bound"]
    for row in report.rows:
        assert row.bound_holds
        assert row.margin < 1.0
        assert row.err_cr1 < bound
        # the same perturbation breaks the strong L1 condition at every k
        assert row.l1_gap >= eps
        assert row.primitive_gap < eps


def test_theorem3_rejects_large_primitive():
    problem = corpus.build_problem("p1", 256)
    eps = 1e-3
    # a constant shift of 1.25*eps/(b-a) has primitive sup 1.25*eps >= eps
    entries = constant_shift_rhs(problem, [4, 8], 2.5 * eps)
    with pytest.raises(ValueError):
        theorem3_check(problem, entries, eps)


def test_sawtooth_shape():
    # The sawtooth perturbs f's component 0 alone: p3 has m = 2.
    problem = corpus.build_problem("p3", 512)
    a, b, eps = problem.a, problem.b, 1e-3
    [(_, f_k, _)] = sawtooth_rhs(problem, [8], eps)
    assert f_k.m == 2
    assert (f_k.components[1] - problem.f.components[1]).is_zero
    piece = _sawtooth(a, b, 8, eps)
    assert f_k.components[0].table.tobytes() == (problem.f.components[0] + piece).table.tobytes()
    # zero mean, exactly
    assert abs(interval_integral(piece, 0.0, 1.0)) <= 1e-15
    # L1 mass about 1.4 * eps * k
    assert abs(piece.abs_integral() - 1.4 * eps * 8) <= 0.1 * eps
    # breakpoints are the 2k equal parts of [a, b], whatever the grid
    assert piece.breakpoints.tobytes() == _equal_partition(a, b, 16).tobytes()


def _reference_sawtooth(a, b, k, eps):
    """The square wave as a loop over the teeth: tooth edge j sits at
    a + (b - a) j / (2k)."""
    amplitude = 1.4 * eps * k / (b - a)
    breakpoints = [a + (b - a) * j / (2 * k) for j in range(2 * k + 1)]
    values = [amplitude if j % 2 == 0 else -amplitude for j in range(2 * k)]
    mean = float(np.dot(values, np.diff(np.asarray(breakpoints)))) / (b - a)
    return PiecewisePoly.step(breakpoints, [v - mean for v in values])


_SAWTOOTH_INTERVALS = [(0.0, 1.0), (-1.0, 2.0), (-3.5, -0.25), (1e-3, 1e-3 + 1e-6)]


@pytest.mark.parametrize("interval", _SAWTOOTH_INTERVALS)
def test_sawtooth_matches_the_per_tooth_loop(interval):
    # Every k that a grid of n steps admits, n odd and even.
    for n in (4, 5, 16, 17, 64, 100, 2048):
        for k in range(1, n // 4 + 1):
            got = _sawtooth(*interval, k, 1e-3)
            want = _reference_sawtooth(*interval, k, 1e-3)
            assert got.breakpoints.tobytes() == want.breakpoints.tobytes()
            assert got.table.tobytes() == want.table.tobytes()


@pytest.mark.parametrize("interval", _SAWTOOTH_INTERVALS)
def test_sawtooth_jumps_lie_on_the_nodes_of_a_grid_that_2k_divides(interval):
    # Then the pass reads every jump on its node, at full order; on [0, 1],
    # the corpus interval, each jump has its node's bits.
    for n in (4, 16, 64, 100, 2048):
        grid = Grid(*interval, n)
        for k in (k for k in range(1, n // 4 + 1) if n % (2 * k) == 0):
            t = _sawtooth(*interval, k, 1e-3).breakpoints
            index, on = _located(grid, t)
            assert on.all()
            assert (index == np.arange(2 * k + 1) * (n // (2 * k))).all()
            if interval == (0.0, 1.0):
                assert t.tobytes() == grid.nodes[index].tobytes()


def test_sawtooth_needs_enough_cells():
    # The first k of the list with 4k > n is named.
    problem = corpus.build_problem("p1", 16)
    assert [k for k, _, _ in sawtooth_rhs(problem, [4, 2], 1e-3)] == [4, 2]
    with pytest.raises(ValueError, match=r"^sawtooth with 8 teeth needs a grid with n >= 32$"):
        sawtooth_rhs(problem, [2, 8, 16], 1e-3)


_CORPUS_KS = [4, 8, 16, 32, 64, 128, 256]


@pytest.mark.parametrize("name", ["p1", "p2", "p3"])
def test_theorem3_rows_do_not_depend_on_the_grid(name):
    # The sawtooth's jumps lie on the nodes of either grid and the primitive
    # gap is read exactly, so the coarse grid's error and gap are the fine
    # grid's.  With jumps snapped to cell midpoints and a trapezoid primitive
    # they were 5-12 % and 4e-4 apart.
    eps, rows = 1e-3, []
    for n in (2048, 16384):
        problem = corpus.build_problem(name, n)
        rows.append(theorem3_check(problem, sawtooth_rhs(problem, _CORPUS_KS, eps), eps).rows)
    for coarse, fine in zip(*rows):
        assert abs(coarse.err_cr1 - fine.err_cr1) <= 1e-9 * fine.err_cr1
        assert abs(coarse.primitive_gap - fine.primitive_gap) <= 1e-9 * fine.primitive_gap


@pytest.mark.parametrize("name", ["p1", "p2", "p3"])
@pytest.mark.parametrize("n", [2048, 2049])
def test_theorem3_primitive_gap_is_a_half_tooth(name, n):
    # The sup of the sawtooth's primitive is a half tooth's area, 0.7 eps, on
    # a grid whose nodes carry the jumps and on one (n = 2049) whose cells
    # they cut.  Integrals that differenced a global antiderivative read up
    # to 7.7e-13 (p2, k = 256); what is left is f + sawtooth - f as formed.
    eps = 1e-3
    problem = corpus.build_problem(name, n)
    report = theorem3_check(problem, sawtooth_rhs(problem, _CORPUS_KS, eps), eps)
    for row in report.rows:
        assert abs(row.primitive_gap - 0.7 * eps) <= 1e-13 * 0.7 * eps


def test_solvability_gate_does_not_depend_on_the_weight_scale():
    # |char|^2 overflows at 2**660 and underflows at 2**-660; a power-of-two
    # scale leaves every step of the solve exact, so the jet is unchanged.
    # At 2**1023 an entry of [TV] itself overflows, so the weights are
    # scaled before they are applied.
    problem = build_multipoint_problem(corpus.build_problem("p3"), 4)
    reference = solve(problem)
    for scale in (2.0**1023, 2.0**660, 2.0**-660):
        scaled = scaled_boundary_problem(problem, scale)
        sol = solve(scaled)
        for got, expected in zip(sol.jet.samples, reference.jet.samples):
            np.testing.assert_array_equal(got, expected)
        assert sol.cond == reference.cond
        remark3_constants(scaled)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_eps_must_be_positive_and_finite(eps):
    problem = corpus.build_problem("p1", 256)
    entries = constant_shift_rhs(problem, [4, 8], 1e-3)
    message = "^eps must be positive and finite$"
    for check in (theorem2_check, theorem3_check):
        with pytest.raises(ValueError, match=message):
            check(problem, entries, eps)
    for build in (constant_shift_rhs, sawtooth_rhs):
        with pytest.raises(ValueError, match=message):
            build(problem, [4, 8], eps)


def _nearly_singular_problem():
    # V = I, so the characteristic matrix is beta_0 + beta_1 with
    # |det| = 1e-14, below the gate's 1e-12 * |char|^2 = 4e-12.
    a, b = 0.0, 1.0
    return BvpProblem(
        r=1, m=2,
        coeffs=[PolyMatrix.zero(2, 2, a, b)],
        f=PolyVector.zero(2, a, b),
        q=np.zeros(2, dtype=complex),
        operator=BoundaryOperator(1, 2, a, b, [
            BoundaryTerm(node=a, order=0, beta=np.array([[1.0, 1.0], [0.0, 0.0]])),
            BoundaryTerm(node=b, order=0, beta=np.array([[0.0, 0.0], [1.0, 1.0 + 1e-14]])),
        ]),
        grid=Grid(a, b, 64),
    )


def test_constants_and_solve_share_the_solvability_gate():
    problem = _nearly_singular_problem()
    with pytest.raises(NotUniquelySolvableError):
        solve(problem)
    with pytest.raises(NotUniquelySolvableError):
        remark3_constants(problem)


def test_reported_det_has_no_nan_part():
    # |det| = 2 * 2**1320 leaves the float range; the imaginary part is 0.
    problem = build_multipoint_problem(corpus.build_problem("p3"), 4)
    for scale in (2.0**660, 2.0**1023):
        sol = solve(scaled_boundary_problem(problem, scale))
        assert sol.det == complex(np.inf, 0.0)
    assert solve(scaled_boundary_problem(problem, 2.0**-660)).det == 0.0
    # A refusal reports its det the same way.
    singular = _nearly_singular_problem()
    with pytest.raises(NotUniquelySolvableError) as refused:
        solve(scaled_boundary_problem(singular, 2.0**660))
    assert not np.isnan(refused.value.det.real) and not np.isnan(refused.value.det.imag)


def _primitive_sup(p, grid):
    """The sup of p's primitive from a, summed from its exact integrals
    between the nodes and p's breakpoints."""
    points = np.sort(np.concatenate([grid.nodes, p.breakpoints]))
    return float(np.abs(np.cumsum(p.integrals(points))).max())


def _reference_report(problem, entries, theorem, eps):
    """Rows of a sweep (theorem None) or a theorem check, from one solve
    per member, and the constants of theorem 3's check, with Z integrated
    on its own; a sweep and theorem 2's check form none."""
    grid = problem.grid
    reference = solve(problem)
    rows = []
    for k, f_k, q_k in entries:
        member = build_multipoint_problem(problem, k, f=f_k, q=q_k)
        row = SweepRow(k=k, solvable=False, sigma_hat=norm_upper_bound(member.operator))
        try:
            sol = solve(member)
        except NotUniquelySolvableError as exc:
            row.det_abs = abs(exc.det)
        else:
            row.solvable = True
            row.det_abs = abs(sol.det)
            row.c1_factor = sol.matrizant_norm_c * mat_norm(np.linalg.inv(sol.char_matrix))
            diff = sol.jet - reference.jet
            row.err_w1r = norm_w1r(diff)
            row.err_cr1 = norm_cl(diff, problem.r - 1)
        rows.append(row)
    if theorem is None:
        for row in rows:
            row.bound_holds = row.solvable
        return rows, None
    if theorem == 2:
        for row, (_, f_k, _) in zip(rows, entries):
            row.l1_gap = (f_k - problem.f).l1_norm()
            if row.solvable:
                row.ratio = row.err_w1r / eps
        return rows, None
    v_c = reference.matrizant_norm_c
    w_c = traj_norm_c(inverse_fundamental(companion_reduce(problem)[0], grid))
    c1 = 1.0 + v_c * mat_norm(np.linalg.inv(reference.char_matrix))
    if problem.r == 1:
        c2 = 2.0 + v_c * w_c * problem.coeffs[0].l1_norm()
    else:
        c2 = 2.0 + v_c * w_c * ((problem.b - problem.a) + problem.coeffs[-1].l1_norm())
    lam = 1.0 / norm_lower_bound(problem.operator,
                                 default_probe_jets(problem.r, problem.m, grid))
    constants = ErrorConstants(c1=c1, c2=c2, lambda_hat=lam,
                               kappa_hat=(c1 + c2) * lam + c1 * c2 + 1.0,
                               sigma_hat=max(row.sigma_hat for row in rows))
    for row, (_, f_k, _) in zip(rows, entries):
        diff = f_k - problem.f
        row.l1_gap = diff.l1_norm()
        row.primitive_gap = sum(_primitive_sup(c, grid) for c in diff.components)
        bound = constants.kappa_hat * constants.sigma_hat * eps
        row.bound_holds = row.solvable and row.err_cr1 < bound
        if row.solvable:
            row.margin = row.err_cr1 / bound
    return rows, constants


def _assert_certificates_match_member_by_member(problem, ks):
    eps = 1e-3
    runs = [
        (None, [(k, None, None) for k in ks], lambda entries: sweep(problem, ks)),
        (2, constant_shift_rhs(problem, ks, eps),
         lambda entries: theorem2_check(problem, entries, eps)),
        (3, sawtooth_rhs(problem, ks, eps),
         lambda entries: theorem3_check(problem, entries, eps)),
    ]
    for theorem, entries, run in runs:
        report = run(entries)
        rows, constants = _reference_report(problem, entries, theorem, eps)
        assert len(report.rows) == len(rows)
        for got, want in zip(report.rows, rows):
            np.testing.assert_equal(dataclasses.asdict(got), dataclasses.asdict(want))
        assert report.constants == constants
    return report


@pytest.mark.parametrize("name", ["p1", "p2", "p3"])
def test_certificates_equal_member_by_member_solves(name):
    _assert_certificates_match_member_by_member(corpus.build_problem(name), [4, 32, 256])


def test_refused_member_keeps_the_other_rows():
    problem = _singular_at_k1_problem()
    report = _assert_certificates_match_member_by_member(problem, [1, 2, 4, 8])
    assert [row.solvable for row in report.rows] == [False, True, True, True]


def test_refused_member_does_not_hold_its_slot(monkeypatch):
    # The k = 1 member is refused in the limit's slot; the halved problem's
    # slot comes next.  The refusal is kept as a record with no traceback:
    # the raised error's frames held the limit's slot through the pass.
    problem = _singular_at_k1_problem()
    halved = dataclasses.replace(problem, coeffs=[
        PolyMatrix([[e * 0.5 for e in row] for row in A.entries]) for A in problem.coeffs])
    dead, slots, fill = [], [], linode._fill

    def recording_fill(work, *args):
        dead.append([ref() is None for ref in slots])
        slots.append(weakref.ref(work))
        return fill(work, *args)

    monkeypatch.setattr(linode, "_fill", recording_fill)
    members = [problem, build_multipoint_problem(problem, 1), build_multipoint_problem(halved, 2)]
    _, refused, _ = bvp._solve_pass(members)[0]
    assert isinstance(refused, NotUniquelySolvableError) and refused.__traceback__ is None
    assert str(refused).startswith("characteristic matrix is")
    assert dead == [[], [True]]
    with pytest.raises(NotUniquelySolvableError) as alone:
        solve(members[1])
    assert (str(refused), refused.det, refused.cond) == (str(alone.value), alone.value.det,
                                                         alone.value.cond)


def _sign_changing_density_problem():
    # The density t^2 - 1/3 changes sign, so the total variation of its
    # k-point discretization grows with k (0.25 / 0.2539 at k = 4 / 8,
    # 0.2566 at k = 256): the rows' sigma_hat (1.2539 with the atom) is
    # not the probe discretizations' (1.2566).  The atom y(0) keeps the
    # problem solvable.
    a, b = 0.0, 1.0
    density = PiecewisePoly.single([-1.0 / 3.0, 0.0, 1.0], a, b)
    phi = MatrixMeasure([[ScalarMeasure(a, b, atoms=[(a, 1.0)], density=density)]])
    return BvpProblem(
        r=1, m=1,
        coeffs=[PolyMatrix.constant([[1.0]], a, b)],
        f=PolyVector([PiecewisePoly.constant(1.0, a, b)]),
        q=np.array([0.1], dtype=complex),
        operator=GeneralBoundaryOperator(1, 1, [], phi),
        grid=Grid(a, b, 512),
    )


def test_certificates_take_sigma_hat_from_the_rows():
    problem = _sign_changing_density_problem()
    report = _assert_certificates_match_member_by_member(problem, [4, 8])
    assert report.constants.sigma_hat < remark3_constants(problem).sigma_hat


NON_NORMAL = np.array([[0.5, 3.0], [-0.2, -0.4]])


def _non_normal_problem():
    # y' + M y = f with M constant and far from normal, and y_1(0), y_2(1)
    # prescribed: V^-1(t) = exp(M t).
    a, b = 0.0, 1.0
    terms = [BoundaryTerm(a, 0, np.array([[1.0, 0.0], [0.0, 0.0]])),
             BoundaryTerm(b, 0, np.array([[0.0, 0.0], [0.0, 1.0]]))]
    return BvpProblem(
        r=1, m=2,
        coeffs=[PolyMatrix.constant(NON_NORMAL, a, b)],
        f=PolyVector([PiecewisePoly.constant(1.0, a, b), PiecewisePoly.single([0.0, 1.0], a, b)]),
        q=np.array([1.0, -0.5], dtype=complex),
        operator=BoundaryOperator(1, 2, a, b, terms),
        grid=Grid(a, b, 2048),
    )


def test_certificate_reads_the_inverse_matrizant_not_its_transpose():
    # The pass forms V^-1 as the transposed matrizant of the adjoint system.
    # On p1-p3 |V^-1|_C equals |V^-T|_C, so only a non-normal coefficient
    # shows a lost transpose: 3.949 against 4.240 here.
    problem = _non_normal_problem()
    grid = problem.grid
    Z = inverse_fundamental(companion_reduce(problem)[0], grid)
    for i in (grid.n // 2, grid.n):
        np.testing.assert_allclose(Z[i], expm_taylor(NON_NORMAL * grid.nodes[i]), atol=1e-12)
    w_c = traj_norm_c(Z)
    assert abs(w_c - traj_norm_c(Z.swapaxes(1, 2))) > 0.05 * w_c
    v_c = solve(problem).matrizant_norm_c
    assert remark3_constants(problem).c2 == 2.0 + v_c * w_c * problem.coeffs[0].l1_norm()
    _assert_certificates_match_member_by_member(problem, [4, 8])


def test_refused_reference_raises_as_solve_does():
    problem = corpus.build_problem("nn")
    with pytest.raises(NotUniquelySolvableError) as direct:
        solve(problem)
    ks, eps = [4, 8], 1e-3
    for run in (lambda: sweep(problem, ks),
                lambda: theorem2_check(problem, constant_shift_rhs(problem, ks, eps), eps),
                lambda: theorem3_check(problem, sawtooth_rhs(problem, ks, eps), eps)):
        with pytest.raises(NotUniquelySolvableError) as refused:
            run()
        assert str(refused.value) == str(direct.value)
        assert refused.value.det == direct.value.det
        assert refused.value.cond == direct.value.cond


@pytest.mark.parametrize("k", [0, 2.5, MAX_GRID_N + 1])
def test_k_outside_one_to_the_grid_cap_is_refused_before_any_allocation(k):
    problem = corpus.build_problem("p2", 64)
    measure = problem.operator.phi.entries[1][0]
    assert measure.density is not None
    calls = [
        lambda: approximate_coefficients(problem.coeffs[0], k),
        lambda: sawtooth_rhs(problem, [k], 1e-3),
        lambda: multipointify(problem.operator, k),
        lambda: problem.operator.phi.discretize(k),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"need an integer k in \[1, {MAX_GRID_N}\]"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # the edges of k = MAX_GRID_N + 1 alone take 8 MiB


def _k_entry_points(problem, eps=1e-3):
    """The five entry points that take a list of k, each returning the ks
    it kept, in order."""
    return {
        "sweep": lambda ks: [row.k for row in sweep(problem, ks).rows],
        "theorem2_check": lambda ks: [row.k for row in theorem2_check(
            problem, [(k, problem.f, problem.q) for k in ks], eps).rows],
        "theorem3_check": lambda ks: [row.k for row in theorem3_check(
            problem, [(k, problem.f, problem.q) for k in ks], eps).rows],
        "constant_shift_rhs": lambda ks: [k for k, _, _ in constant_shift_rhs(problem, ks, eps)],
        "sawtooth_rhs": lambda ks: [k for k, _, _ in sawtooth_rhs(problem, ks, eps)],
    }


@pytest.mark.parametrize("entry_point", ["sweep", "theorem2_check", "theorem3_check",
                                         "constant_shift_rhs", "sawtooth_rhs"])
def test_every_k_goes_through_the_one_k_rule(entry_point):
    # A whole float is its int; 2.5 is refused, not truncated to 2.
    run = _k_entry_points(corpus.build_problem("p1", 256))[entry_point]
    kept = run([8, 4.0])
    assert sorted(kept) == [4, 8]
    assert all(type(k) is int for k in kept)
    with pytest.raises(ValueError, match=rf"need an integer k in \[1, {MAX_GRID_N}\], got 2.5"):
        run([2.5, 4])


@pytest.mark.parametrize("k", [True, np.True_, float("nan"), float("inf"), float("-inf")],
                         ids=["True", "np.True_", "nan", "inf", "-inf"])
def test_a_bool_or_non_finite_k_is_refused_by_the_one_k_rule(k):
    # True is not k = 1, and NaN and inf get the rule's message, not int()'s.
    message = re.escape(f"need an integer k in [1, {MAX_GRID_N}], got {k}")
    with pytest.raises(ValueError, match=message):
        _check_k(k)
    with pytest.raises(ValueError, match=message):
        sweep(corpus.build_problem("p1", 256), [k, 4])


def test_sweep_refuses_a_duplicate_k():
    with pytest.raises(ValueError, match="duplicate k"):
        sweep(corpus.build_problem("p1", 256), [4, 4])


@pytest.mark.parametrize("call, message", [
    (lambda p: theorem3_check(p, [], 1e-3), "need at least one perturbed right-hand side"),
    (lambda p: theorem3_check(p, [(4, p.f, p.q + 2e-3)], 1e-3),
     "entry k=4 violates |q_k - q| < eps"),
    (lambda p: theorem3_check(p, [(4, PolyVector([p.f.components[0]] * 2), p.q)], 1e-3),
     "entry k=4 needs a right-hand side of 1 components"),
    (lambda p: sweep(p, []), "need at least one k"),
])
def test_an_empty_or_out_of_bounds_family_is_refused(call, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        call(corpus.build_problem("p1", 256))


@pytest.mark.parametrize("entry_point", ["sweep", "theorem2_check", "theorem3_check",
                                         "remark3_constants"])
def test_one_pass_per_entry_point(monkeypatch, entry_point):
    # The limit problem and every approximation are solved in one RK4 pass;
    # the constants come from that pass, not from a second solve.
    problem = corpus.build_problem("p2", 256)
    calls = []
    propagate = bvp._propagate

    def counting(*args, **kwargs):
        calls.append(1)
        return propagate(*args, **kwargs)

    monkeypatch.setattr(bvp, "_propagate", counting)
    if entry_point == "remark3_constants":
        remark3_constants(problem)
    else:
        _k_entry_points(problem)[entry_point]([4, 8])
    assert len(calls) == 1
