"""Acceptance suite: one test per advertised guarantee, one verdict line each.

Run with `pytest -s tests/test_acceptance.py -v` to see the verdict lines.
Each test prints exactly one `criterion N ...: PASS/FAIL` line before
asserting, so a red run still shows which guarantees held.
"""

import time

import numpy as np

from mpbvp import (
    BoundaryOperator,
    BoundaryTerm,
    BvpProblem,
    Grid,
    MatrixMeasure,
    NotUniquelySolvableError,
    PiecewisePoly,
    PolyMatrix,
    PolyVector,
    SampledJet,
    ScalarMeasure,
    apply_operator,
    cli,
    companion_reduce,
    corpus,
    fundamental_matrix,
    multipointify,
    remark3_constants,
    sawtooth_rhs,
    solve,
    sweep,
    theorem3_check,
    vec_norm,
)
from mpbvp.stieltjes import _discretized_atoms

from oracles import (
    crank_nicolson_solve,
    exact_trace_integral,
    expm_taylor,
    measure_mass,
    random_problem,
    total_variation,
)

CORPUS = ("p1", "p2", "p3")


def report(number, name, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}{tail}", flush=True)
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def jet_gap(jet, exact):
    gaps = [np.max(np.abs(got - want))
            for got, want in zip(jet.samples, exact.samples)]
    return max(gaps)


def test_criterion_01_closed_form_solves():
    worst = 0.0
    slowest = 0.0
    for name in CORPUS:
        problem, exact = corpus.build_problem(name, 2048), corpus.exact_jet(name, 2048)
        start = time.monotonic()
        solution = solve(problem)
        elapsed = time.monotonic() - start
        worst = max(worst, jet_gap(solution.jet, exact))
        slowest = max(slowest, elapsed)
    report(1, "closed-form solves", worst <= 1e-7 and slowest < 1.0,
           f"sup gap {worst:.2e}, slowest solve {slowest:.2f}s")


def test_criterion_02_convergence_sweep():
    ks = [4, 8, 16, 32, 64, 128, 256]
    details = []
    ok = True
    for name in CORPUS:
        problem = corpus.build_problem(name, 2048)
        start = time.monotonic()
        rep = sweep(problem, ks)
        elapsed = time.monotonic() - start
        errs = {row.k: row.err_w1r for row in rep.rows}
        tail = [errs[k] for k in ks if k >= 16]
        decreasing = all(x > y for x, y in zip(tail, tail[1:]))
        halving = all(errs[4 * k] <= 0.5 * errs[k] for k in (16, 32, 64))
        ratio = errs[256] / errs[4]
        ok = ok and decreasing and halving and ratio <= 1e-2 and elapsed < 30.0
        details.append(f"{name} ratio {ratio:.1e} in {elapsed:.1f}s")
    report(2, "convergence sweep", ok, ", ".join(details))


def test_criterion_03_certificate_with_sawtooth():
    eps = 1e-3
    ks = [4, 8, 16, 32, 64, 128, 256]
    details = []
    ok = True
    start = time.monotonic()
    for name in CORPUS:
        problem = corpus.build_problem(name, 2048)
        entries = sawtooth_rhs(problem, ks, eps)
        rep = theorem3_check(problem, entries, eps)
        rows = {row.k: row for row in rep.rows}
        certified = rep.ok and rep.rho_bound is not None and all(
            rows[k].bound_holds for k in ks if k >= rep.rho_bound
        )
        # the perturbation is admissible for the primitive condition while
        # breaking the plain L1 closeness condition at every index
        l1_violated = all(rows[k].l1_gap >= eps for k in ks)
        ok = ok and certified and l1_violated
        details.append(f"{name} rho={rep.rho_bound} bound={rep.meta['bound']:.2e}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(3, "error certificate under sawtooth data", ok,
           ", ".join(details) + f", total {elapsed:.1f}s")


def test_criterion_04_error_constants_reference_case():
    # y' = f with y(0) = q on [0,1]: every constant is known in closed form
    a, b = 0.0, 1.0
    grid = Grid(a, b, 512)
    coeffs = [PolyMatrix.zero(1, 1, a, b)]
    f = PolyVector([PiecewisePoly.constant(1.0, a, b)])
    operator = BoundaryOperator(1, 1, a, b, [
        BoundaryTerm(node=a, order=0, beta=np.array([[1.0]])),
    ])
    problem = BvpProblem(1, 1, coeffs, f, np.array([0.0 + 0.0j]), operator, grid)
    constants = remark3_constants(problem)
    gap = max(abs(constants.c1 - 2.0), abs(constants.c2 - 2.0),
              abs(constants.kappa_hat - 9.0))
    report(4, "closed-form error constants", gap <= 1e-9,
           f"c1={constants.c1:.12g}, c2={constants.c2:.12g}, "
           f"kappa_hat={constants.kappa_hat:.12g}")


def test_criterion_05_fundamental_matrix_accuracy():
    a, b = 0.0, 1.0
    grid = Grid(a, b, 2048)
    matrix = np.array([[0.3 + 0.2j, -1.0], [0.5, -0.1j]])
    A = PolyMatrix.constant(matrix, a, b)
    Y = fundamental_matrix(A, grid)
    gap = 0.0
    for t in (0.25, 0.5, 1.0):  # nodes of the grid
        want = expm_taylor(-matrix * t)
        gap = max(gap, np.max(np.abs(Y[round(t * grid.n)] - want)))

    # determinant identity det Y(t) = exp(-int tr) on every corpus companion
    liouville = 0.0
    for name in CORPUS:
        problem = corpus.build_problem(name, 512)
        P, _, _, _ = companion_reduce(problem)
        Yc = fundamental_matrix(P, problem.grid)
        trace_int = exact_trace_integral(P, problem.grid.nodes)
        want = np.exp(-trace_int)
        got = np.array([np.linalg.det(Yc[i])
                        for i in range(problem.grid.n + 1)])
        liouville = max(liouville, np.max(np.abs(got - want) / np.abs(want)))
    report(5, "fundamental-matrix accuracy", gap <= 1e-9 and liouville <= 1e-8,
           f"exp gap {gap:.1e}, determinant identity {liouville:.1e}")


def test_criterion_06_measure_invariants():
    measures = [ScalarMeasure.lebesgue(0.0, 1.0, 1.0)]
    for name in CORPUS:
        operator = corpus.build_problem(name, 64).operator
        if operator.phi is not None:
            for row in operator.phi.entries:
                measures.extend(row)
    contraction = 0.0
    mass_drift = 0.0
    for mu in measures:
        for k in (1, 2, 3, 5, 8, 13, 21, 64, 256):
            nu = MatrixMeasure([[mu]]).discretize(k).entries[0][0]
            contraction = max(contraction,
                              total_variation(nu) - total_variation(mu))
            mass_drift = max(mass_drift, abs(measure_mass(nu) - measure_mass(mu)))
    lebesgue = ScalarMeasure.lebesgue(0.0, 1.0, 1.0)
    # Lebesgue minus its k-atom discretization: the density with the atoms negated.
    differences = (ScalarMeasure(0.0, 1.0, density=lebesgue.density,
                                 atoms=np.stack([nodes, -masses], axis=1))
                   for nodes, masses in (_discretized_atoms(lebesgue, k) for k in range(1, 257)))
    obstruction = min(total_variation(diff) for diff in differences)
    ok = (contraction <= 1e-12 and mass_drift <= 1e-12
          and obstruction >= 1.0 - 1e-12)
    report(6, "measure invariants", ok,
           f"tv excess {contraction:.1e}, mass drift {mass_drift:.1e}, "
           f"min tv distance {obstruction:.6f}")


def test_criterion_07_operator_weak_star_convergence():
    details = []
    ok = True
    for name in CORPUS:
        problem = corpus.build_problem(name, 2048)
        op = problem.operator
        # smooth asymmetric probe: s^4 in every component (odd probes would
        # vanish against symmetric midpoint atoms and hide the convergence)
        a, span, m = problem.grid.a, problem.grid.b - problem.grid.a, problem.m
        calls = []
        for j in range(problem.r + 1):
            factor = 1.0
            for i in range(j):
                factor *= (4 - i) / span
            calls.append(
                lambda t, j=j, c=factor: np.repeat(
                    (c * ((t - a) / span) ** (4 - j))[:, None], m, axis=1)
            )
        probe = SampledJet.from_callables(problem.grid, m, problem.r, calls)
        reference = apply_operator(op, probe)
        errs = []
        for k in (4, 16, 64, 256):
            approx_val = apply_operator(multipointify(op, k), probe)
            errs.append(vec_norm(approx_val - reference))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        ok = ok and all(r >= 3.0 for r in ratios)
        details.append(f"{name} ratios " + "/".join(f"{r:.0f}" for r in ratios))
    report(7, "weak-star operator convergence", ok, ", ".join(details))


def test_criterion_08_degenerate_problem_detected():
    problem = corpus.build_problem("nn", 512)
    raised = False
    try:
        solve(problem)
    except NotUniquelySolvableError as exc:
        raised = abs(exc.det) <= 1e-10
    exit_code = cli.main(["solve", "nn", "--grid-n", "512"])
    ok = raised and exit_code == cli.EXIT_NOT_SOLVABLE
    report(8, "degeneracy detection", ok,
           f"raised={raised}, cli exit {exit_code}")


def test_criterion_09_independent_oracle_agreement():
    problem, exact = corpus.build_problem("p3", 4096), corpus.exact_jet("p3", 4096)
    start = time.monotonic()
    solution = solve(problem)
    oracle_values = crank_nicolson_solve(problem)
    elapsed = time.monotonic() - start
    gap = np.max(np.abs(solution.jet.samples[0] - oracle_values))
    exact_gap = np.max(np.abs(oracle_values - exact.samples[0]))
    ok = gap <= 1e-5 and elapsed < 10.0
    report(9, "independent-oracle agreement", ok,
           f"gap {gap:.1e}, oracle-vs-exact {exact_gap:.1e}, {elapsed:.1f}s")


def test_criterion_10_randomized_invariants():
    rng = np.random.default_rng(20240917)
    worst_linearity = 0.0
    worst_zero = 0.0
    for _ in range(100):
        problem = random_problem(rng, n=512)
        rm = problem.r * problem.m
        f2 = PolyVector([
            PiecewisePoly.single(
                rng.standard_normal(3) + 1j * rng.standard_normal(3),
                problem.grid.a, problem.grid.b)
            for _ in range(problem.m)
        ])
        q2 = rng.standard_normal(rm) + 1j * rng.standard_normal(rm)

        def variant(f, q):
            return solve(BvpProblem(problem.r, problem.m, problem.coeffs,
                                    f, q, problem.operator, problem.grid))

        first = variant(problem.f, problem.q)
        second = variant(f2, q2)
        combined = variant(
            PolyVector([x + y for x, y in zip(problem.f.components,
                                              f2.components)]),
            problem.q + q2,
        )
        for got, lhs, rhs in zip(combined.jet.samples,
                                 first.jet.samples, second.jet.samples):
            worst_linearity = max(worst_linearity,
                                  np.max(np.abs(got - (lhs + rhs))))

        zero = variant(
            PolyVector([PiecewisePoly.zero(problem.grid.a, problem.grid.b)
                        for _ in range(problem.m)]),
            np.zeros(rm, dtype=complex),
        )
        for channel in zero.jet.samples:
            worst_zero = max(worst_zero, np.max(np.abs(channel)))
    ok = worst_linearity <= 1e-9 and worst_zero <= 1e-9
    report(10, "randomized linearity and zero-solution invariants", ok,
           f"linearity {worst_linearity:.1e}, zero {worst_zero:.1e}")
