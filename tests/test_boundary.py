"""Boundary operators: general form, multipoint form, lifting, norms."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from mpbvp import (
    BoundaryOperator,
    BoundaryTerm,
    GeneralBoundaryOperator,
    Grid,
    MatrixMeasure,
    NotUniquelySolvableError,
    PiecewisePoly,
    SampledJet,
    ScalarMeasure,
    apply_operator,
    build_multipoint_problem,
    default_probe_jets,
    lift,
    mat_norm,
    multipointify,
    norm_lower_bound,
    norm_upper_bound,
    solve,
)
from mpbvp import corpus
from mpbvp.stieltjes import _density_weights
from oracles import (_boundary_rows, dense_weights, point_condition_problem, random_problem,
                     tie_keeping_permutation, variation_matrix)


def _p2_operator():
    return corpus.build_problem("p2", 64).operator


def _p3_operator():
    return corpus.build_problem("p3", 64).operator


def test_dirichlet_point_condition():
    grid = Grid(0.0, 1.0, 64)
    op = BoundaryOperator(1, 1, 0.0, 1.0, [
        BoundaryTerm(node=0.0, order=0, beta=np.array([[1.0]])),
    ])
    jet = SampledJet.from_callables(grid, 1, 1,
                                    [lambda t: t + 2.0, lambda t: np.ones_like(t)])
    np.testing.assert_allclose(apply_operator(op, jet), [2.0], atol=1e-14)


def test_multipoint_off_node_uses_interpolation():
    grid = Grid(0.0, 1.0, 64)
    op = BoundaryOperator(1, 1, 0.0, 1.0, [
        BoundaryTerm(node=0.4031, order=0, beta=np.array([[1.0]])),
    ])
    jet = SampledJet.from_callables(grid, 1, 1,
                                    [lambda t: t ** 3, lambda t: 3 * t ** 2])
    assert abs(apply_operator(op, jet)[0] - 0.4031 ** 3) <= 1e-12


def test_general_operator_on_exact_jet():
    problem, jet = corpus.build_problem("p2", 2048), corpus.exact_jet("p2", 2048)
    out = apply_operator(problem.operator, jet)
    np.testing.assert_allclose(out, problem.q, atol=1e-12)


def test_multipointify_single_interval():
    op = _p2_operator()
    approx = multipointify(op, 1)
    assert approx.phi is None
    assert len(approx.terms) == 2
    first, second = approx.terms
    # the alpha block becomes a point term at the left endpoint, order 0
    assert first.node == 0.0 and first.order == 0
    np.testing.assert_array_equal(first.beta, [[1.0], [1.0]])
    # the density row collapses to one midpoint atom of weight 1/2
    assert second.node == 0.5 and second.order == 1
    np.testing.assert_allclose(second.beta, [[0.0], [0.5]], atol=1e-15)


def test_multipointify_alpha_terms_identical_across_k():
    op = _p2_operator()
    betas = [multipointify(op, k).terms[0].beta for k in (1, 4, 16, 64)]
    for beta in betas[1:]:
        np.testing.assert_array_equal(beta, betas[0])


def test_multipointify_passes_atoms_through():
    op = _p3_operator()
    approx = multipointify(op, 2)
    nodes = [term.node for term in approx.terms]
    np.testing.assert_allclose(nodes, [0.0, 0.25, 0.75, 1.0])
    np.testing.assert_allclose(approx.terms[0].beta, [[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(approx.terms[1].beta, [[0.0, 0.0], [0.0, 0.5]])
    np.testing.assert_allclose(approx.terms[-1].beta, [[1.0, 0.0], [0.0, 0.0]])


def _multipointify_terms(op, k):
    """Reference multipointify terms: sort all atoms, then grow each cluster
    while the next atom is at most tol beyond the cluster's first atom."""
    rows, m = op.rows, op.m
    terms = list(op.terms)
    disc = op.phi.discretize(k)
    tol = (op.b - op.a) * 1e-12
    located = []
    for i in range(rows):
        for j in range(m):
            entry = disc.entries[i][j]
            for t, w in zip(entry.nodes.tolist(), entry.masses.tolist()):
                located.append((t, i, j, w))
    located.sort(key=lambda item: item[0])
    start = 0
    while start < len(located):
        end = start + 1
        while end < len(located) and located[end][0] - located[start][0] <= tol:
            end += 1
        weight = np.zeros((rows, m), dtype=complex)
        for _, i, j, w in located[start:end]:
            weight[i, j] += w
        terms.append(BoundaryTerm(located[start][0], op.r - 1, weight))
        start = end
    return terms


def _multipointify_loop(op, k):
    return BoundaryOperator(op.r, op.m, op.a, op.b, _multipointify_terms(op, k))


def test_multipointify_groups_atoms_like_the_loop():
    tol = 1e-12
    # Atoms 0.6 tol apart in different entries do not chain: a cluster ends
    # tol past its first atom, so the three make two nodes.
    chained = GeneralBoundaryOperator(1, 2, [], MatrixMeasure([
        [ScalarMeasure(0.0, 1.0, atoms=[(0.5, 2.0)]),
         ScalarMeasure(0.0, 1.0, atoms=[(0.5 + 0.6 * tol, -1.0j)])],
        [ScalarMeasure(0.0, 1.0, atoms=[(0.5 + 1.2 * tol, 3.0)]),
         ScalarMeasure.lebesgue(0.0, 1.0, 0.5)],
    ]))
    ops = [corpus.build_problem(name, 64).operator for name in ("p1", "p2", "p3")]
    for op, ks in [(chained, (1, 2, 4)), *((op, (2, 4, 256, 1024)) for op in ops)]:
        for k in ks:
            got, want = multipointify(op, k), _multipointify_loop(op, k)
            assert len(got.terms) == len(want.terms)
            for x, y in zip(got.terms, want.terms):
                assert (x.node, x.order) == (y.node, y.order)
                np.testing.assert_array_equal(x.beta.view(np.uint64), y.beta.view(np.uint64))
    nodes = [t.node for t in multipointify(chained, 1).terms]
    assert nodes == [0.5, 0.5 + 1.2 * tol]
    # The clustering rule of a multipoint operator built one term per atom.
    one_per_atom = [BoundaryTerm(t, 0, np.ones((2, 2))) for t in (0.5, 0.5 + 0.6 * tol,
                                                                 0.5 + 1.2 * tol)]
    assert [t.node for t in BoundaryOperator(1, 2, 0.0, 1.0, one_per_atom).terms] == nodes


def test_lift_matches_jet_application():
    grid = Grid(0.0, 1.0, 512)
    op = _p2_operator()
    lifted = lift(op, grid)
    # companion trajectory of y = t^2: v = col(t^2, 2t)
    v = np.stack([grid.nodes ** 2, 2.0 * grid.nodes], axis=1)
    out = lifted.apply_values(v)
    # y(0) = 0 and y(0) + integral of (1-s) * 2s = 1/3
    np.testing.assert_allclose(out, [0.0, 1.0 / 3.0], atol=1e-12)
    jet = SampledJet.from_callables(grid, 1, 2,
                                    [lambda t: t ** 2, lambda t: 2 * t,
                                     lambda t: 2 * np.ones_like(t)])
    np.testing.assert_allclose(out, apply_operator(op, jet), atol=1e-12)


def test_lift_multipoint():
    op = BoundaryOperator(2, 1, 0.0, 1.0, [
        BoundaryTerm(node=0.5, order=1, beta=np.array([[1.0], [0.0]])),
        BoundaryTerm(node=1.0, order=0, beta=np.array([[0.0], [1.0]])),
    ])
    grid = Grid(0.0, 1.0, 128)
    lifted = lift(op, grid)
    v = np.stack([grid.nodes ** 2, 2.0 * grid.nodes], axis=1)
    np.testing.assert_allclose(lifted.apply_values(v), [1.0, 1.0], atol=1e-12)


def _atomic_forms(op):
    """General operators whose measure is atomic: op with its densities
    dropped, and op with them discretized at k = 7, whose midpoints lie off
    the nodes of n = 2048 and 16384."""
    dropped = MatrixMeasure([[ScalarMeasure(mu.a, mu.b, atoms=np.stack([mu.nodes, mu.masses], 1))
                              for mu in row] for row in op.phi.entries])
    return [BoundaryOperator(op.r, op.m, op.a, op.b, op.terms, phi)
            for phi in (dropped, op.phi.discretize(7))]


def _jet_or_refusal(problem):
    try:
        return solve(problem).jet
    except NotUniquelySolvableError:
        return None


@pytest.mark.parametrize("n", [2048, 16384])
def test_atom_and_point_term_read_a_point_alike(n):
    # p1's ODE with the one condition y(1/3) = exact value, written once as
    # an atom of the measure and once as a point term: both are the same
    # point evaluation, off the grid, and solve to the same jet.
    p1 = corpus.build_problem("p1", n)
    q = np.array([np.exp(-1.0 / 3.0) + 1.0 / 3.0])
    atom = GeneralBoundaryOperator(1, 1, [], MatrixMeasure([[
        ScalarMeasure(0.0, 1.0, atoms=[(1.0 / 3.0, 1.0)])]]))
    term = BoundaryOperator(1, 1, 0.0, 1.0, [
        BoundaryTerm(node=1.0 / 3.0, order=0, beta=np.array([[1.0]]))])
    cases = [(dataclasses.replace(p1, operator=atom, q=q), term)]
    # Every atomic form of p1-p3, and at n = 2048 of seeded random general
    # problems, against its multipointify: one compiled functional, and the
    # same jet (or the same refusal).
    problems = [corpus.build_problem(name, n) for name in ("p1", "p2", "p3")]
    rng = np.random.default_rng(17)
    while n == 2048 and len(problems) < 7:
        problem = random_problem(rng, n=n)
        if problem.operator.phi is not None:
            problems.append(problem)
    for problem in problems:
        for op in _atomic_forms(problem.operator):
            cases.append((dataclasses.replace(problem, operator=op), multipointify(op, 1)))
    solved = 0
    for problem, term_form in cases:
        np.testing.assert_array_equal(dense_weights(lift(problem.operator, problem.grid)),
                                      dense_weights(lift(term_form, problem.grid)))
        jets = [_jet_or_refusal(dataclasses.replace(problem, operator=op))
                for op in (problem.operator, term_form)]
        if jets[0] is None:
            assert jets[1] is None
            continue
        solved += 1
        for x, y in zip(*(jet.samples for jet in jets)):
            assert np.abs(x - y).max() <= 1e-14
    assert solved >= (12 if n == 2048 else 4)


@pytest.mark.parametrize("name", ["p1", "p2", "p3"])
@pytest.mark.parametrize("k", [2, 8, 32])
def test_compiled_multipoint_weights_match_oracle_rows(name, k):
    # n is a multiple of 2k, so every midpoint node is a grid node and the
    # cubic stencils collapse onto single nodes, as in the oracle
    problem = build_multipoint_problem(corpus.build_problem(name, 128), k)
    grid = problem.grid
    weights = dense_weights(lift(problem.operator, grid))
    np.testing.assert_allclose(weights.reshape(problem.d, -1),
                               _boundary_rows(problem, grid), rtol=0, atol=1e-15)


@pytest.mark.parametrize("name", ["p1", "p2", "p3"])
def test_compiled_trajectory_matches_columnwise_jets(name):
    problem = corpus.build_problem(name, 256)
    op, grid, r, d = problem.operator, problem.grid, problem.r, problem.d
    probes = default_probe_jets(r, problem.m, grid)
    for start in range(0, len(probes) - d + 1, d):
        columns = probes[start:start + d]
        V = np.stack([np.hstack(jet.samples[:r]) for jet in columns], axis=2)
        expected = np.stack([apply_operator(op, jet) for jet in columns], axis=1)
        np.testing.assert_allclose(lift(op, grid).apply_trajectory(V), expected,
                                   rtol=0, atol=1e-14)


def test_norm_upper_bounds_frozen():
    assert abs(norm_upper_bound(multipointify(_p2_operator(), 8)) - 2.5) <= 1e-12
    assert abs(norm_upper_bound(multipointify(_p3_operator(), 8)) - 3.0) <= 1e-12


def test_norm_upper_bound_refuses_an_operator_with_a_measure():
    # The bound sums the point weights alone, so it would ignore Phi.
    with pytest.raises(ValueError, match="needs an operator without a measure"):
        norm_upper_bound(_p2_operator())


def test_norm_lower_bound_on_corpus():
    for name, expected in (("p1", 1.0), ("p2", 2.0), ("p3", 2.0)):
        problem = corpus.build_problem(name, 256)
        probes = default_probe_jets(problem.r, problem.m, problem.grid)
        low = norm_lower_bound(problem.operator, probes)
        assert abs(low - expected) <= 1e-9


def _numpy_polynomial_probe_jets(r, m, grid):
    """The probe family, built with numpy.polynomial as mpbvp once built it."""
    poly = np.polynomial.polynomial
    a, b = grid.a, grid.b
    s = np.array([-(a + b) / (b - a), 2.0 / (b - a)])
    shapes = [np.array([1.0]), -s, poly.polysub(4.0 * poly.polypow(s, 3), 3.0 * s)]
    shapes += [poly.polypow(np.array([-a, 1.0]), l) / math.factorial(l) for l in range(1, r)]
    jets = []
    for component in range(m):
        for c in shapes:
            chans = []
            for _ in range(r + 1):
                vals = np.zeros((grid.n + 1, m), dtype=complex)
                vals[:, component] = poly.polyval(grid.nodes, c)
                chans.append(vals)
                c = poly.polyder(c) if c.size > 1 else np.zeros(1)
            jets.append(chans)
    return jets


@pytest.mark.parametrize("r, m, a, b", [(1, 1, 0.0, 1.0), (2, 1, 0.0, 1.0), (3, 2, -0.5, 2.0),
                                        (5, 1, 1.0, 3.0)])
def test_probe_jets_are_bitwise_numpy_polynomial(r, m, a, b):
    # Powers, differences and derivatives of the probe polynomials are
    # formed by mpbvp's own convolutions and products, with the bits of
    # numpy.polynomial's, which no command imports.
    grid = Grid(a, b, 64)
    got = default_probe_jets(r, m, grid)
    want = _numpy_polynomial_probe_jets(r, m, grid)
    for jet, chans in zip(got, want, strict=True):
        for x, y in zip(jet.samples, chans, strict=True):
            np.testing.assert_array_equal(x.view(np.uint64), y.view(np.uint64))


@pytest.mark.parametrize("name", ["p1", "p2", "p3"])
def test_norm_lower_bound_is_bitwise_the_per_probe_application(name):
    # The max over per-probe apply_operator calls, on an even and an odd grid.
    for n in (256, 257):
        problem = corpus.build_problem(name, n)
        probes = default_probe_jets(problem.r, problem.m, problem.grid)
        want = max(float(np.abs(apply_operator(problem.operator, jet)).sum())
                   / sum(float(np.abs(jet.samples[j]).max(axis=0).sum())
                         for j in range(problem.r))
                   for jet in probes)
        assert norm_lower_bound(problem.operator, probes) == want


def test_norm_lower_bound_refuses_a_probe_on_another_grid():
    # The operator is lifted once, on probe 0's grid; a probe elsewhere,
    # on more steps or on a shifted interval, is named, not lifted again.
    problem = corpus.build_problem("p2", 64)
    probes = default_probe_jets(problem.r, problem.m, problem.grid)
    for grid in (Grid(0.0, 1.0, 65), Grid(0.0, 1.0 + 2**-20, 64)):
        stray = default_probe_jets(problem.r, problem.m, grid)[1]
        with pytest.raises(ValueError, match=rf"^probe {len(probes)} lies on another grid "
                                             r"than probe 0$"):
            norm_lower_bound(problem.operator, probes + [stray])
        with pytest.raises(ValueError, match="^probe 1 lies on another grid than probe 0$"):
            norm_lower_bound(problem.operator, [stray, probes[0]])


def test_norm_lower_bound_checks_every_probe():
    problem = corpus.build_problem("p2", 64)
    probes = default_probe_jets(problem.r, problem.m, problem.grid)
    short = SampledJet(problem.grid, np.ones((65, 1, 1)))
    wide = default_probe_jets(problem.r, 2, problem.grid)[0]
    for bad, message in ((short, "jet order"), (wide, "components")):
        with pytest.raises(ValueError, match=message):
            norm_lower_bound(problem.operator, probes + [bad])


def test_norm_lower_bound_needs_probes():
    problem = corpus.build_problem("p1", 64)
    with pytest.raises(ValueError):
        norm_lower_bound(problem.operator, [])


def test_probe_family_shapes():
    grid = Grid(0.0, 1.0, 64)
    assert len(default_probe_jets(1, 2, grid)) == 6   # 3 shapes per component
    assert len(default_probe_jets(2, 1, grid)) == 4   # + one monomial probe
    for jet in default_probe_jets(2, 1, grid):
        assert jet.r == 2 and jet.m == 1


def test_uniform_norm_bound_scalar_rows():
    # For one-column operators the discretized norms never exceed
    # sum of alpha norms + the total-variation norm of the measure block.
    for name in ("p1", "p2"):
        op = corpus.build_problem(name, 64).operator
        bound = sum(np.abs(alpha).sum(axis=0).max() for alpha in op.betas)
        bound += mat_norm(variation_matrix(op.phi))
        for k in (1, 2, 4, 8, 16, 32, 64):
            assert norm_upper_bound(multipointify(op, k)) <= bound + 1e-12


def test_uniform_norm_bound_entrywise_for_systems():
    # With several columns the max-column-sum TV norm can undercount rows
    # that peak in different columns, so the robust bound is the entrywise
    # total-variation sum.  p3 shows the gap: sigma_k = 3 > 2 = TV norm.
    op = _p3_operator()
    tv_norm_bound = mat_norm(variation_matrix(op.phi))
    entrywise_bound = variation_matrix(op.phi).sum()
    for k in (1, 2, 4, 8, 16, 32, 64):
        sigma_k = norm_upper_bound(multipointify(op, k))
        assert sigma_k <= entrywise_bound + 1e-12
    assert norm_upper_bound(multipointify(op, 4)) > tv_norm_bound + 0.5


def test_general_operator_validation():
    phi = MatrixMeasure([[ScalarMeasure.zero(0.0, 1.0)]])
    with pytest.raises(ValueError):
        GeneralBoundaryOperator(2, 1, [], phi)  # r = 2 needs one alpha of shape (2, 1)


def test_multipoint_merges_duplicate_terms():
    op = BoundaryOperator(1, 1, 0.0, 1.0, [
        BoundaryTerm(node=0.5, order=0, beta=np.array([[1.0]])),
        BoundaryTerm(node=0.5, order=0, beta=np.array([[2.0]])),
    ])
    assert len(op.terms) == 1
    np.testing.assert_array_equal(op.terms[0].beta, [[3.0]])


# -- the term table against the per-term loops it replaced ------------------


def _operator_loop(a, b, terms):
    """Reference constructor: clamp, sort by (node, order) and merge a term
    into the previous one when the order matches and the node lies within
    tol of the merged term's node."""
    tol = (b - a) * 1e-12
    cleaned = sorted(((min(max(t.node, a), b), t.order, np.asarray(t.beta, dtype=complex))
                      for t in terms), key=lambda t: (t[0], t[1]))
    merged = []
    for node, order, beta in cleaned:
        if merged and order == merged[-1][1] and node - merged[-1][0] <= tol:
            merged[-1] = (merged[-1][0], order, merged[-1][2] + beta)
        else:
            merged.append((node, order, beta.copy()))
    return merged


def _assert_table_is(op, merged):
    assert len(op.terms) == len(merged)
    nodes = np.array([t[0] for t in merged], dtype=float)
    np.testing.assert_array_equal(op.nodes.view(np.uint64), nodes.view(np.uint64))
    assert op.orders.tolist() == [t[1] for t in merged]
    betas = np.array([t[2] for t in merged], dtype=complex).reshape(op.betas.shape)
    np.testing.assert_array_equal(op.betas.view(np.uint64), betas.view(np.uint64))
    for term, (node, order, beta) in zip(op.terms, merged):
        assert (term.node, term.order) == (node, order)
        np.testing.assert_array_equal(term.beta.view(np.uint64), beta.view(np.uint64))


def _stencil_loop(grid, t, points):
    """Reference stencil at one t: linear (2 points) or 4-point Lagrange.
    A t within 1e-12 (b - a) of its nearest node is read on that node."""
    n = grid.n
    near = min(max(round((t - grid.a) / grid.h), 0), n)
    if abs(t - grid.nodes[near]) <= 1e-12 * (grid.b - grid.a):
        s = float(near)
    else:
        s = min(max((t - grid.a) / grid.h, 0.0), float(n))
    i = min(int(s), n - 1)
    if points == 2 or n < 4:
        return i, np.array([1.0 - (s - i), s - i])
    base = min(max(i - 1, 0), n - 3)
    x = s - base
    w = np.empty(4)
    for j in range(4):
        num = 1.0
        for k in range(4):
            if k != j:
                num *= (x - k) / (j - k)
        w[j] = num
    return base, w


def _lift_loop(op, grid):
    """Reference lift: one += per point term, the table's terms and then each
    entry's measure atoms as order-(r-1) terms, then one per density."""
    m, d = op.m, op.rows
    weights = np.zeros((d, grid.n + 1, d), dtype=complex)
    for t in op.terms:
        base, w = _stencil_loop(grid, t.node, 4)
        weights[:, base:base + w.size, t.order * m:(t.order + 1) * m] += (
            w[None, :, None] * t.beta[:, None, :])
    if op.phi is not None:
        top = (op.r - 1) * m
        for i, row in enumerate(op.phi.entries):
            for j, mu in enumerate(row):
                for t, mass in zip(mu.nodes.tolist(), mu.masses.tolist()):
                    base, w = _stencil_loop(grid, t, 4)
                    weights[i, base:base + w.size, top + j] += w * mass
        for i, row in enumerate(op.phi.entries):
            for j, mu in enumerate(row):
                if mu.density is not None:
                    weights[i, :, top + j] += _density_weights(grid, mu.density)
    return weights


def _off_node_general_operators():
    """General operators whose atoms sit off the nodes of n = 1000 and n = 3."""
    a, b = 0.0, 1.0
    t = 0.3141592653589793
    # atoms of three entries at one location, and inexact masses 2e-4 apart
    # in one entry, so that the sum order at a node shows in its bits
    shared = GeneralBoundaryOperator(1, 2, [], MatrixMeasure([
        [ScalarMeasure(a, b, atoms=[(t, 1.5 + 0.1j), (t + 2e-4, -0.7), (0.77, -2.0j)]),
         ScalarMeasure(a, b, atoms=[(t, 0.25 + 1.0j)])],
        [ScalarMeasure.zero(a, b),
         ScalarMeasure(a, b, atoms=[(t, -3.1), (0.0007, 0.5), (0.9999, 1.0 / 3.0)])],
    ]))
    # r = 2 with an alpha block, and an entry with both atoms and a density
    mixed = GeneralBoundaryOperator(2, 1, [np.array([[1.0], [0.5j]])], MatrixMeasure([
        [ScalarMeasure(a, b, atoms=[(t, 2.0), (0.999, 0.1)])],
        [ScalarMeasure(a, b, atoms=[(t + 1e-3, -1.0 / 7.0), (0.123456, 0.3 - 0.2j)],
                       density=PiecewisePoly.single([1.0, -1.0], a, b))],
    ]))
    return [shared, mixed]


def _segment_edge_operator():
    """A general operator whose density has breakpoints on nodes of
    n = 1000, each carrying an atom of inexact mass, so that the order in
    which a node adds its atom and the two segments' weights shows in its
    bits."""
    a, b = 0.0, 1.0
    density = PiecewisePoly([a, 0.25, 0.5, b], [[1.0 / 3.0, -0.7j], [0.1 + 0.2j, 1.0 / 7.0],
                                                [-2.0 / 3.0, 0.3, 0.01j]])
    return GeneralBoundaryOperator(1, 1, [], MatrixMeasure([
        [ScalarMeasure(a, b, atoms=[(0.25, 0.9 + 1.0 / 3.0j), (0.5, -1.0 / 7.0)],
                       density=density)]]))


def _hand_built_operators():
    tol = 1e-12
    one = np.array([[1.0]])
    beta3 = np.arange(3.0).reshape(3, 1) + 0.5j
    return [
        # a 0.6 tol chain: the third node is 1.2 tol from the cluster's first
        (1, 1, 0.0, 1.0, [BoundaryTerm(0.5 + 1.2 * tol, 0, 3.0 * one),
                          BoundaryTerm(0.5, 0, one),
                          BoundaryTerm(0.5 + 0.6 * tol, 0, -2.0j * one)]),
        # interleaved orders at one node
        (3, 1, 0.0, 1.0, [BoundaryTerm(0.5, 2, beta3), BoundaryTerm(0.5, 0, 2.0 * beta3),
                          BoundaryTerm(0.5 + 0.6 * tol, 1, beta3),
                          BoundaryTerm(0.5, 1, -beta3), BoundaryTerm(0.5, 0, 1j * beta3),
                          BoundaryTerm(0.5 + 0.3 * tol, 2, beta3)]),
        # nodes clamped from just outside [a, b], and -0.0 at a = 0.0
        (1, 1, 0.0, 2.0, [BoundaryTerm(2.0 + tol, 0, one), BoundaryTerm(-0.0, 0, 4.0 * one),
                          BoundaryTerm(-tol, 0, 2.0 * one), BoundaryTerm(2.0, 0, 0.5j * one)]),
        # -0.0 weights survive, alone and as a cluster's first member
        (1, 2, 0.0, 1.0, [BoundaryTerm(0.25, 0, np.array([[-0.0, 1.0], [complex(-0.0, -0.0), 0.0]])),
                          BoundaryTerm(0.75, 0, np.array([[-0.0, -0.0], [-0.0, 2.0]])),
                          BoundaryTerm(0.75, 0, np.array([[-0.0, 0.0], [1.0, -0.0]]))]),
    ]


def test_term_table_is_bitwise_the_constructor_loop():
    cases = [(op.r, op.m, op.a, op.b, _multipointify_terms(op, k))
             for op in (corpus.build_problem(name, 64).operator for name in ("p1", "p2", "p3"))
             for k in (2, 4, 256, 1024)]
    nn = corpus.build_problem("nn", 64).operator
    cases += [(nn.r, nn.m, nn.a, nn.b, list(nn.terms))] + _hand_built_operators()
    for r, m, a, b, terms in cases:
        op = BoundaryOperator(r, m, a, b, terms)
        _assert_table_is(op, _operator_loop(a, b, terms))
    # the chain splits after its second node; orders never merge
    chain = BoundaryOperator(*_hand_built_operators()[0])
    assert chain.nodes.tolist() == [0.5, 0.5 + 1.2e-12]
    assert chain.betas[:, 0, 0].tolist() == [1.0 - 2.0j, 3.0]
    interleaved = BoundaryOperator(*_hand_built_operators()[1])
    assert interleaved.orders.tolist() == [0, 1, 2, 1]
    assert interleaved.nodes.tolist() == [0.5, 0.5, 0.5, 0.5 + 0.6e-12]
    # multipointify hands its arrays to the table without a term list
    for name in ("p1", "p2", "p3"):
        op = corpus.build_problem(name, 64).operator
        for k in (2, 4, 256, 1024):
            _assert_table_is(multipointify(op, k), _operator_loop(op.a, op.b,
                                                                  _multipointify_terms(op, k)))


def test_lift_weights_are_bitwise_the_per_term_loop():
    general = [corpus.build_problem(name, 64).operator for name in ("p1", "p2", "p3")]
    general += [*_off_node_general_operators(), _segment_edge_operator()]
    ops = general + [multipointify(op, k) for op in general for k in (2, 4, 256, 1024)]
    ops += [corpus.build_problem("nn", 64).operator]
    ops += [BoundaryOperator(*case) for case in _hand_built_operators()]
    # dense off-node terms with inexact weights, so that the sum order at a
    # node shows in its bits
    rng = np.random.default_rng(7)
    ops.append(BoundaryOperator(2, 2, 0.0, 1.0, [
        BoundaryTerm(float(t), int(o), beta) for t, o, beta in zip(
            rng.uniform(0.0, 1.0, 400), rng.integers(0, 2, 400),
            rng.standard_normal((400, 4, 2)) + 1j * rng.standard_normal((400, 4, 2)))]))
    for op in ops:
        # n = 1000 puts the midpoints of k >= 16 off the nodes; n = 3 takes
        # the linear fallback of the cubic stencil
        for grid in (Grid(op.a, op.b, 1000), Grid(op.a, op.b, 3)):
            got, want = lift(op, grid), _lift_loop(op, grid)
            np.testing.assert_array_equal(dense_weights(got).view(np.uint64), want.view(np.uint64))
            count = len(op.terms)
            if op.phi is not None:
                count += sum(mu.nodes.size for row in op.phi.entries for mu in row)
            assert len(got.point_terms) == count


def test_point_term_on_a_node_reads_on_it():
    # Node 120 of [0.1, 0.7] at n = 300 is 0.33999999999999997, which
    # (t - a) / h reads as 119.99999999999999, so a term on its bits took
    # the 4-point stencil of nodes 118-121; the node rule puts it, and a
    # term at the decimal 0.34, on node 120 alone, with weight 1.
    node = Grid(0.1, 0.7, 300).nodes[120]
    problems = [point_condition_problem(t) for t in (0.34, node)]
    for problem in problems:
        lifted = lift(problem.operator, problem.grid)
        assert lifted.nodes.tolist() == [0, 120]
        assert lifted.weights[1, 1, 0] == 1.0
    decimal, on_node = (solve(problem).jet for problem in problems)
    for got, want in zip(decimal.samples, on_node.samples):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    t = problems[0].grid.nodes - 0.1
    exact = 1.0 - np.cos(t) + np.cos(node - 0.1) / np.sin(node - 0.1) * np.sin(t)
    assert np.abs(on_node.samples[0][:, 0] - exact).max() <= 1e-12


def _two_by_two_measure():
    """A 2 x 2 measure whose atoms and density breakpoints all lie off the
    nodes of the grids below, with inexact masses and coefficients."""
    a, b = 0.0, 1.0

    def density(c, coeffs):
        return PiecewisePoly([a, c, b], coeffs)

    return MatrixMeasure([
        [ScalarMeasure(a, b, atoms=[(0.3141592653589793, 1.5 + 0.1j), (0.77, -2.0j)],
                       density=density(0.4142135623730951, [[1.0, 0.5j], [2.0 - 1j, -0.25, 0.125]])),
         ScalarMeasure(a, b, atoms=[(0.123456789, 0.25 + 1.0j)],
                       density=density(0.5772156649015329, [[0.3, 1.1], [-0.7j]]))],
        [ScalarMeasure(a, b, density=density(0.6931471805599453, [[1.0 / 3.0], [2.0, 1.0 / 7.0]])),
         ScalarMeasure(a, b, atoms=[(0.0007, 0.5), (0.9999, 1.0 / 3.0)],
                       density=density(0.2718281828459045, [[0.1j, 0.2, 0.3], [1.0]]))],
    ])


@pytest.mark.parametrize("n", [7, 64, 1000, 4097])
def test_matrix_measure_applies_as_its_lifted_operator(n):
    # One compiled functional applies every measure: a matrix measure on its
    # own gives the bits of the order-1 operator whose Phi it is.
    phi = _two_by_two_measure()
    grid = Grid(0.0, 1.0, n)
    rng = np.random.default_rng(n)
    x = rng.uniform(1.0, 2.0, (n + 1, 2)) + 1j * rng.uniform(1.0, 2.0, (n + 1, 2))
    want = lift(GeneralBoundaryOperator(1, 2, [], phi), grid).apply_values(x)
    np.testing.assert_array_equal(phi.apply(grid, x).view(np.uint64), want.view(np.uint64))


def test_applying_samples_of_the_wrong_shape_names_both_shapes():
    phi = _two_by_two_measure()
    grid = Grid(0.0, 1.0, 64)
    lifted = lift(GeneralBoundaryOperator(1, 2, [], phi), grid)
    with pytest.raises(ValueError, match=r"expected samples shaped \(65, 2\), got \(64, 2\)"):
        lifted.apply_values(np.ones((64, 2)))
    with pytest.raises(ValueError, match=r"expected samples shaped \(65, 2\), got \(65, 3\)"):
        phi.apply(grid, np.ones((65, 3)))
    with pytest.raises(ValueError, match=r"expected samples shaped \(65, 2\), got \(65, 1\)"):
        phi.apply(grid, np.ones(65))
    with pytest.raises(ValueError,
                       match=r"expected a trajectory shaped \(65, 2, 2\), got \(65, 2, 3\)"):
        lifted.apply_trajectory(np.ones((65, 2, 3)))


@pytest.mark.parametrize("term, message", [
    (BoundaryTerm(0.5, -1, np.ones((2, 1))), r"derivative order -1 outside 0\.\.1"),
    (BoundaryTerm(0.5, 2, np.ones((2, 1))), r"derivative order 2 outside 0\.\.1"),
    (BoundaryTerm(0.5, 0.5, np.ones((2, 1))), r"derivative order 0\.5 outside 0\.\.1"),
    (BoundaryTerm(0.5, float("nan"), np.ones((2, 1))), r"derivative order nan outside"),
    (BoundaryTerm(1.5, 0, np.ones((2, 1))), r"node 1\.5 outside \[0\.0, 1\.0\]"),
    (BoundaryTerm(-1e-9, 0, np.ones((2, 1))), r"node -1e-09 outside"),
    (BoundaryTerm(float("nan"), 0, np.ones((2, 1))), r"node nan outside"),
    (BoundaryTerm(float("inf"), 0, np.ones((2, 1))), r"node inf outside"),
    (BoundaryTerm(0.5, 0, np.ones((1, 2))), r"weight must be shaped \(2, 1\), got \(1, 2\)"),
    (BoundaryTerm(0.5, 0, np.array([[1.0], [np.inf]])), "weight contains non-finite entries"),
    (BoundaryTerm(0.5, 0, np.array([[1.0], [complex(0.0, np.nan)]])),
     "weight contains non-finite entries"),
])
def test_multipoint_operator_rejects_bad_terms(term, message):
    good = BoundaryTerm(0.25, 1, np.ones((2, 1)))
    with pytest.raises(ValueError, match=message):
        BoundaryOperator(2, 1, 0.0, 1.0, [good, term])


def test_multipoint_operator_rejects_bad_shape_and_interval():
    with pytest.raises(ValueError, match="need r >= 1 and m >= 1"):
        BoundaryOperator(0, 1, 0.0, 1.0, [])
    with pytest.raises(ValueError, match="operator needs a < b"):
        BoundaryOperator(1, 1, 1.0, 1.0, [])
    empty = BoundaryOperator(1, 2, 0.0, 1.0, [])
    assert empty.terms == () and empty.betas.shape == (0, 2, 2)
    assert norm_upper_bound(empty) == 0.0
    assert not dense_weights(lift(empty, Grid(0.0, 1.0, 8))).any()


def test_term_table_is_read_only():
    op = multipointify(_p2_operator(), 4)
    for array in (op.nodes, op.orders, op.betas, op.terms[0].beta):
        with pytest.raises(ValueError):
            array[0] = 0


# ---------------------------------------------------------------------------
# Metamorphic relations of the atom table


def _random_general_operators(seed, count=6):
    rng = np.random.default_rng(seed)
    ops = []
    while len(ops) < count:
        op = random_problem(rng, n=64).operator
        if op.phi is not None:
            ops.append(op)
    return ops, rng


def _entry_tables(op, extra):
    """Each entry's atom table, (K, 2), with the rows ``extra(mu)`` appended."""
    return [[np.concatenate([np.stack([mu.nodes, mu.masses], axis=1), extra(mu)])
             for mu in row] for row in op.phi.entries]


def _with_atoms(op, tables):
    """op with each entry's atoms replaced by its table in ``tables``."""
    return BoundaryOperator(op.r, op.m, op.a, op.b, op.terms, MatrixMeasure(
        [[ScalarMeasure(mu.a, mu.b, atoms=table, density=mu.density)
          for mu, table in zip(row, table_row)]
         for row, table_row in zip(op.phi.entries, tables)]))


def _assert_same_tables(op, other):
    for k in (1, 7, 64):
        x, y = multipointify(op, k), multipointify(other, k)
        for name in ("nodes", "orders", "betas"):
            np.testing.assert_array_equal(getattr(x, name), getattr(y, name))
    for grid in (Grid(op.a, op.b, 3), Grid(op.a, op.b, 200)):
        np.testing.assert_array_equal(dense_weights(lift(op, grid)),
                                      dense_weights(lift(other, grid)))


def test_permuting_atoms_leaves_multipointify_and_lift_unchanged():
    # Each entry gains 12 locations of 3 tied atoms each.  A cluster sums
    # in input order, so the order among exact ties is kept; that a sort
    # moves no tie is what this relation checks.
    ops, rng = _random_general_operators(seed=14)
    for op in ops:
        tables = _entry_tables(op, lambda mu: np.stack(
            [np.repeat(rng.uniform(mu.a, mu.b, 12), 3),
             rng.standard_normal(36) + 1j * rng.standard_normal(36)], axis=1))
        shuffled = [[table[tie_keeping_permutation(rng, table[:, 0].real)] for table in row]
                    for row in tables]
        _assert_same_tables(_with_atoms(op, tables), _with_atoms(op, shuffled))


def test_zero_mass_atoms_leave_multipointify_and_lift_unchanged():
    # Zero masses, of either sign, at fresh locations and at the ends a and
    # b, where the generator puts its atoms.
    zero = np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)])
    ops, rng = _random_general_operators(seed=15)
    for op in ops:
        tables = _entry_tables(op, lambda mu: np.stack(
            [np.concatenate([rng.uniform(mu.a, mu.b, 4), [mu.a, mu.b, mu.a, mu.b]]),
             np.concatenate([zero, zero])], axis=1))
        _assert_same_tables(op, _with_atoms(op, tables))


@pytest.mark.parametrize("name", ["p1", "p2", "p3"])
def test_lift_holds_its_weights_and_no_grid_sized_temporary(name):
    # Each density's weights are added into its row of the density table a
    # block of nodes at a time: the lift of p2 and p3 at n = 16384 peaked
    # at 2.13 and 1.88 MiB for 1.00 MiB of dense weights when each density's
    # weights were a fresh (n+1) vector and its products.  Point terms
    # weigh only the nodes they touch, and only an entry with a density
    # holds an (n+1) vector: p2 and p3 hold a quarter of the dense array.
    problem = corpus.build_problem(name, 16384)
    lift(problem.operator, problem.grid)  # the grid's nodes, cached
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        T = lift(problem.operator, problem.grid)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    held = T.weights.nbytes + T.densities.nbytes
    assert peak <= held + 0.3 * 2**20
    assert T.densities.shape == (1, problem.grid.n + 1)
    assert held < 1.01 * T.densities.nbytes
