"""Measures: atoms plus densities, Stieltjes integration, discretization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpbvp import (
    Grid,
    corpus,
    MatrixMeasure,
    PiecewisePoly,
    ScalarMeasure,
    mat_norm,
)
from mpbvp.funcspace import _place_points
from mpbvp.stieltjes import _density_weights
from oracles import measure_mass, total_variation, variation_matrix


def _discretize(mu, k):
    """mu discretized on k subintervals, as ``MatrixMeasure.discretize`` gives its entry."""
    return MatrixMeasure([[mu]]).discretize(k).entries[0][0]


def _integral(mu, grid, values):
    """<x, mu> of node samples x, through the matrix measure [[mu]]."""
    return MatrixMeasure([[mu]]).apply(grid, values)[0]


def test_point_mass_reads_node_value():
    grid = Grid(0.0, 1.0, 8)
    mu = ScalarMeasure(0.0, 1.0, atoms=[(0.5, 2.0)])
    values = grid.nodes ** 2
    assert abs(_integral(mu, grid, values) - 0.5) <= 1e-14


def test_atom_off_node_interpolates_linearly():
    grid = Grid(0.0, 1.0, 2)
    mu = ScalarMeasure(0.0, 1.0, atoms=[(0.25, 1.0)])
    values = 3.0 * grid.nodes  # linear, so linear interpolation is exact
    assert abs(_integral(mu, grid, values) - 0.75) <= 1e-14


def test_lebesgue_density_quadrature():
    grid = Grid(0.0, 1.0, 64)
    mu = ScalarMeasure.lebesgue(0.0, 1.0, 1.0)
    assert abs(_density_weights(grid, mu.density) @ grid.nodes - 0.5) <= 1e-14


def test_corrected_quadrature_gains_two_orders():
    grid = Grid(0.0, 1.0, 64)
    mu = ScalarMeasure.lebesgue(0.0, 1.0, 1.0)
    values = grid.nodes ** 3
    # the bare trapezoid error (about h^2 / 4) is removed by the
    # Euler-Maclaurin end correction, which is exact for cubics
    assert abs(_density_weights(grid, mu.density) @ values - 0.25) <= 1e-13


def test_density_with_interior_breakpoint_on_node():
    grid = Grid(0.0, 1.0, 8)
    dens = PiecewisePoly.step([0.0, 0.5, 1.0], [1.0, 3.0])
    # integral of dens * 1 = 0.5 + 1.5; piece-aware segments keep it exact
    ones = np.ones_like(grid.nodes)
    assert abs(_density_weights(grid, dens) @ ones - 2.0) <= 1e-14


def test_density_breakpoint_near_a_node_keeps_the_end_correction():
    # The node rule reads a breakpoint within 1e-12 (b - a) of a node on it:
    # on the node, an ulp off it, and 5e-13 to either side, where a rule in
    # units of h (8.2e-9 h here) fell back to the plain trapezoid (5.7e-5).
    # 1e-3 h to either side, the breakpoint cuts a cell, which the Gauss
    # rule reads on its two sides; the plain trapezoid read 5.7e-5 there.
    grid = Grid(0.0, 1.0, 16384)
    node = grid.nodes[6000]
    for c in (node, np.nextafter(node, 1.0), node + 5e-13, node - 5e-13,
              node + 1e-3 * grid.h, node - 1e-3 * grid.h):
        dens = PiecewisePoly.step([0.0, c, 1.0], [1.0, 3.0])
        exact = np.sin(c) + 3.0 * (np.sin(1.0) - np.sin(c))
        assert abs(_density_weights(grid, dens) @ np.cos(grid.nodes) - exact) <= 1e-11, c - node


def test_two_density_breakpoints_in_one_cell():
    # The cell between nodes 6000 and 6001 holds two steps of rho: its Gauss
    # pieces run node to first step, step to step and last step to node.
    grid = Grid(0.0, 1.0, 16384)
    c1, c2 = grid.nodes[6000] + 0.2 * grid.h, grid.nodes[6000] + 0.7 * grid.h
    dens = PiecewisePoly.step([0.0, c1, c2, 1.0], [1.0, 3.0, -2.0])
    exact = np.sin(c1) + 3.0 * (np.sin(c2) - np.sin(c1)) - 2.0 * (np.sin(1.0) - np.sin(c2))
    assert abs(_density_weights(grid, dens) @ np.cos(grid.nodes) - exact) <= 1e-11


def test_a_smooth_density_cut_off_the_nodes_keeps_fourth_order():
    # rho = 1 + t + t^2 in four pieces, cut at 0.137 and 0.731, off every
    # node here, and at 1/2, on one.  The error of the rule Q(n) for
    # cos(5t) rho falls with n = 1024 .. 8192 as the gaps Q(n) - Q(2n) do,
    # each summed exactly (fsum of the products), free of the sum's
    # round-off: fourth order reads 15-16x per doubling, and the plain
    # trapezoid over all of rho read 4x.
    rho = PiecewisePoly([0.0, 0.137, 0.5, 0.731, 1.0], [[1.0, 1.0, 1.0]] * 4)

    def products(n):
        grid = Grid(0.0, 1.0, n)
        weights = _density_weights(grid, rho)
        assert not weights.imag.any()
        return weights.real * np.cos(5.0 * grid.nodes)

    ns = [1024, 2048, 4096, 8192, 16384]
    terms = [products(n) for n in ns]
    gaps = [abs(math.fsum(np.concatenate([p, -q]))) for p, q in zip(terms[:-1], terms[1:])]
    assert all(coarse >= 12.0 * fine for coarse, fine in zip(gaps[:-1], gaps[1:])), gaps
    # The primitive of cos(5t) (1 + t + t^2).
    exact = (lambda t: np.sin(5 * t) * (0.2 + t / 5 + t * t / 5 - 2 / 125)
             + np.cos(5 * t) * (1 / 25 + 2 * t / 25))
    assert abs(math.fsum(terms[0]) - (exact(1.0) - exact(0.0))) <= 1e-12


@pytest.mark.parametrize("n, cells", [(1024, 1), (1024, 2), (2048, 1), (2048, 2)])
def test_a_density_segment_of_one_or_two_cells_is_read_to_fourth_order(n, cells):
    # rho steps on nodes n/2 and n/2 + cells: the segment between them has 2
    # or 3 nodes, too few for the end correction, so its cells are read by
    # the Gauss rule at the cubic stencil.  The plain trapezoid over such a
    # segment read 4.7e-9 / 9.4e-9 / 5.8e-10 / 1.2e-9.
    grid = Grid(0.0, 1.0, n)
    c1, c2 = grid.nodes[n // 2], grid.nodes[n // 2 + cells]
    dens = PiecewisePoly.step([0.0, c1, c2, 1.0], [1.0, 3.0, -2.0])
    primitive = lambda t: np.sin(5.0 * t) / 5.0
    exact = (primitive(c1) + 3.0 * (primitive(c2) - primitive(c1))
             - 2.0 * (primitive(1.0) - primitive(c2)))
    assert abs(_density_weights(grid, dens) @ np.cos(5.0 * grid.nodes) - exact) <= 1e-12


def _density_weights_loop(grid, density, cuts):
    """Reference density weights, node by node: on each segment between the
    breakpoints' nodes ``cuts``, each of 4 or more nodes, the trapezoid
    weight, with the end correction in units of h, times the segment's piece
    at the node; a node two segments share gets the sum."""
    h = grid.h
    correction = [-11.0 / 72.0, 18.0 / 72.0, -9.0 / 72.0, 2.0 / 72.0]
    out = [0j] * (grid.n + 1)
    for piece, (i0, i1) in enumerate(zip(cuts[:-1], cuts[1:])):
        coeffs = density.coeffs[piece].tolist()
        size = i1 - i0 + 1
        for k in range(size):
            weight = h * 0.5 if k in (0, size - 1) else h
            if k < 4:
                weight += h * correction[k]
            if size - 1 - k < 4:
                weight += h * correction[size - 1 - k]
            t = float(grid.nodes[i0 + k])
            value = coeffs[-1] + t * 0
            for c in reversed(coeffs[:-1]):
                value = c + value * t
            out[i0 + k] += complex(weight) * value
    return np.array(out)


@pytest.mark.parametrize("n, cuts", [
    (20, [0, 3, 10, 16, 20]),
    (1537, [0, 5, 700, 1530, 1537]),
    (16385, [0, 3, 4100, 16380, 16385]),
])
def test_density_weights_on_nodes_are_bitwise_the_per_node_loop(n, cuts):
    # Breakpoints on nodes: segments of 4 to 8 nodes, whose end corrections
    # overlap below 8, and segments over several blocks of BLOCK_STEPS nodes;
    # every interior breakpoint's node is shared by two segments.
    grid = Grid(0.0, 1.0, n)
    density = PiecewisePoly(grid.nodes[cuts], [[1.0 / 3.0, 2.0 - 1.0j, 0.7], [-0.3j],
                                               [0.1, 1.0 / 7.0, -2.5, 0.9j], [2.0 + 0.2j, -1.1]])
    want = _density_weights_loop(grid, density, cuts)
    np.testing.assert_array_equal(_density_weights(grid, density).view(np.uint64),
                                  want.view(np.uint64))


def test_total_variation_adds_atoms_and_density_mass():
    # A self-test of the oracle that the total-variation tests read.
    dens = PiecewisePoly.constant(-3.0, 0.0, 1.0)
    mu = ScalarMeasure(0.0, 1.0, atoms=[(0.3, 2.0), (0.7, -1.0)], density=dens)
    assert abs(total_variation(mu) - 6.0) <= 1e-12


def test_atoms_merge_and_zero_weights_drop():
    mu = ScalarMeasure(0.0, 1.0, atoms=[(0.5, 1.0), (0.5 + 1e-14, 2.0), (0.2, 0.0)])
    assert mu.nodes.size == 1
    assert mu.masses[0] == 3.0


def test_discretize_midpoint_locations_and_mass():
    mu = ScalarMeasure.lebesgue(0.0, 1.0, 1.0)
    nu = _discretize(mu, 2)
    assert nu.density is None
    np.testing.assert_allclose(nu.nodes, [0.25, 0.75])
    np.testing.assert_allclose(nu.masses, [0.5, 0.5])


def test_discretize_is_identity_on_atomic_measures():
    mu = ScalarMeasure(0.0, 1.0, atoms=[(0.1, 1.0), (0.9, -2.0)])
    assert _discretize(mu, 16) is mu


def test_atomic_approximation_never_converges_in_tv():
    # Discretizing a Lebesgue measure never converges in total variation:
    # the distance stays at least b - a at every k.  The difference is the
    # density with the atoms negated.
    mu = ScalarMeasure.lebesgue(0.0, 1.0, 1.0)
    for k in (1, 2, 4, 32, 256):
        nu = _discretize(mu, k)
        dist = total_variation(ScalarMeasure(0.0, 1.0, density=mu.density,
                                             atoms=np.stack([nu.nodes, -nu.masses], axis=1)))
        assert dist >= 1.0 - 1e-12
        assert abs(dist - 2.0) <= 1e-12  # atoms and density each carry mass 1


@given(
    w1=st.floats(-4, 4), w2=st.floats(-4, 4),
    c0=st.floats(-3, 3), c1=st.floats(-3, 3),
    k=st.integers(1, 64),
)
@settings(max_examples=80, deadline=None)
def test_discretize_preserves_mass_and_contracts_tv(w1, w2, c0, c1, k):
    dens = PiecewisePoly.single([c0, c1], 0.0, 1.0)
    mu = ScalarMeasure(0.0, 1.0, atoms=[(0.2, w1), (0.8, w2)], density=dens)
    nu = _discretize(mu, k)
    scale = abs(w1) + abs(w2) + abs(c0) + abs(c1) + 1.0
    assert abs(measure_mass(nu) - measure_mass(mu)) <= 1e-12 * scale
    assert total_variation(nu) <= total_variation(mu) + 1e-12 * scale


def test_matrix_measure_applies_rowwise():
    grid = Grid(0.0, 1.0, 32)
    phi = MatrixMeasure([
        [ScalarMeasure(0.0, 1.0, atoms=[(0.0, 1.0)]), ScalarMeasure.zero(0.0, 1.0)],
        [ScalarMeasure.zero(0.0, 1.0), ScalarMeasure.lebesgue(0.0, 1.0, 2.0)],
    ])
    x = np.stack([grid.nodes, 1.0 - grid.nodes], axis=1)
    out = phi.apply(grid, x)
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-13)


def test_matrix_measure_discretize_and_variation():
    phi = MatrixMeasure([
        [ScalarMeasure.lebesgue(0.0, 1.0, 1.0), ScalarMeasure.zero(0.0, 1.0)],
        [ScalarMeasure.zero(0.0, 1.0), ScalarMeasure(0.0, 1.0, atoms=[(1.0, -3.0)])],
    ])
    atomic = phi.discretize(4)
    for row in atomic.entries:
        for entry in row:
            assert entry.density is None
    variation = variation_matrix(phi)
    np.testing.assert_allclose(variation, [[1.0, 0.0], [0.0, 3.0]], atol=1e-13)
    assert abs(mat_norm(variation) - 3.0) <= 1e-13


def test_atom_outside_interval_rejected():
    with pytest.raises(ValueError):
        ScalarMeasure(0.0, 1.0, atoms=[(1.5, 1.0)])


@pytest.mark.parametrize("atom, message", [
    ((float("nan"), 1.0), "atom location nan outside"),
    ((float("-inf"), 1.0), "atom location -inf outside"),
    ((0.5, complex(1.0, float("nan"))), "atom weights must be finite"),
    ((0.5, float("inf")), "atom weights must be finite"),
])
def test_non_finite_atoms_rejected(atom, message):
    with pytest.raises(ValueError, match=message):
        ScalarMeasure(0.0, 1.0, atoms=[(0.25, 1.0), atom])


@pytest.mark.parametrize("atoms, message", [
    ([(0.25, 1.0, 0.0)], "atoms must be"),
    ((0.25, 1.0), "atoms must be"),
    ([(0.25 + 1e-3j, 1.0)], "real location"),
])
def test_malformed_atoms_rejected(atoms, message):
    with pytest.raises(ValueError, match=message):
        ScalarMeasure(0.0, 1.0, atoms=atoms)


def test_atom_table_is_read_only_and_owned():
    table = np.array([[0.75, 2.0j], [0.25, 1.0]])
    mu = ScalarMeasure(0.0, 1.0, atoms=table)
    table[:] = 0.5
    assert _pairs(mu) == [(0.25, 1.0), (0.75, 2.0j)]
    nu = _discretize(ScalarMeasure.lebesgue(0.0, 1.0), 4)
    for array in (mu.nodes, mu.masses, nu.nodes, nu.masses):
        with pytest.raises(ValueError):
            array[0] = 0
    assert _discretize(nu, 8) is nu


def _merge_atoms_loop(atoms, tol):
    """Reference merge: sort by location, add each atom into the previous
    cluster while it lies within tol of that cluster's first atom."""
    items = sorted(((float(t), complex(w)) for t, w in atoms), key=lambda p: p[0])
    merged = []
    for t, w in items:
        if merged and t - merged[-1][0] <= tol:
            merged[-1] = (merged[-1][0], merged[-1][1] + w)
        else:
            merged.append((t, w))
    return [(t, w) for t, w in merged if w != 0]


def _pairs(mu):
    return list(zip(mu.nodes.tolist(), mu.masses.tolist()))


def _raw_atom_lists():
    """Atom lists as ``_discretized_atoms`` hands them over, plus hand-built ones."""
    lists = []
    for name in ("p1", "p2", "p3"):
        for row in corpus.build_problem(name, 64).operator.phi.entries:
            for mu in row:
                for k in (2, 4, 256, 1024):
                    if mu.density is None:
                        lists.append(_pairs(mu))
                        continue
                    edges = mu.a + (mu.b - mu.a) * np.arange(k + 1) / k
                    mids = 0.5 * (edges[:-1] + edges[1:])
                    lists.append(_pairs(mu) + list(zip(mids.tolist(),
                                                     mu.density.integrals(edges).tolist())))
    tol = 1e-12
    lists += [
        [(0.5 + 1.2 * tol, 3.0), (0.5, 1.0), (0.5 + 0.6 * tol, -2.0j)],  # a 0.6 tol chain
        [(0.3, complex(-0.0, 1.0)), (0.7, -0.0), (0.3, 2.0), (0.6, complex(-0.0, 1.0))],
        [(0.4, 1.0), (0.4, -1.0), (0.2, 0.5), (0.2 + 0.5 * tol, 0.25j), (-0.0, 2.0)],
    ]
    return lists


def _bits(atoms):
    t = np.array([p[0] for p in atoms], dtype=float)
    w = np.array([p[1] for p in atoms], dtype=complex)
    return t.view(np.uint64).tolist(), w.view(np.uint64).tolist()


def _weights_loop(mu, grid):
    # Each atom weighs its 4-point Lagrange stencil, or on fewer than 4
    # cells its linear one.
    w = np.zeros(grid.n + 1, dtype=complex)
    for t, weight in _pairs(mu):
        s = min(max((t - grid.a) / grid.h, 0.0), float(grid.n))
        i = min(int(s), grid.n - 1)
        if grid.n < 4:
            w[i:i + 2] += weight * np.array([1.0 - (s - i), s - i])
            continue
        i = min(max(i - 1, 0), grid.n - 3)
        x = s - i
        lagrange = [1.0] * 4
        for j in range(4):
            for k in range(4):
                if k != j:
                    lagrange[j] *= (x - k) / (j - k)
        w[i:i + 4] += weight * np.array(lagrange)
    if mu.density is not None:
        w += _density_weights(grid, mu.density)
    return w


def test_atom_merge_and_weights_are_bitwise_the_loops():
    # The placed weights are the loop's, on the nodes they touch and 0
    # elsewhere, and apply's sum is compared with the same fixed-order
    # contraction of the loop's weights, on samples with no zero, so that
    # any weight bit shows.
    rng = np.random.default_rng(3)
    for atoms in _raw_atom_lists():
        mu = ScalarMeasure(0.0, 1.0, atoms=atoms)
        assert _bits(_pairs(mu)) == _bits(_merge_atoms_loop(atoms, 1e-12))
        assert mu.nodes.dtype == float and mu.masses.dtype == complex
        for grid in (Grid(0.0, 1.0, 1000), Grid(0.0, 1.0, 2)):
            x = rng.uniform(1.0, 2.0, (grid.n + 1, 1)) + 1j * rng.uniform(1.0, 2.0, (grid.n + 1, 1))
            loop = _weights_loop(mu, grid)
            nodes, weights = _place_points(grid, *MatrixMeasure([[mu]])._atom_terms(0), 1)
            placed = np.zeros_like(loop)
            placed[nodes] = weights[0, :, 0]
            np.testing.assert_array_equal(placed.view(np.uint64), loop.view(np.uint64))
            want = np.einsum("k,k->", loop[nodes], x[nodes, 0])[None]
            np.testing.assert_array_equal(MatrixMeasure([[mu]]).apply(grid, x).view(np.uint64),
                                          want.view(np.uint64))
    chain = ScalarMeasure(0.0, 1.0, atoms=_raw_atom_lists()[-3])
    assert _pairs(chain) == [(0.5, 1.0 - 2.0j), (0.5 + 1.2e-12, 3.0)]


@pytest.mark.parametrize("entries, message", [
    ([], "need a non-empty matrix of measures"),
    ([[]], "need a non-empty matrix of measures"),
    ([[ScalarMeasure.zero(0.0, 1.0)], [ScalarMeasure.zero(0.0, 1.0)] * 2], "ragged rows"),
])
def test_an_empty_or_ragged_matrix_measure_is_refused(entries, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        MatrixMeasure(entries)
