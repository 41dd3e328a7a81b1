"""Accuracy guards: solve errors against closed forms may only fall.

Each ceiling is twice the error the solver reached when the guard was
added (in the comment beside it), per jet channel, so reordered last bits
pass and a lost digit does not.  A fix that gains accuracy passes
unchanged; tighten the ceilings with it.
"""

import dataclasses

import numpy as np
import pytest

from mpbvp import Grid, PiecewisePoly, PolyMatrix, PolyVector, companion_reduce, corpus, solve
from oracles import growth_problem, step_problem

# p2's coefficients and f jump at t = 1/2, which is off the grid at odd n:
# the pass reads both where they jump, so its jet stays at round-off there.
P2_CEILINGS = {
    2047: (3.0e-15, 9.9e-15, 4.2e-15),  # 1.49e-15, 4.92e-15, 2.05e-15
    2049: (5.0e-15, 6.8e-15, 7.8e-15),  # 2.47e-15, 3.36e-15, 3.86e-15
    4097: (4.1e-15, 5.2e-15, 5.7e-15),  # 2.00e-15, 2.55e-15, 2.81e-15
}

# y'' = lam^2 y, y(0) = y(1) = 1: single shooting loses digits as lam grows.
GROWTH_CEILINGS = {
    (5, 2048): (2.7e-13, 9.8e-13, 6.6e-12),  # 1.32e-13, 4.89e-13, 3.29e-12
    (5, 16384): (8.6e-14, 4.1e-13, 2.2e-12),  # 4.26e-14, 2.03e-13, 1.07e-12
    (20, 2048): (1.6e-7, 3.7e-6, 6.2e-5),  # 7.64e-8, 1.81e-6, 3.06e-5
    (20, 16384): (1.3e-7, 6.2e-6, 5.2e-5),  # 6.43e-8, 3.09e-6, 2.57e-5
}


# oracles.step_problem on [0.1, 0.7] with its jump at 0.34, one ulp off its
# node at every n here: the node rule reads it on the node.
STEP_CEILINGS = {
    10: (6.7e-7, 1.4e-6),  # 3.35e-7, 6.69e-7
    30: (7.8e-9, 1.6e-8),  # 3.87e-9, 7.73e-9
    300: (7.5e-13, 1.5e-12),  # 3.75e-13, 7.50e-13
}

# The same with the jump in f (``forcing``) in place of a0.
FORCING_STEP_CEILINGS = {
    10: (5.8e-8, 5.8e-8),  # 2.85e-8, 2.85e-8
    30: (6.9e-10, 6.9e-10),  # 3.41e-10, 3.41e-10
    300: (6.8e-14, 6.8e-14),  # 3.35e-14, 3.35e-14
}


def _channel_errors(jet, exact):
    return [float(np.max(np.abs(have - want))) for have, want in zip(jet.samples, exact)]


@pytest.mark.parametrize("n", sorted(P2_CEILINGS))
def test_p2_off_the_grid_stays_within_its_error(n):
    solution = solve(corpus.build_problem("p2", n))
    errors = _channel_errors(solution.jet, corpus.exact_jet("p2", n).samples)
    assert all(error <= ceiling for error, ceiling in zip(errors, P2_CEILINGS[n], strict=True))
    # Neighbouring channels agree: a coefficient jump read at another point
    # than f's put 0.17 here.
    assert solution.consistency_defect < 1e-6


@pytest.mark.parametrize("lam, n", sorted(GROWTH_CEILINGS))
def test_growth_problem_stays_within_its_error(lam, n):
    jet = solve(growth_problem(lam, n)).jet
    t = jet.grid.nodes - 0.5
    scale = np.cosh(lam / 2.0)
    y = np.cosh(lam * t) / scale
    exact = [y[:, None], (lam * np.sinh(lam * t) / scale)[:, None], lam ** 2 * y[:, None]]
    errors = _channel_errors(jet, exact)
    assert all(error <= ceiling
               for error, ceiling in zip(errors, GROWTH_CEILINGS[lam, n], strict=True))


def _node_of_the_jump(n):
    """Grid(0.1, 0.7, n) and its node nearest 0.34, one ulp off 0.34 at every n here."""
    grid = Grid(0.1, 0.7, n)
    node = grid.nodes[round((0.34 - 0.1) / grid.h)]
    assert 0 < abs(node - 0.34) < 1e-12 * (grid.b - grid.a)
    return grid, node


def _assert_ulp_off_jump_reads_as_on_the_node(n, forcing, ceilings):
    grid, node = _node_of_the_jump(n)
    problem = step_problem(n, 0.34, 0.1, 0.7, forcing)
    # The pass reads the problem's own step at 0.34, on the node.
    step = (problem.f.components if forcing else problem.coeffs[0].entries[0])[0]
    assert step.breakpoints[1] == 0.34
    P, g = companion_reduce(problem)[:2]
    assert (g.components if forcing else P.entries[0])[0] is step
    jet = solve(problem).jet
    on_node = solve(step_problem(n, node, 0.1, 0.7, forcing)).jet
    for have, want in zip(jet.samples, on_node.samples, strict=True):
        assert have.tobytes() == want.tobytes()
    after = grid.nodes >= node
    if forcing:
        decay = np.exp(-(grid.nodes - node))
        exact = [np.where(after, 2.0 - decay, 1.0), np.where(after, decay, 0.0)]
    else:
        decay = np.exp(-2.0 * (grid.nodes - node))
        exact = [np.where(after, 0.5 + 0.5 * decay, 1.0), np.where(after, -decay, 0.0)]
    errors = _channel_errors(jet, [channel[:, None] for channel in exact])
    assert all(error <= ceiling for error, ceiling in zip(errors, ceilings[n], strict=True))


@pytest.mark.parametrize("n", sorted(STEP_CEILINGS))
def test_jump_an_ulp_off_its_node_reads_as_on_it(n):
    _assert_ulp_off_jump_reads_as_on_the_node(n, False, STEP_CEILINGS)


@pytest.mark.parametrize("n", sorted(FORCING_STEP_CEILINGS))
def test_jump_of_f_an_ulp_off_its_node_reads_as_on_it(n):
    _assert_ulp_off_jump_reads_as_on_the_node(n, True, FORCING_STEP_CEILINGS)


@pytest.mark.parametrize("forcing", [False, True], ids=["a0", "f"])
@pytest.mark.parametrize("n", sorted(STEP_CEILINGS))
def test_two_breakpoints_within_a_nodes_tolerance_read_as_one_jump_on_it(n, forcing):
    # a0 or f steps 1 -> 3 at node - 4e-13 and 3 -> 2 at node + 4e-13, both
    # within the node rule's 6e-13 of the node: the piece of 3 between them
    # is empty on the grid, so the node reads 2 and the step that ends there
    # 1, and the jet is the one-jump problem's bit for bit.
    _, node = _node_of_the_jump(n)
    on_node = step_problem(n, node, 0.1, 0.7, forcing)
    step = PiecewisePoly.step([0.1, node - 4e-13, node + 4e-13, 0.7], [1.0, 3.0, 2.0])
    near = (dataclasses.replace(on_node, f=PolyVector([step])) if forcing
            else dataclasses.replace(on_node, coeffs=[PolyMatrix([[step]])]))
    for have, want in zip(solve(near).jet.samples, solve(on_node).jet.samples, strict=True):
        assert have.tobytes() == want.tobytes()
