"""Reference problems: each closed form is checked once, on the default grid."""

import dataclasses
import re

import pytest

from mpbvp import corpus
from mpbvp.bvp import residuals


@pytest.mark.parametrize("n", [2048, 16384])
@pytest.mark.parametrize("name", corpus.CORPUS_NAMES)
def test_closed_form_satisfies_its_problem(name, n):
    problem, jet = corpus.build_problem(name, n), corpus.exact_jet(name, n)
    ode_defect, boundary_defect = residuals(problem, jet)
    assert ode_defect <= corpus._RESIDUAL_TOL
    assert boundary_defect <= corpus._RESIDUAL_TOL


def test_closed_form_is_checked_once_on_the_default_grid(monkeypatch):
    checked = []

    def counting_residuals(problem, jet):
        checked.append(problem.grid.n)
        return residuals(problem, jet)

    monkeypatch.setattr(corpus, "residuals", counting_residuals)
    monkeypatch.setitem(corpus._BUILDERS, "p2", lambda n: corpus._p2(n))
    for n in (2, 8, 2048, 16384):
        assert corpus.build_problem("p2", n).grid.n == n
    assert checked == [corpus._CHECK_N]


def test_building_a_problem_samples_no_closed_form(monkeypatch):
    # Once its builder's closed form is checked, a build returns the problem
    # alone: only exact_jet samples the derivative callables on the grid.
    for name in (*corpus.CORPUS_NAMES, *corpus.DEGENERATE_NAMES):
        corpus.build_problem(name)
    sampled, from_callables = [], corpus.SampledJet.from_callables

    def counting(grid, m, r, derivatives):
        sampled.append(grid.n)
        return from_callables(grid, m, r, derivatives)

    monkeypatch.setattr(corpus.SampledJet, "from_callables", counting)
    for name in (*corpus.CORPUS_NAMES, *corpus.DEGENERATE_NAMES):
        for n in (8, 2048, 16384):
            assert corpus.build_problem(name, n).grid.n == n
    assert sampled == []
    assert corpus.exact_jet("p3", 16).table.shape == (17, 2, 2)
    assert sampled == [16]


@pytest.mark.parametrize("n", [8, 2048])
def test_perturbed_builder_trips_the_self_check(monkeypatch, n):
    def perturbed(n):
        problem, derivatives = corpus._p1(n)
        return dataclasses.replace(problem, q=problem.q + 1e-6), derivatives

    monkeypatch.setitem(corpus._BUILDERS, "p1", perturbed)
    with pytest.raises(AssertionError, match="'p1' failed its closed-form check"):
        corpus.build_problem("p1", n)


@pytest.mark.parametrize("call, message", [
    (lambda: corpus.exact_jet("nn"), "problem 'nn' has no closed-form solution"),
    (lambda: corpus.build_problem("p9"), "unknown problem 'p9' (known: nn, p1, p2, p3)"),
])
def test_a_name_without_a_closed_form_is_refused(call, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        call()
