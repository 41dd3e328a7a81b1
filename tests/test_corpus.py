"""Reference problems: every closed form satisfies its problem's data, and a
build samples and solves nothing."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mpbvp
from mpbvp import corpus
from mpbvp.bvp import residuals

#: Largest ODE or boundary residual of a closed form on its own problem.  On
#: a coarse grid the quadrature error of an integral condition alone exceeds
#: it (p1's reads 6.1e-7 at n = 8), so the check runs on fine grids only.
RESIDUAL_TOL = 1e-8


@pytest.mark.parametrize("n", [2048, 2049, 16384])
@pytest.mark.parametrize("name", corpus.CORPUS_NAMES)
def test_closed_form_satisfies_its_problem(name, n):
    # On 2049 steps p2's jump at 1/2 falls inside a cell.
    problem, jet = corpus.build_problem(name, n), corpus.exact_jet(name, n)
    ode_defect, boundary_defect = residuals(problem, jet)
    assert ode_defect <= RESIDUAL_TOL
    assert boundary_defect <= RESIDUAL_TOL


def test_building_a_problem_solves_nothing_in_a_fresh_process():
    # A build is its builder's call alone: no closed form is checked against
    # its problem at run time, so nothing in a fresh process reaches the
    # solver's top channel, which every residual and solve reads.
    src = str(Path(mpbvp.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = ("from mpbvp import bvp, corpus\n"
               "calls, top_channels = [], bvp._top_channels\n"
               "def counting(grid, *args):\n"
               "    calls.append(grid.n)\n"
               "    return top_channels(grid, *args)\n"
               "bvp._top_channels = counting\n"
               "for name in (*corpus.CORPUS_NAMES, *corpus.DEGENERATE_NAMES):\n"
               "    for n in (2, 8, 2048, 16384):\n"
               "        assert corpus.build_problem(name, n).grid.n == n\n"
               "print(calls)")
    done = subprocess.run([sys.executable, "-c", command], capture_output=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"[]\n"


def test_building_a_problem_samples_no_closed_form(monkeypatch):
    # A build returns the problem alone: only exact_jet samples the
    # derivative callables on the grid.
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


@pytest.mark.parametrize("call, message", [
    (lambda: corpus.exact_jet("nn"), "problem 'nn' has no closed-form solution"),
    (lambda: corpus.build_problem("p9"), "unknown problem 'p9' (known: nn, p1, p2, p3)"),
])
def test_a_name_without_a_closed_form_is_refused(call, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        call()
