"""One interval rule and one point rule across the package.

Two intervals are the same when their ends agree to 1e-9 (b - a): every
container, sum, measure, problem and problem file accepts such data and
refuses data beyond it.  A point of [a, b] lies within the merge tolerance
1e-12 (b - a) of the interval and is clamped into it, for measure atoms and
multipoint nodes alike, so a problem file keeps it as clamped.
"""

import dataclasses
import json

import numpy as np
import pytest

from mpbvp import (
    build_multipoint_problem,
    cli,
    constant_shift_rhs,
    corpus,
    emit_problem,
    forced_trajectory,
    multipointify,
    parse_problem,
    problem_to_dict,
    sawtooth_rhs,
    solve,
    theorem2_check,
    theorem3_check,
)
from mpbvp.boundary import BoundaryOperator, BoundaryTerm, GeneralBoundaryOperator
from mpbvp.bvp import BvpProblem
from mpbvp.funcspace import Grid, PiecewisePoly, PolyMatrix, PolyVector
from mpbvp.problemfile import ProblemFormatError, problem_text
from mpbvp.stieltjes import MatrixMeasure, ScalarMeasure

#: The interval of the near-interval cases; b - a = 3, so a relative rule
#: and an absolute one read differently.
A, B = -1.0, 2.0


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _with_rhs_end(problem, end):
    """The problem with the last breakpoint of f's first component at ``end``."""
    c = problem.f.components[0]
    bp = c.breakpoints.copy()
    bp[-1] = end
    moved = PiecewisePoly._from_table(bp, c.table, c.widths)
    return dataclasses.replace(problem, f=PolyVector([moved, *problem.f.components[1:]]))


def test_theorem_checks_accept_an_rhs_within_the_interval_tolerance(tmp_path):
    # p1 with f ending at 1 + 5e-10 solves; its perturbed right-hand sides
    # are sums with data on [0, 1] and must be formed, not refused.  Every
    # row reads as p1's, except the L1 gap, which f's own interval carries.
    p1 = corpus.build_problem("p1", 512)
    near = _with_rhs_end(p1, 1.0 + 5e-10)
    eps = 1e-3
    for check, rhs in ((theorem3_check, sawtooth_rhs), (theorem2_check, constant_shift_rhs)):
        want = check(p1, rhs(p1, [4, 8, 16], eps), eps)
        got = check(near, rhs(near, [4, 8, 16], eps), eps)
        assert (got.ok, got.rho_bound, got.rho_solvable) == (want.ok, want.rho_bound,
                                                              want.rho_solvable)
        for row, ref in zip(got.rows, want.rows):
            row, ref = dataclasses.asdict(row), dataclasses.asdict(ref)
            assert row.pop("l1_gap") == pytest.approx(ref.pop("l1_gap"), rel=1e-8)
            assert row == ref
    path = str(tmp_path / "near.json")
    emit_problem(near, path)
    # The check of its file exits as p1's does (theorem 2 is not stable by
    # k = 8), not with the input error it gave when the file was refused.
    for theorem, code in (("2", cli.EXIT_CHECK_FAILED), ("3", cli.EXIT_OK)):
        for source in ("p1", path):
            assert cli.main(["check", source, "--theorem", theorem, "--ks", "4,8"]) == code


def test_round_trip_keeps_ends_within_the_interval_tolerance(tmp_path):
    # A problem file holds f as the problem gives it, so the file of p1
    # with f ending at 1 + 5e-10, and of its k = 8 approximation, parse
    # back with every breakpoint bit for bit.
    near = _with_rhs_end(corpus.build_problem("p1", 64), 1.0 + 5e-10)
    for problem in (near, build_multipoint_problem(near, 8)):
        path = str(tmp_path / "p.json")
        emit_problem(problem, path)
        parsed = parse_problem(path)
        np.testing.assert_array_equal(_bits(parsed.f.components[0].breakpoints),
                                      _bits(problem.f.components[0].breakpoints))
        assert parsed.f.components[0].b == 1.0 + 5e-10
        assert problem_text(parsed) == problem_text(problem)


def _p3_with_atom_at(t):
    p3 = corpus.build_problem("p3", 256)
    rows = [list(row) for row in p3.operator.phi.entries]
    rows[0][0] = ScalarMeasure(0.0, 1.0, atoms=[(0.0, 1.0), (t, 1.0)])
    return dataclasses.replace(p3, operator=GeneralBoundaryOperator(1, 2, [], MatrixMeasure(rows)))


def test_atoms_are_clamped_into_the_interval_and_round_trip(tmp_path):
    # An atom 5e-13 past b is a point of [0, 1] and is held at b, as a
    # multipoint node is; the file written for it parses back bit for bit.
    problem = _p3_with_atom_at(1.0 + 5e-13)
    atom = problem.operator.phi.entries[0][0]
    np.testing.assert_array_equal(_bits(atom.nodes), _bits([0.0, 1.0]))
    node = BoundaryOperator(1, 1, 0.0, 1.0, [BoundaryTerm(1.0 + 5e-13, 0, [[1.0]])])
    np.testing.assert_array_equal(_bits(node.nodes), _bits(atom.nodes[1:]))
    assert solve(problem).boundary_residual < 1e-14
    path = tmp_path / "p3.json"
    emit_problem(problem, str(path))
    parsed = parse_problem(str(path))
    np.testing.assert_array_equal(_bits(parsed.operator.phi.entries[0][0].nodes),
                                  _bits(atom.nodes))
    assert problem_text(parsed) == problem_text(problem)
    # A file written by hand with the atom past b is read by the same rule.
    obj = problem_to_dict(problem)
    obj["boundary"]["measure"][0][0]["atoms"][1][0] = 1.0 + 5e-13
    path.write_text(json.dumps(obj))
    assert problem_text(parse_problem(str(path))) == problem_text(problem)
    obj["boundary"]["measure"][0][0]["atoms"][1][0] = 1.0 + 2e-12
    path.write_text(json.dumps(obj))
    with pytest.raises(ProblemFormatError,
                       match=r"^\$\.boundary\.measure\[0\]\[0\]\.atoms\[1\]: atom location"):
        parse_problem(str(path))


def _near(delta, outward):
    """A two-piece polynomial on [A, B] with both ends moved by delta (B - A)."""
    shift = (1.0 if outward else -1.0) * delta * (B - A)
    return PiecewisePoly([A - shift, 0.25, B + shift], [[1.0, 2.0], [3.0, -1.0, 0.5]])


def _exact():
    return PiecewisePoly([A, 0.5, B], [[0.5j], [2.0, 1.0]])


def _problem(coeff=None, f=None):
    """y' + c y = f on [A, B] with y(A) = 1, c = 1 and f = t by default."""
    return BvpProblem(
        r=1, m=1,
        coeffs=[PolyMatrix([[coeff or PiecewisePoly.constant(1.0, A, B)]])],
        f=PolyVector([f or PiecewisePoly.single([0.0, 1.0], A, B)]),
        q=[1.0],
        operator=BoundaryOperator(1, 1, A, B, [BoundaryTerm(A, 0, [[1.0]])]),
        grid=Grid(A, B, 16))


def _solved(problem):
    assert solve(problem).boundary_residual < 1e-14


def _sums(p):
    t = np.linspace(A + 0.01, B - 0.01, 37)
    for x, y in ((_exact(), p), (p, _exact())):
        for sign, result in ((1.0, x + y), (-1.0, x - y)):
            assert (result.a, result.b) == (x.a, x.b)
            np.testing.assert_allclose(result(t), x(t) + sign * y(t), rtol=1e-15, atol=1e-15)


def _matrix_measure(p):
    mu = ScalarMeasure.lebesgue(A, B)
    nu = ScalarMeasure(p.a, p.b, atoms=[(p.a, 1.0), (p.b, 1.0)], density=p)
    op = multipointify(GeneralBoundaryOperator(1, 2, [], MatrixMeasure([[mu, nu], [mu, mu]])), 4)
    assert A <= op.nodes.min() and op.nodes.max() <= B


def _from_file(tmp_path, edit):
    obj = problem_to_dict(corpus.build_problem("p1", 64))
    edit(obj)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(obj))
    _solved(parse_problem(str(path)))


def _end_of(poly_dict, delta, outward):
    poly_dict["breakpoints"][-1] += (1.0 if outward else -1.0) * delta
    poly_dict["breakpoints"][0] -= (1.0 if outward else -1.0) * delta


PLACES = {
    "problem-coefficient": lambda p: _solved(_problem(coeff=p)),
    "problem-rhs": lambda p: _solved(_problem(f=p)),
    "PolyVector": lambda p: PolyVector([_exact(), p]),
    "PolyMatrix": lambda p: PolyMatrix([[_exact(), p]]),
    "sum-and-difference": _sums,
    "ScalarMeasure-density": lambda p: ScalarMeasure(A, B, density=p),
    "MatrixMeasure": _matrix_measure,
}

FILE_PLACES = {
    "file-coefficient": lambda obj: obj["coefficients"][0][0][0],
    "file-rhs": lambda obj: obj["rhs"][0],
    "file-density": lambda obj: obj["boundary"]["measure"][0][0]["density"],
}


@pytest.mark.parametrize("outward", [True, False], ids=["outward", "inward"])
@pytest.mark.parametrize("delta, accepted", [(5e-10, True), (2e-9, False)],
                         ids=["within", "beyond"])
@pytest.mark.parametrize("place", [*PLACES, *FILE_PLACES])
def test_every_interval_check_applies_one_rule(tmp_path, place, delta, accepted, outward):
    # The same near-interval datum at every place the interval rule governs:
    # accepted at 5e-10 (b - a), refused at 2e-9 (b - a).
    def run():
        if place in PLACES:
            PLACES[place](_near(delta, outward))
        else:
            _from_file(tmp_path, lambda obj: _end_of(FILE_PLACES[place](obj), delta, outward))

    if accepted:
        run()
    else:
        with pytest.raises(ValueError):
            run()


def _ending_at(p, end):
    """The piecewise polynomial p with its last breakpoint at ``end``."""
    bp = p.breakpoints.copy()
    bp[-1] = end
    return PiecewisePoly._from_table(bp, p.table, p.widths)


def _p3_with_entries_ending_at(part, first, second):
    """p3 (r = 1, m = 2) with one entry of a coefficient, rhs or measure
    container ending at ``first`` and another ending at ``second``."""
    p3 = corpus.build_problem("p3", 256)
    if part == "coefficient":
        (e00, e01), (e10, e11) = p3.coeffs[0].entries
        A = PolyMatrix([[_ending_at(e00, first), e01], [e10, _ending_at(e11, second)]])
        return dataclasses.replace(p3, coeffs=[A])
    if part == "rhs":
        f0, f1 = p3.f.components
        f = PolyVector([_ending_at(f0, first), _ending_at(f1, second)])
        return dataclasses.replace(p3, f=f)
    (atoms, mu01), (mu10, density) = p3.operator.phi.entries
    moved = [[ScalarMeasure(0.0, first, atoms=np.stack([atoms.nodes, atoms.masses], axis=1)),
              mu01],
             [mu10, ScalarMeasure.from_density(_ending_at(density.density, second))]]
    return dataclasses.replace(
        p3, operator=GeneralBoundaryOperator(1, 2, [], MatrixMeasure(moved)))


@pytest.mark.parametrize("part", ["coefficient", "rhs", "measure"])
def test_every_entry_of_a_container_is_checked_against_the_grid(part):
    # A container's .a and .b are its first entry's, and it checks its other
    # entries against that one, so entries ending at 1 + 0.9e-9 and
    # 1 + 1.8e-9 form a container whose second entry lies 1.8e-9 (b - a)
    # off the grid: the problem, and a pass of its coefficients, refuse it.
    with pytest.raises(ValueError, match="intervals disagree"):
        _p3_with_entries_ending_at(part, 1.0 + 0.9e-9, 1.0 + 1.8e-9)
    # Entries that each lie within 1e-9 (b - a) of the grid are accepted,
    # and each datum is pinned onto the grid for the solve, so it reads as p3.
    near = _p3_with_entries_ending_at(part, 1.0 + 0.9e-9, 1.0 + 0.2e-9)
    want = solve(corpus.build_problem("p3", 256)).jet.samples
    for have, ref in zip(solve(near).jet.samples, want, strict=True):
        np.testing.assert_array_equal(have, ref)


def test_a_pass_checks_every_entry_against_the_grid():
    # The same containers, handed to the RK4 pass directly.
    p3 = corpus.build_problem("p3", 256)
    (e00, e01), (e10, e11) = p3.coeffs[0].entries
    A = PolyMatrix([[_ending_at(e00, 1.0 + 0.9e-9), e01], [e10, _ending_at(e11, 1.0 + 1.8e-9)]])
    f0, f1 = p3.f.components
    g = PolyVector([_ending_at(f0, 1.0 + 0.9e-9), _ending_at(f1, 1.0 + 1.8e-9)])
    for system in ((A, p3.f), (p3.coeffs[0], g)):
        with pytest.raises(ValueError, match="do not span the grid"):
            forced_trajectory(*system, p3.grid)
