"""Problem-file serialization: round-trips and validation errors."""

import copy
import json
import re

import numpy as np
import pytest

from mpbvp import (
    ProblemFormatError,
    build_multipoint_problem,
    corpus,
    emit_problem,
    parse_problem,
    problem_from_dict,
    problem_to_dict,
    solve,
)
from mpbvp.boundary import BoundaryTerm, GeneralBoundaryOperator, MultipointBoundaryOperator
from mpbvp.bvp import BvpProblem
from mpbvp.funcspace import MAX_GRID_N, Grid, PiecewisePoly, PolyMatrix, PolyVector
from mpbvp.problemfile import problem_text
from mpbvp.stieltjes import MatrixMeasure, ScalarMeasure
from oracles import random_problem


@pytest.fixture()
def p1_dict():
    return problem_to_dict(corpus.build_problem("p1", 64))


def test_round_trip_bit_exact_for_all_corpus(tmp_path):
    for name in ("p1", "p2", "p3", "nn"):
        problem = corpus.build_problem(name, 128)
        first = tmp_path / f"{name}.json"
        second = tmp_path / f"{name}_again.json"
        emit_problem(problem, str(first))
        emit_problem(parse_problem(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()


def test_indented_problem_file_parses_and_solves(tmp_path):
    # The layout of a file is free: p1 written with an indent, as by hand,
    # parses to the problem that problem_text writes.
    p1 = corpus.build_problem("p1", 2048)
    path = tmp_path / "p1.json"
    path.write_text(json.dumps(problem_to_dict(p1), indent=2))
    problem = parse_problem(str(path))
    assert problem_text(problem) == problem_text(p1)
    solution = solve(problem)
    assert abs(solution.jet.samples[0][-1, 0] - (np.exp(-1.0) + 1.0)) <= 1e-8


def test_wrong_data_length(p1_dict):
    p1_dict["data"] = [[0.0, 0.0], [1.0, 0.0]]
    with pytest.raises(ProblemFormatError, match=r"\$\.data"):
        problem_from_dict(p1_dict)


def test_reversed_interval(p1_dict):
    p1_dict["interval"] = [1.0, 0.0]
    with pytest.raises(ProblemFormatError, match=r"\$\.interval"):
        problem_from_dict(p1_dict)


def test_non_finite_coefficient(p1_dict):
    bad = copy.deepcopy(p1_dict)
    bad["coefficients"][0][0][0]["pieces"][0][0] = [float("nan"), 0.0]
    with pytest.raises(ProblemFormatError, match=r"coefficients"):
        problem_from_dict(bad)


def test_missing_key(p1_dict):
    del p1_dict["rhs"]
    with pytest.raises(ProblemFormatError, match="rhs"):
        problem_from_dict(p1_dict)


def test_unknown_boundary_kind(p1_dict):
    p1_dict["boundary"]["kind"] = "mystery"
    with pytest.raises(ProblemFormatError, match="kind"):
        problem_from_dict(p1_dict)


def test_wrong_format_name(p1_dict):
    p1_dict["format"] = "something-else"
    with pytest.raises(ProblemFormatError, match="format"):
        problem_from_dict(p1_dict)


def test_atom_outside_interval(p1_dict):
    bad = copy.deepcopy(p1_dict)
    bad["boundary"]["measure"][0][0]["atoms"] = [[2.0, 1.0, 0.0]]
    with pytest.raises(ProblemFormatError, match="atoms"):
        problem_from_dict(bad)


def test_non_finite_multipoint_node_rejected():
    bad = problem_to_dict(corpus.build_problem("nn", 64))
    for node in (float("nan"), float("inf")):
        bad["boundary"]["terms"][1]["node"] = node
        with pytest.raises(ProblemFormatError, match=r"^\$\.boundary: node (nan|inf) outside"):
            problem_from_dict(bad)


def test_problem_text_has_one_line_per_key_and_term():
    for name, k in (("p1", 0), ("p3", 64), ("nn", 0)):
        problem = corpus.build_problem(name, 128)
        if k:
            problem = build_multipoint_problem(problem, k)
        obj = problem_to_dict(problem)
        text = problem_text(problem)
        assert json.loads(text) == obj
        lines = text.splitlines()
        if obj["boundary"]["kind"] == "multipoint":
            terms = obj["boundary"]["terms"]
            term_lines = [line for line in lines if line.startswith('    {"node"')]
            assert [json.loads(line.rstrip(",")) for line in term_lines] == terms
            assert len(lines) == len(obj) + 2 + len(terms) + 1
        else:
            assert len(lines) == len(obj) + 2
        keys = [line.split(":")[0].strip() for line in lines if line.startswith('  "')]
        assert keys == [json.dumps(key) for key in obj]


def test_multipoint_round_trip_through_dict():
    problem = corpus.build_problem("nn", 64)
    rebuilt = problem_from_dict(problem_to_dict(problem))
    assert problem_to_dict(rebuilt) == problem_to_dict(problem)


def test_emit_is_atomic(tmp_path):
    # a successful write replaces the file completely
    target = tmp_path / "problem.json"
    target.write_text("garbage")
    emit_problem(corpus.build_problem("p1", 64), str(target))
    parsed = json.loads(target.read_text())
    assert parsed["order"] == 1
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert not leftovers


def test_parse_missing_file():
    with pytest.raises(OSError):
        parse_problem("/nonexistent/problem.json")


def test_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ProblemFormatError, match="invalid JSON"):
        parse_problem(str(bad))


@pytest.mark.parametrize("depth", [2000, 100000])
def test_deeply_nested_json_is_a_format_error(tmp_path, p1_dict, depth):
    path = tmp_path / "deep.json"
    text = json.dumps(dict(p1_dict, data=None))
    path.write_text(text.replace('"data": null', '"data": ' + "[" * depth + "]" * depth))
    with pytest.raises(ProblemFormatError, match=r"^\$: invalid JSON \(nesting too deep\)$"):
        parse_problem(str(path))


@pytest.mark.parametrize("grid_n", [MAX_GRID_N + 1, 10**400], ids=["cap+1", "1e400"])
def test_grid_n_above_the_cap_is_a_format_error(p1_dict, grid_n):
    message = rf"^\$\.grid_n: expected an integer in \[2, {MAX_GRID_N}\], got {grid_n}$"
    with pytest.raises(ProblemFormatError, match=message):
        problem_from_dict(dict(p1_dict, grid_n=grid_n))


@pytest.mark.parametrize("name", ["p1", "p2", "p3", "nn"])
def test_parse_round_trip_is_bitwise_on_the_text(name):
    base = corpus.build_problem(name, 2048)
    for problem in (base, build_multipoint_problem(base, 4), build_multipoint_problem(base, 1024)):
        text = problem_text(problem)
        assert problem_text(problem_from_dict(json.loads(text))) == text


def _special_values_problems():
    """A general and a multipoint problem whose number tables hold -0.0 real
    and imaginary parts, the subnormal 5e-324, +-1e308 and integer values."""
    a, b = 0.0, 1.0
    neg = complex(-0.0, -0.0)
    coeffs = [
        PolyMatrix([[PiecewisePoly([a, 0.5, b], [[neg, 5e-324, complex(1e308, -0.0)],
                                                 [complex(-1e308, 2.0)]])]]),
        PolyMatrix([[PiecewisePoly([a, b], [[complex(-0.0, 1.0), 3.0]])]]),
    ]
    f = PolyVector([PiecewisePoly([a, 0.25, b], [[complex(1.0, -0.0)], [complex(5e-324, 1e308)]])])
    q = np.array([complex(-0.0, 5e-324), complex(1e308, -0.0)])
    atoms = [(0.25, complex(-0.0, 1.0)), (1.0, complex(5e-324, -0.0))]
    density = PiecewisePoly([a, b], [[neg, complex(-1e308, 1.0)]])
    phi = MatrixMeasure([[ScalarMeasure(a, b, atoms=atoms)],
                         [ScalarMeasure(a, b, atoms=atoms[:1], density=density)]])
    alphas = [np.array([[complex(-0.0, 1.0)], [complex(2.0, -0.0)]])]
    general = BvpProblem(2, 1, coeffs, f, q, GeneralBoundaryOperator(2, 1, alphas, phi),
                         Grid(a, b, 64))
    terms = [BoundaryTerm(0.0, 0, np.array([[neg], [5e-324]])),
             BoundaryTerm(0.25, 1, np.array([[complex(1e308, -0.0)], [-1e308]])),
             BoundaryTerm(1.0, 0, np.array([[1.0], [complex(-0.0, 2.0)]]))]
    multipoint = BvpProblem(2, 1, coeffs, f, q, MultipointBoundaryOperator(2, 1, a, b, terms),
                            Grid(a, b, 64))
    return general, multipoint


def test_parse_round_trip_keeps_signed_zeros_subnormals_and_extremes():
    for problem in _special_values_problems():
        text = problem_text(problem)
        for token in ("-0.0", "5e-324", "1e+308", "-1e+308"):
            assert token in text
        parsed = problem_from_dict(json.loads(text))
        assert problem_text(parsed) == text
        # the padded tables too, beyond each piece's width
        for A, B in zip(problem.coeffs, parsed.coeffs):
            for p, p_parsed in zip(A.entries[0], B.entries[0]):
                assert p.table.tobytes() == p_parsed.table.tobytes()
        # integer-valued numbers written as JSON integers decode to the same bits
        int_text = re.sub(r"(?<![-\d.])(\d+)\.0(?![\de])", r"\1", text)
        assert int_text != text and '"interval": [0, 1]' in int_text
        assert problem_text(problem_from_dict(json.loads(int_text))) == text


BIG = int("1" + "0" * 400)


@pytest.fixture()
def p2_dict():
    """p2 (order 2, one alpha block) with one atom in its first measure entry."""
    obj = problem_to_dict(corpus.build_problem("p2", 64))
    obj["boundary"]["measure"][0][0]["atoms"] = [[0.5, 1.0, 0.0]]
    return obj


# (key path of one number in p2_dict, or in the k = 4 multipoint problem for
# the terms; that number's $-path)
NUMBER_ENTRIES = [
    (("data", 1, 0), "$.data[1][0]"),
    (("interval", 1), "$.interval[1]"),
    (("coefficients", 0, 0, 0, "breakpoints", 1), "$.coefficients[0][0][0].breakpoints[1]"),
    (("coefficients", 0, 0, 0, "pieces", 1, 0, 1), "$.coefficients[0][0][0].pieces[1][0][1]"),
    (("rhs", 0, "pieces", 1, 2, 0), "$.rhs[0].pieces[1][2][0]"),
    (("boundary", "alphas", 0, 1, 0, 1), "$.boundary.alphas[0][1][0][1]"),
    (("boundary", "measure", 0, 0, "atoms", 0, 2), "$.boundary.measure[0][0].atoms[0][2]"),
    (("boundary", "terms", 2, "node"), "$.boundary.terms[2].node"),
    (("boundary", "terms", 2, "weight", 0, 0, 1), "$.boundary.terms[2].weight[0][0][1]"),
]


def _with_entry(obj, keys, value):
    bad = copy.deepcopy(obj)
    container = bad
    for key in keys[:-1]:
        container = container[key]
    container[keys[-1]] = value
    return bad


def _base_for(keys, p2_dict):
    if "terms" in keys:
        return problem_to_dict(build_multipoint_problem(corpus.build_problem("p2", 64), 4))
    return p2_dict


@pytest.mark.parametrize("keys, where", NUMBER_ENTRIES)
def test_malformed_number_names_its_entry(p2_dict, keys, where):
    base = _base_for(keys, p2_dict)
    problem_from_dict(copy.deepcopy(base))  # the unmodified dict parses
    for value, message in [(True, "expected a number, got True"),
                           ("1.0", "expected a number, got '1.0'"),
                           ([1.0], r"expected a number, got \[1\.0\]"),
                           (BIG, "integer too large for a double"),
                           (-BIG, "integer too large for a double")]:
        with pytest.raises(ProblemFormatError, match=rf"^{re.escape(where)}: {message}$"):
            problem_from_dict(_with_entry(base, keys, value))


# (key path of one list of numbers, a value of the wrong length, the message)
WRONG_LENGTHS = [
    (("data", 1), [1.0, 0.0, 0.0], "$.data[1]: expected 2 entries, got 3"),
    (("interval",), [0.0, 0.5, 1.0], "$.interval: expected 2 entries, got 3"),
    (("coefficients", 0, 0, 0, "breakpoints"), [0.0, 0.25, 0.5, 1.0],
     "$.coefficients[0][0][0].pieces: expected 3 entries, got 2"),
    (("coefficients", 0, 0, 0, "pieces", 1, 0), [1.0],
     "$.coefficients[0][0][0].pieces[1][0]: expected 2 entries, got 1"),
    (("rhs", 0, "pieces", 1, 2), [1.0, 0.0, 0.0], "$.rhs[0].pieces[1][2]: expected 2 entries, got 3"),
    (("boundary", "alphas", 0, 1), [], "$.boundary.alphas[0][1]: expected 1 entries, got 0"),
    (("boundary", "measure", 0, 0, "atoms", 0), [0.5, 1.0],
     "$.boundary.measure[0][0].atoms[0]: expected 3 entries, got 2"),
    (("boundary", "terms", 2, "weight", 0, 0), [0.25, 0.0, 0.0],
     "$.boundary.terms[2].weight[0][0]: expected 2 entries, got 3"),
]


@pytest.mark.parametrize("keys, value, message", WRONG_LENGTHS)
def test_wrong_length_names_its_list(p2_dict, keys, value, message):
    with pytest.raises(ProblemFormatError, match=rf"^{re.escape(message)}$"):
        problem_from_dict(_with_entry(_base_for(keys, p2_dict), keys, value))


def test_malformed_term_order_names_its_entry():
    base = problem_to_dict(build_multipoint_problem(corpus.build_problem("p2", 64), 4))
    where = re.escape("$.boundary.terms[2].order")
    for value, message in [(True, "expected an integer, got True"),
                           ("0", "expected an integer, got '0'"),
                           ([0], r"expected an integer, got \[0\]"),
                           (2, r"expected an integer in \[0, 1\], got 2"),
                           (BIG, rf"expected an integer in \[0, 1\], got {BIG}")]:
        with pytest.raises(ProblemFormatError, match=rf"^{where}: {message}$"):
            problem_from_dict(_with_entry(base, ("boundary", "terms", 2, "order"), value))


# ---------------------------------------------------------------------------
# The writer against a reference: the dict-building writer, with each line
# encoded by json.dumps, that problem_text replaced.  Both must give the
# same bytes.


def _reference_pairs(values) -> list:
    z = np.asarray(values, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1).tolist()


def _reference_poly(p):
    pieces = [row[:width] for row, width in zip(_reference_pairs(p.table), p.widths.tolist())]
    return {"breakpoints": p.breakpoints.tolist(), "pieces": pieces}


def _reference_measure(mu):
    return {"atoms": [[float(t), float(w.real), float(w.imag)] for t, w in mu.atoms],
            "density": None if mu.density is None else _reference_poly(mu.density)}


def _reference_boundary(op):
    if isinstance(op, GeneralBoundaryOperator):
        return {"kind": "general",
                "alphas": [_reference_pairs(alpha) for alpha in op.alphas],
                "measure": [[_reference_measure(entry) for entry in row]
                            for row in op.phi.entries]}
    return {"kind": "multipoint",
            "terms": [{"node": node, "order": order, "weight": weight} for node, order, weight
                      in zip(op.nodes.tolist(), op.orders.tolist(), _reference_pairs(op.betas))]}


def _reference_dict(problem):
    return {
        "format": "mpbvp-problem",
        "version": 1,
        "order": problem.r,
        "size": problem.m,
        "interval": [float(problem.a), float(problem.b)],
        "grid_n": problem.grid.n,
        "coefficients": [[[_reference_poly(entry) for entry in row] for row in A.entries]
                         for A in problem.coeffs],
        "rhs": [_reference_poly(c) for c in problem.f.components],
        "data": _reference_pairs(problem.q),
        "boundary": _reference_boundary(problem.operator),
    }


def _reference_text(problem):
    obj = _reference_dict(problem)
    terms = obj["boundary"].pop("terms", None)
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in obj.items()]
    if terms is not None:
        lines[-1] = (lines[-1][:-1] + ', "terms": [\n'
                     + ",\n".join("    " + json.dumps(term) for term in terms) + "\n  ]}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _assert_writer_matches_reference(problem):
    assert problem_text(problem) == _reference_text(problem)
    assert problem_to_dict(problem) == _reference_dict(problem)


@pytest.mark.filterwarnings("ignore::UserWarning")  # k = 1024 pieces collapse at n = 64
@pytest.mark.parametrize("n", [64, 2048])
@pytest.mark.parametrize("name", ["p1", "p2", "p3", "nn"])
def test_writer_matches_reference_on_corpus_and_approximations(name, n):
    base = corpus.build_problem(name, n)
    for problem in [base] + [build_multipoint_problem(base, k) for k in (1, 4, 1024)]:
        _assert_writer_matches_reference(problem)


def test_writer_matches_reference_on_random_problems():
    rng = np.random.default_rng(13)
    problems = [random_problem(rng, n=64) for _ in range(8)]
    kinds = {type(problem.operator) for problem in problems}
    assert kinds == {GeneralBoundaryOperator, MultipointBoundaryOperator}
    widths = {int(w) for problem in problems for c in problem.f.components for w in c.widths}
    widths |= {int(w) for problem in problems for A in problem.coeffs
               for row in A.entries for p in row for w in p.widths}
    assert len(widths) > 1
    for problem in problems:
        _assert_writer_matches_reference(problem)


def test_writer_matches_reference_on_special_values():
    for problem in _special_values_problems():
        _assert_writer_matches_reference(problem)


# ---------------------------------------------------------------------------
# Term-table errors deep in a large file: the batch decode of the terms
# falls back to the term-by-term one, which names the bad term.


@pytest.fixture(scope="module")
def p2_k1024_dict():
    return problem_to_dict(build_multipoint_problem(corpus.build_problem("p2", 2048), 1024))


@pytest.mark.parametrize("field, value, message", [
    ("order", True, "$.boundary.terms[700].order: expected an integer, got True"),
    ("order", 2, "$.boundary.terms[700].order: expected an integer in [0, 1], got 2"),
    ("node", "0.5", "$.boundary.terms[700].node: expected a number, got '0.5'"),
    ("weight", None, "$.boundary.terms[700]: missing required key 'weight'"),
])
def test_bad_term_in_a_large_file_names_its_entry(p2_k1024_dict, field, value, message):
    bad = copy.deepcopy(p2_k1024_dict)
    term = bad["boundary"]["terms"][700]
    if value is None:
        del term[field]
    else:
        term[field] = value
    with pytest.raises(ProblemFormatError, match=rf"^{re.escape(message)}$"):
        problem_from_dict(bad)
