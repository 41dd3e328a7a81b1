"""Problem-file serialization: round-trips and validation errors."""

import copy
import json

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
from mpbvp.problemfile import problem_text


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


def test_shipped_corpus_files_parse_and_solve():
    import mpbvp

    base = mpbvp.__path__[0]
    problem = parse_problem(f"{base}/corpus/p1.json")
    assert problem.r == 1 and problem.m == 1
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
