"""Command-line interface: exit codes, artifacts, determinism."""

import json

import numpy as np
import pytest

from mpbvp import (
    build_multipoint_problem,
    cli,
    corpus,
    emit_problem,
    problem_from_dict,
    solve,
)
from mpbvp.boundary import BoundaryTerm, GeneralBoundaryOperator, MultipointBoundaryOperator
from mpbvp.bvp import BvpProblem
from mpbvp.funcspace import MAX_GRID_N, Grid, PiecewisePoly, PolyMatrix, PolyVector
from mpbvp.stieltjes import MatrixMeasure, ScalarMeasure
from oracles import growth_problem, scaled_boundary_problem


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_csv_row(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    return lines[0].split(","), lines[-1].split(",")


def test_solve_p1(capsys):
    code, out, err = run(capsys, "solve", "p1")
    assert code == cli.EXIT_OK
    header, last = last_csv_row(out)
    assert header[0] == "t"
    assert float(last[0]) == 1.0
    value = float(last[header.index("y0_0_re")])
    assert abs(value - (np.exp(-1.0) + 1.0)) <= 1e-8
    assert "det" in err


def test_solve_p3_system_columns(capsys):
    code, out, _ = run(capsys, "solve", "p3", "--grid-n", "256")
    header, last = last_csv_row(out)
    assert code == cli.EXIT_OK
    # two components, order one: value channel and derivative channel
    assert header == ["t",
                      "y0_0_re", "y0_0_im", "y0_1_re", "y0_1_im",
                      "y1_0_re", "y1_0_im", "y1_1_re", "y1_1_im"]
    assert abs(float(last[1]) - 1.0) <= 1e-8   # t^2 at t=1
    assert abs(float(last[3]) - 0.0) <= 1e-8   # (1-t)^2 at t=1
    assert abs(float(last[5]) - 2.0) <= 1e-8   # (t^2)' at t=1
    assert abs(float(last[7]) - 0.0) <= 1e-8   # ((1-t)^2)' at t=1


def test_solve_not_uniquely_solvable(capsys):
    code, _, err = run(capsys, "solve", "nn")
    assert code == cli.EXIT_NOT_SOLVABLE
    assert "not uniquely solvable" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the matrizant overflows
def test_overflowing_matrizant_is_not_solvable(capsys, tmp_path):
    path = tmp_path / "growth.json"
    emit_problem(growth_problem(800), str(path))
    code, out, err = run(capsys, "solve", str(path))
    assert code == cli.EXIT_NOT_SOLVABLE
    assert not out
    assert "not uniquely solvable: characteristic matrix is not finite (cond = nan)" in err


def test_parser_is_built_once_and_parses_afresh():
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    first = parser.parse_args(["approximate", "p1", "--k", "3", "--grid-n", "64"])
    second = parser.parse_args(["solve", "p1"])
    assert (first.k, first.grid_n) == (3, 64)
    assert second.grid_n is None and not hasattr(second, "k")


def test_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/problem.json")
    assert code == cli.EXIT_IO
    assert err


def test_bad_usage_is_io_error(capsys):
    assert run(capsys, "frobnicate")[0] == cli.EXIT_IO
    assert run(capsys, "sweep", "p1", "--ks", "4:banana")[0] == cli.EXIT_IO


def test_sweep_report_format_and_determinism(capsys):
    code, first, _ = run(capsys, "sweep", "p1", "--ks", "4:64:x2", "--grid-n", "512")
    assert code == cli.EXIT_OK
    code, second, _ = run(capsys, "sweep", "p1", "--ks", "4:64:x2", "--grid-n", "512")
    assert code == cli.EXIT_OK
    assert first == second  # byte-identical rerun
    lines = first.strip().splitlines()
    assert lines[0] == "k,err_w1r,err_cr1,det,sigma_hat,bound_holds"
    ks = [int(row.split(",")[0]) for row in lines[1:]]
    assert ks == [4, 8, 16, 32, 64]
    errs = [float(row.split(",")[1]) for row in lines[1:]]
    assert errs == sorted(errs, reverse=True)


def test_sweep_comma_list(capsys):
    code, out, _ = run(capsys, "sweep", "p1", "--ks", "2,8", "--grid-n", "256")
    assert code == cli.EXIT_OK
    ks = [int(row.split(",")[0]) for row in out.strip().splitlines()[1:]]
    assert ks == [2, 8]


def test_constants_output(capsys):
    code, out, _ = run(capsys, "constants", "p1", "--grid-n", "512")
    assert code == cli.EXIT_OK
    values = {}
    for line in out.strip().splitlines():
        name, _, text = line.partition(" = ")
        values[name] = float(text)
    assert abs(values["lambda_hat"] - 1.0) <= 1e-9
    assert abs(values["sigma_hat"] - 1.0) <= 1e-9
    c1 = 1.0 + 1.0 / (1.0 - np.exp(-1.0))
    assert abs(values["c1"] - c1) <= 1e-6


def test_check_theorem3_passes(capsys):
    code, out, err = run(capsys, "check", "p1", "--theorem", "3",
                         "--ks", "4:64:x2", "--grid-n", "512")
    assert code == cli.EXIT_OK
    assert "theorem 3" in err and "-> ok" in err
    lines = out.strip().splitlines()
    assert lines[0] == "k,err_w1r,err_cr1,det,sigma_hat,bound_holds"
    assert all(row.split(",")[-1] == "1" for row in lines[1:])


def test_check_theorem2_passes(capsys):
    code, _, err = run(capsys, "check", "p1", "--theorem", "2",
                       "--ks", "4,16,64,128,256", "--grid-n", "512")
    assert code == cli.EXIT_OK
    assert "theorem 2" in err and "-> ok" in err


def zero_mass_problem(n=256):
    # One Dirichlet-type functional with density 6(t - 1/2): total mass zero,
    # so the one-part interval-mean discretization degenerates while the
    # problem itself stays uniquely solvable.
    grid = Grid(0.0, 1.0, n)
    coeffs = [PolyMatrix.constant([[1.0]], 0.0, 1.0)]
    f = PolyVector([PiecewisePoly.constant(1.0, 0.0, 1.0)])
    density = PiecewisePoly.single([-3.0, 6.0], 0.0, 1.0)
    phi = MatrixMeasure([[ScalarMeasure.from_density(density)]])
    op = GeneralBoundaryOperator(1, 1, [], phi)
    return BvpProblem(1, 1, coeffs, f, np.array([0.5 + 0.0j]), op, grid)


def test_check_failure_exits_one(capsys, tmp_path):
    path = tmp_path / "zero_mass.json"
    emit_problem(zero_mass_problem(), str(path))
    code, _, err = run(capsys, "check", str(path), "--theorem", "2",
                       "--ks", "1", "--grid-n", "256")
    assert code == cli.EXIT_CHECK_FAILED
    assert "FAILED" in err


def test_approximate_emits_parseable_problem(capsys):
    code, out, _ = run(capsys, "approximate", "p2", "--k", "2", "--grid-n", "256")
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    rebuilt = problem_from_dict(payload)
    assert payload["boundary"]["kind"] == "multipoint"
    assert isinstance(rebuilt.operator, MultipointBoundaryOperator)
    # interval means over two parts of the step coefficient 1 | 1+0.5j
    pieces = payload["coefficients"][0][0][0]["pieces"]
    assert pieces == [[[1.0, 0.0]], [[1.0, 0.5]]]


def test_out_directory(capsys, tmp_path):
    out_dir = tmp_path / "artifacts"
    code, out, err = run(capsys, "sweep", "p1", "--ks", "2,4",
                         "--grid-n", "256", "--out", str(out_dir))
    assert code == cli.EXIT_OK
    assert out == ""  # artifact went to the directory, not stdout
    written = out_dir / "sweep.csv"
    assert written.exists()
    assert str(written) in err
    assert written.read_text().splitlines()[0] == cli.REPORT_HEADER

    code, out, err = run(capsys, "solve", "p1", "--grid-n", "128",
                         "--out", str(out_dir))
    assert code == cli.EXIT_OK
    assert (out_dir / "solve.csv").exists()

    code, out, err = run(capsys, "approximate", "p1", "--k", "3",
                         "--grid-n", "128", "--out", str(out_dir))
    assert code == cli.EXIT_OK
    assert (out_dir / "approximate_k3.json").exists()


def test_multipoint_problem_from_file(capsys, tmp_path):
    # a well-posed multipoint problem round-trips through the file format
    grid = Grid(0.0, 1.0, 128)
    coeffs = [PolyMatrix.zero(1, 1, 0.0, 1.0)]
    f = PolyVector([PiecewisePoly.constant(1.0, 0.0, 1.0)])
    op = MultipointBoundaryOperator(
        1, 1, 0.0, 1.0, [BoundaryTerm(0.0, 0, np.array([[1.0 + 0.0j]]))]
    )
    problem = BvpProblem(1, 1, coeffs, f, np.array([2.0 + 0.0j]), op, grid)
    path = tmp_path / "mp.json"
    emit_problem(problem, str(path))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == cli.EXIT_OK
    header, last = last_csv_row(out)
    assert abs(float(last[1]) - 3.0) <= 1e-12  # y = 2 + t at t = 1


def test_scaled_boundary_weights_solve_exits_ok(capsys, tmp_path):
    # |char|^2 of these files overflows a float, and at 2**1023 an entry of
    # [TV] does; neither may reach the solvability gate.
    problem = build_multipoint_problem(corpus.build_problem("p3", 256), 4)
    outputs = []
    for name, p in (("plain.json", problem),
                    ("scaled660.json", scaled_boundary_problem(problem, 2.0**660)),
                    ("scaled1023.json", scaled_boundary_problem(problem, 2.0**1023))):
        emit_problem(p, str(tmp_path / name))
        code, out, _ = run(capsys, "solve", str(tmp_path / name))
        assert code == cli.EXIT_OK
        outputs.append(out)
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


@pytest.mark.parametrize("argv", [["sweep", "nn", "--ks", "4,8"],
                                  ["check", "nn", "--theorem", "2", "--ks", "4,8"],
                                  ["check", "nn", "--theorem", "3", "--ks", "4,8"],
                                  ["constants", "nn"]])
def test_refused_reference_exits_not_solvable(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_NOT_SOLVABLE
    assert out == ""
    assert "not uniquely solvable" in err


@pytest.mark.parametrize("theorem", ["2", "3"])
@pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "0", "-1"])
def test_check_refuses_eps_that_is_not_positive_and_finite(capsys, theorem, eps):
    code, out, err = run(capsys, "check", "p1", "--theorem", theorem, f"--eps={eps}",
                         "--ks", "4,8", "--grid-n", "256")
    assert code == cli.EXIT_IO
    assert out == ""
    assert "eps must be positive and finite" in err


def test_non_finite_node_in_problem_file_exits_with_parse_error(capsys, tmp_path):
    path = tmp_path / "nan_node.json"
    emit_problem(corpus.build_problem("nn", 64), str(path))
    payload = json.loads(path.read_text())
    payload["boundary"]["terms"][0]["node"] = float("nan")
    path.write_text(json.dumps(payload))  # json writes the NaN literal
    code, out, err = run(capsys, "solve", str(path))
    assert code == cli.EXIT_IO
    assert out == ""
    assert "$.boundary: node nan outside [0.0, 1.0]" in err


def test_huge_integer_in_problem_file_exits_with_parse_error(capsys, tmp_path):
    path = tmp_path / "huge_data.json"
    emit_problem(corpus.build_problem("p1", 64), str(path))
    payload = json.loads(path.read_text())
    payload["data"] = [[int("1" + "0" * 400), 0]]
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "solve", str(path))
    assert code == cli.EXIT_IO
    assert out == ""
    assert "mpbvp: error: $.data[0][0]: integer too large for a double" in err


def test_deeply_nested_problem_file_exits_with_parse_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    emit_problem(corpus.build_problem("p1", 64), str(path))
    payload = json.loads(path.read_text())
    payload["data"] = None
    depth = 100000
    path.write_text(json.dumps(payload).replace('"data": null',
                                                '"data": ' + "[" * depth + "]" * depth))
    code, out, err = run(capsys, "solve", str(path))
    assert code == cli.EXIT_IO
    assert out == ""
    assert "mpbvp: error: $: invalid JSON (nesting too deep)" in err


def test_grid_n_above_the_cap_exits_with_error(capsys, tmp_path):
    path = tmp_path / "huge_grid.json"
    emit_problem(corpus.build_problem("p1", 64), str(path))
    payload = json.loads(path.read_text())
    payload["grid_n"] = 10**400
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "solve", str(path))
    assert code == cli.EXIT_IO
    assert out == ""
    assert f"mpbvp: error: $.grid_n: expected an integer in [2, {MAX_GRID_N}]" in err
    # --grid-n overrides the grid of a file and of a corpus name; 0 is
    # refused, not read as "no override".
    path.write_text(json.dumps(dict(payload, grid_n=64)))
    for source in (str(path), "p1"):
        for grid_n in (str(10**400), str(MAX_GRID_N + 1), "0"):
            code, out, err = run(capsys, "solve", source, "--grid-n", grid_n)
            assert code == cli.EXIT_IO
            assert out == ""
            assert f"mpbvp: error: grid needs an integer n in [2, {MAX_GRID_N}]" in err


def _csv_per_value(problem, jet):
    """Reference renderer: one format(x, ".17g") call per value."""
    lines = [",".join(["t"] + [f"y{j}_{c}_{part}" for j in range(problem.r + 1)
                               for c in range(problem.m) for part in ("re", "im")])]
    for i, t in enumerate(problem.grid.nodes):
        row = [format(float(t), ".17g")]
        for j in range(problem.r + 1):
            for c in range(problem.m):
                z = jet.samples[j][i, c]
                row += [format(float(z.real), ".17g"), format(float(z.imag), ".17g")]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_solution_csv_matches_per_value_rendering():
    # p2 (r = 2) with a complex phase on its data; 2501 rows span three
    # writer blocks, the last one ragged.
    base = corpus.build_problem("p2", 2500)
    phase = np.exp(0.7j)
    problem = BvpProblem(base.r, base.m, base.coeffs, base.f * phase, base.q * phase,
                         base.operator, base.grid)
    jet = solve(problem).jet
    assert np.any(jet.samples[0].imag != 0)
    assert len(problem.grid.nodes) > 2 * cli.CSV_BLOCK_ROWS
    text = cli._solution_csv(problem, jet)
    assert text.encode() == _csv_per_value(problem, jet).encode()
