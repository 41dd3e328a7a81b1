"""Command-line interface: exit codes, artifacts, determinism."""

import contextlib
import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mpbvp
from mpbvp import (
    build_multipoint_problem,
    cli,
    corpus,
    emit_problem,
    problem_from_dict,
    solve,
)
from mpbvp.boundary import BoundaryOperator, BoundaryTerm, GeneralBoundaryOperator
from mpbvp.bvp import BvpProblem
from mpbvp.funcspace import MAX_GRID_N, Grid, PiecewisePoly, PolyMatrix, PolyVector
from mpbvp.stieltjes import MatrixMeasure, ScalarMeasure
from oracles import growth_problem, scaled_boundary_problem, step_problem


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


@pytest.mark.parametrize("command", [["sweep", "p1"], ["check", "p1", "--theorem", "3"]])
def test_a_decreasing_ks_range_is_refused(capsys, command):
    code, out, err = run(capsys, *command, "--ks", "8:4:x2", "--grid-n", "64")
    assert (code, out) == (cli.EXIT_IO, "")
    assert err == "mpbvp: error: --ks range '8:4:x2' is empty or not increasing\n"

@pytest.mark.parametrize("command", [["sweep", "p1"], ["check", "p1", "--theorem", "3"]])
@pytest.mark.parametrize("text, form", [
    ("4:8:x", "start:stop:x<factor>"),
    ("4:8:x2.5", "start:stop:x<factor>"),
    ("4:8:2", "start:stop:x<factor>"),
    ("4:8", "start:stop:x<factor>"),
    ("a,b", "positive integers"),
    ("4.5", "positive integers"),
    ("1e3", "positive integers"),
    ("0,4", "positive integers"),
])
def test_malformed_ks_names_the_option(capsys, command, text, form):
    # int()'s "invalid literal for int() with base 10: 'x2.5'" named
    # neither the option nor the text it was given.
    code, out, err = run(capsys, *command, "--ks", text, "--grid-n", "64")
    assert code == cli.EXIT_IO
    assert out == ""
    assert err == f"mpbvp: error: --ks expects {form}, got {text!r}\n"


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


@pytest.mark.parametrize("argv, message", [
    (["sweep", "p2", "--ks", "4,4,8"], "duplicate k in the sweep"),
    (["check", "p2", "--theorem", "2", "--ks", "4,8,4"],
     "duplicate k in the right-hand side sequence"),
    (["check", "p2", "--theorem", "3", "--ks", "8,4,8"],
     "duplicate k in the right-hand side sequence"),
])
def test_repeated_k_in_a_comma_list_is_refused(capsys, argv, message):
    # The list used to collapse its repeats: sweep p2 --ks 4,4,8 wrote the
    # rows of k = 4 and 8 and exited 0, where sweep(p, [4, 4, 8]) refuses.
    code, out, err = run(capsys, *argv, "--grid-n", "256")
    assert code == cli.EXIT_IO
    assert out == ""
    assert err == f"mpbvp: error: {message}\n"


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
    assert rebuilt.operator.phi is None
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


def test_solution_csv_on_stdout_matches_its_file(capsys, tmp_path):
    # stdout takes the blocks decoded, on the real stdout and on a StringIO
    # alike, and --out writes their bytes to the file: all three hold the
    # same bytes.  2049 steps end in a ragged block.
    argv = ["solve", "p2", "--grid-n", "2049"]
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_OK
    text_only = io.StringIO()
    with contextlib.redirect_stdout(text_only):
        assert cli.main(argv) == cli.EXIT_OK
    assert run(capsys, *argv, "--out", str(tmp_path))[0] == cli.EXIT_OK
    written = (tmp_path / "solve.csv").read_bytes()
    assert written.count(b"\n") == 2051
    assert out.encode() == written
    assert text_only.getvalue().encode() == written


def test_closed_stdout_pipe_ends_the_output_not_the_command():
    # The 1.6 MB CSV of p3 at n = 16384 is far more than a pipe holds, so
    # the reader closes the pipe while blocks are still to be written.
    src = str(Path(mpbvp.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "mpbvp.cli", "solve", "p3", "--grid-n", "16384"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert head.startswith(b"t,y0_0_re,y0_0_im,")
    assert code == cli.EXIT_OK, err
    assert "Traceback" not in err
    assert [line.split(" = ")[0] for line in err.splitlines()] == ["det"], err


def test_artifacts_do_not_depend_on_the_blas_thread_count(capsys, tmp_path):
    # numpy reads the thread variables at import, so each command runs in a
    # process of its own.  OpenBLAS splits a dot of more than about 10^4
    # terms across its threads, which regroups the sum: the density parts
    # of p1 and p2 at n = 16384 contract 16385 nodes, and the k = 8192
    # approximation of p3 contracts its point terms on more than 10^4 nodes.
    assert run(capsys, "approximate", "p3", "--k", "8192", "--grid-n", "16384",
               "--out", str(tmp_path))[0] == cli.EXIT_OK
    src = str(Path(mpbvp.__file__).resolve().parents[1])
    commands = [["solve", "p1", "--grid-n", "16384"], ["solve", "p2", "--grid-n", "16384"],
                ["constants", "p1", "--grid-n", "16384"],
                ["check", "p2", "--theorem", "3", "--ks", "4:16:x2", "--grid-n", "16384"],
                ["solve", str(tmp_path / "approximate_k8192.json")]]
    for argv in commands:
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "MKL_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            done = subprocess.run([sys.executable, "-m", "mpbvp.cli", *argv], capture_output=True,
                                  env=env, timeout=120)
            assert done.returncode == cli.EXIT_OK, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1], argv


def test_commands_do_not_import_numpy_ma():
    # numpy imports numpy.ma on a first np.unique call, a cost every
    # command would pay at start; the perturbed right-hand sides of a check
    # are sums of piecewise polynomials, whose breakpoints merge without it.
    src = str(Path(mpbvp.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = ("import contextlib, io, sys; from mpbvp import cli\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               "    assert cli.main(['check', 'p1', '--theorem', '2']) == 0\n"
               "    assert cli.main(['check', 'p1', '--theorem', '3', '--ks', '4,8']) == 0\n"
               "print('numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", command], capture_output=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"False\n"


def test_commands_do_not_import_numpy_polynomial():
    # numpy.polynomial took about 6 ms of every command's start when the
    # Gauss rule was read from it at import; every command of p1-p3 now
    # runs on mpbvp's own Horner sums and convolutions.
    src = str(Path(mpbvp.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = ("import contextlib, io, sys; from mpbvp import cli\n"
               "for name in ('p1', 'p2', 'p3'):\n"
               "    for argv in (['solve'], ['check', '--theorem', '2'],\n"
               "                 ['check', '--theorem', '3'], ['constants'], ['sweep'],\n"
               "                 ['approximate', '--k', '8']):\n"
               "        with contextlib.redirect_stdout(io.StringIO()), \\\n"
               "                contextlib.redirect_stderr(io.StringIO()):\n"
               "            assert cli.main([argv[0], name, *argv[1:]]) == 0, (name, argv)\n"
               "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    done = subprocess.run([sys.executable, "-c", command], capture_output=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"[]\n"


def test_out_artifact_gets_the_mode_of_open_under_the_command_umask(tmp_path):
    # The umask is read once, at import, so the command runs in a process
    # of its own, started under umask 022: its new solve.csv reads 0644, not
    # the 0600 of the temp file it was written to.
    src = str(Path(mpbvp.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = ("import os, sys; os.umask(0o022); from mpbvp import cli; "
               "sys.exit(cli.main(sys.argv[1:]))")
    argv = [sys.executable, "-c", command, "solve", "p1", "--grid-n", "64", "--out", str(tmp_path)]
    done = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert stat.S_IMODE((tmp_path / "solve.csv").stat().st_mode) == 0o644


def test_solution_csv_is_streamed_to_its_file(tmp_path):
    # No copy of the whole CSV is ever built: at its traced peak, writing
    # the CSV of p3 at n = 16384, phased so that no column is all zeros,
    # holds less memory than the CSV's own size.
    base = corpus.build_problem("p3", 16384)
    phase = np.exp(0.7j)
    problem = BvpProblem(base.r, base.m, base.coeffs, base.f * phase, base.q * phase,
                         base.operator, base.grid)
    jet = solve(problem).jet
    tracemalloc.start()
    try:
        cli._emit_artifact(cli._solution_csv(problem, jet), str(tmp_path), "solve.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "solve.csv").stat().st_size
    assert size > 2_500_000
    assert peak < size, (peak, size)


def test_multipoint_problem_from_file(capsys, tmp_path):
    # a well-posed multipoint problem round-trips through the file format
    grid = Grid(0.0, 1.0, 128)
    coeffs = [PolyMatrix.zero(1, 1, 0.0, 1.0)]
    f = PolyVector([PiecewisePoly.constant(1.0, 0.0, 1.0)])
    op = BoundaryOperator(
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


def test_grid_n_regrids_the_problem_as_written(capsys, tmp_path):
    # A file keeps a step at 0.3 where it is, whatever grid it was written
    # for, so --grid-n 2048 solves the file written at n = 4 to the bytes
    # of the one written at 2048: both solves read the jump at 0.3.
    outputs = []
    for n in (4, 2048):
        path = tmp_path / f"step{n}.json"
        emit_problem(step_problem(n), str(path))
        code, out, _ = run(capsys, "solve", str(path), "--grid-n", "2048")
        assert code == cli.EXIT_OK
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ["solve", "p1", "--grid-n", "2"],
    ["solve", "p1", "--grid-n", "4"],
    ["solve", "p1", "--grid-n", "8"],
    ["solve", "p1", "--grid-n", "16"],
    ["check", "p1", "--theorem", "3", "--ks", "2,4", "--grid-n", "16"],
    ["constants", "p2", "--grid-n", "2"],
    ["approximate", "p1", "--k", "3", "--grid-n", "2"],
])
def test_corpus_on_a_coarse_grid_exits_ok(capsys, argv):
    # The closed forms are checked on the default grid, where quadrature
    # error does not swamp the tolerance, so a coarse grid is no failure.
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_OK
    assert out


def test_sawtooth_too_fine_for_a_coarse_grid_is_an_input_error(capsys):
    code, out, err = run(capsys, "check", "p1", "--theorem", "3", "--ks", "4,8", "--grid-n", "8")
    assert code == cli.EXIT_IO
    assert out == ""
    assert "mpbvp: error: sawtooth with 4 teeth needs a grid with n >= 16" in err


def test_corpus_on_a_grid_without_a_node_at_the_jump(capsys):
    # At n = 2049 no node lies on p2's jump at 0.5.  The closed-form check
    # reads the coefficient as given, so p2 loads, and the solve exits 0.
    problem = corpus.build_problem("p2", 2049)
    assert problem.coeffs[0].entries[0][0].breakpoints.tolist() == [0.0, 0.5, 1.0]
    code, out, _ = run(capsys, "solve", "p2", "--grid-n", "2049")
    assert code == cli.EXIT_OK
    assert float(last_csv_row(out)[1][0]) == 1.0


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


@pytest.mark.parametrize("argv", [
    ["approximate", "p1", "--k", str(MAX_GRID_N + 1)],
    ["approximate", "p1", "--k", "1000000000000000"],
    ["sweep", "p1", "--ks", "1000000000000000,2"],
    ["sweep", "p1", "--ks", f"4:{2 * MAX_GRID_N}:x2"],
    ["check", "p1", "--theorem", "3", "--ks", f"2,{MAX_GRID_N + 1}"],
])
def test_k_above_the_grid_cap_exits_before_any_build(capsys, monkeypatch, argv):
    # Each k is an O(k) table; one above MAX_GRID_N is refused before the
    # problem, let alone a member, is built.
    monkeypatch.setattr(cli, "_load_problem", lambda *args: pytest.fail("problem built"))
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_IO
    assert out == ""
    assert f"mpbvp: error: need an integer k in [1, {MAX_GRID_N}], got " in err


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
    assert b"".join(cli._solution_csv(problem, jet)) == _csv_per_value(problem, jet).encode()


@pytest.mark.parametrize("name", corpus.CORPUS_NAMES)
@pytest.mark.parametrize("phase", [1.0, np.exp(0.7j)], ids=["unphased", "phased"])
def test_solution_csv_at_fine_grid_matches_per_value_rendering(name, phase):
    # The solve-fine size: 16385 rows in 17 blocks.  Unphased, p1 and p3
    # have all-zero imaginary columns, which the renderer writes as "0".
    base = corpus.build_problem(name, 16384)
    problem = BvpProblem(base.r, base.m, base.coeffs, base.f * phase, base.q * phase,
                         base.operator, base.grid)
    jet = solve(problem).jet
    if phase == 1.0 and name != "p2":
        assert all(np.all(channel.imag == 0) for channel in jet.samples)
    assert b"".join(cli._solution_csv(problem, jet)) == _csv_per_value(problem, jet).encode()


def _rows_per_value(table):
    return "".join(",".join(format(float(x), ".17g") for x in row) + "\n" for row in table)


def _assert_rendered_exactly(values, columns=7):
    """cli._csv_rows of the values, `columns` to a row, is the per-value rendering."""
    values = np.asarray(values, dtype=float).ravel()
    table = np.concatenate([values, np.zeros(-len(values) % columns)]).reshape(-1, columns)
    text = b"".join(cli._csv_rows(table.T)).decode("ascii")
    expected = _rows_per_value(table)
    if text != expected:
        got = text.replace("\n", ",").split(",")
        want = expected.replace("\n", ",").split(",")
        bad = [(g, w) for g, w in zip(got, want) if g != w]
        pytest.fail(f"{len(bad)} fields differ, e.g. (got, want) {bad[:3]}")


def test_csv_rows_render_random_bit_patterns_exactly():
    bits = np.random.default_rng(20200917).integers(0, 2 ** 64, 200_000, dtype=np.uint64)
    assert np.unique(bits >> np.uint64(52) & np.uint64(0x7FF)).size == 2048  # every exponent
    values = bits.view(np.float64)
    assert np.isnan(values).any() and (np.abs(values) < np.finfo(float).tiny).any()
    _assert_rendered_exactly(np.concatenate([values, [np.inf, -np.inf]]))


def test_csv_rows_render_extreme_values_exactly():
    extremes = np.array([0.0, 5e-324, np.finfo(float).tiny, np.finfo(float).max])
    _assert_rendered_exactly(np.concatenate([extremes, -extremes]))


def test_csv_rows_render_powers_of_ten_and_two_exactly():
    tens = np.array([float(f"1e{e}") for e in range(-300, 301)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    _assert_rendered_exactly(np.concatenate([
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf), twos, -twos]))


def test_csv_rows_render_exact_ties_exactly():
    # M/4 for odd M >= 2^52 ends in .25 or .75 at 17 digits plus one: a
    # decimal tie, which format() rounds to even.
    odd = 2 ** 52 + 1 + 2 * np.arange(100_000, dtype=np.int64)
    ties = odd.astype(float) / 4
    assert np.all(odd.astype(float) == odd)
    _assert_rendered_exactly(ties)


def test_csv_rows_render_notation_switch_points_exactly():
    # %g writes fixed notation for exponents -4 ... 16 and exponent notation
    # outside.
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])
    near = np.concatenate([switches, np.nextafter(switches, 0.0), np.nextafter(switches, np.inf)])
    _assert_rendered_exactly(np.concatenate([near, -near]))


@pytest.mark.parametrize("shape", [(1, 9), (3000, 1), (cli.CSV_BLOCK_ROWS - 1, 3),
                                   (cli.CSV_BLOCK_ROWS, 3), (cli.CSV_BLOCK_ROWS + 1, 3)])
def test_csv_rows_render_every_table_shape(shape):
    rng = np.random.default_rng(shape[0])
    table = rng.standard_normal(shape) * np.exp(rng.uniform(-40, 40, shape))
    table.ravel()[::5] = 0.0
    text = b"".join(cli._csv_rows(table.T)).decode("ascii")
    assert text.count("\n") == shape[0]
    assert text == _rows_per_value(table)
