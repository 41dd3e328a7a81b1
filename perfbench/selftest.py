"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Run from the root of an mpbvp checkout.  The file name keeps these tests
out of the repository's default test collection: the per-operation call
counts below describe the program as it is when the benchmark was defined,
and a later change that removes a duplicate propagator is meant to move
them without touching the program's own tests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import inputs  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import K, KS, WORKLOADS  # noqa: E402

# Per-operation calls derived from the code: check --theorem 3 runs V and Z
# in remark3_constants, one reference solve (V, R) and, for each of 7 k, V_k
# in _solve_row plus a solve (V_k, R_k).
EXPECTED_CALLS = {
    "certify-coarse": (16, 8, 1, 1, 1),
    "solve-fine": (1, 1, 0, 1, 1),
    "approx-roundtrip": (1, 1, 0, 2, 2),
}
COUNTED = ("linode.fundamental_matrix", "linode.forced_trajectory",
           "linode.inverse_fundamental", "problemfile.parse_problem",
           "problemfile.write_atomic")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def test_same_seed_gives_identical_files(tmp_path):
    for workload in WORKLOADS.values():
        first = inputs.write_inputs(workload.n, 7, tmp_path / "a")
        again = inputs.write_inputs(workload.n, 7, tmp_path / "b")
        for name in inputs.PROBLEMS:
            assert first[name].read_bytes() == again[name].read_bytes()


def test_other_seeds_change_files_not_work(tmp_path):
    plans = {seed: inputs.seeded_plan(seed) for seed in range(1, 9)}
    assert len({phase for phase, _ in plans.values()}) == len(plans)
    assert all(abs(abs(phase) - 1.0) < 1e-15 for phase, _ in plans.values())
    assert all(sorted(order) == sorted(inputs.PROBLEMS) for _, order in plans.values())
    files = {seed: inputs.write_inputs(2048, seed, tmp_path / str(seed)) for seed in (1, 2)}
    for name in inputs.PROBLEMS:
        one, two = (json.loads(files[s][name].read_text()) for s in (1, 2))
        assert one != two
        for key in ("order", "size", "interval", "grid_n", "coefficients", "boundary"):
            assert one[key] == two[key]
    # n, k and ks are fixed by the workload, not by the seed
    argvs = WORKLOADS["approx-roundtrip"].argvs("p.json", "D")
    assert argvs[0][argvs[0].index("--k") + 1] == str(K)
    argvs = WORKLOADS["certify-coarse"].argvs("p.json", "D")
    assert argvs[0][argvs[0].index("--ks") + 1] == KS


def _import_sites():
    """Every (owner, attribute) -> object currently bound for the targets."""
    import mpbvp.cli  # noqa: F401  (loads every module the tracer patches)

    sites = {}
    for module_name, path, _, _ in TARGETS:
        module = sys.modules[f"mpbvp.{module_name}"]
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            sites[(owner, attr)] = owner.__dict__[attr]
            continue
        original = getattr(module, path)
        for name, mod in list(sys.modules.items()):
            if name == "mpbvp" or name.startswith("mpbvp."):
                for attr, value in vars(mod).items():
                    if value is original:
                        sites[(mod, attr)] = value
    return sites


def test_tracer_patches_every_import_site_and_restores(tmp_path):
    import mpbvp.cli

    before = _import_sites()
    assert (sys.modules["mpbvp.bvp"], "fundamental_matrix") in before
    assert (sys.modules["mpbvp.approx"], "inverse_fundamental") in before
    assert (sys.modules["mpbvp.cli"], "parse_problem") in before
    assert (sys.modules["mpbvp.cli"], "write_atomic") in before
    tracer = Tracer()
    with tracer.attached():
        for (owner, attr), original in before.items():
            assert getattr(owner, attr) is not original, (owner, attr)
        assert mpbvp.cli.main(["solve", "p3", "--grid-n", "64", "--out", str(tmp_path)]) == 0
    assert _import_sites() == before
    for (owner, attr), original in before.items():
        assert getattr(owner, attr) is original
    totals = tracer.totals()
    assert totals["linode.fundamental_matrix.calls"] == 1
    assert totals["problemfile.write_atomic.calls"] == 1
    assert totals["linode.rk4_steps"] == 2 * 64


@pytest.mark.parametrize("workload", sorted(EXPECTED_CALLS))
def test_traced_run_counts_calls_per_op(workload):
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    calls = tuple(result["metrics"][f"{name}.calls"]["value"] for name in COUNTED)
    assert calls == EXPECTED_CALLS[workload]
    assert result["metrics"]["bvp.not_solvable"]["value"] == 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = run_bench(tmp_path, "--workload", "solve-fine", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_comparator_verdicts():
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]
    same = [b * 1.005 for b in reversed(base)]
    faster = [b * 0.8 for b in base]
    slower = [b * 1.3 for b in base]
    noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 0.5, 1.5]
    assert compare.verdict(base, same, "lower", 0.1, False)[0] == "same"
    assert compare.verdict(base, faster, "lower", 0.1, False)[0] == "win"
    assert compare.verdict(base, faster, "lower", 0.1, True)[0] == "same"
    assert compare.verdict(base, slower, "lower", 0.1, False)[0] == "regression"
    assert compare.verdict(base, slower, "higher", 0.1, False)[0] == "win"
    assert compare.verdict(base, noisy, "lower", 0.1, False)[0] == "unresolved"
