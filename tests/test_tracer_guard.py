"""The benchmark's tracer still attaches to the package.

``perfbench/tracer.py`` wraps the names in its ``TARGETS`` from outside the
program; a target that is renamed or moved makes ``Tracer.attached`` fail.
This module loads the tracer as it is and attaches it around one CLI solve,
so that such a change fails here too, not only in the traced benchmark runs.
"""

import importlib.util
from pathlib import Path

import mpbvp.cli as cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_attaches_counts_a_solve_and_restores_every_target():
    tracer = _load_tracer().Tracer()
    # The tracer's own list of (owner, attribute, original, wrapper) sites.
    patches = tracer._patches()
    assert patches
    with tracer.attached():
        assert cli.main(["solve", "p1", "--grid-n", "64"]) == 0
    totals = tracer.totals()
    assert totals["bvp.solve.calls"] == 1
    assert totals["cli.main.calls"] == 1
    for owner, attr, original, _ in patches:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} was not restored"
