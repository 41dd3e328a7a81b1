"""The benchmark's tracer still attaches to the package.

``perfbench/tracer.py`` wraps the names in its ``TARGETS`` from outside the
program; a target that is renamed or moved makes ``Tracer.attached`` fail.
This module loads the tracer as it is and attaches it around one CLI solve,
so that such a change fails here too, not only in the traced benchmark runs,
around one theorem 3 check, whose certificate reads |V^-1|_C from the
traced ``linode.inverse_fundamental``, and around one ``bvp.residuals`` call
on a multipoint problem, whose operator counter reads ``terms``.
"""

import importlib.util
from pathlib import Path

import mpbvp.cli as cli
from mpbvp import bvp, corpus
from mpbvp.approx import build_multipoint_problem

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


def test_tracer_sees_the_certificate_inverse_matrizant():
    tracer = _load_tracer().Tracer()
    with tracer.attached():
        assert cli.main(["check", "p1", "--theorem", "3", "--ks", "4,8", "--grid-n", "64"]) == 0
    assert tracer.totals()["linode.inverse_fundamental.calls"] == 1


def test_tracer_counts_the_point_terms_of_an_applied_operator():
    # The tracer's ``apply_operator`` counter reads ``len(op.terms)``, which
    # no CLI path of the other tests reaches through a multipoint operator.
    member = build_multipoint_problem(corpus.build_problem("p2", 64), 8)
    jet = corpus.exact_jet("p2", 64)
    tracer = _load_tracer().Tracer()
    with tracer.attached():
        bvp.residuals(member, jet)
    totals = tracer.totals()
    assert totals["boundary.apply_operator.calls"] == 1
    # the operator's table, then the same terms once more as the lifted one's
    assert totals["boundary.point_terms_applied"] == 2 * len(member.operator.terms) == 18
