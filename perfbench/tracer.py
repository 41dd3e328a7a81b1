"""Tracer that wraps mpbvp's public functions from outside the program.

While attached, every target below is replaced by a wrapper that adds the
call's count, inclusive time and self time (inclusive time less that of the
traced calls it made) to running sums.  Module-level functions are replaced
at every import site: ``bvp``, ``approx`` and ``cli`` bind
``fundamental_matrix``, ``parse_problem`` and friends with
``from ... import``, so patching only the defining module would miss those
calls.  Methods are replaced on their class.  Detaching restores every
original object.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter


def _grid_n(position):
    """Counter hook: the grid size n of the argument at ``position``."""
    def hook(args, kwargs):
        grid = kwargs["grid"] if "grid" in kwargs else args[position]
        return grid.n
    return hook


def _operator_point_terms(args, kwargs):
    op = args[0]
    return len(op.terms) if hasattr(op, "terms") else len(op.alphas)


def _text_bytes(args, kwargs):
    text = kwargs["text"] if "text" in kwargs else args[1]
    return len(text.encode("utf-8"))


# (module, attribute path, counter name, counter hook).  The hook maps the
# call's arguments to the amount added to the counter.
TARGETS = (
    ("linode", "fundamental_matrix", "linode.rk4_steps", _grid_n(1)),
    ("linode", "forced_trajectory", "linode.rk4_steps", _grid_n(2)),
    ("linode", "inverse_fundamental", "linode.rk4_steps", _grid_n(1)),
    ("bvp", "solve", None, None),
    ("bvp", "companion_reduce", None, None),
    ("bvp", "residuals", None, None),
    ("boundary", "LiftedOperator.apply_trajectory", None, None),
    ("boundary", "LiftedOperator.apply_values", "boundary.point_terms_applied",
     lambda args, kwargs: len(args[0].point_terms)),
    ("boundary", "multipointify", None, None),
    ("boundary", "apply_operator", "boundary.point_terms_applied", _operator_point_terms),
    ("boundary", "norm_lower_bound", None, None),
    ("boundary", "norm_upper_bound", None, None),
    ("stieltjes", "MatrixMeasure.apply", None, None),
    ("stieltjes", "MatrixMeasure.discretize", None, None),
    ("approx", "theorem3_check", None, None),
    ("approx", "remark3_constants", None, None),
    ("approx", "build_multipoint_problem", None, None),
    ("approx", "approximate_coefficients", None, None),
    ("approx", "sawtooth_rhs", None, None),
    ("funcspace", "PolyMatrix.eval_at", None, None),
    ("funcspace", "PolyVector.eval_at", None, None),
    ("funcspace", "SampledJet.consistency_defect", None, None),
    ("funcspace", "norm_w1r", None, None),
    ("funcspace", "norm_cl", None, None),
    ("problemfile", "parse_problem", None, None),
    ("problemfile", "problem_to_dict", None, None),
    ("problemfile", "write_atomic", "problemfile.write_atomic.bytes", _text_bytes),
    ("cli", "main", None, None),
    ("corpus", "build_problem", None, None),
)

#: Calls of these functions that raise this exception count as refusals.
NOT_SOLVABLE_SOURCES = ("bvp.solve", "approx.remark3_constants")
NOT_SOLVABLE_ERROR = "NotUniquelySolvableError"


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "mpbvp" or name.startswith("mpbvp."))]


class Tracer:
    """Sums calls, inclusive and self time per target while attached."""

    def __init__(self):
        self.sums: dict[str, float] = {}
        # Child time of each open call, innermost last.
        self._stack: list[float] = []

    def _add(self, key: str, amount: float) -> None:
        self.sums[key] = self.sums.get(key, 0) + amount

    def _wrap(self, name, fn, counter, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if name in NOT_SOLVABLE_SOURCES and type(exc).__name__ == NOT_SOLVABLE_ERROR:
                    self._add("bvp.not_solvable", 1)
                raise
            finally:
                duration = perf_counter() - start
                child_time = self._stack.pop()
                if self._stack:
                    self._stack[-1] += duration
                self._add(f"{name}.calls", 1)
                self._add(f"{name}.s", duration)
                self._add(f"{name}.self_s", duration - child_time)
                if counter is not None:
                    self._add(counter, hook(args, kwargs))
        return wrapper

    def _patches(self):
        """(owner, attribute, original, wrapper) for every site of every target."""
        modules = _package_modules()
        patches = []
        for module_name, path, counter, hook in TARGETS:
            module = sys.modules[f"mpbvp.{module_name}"]
            name = f"{module_name}.{path}"
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                patches.append((owner, attr, original,
                                self._wrap(name, original, counter, hook)))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, counter, hook)
            for site in modules:
                for attr, value in vars(site).items():
                    if value is original:
                        patches.append((site, attr, original, wrapper))
        return patches

    @contextmanager
    def attached(self):
        """Wrap every target for the duration, then restore the originals."""
        patches = self._patches()
        try:
            for owner, attr, _, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, float]:
        """``<name>.calls``, ``<name>.s`` (inclusive) and ``<name>.self_s``
        per target, plus the counters and ``bvp.not_solvable``, summed over
        every attached period; zero for what never ran."""
        out: dict[str, float] = {"bvp.not_solvable": 0}
        for module_name, path, counter, _ in TARGETS:
            name = f"{module_name}.{path}"
            out.update({f"{name}.calls": 0, f"{name}.s": 0.0, f"{name}.self_s": 0.0})
            if counter is not None:
                out[counter] = 0
        out.update(self.sums)
        return out
