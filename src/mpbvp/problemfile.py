"""JSON problem files: a bit-exact, human-editable problem description.

A problem file records the order, system size, interval, grid resolution,
piecewise-polynomial coefficients and right-hand side, boundary data
vector, and the boundary operator: the general measure form when it holds
a measure, else the explicit multipoint form.  Complex numbers are stored
as ``[re, im]`` pairs and floats are emitted with ``repr`` precision, so
``parse(emit(p))`` reconstructs every number bit for bit for every problem ``BvpProblem``
accepts, whose atoms are held clamped into [a, b].  The writer renders each number
table (a polynomial's breakpoints and pieces, the data, alphas, atoms and
the multipoint terms) by one template ``%`` the flat list of its numbers;
its text is what ``json.dumps`` writes, and ``problem_to_dict`` is that
text decoded.  The parser decodes each number table as one array (a
measure's atoms into its (K, 2) table) and the multipoint terms as one
batch; numbers must be JSON numbers, not bools or strings, and integers
must fit a double.  A rejected file names the ``$``-path of its first bad
entry.

Files are written atomically by one writer: the bytes go into a temp file
in the target's directory, block by block as an iterable yields them, and
the temp file is renamed over the target only once every block is in.
``write_atomic`` is that writer for one str; the CLI streams the solution
CSV through it a block of rows at a time.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
from contextlib import contextmanager
from itertools import chain

import numpy as np

from .boundary import BoundaryOperator, GeneralBoundaryOperator
from .bvp import BvpProblem
from .funcspace import (MAX_GRID_N, Grid, PiecewisePoly, PolyMatrix, PolyVector, _clamp_points,
                        _spans)
from .stieltjes import MatrixMeasure, ScalarMeasure

__all__ = [
    "ProblemFormatError",
    "problem_to_dict",
    "problem_from_dict",
    "parse_problem",
    "emit_problem",
]

FORMAT_NAME = "mpbvp-problem"
FORMAT_VERSION = 1


class ProblemFormatError(ValueError):
    """A problem file failed validation; the message names the field."""


def _fail(path: str, message: str):
    raise ProblemFormatError(f"{path}: {message}")


@contextmanager
def _at(path: str):
    """Report a constructor's ValueError as a ProblemFormatError at ``path``."""
    try:
        yield
    except ProblemFormatError:
        raise
    except ValueError as exc:
        raise ProblemFormatError(f"{path}: {exc}") from exc


def _require(mapping, key, path: str):
    if not isinstance(mapping, dict):
        _fail(path, f"expected an object, got {type(mapping).__name__}")
    if key not in mapping:
        _fail(path, f"missing required key '{key}'")
    return mapping[key]


def _as_int(value, path: str, low: float = -float("inf"), high: float = float("inf")) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if not low <= value <= high:
        _fail(path, f"expected an integer in [{low}, {high}], got {value}")
    return value


def _as_list(value, path: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        _fail(path, f"expected {length} entries, got {len(value)}")
    return value


def _numbers(value, shape: tuple, path: str) -> np.ndarray:
    """A nested list of numbers as a float array of ``shape`` (``None``: any length).

    Leaves are ints (that fit a double) or floats, not bools.  The table is
    built, type-checked by its set of leaf types and converted at once; only
    on failure are its entries decoded one by one, to name the first bad one.
    """
    try:
        table = np.array(value, dtype=object)
        if table.size == 0:  # numpy sees no axes below an empty one
            table = table.reshape(table.shape + shape[table.ndim:])
        if (table.ndim == len(shape) and all(n in (None, k) for n, k in zip(shape, table.shape))
                and all(issubclass(t, (int, float)) and not issubclass(t, bool)
                        for t in set(map(type, table.flat)))):
            return table.astype(float)
    except (ValueError, TypeError, OverflowError):
        pass
    if not shape:
        _fail(path, "integer too large for a double" if type(value) is int
              else f"expected a number, got {value!r}")
    for i, entry in enumerate(_as_list(value, path, length=shape[0])):
        _numbers(entry, shape[1:], f"{path}[{i}]")


def _objects(value, shape: tuple, path: str, build) -> list:
    """A nested list of ``shape`` whose entries are built by ``build(entry, path)``."""
    if not shape:
        return build(value, path)
    return [_objects(entry, shape[1:], f"{path}[{i}]", build)
            for i, entry in enumerate(_as_list(value, path, length=shape[0]))]


def _complexes(value, shape: tuple, path: str) -> np.ndarray:
    """A nested list of [re, im] pairs as a complex array of ``shape``."""
    return _numbers(value, shape + (2,), path).view(complex)[..., 0]


# ---------------------------------------------------------------------------
# Text templates


def _template(leaf: str, shape) -> str:
    """A nested JSON list of ``shape`` with ``leaf`` at every entry.

    A table's text is its template ``%`` the flat list of its numbers:
    ``%r`` of a Python float is json's spelling of it (every number a
    problem holds is finite), so the text is what ``json.dumps`` writes.
    The numbers come from ``tolist()``, as a numpy scalar's repr differs.
    """
    for n in reversed(shape):
        leaf = "[" + ", ".join([leaf] * n) + "]"
    return leaf


def _complex_text(values) -> str:
    """A complex array as nested lists with an [re, im] pair per entry."""
    z = np.ascontiguousarray(values, dtype=complex)
    return _template("[%r, %r]", z.shape) % tuple(z.view(float).ravel().tolist())


# ---------------------------------------------------------------------------
# Piecewise polynomials


def _poly_text(p: PiecewisePoly) -> str:
    widths = p.widths.tolist()
    piece = {width: _template("[%r, %r]", (width,)) for width in set(widths)}
    template = ('{"breakpoints": ' + _template("%r", (len(widths) + 1,))
                + ', "pieces": [' + ", ".join([piece[width] for width in widths]) + "]}")
    coeffs = p.table[np.arange(p.table.shape[1]) < p.widths[:, None]]
    return template % tuple(p.breakpoints.tolist() + coeffs.view(float).tolist())


def _poly_from_dict(obj, path: str) -> PiecewisePoly:
    breakpoints = _numbers(_require(obj, "breakpoints", path), (None,), path + ".breakpoints")
    if breakpoints.size < 2:
        _fail(path + ".breakpoints", "need at least two breakpoints")
    pieces = _as_list(_require(obj, "pieces", path), path + ".pieces",
                      length=breakpoints.size - 1)
    if not all(isinstance(piece, list) for piece in pieces):
        _objects(pieces, (len(pieces),), path + ".pieces", _as_list)
    widths = np.array([len(piece) for piece in pieces], dtype=np.intp)
    with _at(path):
        table = np.zeros((len(pieces), PiecewisePoly._table_width(widths)), dtype=complex)
        try:  # all pieces' pairs as one flat table, placed in the rows by the width mask
            table[np.arange(table.shape[1]) < widths[:, None]] = _complexes(
                list(chain.from_iterable(pieces)), (int(widths.sum()),), path + ".pieces")
        except ProblemFormatError:  # piece by piece, to name the first bad pair
            for j, piece in enumerate(pieces):
                _complexes(piece, (len(piece),), f"{path}.pieces[{j}]")
            raise
        return PiecewisePoly._from_table(breakpoints, table, widths)


# ---------------------------------------------------------------------------
# Measures and boundary operators


def _measure_text(mu: ScalarMeasure) -> str:
    atoms = np.column_stack([mu.nodes, mu.masses.view(float).reshape(-1, 2)])
    density = "null" if mu.density is None else _poly_text(mu.density)
    return ('{"atoms": ' + _template("[%r, %r, %r]", (mu.nodes.size,))
            % tuple(atoms.ravel().tolist()) + ', "density": ' + density + "}")


def _measure_from_dict(obj, a: float, b: float, path: str) -> ScalarMeasure:
    atoms = _numbers(_require(obj, "atoms", path), (None, 3), path + ".atoms")
    t = atoms[:, 0]
    try:
        _clamp_points(t, a, b, "atom location")
    except ValueError:  # atom by atom, to name the first one outside
        for i in range(t.size):
            with _at(f"{path}.atoms[{i}]"):
                _clamp_points(t[i:i + 1], a, b, "atom location")
    density_raw = _require(obj, "density", path)
    density = None if density_raw is None else _poly_from_dict(density_raw, path + ".density")
    if density is not None and not _spans((a, b), [density]):
        _fail(path + ".density", f"density interval differs from [{a}, {b}]")
    with _at(path):
        return ScalarMeasure(a, b, atoms=np.column_stack(
            [t, np.ascontiguousarray(atoms[:, 1:]).view(complex)]), density=density)


def _boundary_text(op: BoundaryOperator) -> str:
    """The general form exactly when the operator holds a measure; its table
    must then be the r - 1 alphas at a, which that form holds."""
    count, rows, m = op.betas.shape
    if op.phi is not None:
        if not np.array_equal(op.orders, np.arange(op.r - 1)) or (op.nodes != op.a).any():
            _fail("boundary", f"a measure with point terms other than the {op.r - 1} alphas "
                              "at a fits neither form")
        measure = _template("%s", (rows, m)) % tuple(
            _measure_text(entry) for row in op.phi.entries for entry in row)
        return ('{"kind": "general", "alphas": ' + _complex_text(op.betas)
                + ', "measure": ' + measure + "}")
    term = '    {"node": %r, "order": %d, "weight": ' + _template("[%r, %r]", (rows, m)) + "}"
    weights = np.ascontiguousarray(op.betas).reshape(count, rows * m).view(float)
    table = np.column_stack([op.nodes, op.orders, weights])
    # one term per line; the order is written from its float by %d
    return ('{"kind": "multipoint", "terms": [\n' + ",\n".join([term] * count)
            % tuple(table.ravel().tolist()) + "\n  ]}")


def _boundary_from_dict(obj, r: int, m: int, a: float, b: float, path: str):
    kind = _require(obj, "kind", path)
    rows = r * m
    if kind == "general":
        alphas = _complexes(_require(obj, "alphas", path), (max(r - 1, 0), rows, m),
                            path + ".alphas")
        entries = _objects(_require(obj, "measure", path), (rows, m), path + ".measure",
                           lambda entry, where: _measure_from_dict(entry, a, b, where))
        with _at(path):
            return GeneralBoundaryOperator(r, m, alphas, MatrixMeasure(entries))
    if kind == "multipoint":
        terms = _as_list(_require(obj, "terms", path), path + ".terms")
        try:  # all terms as one batch: each field one table, all orders checked together
            nodes = _numbers([term["node"] for term in terms], (len(terms),), path + ".terms")
            orders = [term["order"] for term in terms]
            betas = _complexes([term["weight"] for term in terms], (len(terms), rows, m),
                               path + ".terms")
            batch = (set(map(type, orders)) <= {int}
                     and 0 <= min(orders, default=0) and max(orders, default=0) <= r - 1)
        except (TypeError, KeyError, ProblemFormatError):
            batch = False
        if not batch:  # term by term, field by field: it fails where the batch did
            for i, term in enumerate(terms):
                where = f"{path}.terms[{i}]"
                _numbers(_require(term, "node", where), (), where + ".node")
                _as_int(_require(term, "order", where), where + ".order", 0, r - 1)
                _complexes(_require(term, "weight", where), (rows, m), where + ".weight")
        with _at(path):
            return BoundaryOperator._from_table(r, m, a, b, nodes, orders, betas)
    _fail(path + ".kind", f"expected 'general' or 'multipoint', got {kind!r}")


# ---------------------------------------------------------------------------
# Whole problems


def problem_to_dict(problem: BvpProblem) -> dict:
    """The problem as the JSON-ready dict its file holds, with stable key order."""
    return json.loads(problem_text(problem))


def problem_from_dict(obj) -> BvpProblem:
    """Validate a problem dict and build the problem it describes."""
    name = _require(obj, "format", "$")
    if name != FORMAT_NAME:
        _fail("$.format", f"expected {FORMAT_NAME!r}, got {name!r}")
    version = _as_int(_require(obj, "version", "$"), "$.version")
    if version != FORMAT_VERSION:
        _fail("$.version", f"unsupported version {version}")
    r = _as_int(_require(obj, "order", "$"), "$.order", 1)
    m = _as_int(_require(obj, "size", "$"), "$.size", 1)
    a, b = _numbers(_require(obj, "interval", "$"), (2,), "$.interval").tolist()
    if not a < b:
        _fail("$.interval", f"need a < b, got [{a}, {b}]")
    grid_n = _as_int(obj.get("grid_n", 2048), "$.grid_n", 2, MAX_GRID_N)

    matrices = _objects(_require(obj, "coefficients", "$"), (r, m, m), "$.coefficients",
                        _poly_from_dict)
    coeffs = []
    for l, entries in enumerate(matrices):
        with _at(f"$.coefficients[{l}]"):
            coeffs.append(PolyMatrix(entries))

    with _at("$.rhs"):
        f = PolyVector(_objects(_require(obj, "rhs", "$"), (m,), "$.rhs", _poly_from_dict))

    q = _complexes(_require(obj, "data", "$"), (r * m,), "$.data")
    if not np.all(np.isfinite(q)):
        _fail("$.data", "boundary values must be finite")

    operator = _boundary_from_dict(_require(obj, "boundary", "$"), r, m, a, b, "$.boundary")

    # Every entry and component, not a container's first one.
    for l, A in enumerate(coeffs):
        if not _spans((a, b), [e for row in A.entries for e in row]):
            _fail(f"$.coefficients[{l}]", f"interval differs from [{a}, {b}]")
    if not _spans((a, b), f.components):
        _fail("$.rhs", f"interval differs from [{a}, {b}]")

    with _at("$"):
        return BvpProblem(r=r, m=m, coeffs=coeffs, f=f, q=q,
                          operator=operator, grid=Grid(a, b, grid_n))


def parse_problem(path: str) -> BvpProblem:
    """Read and validate a problem file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"$: invalid JSON ({exc})") from exc
        except RecursionError as exc:
            raise ProblemFormatError("$: invalid JSON (nesting too deep)") from exc
    return problem_from_dict(obj)


_UMASK = os.umask(0o022)  # read once, at import: reading it means setting it
os.umask(_UMASK)


def _write_blocks_atomic(path: str, blocks) -> None:
    """Write an iterable of bytes-like blocks to path atomically.

    Each block is written to a temp file in path's directory as it is
    yielded, and the temp file is renamed over path after the last one, so
    no more than one block need exist at a time.  The file keeps path's
    mode, or gets 0o666 less the umask, as from ``open``, not the temp
    file's 0o600.  If the iterable or a write raises, the error propagates,
    the temp file is removed and path is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for block in blocks:
                handle.write(block)
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            mode = 0o666 & ~_UMASK
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_atomic(path: str, text: str) -> None:
    """Write text to path atomically (temp file + rename), UTF-8 encoded:
    the one-block face of ``_write_blocks_atomic``."""
    _write_blocks_atomic(path, [text.encode("utf-8")])


def problem_text(problem: BvpProblem) -> str:
    """The problem file's text: one line per top-level key and per multipoint
    term, each line byte for byte what ``json.dumps`` writes for it."""
    r, m = problem.r, problem.m
    coefficients = _template("%s", (r, m, m)) % tuple(
        _poly_text(entry) for A in problem.coeffs for row in A.entries for entry in row)
    rhs = _template("%s", (m,)) % tuple(map(_poly_text, problem.f.components))
    fields = [
        ("format", json.dumps(FORMAT_NAME)),
        ("version", "%d" % FORMAT_VERSION),
        ("order", "%d" % r),
        ("size", "%d" % m),
        ("interval", "[%r, %r]" % (float(problem.a), float(problem.b))),
        ("grid_n", "%d" % problem.grid.n),
        ("coefficients", coefficients),
        ("rhs", rhs),
        ("data", _complex_text(problem.q)),
        ("boundary", _boundary_text(problem.operator)),
    ]
    return "{\n" + ",\n".join(f'  "{key}": {text}' for key, text in fields) + "\n}\n"


def emit_problem(problem: BvpProblem, path: str) -> None:
    """Serialize a problem to a JSON file (atomic, round-trip exact)."""
    write_atomic(path, problem_text(problem))
