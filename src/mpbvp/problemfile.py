"""JSON problem files: a bit-exact, human-editable problem description.

A problem file records the order, system size, interval, grid resolution,
piecewise-polynomial coefficients and right-hand side, boundary data
vector, and the boundary operator (general measure form or explicit
multipoint form).  Complex numbers are stored as ``[re, im]`` pairs and
floats are emitted with ``repr`` precision, so ``parse(emit(p))``
reconstructs every number bit for bit.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .boundary import GeneralBoundaryOperator, MultipointBoundaryOperator
from .bvp import BvpProblem
from .funcspace import Grid, PiecewisePoly, PolyMatrix, PolyVector
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


def _require(mapping, key, path: str):
    if not isinstance(mapping, dict):
        _fail(path, f"expected an object, got {type(mapping).__name__}")
    if key not in mapping:
        _fail(path, f"missing required key '{key}'")
    return mapping[key]


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _as_complex(value, path: str) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        _fail(path, f"expected a [re, im] pair, got {value!r}")
    return complex(_as_float(value[0], path + "[0]"), _as_float(value[1], path + "[1]"))


def _as_list(value, path: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        _fail(path, f"expected {length} entries, got {len(value)}")
    return value


def _pairs(values) -> list:
    """A complex array as nested lists with an [re, im] pair per entry."""
    z = np.asarray(values, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1).tolist()


# ---------------------------------------------------------------------------
# Piecewise polynomials


def _poly_to_dict(p: PiecewisePoly) -> dict:
    pieces = [row[:width] for row, width in zip(_pairs(p.table), p.widths.tolist())]
    return {"breakpoints": p.breakpoints.tolist(), "pieces": pieces}


def _poly_from_dict(obj, path: str) -> PiecewisePoly:
    breakpoints = [_as_float(t, f"{path}.breakpoints[{i}]")
                   for i, t in enumerate(_as_list(_require(obj, "breakpoints", path),
                                                  path + ".breakpoints"))]
    if len(breakpoints) < 2:
        _fail(path + ".breakpoints", "need at least two breakpoints")
    pieces_raw = _as_list(_require(obj, "pieces", path), path + ".pieces",
                          length=len(breakpoints) - 1)
    pieces = []
    for i, piece in enumerate(pieces_raw):
        piece = _as_list(piece, f"{path}.pieces[{i}]")
        if not piece:
            _fail(f"{path}.pieces[{i}]", "a piece needs at least one coefficient")
        pieces.append([_as_complex(c, f"{path}.pieces[{i}][{j}]")
                       for j, c in enumerate(piece)])
    try:
        return PiecewisePoly(breakpoints, pieces)
    except ValueError as exc:
        _fail(path, str(exc))


# ---------------------------------------------------------------------------
# Measures and boundary operators


def _measure_to_dict(mu: ScalarMeasure) -> dict:
    out = {"atoms": [[float(t), float(w.real), float(w.imag)] for t, w in mu.atoms]}
    out["density"] = None if mu.density is None else _poly_to_dict(mu.density)
    return out


def _measure_from_dict(obj, a: float, b: float, path: str) -> ScalarMeasure:
    atoms_raw = _as_list(_require(obj, "atoms", path), path + ".atoms")
    atoms = []
    for i, atom in enumerate(atoms_raw):
        atom = _as_list(atom, f"{path}.atoms[{i}]", length=3)
        t = _as_float(atom[0], f"{path}.atoms[{i}][0]")
        if not a <= t <= b:
            _fail(f"{path}.atoms[{i}]", f"atom location {t} outside [{a}, {b}]")
        atoms.append((t, complex(_as_float(atom[1], f"{path}.atoms[{i}][1]"),
                                 _as_float(atom[2], f"{path}.atoms[{i}][2]"))))
    density_raw = _require(obj, "density", path)
    density = None if density_raw is None else _poly_from_dict(density_raw, path + ".density")
    if density is not None and (density.a != a or density.b != b):
        _fail(path + ".density", f"density interval differs from [{a}, {b}]")
    try:
        return ScalarMeasure(a, b, atoms=atoms, density=density)
    except ValueError as exc:
        _fail(path, str(exc))


def _matrix_of(pairs, rows: int, cols: int, path: str) -> np.ndarray:
    rows_raw = _as_list(pairs, path, length=rows)
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(rows_raw):
        row = _as_list(row, f"{path}[{i}]", length=cols)
        for j, entry in enumerate(row):
            out[i, j] = _as_complex(entry, f"{path}[{i}][{j}]")
    return out


def _boundary_to_dict(op) -> dict:
    if isinstance(op, GeneralBoundaryOperator):
        return {
            "kind": "general",
            "alphas": [_pairs(alpha) for alpha in op.alphas],
            "measure": [[_measure_to_dict(entry) for entry in row]
                        for row in op.phi.entries],
        }
    if isinstance(op, MultipointBoundaryOperator):
        return {
            "kind": "multipoint",
            "terms": [{"node": node, "order": order, "weight": weight} for node, order, weight
                      in zip(op.nodes.tolist(), op.orders.tolist(), _pairs(op.betas))],
        }
    raise ProblemFormatError(f"boundary: unsupported operator type {type(op).__name__}")


def _boundary_from_dict(obj, r: int, m: int, a: float, b: float, path: str):
    kind = _require(obj, "kind", path)
    rows = r * m
    if kind == "general":
        alphas_raw = _as_list(_require(obj, "alphas", path), path + ".alphas",
                              length=max(r - 1, 0))
        alphas = [_matrix_of(alpha, rows, m, f"{path}.alphas[{l}]")
                  for l, alpha in enumerate(alphas_raw)]
        measure_raw = _as_list(_require(obj, "measure", path), path + ".measure",
                               length=rows)
        entries = []
        for i, row in enumerate(measure_raw):
            row = _as_list(row, f"{path}.measure[{i}]", length=m)
            entries.append([_measure_from_dict(entry, a, b, f"{path}.measure[{i}][{j}]")
                            for j, entry in enumerate(row)])
        try:
            return GeneralBoundaryOperator(r, m, alphas, MatrixMeasure(entries))
        except ValueError as exc:
            _fail(path, str(exc))
    if kind == "multipoint":
        terms_raw = _as_list(_require(obj, "terms", path), path + ".terms")
        nodes, orders = [], []
        betas = np.empty((len(terms_raw), rows, m), dtype=complex)
        for i, term in enumerate(terms_raw):
            where = f"{path}.terms[{i}]"
            nodes.append(_as_float(_require(term, "node", where), where + ".node"))
            orders.append(_as_int(_require(term, "order", where), where + ".order"))
            betas[i] = _matrix_of(_require(term, "weight", where), rows, m, where + ".weight")
        try:
            return MultipointBoundaryOperator._from_table(r, m, a, b, nodes, orders, betas)
        except ValueError as exc:
            _fail(path, str(exc))
    _fail(path + ".kind", f"expected 'general' or 'multipoint', got {kind!r}")


# ---------------------------------------------------------------------------
# Whole problems


def problem_to_dict(problem: BvpProblem) -> dict:
    """Serialize a problem to a JSON-ready dict with stable key order."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "order": problem.r,
        "size": problem.m,
        "interval": [float(problem.a), float(problem.b)],
        "grid_n": problem.grid.n,
        "coefficients": [
            [[_poly_to_dict(entry) for entry in row] for row in A.entries]
            for A in problem.coeffs
        ],
        "rhs": [_poly_to_dict(c) for c in problem.f.components],
        "data": _pairs(problem.q),
        "boundary": _boundary_to_dict(problem.operator),
    }


def problem_from_dict(obj) -> BvpProblem:
    """Validate a problem dict and build the problem it describes."""
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"$: expected an object, got {type(obj).__name__}")
    name = _require(obj, "format", "$")
    if name != FORMAT_NAME:
        _fail("$.format", f"expected {FORMAT_NAME!r}, got {name!r}")
    version = _as_int(_require(obj, "version", "$"), "$.version")
    if version != FORMAT_VERSION:
        _fail("$.version", f"unsupported version {version}")
    r = _as_int(_require(obj, "order", "$"), "$.order")
    m = _as_int(_require(obj, "size", "$"), "$.size")
    if r < 1:
        _fail("$.order", f"order must be >= 1, got {r}")
    if m < 1:
        _fail("$.size", f"size must be >= 1, got {m}")
    interval = _as_list(_require(obj, "interval", "$"), "$.interval", length=2)
    a = _as_float(interval[0], "$.interval[0]")
    b = _as_float(interval[1], "$.interval[1]")
    if not a < b:
        _fail("$.interval", f"need a < b, got [{a}, {b}]")
    grid_n = _as_int(obj.get("grid_n", 2048), "$.grid_n")
    if grid_n < 2:
        _fail("$.grid_n", f"grid_n must be >= 2, got {grid_n}")

    coeff_raw = _as_list(_require(obj, "coefficients", "$"), "$.coefficients", length=r)
    coeffs = []
    for l, matrix in enumerate(coeff_raw):
        matrix = _as_list(matrix, f"$.coefficients[{l}]", length=m)
        entries = []
        for i, row in enumerate(matrix):
            row = _as_list(row, f"$.coefficients[{l}][{i}]", length=m)
            entries.append([_poly_from_dict(entry, f"$.coefficients[{l}][{i}][{j}]")
                            for j, entry in enumerate(row)])
        try:
            coeffs.append(PolyMatrix(entries))
        except ValueError as exc:
            _fail(f"$.coefficients[{l}]", str(exc))

    rhs_raw = _as_list(_require(obj, "rhs", "$"), "$.rhs", length=m)
    try:
        f = PolyVector([_poly_from_dict(c, f"$.rhs[{j}]") for j, c in enumerate(rhs_raw)])
    except ValueError as exc:
        _fail("$.rhs", str(exc))

    data_raw = _as_list(_require(obj, "data", "$"), "$.data", length=r * m)
    q = np.array([_as_complex(z, f"$.data[{i}]") for i, z in enumerate(data_raw)],
                 dtype=complex)

    operator = _boundary_from_dict(_require(obj, "boundary", "$"), r, m, a, b, "$.boundary")

    for l, A in enumerate(coeffs):
        if A.a != a or A.b != b:
            _fail(f"$.coefficients[{l}]", f"interval differs from [{a}, {b}]")
    if f.a != a or f.b != b:
        _fail("$.rhs", f"interval differs from [{a}, {b}]")

    try:
        return BvpProblem(r=r, m=m, coeffs=coeffs, f=f, q=q,
                          operator=operator, grid=Grid(a, b, grid_n))
    except ValueError as exc:
        raise ProblemFormatError(f"$: {exc}") from exc


def parse_problem(path: str) -> BvpProblem:
    """Read and validate a problem file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"$: invalid JSON ({exc})") from exc
    return problem_from_dict(obj)


def write_atomic(path: str, text: str) -> None:
    """Write text to path atomically (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def problem_text(problem: BvpProblem) -> str:
    """The problem file's text: one line per top-level key and per multipoint term.

    Each line is encoded by ``json.dumps`` without ``indent``, which keeps
    json's C encoder (``indent`` forces the pure-Python one).
    """
    obj = problem_to_dict(problem)
    terms = obj["boundary"].pop("terms", None)
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in obj.items()]
    if terms is not None:  # "boundary" is the last key, "terms" its last field
        lines[-1] = (lines[-1][:-1] + ', "terms": [\n'
                     + ",\n".join("    " + json.dumps(term) for term in terms) + "\n  ]}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def emit_problem(problem: BvpProblem, path: str) -> None:
    """Serialize a problem to a JSON file (atomic, round-trip exact)."""
    write_atomic(path, problem_text(problem))
