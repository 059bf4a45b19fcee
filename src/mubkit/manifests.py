"""Stable JSON serialization for every object the CLI moves around.

Complex values are two-element arrays [re, im]; matrices nest row-major.
Serialization is deterministic: explicit key order, floats printed with 17
significant digits, newline-terminated output, so repeated runs produce
byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from . import cplx
from .characters import ControlledHadamard, Hadamard
from .construct import PartitionedUeb
from .errors import MubkitError
from .gf import FiniteField, new_field
from .mub import MubFamily


class ManifestError(MubkitError):
    """Manifest file is malformed or has an unexpected shape."""


# -- canonical writer --------------------------------------------------------

def _dump(value, out: list) -> None:
    if isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(",")
            out.append(json.dumps(k))
            out.append(":")
            _dump(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(",")
            _dump(v, out)
        out.append("]")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(format(float(value), ".17g"))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif value is None:
        out.append("null")
    else:
        raise ManifestError(f"cannot serialize {type(value).__name__}")


def dumps(obj: dict) -> str:
    out: list = []
    _dump(obj, out)
    out.append("\n")
    return "".join(out)


def write_manifest(obj: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def load_manifest(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ManifestError(f"manifest {path} has no 'kind' field")
    return obj


# -- matrix <-> json ---------------------------------------------------------

def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(rows) -> np.ndarray:
    try:
        arr = np.asarray(
            [[complex(z[0], z[1]) for z in row] for row in rows], dtype=np.complex128
        )
    except (TypeError, IndexError, ValueError) as exc:
        raise ManifestError(f"malformed matrix payload: {exc}") from exc
    if arr.ndim != 2:
        raise ManifestError("matrix payload is not two-dimensional")
    return arr


# -- builders ----------------------------------------------------------------

def field_manifest(f: FiniteField) -> dict:
    return {"kind": "field", "dimension": f.d, "p": f.p, "n": f.n, "poly": list(f.modulus)}


def hadamard_manifest(h: Hadamard) -> dict:
    return {"kind": "hadamard", "dimension": h.d, "matrix": matrix_to_json(h.matrix)}


def controlled_hadamard_manifest(ch: ControlledHadamard) -> dict:
    return {
        "kind": "controlled_hadamard",
        "control_dim": ch.control_dim,
        "dimension": ch.d,
        "members": [matrix_to_json(m.matrix) for m in ch.members],
    }


def mub_manifest(family: MubFamily) -> dict:
    return {
        "kind": "mub",
        "dimension": family.d,
        "bases": [
            {"label": label, "matrix": matrix_to_json(basis)}
            for label, basis in zip(family.labels, family.bases)
        ],
    }


def ueb_manifest(ueb: PartitionedUeb, field: FiniteField | None = None) -> dict:
    obj = {"kind": "ueb", "dimension": ueb.d}
    if field is not None:
        obj["field"] = {"p": field.p, "n": field.n, "poly": list(field.modulus)}
    obj["operators"] = [
        {"x": x, "a": a, "matrix": matrix_to_json(ueb.op(x, a))}
        for x in range(ueb.d)
        for a in range(ueb.d)
    ]
    return obj


def report_manifest(results: list, dimension: int | None = None) -> dict:
    obj: dict = {"kind": "report"}
    if dimension is not None:
        obj["dimension"] = dimension
    obj["results"] = [
        {"equation": r["equation"], "residual": r["residual"], "pass": r["pass"]}
        for r in results
    ]
    return obj


# -- parsers -----------------------------------------------------------------

def _expect(obj: dict, kind: str) -> None:
    if obj.get("kind") != kind:
        raise ManifestError(f"expected kind {kind!r}, got {obj.get('kind')!r}")


def _field(obj, key: str, where: str):
    """``obj[key]``, or a ManifestError naming ``where.key``."""
    if not isinstance(obj, dict) or key not in obj:
        raise ManifestError(f"{where} has no {key!r} field")
    return obj[key]


def _count(obj: dict, key: str) -> int:
    """A positive integer field such as ``dimension``."""
    n = _field(obj, key, f"{obj['kind']} manifest")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ManifestError(f"{obj['kind']} manifest field {key!r} must be a positive integer, got {n!r}")
    return n


def _entries(obj: dict, key: str, want: int) -> list:
    """A list field that must hold exactly ``want`` entries."""
    entries = _field(obj, key, f"{obj['kind']} manifest")
    if not isinstance(entries, list) or len(entries) != want:
        got = len(entries) if isinstance(entries, list) else type(entries).__name__
        raise ManifestError(f"{obj['kind']} manifest field {key!r} must list {want} entries, got {got}")
    return entries


def _matrix(obj, where: str, d: int) -> np.ndarray:
    """The d x d ``matrix`` field of ``obj``, or a ManifestError naming ``where``."""
    m = matrix_from_json(_field(obj, "matrix", where))
    if m.shape != (d, d):
        raise ManifestError(f"{where} field 'matrix' has shape {m.shape}, expected {(d, d)}")
    return m


def field_from_manifest(obj: dict) -> FiniteField:
    _expect(obj, "field")
    try:
        return new_field(int(obj["p"]), int(obj["n"]), list(obj["poly"]))
    except KeyError as exc:
        raise ManifestError(f"field manifest missing {exc}") from exc


def hadamard_from_manifest(obj: dict) -> Hadamard:
    _expect(obj, "hadamard")
    d = _count(obj, "dimension")
    return Hadamard(d, _matrix(obj, "hadamard manifest", d))


def controlled_from_manifest(obj: dict) -> ControlledHadamard:
    _expect(obj, "controlled_hadamard")
    members = [matrix_from_json(m) for m in _entries(obj, "members", _count(obj, "control_dim"))]
    d = members[0].shape[0]
    for k, m in enumerate(members):
        if m.shape != (d, d):
            raise ManifestError(f"members[{k}] has shape {m.shape}, expected {(d, d)}")
    return ControlledHadamard(len(members), [Hadamard(d, m) for m in members])


def mub_from_manifest(obj: dict) -> MubFamily:
    _expect(obj, "mub")
    d = _count(obj, "dimension")
    entries = _entries(obj, "bases", d + 1)
    by_label = {
        _field(e, "label", f"bases[{k}]"): _matrix(e, f"bases[{k}]", d)
        for k, e in enumerate(entries)
    }
    want = ["*"] + [str(x) for x in range(d)]
    if sorted(by_label) != sorted(want):
        raise ManifestError(f"mub manifest must carry labels {want}")
    return MubFamily(d, [by_label[label] for label in want])


def ueb_from_manifest(obj: dict) -> PartitionedUeb:
    _expect(obj, "ueb")
    d = _count(obj, "dimension")
    entries = _entries(obj, "operators", d * d)
    ops = np.empty((d, d, d, d), dtype=np.complex128)
    seen = np.zeros((d, d), dtype=bool)
    for k, entry in enumerate(entries):
        where = f"operators[{k}]"
        x, a = _field(entry, "x", where), _field(entry, "a", where)
        if not all(isinstance(i, int) and 0 <= i < d for i in (x, a)):
            raise ManifestError(f"operator index ({x}, {a}) out of range")
        ops[x, a] = _matrix(entry, where, d)
        seen[x, a] = True
    if not seen.all():
        raise ManifestError("ueb manifest is missing operators")
    return PartitionedUeb(d, ops)


def report_from_manifest(obj: dict, tol: float) -> list:
    """Result entries of a report, each judged afresh by ``residual < tol``;
    the stored ``pass`` flags are not trusted."""
    _expect(obj, "report")
    results = _field(obj, "results", "report manifest")
    if not isinstance(results, list) or not results:
        raise ManifestError("report manifest field 'results' must be a non-empty list")
    out = []
    for k, r in enumerate(results):
        equation = _field(r, "equation", f"results[{k}]")
        residual = _field(r, "residual", f"results[{k}]")
        if isinstance(residual, bool) or not isinstance(residual, (int, float)):
            raise ManifestError(f"results[{k}].residual must be a number, got {residual!r}")
        out.append(cplx.residual_entry(str(equation), residual, tol))
    return out
