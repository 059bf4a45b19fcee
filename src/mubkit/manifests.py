"""Stable JSON serialization for every object the CLI moves around.

Complex values are [re, im] pairs; matrices nest row-major and turn into text
and back a block of rows at a time. Serialization is deterministic: explicit
key order, floats printed with 17 significant digits, newline-terminated
output, so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import chain

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

def _dump(value, write) -> None:
    if isinstance(value, dict):
        write("{")
        for i, (k, v) in enumerate(value.items()):
            write(("," if i else "") + json.dumps(k) + ":")
            _dump(v, write)
        write("}")
    elif isinstance(value, (list, tuple)):
        write("[")
        for i, v in enumerate(value):
            if i:
                write(",")
            _dump(v, write)
        write("]")
    elif isinstance(value, bool):
        write("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        write(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        write(format(float(value), ".17g"))
    elif isinstance(value, str):
        write(json.dumps(value))
    elif isinstance(value, np.ndarray):
        _write_matrix(value, write)
    elif value is None:
        write("null")
    else:
        raise ManifestError(f"cannot serialize {type(value).__name__}")


def dumps(obj: dict) -> str:
    out: list = []
    _dump(obj, out.append)
    out.append("\n")
    return "".join(out)


def write_manifest(obj: dict, path) -> None:
    """Write ``dumps(obj)`` to ``path`` as it is made, one block of matrix rows at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        _dump(obj, fh.write)
        fh.write("\n")


def load_manifest(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = _decode(fh.read())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ManifestError(f"manifest {path} has no 'kind' field")
    return obj


# -- fast reader -------------------------------------------------------------

# The value of a "matrix" key written as the writer writes it: no whitespace,
# numeric-only text of bracket depth 3. A '"' not preceded by a backslash is a
# string delimiter, so in valid JSON this is a key and never text in a string.
_PAYLOAD = re.compile(r'(?<!\\)"matrix":(\[\[\[[-+.eE0-9,\[\]]*\]\]\])')
_INT64 = range(-2**63, 2**63)
_BLOCK = 1 << 16  # floats written, or tokens read, at a time; the token table's fill limit


class _NotTaken(Exception):
    """A payload that ``json`` and ``matrix_from_json`` must judge."""


def _numbers(flat: bytes) -> np.ndarray:
    """The float64 array that ``json`` + numpy make of ``flat``, numbers
    separated by commas; _NotTaken if ``json`` refuses it or it holds an
    integer outside int64 (numpy makes no int64 array of it)."""
    try:
        numbers = json.loads(b"[" + flat + b"]")
        floats = np.fromiter(numbers, np.float64, len(numbers))
    except (ValueError, TypeError, OverflowError) as exc:
        raise _NotTaken from exc
    if any(type(numbers[j]) is int and numbers[j] not in _INT64
           for j in np.flatnonzero(np.abs(floats) >= 2.0**63)):
        raise _NotTaken
    return floats


def _pairs(text: str, start: int, end: int, tokens: dict) -> np.ndarray:
    """The (r, c, 2) float64 array of the payload cut at text[start:end],
    filled a block of rows at a time; _NotTaken if its brackets are not
    those of such an array or ``json`` does not take its numbers.

    The payload is never copied whole: each block of rows is encoded and
    checked on its own, so a 22 MB payload costs its array and one block.
    A block whose tokens are all in ``tokens`` is read from that table;
    any other block is parsed by ``json``, and its tokens are remembered
    while the table holds fewer than _BLOCK, so a file that repeats few
    tokens parses each about once and one that repeats none costs one
    ``json`` parse per entry, with the table's size bounded either way."""
    start, end = start + 3, end - 3  # inside the "[[[" and "]]]" the pattern matched
    r = text.count("]],[[", start, end) + 1
    first_end = text.find("]],[[", start, end)
    c = text.count("],[", start, end if first_end < 0 else first_end) + 1
    row = b",],[" * (c - 1) + b","  # a row of c pairs without its numbers
    pairs = np.empty((r, c, 2))
    pos, step = start, max(1, _BLOCK // (2 * c))
    for i in range(0, r, step):
        k = min(step, r - i)
        stop = end
        if i + k < r:  # the block ends at the k-th row separator from pos
            stop = pos - 5
            for _ in range(k):
                stop = text.find("]],[[", stop + 5, end)
        raw = text[pos:stop].encode("ascii")
        pos = stop + 5
        if raw.translate(None, b"0123456789+-.eE") != b"]],[[".join([row] * k):
            raise _NotTaken
        # With the skeleton right, a bracket survives these replacements only
        # where number text stands next to it outside a pair ("]5,[" or
        # "]]e0,[["), and a number next to a bracket is text ``json`` refuses.
        flat = raw.replace(b"]],[[", b",").replace(b"],[", b",")
        block = flat.split(b",")
        try:
            floats = np.fromiter(map(tokens.__getitem__, block), np.float64, len(block))
        except KeyError:
            floats = _numbers(flat)
            if len(tokens) < _BLOCK:
                tokens.update(zip(block, floats.tolist()))
        pairs[i:i + k] = floats.reshape(k, c, 2)
    return pairs


def _decode(text: str):
    """``json.loads(text)``, except that each compact numeric payload arrives
    as a float64 (r, c, 2) array instead of nested lists of Python floats.

    Each taken payload is replaced by the bare constant ``NaN``, which
    RFC 8259 text cannot hold; ``json`` hands every such constant to one hook
    in document order, so the k-th call is the k-th taken payload exactly
    when the hook is called once per taken payload. Otherwise (a ``NaN`` or
    ``Infinity`` of the file's own, say) the whole text is read by ``json``
    alone, as it is whenever the rest does not parse."""
    tokens, taken = {}, []

    def cut(m: re.Match) -> str:
        try:
            taken.append(_pairs(text, *m.span(1), tokens))
        except _NotTaken:
            return m.group(0)
        return '"matrix":NaN'

    rest = _PAYLOAD.sub(cut, text)
    if taken:
        arrays = iter(taken)
        calls = []

        def constant(name: str):
            calls.append(name)
            return next(arrays, None)

        try:
            obj = json.loads(rest, parse_constant=constant)
        except (json.JSONDecodeError, RecursionError):
            pass
        else:
            if len(calls) == len(taken):
                return obj
    return json.loads(text)


# -- matrix <-> json ---------------------------------------------------------

def _write_matrix(m: np.ndarray, write) -> None:
    """A complex matrix as nested rows of [re, im] pairs, written _BLOCK floats
    (or one row) at a time. A block formats each distinct float once, telling
    floats apart by bit pattern, not by value, so -0.0 keeps its sign."""
    write("[")
    step = max(1, _BLOCK // max(1, 2 * m.shape[1]))
    for i in range(0, len(m), step):
        floats = np.ascontiguousarray(m[i:i + step], dtype=np.complex128).view(np.float64)
        bits, inverse = np.unique(floats.view(np.int64).ravel(), return_inverse=True)
        text = np.array([format(v, ".17g") for v in bits.view(np.float64).tolist()], dtype=object)
        if i:
            write(",")
        write(",".join("[[" + "],[".join(map(",".join, zip(row[::2], row[1::2]))) + "]]"
                       for row in text[inverse.reshape(floats.shape)].tolist()))
    write("]")


def matrix_from_json(rows) -> np.ndarray:
    """The complex matrix of a payload of [re, im] rows, given as nested lists
    or as the float64 array the reader makes of a compact payload; the one
    check of a matrix payload: finite int or float entries in rows of one
    length. numpy promotes a bool among numbers to 0 or 1, so lists are
    searched for bools."""
    try:
        pairs = np.asarray(rows)
    except ValueError as exc:  # ragged rows
        raise ManifestError(f"malformed matrix payload: {exc}") from exc
    if (pairs.dtype.kind not in "iuf" or pairs.ndim != 3 or pairs.shape[2] != 2
            or not np.isfinite(pairs).all() or not isinstance(rows, np.ndarray)
            and bool in set(map(type, chain.from_iterable(chain.from_iterable(rows))))):
        raise ManifestError("malformed matrix payload: entries must be finite numbers in rows of "
                            f"[re, im] pairs, got a {pairs.dtype} array of shape {pairs.shape}")
    return np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128)[..., 0]


# -- builders ----------------------------------------------------------------

def field_manifest(f: FiniteField) -> dict:
    return {"kind": "field", "dimension": f.d, **f.descriptor()}


def hadamard_manifest(h: Hadamard) -> dict:
    return {"kind": "hadamard", "dimension": h.d, "matrix": h.matrix}


def controlled_hadamard_manifest(ch: ControlledHadamard) -> dict:
    return {
        "kind": "controlled_hadamard",
        "control_dim": ch.control_dim,
        "dimension": ch.d,
        "members": list(ch.members),
    }


def mub_manifest(family: MubFamily) -> dict:
    return {
        "kind": "mub",
        "dimension": family.d,
        "bases": [
            {"label": label, "matrix": basis}
            for label, basis in zip(family.labels, family.bases)
        ],
    }


def ueb_manifest(ueb: PartitionedUeb, field: FiniteField | None = None) -> dict:
    obj = {"kind": "ueb", "dimension": ueb.d}
    if field is not None:
        obj["field"] = field.descriptor()
    obj["operators"] = [
        {"x": x, "a": a, "matrix": ueb.op(x, a)}
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
    poly = _field(obj, "poly", "field manifest")
    if not isinstance(poly, list) or any(isinstance(c, bool) or not isinstance(c, int) for c in poly):
        raise ManifestError(f"field manifest field 'poly' must be a list of integers, got {poly!r}")
    f = new_field(_count(obj, "p"), _count(obj, "n"), poly)
    if "dimension" in obj and _count(obj, "dimension") != f.d:
        raise ManifestError(f"field manifest field 'dimension' must be p^n = {f.d}")
    return f


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
    if "dimension" in obj and _count(obj, "dimension") != d:
        raise ManifestError(f"controlled_hadamard manifest field 'dimension' must be {d}")
    return ControlledHadamard(len(members), members)


def mub_from_manifest(obj: dict) -> MubFamily:
    _expect(obj, "mub")
    d = _count(obj, "dimension")
    entries = _entries(obj, "bases", d + 1)
    labels = [_field(e, "label", f"bases[{k}]") for k, e in enumerate(entries)]
    want = ["*"] + [str(x) for x in range(d)]
    if sorted(labels, key=repr) != sorted(want, key=repr):  # repr sorts any JSON value
        raise ManifestError(f"mub manifest must carry labels {want}")
    return MubFamily(d, [_matrix(entries[k], f"bases[{k}]", d) for k in map(labels.index, want)])


def ueb_from_manifest(obj: dict) -> PartitionedUeb:
    _expect(obj, "ueb")
    d = _count(obj, "dimension")
    if "field" in obj:
        desc = obj["field"]
        if not isinstance(desc, dict) or field_from_manifest({**desc, "kind": "field"}).d != d:
            raise ManifestError(f"ueb manifest field 'field' must describe a field of order {d}")
    mats = {}
    for k, entry in enumerate(_entries(obj, "operators", d * d)):
        where = f"operators[{k}]"
        x, a = _field(entry, "x", where), _field(entry, "a", where)
        # a bool is an int to Python, and numpy reads a bool index as a mask
        if not all(type(i) is int and 0 <= i < d for i in (x, a)):
            raise ManifestError(f"{where} fields 'x', 'a' must be integers below {d}, got {x!r}, {a!r}")
        mats[x, a] = _matrix(entry, where, d)  # a view of the payload when the reader took it
    if len(mats) < d * d:
        raise ManifestError("ueb manifest is missing operators")
    # the table is filled once, in the dtype cplx.as_matrix would give it
    real = all(map(cplx.imag_is_zero, mats.values()))
    ops = np.empty((d, d, d, d), np.float64 if real else np.complex128)
    for (x, a), m in mats.items():
        ops[x, a] = m.real if real else m
    return PartitionedUeb(d, ops)


def report_from_manifest(obj: dict, tol: float) -> list:
    """Result entries of a report, each judged afresh by ``residual < tol``;
    the stored ``pass`` flags are not trusted. A residual that is negative
    or not finite would pass or fail at every ``tol`` and is refused."""
    _expect(obj, "report")
    results = _field(obj, "results", "report manifest")
    if not isinstance(results, list) or not results:
        raise ManifestError("report manifest field 'results' must be a non-empty list")
    out = []
    for k, r in enumerate(results):
        equation = _field(r, "equation", f"results[{k}]")
        residual = _field(r, "residual", f"results[{k}]")
        if isinstance(residual, bool) or not isinstance(residual, (int, float)) or not (
                0 <= residual <= sys.float_info.max):
            raise ManifestError(f"results[{k}].residual must be a finite number >= 0, got {residual!r}")
        out.append(cplx.residual_entry(str(equation), residual, tol))
    return out
