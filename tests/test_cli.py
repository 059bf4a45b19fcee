import hashlib
import json
import math
import random
import re
import time
import tracemalloc

import numpy as np
import pytest

from mubkit import manifests
from mubkit.characters import (
    Hadamard,
    additive_character_matrix,
    controlled_from_copies,
    multiplicative_character_matrix,
)
from mubkit.cli import main
from mubkit.construct import ueb_from_field
from mubkit.gf import new_field
from mubkit.mub import mub_from_ueb


def run(args):
    return main([str(a) for a in args])


def test_manifest_round_trips(tmp_path):
    f = new_field(2, 2)
    ueb = ueb_from_field(f)
    fam = mub_from_ueb(ueb, seed=0)
    chi = additive_character_matrix(f)
    controlled = controlled_from_copies(chi, 4)

    path = tmp_path / "x.json"
    for build, parse, same in [
        (manifests.field_manifest(f), manifests.field_from_manifest, lambda g: g == f),
        (manifests.ueb_manifest(ueb, f), manifests.ueb_from_manifest,
         lambda u: np.array_equal(u.ops, ueb.ops)),
        (manifests.mub_manifest(fam), manifests.mub_from_manifest,
         lambda m: np.array_equal(m.bases, fam.bases)),
        (manifests.hadamard_manifest(chi), manifests.hadamard_from_manifest,
         lambda h: np.array_equal(h.matrix, chi.matrix)),
        (manifests.controlled_hadamard_manifest(controlled), manifests.controlled_from_manifest,
         lambda c: np.array_equal(c.members, controlled.members)),
    ]:
        manifests.write_manifest(build, path)
        assert same(parse(manifests.load_manifest(path)))

    back = manifests.ueb_from_manifest(
        json.loads(manifests.dumps(manifests.ueb_manifest(ueb, f)))
    )
    for x in range(4):
        for a in range(4):
            assert np.array_equal(back.op(x, a), ueb.op(x, a))


def test_serialized_floats_are_full_precision(tmp_path):
    h = Hadamard(1, np.array([[np.exp(2j * np.pi / 7)]]))
    manifests.write_manifest(manifests.hadamard_manifest(h), tmp_path / "h.json")
    loaded = manifests.hadamard_from_manifest(manifests.load_manifest(tmp_path / "h.json"))
    assert loaded.matrix[0, 0] == h.matrix[0, 0]


def test_matrix_text_matches_per_entry_formatting(tmp_path):
    """The block-wise writer against the per-entry loop it replaced, on
    repeated, signed-zero and subnormal floats: a non-square matrix of one
    block, one of three blocks (131, 131 and 38 rows of 250), one row wider
    than a block, and an empty array. ``write_manifest`` writes the bytes of
    ``dumps``."""
    rng = np.random.default_rng(1)
    for shape in [(5, 3), (300, 250), (1, 40000), (0, 0)]:
        m = rng.standard_normal(shape).astype(complex)
        m.imag = rng.choice([-0.0, 0.0, 0.1, 5e-324, -1e308, 1 / 3], shape)
        loop = "[" + ",".join("[" + ",".join(
            f"[{format(z.real, '.17g')},{format(z.imag, '.17g')}]" for z in row) + "]" for row in m) + "]"
        text = manifests.dumps({"matrix": m})
        assert text == '{"matrix":' + loop + "}\n"
        manifests.write_manifest({"matrix": m}, tmp_path / "m.json")
        assert (tmp_path / "m.json").read_bytes() == text.encode()
        if m.size:
            assert np.signbit(m.imag[m.imag == 0]).any() and not np.signbit(m.imag[m.imag == 0]).all()
            assert np.array_equal(manifests.matrix_from_json(json.loads(loop)), m)
    assert text == '{"matrix":[]}\n'


def test_write_manifest_stops_at_an_unserializable_value(tmp_path):
    """A value the writer cannot serialize, met after a matrix has gone to
    the file, raises ManifestError, and verify refuses the partial file."""
    path = tmp_path / "chi.json"
    chi = manifests.hadamard_manifest(additive_character_matrix(new_field(2, 2)))
    with pytest.raises(manifests.ManifestError, match="cannot serialize object"):
        manifests.write_manifest({**chi, "extra": object()}, path)
    assert path.read_text().startswith('{"kind":"hadamard","dimension":4,"matrix":[[[1,0],')
    assert run(["verify", path]) == 2


@pytest.mark.parametrize("build", [
    lambda: manifests.hadamard_manifest(additive_character_matrix(new_field(3, 6))),
    lambda: manifests.hadamard_manifest(multiplicative_character_matrix(new_field(3, 6))),
    lambda: manifests.ueb_manifest(ueb_from_field(new_field(2, 5)), new_field(2, 5)),
], ids=["chi-gf729", "psi-gf729", "ueb-gf32"])
def test_write_manifest_holds_one_block(tmp_path, build):
    """The memory ``write_manifest`` adds is one block's working set, not the
    file's text nor a matrix's: the 8.5 MB chi and psi of GF(3^6) and the
    1024 operators of GF(2^5) each stay under 4 MiB."""
    obj = build()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        manifests.write_manifest(obj, tmp_path / "m.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 4 * 2**20


def test_construct_emits_five_files(tmp_path, capsys):
    assert run(["construct", "--p", 2, "--n", 2, "--emit", "all", "--out", tmp_path]) == 0
    for name in ("field.json", "ueb.json", "mub.json", "chi.json", "psi.json"):
        assert (tmp_path / name).exists()
    ueb = manifests.ueb_from_manifest(manifests.load_manifest(tmp_path / "ueb.json"))
    from golden import corrected

    assert np.array_equal(ueb.op(1, 0).real, corrected(1, 0).astype(float))


def _construct(p, n, emit):
    def write(tmp_path):
        assert run(["construct", "--p", p, "--n", n, "--emit", emit, "--out", tmp_path]) == 0
        return tmp_path / f"{emit}.json"
    return write


def _random_hadamard(tmp_path):
    """A 4x4 matrix whose floats are all distinct; no BLAS call goes into
    making it, so its bytes do not depend on the machine."""
    rng = np.random.default_rng(0)
    h = Hadamard(4, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    manifests.write_manifest(manifests.hadamard_manifest(h), tmp_path / "h.json")
    return tmp_path / "h.json"


PINNED = {
    "ueb-gf4": (_construct(2, 2, "ueb"),
                "d5ef5e22dfc79c7c25c3ae4a6a5757df5c492db7e735adc5c4c9746a3cb97418"),
    "ueb-gf9": (_construct(3, 2, "ueb"),
                "dbae7c5a5a78b9be3f6915e338cdb352827780f2e718fd89f1d6533f5642974a"),
    # real tables (float64 in memory) that the writer still writes as
    # [re, 0] pairs
    "ueb-gf8": (_construct(2, 3, "ueb"),
                "cf0baf619bee453089557fb1999be15fb2e018e116f163274ce00ceafeed02e4"),
    "chi-gf16": (_construct(2, 4, "chi"),
                 "1fd2ee73362171805afcee216c493aab499c5ae03426d9e6bd615e8ce59006d8"),
    # psi of GF(5) holds the entry [-0, -1]: a writer that told floats apart
    # by value instead of bit pattern would write -0 and 0 alike
    "psi-gf5": (_construct(5, 1, "psi"),
                "d6f6c0c6cb92e2320dfc4af138cbb86a4462b158d02f7adf1e57a4cd1116ad31"),
    "psi-gf13": (_construct(13, 1, "psi"),
                 "730324c4d1ddfb9752e6a9fabf883ff67e0ef415a50b0415a61251d0b3080353"),
    # the trace of an odd-p field of degree n >= 2 reaches chi and psi
    "chi-gf27": (_construct(3, 3, "chi"),
                 "38f028ebcc1092446d6c3e597bb5c805c3cc2ad5b073c721ed8f882ed25eca1b"),
    "psi-gf27": (_construct(3, 3, "psi"),
                 "69404da712e7b36add1ca35b465a398e0711e1cd8cce2415dcfb54fa55d863e1"),
    "chi-gf49": (_construct(7, 2, "chi"),
                 "c551b9ab273eeec3d20bcfc851b583be5ed06d5e0bd06f9331d4ec858496048e"),
    # the only CLI outputs that span several blocks of the writer
    "chi-gf729": (_construct(3, 6, "chi"),
                  "4881a6dc112e18f5ea6f7ad10c0d25982344e2897ab4877bca429e2db8ab580e"),
    "psi-gf729": (_construct(3, 6, "psi"),
                  "46082798799a26cfcb9225a70be933eb256fff0b39f89d2927373b0eb479acf3"),
    "random-4x4": (_random_hadamard,
                   "b956a7e2bb28bc72c0c7b7d419db7f0fedcf45d004fed495959e340a798cf339"),
}


@pytest.mark.parametrize("write,digest", PINNED.values(), ids=PINNED.keys())
def test_construct_ueb_bytes_are_pinned(tmp_path, write, digest):
    """The array-to-text writer writes the same bytes as the nested lists of
    Python floats it replaced."""
    assert hashlib.sha256(write(tmp_path).read_bytes()).hexdigest() == digest


def test_construct_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["construct", "--p", 3, "--n", 1, "--out", a]) == 0
    assert run(["construct", "--p", 3, "--n", 1, "--out", b]) == 0
    for name in ("field.json", "ueb.json", "mub.json", "chi.json", "psi.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_construct_rejects_non_prime(tmp_path, capsys):
    assert run(["construct", "--p", 4, "--n", 1, "--out", tmp_path]) == 2
    assert "NonPrime" in capsys.readouterr().err


def test_construct_single_emit(tmp_path):
    assert run(["construct", "--p", 2, "--n", 1, "--emit", "chi", "--out", tmp_path]) == 0
    assert (tmp_path / "chi.json").exists()
    assert not (tmp_path / "ueb.json").exists()
    chi = manifests.hadamard_from_manifest(manifests.load_manifest(tmp_path / "chi.json"))
    assert np.array_equal(chi.matrix.real, [[1, 1], [1, -1]])


def test_verify_constructed_artifacts(tmp_path):
    run(["construct", "--p", 2, "--n", 2, "--out", tmp_path])
    for name in ("field.json", "ueb.json", "mub.json", "chi.json", "psi.json"):
        assert run(["verify", tmp_path / name]) == 0


def test_verify_detects_corruption(tmp_path, capsys):
    run(["construct", "--p", 2, "--n", 1, "--out", tmp_path])
    obj = json.loads((tmp_path / "ueb.json").read_text())
    obj["operators"][3]["matrix"][0][1][0] *= -1.0  # flip one sign
    (tmp_path / "ueb.json").write_text(json.dumps(obj))
    assert run(["verify", tmp_path / "ueb.json"]) == 1
    out = capsys.readouterr().out
    assert "ueb_trace_law" in out and "FAIL" in out


def test_verify_truncated_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "ueb", "dimension": 2, "operators": [')
    assert run(["verify", path]) == 2


ONE = [[[1.0, 0.0]]]
PAYLOAD = "malformed matrix payload: entries must be finite numbers"
# a valid d = 2 table: every malformation of it below would otherwise PASS
UEB2 = json.loads(manifests.dumps(manifests.ueb_manifest(ueb_from_field(new_field(2, 1)))))


def _compact(matrix: str, d: int = 1) -> str:
    """A hadamard manifest written as the writer writes it: no whitespace."""
    return f'{{"kind":"hadamard","dimension":{d},"matrix":{matrix}}}'


def _compact_mub(first: str) -> str:
    return ('{"kind":"mub","dimension":1,"bases":[{"label":"*","matrix":' + first
            + '},{"label":"0","matrix":[[[1,0]]]}]}')


# Payloads in the writer's compact form, which the reader cuts out of the text
# before ``json`` sees it: each must fail as it does when ``json`` reads it.
COMPACT = {
    "overflowing-entry": (_compact("[[[1e400,0]]]"), 2, PAYLOAD),
    "huge-int-entry": (_compact("[[[" + "9" * 400 + ",0]]]"), 2, PAYLOAD),
    "three-part-entry": (_compact("[[[1,0,7]]]"), 2, "malformed matrix payload"),
    "ragged-rows": (_compact("[[[1,0],[1,0]],[[1,0]]]", 2), 2, "malformed matrix payload"),
    "empty-pair": (_compact("[[[]]]"), 2, "malformed matrix payload"),
    "empty-token": (_compact("[[[,0]]]"), 2, "cannot read manifest"),
    "leading-zero": (_compact("[[[01,0]]]"), 2, "cannot read manifest"),
    "plus-sign": (_compact("[[[+1,0]]]"), 2, "cannot read manifest"),
    "bare-dot-end": (_compact("[[[1.,0]]]"), 2, "cannot read manifest"),
    "bare-dot-start": (_compact("[[[.5,0]]]"), 2, "cannot read manifest"),
    "bare-exponent": (_compact("[[[1e,0]]]"), 2, "cannot read manifest"),
    "extra-bracket": (_compact("[[[1,0]]]]"), 2, "cannot read manifest"),
    # number text outside a pair, next to a bracket the skeleton still has
    "number-after-bracket": (_compact("[[[1,0]],5[[1,0]]]", 2), 2, "cannot read manifest"),
    "number-before-bracket": (_compact("[[[1,0]5],[[1,0]]]", 2), 2, "cannot read manifest"),
    "exponent-after-bracket": (_compact("[[[1,0]e0]]"), 2, "cannot read manifest"),
    "glued-row-boundary": (
        _compact("[" + ",".join(["[[1,0]]"] * 33000) + "e0," + ",".join(["[[1,0]]"] * 7000) + "]"),
        2, "cannot read manifest"),
    "nested-too-deep": (_compact("[" * 10**5 + "]" * 10**5), 2, "cannot read manifest"),
    # JSON keeps the last of duplicate keys: a valid payload before it is dropped
    "duplicate-key": (_compact("[[[1,0]]],\"matrix\":[[[1,0,7]]]"), 2, "malformed matrix payload"),
    "duplicate-key-both-cut": (_compact("[[[1,0]]],\"matrix\":[[[1e400,0]]]"), 2, PAYLOAD),
    # a taken payload becomes the bare constant NaN in the text json reads;
    # neither a string "NaN" nor a NaN of the file's own may take its array
    "string-placeholder": (_compact_mub('"NaN"'), 2, "got a <U3 array of shape ()"),
    "bare-placeholder": (_compact_mub("NaN"), 2, "got a float64 array of shape ()"),
}

MALFORMED = {
    "report-empty": ({"kind": "report", "results": []}, 2, "'results'"),
    "report-no-residual": (
        {"kind": "report", "results": [{"equation": "e", "pass": True}]}, 2,
        "results[0] has no 'residual'"),
    "report-no-equation": (
        {"kind": "report", "results": [{"residual": 0.0}]}, 2, "results[0] has no 'equation'"),
    "report-text-residual": (
        {"kind": "report", "results": [{"equation": "e", "residual": "0"}]}, 2,
        "results[0].residual"),
    # well formed, but the verdict comes from residual < --tol, not the stored flag
    "report-stale-pass": (
        {"kind": "report", "results": [{"equation": "e", "residual": 1.0, "pass": True}]}, 1,
        "e: residual 1.000e+00 FAIL"),
    "ueb-negative-dimension": ({"kind": "ueb", "dimension": -1, "operators": []}, 2, "'dimension'"),
    "ueb-no-dimension": ({"kind": "ueb", "operators": []}, 2, "has no 'dimension'"),
    "ueb-huge-dimension": (
        {"kind": "ueb", "dimension": 3000, "operators": [{"x": 0, "a": 0, "matrix": ONE}]}, 2,
        "'operators' must list 9000000 entries, got 1"),
    "ueb-no-matrix": (
        {"kind": "ueb", "dimension": 1, "operators": [{"x": 0, "a": 0}]}, 2,
        "operators[0] has no 'matrix'"),
    "ueb-no-index": (
        {"kind": "ueb", "dimension": 1, "operators": [{"a": 0, "matrix": ONE}]}, 2,
        "operators[0] has no 'x'"),
    "mub-no-dimension": ({"kind": "mub", "bases": []}, 2, "has no 'dimension'"),
    "mub-no-matrix": (
        {"kind": "mub", "dimension": 1, "bases": [{"label": "*"}, {"label": "0", "matrix": ONE}]},
        2, "bases[0] has no 'matrix'"),
    "controlled-empty": (
        {"kind": "controlled_hadamard", "control_dim": 0, "members": []}, 2, "'control_dim'"),
    "controlled-mixed-orders": (
        {"kind": "controlled_hadamard", "control_dim": 2, "members": [ONE, [[[1.0, 0.0]] * 2] * 2]},
        2, "members[1] has shape (2, 2), expected (1, 1)"),
    "hadamard-not-square": (
        {"kind": "hadamard", "dimension": 1, "matrix": [[[1.0, 0.0]] * 2]}, 2,
        "field 'matrix' has shape (1, 2), expected (1, 1)"),
    "hadamard-wrong-dimension": (
        {"kind": "hadamard", "dimension": 2, "matrix": ONE}, 2,
        "field 'matrix' has shape (1, 1), expected (2, 2)"),
    "hadamard-no-matrix": ({"kind": "hadamard", "dimension": 1}, 2, "has no 'matrix'"),
    "mub-basis-shape": (
        {"kind": "mub", "dimension": 1,
         "bases": [{"label": "*", "matrix": [[[1.0, 0.0]] * 2]}, {"label": "0", "matrix": ONE}]},
        2, "bases[0] field 'matrix' has shape (1, 2), expected (1, 1)"),
    "ueb-three-part-entry": (
        {"kind": "ueb", "dimension": 1, "operators": [{"x": 0, "a": 0, "matrix": [[[1, 0, 7]]]}]},
        2, "malformed matrix payload"),
    "field-poly-not-a-list": ({"kind": "field", "p": 2, "n": 1, "poly": 5}, 2, "'poly'"),
    "field-poly-nested": ({"kind": "field", "p": 2, "n": 2, "poly": [[1], 1, 1]}, 2, "'poly'"),
    "field-n-null": ({"kind": "field", "p": 2, "n": None, "poly": [1, 1]}, 2, "'n'"),
    "field-p-fraction": ({"kind": "field", "p": 2.7, "n": 2, "poly": [1, 1, 1]}, 2, "'p'"),
    "report-huge-residual": (
        {"kind": "report", "results": [{"equation": "e", "residual": 10**400}]}, 2,
        "results[0].residual"),
    # a negative or NaN residual would pass or fail every tolerance
    **{f"report-{name}-residual": (
        {"kind": "report", "results": [{"equation": "e", "residual": value}]}, 2,
        "results[0].residual must be a finite number >= 0")
       for name, value in [("minus-infinity", -math.inf), ("negative", -1), ("nan", math.nan)]},
    "mub-list-label": (
        {"kind": "mub", "dimension": 1,
         "bases": [{"label": ["*"], "matrix": ONE}, {"label": "0", "matrix": ONE}]},
        2, "must carry labels"),
    # a matrix payload holds finite numbers only
    "hadamard-huge-int-entry": (
        {"kind": "hadamard", "dimension": 1, "matrix": [[[10**400, 0]]]}, 2, PAYLOAD),
    "mub-text-entry": (
        {"kind": "mub", "dimension": 1,
         "bases": [{"label": "*", "matrix": [[["1", 0]]]}, {"label": "0", "matrix": ONE}]},
        2, PAYLOAD),
    "ueb-bool-entries": (
        {"kind": "ueb", "dimension": 1, "operators": [{"x": 0, "a": 0, "matrix": [[[True, False]]]}]},
        2, PAYLOAD),
    # numpy would promote a bool among numbers to 0 or 1
    "hadamard-bool-and-int": (
        {"kind": "hadamard", "dimension": 1, "matrix": [[[True, 0]]]}, 2, PAYLOAD),
    "hadamard-float-and-bool": (
        {"kind": "hadamard", "dimension": 1, "matrix": [[[1.0, True]]]}, 2, PAYLOAD),
    "controlled-null-entry": (
        {"kind": "controlled_hadamard", "control_dim": 1, "members": [[[[None, 0]]]]}, 2, PAYLOAD),
    # 1e400 reads back as inf
    "hadamard-overflowing-entry": (
        '{"kind": "hadamard", "dimension": 1, "matrix": [[[1e400, 0]]]}', 2, PAYLOAD),
    # every field the writer emits is checked, not only the ones the reader needs
    "field-wrong-dimension": (
        {"kind": "field", "dimension": 5, "p": 2, "n": 2, "poly": [1, 1, 1]}, 2, "'dimension'"),
    "controlled-wrong-dimension": (
        {"kind": "controlled_hadamard", "control_dim": 2, "dimension": 7,
         "members": [[[[1, 0], [1, 0]], [[1, 0], [-1, 0]]]] * 2}, 2, "'dimension'"),
    "ueb-field-of-wrong-order": (
        {**UEB2, "field": {"p": 3, "n": 1, "poly": [0, 1]}}, 2, "'field'"),
    "ueb-field-not-an-object": ({**UEB2, "field": [2, 1]}, 2, "'field'"),
    # numpy would read a bool index as a mask and write the wrong slots
    "ueb-bool-index": (
        {**UEB2, "operators": [{**UEB2["operators"][0], "x": True}, *UEB2["operators"][1:]]}, 2,
        "operators[0] fields 'x', 'a'"),
    "nested-too-deep": (
        '{"kind": "hadamard", "dimension": 1, "matrix": ' + "[" * 10**5 + "]" * 10**5 + "}", 2,
        "cannot read manifest"),
    **{f"compact-{name}": (text, code, needle) for name, (text, code, needle) in COMPACT.items()},
}


@pytest.mark.parametrize("manifest,code,needle", MALFORMED.values(), ids=MALFORMED.keys())
def test_verify_malformed_manifest(tmp_path, capsys, manifest, code, needle):
    """A malformed manifest exits 2 naming the field; it never ends in a
    traceback or a vacuous PASS."""
    path = tmp_path / "m.json"
    path.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
    assert run(["verify", path]) == code
    captured = capsys.readouterr()
    assert needle in captured.out + captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("text", [t for t, _, _ in COMPACT.values()], ids=COMPACT.keys())
def test_compact_payload_fails_as_json_reads_it(tmp_path, capsys, monkeypatch, text):
    """Exit code, stdout and stderr of ``verify`` on a compact payload are
    those of the same file read by ``json`` alone."""
    path = tmp_path / "m.json"
    path.write_text(text)
    fast = run(["verify", path]), capsys.readouterr()
    monkeypatch.setattr(manifests, "_PAYLOAD", re.compile("(?!)"))
    assert (run(["verify", path]), capsys.readouterr()) == fast


def _judged(text: str, decode):
    """What ``matrix_from_json`` makes of the ``matrix`` of ``decode(text)``:
    its float64 bit patterns, or the error."""
    try:
        rows = decode(text)["matrix"]
        return manifests.matrix_from_json(rows).view(np.float64).view(np.int64).tolist()
    except (json.JSONDecodeError, manifests.ManifestError) as exc:
        return type(exc).__name__, str(exc)


def test_mutated_compact_payloads_read_as_json_reads_them():
    """Compact payloads with one to three characters of the payload alphabet
    inserted, deleted or replaced read exactly as ``json.loads`` +
    ``matrix_from_json`` read them, whether the reader takes them or not;
    unmutated, each is taken unless it holds an integer outside int64."""
    _check_mutated_payloads()


def test_mutated_payloads_read_one_row_per_block(monkeypatch):
    """The same with ``_BLOCK`` = 2, so every row is a block of its own."""
    monkeypatch.setattr(manifests, "_BLOCK", 2)
    _check_mutated_payloads()


def _check_mutated_payloads():
    rng = random.Random(0)
    huge = "12345678901234567890"
    tokens = ["0", "-0", "1", "-1", "0.5", "1e3", "-2.5E-3", huge]
    for _ in range(3000):
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        text = "[" + ",".join("[" + ",".join(
            f"[{rng.choice(tokens)},{rng.choice(tokens)}]" for _ in range(c)) + "]"
            for _ in range(r)) + "]"
        taken = isinstance(manifests._decode(_compact(text))["matrix"], np.ndarray)
        assert taken == (huge not in text), text
        text = list(text)
        for _ in range(rng.randint(1, 3)):
            i, op = rng.randrange(len(text)), rng.randrange(3)
            if op == 0:
                text.insert(i, rng.choice("[],0123456789-+.eE"))
            elif op == 1:
                del text[i]
            else:
                text[i] = rng.choice("[],0123456789-+.eE")
        text = _compact("".join(text))
        assert _judged(text, manifests._decode) == _judged(text, json.loads), text


def test_manifest_that_is_not_utf8_is_named(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_bytes(b'{"kind":"hadamard","dimension":1,"matrix":[[[1,0]]],"note":"\xff"}')
    assert run(["verify", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read manifest {path}: 'utf-8' codec")


def _payloads(obj):
    """Every ``matrix`` value of a parsed manifest, in document order."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from [value] if key == "matrix" else _payloads(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _payloads(value)


def _read_both(path):
    """The payloads of ``path`` through ``load_manifest`` and through
    ``json.load`` + ``matrix_from_json``, as float64 bit patterns."""
    bits = lambda rows: manifests.matrix_from_json(rows).view(np.float64).view(np.int64)
    fast = list(_payloads(manifests.load_manifest(path)))
    with open(path, encoding="utf-8") as fh:
        ref = list(_payloads(json.load(fh)))
    assert all(isinstance(rows, np.ndarray) for rows in fast)
    return [bits(rows) for rows in fast], [bits(rows) for rows in ref]


def _oracle_files(tmp_path):
    for p, n in [(2, 3), (3, 2)]:
        assert run(["construct", "--p", p, "--n", n, "--emit", "all",
                    "--out", tmp_path / f"gf{p}{n}"]) == 0
    # psi of GF(3^4) holds the entry [-0, -1]; its UEB and MUB take a minute to build
    for emit in ("field", "chi", "psi"):
        assert run(["construct", "--p", 3, "--n", 4, "--emit", emit,
                    "--out", tmp_path / "gf34"]) == 0
    d = tmp_path / "gf32"
    chi = additive_character_matrix(new_field(3, 2))
    manifests.write_manifest(
        manifests.controlled_hadamard_manifest(controlled_from_copies(chi, 9)), d / "hfam.json")
    assert run(["theta", d / "ueb.json", "--out", d / "theta.json"]) == 0
    assert run(["phi", d / "theta.json", d / "hfam.json", d / "chi.json",
                "--out", d / "phi.json"]) == 0
    return sorted(tmp_path.glob("*/*.json"))


def test_compact_payloads_read_bit_for_bit_as_json_reads_them(tmp_path):
    """The fast reader against ``json.load`` + ``matrix_from_json``, compared
    as int64 views, so the sign of zero counts."""
    files = _oracle_files(tmp_path)
    assert {f.name for f in files} >= {"theta.json", "phi.json", "ueb.json", "mub.json", "psi.json"}
    for path in files:
        fast, ref = _read_both(path)
        assert len(fast) == len(ref) and all(map(np.array_equal, fast, ref)), path
    edge = ["-0", "-0.0", "1E+2", "5e-324", "1e-400", "123456789012345678",
            "-9223372036854775808", "9223372036854775807", "1.5e-3"]
    path = tmp_path / "edge.json"
    path.write_text(_compact("[[" + ",".join(f"[{t},{t}]" for t in edge) + "]]"))
    fast, ref = _read_both(path)
    assert fast[0].shape == (1, 2 * len(edge)) and np.array_equal(fast[0], ref[0])


def test_payload_of_more_distinct_tokens_than_the_table_holds(tmp_path, monkeypatch):
    """Once the token table holds ``_BLOCK`` tokens it stops growing: a block
    it covers is read from it, any other is parsed by ``json``, and both read
    as ``json`` reads them."""
    monkeypatch.setattr(manifests, "_BLOCK", 8)  # 4 rows of one pair per block
    values = [f"{i}.{i % 7}e-{i}" for i in range(8)]
    rows = [f"[[{v},-{v}]]" for v in values + values]  # blocks: new, new, known, unknown
    path = tmp_path / "m.json"
    path.write_text(_compact("[" + ",".join(rows) + "]", 16))
    parsed = []
    numbers = manifests._numbers
    monkeypatch.setattr(manifests, "_numbers", lambda flat: parsed.append(flat) or numbers(flat))
    fast, ref = _read_both(path)
    assert fast[0].shape == (16, 2) and np.array_equal(fast[0], ref[0])
    assert len(parsed) == 3  # the third block came from the table


def test_integer_minus_zero_reads_as_plus_zero(tmp_path):
    """``json`` reads the integer ``-0`` as 0, so it is +0.0; ``-0.0`` keeps its sign."""
    path = tmp_path / "m.json"
    path.write_text(_compact("[[[-0,-0.0]]]"))
    z = manifests.load_manifest(path)["matrix"]
    assert z.tolist() == [[[0.0, 0.0]]] and list(np.signbit(z).ravel()) == [False, True]


def test_only_values_of_matrix_keys_are_cut(tmp_path):
    """A key that merely ends in an escaped quote and ``matrix`` is another
    key; its value stays the list ``json`` makes of it."""
    path = tmp_path / "m.json"
    path.write_text(_compact('[[[1,0]]],"x\\"matrix":[[[1,0]]]'))
    obj = manifests.load_manifest(path)
    assert isinstance(obj["matrix"], np.ndarray) and obj['x"matrix'] == [[[1, 0]]]


def test_verify_missing_file():
    assert run(["verify", "/definitely/not/there.json"]) == 2


def test_theta_then_phi_round_trip(tmp_path):
    run(["construct", "--p", 3, "--n", 1, "--out", tmp_path])
    assert run(["theta", tmp_path / "ueb.json", "--out", tmp_path / "fam.json"]) == 0
    f = new_field(3, 1)
    chi = additive_character_matrix(f)
    manifests.write_manifest(
        manifests.controlled_hadamard_manifest(controlled_from_copies(chi, 3)),
        tmp_path / "hfam.json",
    )
    manifests.write_manifest(manifests.hadamard_manifest(chi), tmp_path / "g.json")
    assert run([
        "phi", tmp_path / "fam.json", tmp_path / "hfam.json", tmp_path / "g.json",
        "--out", tmp_path / "rebuilt.json",
    ]) == 0
    assert run(["verify", tmp_path / "rebuilt.json"]) == 0

    rebuilt = manifests.ueb_from_manifest(manifests.load_manifest(tmp_path / "rebuilt.json"))
    from mubkit.mub import bases_match

    fam = manifests.mub_from_manifest(manifests.load_manifest(tmp_path / "fam.json"))
    fam2 = mub_from_ueb(rebuilt, seed=0)
    for k in range(4):
        assert bases_match(fam2.bases[k], fam.bases[k], 1e-8)


def test_construct_verify_theta_at_d32(tmp_path, capsys):
    """GF(2^5) end to end: the table reads back as the float64 table it was
    written from, verify passes its four laws, and theta gives the family
    mub_from_ueb gives in memory."""
    f = new_field(2, 5)
    ueb = ueb_from_field(f)
    assert run(["construct", "--p", 2, "--n", 5, "--emit", "ueb", "--out", tmp_path]) == 0
    read = manifests.ueb_from_manifest(manifests.load_manifest(tmp_path / "ueb.json"))
    assert read.ops.dtype == np.float64 and np.array_equal(read.ops, ueb.ops)
    capsys.readouterr()
    assert run(["verify", tmp_path / "ueb.json"]) == 0
    assert [line.endswith(" PASS") for line in capsys.readouterr().out.splitlines()] == [True] * 4
    assert run(["theta", tmp_path / "ueb.json", "--out", tmp_path / "mub.json"]) == 0
    family = manifests.mub_from_manifest(manifests.load_manifest(tmp_path / "mub.json"))
    assert np.array_equal(family.bases, mub_from_ueb(ueb).bases)


def test_phi_rejects_non_hadamard_g(tmp_path, capsys):
    run(["construct", "--p", 2, "--n", 1, "--out", tmp_path])
    run(["theta", tmp_path / "ueb.json", "--out", tmp_path / "fam.json"])
    f = new_field(2, 1)
    chi = additive_character_matrix(f)
    manifests.write_manifest(
        manifests.controlled_hadamard_manifest(controlled_from_copies(chi, 2)),
        tmp_path / "hfam.json",
    )
    manifests.write_manifest(
        manifests.hadamard_manifest(Hadamard(2, np.eye(2, dtype=complex))),
        tmp_path / "g.json",
    )
    rc = run([
        "phi", tmp_path / "fam.json", tmp_path / "hfam.json", tmp_path / "g.json",
        "--out", tmp_path / "never.json",
    ])
    assert rc == 1
    assert "G: is_hadamard failed" in capsys.readouterr().err


def test_theta_of_the_d1_table(tmp_path, capsys):
    """The d = 1 table that verify passes, theta turns into the family of two
    1x1 bases, which verify passes too."""
    path = tmp_path / "ueb.json"
    path.write_text(json.dumps({"kind": "ueb", "dimension": 1, "operators": [{"x": 0, "a": 0, "matrix": ONE}]}))
    assert run(["verify", path]) == 0
    assert run(["theta", path, "--out", tmp_path / "mub.json"]) == 0
    family = manifests.mub_from_manifest(manifests.load_manifest(tmp_path / "mub.json"))
    assert np.array_equal(family.bases, np.ones((2, 1, 1)))
    capsys.readouterr()
    assert run(["verify", tmp_path / "mub.json"]) == 0
    assert capsys.readouterr().out == "maximal_mub_overlaps: residual 0.000e+00 PASS\n"


def test_theta_on_malformed_manifest(tmp_path):
    path = tmp_path / "notueb.json"
    manifests.write_manifest(manifests.field_manifest(new_field(2, 1)), path)
    assert run(["theta", path, "--out", tmp_path / "out.json"]) == 2


def test_axioms_command(tmp_path, capsys):
    assert run(["axioms", "--p", 2, "--n", 2]) == 0
    out = capsys.readouterr().out
    assert "equations passed" in out
    assert "FAIL" not in out


def test_axioms_command_rejects_bad_field(capsys):
    assert run(["axioms", "--p", 6, "--n", 1]) == 2


def test_building_commands_refuse_degree_zero(tmp_path, capsys):
    for command in (["construct", "--out", tmp_path], ["axioms"]):
        assert run([*command, "--p", 2, "--n", 0]) == 2
        assert capsys.readouterr().err.startswith("error: NonPositiveDegree: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("p,n,digest", [
    (3, 2, "d6d8f4547bbebcdd4ffa4c03749ac0308e89a863247467091f735732fbdc5b42"),
    (2, 4, "b48d3818085e1f9a75ca3ad706b06e8b9300e49e6a9bffee47afb046237c189e"),
    (17, 1, "508958abeb2d8f5a18d9a1573d01aecb3e6a412c66444f87f872920b05c4a07c"),
    (19, 1, "0f5256d678bd27ccb6feea83468e8439ad49c5a6b3dff2b6d9556181641d222d"),
    (2, 5, "ae0ca3a009c1c98047cffe8bc2bfd9723fde9a51155b7085dccc2cf8501342e1"),
    (3, 3, "8f4e6700a9a9b680a547d0e47f59664ccfca0c2e9ed801a0f596acfe92be6c7a"),
])
def test_axioms_stdout_is_pinned(capsys, p, n, digest):
    """The staged, block-wise, real-valued contractions print the same
    report, byte for byte, as the one-shot complex einsums they replaced."""
    assert run(["axioms", "--p", p, "--n", n]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_axioms_refuses_oversized_field_before_allocating(capsys):
    start = time.perf_counter()
    assert run(["axioms", "--p", 2, "--n", 7]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: TooLarge: ") and "Traceback" not in err
    assert "d = 128" in err and str(128**4 * 8) in err


@pytest.mark.parametrize("p,n", [(2305843009213693951, 1), (3, 30000000)])
def test_axioms_refuses_huge_field_parameters_at_once(capsys, p, n):
    """The field order is checked before primality of a huge p and before
    computing p**n for a huge n."""
    start = time.perf_counter()
    assert run(["axioms", "--p", p, "--n", n]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error: TooLarge: ")


@pytest.mark.parametrize("command", ["verify", "phi"])
def test_seed_is_refused_where_nothing_is_random(tmp_path, capsys, command):
    args = [tmp_path / "m.json"] if command == "verify" else [
        tmp_path / "mub.json", tmp_path / "h.json", tmp_path / "g.json", "--out", tmp_path / "o.json"]
    with pytest.raises(SystemExit) as exc:
        run([command, *args, "--seed", 1])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-5", "-1", "1.5"])
@pytest.mark.parametrize("command", ["construct", "theta"])
def test_seed_must_be_a_non_negative_integer(tmp_path, capsys, command, seed):
    args = ["--p", 2, "--n", 2, "--emit", "mub", "--out", tmp_path] if command == "construct" else [
        tmp_path / "ueb.json", "--out", tmp_path / "mub.json"]
    with pytest.raises(SystemExit) as exc:
        run([command, *args, "--seed", seed])
    assert exc.value.code == 2
    assert "--seed: expected a non-negative integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["construct", "--p", 2, "--n", 2, "--poly", "1,x"],
    ["axioms", "--p", 2, "--n", 2, "--poly", "1,,1"],
])
def test_unparsable_poly_is_a_usage_error(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        run([*args, "--out", tmp_path] if args[0] == "construct" else args)
    assert exc.value.code == 2
    assert "--poly" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["construct", "verify", "theta", "phi", "axioms"])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_every_command_refuses_a_tolerance_that_is_not_finite_and_positive(
        tmp_path, capsys, command, tol):
    """An infinite tolerance passes every law and a NaN, zero or negative one
    fails every law, so each command refuses them as a usage error."""
    args = {
        "construct": ["--p", 2, "--n", 1, "--out", tmp_path],
        "verify": [tmp_path / "field.json"],
        "theta": [tmp_path / "ueb.json", "--out", tmp_path / "mub.json"],
        "phi": [tmp_path / "mub.json", tmp_path / "h.json", tmp_path / "g.json",
                "--out", tmp_path / "out.json"],
        "axioms": ["--p", 2, "--n", 1],
    }[command]
    with pytest.raises(SystemExit) as exc:
        run([command, *args, "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
