import hashlib
import json

import numpy as np
import pytest

from mubkit import manifests
from mubkit.characters import Hadamard, additive_character_matrix, controlled_from_copies
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
    for build, parse in [
        (manifests.field_manifest(f), manifests.field_from_manifest),
        (manifests.ueb_manifest(ueb, f), manifests.ueb_from_manifest),
        (manifests.mub_manifest(fam), manifests.mub_from_manifest),
        (manifests.hadamard_manifest(chi), manifests.hadamard_from_manifest),
        (manifests.controlled_hadamard_manifest(controlled), manifests.controlled_from_manifest),
    ]:
        manifests.write_manifest(build, path)
        loaded = parse(manifests.load_manifest(path))
        assert loaded is not None

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


def test_construct_emits_five_files(tmp_path, capsys):
    assert run(["construct", "--p", 2, "--n", 2, "--emit", "all", "--out", tmp_path]) == 0
    for name in ("field.json", "ueb.json", "mub.json", "chi.json", "psi.json"):
        assert (tmp_path / name).exists()
    ueb = manifests.ueb_from_manifest(manifests.load_manifest(tmp_path / "ueb.json"))
    from golden import corrected

    assert np.array_equal(ueb.op(1, 0).real, corrected(1, 0).astype(float))


@pytest.mark.parametrize("p,n,digest", [
    (2, 2, "d5ef5e22dfc79c7c25c3ae4a6a5757df5c492db7e735adc5c4c9746a3cb97418"),
    (3, 2, "dbae7c5a5a78b9be3f6915e338cdb352827780f2e718fd89f1d6533f5642974a"),
])
def test_construct_ueb_bytes_are_pinned(tmp_path, p, n, digest):
    """The operator table as one array writes the same bytes as the nested
    list of matrices it replaced."""
    assert run(["construct", "--p", p, "--n", n, "--emit", "ueb", "--out", tmp_path]) == 0
    assert hashlib.sha256((tmp_path / "ueb.json").read_bytes()).hexdigest() == digest


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
}


@pytest.mark.parametrize("manifest,code,needle", MALFORMED.values(), ids=MALFORMED.keys())
def test_verify_malformed_manifest(tmp_path, capsys, manifest, code, needle):
    """A malformed manifest exits 2 naming the field; it never ends in a
    traceback or a vacuous PASS."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    assert run(["verify", path]) == code
    captured = capsys.readouterr()
    assert needle in captured.out + captured.err
    assert "PASS" not in captured.out


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
