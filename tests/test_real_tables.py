"""Real tables stay real: the dtype rule of ``cplx.as_matrix``, the builders
that follow it, the spectral path that stays complex, and every law on a
float64 table against the same law on its complex128 copy.

The complex side of the oracle runs with ``cplx.as_matrix`` patched to give
complex128 for every input, which is how every law ran before real tables
stayed real."""

import numpy as np
import pytest

from mubkit import cplx
from mubkit.characters import (
    Hadamard,
    additive_character_matrix,
    controlled_from_copies,
    controlled_hadamard_residuals,
    hadamard_residuals,
    is_dephased,
    multiplicative_character_matrix,
)
from mubkit.construct import (
    PartitionedUeb,
    conjugate_ueb,
    eigendata,
    partition_residuals,
    ueb_from_field,
    ueb_residuals,
)
from mubkit.gf import new_field
from mubkit.mub import MubFamily, bases_match, is_mub_pair, mub_from_ueb, mub_residuals

REAL_AS_MATRIX = cplx.as_matrix
EPS = np.finfo(np.float64).eps


def complex_as_matrix(a, ndim=2):
    return REAL_AS_MATRIX(a, ndim).astype(np.complex128, copy=False)


def random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


# -- the dtype rule ----------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 6))
def test_gf2n_tables_are_float64(n):
    f = new_field(2, n)
    ueb, chi = ueb_from_field(f), additive_character_matrix(f).matrix
    assert ueb.ops.dtype == chi.dtype == np.float64
    as_complex = ueb.ops.astype(np.complex128)
    got = cplx.as_matrix(as_complex, 4)
    assert got.dtype == np.float64 and np.array_equal(got, as_complex)
    assert cplx.as_matrix(chi.astype(np.complex128)).dtype == np.float64


@pytest.mark.parametrize("p", [3, 5])
def test_odd_characteristic_tables_stay_complex128(p):
    f = new_field(p, 1)
    assert ueb_from_field(f).ops.dtype == np.complex128
    assert additive_character_matrix(f).matrix.dtype == np.complex128
    assert cplx.as_matrix(ueb_from_field(f).ops, 4).dtype == np.complex128


@pytest.mark.parametrize("imag", [-0.0, 5e-324])
def test_one_imaginary_part_that_is_not_plus_zero_keeps_complex128(imag):
    m = np.eye(4, dtype=np.complex128)
    m[2, 3] = complex(0.0, imag)
    got = cplx.as_matrix(m)
    assert got.dtype == np.complex128
    assert got[2, 3].imag.tobytes() == np.float64(imag).tobytes()


def test_real_input_kinds_are_float64():
    for a in ([[1, 0], [0, 1]], np.eye(2, dtype=bool), np.eye(2, dtype=np.float32)):
        assert cplx.as_matrix(a).dtype == np.float64


def test_psi_of_gf3_is_real_and_psi_of_gf5_complex():
    assert multiplicative_character_matrix(new_field(3, 1)).matrix.dtype == np.float64
    assert multiplicative_character_matrix(new_field(5, 1)).matrix.dtype == np.complex128


def test_max_abs_of_a_float_array_is_the_largest_modulus():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 7))
    assert cplx.max_abs(a) == np.max(np.abs(a)) == cplx.max_abs(a.astype(np.complex128))
    assert np.signbit(cplx.max_abs(np.full(3, -0.0))) == np.False_
    assert np.isnan(cplx.max_abs(np.array([1.0, np.nan])))


# -- the spectral path stays complex -----------------------------------------

def real_commuting_family(d, k, rng):
    """k real symmetric matrices diagonal in one random orthogonal basis."""
    q = random_orthogonal(d, rng)
    return np.stack([q @ np.diag(rng.choice([-1.0, 1.0], d)) @ q.T for _ in range(k)])


def test_spectral_path_is_complex128_on_real_input():
    family = real_commuting_family(6, 4, np.random.default_rng(1))
    w = cplx.simultaneous_eigenbasis(family, seed=2)
    assert w.dtype == np.complex128
    assert np.array_equal(w, cplx.simultaneous_eigenbasis(family.astype(np.complex128), seed=2))
    a = family[0] + 2 * family[1]
    decomp = cplx.eig_hermitian(a)
    assert decomp.vectors.dtype == np.complex128
    assert np.array_equal(decomp.vectors, np.linalg.eigh(a.astype(np.complex128))[1])
    assert cplx.phase_normalize(np.eye(3)).dtype == np.complex128


@pytest.mark.parametrize("n", range(1, 5))
def test_every_family_out_of_mub_from_ueb_is_complex128(n):
    f = new_field(2, n)
    ueb = ueb_from_field(f)
    chi = additive_character_matrix(f).matrix
    for table in (ueb, conjugate_ueb(ueb, chi / np.sqrt(f.d))):
        assert table.ops.dtype == np.float64
        assert mub_from_ueb(table, seed=n).bases.dtype == np.complex128
    assert MubFamily(2, [np.eye(2)] * 3).bases.dtype == np.complex128


# -- every law on both dtypes ------------------------------------------------

def law_reports(ops, chi):
    """Every law of cplx, construct, characters and mub on an operator
    table and a Hadamard, by law name: each value is what the law reports."""
    d = len(ops)
    ueb = PartitionedUeb(d, ops)
    classes = [ueb.class_star()] + [ueb.class_ops(x) for x in range(d)]
    chi = cplx.as_matrix(chi)
    reports = {r["equation"]: r for r in ueb_residuals(ueb) + partition_residuals(ueb)}
    reports.update({
        "unitarity_residual": cplx.unitarity_residual(ueb.flat()),
        "commutator_residual": [cplx.commutator_residual(c) for c in classes],
        "offdiag_residual": [cplx.offdiag_residual(c) for c in classes],
        "offdiag_residual(w)": cplx.offdiag_residual(
            ueb.op(1 % d, 0).conj().T @ ueb.flat() @ ueb.op(1 % d, 0)),
        "is_unitary": cplx.is_unitary(ueb.op(d - 1, d - 1)),
        "hadamard": hadamard_residuals(Hadamard(d, chi)),
        "hadamard stack": hadamard_residuals(ueb.flat() * np.sqrt(d)),
        "is_dephased": is_dephased(chi),
        "controlled_hadamard": controlled_hadamard_residuals(controlled_from_copies(chi, d)),
        "is_mub_pair": is_mub_pair(np.eye(d), ueb.op(1 % d, 1 % d), d),
        "bases_match": bases_match(ueb.op(0, 0), ueb.op(1 % d, 0)),
    })
    return ueb, reports


def both_dtypes(ops, monkeypatch):
    """The law reports of a float64 table and of its complex128 copy, with
    the additive characters of GF(d) as the Hadamard."""
    chi = additive_character_matrix(new_field(2, len(ops).bit_length() - 1)).matrix
    real, real_reports = law_reports(ops, chi)
    assert real.ops.dtype == np.float64
    with monkeypatch.context() as m:
        m.setattr(cplx, "as_matrix", complex_as_matrix)
        copy, copy_reports = law_reports(ops.astype(np.complex128), chi.astype(np.complex128))
    assert copy.ops.dtype == np.complex128
    return real_reports, copy_reports


def assert_same_reports(real, copy, d):
    """Equal verdicts; identical residual reprs except for the trace-law
    Gram, whose sums dgemm and zgemm take in different orders. Each computed
    Gram entry is a dot product of length d^2 with sum |a_i b_i| <= d, so it
    is within d^2 * eps/2 * d of the exact one, and the two residuals within
    twice that."""
    trace_real, trace_copy = real.pop("ueb_trace_law"), copy.pop("ueb_trace_law")
    assert trace_real["pass"] == trace_copy["pass"]
    assert abs(trace_real["residual"] - trace_copy["residual"]) <= d ** 3 * EPS
    assert repr(real) == repr(copy)


def law_tables(n):
    """The field table of GF(2^n), its chi-canonical form and a conjugate by a
    seeded real orthogonal matrix: all float64."""
    f = new_field(2, n)
    ueb = ueb_from_field(f)
    chi = additive_character_matrix(f).matrix / np.sqrt(f.d)
    q = random_orthogonal(f.d, np.random.default_rng(n))
    return {"field": ueb, "canonical": conjugate_ueb(ueb, chi), "orthogonal": conjugate_ueb(ueb, q)}


@pytest.mark.parametrize("kind", ["field", "canonical", "orthogonal"])
@pytest.mark.parametrize("n", range(1, 6))
def test_laws_agree_on_float64_table_and_complex128_copy(n, kind, monkeypatch):
    ops = law_tables(n)[kind].ops
    assert ops.dtype == np.float64
    real, copy = both_dtypes(ops, monkeypatch)
    assert all(r["pass"] for r in real.values() if isinstance(r, dict))
    assert_same_reports(real, copy, 2 ** n)


@pytest.mark.parametrize("kind", ["field", "canonical", "orthogonal"])
@pytest.mark.parametrize("n", range(1, 5))
def test_theta_and_eigendata_agree_on_float64_table_and_complex128_copy(n, kind, monkeypatch):
    table = law_tables(n)[kind]
    family = mub_from_ueb(table, seed=n)
    diagonalize, drawn = cplx._diagonalize, []

    def recorded(mats, *args):
        drawn.append(mats.dtype)
        return diagonalize(mats, *args)

    with monkeypatch.context() as m:
        m.setattr(cplx, "as_matrix", complex_as_matrix)
        m.setattr(cplx, "_diagonalize", recorded)
        copy = PartitionedUeb(table.d, table.ops.astype(np.complex128))
        assert copy.ops.dtype == np.complex128
        copy_family = mub_from_ueb(copy, seed=n)
        copy_eig = eigendata(copy, seed=n) if kind == "canonical" else None
    # the copy's classes are diagonalized in complex arithmetic
    assert drawn and set(drawn) == {np.dtype(np.complex128)}
    assert np.array_equal(family.bases, copy_family.bases)
    assert repr(mub_residuals(family)) == repr(mub_residuals(copy_family))
    if copy_eig is not None:
        fam, h, g = eigendata(table, seed=n)
        assert np.array_equal(fam.bases, copy_eig[0].bases)
        assert np.array_equal(h.members, copy_eig[1].members)
        assert np.array_equal(g.matrix, copy_eig[2].matrix)


@pytest.mark.parametrize("kind", ["field", "canonical", "orthogonal"])
@pytest.mark.parametrize("n", [2, 4])
def test_mutations_fail_on_both_dtypes(n, kind, monkeypatch):
    ops = law_tables(n)[kind].ops

    perturbed = ops.copy()
    perturbed[1, 2, 0, 0] += 1e-3
    for reports in both_dtypes(perturbed, monkeypatch):
        assert not reports["ueb_unitarity"]["pass"] and not reports["ueb_trace_law"]["pass"]

    # two members of different classes swap places: still a UEB, but each
    # class now holds a member that does not commute with the rest
    swapped = ops.copy()
    swapped[[1, 2], 1] = swapped[[2, 1], 1]
    real, copy = both_dtypes(swapped, monkeypatch)
    for reports in (real, copy):
        assert reports["ueb_unitarity"]["pass"] and reports["ueb_trace_law"]["pass"]
        assert not reports["ueb_class_commutators"]["pass"]
    assert_same_reports(real, copy, 2 ** n)
