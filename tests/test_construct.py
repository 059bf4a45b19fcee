import warnings

import numpy as np
import pytest

from mubkit.characters import (
    Hadamard,
    additive_character_matrix,
    controlled_from_copies,
)
from mubkit.cplx import max_abs
from mubkit.errors import (
    DephasingWarning,
    NotCanonicalForm,
    NotHadamard,
    NotLatinSquare,
    NotPartitionedUeb,
    NotUnitary,
    PreconditionFailed,
)
from mubkit.gf import new_field
from mubkit.mub import MubFamily, bases_match, mub_from_ueb
from mubkit.construct import (
    PartitionedUeb,
    conjugate_ueb,
    eigendata,
    is_latin_square,
    is_partitioned_ueb,
    is_ueb,
    partition_residuals,
    shift_multiply_ueb,
    ueb_from_field,
    ueb_from_mub,
    ueb_residuals,
)

from golden import MISPRINTED, SPURIOUS_POSITION, corrected, printed

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
XZ = np.array([[0, -1], [1, 0]], dtype=complex)
DFT2 = np.array([[1, 1], [1, -1]], dtype=complex)


def assert_predicates_match_residuals(table, tol=1e-9):
    """is_ueb / is_partitioned_ueb are all(pass) over the residual lists."""
    ueb_laws = ueb_residuals(table, tol)
    assert [r["equation"] for r in ueb_laws] == ["ueb_unitarity", "ueb_trace_law"]
    assert is_ueb(table, tol) == all(r["pass"] for r in ueb_laws)
    laws = ueb_laws + partition_residuals(table, tol)
    assert is_partitioned_ueb(table, tol) == all(r["pass"] for r in laws)


def test_gf2_construction_is_pauli_like():
    ueb = ueb_from_field(new_field(2, 1))
    assert np.array_equal(ueb.op(0, 0), I2)
    assert np.array_equal(ueb.op(1, 0), X)
    assert np.array_equal(ueb.op(0, 1), Z)
    assert np.array_equal(ueb.op(1, 1), XZ)


def test_gf4_construction_reproduces_published_table():
    ueb = ueb_from_field(new_field(2, 2))
    for x in range(4):
        for a in range(4):
            got = ueb.op(x, a)
            assert np.array_equal(got.imag, np.zeros((4, 4)))
            assert np.array_equal(got.real, corrected(x, a).astype(float))


def test_published_misprints_are_non_unitary():
    from mubkit.cplx import is_unitary

    for x, a in MISPRINTED:
        assert not is_unitary(printed(x, a).astype(complex), 1e-9)
        assert is_unitary(corrected(x, a).astype(complex), 1e-9)
        diff = printed(x, a) - corrected(x, a)
        nz = np.argwhere(diff != 0)
        assert [tuple(r) for r in nz] == [SPURIOUS_POSITION]


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_field_construction_laws(p, n):
    ueb = ueb_from_field(new_field(p, n))
    d = p**n
    assert is_ueb(ueb, 1e-12)
    assert is_partitioned_ueb(ueb, 1e-12)
    assert_predicates_match_residuals(ueb, 1e-12)
    assert len(ueb.class_star()) == d - 1
    for x in range(d):
        assert len(ueb.class_ops(x)) == d - 1


def test_pauli_table_is_partitioned_ueb():
    table = PartitionedUeb(2, [[I2, Z], [X, Y]])
    assert is_partitioned_ueb(table)
    assert_predicates_match_residuals(table)


def test_accessors_are_views_of_the_operator_array():
    ueb = ueb_from_field(new_field(3, 1))
    assert ueb.ops.shape == (3, 3, 3, 3) and ueb.ops.dtype == np.complex128
    assert np.shares_memory(ueb.flat(), ueb.ops)
    assert np.shares_memory(ueb.class_ops(1), ueb.ops)
    assert np.shares_memory(ueb.class_star(), ueb.ops)
    assert np.shares_memory(ueb.op(2, 1), ueb.ops)


def test_duplicate_operator_breaks_trace_law():
    ueb = ueb_from_field(new_field(2, 2))
    ops = [list(row) for row in ueb.ops]
    ops[1][1] = ops[1][2]
    assert not is_ueb(PartitionedUeb(4, ops))
    assert_predicates_match_residuals(PartitionedUeb(4, ops))


def test_is_latin_square():
    f = new_field(2, 2)
    assert is_latin_square(f.add_table)
    assert not is_latin_square([[0, 1], [0, 1]])


def test_shift_multiply_gf2_matches_field_construction():
    f = new_field(2, 1)
    table = shift_multiply_ueb(f.add_table, Hadamard(2, DFT2))
    # V_{a, a*x} = U_{x, a}: here d=2 so the relabeling is (x,a) -> (a, a*x)
    ueb = ueb_from_field(f)
    assert np.array_equal(table[0][1], ueb.op(1, 0))  # shift by 1, trivial phase
    assert np.array_equal(table[1][0], ueb.op(0, 1))  # phase row 1, no shift
    assert is_ueb(table)


def test_shift_multiply_z4_cyclic():
    idx = np.arange(4)
    latin = (idx[:, None] + idx[None, :]) % 4
    dft4 = np.array([[1j ** ((j * k) % 4) for k in range(4)] for j in range(4)])
    table = shift_multiply_ueb(latin, Hadamard(4, dft4))
    assert is_ueb(table, 1e-12)


def test_shift_multiply_identity_slot():
    f = new_field(3, 1)
    chi = additive_character_matrix(f)
    table = shift_multiply_ueb(f.add_table, chi)
    # row 0 of a dephased Hadamard and shift column 0 give the identity
    assert np.allclose(table[0][0], np.eye(3))


def test_shift_multiply_errors():
    with pytest.raises(NotLatinSquare):
        shift_multiply_ueb([[0, 1], [0, 1]], Hadamard(2, DFT2))
    with pytest.raises(NotHadamard):
        shift_multiply_ueb(new_field(2, 1).add_table, Hadamard(2, np.eye(2, dtype=complex)))


def test_field_construction_matches_shift_multiply_fingerprint():
    """Both constructions pass the UEB laws and generate the same operator
    set up to the trace-law pairing."""
    f = new_field(2, 2)
    chi = additive_character_matrix(f)
    ueb = ueb_from_field(f).flat()
    table = shift_multiply_ueb(f.add_table, chi)
    flat = np.stack([table[i][j] for i in range(4) for j in range(4)])
    gram = np.abs(np.einsum("aij,bij->ab", ueb.conj(), flat))
    hits = gram > 4 - 1e-9
    assert np.all(hits.sum(axis=0) == 1)
    assert np.all(hits.sum(axis=1) == 1)


def pauli_mub():
    fourier = DFT2 / np.sqrt(2)
    ybasis = np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2)
    return MubFamily(2, [I2, fourier, ybasis])


def test_phi_d2_spectral_sums():
    fam = pauli_mub()
    controlled = controlled_from_copies(Hadamard(2, DFT2), 2)
    ueb = ueb_from_mub(fam, controlled, Hadamard(2, DFT2))
    # |+><+| - |-><-| = X
    assert np.allclose(ueb.op(0, 1), X, atol=1e-12)
    # diagonal class from columns of G
    assert np.allclose(ueb.op(0, 0), I2, atol=1e-12)
    assert np.allclose(ueb.op(1, 0), Z, atol=1e-12)
    assert np.allclose(np.abs(ueb.op(1, 1)), np.abs(Y), atol=1e-12)
    assert is_partitioned_ueb(ueb, 1e-9)


def test_phi_rejects_bad_inputs():
    fam = pauli_mub()
    controlled = controlled_from_copies(Hadamard(2, DFT2), 2)
    with pytest.raises(PreconditionFailed, match="G: is_hadamard"):
        ueb_from_mub(fam, controlled, Hadamard(2, np.eye(2, dtype=complex)))
    bad_fam = MubFamily(2, [I2, I2, pauli_mub().basis(1)])
    with pytest.raises(PreconditionFailed, match="is_maximal_mub_family"):
        ueb_from_mub(bad_fam, controlled, Hadamard(2, DFT2))


def test_phi_warns_on_relaxed_dephasing():
    """Column conditions hold but the first row is rephased: accepted with a
    warning, and the output still satisfies every law."""
    fam = pauli_mub()
    rephased = DFT2 * np.exp(1j * np.pi / 5)  # unit column ... no longer ones
    rephased[:, 0] = 1.0  # restore the ones column, rows stay rephased
    controlled = controlled_from_copies(Hadamard(2, rephased), 2)
    with pytest.warns(DephasingWarning):
        ueb = ueb_from_mub(fam, controlled, Hadamard(2, DFT2))
    assert is_partitioned_ueb(ueb, 1e-9)


def test_eigendata_round_trip_gf3():
    f = new_field(3, 1)
    chi = additive_character_matrix(f).matrix
    canonical = conjugate_ueb(ueb_from_field(f), chi / np.sqrt(3))
    fam, controlled, g = eigendata(canonical, seed=0)
    assert np.array_equal(fam.basis("*"), np.eye(3))
    for x in range(3):
        assert np.allclose(controlled.member(x)[:, 0], 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DephasingWarning)
        rebuilt = ueb_from_mub(fam, controlled, g)
    for x in range(3):
        for a in range(3):
            assert max_abs(rebuilt.op(x, a) - canonical.op(x, a)) < 1e-10


def test_eigendata_d2_diagonal_readoff():
    table = PartitionedUeb(2, [[I2, X], [Z, Y]])
    # C_* = {Z} diagonal, C_0 = {X}, C_1 = {Y}
    fam, controlled, g = eigendata(table, seed=0)
    assert np.allclose(g.matrix, DFT2)
    assert np.array_equal(fam.basis("*"), I2)


def test_eigendata_requires_canonical_form():
    ueb = ueb_from_field(new_field(2, 1))  # shift class, not diagonal
    with pytest.raises(NotCanonicalForm):
        eigendata(ueb)
    with pytest.raises(NotPartitionedUeb):  # diagonal, but fails the laws
        eigendata(PartitionedUeb(2, [[I2, I2], [Z, I2]]))


def test_phi_theta_identity_on_extracted_family():
    f = new_field(3, 1)
    chi = additive_character_matrix(f)
    fam = mub_from_ueb(ueb_from_field(f), seed=0)
    controlled = controlled_from_copies(chi, 3)
    rebuilt = ueb_from_mub(fam, controlled, chi)
    assert is_partitioned_ueb(rebuilt, 1e-9)
    fam2 = mub_from_ueb(rebuilt, seed=5)
    for k in range(4):
        assert bases_match(fam2.bases[k], fam.bases[k], 1e-8)


def test_conjugation_preserves_laws():
    f = new_field(2, 1)
    ueb = ueb_from_field(f)
    assert np.array_equal(conjugate_ueb(ueb, I2).op(1, 1), ueb.op(1, 1))
    fourier = DFT2 / np.sqrt(2)
    conj = conjugate_ueb(ueb, fourier)
    # F† X F = Z: the shift class becomes diagonal
    assert np.allclose(conj.op(1, 0), Z, atol=1e-12)
    assert is_partitioned_ueb(conj, 1e-10)
    with pytest.raises(NotUnitary):
        conjugate_ueb(ueb, DFT2)


def test_conjugated_gf4_canonical():
    f = new_field(2, 2)
    chi = additive_character_matrix(f).matrix
    conj = conjugate_ueb(ueb_from_field(f), chi / 2.0)
    assert is_partitioned_ueb(conj, 1e-10)
    for u in conj.class_star():
        assert max_abs(u - np.diag(np.diag(u))) < 1e-12
