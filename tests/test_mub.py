import numpy as np
import pytest

from mubkit.cplx import max_abs, simultaneous_eigenbasis
from mubkit.errors import NotPartitionedUeb, NotUnitary, WrongFamilySize
from mubkit.gf import new_field
from mubkit.construct import PartitionedUeb, ueb_from_field
from mubkit.mub import (
    MubFamily,
    bases_match,
    is_maximal_mub_family,
    is_mub_pair,
    mub_from_ueb,
    mub_residuals,
)

FOURIER2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
YBASIS = np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2)


def pauli_family():
    return MubFamily(2, [np.eye(2, dtype=complex), FOURIER2, YBASIS])


def test_is_mub_pair():
    assert is_mub_pair(np.eye(2), FOURIER2, 2)
    assert not is_mub_pair(np.eye(2), np.eye(2), 2)
    with pytest.raises(NotUnitary):
        is_mub_pair(np.eye(2), np.array([[1, 1], [1, -1]], dtype=complex), 2)


def test_family_size_enforced():
    with pytest.raises(WrongFamilySize):
        MubFamily(2, [np.eye(2), FOURIER2])
    with pytest.raises(WrongFamilySize):
        MubFamily(2, [np.eye(2), FOURIER2, YBASIS, FOURIER2])


def test_family_labels_and_lookup():
    fam = pauli_family()
    assert fam.labels == ["*", "0", "1"]
    assert np.array_equal(fam.basis("*"), np.eye(2))
    assert np.array_equal(fam.basis(0), FOURIER2)
    assert np.array_equal(fam.basis("1"), YBASIS)


def test_pauli_eigenbases_are_maximal():
    assert is_maximal_mub_family(pauli_family())


def test_duplicated_basis_fails():
    fam = MubFamily(2, [np.eye(2, dtype=complex), FOURIER2, FOURIER2])
    assert not is_maximal_mub_family(fam)
    [entry] = mub_residuals(fam)
    assert entry["equation"] == "maximal_mub_overlaps" and not entry["pass"]
    assert abs(entry["residual"] - 0.5) < 1e-12


def test_bases_match_permuted_and_phased():
    rng = np.random.default_rng(0)
    perm = rng.permutation(4)
    phases = np.exp(2j * np.pi * rng.random(4))
    b = simultaneous_eigenbasis(ueb_from_field(new_field(2, 2)).class_ops(2), seed=1)
    assert bases_match(b, b[:, perm] * phases)
    assert not bases_match(np.eye(2), FOURIER2)


def test_theta_d2_closed_forms():
    ueb = ueb_from_field(new_field(2, 1))
    fam = mub_from_ueb(ueb, seed=0)
    # the shift class {X} has the Fourier eigenbasis
    assert bases_match(fam.basis("*"), FOURIER2)
    # class 0 = {Z} is diagonal, class 1 = {[[0,-1],[1,0]]} has the Y eigenbasis
    assert bases_match(fam.basis(0), np.eye(2))
    assert bases_match(fam.basis(1), YBASIS)
    assert is_maximal_mub_family(fam, 1e-8)


def test_theta_classes_diagonal_in_extracted_bases():
    ueb = ueb_from_field(new_field(3, 1))
    fam = mub_from_ueb(ueb, seed=0)
    for x in range(3):
        b = fam.basis(x)
        for u in ueb.class_ops(x):
            conj = b.conj().T @ u @ b
            assert max_abs(conj - np.diag(np.diag(conj))) < 1e-9
    star = fam.basis("*")
    for u in ueb.class_star():
        conj = star.conj().T @ u @ star
        assert max_abs(conj - np.diag(np.diag(conj))) < 1e-9


def test_theta_canonical_shortcut_returns_identity():
    from mubkit.construct import conjugate_ueb
    from mubkit.characters import additive_character_matrix

    f = new_field(2, 2)
    chi = additive_character_matrix(f).matrix
    canonical = conjugate_ueb(ueb_from_field(f), chi / 2.0)
    fam = mub_from_ueb(canonical, seed=0)
    assert np.array_equal(fam.basis("*"), np.eye(4))


def test_theta_rejects_non_ueb():
    eye = np.eye(2, dtype=complex)
    table = PartitionedUeb(2, [[eye, eye], [eye, eye]])
    with pytest.raises(NotPartitionedUeb):
        mub_from_ueb(table)


def test_theta_all_diagonal_negative_control():
    """Diagonal classes share the computational eigenbasis: θ refuses the
    table, and the per-class eigenbases collapse into a family that fails
    maximality."""
    eye = np.eye(2, dtype=complex)
    table = PartitionedUeb(2, [
        [eye, np.diag([1.0, 1j]).astype(complex)],
        [np.diag([1.0, -1.0]).astype(complex), np.diag([1.0, -1j]).astype(complex)],
    ])
    with pytest.raises(NotPartitionedUeb):
        mub_from_ueb(table, seed=0)
    bases = [simultaneous_eigenbasis(table.class_ops(x), seed=1 + x) for x in range(2)]
    for b in bases:
        assert bases_match(b, eye)
    assert not is_maximal_mub_family(MubFamily(2, [eye] + bases))


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_theta_of_field_construction_is_maximal(p, n):
    fam = mub_from_ueb(ueb_from_field(new_field(p, n)), seed=0)
    assert len(fam.bases) == p**n + 1
    assert is_maximal_mub_family(fam, 1e-8)


def test_computational_unbiased_to_extracted_bases_in_canonical_form():
    from mubkit.characters import additive_character_matrix
    from mubkit.construct import conjugate_ueb

    f = new_field(2, 2)
    chi = additive_character_matrix(f).matrix
    canonical = conjugate_ueb(ueb_from_field(f), chi / 2.0)
    fam = mub_from_ueb(canonical, seed=0)
    for x in range(4):
        assert is_mub_pair(np.eye(4), fam.basis(x), 4, 1e-8)
