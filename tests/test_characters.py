import numpy as np
import pytest

from mubkit import cplx
from mubkit.characters import (
    ControlledHadamard,
    Hadamard,
    additive_character_matrix,
    controlled_from_copies,
    controlled_hadamard_residuals,
    hadamard_residuals,
    is_controlled_hadamard,
    is_dephased,
    is_hadamard,
    mub_from_controlled_hadamard,
    multiplicative_character_matrix,
)
from mubkit.errors import NotControlledHadamard, ShapeMismatch
from mubkit.gf import new_field

from golden import CHI_4

DFT2 = np.array([[1, 1], [1, -1]], dtype=complex)


def test_chi_gf4_matches_published_table():
    chi = additive_character_matrix(new_field(2, 2)).matrix
    assert np.array_equal(chi, CHI_4.astype(complex))


def test_chi_row_zero_all_ones():
    for p, n in [(2, 2), (3, 1), (5, 1), (3, 2)]:
        chi = additive_character_matrix(new_field(p, n)).matrix
        assert np.array_equal(chi[0, :], np.ones(p**n))
        assert np.array_equal(chi[:, 0], np.ones(p**n))


def test_chi_gf3_primitive_root_of_unity():
    chi = additive_character_matrix(new_field(3, 1)).matrix
    assert abs(chi[1, 1] - np.exp(2j * np.pi / 3)) < 1e-15


def test_chi_always_dephased():
    for p, n in [(2, 1), (2, 2), (3, 1), (5, 1), (2, 3), (3, 2), (7, 1)]:
        chi = additive_character_matrix(new_field(p, n))
        assert is_dephased(chi, 1e-9)


def test_chi_character_homomorphism():
    for p, n in [(2, 2), (3, 2), (5, 1), (2, 3)]:
        f = new_field(p, n)
        chi = additive_character_matrix(f).matrix
        for i in range(f.d):
            for x in range(f.d):
                for y in range(f.d):
                    assert abs(chi[i, f.add(x, y)] - chi[i, x] * chi[i, y]) < 1e-12


def test_chi_mixed_law():
    for p, n in [(2, 2), (3, 1), (2, 3)]:
        f = new_field(p, n)
        chi = additive_character_matrix(f).matrix
        for a in range(f.d):
            for b in range(f.d):
                assert abs(chi[a, b] - chi[1, f.mul(a, b)]) < 1e-12


def test_psi_gf4_is_order_three_fourier():
    psi = multiplicative_character_matrix(new_field(2, 2)).matrix
    w = np.exp(2j * np.pi / 3)
    want = np.array([[1, 1, 1], [1, w, w**2], [1, w**2, w**4]])
    assert np.allclose(psi, want, atol=1e-14)
    assert np.allclose(psi[0, :], 1.0)


def test_psi_gf2_trivial():
    psi = multiplicative_character_matrix(new_field(2, 1)).matrix
    assert np.array_equal(psi, np.ones((1, 1)))


@pytest.mark.parametrize("p,n", [(2, 2), (5, 1), (3, 3), (2, 5)])
def test_psi_equals_per_entry_unit_roots(p, n):
    f = new_field(p, n)
    m = f.d - 1
    want = np.array([[cplx.unit_root(j * f.dlog(a), m) for a in range(1, f.d)] for j in range(m)])
    assert np.array_equal(multiplicative_character_matrix(f).matrix, want)


def test_psi_rows_orthogonal():
    for p, n in [(2, 2), (3, 1), (5, 1), (2, 3), (3, 2)]:
        f = new_field(p, n)
        psi = multiplicative_character_matrix(f).matrix
        m = f.d - 1
        assert np.max(np.abs(psi @ psi.conj().T - m * np.eye(m))) < 1e-10


def test_is_hadamard():
    assert is_hadamard(additive_character_matrix(new_field(2, 2)))
    assert not is_hadamard(np.eye(2))
    assert hadamard_residuals(np.eye(2)) == [
        {"equation": "hadamard_unit_modulus", "residual": 1.0, "pass": False},
        {"equation": "hadamard_gram", "residual": 1.0, "pass": False},
    ]
    h = np.array([[1, 1j], [1, -1j]])
    assert is_hadamard(h)
    assert not is_dephased(h)
    with pytest.raises(ShapeMismatch):
        is_hadamard(np.ones((2, 3)))


def test_controlled_hadamard_checks():
    chi = additive_character_matrix(new_field(2, 2))
    fam = controlled_from_copies(chi, 4)
    assert is_controlled_hadamard(fam)
    broken = ControlledHadamard(4, [Hadamard(4, chi.matrix.copy()) for _ in range(4)])
    broken.members[2] = np.eye(4)
    assert not is_controlled_hadamard(broken)
    # the worst member residual: |I I† - 4 I| = 3
    assert controlled_hadamard_residuals(broken) == [
        {"equation": "controlled_hadamard", "residual": 3.0, "pass": False}
    ]
    single = ControlledHadamard(1, [Hadamard(2, DFT2)])
    assert is_controlled_hadamard(single)


def test_stacked_laws_report_the_worst_member():
    """Against a per-member loop: a stack's residuals are its worst member's,
    and it is dephased only when every member is."""
    chi = additive_character_matrix(new_field(3, 1)).matrix
    clean = np.repeat(chi[None], 4, axis=0)
    assert is_dephased(clean) and all(is_dephased(m) for m in clean)

    stack = clean.copy()
    stack[2, 1, 1] *= 1 + 1e-6
    per_member = [hadamard_residuals(m) for m in stack]
    worst = [max(rows, key=lambda r: r["residual"]) for rows in zip(*per_member)]
    assert not any(r["pass"] for r in worst)
    assert hadamard_residuals(stack) == worst

    stack = clean.copy()
    stack[1, 0] *= 1j  # rephasing a row keeps a Hadamard but breaks dephasing
    assert is_hadamard(stack) and not is_dephased(stack)
    assert [is_dephased(m) for m in stack] == [True, False, True, True]


def test_controlled_hadamard_member_count_enforced():
    with pytest.raises(ShapeMismatch):
        ControlledHadamard(3, [Hadamard(2, DFT2)])


def test_mub_from_controlled_hadamard_single_member():
    bases = mub_from_controlled_hadamard(ControlledHadamard(1, [Hadamard(2, DFT2)]))
    want = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(bases[0], want)


def test_mub_from_controlled_hadamard_gf4():
    f = new_field(2, 2)
    fam = controlled_from_copies(additive_character_matrix(f), 4)
    bases = mub_from_controlled_hadamard(fam)
    for b in bases:
        # column 0 of a dephased member is the uniform-phase state
        assert np.allclose(b[:, 0], 0.5)
        # unbiased to the computational basis
        assert np.allclose(np.abs(b) ** 2, 0.25, atol=1e-12)
        assert np.allclose(b.conj().T @ b, np.eye(4), atol=1e-12)


def test_mub_from_controlled_hadamard_rejects_bad_family():
    bad = ControlledHadamard(2, [Hadamard(2, DFT2), Hadamard(2, np.eye(2, dtype=complex))])
    with pytest.raises(NotControlledHadamard):
        mub_from_controlled_hadamard(bad)
