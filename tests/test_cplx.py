import numpy as np
import pytest

from mubkit import cplx
from mubkit.characters import ControlledHadamard, Hadamard
from mubkit.construct import PartitionedUeb
from mubkit.errors import (
    DegenerateFamily,
    NotCommuting,
    NotHermitian,
    NotUnitary,
    ShapeMismatch,
)
from mubkit.mub import MubFamily

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def random_unitary(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_non_finite_rejected():
    with pytest.raises(ShapeMismatch):
        cplx.as_matrix(np.array([[np.nan, 0], [0, 1]]))


def _innermost_row(nested):
    while isinstance(nested[-1], list):
        nested = nested[-1]
    return nested


def _malformed(shape, defect):
    """An input of ``shape`` (trailing axes square) spoiled by one defect."""
    if defect == "non-square":
        return np.ones(shape[:-1] + (shape[-1] + 1,))
    if defect == "non-finite":
        bad = np.ones(shape)
        bad.flat[-1] = np.inf
        return bad
    nested = np.ones(shape).tolist()
    if defect == "ragged":
        _innermost_row(nested).pop()
    else:
        _innermost_row(nested)[-1] = "a"
    return nested


CHECKED_INPUTS = {
    "Hadamard": ((2, 2), lambda m: Hadamard(2, m)),
    "MubFamily": ((3, 2, 2), lambda bases: MubFamily(2, bases)),
    "ControlledHadamard": ((2, 2, 2), lambda members: ControlledHadamard(2, members)),
    "PartitionedUeb": ((2, 2, 2, 2), lambda ops: PartitionedUeb(2, ops)),
    "simultaneous_eigenbasis": ((2, 2, 2), cplx.simultaneous_eigenbasis),
}


@pytest.mark.parametrize("defect", ["ragged", "non-numeric", "non-square", "non-finite"])
@pytest.mark.parametrize("shape,make", CHECKED_INPUTS.values(), ids=CHECKED_INPUTS.keys())
def test_every_matrix_input_is_judged_by_one_check(shape, make, defect):
    """Malformed matrix input raises ShapeMismatch, never a bare ValueError
    or TypeError, whichever object or function receives it."""
    with pytest.raises(ShapeMismatch):
        make(_malformed(shape, defect))


def test_is_unitary():
    assert cplx.is_unitary(np.eye(5))
    assert not cplx.is_unitary(np.array([[1, 1], [1, -1]], dtype=complex), 1e-9)


def stack_with_planted_pair(k, d, i, j, rng):
    """k unitaries diagonal in one random basis V and degenerate on its first
    two vectors, except member i; member j also mixes those two vectors, so
    (i, j) is the only pair that does not commute."""
    phases = np.exp(2j * np.pi * rng.random((k, d)))
    phases[:, 1] = phases[:, 0]
    phases[i, 1] = -phases[i, 0]
    diag = np.zeros((k, d, d), dtype=complex)
    diag[:, range(d), range(d)] = phases
    diag[j, :2, :2] = random_unitary(2, rng)
    v = random_unitary(d, rng)
    return v @ diag @ v.conj().T


def test_commutator_residual_matches_pairwise_reference():
    stack = stack_with_planted_pair(6, 5, 1, 4, np.random.default_rng(3))
    pairs = {(i, j): cplx.max_abs(stack[i] @ stack[j] - stack[j] @ stack[i])
             for i in range(6) for j in range(i + 1, 6)}
    worst, pair = cplx.commutator_residual(stack)
    assert pair == (1, 4) and worst == pairs[1, 4] == max(pairs.values()) > 1e-3
    assert all(r < 1e-12 for ij, r in pairs.items() if ij != (1, 4))
    assert cplx.commutator_residual(np.delete(stack, 4, axis=0))[0] < 1e-12
    assert cplx.commutator_residual([X, Z]) == (2.0, (0, 1))
    assert cplx.commutator_residual(stack[:1]) == (0.0, None)


def test_unitarity_residual_matches_per_matrix_reference():
    rng = np.random.default_rng(4)
    stack = np.stack([random_unitary(4, rng) for _ in range(5)])
    stack[2] *= 1.5
    reference = max(cplx.max_abs(u.conj().T @ u - np.eye(4)) for u in stack)
    assert cplx.unitarity_residual(stack) == reference
    assert reference == pytest.approx(1.25)
    assert cplx.unitarity_residual(np.delete(stack, 2, axis=0)) < 1e-12
    assert cplx.unitarity_residual(np.zeros((0, 3, 3))) == 0.0


def test_offdiag_residual_matches_per_matrix_reference():
    stack = stack_with_planted_pair(4, 6, 0, 2, np.random.default_rng(5))
    w = cplx.simultaneous_eigenbasis(np.delete(stack, 2, axis=0))
    reference = max(cplx.max_abs(c - np.diag(np.diag(c)))
                    for c in (w.conj().T @ u @ w for u in stack))
    assert cplx.offdiag_residual(w.conj().T @ stack @ w) == reference > 1e-3
    assert cplx.offdiag_residual(w.conj().T @ np.delete(stack, 2, axis=0) @ w) < 1e-9
    assert cplx.offdiag_residual([Z, np.diag([1j, 1.0])]) == 0.0
    assert cplx.offdiag_residual([Z, X]) == 1.0
    assert cplx.offdiag_residual(np.zeros((0, 2, 2))) == 0.0


def test_eig_diagonal_permutation():
    decomp = cplx.eig_hermitian(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(decomp.values, [1.0, 2.0, 3.0])
    perm = np.abs(decomp.vectors)
    assert np.allclose(perm @ perm.T, np.eye(3), atol=1e-12)
    assert np.allclose(np.sort(perm.ravel())[-3:], 1.0)


def test_eig_two_by_two_closed_form():
    decomp = cplx.eig_hermitian(X)
    assert np.allclose(decomp.values, [-1.0, 1.0], atol=1e-12)
    v = decomp.vectors
    assert np.allclose(np.abs(v), 1 / np.sqrt(2), atol=1e-12)
    assert np.allclose(X @ v, v @ np.diag(decomp.values), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_eig_reconstructs_random_hermitian(d):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = (a + a.conj().T) / 2
    decomp = cplx.eig_hermitian(a)
    recon = decomp.vectors @ np.diag(decomp.values) @ decomp.vectors.conj().T
    assert cplx.max_abs(a - recon) < 1e-11
    assert cplx.max_abs(decomp.vectors.conj().T @ decomp.vectors - np.eye(d)) < 1e-12
    assert np.all(np.diff(decomp.values) >= 0)


def test_eig_recovers_planted_spectrum():
    rng = np.random.default_rng(99)
    d = 8
    v = random_unitary(d, rng)
    lam = np.sort(rng.standard_normal(d))
    a = v @ np.diag(lam) @ v.conj().T
    decomp = cplx.eig_hermitian(a)
    assert np.allclose(decomp.values, lam, atol=1e-10)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        cplx.eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_simdiag_single_diagonal():
    # columns are exactly the standard basis vectors, in combination order
    w = cplx.simultaneous_eigenbasis([Z], seed=3)
    assert sorted(np.argmax(np.abs(w), axis=0)) == [0, 1]
    assert np.allclose(np.sort(np.abs(w).ravel()), [0, 0, 1, 1], atol=1e-12)


def test_simdiag_x():
    w = cplx.simultaneous_eigenbasis([X], seed=4)
    assert np.allclose(np.abs(w), 1 / np.sqrt(2), atol=1e-12)
    # phase convention makes the pivot component real positive
    conj = w.conj().T @ X @ w
    assert cplx.max_abs(conj - np.diag(np.diag(conj))) < 1e-9


def test_simdiag_field_class():
    from mubkit.construct import ueb_from_field
    from mubkit.gf import new_field

    ueb = ueb_from_field(new_field(2, 2))
    family = ueb.class_ops(1)
    w = cplx.simultaneous_eigenbasis(family, seed=0)
    assert cplx.max_abs(w.conj().T @ w - np.eye(4)) < 1e-10
    for u in family:
        conj = w.conj().T @ u @ w
        assert cplx.max_abs(conj - np.diag(np.diag(conj))) < 1e-10


def test_simdiag_rejects_bad_families():
    with pytest.raises(NotCommuting, match="members 0 and 1"):
        cplx.simultaneous_eigenbasis([X, Z])
    with pytest.raises(NotCommuting, match="members 1 and 4"):
        cplx.simultaneous_eigenbasis(stack_with_planted_pair(5, 4, 1, 4, np.random.default_rng(6)))
    with pytest.raises(ShapeMismatch):
        cplx.simultaneous_eigenbasis([X, np.eye(3)])
    with pytest.raises(ShapeMismatch):
        cplx.simultaneous_eigenbasis(np.zeros((0, 2, 2)))
    with pytest.raises(NotUnitary):
        cplx.simultaneous_eigenbasis([np.array([[1, 1], [1, -1]], dtype=complex)])


def test_simdiag_unreachable_tolerance_reports_degeneracy():
    # exactly commuting pair, but a tolerance below what the eigensolver can
    # deliver: every redraw fails the diagonality check and the retry budget
    # converts that into the degenerate-family signal
    family = [np.kron(X, np.eye(2)), np.kron(np.eye(2), X)]
    with pytest.raises(DegenerateFamily):
        cplx.simultaneous_eigenbasis(family, tol=1e-16)


def test_simdiag_deterministic():
    rng = np.random.default_rng(7)
    v = random_unitary(4, rng)
    family = [v @ np.diag(np.exp(2j * np.pi * rng.random(4))) @ v.conj().T for _ in range(2)]
    w1 = cplx.simultaneous_eigenbasis(family, seed=11)
    w2 = cplx.simultaneous_eigenbasis(family, seed=11)
    assert np.array_equal(w1, w2)


def test_phase_normalize_idempotent():
    rng = np.random.default_rng(5)
    w = random_unitary(6, rng)
    once = cplx.phase_normalize(w)
    twice = cplx.phase_normalize(once)
    assert cplx.max_abs(once - twice) < 1e-14


def test_unit_root_exact_quarters():
    assert cplx.unit_root(0, 2) == 1
    assert cplx.unit_root(1, 2) == -1
    assert cplx.unit_root(1, 4) == 1j
    assert cplx.unit_root(3, 4) == -1j
    z = cplx.unit_root(1, 3)
    assert abs(z - np.exp(2j * np.pi / 3)) < 1e-15
