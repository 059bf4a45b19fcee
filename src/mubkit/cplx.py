"""Dense complex linear algebra for small matrices.

Matrices are plain ``numpy`` arrays of complex128. The module supplies
unitarity/commutation predicates, the residual entry every law check
reports, a Hermitian eigensolver (LAPACK ``eigh``), and simultaneous
diagonalization of commuting unitary families via a seeded random Hermitian
combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFamily,
    NotCommuting,
    NotHermitian,
    NotUnitary,
    ShapeMismatch,
)

DEFAULT_TOL = 1e-9
HERMITIAN_TOL = 1e-12
SIMDIAG_RETRIES = 8


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ShapeMismatch("matrix contains non-finite entries")
    return m


def identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=np.complex128)


def max_abs(a) -> float:
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def residual_entry(equation: str, residual: float, tol: float) -> dict:
    """One law check as every report carries it: the law passes iff its
    residual is below ``tol``."""
    return {"equation": equation, "residual": float(residual), "pass": bool(residual < tol)}


def is_unitary(a, tol: float = DEFAULT_TOL) -> bool:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"unitarity requires a square matrix, got {a.shape}")
    return max_abs(a.conj().T @ a - np.eye(a.shape[0])) < tol


def commutes(a, b, tol: float = DEFAULT_TOL) -> bool:
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"commutator requires equal square shapes, got {a.shape}, {b.shape}")
    return max_abs(a @ b - b @ a) < tol


@dataclass
class EigenDecomposition:
    """Real eigenvalues in ascending order and a unitary matrix of column
    eigenvectors, satisfying A V = V diag(values) to solver tolerance."""

    values: np.ndarray
    vectors: np.ndarray


def eig_hermitian(a, tol: float = HERMITIAN_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by LAPACK ``eigh`` on its
    symmetrized part; raises :class:`NotHermitian` when the input is not
    Hermitian within ``tol``.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"eigendecomposition requires a square matrix, got {a.shape}")
    if max_abs(a - a.conj().T) > max(tol, 1e-12):
        raise NotHermitian(f"matrix deviates from Hermitian by {max_abs(a - a.conj().T):.3g}")
    values, vectors = np.linalg.eigh((a + a.conj().T) / 2.0)
    return EigenDecomposition(values=values, vectors=vectors)


def phase_normalize(basis, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Fix the free phase of each column: the largest-modulus component
    (lowest index on modulus ties within tol) is made real positive.

    Idempotent: renormalizing an already-normalized basis is the identity.
    """
    w = as_matrix(basis).copy()
    for k in range(w.shape[1]):
        col = w[:, k]
        mods = np.abs(col)
        pivot = int(np.flatnonzero(mods >= mods.max() - tol)[0])
        z = col[pivot]
        if abs(z) > 0:
            w[:, k] = col * (np.conj(z) / abs(z))
    return w


def _all_diagonal(family, w, tol: float) -> bool:
    for u in family:
        conj = w.conj().T @ u @ w
        if max_abs(conj - np.diag(np.diag(conj))) >= tol:
            return False
    return True


def simultaneous_eigenbasis(family, tol: float = DEFAULT_TOL, seed: int = 0) -> np.ndarray:
    """Common eigenbasis of a family of commuting unitaries.

    Draws seeded random real coefficients c_k, r_k and diagonalizes the
    Hermitian combination sum_k c_k (U_k + U_k†)/2 + r_k (U_k - U_k†)/(2i).
    If some conjugated family member fails to come out diagonal (the random
    combination hit a degeneracy), redraws, up to 8 attempts, after which
    :class:`DegenerateFamily` signals a genuinely shared eigenspace.

    Columns are ordered by ascending eigenvalue of the combination and
    phase-normalized via :func:`phase_normalize`.
    """
    mats = [as_matrix(u) for u in family]
    if not mats:
        raise ShapeMismatch("empty family")
    d = mats[0].shape[0]
    for u in mats:
        if u.shape != (d, d):
            raise ShapeMismatch(f"family members must all be {d}x{d}, got {u.shape}")
        if not is_unitary(u, tol):
            raise NotUnitary("family member is not unitary within tolerance")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if not commutes(mats[i], mats[j], tol):
                raise NotCommuting(f"family members {i} and {j} do not commute")

    rng = np.random.default_rng(seed)
    herm = [(u + u.conj().T) / 2.0 for u in mats]
    skew = [(u - u.conj().T) / 2.0j for u in mats]
    for _ in range(SIMDIAG_RETRIES):
        c = rng.standard_normal(len(mats))
        r = rng.standard_normal(len(mats))
        a = np.zeros((d, d), dtype=np.complex128)
        for k in range(len(mats)):
            a += c[k] * herm[k] + r[k] * skew[k]
        decomp = eig_hermitian(a, HERMITIAN_TOL)
        w = decomp.vectors
        if _all_diagonal(mats, w, tol):
            return phase_normalize(w, tol)
    raise DegenerateFamily(
        f"no random combination separated the joint eigenspaces in {SIMDIAG_RETRIES} attempts"
    )


def unit_root(num: int, den: int) -> complex:
    """exp(2*pi*i*num/den), exact at quarter-turn multiples so that
    character matrices over small fields come out with integer entries."""
    k = num % den
    if 4 * k % den == 0:
        quarter = 4 * k // den
        return (1 + 0j, 1j, -1 + 0j, -1j)[quarter % 4]
    angle = 2.0 * math.pi * k / den
    return complex(math.cos(angle), math.sin(angle))
