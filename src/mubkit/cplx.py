"""Dense complex linear algebra for small matrices.

Matrices are plain ``numpy`` arrays of complex128. The module supplies
the three matrix laws as batched residuals over (k, d, d) stacks
(unitarity, pairwise commutators, off-diagonal residue), which every law
check calls; the residual entry every law check reports; a Hermitian
eigensolver (LAPACK ``eigh``); and simultaneous diagonalization of
commuting unitary families via a seeded random Hermitian combination.
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


def unitarity_residual(stack) -> float:
    """Largest entry of U†U - I over a (k, d, d) stack; 0.0 when empty."""
    stack = np.asarray(stack)
    return max_abs(stack.conj().swapaxes(-1, -2) @ stack - np.eye(stack.shape[-1]))


def commutator_residual(stack) -> tuple:
    """Largest entry of U_i U_j - U_j U_i over the pairs i < j of a (k, d, d)
    stack, and that pair ((0.0, None) without pairs). Each member is checked
    against the later ones, so no temporary exceeds the stack."""
    stack = np.asarray(stack)
    worst, pair = 0.0, None
    for i in range(len(stack) - 1):
        u, rest = stack[i], stack[i + 1:]
        per_member = np.abs(u @ rest - rest @ u).max(axis=(1, 2))
        j = int(np.argmax(per_member))
        if pair is None or per_member[j] > worst:
            worst, pair = float(per_member[j]), (i, i + 1 + j)
    return worst, pair


def offdiag_residual(stack, w=None) -> float:
    """Largest off-diagonal entry of W†UW over a (k, d, d) stack (of U
    itself when ``w`` is None); 0.0 when empty."""
    mods = np.abs(stack if w is None else w.conj().T @ np.asarray(stack) @ w)
    d = mods.shape[-1]
    mods[..., range(d), range(d)] = 0.0
    return max_abs(mods)


def is_unitary(a, tol: float = DEFAULT_TOL) -> bool:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"unitarity requires a square matrix, got {a.shape}")
    return unitarity_residual(a[None]) < tol


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


def simultaneous_eigenbasis(family, tol: float = DEFAULT_TOL, seed: int = 0) -> np.ndarray:
    """Common eigenbasis W of a family of commuting unitaries.

    Draws seeded random real coefficients c_k, r_k and diagonalizes the
    Hermitian combination sum_k c_k (U_k + U_k†)/2 + r_k (U_k - U_k†)/(2i).
    W is returned only when every member is diagonal in it within ``tol``
    (:func:`offdiag_residual`), a certificate that implies commutation.
    A draw that hits a degeneracy is redrawn, up to 8 attempts. When all
    fail, :class:`NotCommuting` names the worst non-commuting pair, or else
    :class:`DegenerateFamily` signals a genuinely shared eigenspace.

    Columns are ordered by ascending eigenvalue of the combination and
    phase-normalized via :func:`phase_normalize`.
    """
    try:
        mats = np.asarray(family, dtype=np.complex128)
    except (TypeError, ValueError) as exc:  # ragged members or non-numeric entries
        raise ShapeMismatch(f"family members must share one square shape: {exc}") from exc
    if (mats.ndim != 3 or not len(mats) or mats.shape[1] != mats.shape[2]
            or not np.all(np.isfinite(mats))):
        raise ShapeMismatch(f"expected a non-empty stack of finite square matrices: {mats.shape}")
    if unitarity_residual(mats) >= tol:
        raise NotUnitary("family member is not unitary within tolerance")

    d = mats.shape[1]
    rng = np.random.default_rng(seed)
    adj = mats.conj().swapaxes(-1, -2)
    herm, skew = (mats + adj) / 2.0, (mats - adj) / 2.0j
    for _ in range(SIMDIAG_RETRIES):
        c = rng.standard_normal(len(mats))
        r = rng.standard_normal(len(mats))
        a = np.zeros((d, d), dtype=np.complex128)
        for k in range(len(mats)):
            a += c[k] * herm[k] + r[k] * skew[k]
        w = eig_hermitian(a, HERMITIAN_TOL).vectors
        if offdiag_residual(mats, w) < tol:
            return phase_normalize(w, tol)
    worst, pair = commutator_residual(mats)
    if worst >= tol:
        raise NotCommuting(f"family members {pair[0]} and {pair[1]} do not commute "
                           f"(residual {worst:.3g})")
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
