"""Dense real and complex linear algebra for small matrices.

Matrices are plain ``numpy`` arrays, and every matrix or stack input passes
the one check :func:`as_matrix`, which also fixes its dtype: float64 when
every imaginary part is +0.0 (the tables of GF(2^n), whose characters are
+-1), complex128 otherwise. The laws run in the dtype of their input; the
spectral path (:func:`eig_hermitian`, :func:`phase_normalize`,
:func:`simultaneous_eigenbasis`) always works in complex128.

The module supplies the three matrix laws as batched residuals over
(k, d, d) stacks (unitarity, pairwise commutators, off-diagonal residue),
which every law check calls; the residual entry every law check reports; a
Hermitian eigensolver (LAPACK ``eigh``); and simultaneous diagonalization
of commuting unitary families via a seeded random Hermitian combination,
which certifies that the family commutes (:func:`commutator_bound`).
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


def imag_is_zero(m: np.ndarray) -> bool:
    """Every imaginary part of the complex array ``m`` is +0.0 bit for bit.
    A -0.0 counts as nonzero, so an array that holds one stays complex and
    the writer keeps writing it as ``-0``."""
    return not m.imag.view(np.uint64).any()


def as_matrix(a, ndim: int = 2) -> np.ndarray:
    """``a`` as a non-empty array of ``ndim`` axes whose last two are square
    and whose entries are finite: a matrix (2), a (k, d, d) stack (3) or an
    operator table (4). The array is float64 exactly when every imaginary
    part is +0.0 bit for bit (:func:`imag_is_zero`; a real input holds no
    other kind), complex128 otherwise, and no entry is rounded beyond what
    complex128 would round. The one check of matrix input; anything else
    raises :class:`ShapeMismatch`."""
    try:
        m = np.asarray(a)
        m = m.astype(np.float64 if m.dtype.kind in "biuf" else np.complex128, copy=False)
    except (TypeError, ValueError) as exc:  # ragged rows or non-numeric entries
        raise ShapeMismatch(f"expected a numeric array of {ndim} axes: {exc}") from exc
    if m.ndim != ndim or not m.size or m.shape[-1] != m.shape[-2]:
        raise ShapeMismatch(
            f"expected a non-empty array of {ndim} axes, the last two square, got shape {m.shape}")
    if np.iscomplexobj(m) and imag_is_zero(m):
        m = m.real.copy()
    if not np.all(np.isfinite(m)):
        raise ShapeMismatch("matrix contains non-finite entries")
    return m


def max_abs(a) -> float:
    """Largest modulus of an entry; 0.0 when empty. A float array is read
    twice in place instead of through an array of moduli as large as it."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    if a.dtype.kind == "f":
        return abs(float(max(a.max(), -a.min())))  # abs turns -0.0 into 0.0
    return float(np.max(np.abs(a)))


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


def _fro(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each member of a (k, d, d) stack, one ``vdot``
    each, so no temporary is as large as the stack."""
    return np.sqrt([np.vdot(a, a).real for a in stack])


def commutator_bound(m, w, stack) -> float:
    """An upper bound on ||U_i U_j - U_j U_i||_F over the pairs of the
    (k, d, d) ``stack``, hence on :func:`commutator_residual`, read off
    M_i = fl(W† U_i W) in ``m`` for any W with delta < 1/2 below (inf
    otherwise); 0.0 below two members.

    With u = 2^-53, gamma = 2(d+2)u and
      Lambda = max |(M_i)_jj|,
      f_i = ||M_i - diag(M_i)||_F + (2 gamma + gamma^2) ||W||_F^2 ||U_i||_F,
      delta = ||fl(W† W) - I||_F + gamma ||W||_F^2 < 1/2,
    every pair i != j satisfies
      ||U_i U_j - U_j U_i||_F
        <= [2 Lambda (f_i + f_j) + 2 f_i f_j
            + 2 (Lambda + f_i)(Lambda + f_j) delta / (1 - delta)] / (1 - delta).
    Why: W† U_i W = D_i + F_i with D_i = diag(M_i) and ||F_i||_F <= f_i
    (the second term of f_i bounds the rounding of M_i); diagonals
    commute, so [W† U_i W, W† U_j W] = [D_i, F_j] + [F_i, D_j] + [F_i, F_j];
    and U_i = W^-† (W† U_i W) W^-1 with (W† W)^-1 = I + Δ',
    ||Δ'|| <= delta / (1 - delta) and ||W^-1||^2 <= 1 / (1 - delta).
    The bound adds 2 gamma (Lambda + f_i)(Lambda + f_j) / (1 - delta)^2
    for the rounding of the products in :func:`commutator_residual`, takes
    the two largest f_i, and is raised by the factor (1 + 4u)(1 + 8 d^2 u)
    for the rounding of its own evaluation, so it is at least the residual
    the sweep would report.
    """
    if len(stack) < 2:
        return 0.0
    d = w.shape[0]
    u = np.finfo(np.float64).eps / 2
    gamma = 2 * (d + 2) * u
    lam = max_abs(np.diagonal(m, axis1=1, axis2=2))
    off = np.array(m)
    off[:, range(d), range(d)] = 0.0
    w_fro2 = float(np.vdot(w, w).real)
    f = _fro(off) + (2 * gamma + gamma**2) * w_fro2 * _fro(stack)
    gram = w.conj().T @ w
    gram[range(d), range(d)] -= 1.0
    delta = float(np.sqrt(np.vdot(gram, gram).real)) + gamma * w_fro2
    if delta >= 0.5:
        return np.inf
    f2, f1 = sorted(f)[-2:]
    a1, a2 = lam + f1, lam + f2
    exact = (2 * lam * (f1 + f2) + 2 * f1 * f2 + 2 * a1 * a2 * delta / (1 - delta)) / (1 - delta)
    swept = (1 + 4 * u) * (exact + 2 * gamma * a1 * a2 / (1 - delta) ** 2)
    return float(swept * (1 + 8 * d * d * u))


def require_commuting(stack, bound: float, tol: float) -> None:
    """Raise :class:`NotCommuting` naming the worst pair of the (k, d, d)
    ``stack`` unless ``bound`` (:func:`commutator_bound`) or, when it is
    not, the sweep :func:`commutator_residual` is below ``tol``."""
    if bound < tol:
        return
    worst, pair = commutator_residual(stack)
    if worst >= tol:
        raise NotCommuting(f"family members {pair[0]} and {pair[1]} do not commute "
                           f"(residual {worst:.3g})")


def offdiag_residual(stack) -> float:
    """Largest off-diagonal entry over a (k, d, d) stack; 0.0 when empty."""
    mods = np.abs(stack)
    d = mods.shape[-1]
    mods[..., range(d), range(d)] = 0.0
    return max_abs(mods)


def is_unitary(a, tol: float = DEFAULT_TOL) -> bool:
    return unitarity_residual(as_matrix(a)[None]) < tol


@dataclass
class EigenDecomposition:
    """Real eigenvalues in ascending order and a unitary matrix of column
    eigenvectors, satisfying A V = V diag(values) to solver tolerance."""

    values: np.ndarray
    vectors: np.ndarray


def eig_hermitian(a, tol: float = HERMITIAN_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by LAPACK ``eigh`` on its
    symmetrized part; raises :class:`NotHermitian` when the input is not
    Hermitian within ``tol``. A real input is diagonalized as complex128,
    since a real ``eigh`` returns other eigenvectors.
    """
    a = as_matrix(a).astype(np.complex128, copy=False)
    if max_abs(a - a.conj().T) > max(tol, 1e-12):
        raise NotHermitian(f"matrix deviates from Hermitian by {max_abs(a - a.conj().T):.3g}")
    values, vectors = np.linalg.eigh((a + a.conj().T) / 2.0)
    return EigenDecomposition(values=values, vectors=vectors)


def phase_normalize(basis, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Fix the free phase of each column: the largest-modulus component
    (lowest index on modulus ties within tol) is made real positive.

    Idempotent: renormalizing an already-normalized basis is the identity.
    The result is complex128 whatever the input's dtype. A zero column is
    left as it is. The pivot's modulus is ``hypot`` of its parts, which is
    what a scalar ``abs`` returns; numpy's vectorized complex ``abs`` may
    differ from it in the last bit.
    """
    w = as_matrix(basis).astype(np.complex128)
    mods = np.abs(w)
    pivot = np.argmax(mods >= mods.max(axis=0) - tol, axis=0)
    z = w[pivot, np.arange(w.shape[1])]
    r = np.hypot(z.real, z.imag)
    live = r > 0
    w[:, live] *= np.conj(z[live]) / r[live]
    return w


def simultaneous_eigenbasis(family, tol: float = DEFAULT_TOL, seed: int = 0) -> np.ndarray:
    """Common eigenbasis W of a family of commuting unitaries.

    Draws seeded random real coefficients c_k, r_k and diagonalizes the
    Hermitian combination sum_k c_k (U_k + U_k†)/2 + r_k (U_k - U_k†)/(2i).
    A draw is accepted when every member is diagonal within ``tol`` in its
    eigenvectors W (:func:`offdiag_residual` of M = W† U W), and the same M
    certifies that the family commutes (:func:`commutator_bound`); only when
    that bound is not below ``tol`` is this family swept pairwise. A draw
    that hits a degeneracy is redrawn, up to 8 attempts. A family that
    fails the sweep raises :class:`NotCommuting` naming the worst pair; when
    every draw fails on a commuting one, :class:`DegenerateFamily` signals
    a genuinely shared eigenspace.

    Columns are ordered by ascending eigenvalue of the combination and
    phase-normalized via :func:`phase_normalize`. The combination is
    complex128 whatever the family's dtype, so a real family gets the
    eigenbasis it would get as a complex one.
    """
    mats = as_matrix(family, 3)
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
        m = w.conj().T @ mats @ w
        if offdiag_residual(m) < tol:
            require_commuting(mats, commutator_bound(m, w, mats), tol)
            return phase_normalize(w, tol)
    require_commuting(mats, np.inf, tol)
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
