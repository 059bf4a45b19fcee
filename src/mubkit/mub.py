"""MUB family model, the maximality predicate, and extraction of the
family of common eigenbases from a partitioned unitary error basis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cplx
from .errors import NotUnitary, ShapeMismatch, WrongFamilySize


@dataclass
class MubFamily:
    """d+1 orthonormal bases stored as one (d+1, d, d) array of unitary
    matrices whose columns are the basis states; a list of matrices is
    accepted too. The bases are complex128 whatever their entries, like
    every eigenbasis :func:`mubkit.cplx.simultaneous_eigenbasis` returns.

    ``bases[0]`` is the distinguished basis (label ``*``); in canonical form
    it is exactly the identity (the computational basis), but families
    extracted from a non-canonical operator table carry the eigenbasis of
    the distinguished commuting class there instead.
    """

    d: int
    bases: np.ndarray

    def __post_init__(self):
        self.bases = cplx.as_matrix(self.bases, 3).astype(np.complex128, copy=False)
        if len(self.bases) != self.d + 1:
            raise WrongFamilySize(
                f"expected {self.d + 1} bases for dimension {self.d}, got {len(self.bases)}"
            )
        if self.bases.shape[1:] != (self.d, self.d):
            raise ShapeMismatch(f"bases are {self.bases.shape[1:]}, expected {(self.d, self.d)}")
        if cplx.unitarity_residual(self.bases) >= cplx.DEFAULT_TOL:
            raise NotUnitary("basis matrix is not unitary within tolerance")

    @property
    def labels(self) -> list:
        return ["*"] + [str(x) for x in range(self.d)]

    def basis(self, x) -> np.ndarray:
        """Basis by label: '*' (or -1) for the distinguished basis, else x in 0..d-1."""
        if x == "*" or x == -1:
            return self.bases[0]
        return self.bases[int(x) + 1]


def is_mub_pair(a, b, d: int, tol: float = cplx.DEFAULT_TOL) -> bool:
    """Whether two orthonormal bases are mutually unbiased:
    | |<a_i|b_j>|^2 - 1/d | < tol for all i, j."""
    pair = cplx.as_matrix([a, b], 3)
    if pair.shape[1:] != (d, d):
        raise ShapeMismatch(f"expected {d}x{d} bases, got {pair.shape[1:]}")
    if cplx.unitarity_residual(pair) >= tol:
        raise NotUnitary("basis is not unitary within tolerance")
    a, b = pair
    overlap = np.abs(a.conj().T @ b) ** 2
    return cplx.max_abs(overlap - 1.0 / d) < tol


def mub_residuals(family: MubFamily, tol: float = cplx.DEFAULT_TOL) -> list:
    """Worst deviation of |<b^i_j|b^m_n>|^2 from
    (1/d)(1 - delta_im) + delta_im delta_jn over all d+1 bases.

    The same-basis case reduces to orthonormality (guaranteed by the data
    model), so the check sweeps distinct pairs, one basis against all later
    ones, with the distinguished basis participating like any other.
    Unbiasedness against the computational basis forces unit-modulus scaled
    entries, which is exactly the controlled-Hadamard condition on the
    family scaled by sqrt(d).
    """
    bases = family.bases
    worst = max(cplx.max_abs(_overlap_deviations(bases[i], bases[i + 1:])) for i in range(family.d))
    return [cplx.residual_entry("maximal_mub_overlaps", worst, tol)]


def _overlap_deviations(a: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """|<a_j|b_n>|^2 - 1/d for the columns of the basis ``a`` and of each
    basis b of the (k, d, d) stack ``rest``, as a (k, d, d) array."""
    overlap = np.abs(a.conj().T @ rest) ** 2
    overlap -= 1.0 / a.shape[0]
    return overlap


def is_maximal_mub_family(family: MubFamily, tol: float = cplx.DEFAULT_TOL) -> bool:
    """The residual of :func:`mub_residuals` below ``tol``."""
    return all(r["pass"] for r in mub_residuals(family, tol))


def bases_match(a, b, tol: float = cplx.DEFAULT_TOL) -> bool:
    """Equality of bases up to per-vector phase and within-basis permutation:
    the modulus Gram matrix |<a_j|b_k>| must be a permutation matrix."""
    pair = cplx.as_matrix([a, b], 3)  # bases of unequal shapes are ragged
    if cplx.unitarity_residual(pair) >= tol:
        raise NotUnitary("basis is not unitary within tolerance")
    a, b = pair
    gram = np.abs(a.conj().T @ b)
    big = gram > 1.0 - tol
    small = gram < tol
    if not np.all(big | small):
        return False
    return bool(np.all(big.sum(axis=0) == 1) and np.all(big.sum(axis=1) == 1))


def mub_from_ueb(ueb, tol: float = cplx.DEFAULT_TOL, seed: int = 0) -> MubFamily:
    """Maximal MUB family of common eigenbases of a partitioned UEB's
    commuting classes.

    ``ueb`` is a :class:`~mubkit.construct.PartitionedUeb` or anything its
    constructor accepts, and must pass the partitioned UEB laws, else
    :class:`NotPartitionedUeb` is raised. Unitarity and the identity slot
    are checked directly. Each class's commutation is certified by its own
    diagonalization (the body of
    :func:`mubkit.cplx.simultaneous_eigenbasis`), which sweeps that class
    pairwise only when its certificate falls short. The trace law is
    certified from the same bases and the classes' eigenvalue tables
    (:func:`mubkit.construct.trace_law_bound`); the reference d^2 x d^2
    Gram runs only when that bound falls short. The distinguished basis
    comes from the class stored at shift positions (plus the identity);
    when that class is already diagonal the family is in canonical form and
    the identity is returned exactly, avoiding spurious phase churn, and the
    class gets the same certificate with W = I. Basis
    x is the common eigenbasis of class x. Each per-class diagonalization
    is seeded independently for reproducibility.
    """
    from .construct import _mub_family  # local import: module cycle

    return _mub_family(ueb, tol, seed)
