"""MUB family model, the maximality predicate, and extraction of the
family of common eigenbases from a partitioned unitary error basis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cplx
from .errors import NotPartitionedUeb, NotUnitary, ShapeMismatch, WrongFamilySize


@dataclass
class MubFamily:
    """d+1 orthonormal bases stored as unitary matrices whose columns are
    the basis states.

    ``bases[0]`` is the distinguished basis (label ``*``); in canonical form
    it is exactly the identity (the computational basis), but families
    extracted from a non-canonical operator table carry the eigenbasis of
    the distinguished commuting class there instead.
    """

    d: int
    bases: list

    def __post_init__(self):
        if len(self.bases) != self.d + 1:
            raise WrongFamilySize(
                f"expected {self.d + 1} bases for dimension {self.d}, got {len(self.bases)}"
            )
        self.bases = [cplx.as_matrix(b) for b in self.bases]
        for m in self.bases:
            if m.shape != (self.d, self.d):
                raise ShapeMismatch(f"basis has shape {m.shape}, expected {(self.d, self.d)}")
        if cplx.unitarity_residual(np.stack(self.bases)) >= cplx.DEFAULT_TOL:
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
    a, b = cplx.as_matrix(a), cplx.as_matrix(b)
    if a.shape != (d, d) or b.shape != (d, d):
        raise ShapeMismatch(f"expected {d}x{d} bases, got {a.shape} and {b.shape}")
    if cplx.unitarity_residual(np.stack([a, b])) >= tol:
        raise NotUnitary("basis is not unitary within tolerance")
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
    d = family.d
    bases = np.stack(family.bases)
    worst = 0.0
    for i in range(d):
        overlap = np.abs(bases[i].conj().T @ bases[i + 1:]) ** 2
        worst = max(worst, cplx.max_abs(overlap - 1.0 / d))
    return [cplx.residual_entry("maximal_mub_overlaps", worst, tol)]


def is_maximal_mub_family(family: MubFamily, tol: float = cplx.DEFAULT_TOL) -> bool:
    """The residual of :func:`mub_residuals` below ``tol``."""
    return all(r["pass"] for r in mub_residuals(family, tol))


def bases_match(a, b, tol: float = cplx.DEFAULT_TOL) -> bool:
    """Equality of bases up to per-vector phase and within-basis permutation:
    the modulus Gram matrix |<a_j|b_k>| must be a permutation matrix."""
    a, b = cplx.as_matrix(a), cplx.as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"expected equal square bases, got {a.shape} and {b.shape}")
    if cplx.unitarity_residual(np.stack([a, b])) >= tol:
        raise NotUnitary("basis is not unitary within tolerance")
    gram = np.abs(a.conj().T @ b)
    big = gram > 1.0 - tol
    small = gram < tol
    if not np.all(big | small):
        return False
    return bool(np.all(big.sum(axis=0) == 1) and np.all(big.sum(axis=1) == 1))


def mub_from_ueb(ueb, tol: float = cplx.DEFAULT_TOL, seed: int = 0) -> MubFamily:
    """Maximal MUB family of common eigenbases of a partitioned UEB's
    commuting classes.

    The input must pass :func:`~mubkit.construct.is_partitioned_ueb`, which
    is where class commutation is checked. The distinguished basis comes
    from the class stored at shift positions (plus the identity); when that
    class is already diagonal the family is in canonical form and the
    identity is returned exactly, avoiding spurious phase churn. Basis x is
    the common eigenbasis of class x. Each per-class diagonalization is
    seeded independently for reproducibility.
    """
    from .construct import is_partitioned_ueb  # local import: module cycle

    if not is_partitioned_ueb(ueb, tol):
        raise NotPartitionedUeb("input fails the partitioned UEB laws")
    d = ueb.d
    eye = cplx.identity(d)

    star_class = ueb.class_star()
    if cplx.offdiag_residual(star_class) < tol:
        star_basis = eye
    else:
        star_basis = cplx.simultaneous_eigenbasis([*star_class, eye], tol, seed)

    bases = [star_basis]
    for x in range(d):
        bases.append(cplx.simultaneous_eigenbasis(ueb.class_ops(x), tol, seed + 1 + x))
    return MubFamily(d, bases)
