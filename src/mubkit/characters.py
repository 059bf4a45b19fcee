"""Character matrices of a finite field and Hadamard structure checks.

The additive character table chi is built through the field trace,
chi[i][a] = exp(2*pi*i*Tr(i*a)/p), which makes every row an additive
character, satisfies the mixed law chi[a][b] = chi[1][a*b] by construction,
and is dephased (row 0 and column 0 all ones). The multiplicative table psi
is the Fourier matrix of the cyclic group of nonzero elements, realized
through discrete logs of the deterministic primitive element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cplx
from .errors import NotControlledHadamard, ShapeMismatch
from .gf import FiniteField


@dataclass
class Hadamard:
    """Square matrix with unit-modulus entries and H H† = H† H = d I."""

    d: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = cplx.as_matrix(self.matrix)
        if self.matrix.shape != (self.d, self.d):
            raise ShapeMismatch(
                f"expected a {self.d}x{self.d} matrix, got {self.matrix.shape}"
            )


@dataclass
class ControlledHadamard:
    """Family of order-d Hadamards indexed by control basis states."""

    control_dim: int
    members: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.members) != self.control_dim:
            raise ShapeMismatch(
                f"expected {self.control_dim} members, got {len(self.members)}"
            )
        self.members = [m if isinstance(m, Hadamard) else Hadamard(np.asarray(m).shape[0], m)
                        for m in self.members]
        dims = {m.d for m in self.members}
        if len(dims) > 1:
            raise ShapeMismatch(f"members have mixed orders {sorted(dims)}")

    @property
    def d(self) -> int:
        return self.members[0].d

    def member(self, x: int) -> np.ndarray:
        return self.members[x].matrix


def additive_character_matrix(f: FiniteField) -> Hadamard:
    """Fourier Hadamard of the additive group: chi[i][a] = w_p^Tr(i*a)."""
    d, p = f.d, f.p
    tr = f.trace_vector
    mul = f.mul_table
    roots = np.array([cplx.unit_root(k, p) for k in range(p)], dtype=np.complex128)
    chi = roots[tr[mul]]
    return Hadamard(d, chi)


def multiplicative_character_matrix(f: FiniteField) -> Hadamard:
    """Fourier Hadamard of the multiplicative group, order d-1.

    Column m corresponds to the nonzero element m+1; psi[j][m] depends on
    the discrete log of that element, so rows are the multiplicative
    characters and psi psi† = (d-1) I.
    """
    m = f.d - 1
    if m == 1:
        return Hadamard(1, np.ones((1, 1), dtype=np.complex128))
    logs = np.array([f.dlog(a) for a in range(1, f.d)], dtype=np.int64)
    roots = np.array([cplx.unit_root(k, m) for k in range(m)], dtype=np.complex128)
    return Hadamard(m, roots[np.arange(m)[:, None] * logs % m])


def _matrix_of(h) -> np.ndarray:
    return h.matrix if isinstance(h, Hadamard) else cplx.as_matrix(h)


def hadamard_residuals(a, tol: float = cplx.DEFAULT_TOL) -> list:
    """Residuals of both Hadamard conditions: unit-modulus entries, and
    H H† = H† H = d I (the worse of the two products)."""
    m = _matrix_of(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"Hadamard test requires a square matrix, got {m.shape}")
    eye = m.shape[0] * np.eye(m.shape[0])
    gram = max(cplx.max_abs(m @ m.conj().T - eye), cplx.max_abs(m.conj().T @ m - eye))
    return [
        cplx.residual_entry("hadamard_unit_modulus", cplx.max_abs(np.abs(m) - 1.0), tol),
        cplx.residual_entry("hadamard_gram", gram, tol),
    ]


def is_hadamard(a, tol: float = cplx.DEFAULT_TOL) -> bool:
    """Every residual of :func:`hadamard_residuals` below ``tol``."""
    return all(r["pass"] for r in hadamard_residuals(a, tol))


def is_dephased(a, tol: float = cplx.DEFAULT_TOL) -> bool:
    """Hadamard whose first row and first column are all ones."""
    m = _matrix_of(a)
    if not is_hadamard(m, tol):
        return False
    return (
        cplx.max_abs(m[0, :] - 1.0) < tol
        and cplx.max_abs(m[:, 0] - 1.0) < tol
    )


def controlled_hadamard_residuals(h: ControlledHadamard, tol: float = cplx.DEFAULT_TOL) -> list:
    """The worst Hadamard residual over the indexed members (the family
    condition reduces to every member being a Hadamard because control
    basis states span the control space)."""
    d = h.d
    worst = 0.0
    for member in h.members:
        if member.matrix.shape != (d, d):
            raise ShapeMismatch("controlled family members have mixed shapes")
        worst = max(worst, *(r["residual"] for r in hadamard_residuals(member.matrix, tol)))
    return [cplx.residual_entry("controlled_hadamard", worst, tol)]


def is_controlled_hadamard(h: ControlledHadamard, tol: float = cplx.DEFAULT_TOL) -> bool:
    """Every member a Hadamard within ``tol``."""
    return all(r["pass"] for r in controlled_hadamard_residuals(h, tol))


def controlled_from_copies(h, control_dim: int) -> ControlledHadamard:
    """Controlled family whose members are all the same Hadamard."""
    m = _matrix_of(h)
    return ControlledHadamard(control_dim, [Hadamard(m.shape[0], m.copy()) for _ in range(control_dim)])


def mub_from_controlled_hadamard(h: ControlledHadamard, tol: float = cplx.DEFAULT_TOL) -> list:
    """One orthonormal basis per member: basis x has states
    (1/sqrt(d)) * (column j of member x), each unbiased to the computational
    basis since all scaled entries have modulus 1/sqrt(d)."""
    if not is_controlled_hadamard(h, tol):
        raise NotControlledHadamard("family member fails the Hadamard conditions")
    d = h.d
    return [h.member(x) / np.sqrt(d) for x in range(h.control_dim)]
