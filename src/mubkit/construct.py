"""Partitioned unitary error bases: construction from a finite field, from
a MUB family plus Hadamard data, and from a Latin square; the UEB and
partition laws as residual reports; eigenvalue-table extraction;
conjugation.

An operator table is one array ``ops`` of shape (d, d, d, d), float64 or
complex128 by the rule of :func:`mubkit.cplx.as_matrix`: ``ops[x, a]`` is
the operator U_{x,a}. A table is built in the dtype of its inputs, so the
tables of GF(2^n), whose characters are +-1, and their conjugates by real
matrices are float64, and every law on them runs in real arithmetic.

Partition convention, fixed positionally rather than by labels: the
identity sits at (0, 0), the distinguished commuting class C_* consists of
the a = 0 column for x != 0, and class C_x consists of row x with a != 0.
Each class therefore has exactly d-1 members and, together with the
identity, forms a maximal commuting set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import cplx
from .characters import (
    ControlledHadamard,
    Hadamard,
    additive_character_matrix,
    controlled_from_copies,
    is_controlled_hadamard,
    is_dephased,
    is_hadamard,
    _matrix_of,
)
from .errors import (
    DephasingWarning,
    MubkitError,
    NotCanonicalForm,
    NotHadamard,
    NotLatinSquare,
    NotPartitionedUeb,
    NotUnitary,
    PreconditionFailed,
    ShapeMismatch,
)
from .gf import FiniteField
from .mub import MubFamily, is_maximal_mub_family


@dataclass
class PartitionedUeb:
    """d x d table of d x d unitaries with the positional partition
    described in the module docstring. ``ops`` may be given as a (d, d, d, d)
    array or as nested rows of matrices; it is stored as the array, float64
    when every imaginary part is +0.0 and complex128 otherwise
    (:func:`mubkit.cplx.as_matrix`), and every accessor returns a view of
    it."""

    d: int
    ops: np.ndarray

    def __post_init__(self):
        self.ops = np.ascontiguousarray(cplx.as_matrix(self.ops, 4))
        if self.ops.shape != (self.d,) * 4:
            raise ShapeMismatch(f"operator table has shape {self.ops.shape}, expected {(self.d,) * 4}")

    def op(self, x: int, a: int) -> np.ndarray:
        return self.ops[x, a]

    def class_star(self) -> np.ndarray:
        """The d-1 operators U_{x,0}, x != 0."""
        return self.ops[1:, 0]

    def class_ops(self, x: int) -> np.ndarray:
        """The d-1 operators U_{x,a}, a != 0."""
        return self.ops[x, 1:]

    def flat(self) -> np.ndarray:
        """(d*d, d, d) stack in row-major (x, a) order."""
        return self.ops.reshape(self.d * self.d, self.d, self.d)


def ueb_from_field(f: FiniteField) -> PartitionedUeb:
    """Partitioned UEB built directly from field arithmetic.

    On basis states, with chi the additive character table,

        U_{x,a} |i> = chi[1][i*a] |i + a*x>   for a != 0,
        U_{x,0} |i> = |i + x>,

    so entries are exact roots of unity and zeros, in the dtype of chi
    (float64 for p = 2). The a = 0 column is the regular representation of
    the additive group (the shift operators) and forms the distinguished
    class.
    """
    d = f.d
    chi = additive_character_matrix(f).matrix
    add = f.add_table
    mul = f.mul_table
    x, a, i = np.ix_(range(d), range(d), range(d))
    shift = np.where(a == 0, x, mul[a, x])
    phase = np.where(a == 0, 1.0, chi[1, mul[i, a]])
    ops = np.zeros((d, d, d, d), dtype=chi.dtype)
    ops[x, a, add[i, shift], i] = phase
    return PartitionedUeb(d, ops)


def is_latin_square(square) -> bool:
    s = np.asarray(square, dtype=np.int64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        return False
    want = np.arange(s.shape[0])
    return bool((np.sort(s, axis=1) == want).all() and (np.sort(s, axis=0) == want[:, None]).all())


def shift_multiply_ueb(square, hadamards, tol: float = cplx.DEFAULT_TOL) -> np.ndarray:
    """Shift-and-multiply operator table V_{i,j}|k> = H[i][k] |L[k][j]>.

    ``hadamards`` is a single Hadamard (used for every shift) or a family
    indexed by the shift column j, given as a :class:`ControlledHadamard`
    or a list. Unitarity comes from the Latin-square columns and
    unit-modulus phases; the trace law from Hadamard row orthogonality.
    Returns the raw (d, d, d, d) table ``[i, j]`` (no partition is implied)
    in the dtype of the Hadamards.
    """
    s = np.asarray(square, dtype=np.int64)
    if not is_latin_square(s):
        raise NotLatinSquare("rows/columns are not permutations of 0..d-1")
    d = s.shape[0]
    if isinstance(hadamards, (list, tuple)):
        hadamards = ControlledHadamard(len(hadamards), hadamards)
    elif not isinstance(hadamards, ControlledHadamard):
        hadamards = controlled_from_copies(hadamards, d)
    h = hadamards.members
    if len(h) != d:
        raise ShapeMismatch(f"expected {d} Hadamards, got {len(h)}")
    if h.shape[1:] != (d, d) or not is_hadamard(h, tol):
        raise NotHadamard("shift-and-multiply phase matrix fails the Hadamard laws")

    i, j, k = np.ix_(range(d), range(d), range(d))
    table = np.zeros((d, d, d, d), dtype=h.dtype)
    table[i, j, s[k, j], k] = h[j, i, k]
    return table


def _column_conditions(m: np.ndarray, tol: float) -> bool:
    """Relaxed Hadamard conditions consumed by the UEB proof: first column
    all ones and vanishing sums of every other column."""
    d = m.shape[0]
    if cplx.max_abs(m[:, 0] - 1.0) >= tol:
        return False
    return bool(np.all(np.abs(m[:, 1:].sum(axis=0)) < d * tol))


def ueb_from_mub(family: MubFamily, controlled: ControlledHadamard, g,
                 tol: float = cplx.DEFAULT_TOL) -> PartitionedUeb:
    """Partitioned UEB from a maximal MUB family plus eigenvalue data.

    Class member U_{x,a} (a != 0) is the operator with eigenbasis x of the
    family and eigenvalue row j of the x-th controlled-Hadamard member:

        U_{x,a} = sum_j H^x[j][a] |b^x_j><b^x_j|

    while U_{x,0} = sum_j G[j][x] |b^*_j><b^*_j| is diagonal in the
    distinguished basis, so the distinguished class of the output is
    diagonal whenever the family is canonical (basis * = identity, in which
    case |b^*_j> = |j> exactly).

    Inputs are validated eagerly and failures name the violated law. Full
    dephasing of H^x and G is the textbook hypothesis; the weaker column
    conditions actually consumed by the trace-law computation are accepted
    with a :class:`DephasingWarning`.
    """
    d = family.d
    if not is_maximal_mub_family(family, tol):
        raise PreconditionFailed("M: is_maximal_mub_family failed")
    if controlled.control_dim != d or controlled.d != d:
        raise PreconditionFailed("H: control_dim must equal the family dimension")
    if not is_controlled_hadamard(controlled, tol):
        raise PreconditionFailed("H: is_controlled_hadamard failed")
    g = _matrix_of(g)
    if g.shape != (d, d) or not is_hadamard(g, tol):
        raise PreconditionFailed("G: is_hadamard failed")

    if not (is_dephased(g, tol) and is_dephased(controlled.members, tol)):
        for x in range(d):
            if not _column_conditions(controlled.member(x), tol):
                raise PreconditionFailed(
                    f"H^{x}: neither dephased nor satisfying the column conditions"
                )
        if not _column_conditions(g, tol):
            raise PreconditionFailed("G: neither dephased nor satisfying the column conditions")
        warnings.warn(
            "Hadamard data passes the relaxed column conditions but is not dephased",
            DephasingWarning,
        )

    star = family.basis("*")
    ops = np.empty((d, d, d, d), dtype=np.complex128)
    for x in range(d):
        bx = family.basis(x)
        hx = controlled.member(x)
        ops[x, 0] = (star * g[:, x]) @ star.conj().T
        ops[x, 1:] = (bx * hx[:, 1:].T[:, None, :]) @ bx.conj().T
    return PartitionedUeb(d, ops)


def eigendata(ueb, tol: float = cplx.DEFAULT_TOL, seed: int = 0):
    """Inverse of :func:`ueb_from_mub` on canonical-form tables.

    Requires the distinguished class diagonal. Returns (family, H, G) where
    G[j][x] is the j-th diagonal entry of U_{x,0}, H^x[j][a] the eigenvalue
    of U_{x,a} on basis-x column j (with a convention column of ones at
    a = 0). Feeding the result back into :func:`ueb_from_mub` reproduces
    the table entrywise, since this is its spectral decomposition. The
    family is :func:`mubkit.mub.mub_from_ueb`'s.
    """
    ueb = _as_ueb(ueb)
    family = _mub_family(ueb, tol, seed)  # raises NotPartitionedUeb
    if cplx.offdiag_residual(ueb.class_star()) >= tol:
        raise NotCanonicalForm("distinguished class is not diagonal")
    d = ueb.d
    h = np.ones((d, d, d), dtype=np.complex128)
    for x in range(d):
        b = family.basis(x)
        h[x, :, 1:] = np.diagonal(b.conj().T @ ueb.class_ops(x) @ b, axis1=1, axis2=2).T
    g = np.diagonal(ueb.ops[:, 0], axis1=1, axis2=2).T.copy()
    return family, ControlledHadamard(d, h), Hadamard(d, g)


def conjugate_ueb(ueb: PartitionedUeb, w, tol: float = cplx.DEFAULT_TOL) -> PartitionedUeb:
    """Replace every operator by W† U W; all UEB and partition laws are
    preserved since conjugation preserves traces, products and commutators.
    The result is real when both the table and W are."""
    w = cplx.as_matrix(w)
    if not cplx.is_unitary(w, tol):
        raise NotUnitary("conjugating matrix is not unitary within tolerance")
    wd = w.conj().T
    ops = np.empty(ueb.ops.shape, np.result_type(ueb.ops, w))
    for x in range(ueb.d):
        ops[x] = wd @ ueb.ops[x] @ w
    return PartitionedUeb(ueb.d, ops)


def _as_ueb(table) -> PartitionedUeb:
    """``table`` itself when it is a :class:`PartitionedUeb`, else the
    table made from a (d, d, d, d) array or nested rows; any other input
    raises :class:`ShapeMismatch`."""
    if isinstance(table, PartitionedUeb):
        return table
    ops = cplx.as_matrix(table, 4)
    return PartitionedUeb(len(ops), ops)


def ueb_residuals(table, tol: float = cplx.DEFAULT_TOL) -> list:
    """Residuals of the UEB laws: all d^2 operators unitary, and
    tr(U† U') = d * delta under the flat index pairing (the trace law).
    ``table`` is a :class:`PartitionedUeb` or anything its constructor
    accepts."""
    table = _as_ueb(table)
    d = table.d
    unitarity = max(cplx.unitarity_residual(row) for row in table.ops)
    f = table.ops.reshape(d * d, d * d)
    gram = f.conj() @ f.T
    gram[np.diag_indices(d * d)] -= d
    trace_law = cplx.max_abs(gram)
    return [
        cplx.residual_entry("ueb_unitarity", unitarity, tol),
        cplx.residual_entry("ueb_trace_law", trace_law, tol),
    ]


def _identity_slot(ueb: PartitionedUeb, tol: float) -> dict:
    return cplx.residual_entry("ueb_identity_slot", cplx.max_abs(ueb.op(0, 0) - np.eye(ueb.d)), tol)


def partition_residuals(ueb: PartitionedUeb, tol: float = cplx.DEFAULT_TOL) -> list:
    """Residuals of the partition laws: identity at (0,0), and every class
    (the distinguished one and each row x) pairwise commuting. Class sizes
    d-1 are structural in the table. Classes are checked one at a time, so
    no temporary exceeds one class."""
    d = ueb.d
    classes = [ueb.class_star()] + [ueb.class_ops(x) for x in range(d)]
    commutator = max(cplx.commutator_residual(ops)[0] for ops in classes)
    return [
        _identity_slot(ueb, tol),
        cplx.residual_entry("ueb_class_commutators", commutator, tol),
    ]


def _mub_family(ueb, tol: float, seed: int) -> MubFamily:
    """The body of :func:`mubkit.mub.mub_from_ueb`, which :func:`eigendata`
    calls too. When a class's diagonalization or certificate raises, the
    reference sweep of every class (:func:`partition_residuals`) decides
    between :class:`NotPartitionedUeb` and re-raising, so θ raises as if
    :func:`is_partitioned_ueb` had been checked first."""
    ueb = _as_ueb(ueb)
    if not all(r["pass"] for r in ueb_residuals(ueb, tol) + [_identity_slot(ueb, tol)]):
        raise NotPartitionedUeb("input fails the partitioned UEB laws")
    d = ueb.d
    star = ueb.class_star()
    eye = np.eye(d, dtype=np.complex128)
    try:
        if cplx.offdiag_residual(star) < tol:
            cplx.require_commuting(star, cplx.commutator_bound(star, eye, star), tol)
            first = eye
        else:
            first = cplx.simultaneous_eigenbasis([*star, eye], tol, seed)
        # at d = 1 the one class has no members, so any basis is theirs
        classes = [ueb.class_ops(x) for x in range(d)]
        return MubFamily(d, [first] + [cplx.simultaneous_eigenbasis(ops, tol, seed + 1 + x) if len(ops) else eye
                                       for x, ops in enumerate(classes)])
    except (MubkitError, np.linalg.LinAlgError):
        if not all(r["pass"] for r in partition_residuals(ueb, tol)):
            raise NotPartitionedUeb("input fails the partitioned UEB laws")
        raise


def is_ueb(table, tol: float = cplx.DEFAULT_TOL) -> bool:
    """Every residual of :func:`ueb_residuals` below ``tol``."""
    return all(r["pass"] for r in ueb_residuals(table, tol))


def is_partitioned_ueb(ueb, tol: float = cplx.DEFAULT_TOL) -> bool:
    """Every residual of :func:`ueb_residuals` and
    :func:`partition_residuals` below ``tol``."""
    ueb = _as_ueb(ueb)
    return is_ueb(ueb, tol) and all(r["pass"] for r in partition_residuals(ueb, tol))
