"""Partitioned unitary error bases: construction from a finite field, from
a MUB family plus Hadamard data, and from a Latin square; the UEB and
partition laws as residual reports; eigenvalue-table extraction;
conjugation.

An operator table is one complex128 array ``ops`` of shape (d, d, d, d):
``ops[x, a]`` is the operator U_{x,a}. Partition convention, fixed
positionally rather than by labels: the identity sits at (0, 0), the
distinguished commuting class C_* consists of the a = 0 column for x != 0,
and class C_x consists of row x with a != 0. Each class therefore has
exactly d-1 members and, together with the identity, forms a maximal
commuting set.
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
    is_controlled_hadamard,
    is_dephased,
    is_hadamard,
    _matrix_of,
)
from .errors import (
    DephasingWarning,
    NotCanonicalForm,
    NotHadamard,
    NotLatinSquare,
    NotUnitary,
    PreconditionFailed,
    ShapeMismatch,
)
from .gf import FiniteField
from .mub import MubFamily, is_maximal_mub_family, mub_from_ueb


@dataclass
class PartitionedUeb:
    """d x d table of d x d unitaries with the positional partition
    described in the module docstring. ``ops`` may be given as a (d, d, d, d)
    array or as nested rows of matrices; it is stored as the array, and
    every accessor returns a view of it."""

    d: int
    ops: np.ndarray

    def __post_init__(self):
        want = (self.d,) * 4
        try:
            ops = np.ascontiguousarray(self.ops, dtype=np.complex128)
        except (TypeError, ValueError) as exc:  # ragged rows or non-numeric entries
            raise ShapeMismatch(f"operator table is not a {want} array: {exc}") from exc
        if ops.shape != want:
            raise ShapeMismatch(f"operator table has shape {ops.shape}, expected {want}")
        if not np.all(np.isfinite(ops)):
            raise ShapeMismatch("operator table contains non-finite entries")
        self.ops = ops

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

    so entries are exact roots of unity and zeros. The a = 0 column is the
    regular representation of the additive group (the shift operators) and
    forms the distinguished class.
    """
    d = f.d
    chi = additive_character_matrix(f).matrix
    add = f.add_table
    mul = f.mul_table
    x, a, i = np.ix_(range(d), range(d), range(d))
    shift = np.where(a == 0, x, mul[a, x])
    phase = np.where(a == 0, 1.0, chi[1, mul[i, a]])
    ops = np.zeros((d, d, d, d), dtype=np.complex128)
    ops[x, a, add[i, shift], i] = phase
    return PartitionedUeb(d, ops)


def is_latin_square(square) -> bool:
    s = np.asarray(square, dtype=np.int64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        return False
    want = np.arange(s.shape[0])
    for k in range(s.shape[0]):
        if not np.array_equal(np.sort(s[k, :]), want):
            return False
        if not np.array_equal(np.sort(s[:, k]), want):
            return False
    return True


def shift_multiply_ueb(square, hadamards, tol: float = cplx.DEFAULT_TOL) -> np.ndarray:
    """Shift-and-multiply operator table V_{i,j}|k> = H[i][k] |L[k][j]>.

    ``hadamards`` is a single Hadamard (used for every shift) or a family
    indexed by the shift column j. Unitarity comes from the Latin-square
    columns and unit-modulus phases; the trace law from Hadamard row
    orthogonality. Returns the raw (d, d, d, d) table ``[i, j]`` (no
    partition is implied).
    """
    s = np.asarray(square, dtype=np.int64)
    if not is_latin_square(s):
        raise NotLatinSquare("rows/columns are not permutations of 0..d-1")
    d = s.shape[0]
    if isinstance(hadamards, ControlledHadamard):
        members = [hadamards.member(j) for j in range(hadamards.control_dim)]
    elif isinstance(hadamards, (list, tuple)):
        members = [_matrix_of(h) for h in hadamards]
    else:
        members = [_matrix_of(hadamards)] * d
    if len(members) != d:
        raise ShapeMismatch(f"expected {d} Hadamards, got {len(members)}")
    for h in members:
        if h.shape != (d, d) or not is_hadamard(h, tol):
            raise NotHadamard("shift-and-multiply phase matrix fails the Hadamard laws")

    h = np.stack(members)
    i, j, k = np.ix_(range(d), range(d), range(d))
    table = np.zeros((d, d, d, d), dtype=np.complex128)
    table[i, j, s[k, j], k] = h[j, i, k]
    return table


def _column_conditions(m: np.ndarray, ones_col: bool, zero_sum_from: int, tol: float) -> bool:
    """Relaxed Hadamard conditions consumed by the UEB proof: first column
    all ones (when requested) and vanishing column sums from a given column."""
    d = m.shape[0]
    if ones_col and cplx.max_abs(m[:, 0] - 1.0) >= tol:
        return False
    sums = np.abs(m.sum(axis=0))
    return bool(np.all(sums[zero_sum_from:] < d * tol))


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

    fully_dephased = is_dephased(g, tol) and all(
        is_dephased(controlled.member(x), tol) for x in range(d)
    )
    if not fully_dephased:
        for x in range(d):
            if not _column_conditions(controlled.member(x), True, 1, tol):
                raise PreconditionFailed(
                    f"H^{x}: neither dephased nor satisfying the column conditions"
                )
        if not _column_conditions(g, True, 1, tol):
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
        for a in range(1, d):
            ops[x, a] = (bx * hx[:, a]) @ bx.conj().T
    return PartitionedUeb(d, ops)


def eigendata(ueb: PartitionedUeb, tol: float = cplx.DEFAULT_TOL, seed: int = 0):
    """Inverse of :func:`ueb_from_mub` on canonical-form tables.

    Requires the distinguished class diagonal. Returns (family, H, G) where
    G[j][x] is the j-th diagonal entry of U_{x,0}, H^x[j][a] the eigenvalue
    of U_{x,a} on basis-x column j (with a convention column of ones at
    a = 0). Feeding the result back into :func:`ueb_from_mub` reproduces
    the table entrywise, since this is its spectral decomposition.
    """
    family = mub_from_ueb(ueb, tol, seed)  # raises NotPartitionedUeb
    if cplx.offdiag_residual(ueb.class_star()) >= tol:
        raise NotCanonicalForm("distinguished class is not diagonal")
    d = ueb.d
    g = np.diagonal(ueb.ops[:, 0], axis1=1, axis2=2).T.copy()
    members = []
    for x in range(d):
        bx = family.basis(x)
        hx = np.ones((d, d), dtype=np.complex128)
        hx[:, 1:] = np.diagonal(bx.conj().T @ ueb.class_ops(x) @ bx, axis1=1, axis2=2).T
        members.append(Hadamard(d, hx))
    return family, ControlledHadamard(d, members), Hadamard(d, g)


def conjugate_ueb(ueb: PartitionedUeb, w, tol: float = cplx.DEFAULT_TOL) -> PartitionedUeb:
    """Replace every operator by W† U W; all UEB and partition laws are
    preserved since conjugation preserves traces, products and commutators."""
    w = cplx.as_matrix(w)
    if not cplx.is_unitary(w, tol):
        raise NotUnitary("conjugating matrix is not unitary within tolerance")
    wd = w.conj().T
    ops = np.empty_like(ueb.ops)
    for x in range(ueb.d):
        ops[x] = wd @ ueb.ops[x] @ w
    return PartitionedUeb(ueb.d, ops)


def ueb_residuals(table, tol: float = cplx.DEFAULT_TOL) -> list:
    """Residuals of the UEB laws: all d^2 operators unitary, and
    tr(U† U') = d * delta under the flat index pairing (the trace law).
    ``table`` is a :class:`PartitionedUeb` or anything its constructor
    accepts."""
    if not isinstance(table, PartitionedUeb):
        table = PartitionedUeb(len(table), table)
    d = table.d
    unitarity = max(cplx.unitarity_residual(row) for row in table.ops)
    f = table.ops.reshape(d * d, d * d)
    trace_law = cplx.max_abs(f.conj() @ f.T - d * np.eye(d * d))
    return [
        cplx.residual_entry("ueb_unitarity", unitarity, tol),
        cplx.residual_entry("ueb_trace_law", trace_law, tol),
    ]


def partition_residuals(ueb: PartitionedUeb, tol: float = cplx.DEFAULT_TOL) -> list:
    """Residuals of the partition laws: identity at (0,0), and every class
    (the distinguished one and each row x) pairwise commuting. Class sizes
    d-1 are structural in the table. Classes are checked one at a time, so
    no temporary exceeds one class."""
    d = ueb.d
    classes = [ueb.class_star()] + [ueb.class_ops(x) for x in range(d)]
    commutator = max(cplx.commutator_residual(ops)[0] for ops in classes)
    return [
        cplx.residual_entry("ueb_identity_slot", cplx.max_abs(ueb.op(0, 0) - np.eye(d)), tol),
        cplx.residual_entry("ueb_class_commutators", commutator, tol),
    ]


def is_ueb(table, tol: float = cplx.DEFAULT_TOL) -> bool:
    """Every residual of :func:`ueb_residuals` below ``tol``."""
    return all(r["pass"] for r in ueb_residuals(table, tol))


def is_partitioned_ueb(ueb: PartitionedUeb, tol: float = cplx.DEFAULT_TOL) -> bool:
    """Every residual of :func:`ueb_residuals` and
    :func:`partition_residuals` below ``tol``."""
    if not isinstance(ueb, PartitionedUeb):
        ueb = PartitionedUeb(len(ueb), ueb)
    return is_ueb(ueb, tol) and all(r["pass"] for r in partition_residuals(ueb, tol))
