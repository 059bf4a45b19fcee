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
        for a in range(1, d):
            ops[x, a] = (bx * hx[:, a]) @ bx.conj().T
    return PartitionedUeb(d, ops)


def eigendata(ueb, tol: float = cplx.DEFAULT_TOL, seed: int = 0):
    """Inverse of :func:`ueb_from_mub` on canonical-form tables.

    Requires the distinguished class diagonal. Returns (family, H, G) where
    G[j][x] is the j-th diagonal entry of U_{x,0}, H^x[j][a] the eigenvalue
    of U_{x,a} on basis-x column j (with a convention column of ones at
    a = 0). Feeding the result back into :func:`ueb_from_mub` reproduces
    the table entrywise, since this is its spectral decomposition. H is
    the class eigenvalue tables :func:`certified_eigenbases` returns.
    """
    ueb = _as_ueb(ueb)
    family, tables = certified_eigenbases(ueb, tol, seed)  # raises NotPartitionedUeb
    if cplx.offdiag_residual(ueb.class_star()) >= tol:
        raise NotCanonicalForm("distinguished class is not diagonal")
    d = ueb.d
    g = np.diagonal(ueb.ops[:, 0], axis1=1, axis2=2).T.copy()
    return family, ControlledHadamard(d, tables[1:]), Hadamard(d, g)


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


def _require_commuting(ueb: PartitionedUeb, tol: float) -> None:
    """The reference partition laws, raising :class:`NotPartitionedUeb`
    when one fails."""
    if not all(r["pass"] for r in partition_residuals(ueb, tol)):
        raise NotPartitionedUeb("input fails the partitioned UEB laws")


def _fro(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each member of a (k, d, d) stack, one ``vdot``
    each, so no temporary is as large as the stack."""
    return np.sqrt([np.vdot(a, a).real for a in stack])


def _certify_class(w: np.ndarray, ops: np.ndarray, table: np.ndarray) -> float:
    """The commutator bound of :func:`certified_eigenbases` for one class
    with eigenbasis ``w`` (0.0 below two members); writes the diagonal of
    W† U_i W into column i + 1 of the eigenvalue ``table``."""
    d = w.shape[0]
    u = np.finfo(np.float64).eps / 2
    gamma = 2 * (d + 2) * u
    m = w.conj().T @ ops @ w
    spectra = table[:, 1:]
    spectra[:] = np.diagonal(m, axis1=1, axis2=2).T
    if len(ops) < 2:
        return 0.0
    m[:, range(d), range(d)] = 0.0
    w_fro2 = float(np.vdot(w, w).real)
    f = _fro(m) + (2 * gamma + gamma**2) * w_fro2 * _fro(ops)
    gram = w.conj().T @ w
    gram[range(d), range(d)] -= 1.0
    delta = float(np.sqrt(np.vdot(gram, gram).real)) + gamma * w_fro2
    if delta >= 0.5:
        return np.inf
    f2, f1 = sorted(f)[-2:]
    lam = cplx.max_abs(spectra)
    a1, a2 = lam + f1, lam + f2
    exact = (2 * lam * (f1 + f2) + 2 * f1 * f2 + 2 * a1 * a2 * delta / (1 - delta)) / (1 - delta)
    swept = (1 + 4 * u) * (exact + 2 * gamma * a1 * a2 / (1 - delta) ** 2)
    return float(swept * (1 + 8 * d * d * u))


def certified_eigenbases(ueb, tol: float = cplx.DEFAULT_TOL, seed: int = 0) -> tuple:
    """The partitioned UEB laws and θ's diagonalization in one pass.

    Returns (family, tables): the family :func:`mubkit.mub.mub_from_ueb`
    describes, and one eigenvalue table per class (k = 0 the distinguished
    class, k = x + 1 row x): tables[k, j, i + 1] = (W_k† U_i W_k)_jj for
    member i of the class and W_k the basis of ``family`` for it, and
    tables[k, :, 0] = 1 for the identity. Row x's table is H^x of
    :func:`eigendata`.

    1. The UEB laws (:func:`ueb_residuals`) and the identity slot.
    2. The d+1 classes are diagonalized, with seed ``seed`` for the
       distinguished class and ``seed + 1 + x`` for class x.
    3. Class commutation is certified from the products M_i = fl(W† U_i W)
       of step 2's bases instead of swept pairwise (O(d^6)). With
       u = 2^-53, gamma = 2(d+2)u and, per class,
         Lambda = max |(M_i)_jj|,
         f_i = ||M_i - diag(M_i)||_F + (2 gamma + gamma^2) ||W||_F^2 ||U_i||_F,
         delta = ||fl(W† W) - I||_F + gamma ||W||_F^2 < 1/2,
       every pair i != j of the class satisfies
         ||U_i U_j - U_j U_i||_F
           <= [2 Lambda (f_i + f_j) + 2 f_i f_j
               + 2 (Lambda + f_i)(Lambda + f_j) delta / (1 - delta)] / (1 - delta).
       Why: W† U_i W = D_i + F_i with D_i = diag(M_i) and ||F_i||_F <= f_i
       (the second term of f_i bounds the rounding of M_i); diagonals
       commute, so [W† U_i W, W† U_j W] = [D_i, F_j] + [F_i, D_j] + [F_i, F_j];
       and U_i = W^-† (W† U_i W) W^-1 with (W† W)^-1 = I + Δ',
       ||Δ'|| <= delta / (1 - delta) and ||W^-1||^2 <= 1 / (1 - delta).
       The bound adds 2 gamma (Lambda + f_i)(Lambda + f_j) / (1 - delta)^2
       for the rounding of the products in :func:`partition_residuals`,
       takes the two largest f_i of each class, and is raised by the
       factor (1 + 4u)(1 + 8 d^2 u) for the rounding of its own
       evaluation, so it is at least the residual the sweep would report.
    4. When the largest class bound is below ``tol`` the sweep is skipped.
    5. Otherwise, or when a diagonalization raises, the sweep decides: if
       it fails, :class:`NotPartitionedUeb` is raised; if it passes, the
       result is returned or the diagonalization's error re-raised.

    So the verdict and the exception are those of running
    :func:`is_partitioned_ueb` first. :func:`partition_residuals` stays the
    reference, and what ``verify`` reports.
    """
    ueb = _as_ueb(ueb)
    if not all(r["pass"] for r in ueb_residuals(ueb, tol) + [_identity_slot(ueb, tol)]):
        raise NotPartitionedUeb("input fails the partitioned UEB laws")
    d = ueb.d
    classes = [ueb.class_star()] + [ueb.class_ops(x) for x in range(d)]
    try:
        eye = cplx.identity(d)
        if cplx.offdiag_residual(classes[0]) < tol:
            star = eye
        else:
            star = cplx.simultaneous_eigenbasis([*classes[0], eye], tol, seed)
        family = MubFamily(d, [star] + [cplx.simultaneous_eigenbasis(ops, tol, seed + 1 + x)
                                        for x, ops in enumerate(classes[1:])])
    except (MubkitError, np.linalg.LinAlgError):
        _require_commuting(ueb, tol)
        raise
    tables = np.ones((d + 1, d, d), dtype=np.complex128)
    if max(map(_certify_class, family.bases, classes, tables)) >= tol:
        _require_commuting(ueb, tol)
    return family, tables


def is_ueb(table, tol: float = cplx.DEFAULT_TOL) -> bool:
    """Every residual of :func:`ueb_residuals` below ``tol``."""
    return all(r["pass"] for r in ueb_residuals(table, tol))


def is_partitioned_ueb(ueb, tol: float = cplx.DEFAULT_TOL) -> bool:
    """Every residual of :func:`ueb_residuals` and
    :func:`partition_residuals` below ``tol``."""
    ueb = _as_ueb(ueb)
    return is_ueb(ueb, tol) and all(r["pass"] for r in partition_residuals(ueb, tol))
