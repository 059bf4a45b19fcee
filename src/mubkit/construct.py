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
from .mub import MubFamily, _overlap_deviations, is_maximal_mub_family


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
    return [_unitarity(table, tol), _trace_law(table, tol)]


def _unitarity(ueb: PartitionedUeb, tol: float) -> dict:
    return cplx.residual_entry(
        "ueb_unitarity", max(cplx.unitarity_residual(row) for row in ueb.ops), tol)


def _trace_law(ueb: PartitionedUeb, tol: float) -> dict:
    """The reference trace law: the d^2 x d^2 Gram of the flat table."""
    d = ueb.d
    f = ueb.ops.reshape(d * d, d * d)
    gram = f.conj() @ f.T
    gram[np.diag_indices(d * d)] -= d
    return cplx.residual_entry("ueb_trace_law", cplx.max_abs(gram), tol)


def _identity_slot(ueb: PartitionedUeb, tol: float) -> dict:
    return cplx.residual_entry("ueb_identity_slot", cplx.max_abs(ueb.op(0, 0) - np.eye(ueb.d)), tol)


def partition_residuals(ueb: PartitionedUeb, tol: float = cplx.DEFAULT_TOL) -> list:
    """Residuals of the partition laws: identity at (0,0), and every class
    (the distinguished one and each row x) pairwise commuting. Class sizes
    d-1 are structural in the table. Classes are checked one at a time, so
    no temporary exceeds one class."""
    commutator = max(cplx.commutator_residual(ops)[0] for ops in _classes(ueb))
    return [
        _identity_slot(ueb, tol),
        cplx.residual_entry("ueb_class_commutators", commutator, tol),
    ]


def _classes(ueb: PartitionedUeb) -> list:
    """The d+1 commuting classes, the distinguished one first."""
    return [ueb.class_star()] + [ueb.class_ops(x) for x in range(ueb.d)]


def _class_terms(w: np.ndarray, m: np.ndarray, stack: np.ndarray) -> tuple:
    """What :func:`trace_law_bound` reads of one class diagonalization, for
    an invertible W and M_a = fl(W† U_a W) over the class ``stack``:
    (W, the eigenvalue table diag(M_a) as rows, the f_a, delta) of
    :func:`mubkit.cplx.commutator_bound`. M itself is not kept."""
    f, delta = cplx._diagonal_split(m, w, stack)
    return w, np.diagonal(m, axis1=1, axis2=2).copy(), f, delta


def trace_law_bound(ueb: PartitionedUeb, terms: list) -> tuple:
    """Upper bounds on the reference trace-law residual (:func:`_trace_law`)
    read off the class diagonalizations: ``terms`` holds
    :func:`_class_terms` for each class of :func:`_classes`, from an
    invertible W and M_a = fl(W† U_a W) for its members. Returns (identity, classes): the
    bound on the Gram entries of the identity, and a symmetric array whose
    entry (x, y) bounds every entry that pairs a member of class x with a
    member of class y; the residual is at most their maximum. An entry is
    inf when a delta below is not below 1/2.

    Per class, with u = 2^-53, gamma_n = 2(n+2)u, delta and the f_a of
    :func:`mubkit.cplx.commutator_bound` (W† U_a W = D_a + F_a,
    D_a = diag(M_a), ||F_a||_F <= f_a, ||W† W - I||_F <= delta), and per
    member the eigenvalue table lambda_a = diag(M_a),
    n_a = ||lambda_a||_2, s_a = n_a + f_a,
    sigma_a = |fl(sum_j lambda_a(j))| + gamma_d ||lambda_a||_1 and
    nu_a = ||U_a||_F:

    * Same class: U_a = W^-† (D_a + F_a) W^-1 for any invertible W, so
      tr(U_a† U_b) = tr((D_a + F_a)† G^-1 (D_b + F_b) G^-1) with G = W† W,
      ||G^-1|| <= 1/(1 - delta) and ||G^-1 - I|| <= delta/(1 - delta), and
        |tr(U_a† U_b) - d delta_ab|
          <= |T_ab - d delta_ab| + s_a s_b / (1 - delta)^2 - n_a n_b
      with T = fl(Lambda† Lambda) the eigenvalue-table Gram, which adds
      gamma_d n_a n_b for its rounding.
    * Classes x != y: tr(U† V) = tr((D + F)† P (D' + F') P†) with
      P = W^-1 W'^-† = G^-1 O G'^-1 and O = W† W'. With
      r = sqrt((1 + delta)(1 + delta')) >= ||O||, e = delta/(1 - delta)
      and rho = r (e + e' + e e') >= ||P - O||,
        |tr(U† V)| <= |tr(D† O D' O†)| + n n' rho (2r + rho)
                      + (s s' - n n') / ((1 - delta)(1 - delta')).
      tr(D† O D' O†) = sum_jk conj(lambda_j) lambda'_k |O_jk|^2 is
      conj(sum lambda)(sum lambda') / d + lambda† (Q - J/d) lambda' with
      Q_jk = |O_jk|^2, so it is at most sigma sigma' / d + n n' (phi + d kappa):
      phi is the Frobenius norm of the overlap sweep
      fl(|fl(O_jk)|^2 - 1/d) (:func:`mubkit.mub._overlap_deviations`), and
      kappa = gamma_d r (2 sqrt(2/d + beta) + gamma_d r) + 8u(2/d + beta),
      with beta the sweep's largest entry, bounds the rounding of each of
      its entries. Per class the maxima of n, f, sigma and nu over its
      members stand in.
    * The identity: its row of the Gram, one matrix-vector product, with
      2 gamma_{d^2} nu_0 nu_b for its rounding and the reference's.

    Every entry adds gamma_{d^2} nu_a nu_b for the rounding of the
    reference Gram, and every bound is raised by the factor
    (1 + 4u)(1 + 8 d^2 u) for the rounding of the reference's last steps
    and of its own evaluation, so it is at least the residual the
    reference would report.
    """
    d = ueb.d
    u = np.finfo(np.float64).eps / 2
    gd, gd2 = 2 * (d + 2) * u, 2 * (d * d + 2) * u
    scale = (1 + 4 * u) * (1 + 8 * d * d * u)
    flat = ueb.flat()
    nu = cplx._fro(flat)
    row = flat.reshape(d * d, d * d) @ flat[0].conj().ravel()
    row[0] -= d
    identity = scale * float(np.max(np.abs(row) + 2 * gd2 * nu[0] * nu))
    if d == 1:  # the identity is the whole table
        return identity, np.zeros((0, 0))
    nus = [nu.reshape(d, d)[1:, 0]] + list(nu.reshape(d, d)[:, 1:])
    k = len(terms)
    # per class: delta, the maxima of n, f, sigma and nu, and its own block
    delta, big_n, big_f, big_sigma, big_nu = np.zeros((5, k))
    cross = np.zeros((k, k))
    with np.errstate(divide="ignore", invalid="ignore"):
        for x, (_, lam, f, delta_x) in enumerate(terms):
            delta[x] = delta_x
            n = np.linalg.norm(lam, axis=1)
            sigma = np.abs(lam.sum(axis=1)) + gd * np.abs(lam).sum(axis=1)
            big_n[x], big_f[x], big_sigma[x], big_nu[x] = n.max(), f.max(), sigma.max(), nus[x].max()
            table = lam.conj() @ lam.T
            table[np.diag_indices(len(lam))] -= d
            s = n + f
            cross[x, x] = np.max(np.abs(table) + np.outer(s, s) / (1 - delta[x]) ** 2
                                 - (1 - gd) * np.outer(n, n) + gd2 * np.outer(nus[x], nus[x]))
        bases = np.stack([t[0] for t in terms])
        for x in range(k - 1):
            dev = _overlap_deviations(bases[x], bases[x + 1:])
            beta = np.abs(dev).max(axis=(1, 2))
            phi = np.sqrt(np.einsum("kij,kij->k", dev, dev))
            y = slice(x + 1, None)
            e, ey = delta[x] / (1 - delta[x]), delta[y] / (1 - delta[y])
            r = np.sqrt((1 + delta[x]) * (1 + delta[y]))
            rho = r * (e + ey + e * ey)
            kappa = gd * r * (2 * np.sqrt(2 / d + beta) + gd * r) + 8 * u * (2 / d + beta)
            nn = big_n[x] * big_n[y]
            cross[x, y] = (big_sigma[x] * big_sigma[y] / d
                           + nn * (phi + d * kappa + rho * (2 * r + rho))
                           + ((big_n[x] + big_f[x]) * (big_n[y] + big_f[y]) - nn)
                           / ((1 - delta[x]) * (1 - delta[y]))
                           + gd2 * big_nu[x] * big_nu[y])
    cross = np.maximum(cross, cross.T)
    bad = delta >= 0.5
    cross[bad], cross[:, bad] = np.inf, np.inf
    return identity, scale * cross


def _diagonalize_classes(ueb: PartitionedUeb, tol: float, seed: int) -> tuple:
    """θ's d+1 bases, and :func:`_class_terms` for each class of
    :func:`_classes`, with the checks, seeds and draws of
    :func:`mubkit.cplx.simultaneous_eigenbasis` bar its unitarity law: a
    basis is the phase-normalized W. The distinguished class is drawn with
    the identity, or, when it is already diagonal, keeps W = I (and M is
    the class) after the same commutation certificate; at d = 1 the classes
    have no members and any basis is theirs."""
    eye = np.eye(ueb.d, dtype=np.complex128)
    bases, terms = [], []
    for x, ops in enumerate(_classes(ueb)):
        if x == 0 and cplx.offdiag_residual(ops) < tol:
            cplx.require_commuting(ops, cplx.commutator_bound(ops, eye, ops), tol)
            w, m = eye, ops
        elif x == 0:
            w, m = cplx._diagonalize(cplx.as_matrix(np.concatenate([ops, eye[None]]), 3), tol, seed)
            m = m[:-1]
        elif len(ops):
            w, m = cplx._diagonalize(cplx.as_matrix(ops, 3), tol, seed + x)
        else:
            w, m = eye, ops
        bases.append(eye if w is eye else cplx.phase_normalize(w, tol))
        terms.append(_class_terms(w, m, ops))
    return bases, terms


def _trace_law_certified(ueb: PartitionedUeb, terms: list, tol: float) -> bool:
    """Whether :func:`trace_law_bound` proves the trace law below ``tol``.
    When the identity's bound holds but a class pair's falls short, the
    class of that pair with the larger own bound (its diagonal entry, set
    by how far its M is from diagonal) takes one
    :func:`mubkit.cplx._newton_step` from its W and M, formed again, and
    the bound is read again."""
    identity, bound = trace_law_bound(ueb, terms)
    own = bound.diagonal()
    short = ((bound >= tol) & (own[:, None] >= own[None, :])).any(axis=1)
    if identity >= tol or not short.any():
        return identity < tol
    terms = list(terms)
    for x, stack in enumerate(_classes(ueb)):
        if short[x]:
            w = terms[x][0]
            w = cplx._newton_step(w, w.conj().T @ stack @ w)
            terms[x] = _class_terms(w, w.conj().T @ stack @ w, stack)
    identity, bound = trace_law_bound(ueb, terms)
    return bool(identity < tol and (bound < tol).all())


def _mub_family(ueb, tol: float, seed: int) -> MubFamily:
    """The body of :func:`mubkit.mub.mub_from_ueb`, which :func:`eigendata`
    calls too. Unitarity and the identity slot are the reference laws. The
    trace law is certified from the class diagonalizations
    (:func:`trace_law_bound`); the reference Gram runs only when that
    certificate falls short. When a class's diagonalization or
    commutation certificate raises, the reference UEB laws and the sweep of
    every class (:func:`partition_residuals`) decide between
    :class:`NotPartitionedUeb` and re-raising, so θ raises as if
    :func:`is_partitioned_ueb` had been checked first."""
    ueb = _as_ueb(ueb)
    if not (_unitarity(ueb, tol)["pass"] and _identity_slot(ueb, tol)["pass"]):
        raise NotPartitionedUeb("input fails the partitioned UEB laws")
    try:
        bases, terms = _diagonalize_classes(ueb, tol, seed)
        family = MubFamily(ueb.d, bases)
    except (MubkitError, np.linalg.LinAlgError):
        if not all(r["pass"] for r in ueb_residuals(ueb, tol) + partition_residuals(ueb, tol)):
            raise NotPartitionedUeb("input fails the partitioned UEB laws")
        raise
    if not (_trace_law_certified(ueb, terms, tol) or _trace_law(ueb, tol)["pass"]):
        raise NotPartitionedUeb("input fails the partitioned UEB laws")
    return family


def is_ueb(table, tol: float = cplx.DEFAULT_TOL) -> bool:
    """Every residual of :func:`ueb_residuals` below ``tol``."""
    return all(r["pass"] for r in ueb_residuals(table, tol))


def is_partitioned_ueb(ueb, tol: float = cplx.DEFAULT_TOL) -> bool:
    """Every residual of :func:`ueb_residuals` and
    :func:`partition_residuals` below ``tol``."""
    ueb = _as_ueb(ueb)
    return is_ueb(ueb, tol) and all(r["pass"] for r in partition_residuals(ueb, tol))
