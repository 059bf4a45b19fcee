"""Structure tensors of a finite field over Hilbert space and numerical
verification of every algebraic law they satisfy.

Four commutative algebras live on concrete index spaces:

* black: the copy spider of the computational basis on C^d,
* red: the linearized field addition on C^d (unit at index 0),
* yellow: the linearized field multiplication on all of C^d (unit at 1),
* the multiplicative group algebra on the (d-1)-dimensional space of
  nonzero elements ("green wires"), together with the copy spider there.

Green labels k correspond to black labels k+1 through the inclusion
``iota`` and retraction ``p``; ``proj = iota @ p`` kills the zero state.
All of these are real 0/1 arrays (float64), so the adjoint of a tensor is
its transpose: each law wires it in by einsum index order and no tensor is
conjugated. Only the character tables ``chi`` and ``psi`` are complex.
Laws whose sides only compose lookups of a product's partial function
table, read off the tensor itself (``_table``), are equations or counts on
index grids of at most four indices: associativity, distributivity, spider
fusion, the bialgebra copy law, strong complementarity, cancellation and the
reassociations. The laws with true sums contract both sides to explicit
arrays, except that each dot contracts one Frobenius wiring (d^4 float64,
the largest array) and reads the rest of its family off it and its table.
The suite refuses (``TooLarge``) a field whose d^4 real array would exceed
``MAX_ARRAY_BYTES`` = 128 MiB, which admits d <= 64.
A modular-ring variant with composite d serves as the negative control:
it must fail exactly at the multiplicative-group laws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cplx
from .cplx import residual_entry as _entry
from .characters import (
    ControlledHadamard,
    additive_character_matrix,
    controlled_from_copies,
    is_controlled_hadamard,
    multiplicative_character_matrix,
)
from .errors import NotControlledHadamard, TooLarge
from .gf import FiniteField

DEFAULT_TOL = 1e-10

# Size limit on one d^4 float64 array (the suite's largest): 128 MiB.
MAX_ARRAY_BYTES = 128 << 20


def _einsum(*args, **kwargs):
    return np.einsum(*args, optimize=True, **kwargs)


@dataclass
class StructureTensors:
    d: int
    black_mult: np.ndarray
    black_unit: np.ndarray
    red_mult: np.ndarray
    red_unit: np.ndarray
    yellow_mult: np.ndarray
    yellow_unit: np.ndarray
    green_mult: np.ndarray
    green_unit: np.ndarray
    mul_group_mult: np.ndarray
    mul_group_unit: np.ndarray
    p: np.ndarray
    iota: np.ndarray
    proj: np.ndarray
    chi: np.ndarray
    psi: np.ndarray | None
    yellow_mult_assembled: np.ndarray


def _copy_spider(n: int) -> np.ndarray:
    m = np.zeros((n, n, n))
    idx = np.arange(n)
    m[idx, idx, idx] = 1.0
    return m


def _op_tensor(table: np.ndarray) -> np.ndarray:
    """Mult tensor m[c, a, b] = 1 iff c = table[a, b]."""
    n = table.shape[0]
    m = np.zeros((n, n, n))
    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    m[table, a, b] = 1.0
    return m


def _assemble_yellow(red_unit, mul_group, p, iota) -> np.ndarray:
    """Full-space multiplication from its four-summand definition: the
    group multiplication conjugated onto the nonzero subspace plus the
    three corrections that absorb a zero input into the zero output."""
    d = p.shape[1]
    t1 = _einsum("oc,cxy,xa,yb->oab", iota, mul_group, p, p)
    kills = np.ones(d - 1) @ p  # effect selecting nonzero inputs
    e0 = red_unit
    t2 = _einsum("o,a,b->oab", e0, e0, kills)
    t3 = _einsum("o,a,b->oab", e0, kills, e0)
    t4 = _einsum("o,a,b->oab", e0, e0, e0)
    return t1 + t2 + t3 + t4


def _structure_tensors(add_table, mul_table, chi, psi) -> StructureTensors:
    """Every tensor of the ring with these (d, d) tables. Products of two
    nonzero elements that reach zero leave the nonzero set, so the group
    tensor is the nonzero block of the full multiplication and is partial
    when the nonzero elements are not closed."""
    d = len(add_table)
    red_unit = np.zeros(d)
    red_unit[0] = 1.0
    yellow = _op_tensor(mul_table)
    group = yellow[1:, 1:, 1:].copy()
    mul_group_unit = np.zeros(d - 1)
    mul_group_unit[0] = 1.0  # field element 1
    yellow_unit = np.zeros(d)
    yellow_unit[1] = 1.0

    p = np.zeros((d - 1, d))
    p[np.arange(d - 1), np.arange(1, d)] = 1.0
    iota = p.T.copy()
    proj = np.eye(d)
    proj[0, 0] = 0.0

    return StructureTensors(
        d=d,
        black_mult=_copy_spider(d),
        black_unit=np.ones(d),
        red_mult=_op_tensor(add_table),
        red_unit=red_unit,
        yellow_mult=yellow,
        yellow_unit=yellow_unit,
        green_mult=_copy_spider(d - 1),
        green_unit=np.ones(d - 1),
        mul_group_mult=group,
        mul_group_unit=mul_group_unit,
        p=p,
        iota=iota,
        proj=proj,
        chi=chi,
        psi=psi,
        yellow_mult_assembled=_assemble_yellow(red_unit, group, p, iota),
    )


def build_structure_tensors(f: FiniteField) -> StructureTensors:
    """Populate every tensor for a finite field. The assembled full-space
    multiplication is compared with the direct product table by the
    reported law ``full_multiplication_assembly``."""
    return _structure_tensors(
        f.add_table,
        f.mul_table,
        additive_character_matrix(f).matrix,
        multiplicative_character_matrix(f).matrix,
    )


def ring_structure_tensors(d: int) -> StructureTensors:
    """Negative-control tensors: Z_d ring multiplication in place of the
    field product. For composite d the nonzero elements stop being a group
    (the restricted multiplication is not even closed), which the law
    reports localize."""
    idx = np.arange(d)
    mul_table = (idx[:, None] * idx[None, :]) % d
    roots = np.array([cplx.unit_root(k, d) for k in range(d)], dtype=np.complex128)
    return _structure_tensors((idx[:, None] + idx[None, :]) % d, mul_table, roots[mul_table], None)


# -- report helpers ----------------------------------------------------------

def _diff(a, b) -> float:
    return cplx.max_abs(np.asarray(a) - np.asarray(b))


def _read_table(m: np.ndarray) -> tuple:
    """The partial function table T of a product tensor, m[c, a, b] = [c =
    T(a, b)], read off the tensor, with -1 where the product is undefined,
    and the fault max |m - the 0/1 tensor of T|. An extra row and column of
    -1 make compositions such as T[T[a, b], c] propagate undefined."""
    n = m.shape[0]
    # one byte per entry for n <= 128, so a d^4 grid of lookups stays small
    table = np.full((n + 1, n + 1), -1, dtype=np.min_scalar_type(-n))
    table[:n, :n] = np.where(m.any(axis=0), m.argmax(axis=0), -1)
    return table, _diff(m, np.arange(n)[:, None, None] == table[:n, :n])


def _table(m: np.ndarray, name: str) -> np.ndarray:
    """The T of ``_read_table``, refusing (``ValueError``) any m with a fault,
    which makes a law on the table equal the law on the tensor."""
    table, fault = _read_table(m)
    if fault:
        raise ValueError(f"{name} is not the 0/1 tensor of a partial function")
    return table


def _spider_fusion(table: np.ndarray, wiring: np.ndarray) -> float:
    """Difference of the 3-in/2-out trees ``opq,oabc->pqcab`` (with
    oabc = ``wab,owc``) and ``wab,wpv,qvc->pqcba`` for the padded table T
    and its Frobenius ``wiring``. The first is [T(p, q) = T(T(a, b), c)]
    and the second X[T(b, a), p, q, c] for the count X = ``wpv,qvc->wpqc``,
    which is X[w, p, q, c] = wiring[p, q, w, c]. At output (p, q, c, a, b)
    both depend on a and b only through the pair (T(a, b), T(b, a)), so the
    trees are compared once per distinct pair."""
    n = wiring.shape[0]
    t = table[:n, :n]
    pq = t[:, :, None]
    worst = 0.0
    for s, r in np.unique(np.stack([t, t.T], axis=-1).reshape(-1, 2), axis=0):
        left = (pq == table[s, :n]) & (pq >= 0)
        worst = max(worst, _diff(left, wiring[:, :, r] if r >= 0 else 0.0))
    return worst


# name -> (mult field, unit field, loop scalar, group-like). Copy spiders are
# not group algebras: their "product" is partial on basis states, so the
# closure (totality) law applies only to the group-like dots.
_ALGEBRAS = {
    "black": ("black_mult", "black_unit", lambda d: 1, False),
    "red": ("red_mult", "red_unit", lambda d: d, True),
    "yellow_green": ("mul_group_mult", "mul_group_unit", lambda d: d - 1, True),
    "green": ("green_mult", "green_unit", lambda d: 1, False),
}


def _monoid_residuals(m, table, u) -> dict:
    """Associativity, two-sided unit and commutativity residuals of the
    product ``m`` with padded table ``table`` and unit ``u``. Associativity
    compares T(T(a, b), c) with T(a, T(b, c)) on the table's (a, b, c) grid."""
    n = m.shape[0]
    a, b, c = np.ogrid[:n, :n, :n]
    eye = np.eye(n)
    return {
        "associativity": float(np.any(table[table[a, b], c] != table[a, table[b, c]])),
        "unit": max(_diff(_einsum("oub,u->ob", m, u), eye), _diff(_einsum("oau,u->oa", m, u), eye)),
        "commutativity": _diff(m, m.transpose(0, 2, 1)),
    }


def verify_frobenius(t: StructureTensors, which: str, tol: float = DEFAULT_TOL) -> list:
    """Monoid, Frobenius and (quasi-)specialness laws for one dot, plus a
    spider-fusion spot check on two differently wired 3-in/2-out trees. The
    right wiring is the left one ``aow,pwb->opab`` transposed by (2, 3, 0, 1),
    and the middle one, [T(o, p) = T(a, b)], is symmetric under that swap."""
    if which not in _ALGEBRAS:
        raise ValueError(f"unknown dot {which!r}")
    mult_name, unit_name, scale, group_like = _ALGEBRAS[which]
    m = getattr(t, mult_name)
    n = m.shape[0]
    k = scale(t.d)
    table = _table(m, mult_name)
    tab = table[:n, :n]
    out = []

    if group_like:
        out.append(_entry(f"{which}.closure", _diff(m.sum(axis=0), np.ones((n, n))), tol))
    out.extend(
        _entry(f"{which}.{law}", r, tol)
        for law, r in _monoid_residuals(m, table, getattr(t, unit_name)).items()
    )

    wiring = _einsum("aow,pwb->opab", m, m)
    spider = _spider_fusion(table, wiring)
    # [T(o, p) = T(a, b), defined], laid out as the wiring to come off it in one sweep
    same = np.equal(tab[:, :, None, None], tab, out=np.empty_like(wiring, dtype=bool))
    wiring -= np.logical_and(same, tab[:, :, None, None] >= 0, out=same)
    out.append(_entry(f"{which}.frobenius", cplx.max_abs(wiring), tol))
    loop = np.diag(np.bincount(tab[tab >= 0], minlength=n))
    law = f"{which}.special" if k == 1 else f"{which}.quasi_special"
    out.append(_entry(law, _diff(loop, k * np.eye(n)), tol))
    out.append(_entry(f"{which}.spider_fusion", spider, tol))
    return out


def verify_bialgebra_and_complementarity(t: StructureTensors, pair: str,
                                         tol: float = DEFAULT_TOL) -> list:
    """Bialgebra laws of (addition|multiplication) against the copy spider;
    strong complementarity and reality for addition, the cancellation
    identity for multiplication (the two are not strongly complementary).
    For the tensor of a table T both sides of ``bialgebra_mult_copy`` are
    [o = p = T(a, b)]: it reads the fault of ``_read_table``, and the other
    table laws fail with it. With counts c[a, v] = #{b : T(a, b) = v}, the
    copy-then-add Gram and the cancellation composite are 0/1 and equal their
    targets iff c = 1 (on rows 1..d-1 for cancellation); the split-then-copy
    Gram is diagonal, holding c of the transposed table."""
    if pair == "red-black":
        m, u = t.red_mult, t.red_unit
    elif pair == "yellow-black":
        m, u = t.yellow_mult, t.yellow_unit
    else:
        raise ValueError(f"unknown pair {pair!r}")
    mb = t.black_mult
    d = t.d
    out = []

    table, fault = _read_table(m)
    hits = table[:d, :d, None] == np.arange(d)  # [T(a, b) = v]
    counts = hits.sum(axis=1)
    out.append(_entry(f"{pair}.bialgebra_mult_copy", fault, tol))
    out.append(_entry(f"{pair}.bialgebra_mult_counit", _diff(m.sum(axis=0), np.ones((d, d))), tol))
    out.append(_entry(
        f"{pair}.bialgebra_unit_copy",
        _diff(_einsum("wop,w->op", mb, u), np.outer(u, u)),
        tol,
    ))
    out.append(_entry(f"{pair}.bialgebra_unit_counit", abs(u.sum() - 1.0), tol))

    if pair == "red-black":
        out.append(_entry(
            "red-black.strong_complementarity_copy_then_add",
            max(fault, float(np.any(counts != 1))),
            tol,
        ))
        out.append(_entry(
            "red-black.strong_complementarity_split_then_copy",
            max(fault, _diff(hits.sum(axis=0), 1)),
            tol,
        ))
        fourier = t.chi / np.sqrt(d)
        out.append(_entry(
            "red-black.fourier_basis_unbiased",
            max(
                _diff(fourier.conj().T @ fourier, np.eye(d)),
                _diff(np.abs(t.chi), np.ones((d, d))),
            ),
            tol,
        ))
        # Holds by dtype for the tensors this module builds (float64); it
        # fails only on a complex addition tensor or unit passed in from outside.
        out.append(_entry(
            "red-black.addition_real",
            max(cplx.max_abs(m.imag), cplx.max_abs(u.imag)),
            tol,
        ))
    else:
        cancels = max(fault, float(np.any(counts[1:] != 1)))
        out.append(_entry("yellow-black.cancellation", cancels, tol))
    return out


def verify_field_equations(t: StructureTensors, tol: float = DEFAULT_TOL) -> list:
    """Distributivity on the tables' (a, b, c) grid; the mixed character law,
    the inclusion/retraction relationships and the projector identities."""
    my = t.yellow_mult
    d = t.d
    out = []

    add, mul = _table(t.red_mult, "red_mult"), _table(my, "yellow_mult")
    a, b, c = np.ogrid[:d, :d, :d]
    left = mul[a, add[b, c]] != add[mul[a, b], mul[a, c]]
    out.append(_entry("distributivity_left", float(np.any(left)), tol))
    right = mul[add[a, b], c] != add[mul[a, c], mul[b, c]]
    out.append(_entry("distributivity_right", float(np.any(right)), tol))

    out.append(_entry(
        "character_mixed_law",
        _diff(t.chi, _einsum("c,cab->ab", t.chi[1, :], my)),
        tol,
    ))

    monoid = _monoid_residuals(my, mul, t.yellow_unit)
    out.extend(
        _entry(f"full_multiplication_{law}", monoid[law], tol)
        for law in ("unit", "associativity", "commutativity")
    )

    out.append(_entry("retraction_of_inclusion", _diff(t.p @ t.iota, np.eye(d - 1)), tol))
    out.append(_entry("retraction_of_black_unit", _diff(t.p @ t.black_unit, t.green_unit), tol))
    out.append(_entry(
        "copy_spider_restriction",
        _diff(_einsum("oc,cab,ax,by->oxy", t.p, t.black_mult, t.iota, t.iota), t.green_mult),
        tol,
    ))
    t0 = _einsum("o,a,b->oab", t.red_unit, t.red_unit, t.red_unit)
    out.append(_entry(
        "copy_spider_extension",
        _diff(
            _einsum("oc,cxy,xa,yb->oab", t.iota, t.green_mult, t.p, t.p),
            t.black_mult - t0,
        ),
        tol,
    ))
    out.append(_entry("inclusion_retraction_projector", _diff(t.iota @ t.p, t.proj), tol))
    out.append(_entry("projector_kills_zero", cplx.max_abs(t.proj @ t.red_unit), tol))
    eye = np.eye(d)
    out.append(_entry("projector_fixes_nonzero", _diff(t.proj[:, 1:], eye[:, 1:]), tol))

    if t.psi is not None:
        psi = t.psi
        m = d - 1
        out.append(_entry(
            "multiplicative_fourier_hadamard",
            max(
                _diff(np.abs(psi), np.ones((m, m))),
                _diff(psi @ psi.conj().T, m * np.eye(m)),
            ),
            tol,
        ))
        out.append(_entry(
            "multiplicative_character_homomorphism",
            _diff(_einsum("jc,cab->jab", psi, t.mul_group_mult), _einsum("ja,jb->jab", psi, psi)),
            tol,
        ))
    out.append(_entry(
        "full_multiplication_assembly",
        _diff(t.yellow_mult, t.yellow_mult_assembled),
        tol,
    ))
    return out


def verify_auxiliary_identities(t: StructureTensors, controlled: ControlledHadamard,
                           tol: float = DEFAULT_TOL) -> list:
    """The controlled-Hadamard row-sum lemma, the vanishing of the zero
    state under the retraction, the two four-input reassociation lemmas,
    and the projector/copy-spider exchange."""
    if not is_controlled_hadamard(controlled, tol=max(tol, 1e-9)):
        raise NotControlledHadamard("family member fails the Hadamard conditions")
    mb = t.black_mult
    d = t.d
    out = []

    row_sums = controlled.members @ np.ones(d)
    out.append(_entry("controlled_hadamard_projected_sums", cplx.max_abs(row_sums @ t.proj.T), tol))

    out.append(_entry(
        "retraction_kills_zero_state",
        max(cplx.max_abs(t.p @ t.red_unit), cplx.max_abs(t.red_unit @ t.iota)),
        tol,
    ))

    # Both sides of each reassociation are table compositions on the
    # (w, x, y, z) grid; -1 (undefined) compares equal to -1, exactly as two
    # all-zero columns of the einsum do.
    add, mul = _table(t.red_mult, "red_mult"), _table(t.yellow_mult, "yellow_mult")
    w, x, y, z = np.ogrid[:d, :d, :d, :d]
    out.append(_entry(
        "sum_reassociation",
        float(np.any(add[add[w, mul[y, z]], mul[x, z]] != add[add[w, mul[x, z]], mul[y, z]])),
        tol,
    ))
    out.append(_entry(
        "product_reassociation",
        float(np.any(
            add[mul[w, y], mul[x, add[w, mul[y, z]]]] != add[mul[w, x], mul[add[w, mul[x, z]], y]]
        )),
        tol,
    ))

    e1 = _einsum("ow,wab->oab", t.proj, mb)
    e2 = _einsum("oab,ax,by->oxy", mb, t.proj, t.proj)
    e3 = _einsum("ow,wab,ax,by->oxy", t.proj, mb, t.proj, t.proj)
    t0 = _einsum("o,a,b->oab", t.red_unit, t.red_unit, t.red_unit)
    out.append(_entry(
        "projector_copy_exchange",
        max(_diff(e1, e2), _diff(e2, e3), _diff(mb - e3, t0)),
        tol,
    ))
    return out


def run_axiom_suite(f: FiniteField, tol: float = DEFAULT_TOL) -> list:
    """Every law in this module for one field, with the additive character
    table supplying the controlled Hadamard for the row-sum identity.
    Refuses (``TooLarge``) before building anything when one d^4 real
    array would exceed ``MAX_ARRAY_BYTES``."""
    nbytes = f.d**4 * np.dtype(np.float64).itemsize
    if nbytes > MAX_ARRAY_BYTES:
        raise TooLarge(
            f"axiom suite at d = {f.d} needs {nbytes} B per d^4 real array, "
            f"over the {MAX_ARRAY_BYTES} B limit"
        )
    t = build_structure_tensors(f)
    controlled = controlled_from_copies(t.chi, f.d)
    report = []
    for which in ("black", "red", "yellow_green", "green"):
        report.extend(verify_frobenius(t, which, tol))
    for pair in ("red-black", "yellow-black"):
        report.extend(verify_bialgebra_and_complementarity(t, pair, tol))
    report.extend(verify_field_equations(t, tol))
    report.extend(verify_auxiliary_identities(t, controlled, tol))
    return report
