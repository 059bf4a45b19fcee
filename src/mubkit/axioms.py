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
Every equation below is checked by contracting both sides to explicit
arrays and comparing, feasible because d <= 16 and arities stay small.
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
from .errors import NotControlledHadamard
from .gf import FiniteField

DEFAULT_TOL = 1e-10


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


def build_structure_tensors(f: FiniteField) -> StructureTensors:
    """Populate every tensor for a finite field; the assembled full-space
    multiplication is cross-checked against the direct product table."""
    d = f.d
    black_mult = _copy_spider(d)
    black_unit = np.ones(d)
    red_mult = _op_tensor(f.add_table)
    red_unit = np.zeros(d)
    red_unit[0] = 1.0

    green_mult = _copy_spider(d - 1)
    green_unit = np.ones(d - 1)
    group_table = f.mul_table[1:, 1:] - 1  # green labels
    mul_group_mult = _op_tensor(group_table)
    mul_group_unit = np.zeros(d - 1)
    mul_group_unit[0] = 1.0  # field element 1

    p = np.zeros((d - 1, d))
    p[np.arange(d - 1), np.arange(1, d)] = 1.0
    iota = p.T.copy()
    proj = np.eye(d)
    proj[0, 0] = 0.0

    yellow_direct = _op_tensor(f.mul_table)
    yellow_assembled = _assemble_yellow(red_unit, mul_group_mult, p, iota)
    if not np.array_equal(yellow_direct, yellow_assembled):
        raise AssertionError("assembled full-space multiplication disagrees with the product table")
    yellow_unit = np.zeros(d)
    yellow_unit[1] = 1.0

    return StructureTensors(
        d=d,
        black_mult=black_mult,
        black_unit=black_unit,
        red_mult=red_mult,
        red_unit=red_unit,
        yellow_mult=yellow_direct,
        yellow_unit=yellow_unit,
        green_mult=green_mult,
        green_unit=green_unit,
        mul_group_mult=mul_group_mult,
        mul_group_unit=mul_group_unit,
        p=p,
        iota=iota,
        proj=proj,
        chi=additive_character_matrix(f).matrix,
        psi=multiplicative_character_matrix(f).matrix,
        yellow_mult_assembled=yellow_assembled,
    )


def ring_structure_tensors(d: int) -> StructureTensors:
    """Negative-control tensors: Z_d ring multiplication in place of the
    field product. For composite d the nonzero elements stop being a group
    (the restricted multiplication is not even closed), which the law
    reports localize."""
    idx = np.arange(d)
    add_table = (idx[:, None] + idx[None, :]) % d
    mul_table = (idx[:, None] * idx[None, :]) % d

    black_mult = _copy_spider(d)
    black_unit = np.ones(d)
    red_mult = _op_tensor(add_table)
    red_unit = np.zeros(d)
    red_unit[0] = 1.0

    green_mult = _copy_spider(d - 1)
    green_unit = np.ones(d - 1)
    # partial tensor: products escaping the nonzero set contribute nothing
    group = np.zeros((d - 1, d - 1, d - 1))
    for a in range(1, d):
        for b in range(1, d):
            c = (a * b) % d
            if c != 0:
                group[c - 1, a - 1, b - 1] = 1.0
    mul_group_unit = np.zeros(d - 1)
    mul_group_unit[0] = 1.0

    p = np.zeros((d - 1, d))
    p[np.arange(d - 1), np.arange(1, d)] = 1.0
    iota = p.T.copy()
    proj = np.eye(d)
    proj[0, 0] = 0.0

    chi = np.array(
        [[cplx.unit_root(a * b, d) for b in range(d)] for a in range(d)],
        dtype=np.complex128,
    )
    yellow = _op_tensor(mul_table)
    yellow_unit = np.zeros(d)
    yellow_unit[1] = 1.0

    return StructureTensors(
        d=d,
        black_mult=black_mult,
        black_unit=black_unit,
        red_mult=red_mult,
        red_unit=red_unit,
        yellow_mult=yellow,
        yellow_unit=yellow_unit,
        green_mult=green_mult,
        green_unit=green_unit,
        mul_group_mult=group,
        mul_group_unit=mul_group_unit,
        p=p,
        iota=iota,
        proj=proj,
        chi=chi,
        psi=None,
        yellow_mult_assembled=_assemble_yellow(red_unit, group, p, iota),
    )


# -- report helpers ----------------------------------------------------------

def _diff(a, b) -> float:
    return cplx.max_abs(np.asarray(a) - np.asarray(b))


# name -> (mult field, unit field, loop scalar, group-like). Copy spiders are
# not group algebras: their "product" is partial on basis states, so the
# closure (totality) law applies only to the group-like dots.
_ALGEBRAS = {
    "black": ("black_mult", "black_unit", lambda d: 1, False),
    "red": ("red_mult", "red_unit", lambda d: d, True),
    "yellow_green": ("mul_group_mult", "mul_group_unit", lambda d: d - 1, True),
    "green": ("green_mult", "green_unit", lambda d: 1, False),
}


def verify_frobenius(t: StructureTensors, which: str, tol: float = DEFAULT_TOL) -> list:
    """Monoid, Frobenius and (quasi-)specialness laws for one dot, plus a
    spider-fusion spot check on two differently wired 3-in/2-out trees."""
    mult_name, unit_name, scale, group_like = _ALGEBRAS[which]
    m = np.asarray(getattr(t, mult_name), dtype=np.complex128)
    u = np.asarray(getattr(t, unit_name), dtype=np.complex128)
    n = m.shape[0]
    k = scale(t.d)
    out = []

    if group_like:
        out.append(_entry(f"{which}.closure", _diff(m.sum(axis=0), np.ones((n, n))), tol))
    out.append(_entry(
        f"{which}.associativity",
        _diff(_einsum("wab,owc->oabc", m, m), _einsum("oaw,wbc->oabc", m, m)),
        tol,
    ))
    left_unit = _einsum("oub,u->ob", m, u)
    right_unit = _einsum("oau,u->oa", m, u)
    out.append(_entry(
        f"{which}.unit",
        max(_diff(left_unit, np.eye(n)), _diff(right_unit, np.eye(n))),
        tol,
    ))
    out.append(_entry(f"{which}.commutativity", _diff(m, m.transpose(0, 2, 1)), tol))

    mc = m.conj()
    frob_left = _einsum("aow,pwb->opab", mc, m)
    frob_mid = _einsum("wop,wab->opab", mc, m)
    frob_right = _einsum("oaw,bwp->opab", m, mc)
    out.append(_entry(
        f"{which}.frobenius",
        max(_diff(frob_left, frob_mid), _diff(frob_mid, frob_right)),
        tol,
    ))
    loop = _einsum("oab,wab->ow", m, mc)
    law = f"{which}.special" if k == 1 else f"{which}.quasi_special"
    out.append(_entry(law, _diff(loop, k * np.eye(n)), tol))

    rng = np.random.default_rng(0)
    perm_a = rng.permutation(3)
    perm_b = rng.permutation(3)
    inner = _einsum("wab,owc->oabc", m, m)
    tree_a = _einsum("opq,oabc->pqabc", mc, inner)
    tree_b = _einsum("wab,wpv,qvc->pqabc", m, mc, m)
    tree_a = tree_a.transpose(0, 1, *(2 + perm_a))
    tree_b = tree_b.transpose(0, 1, *(2 + perm_b))
    out.append(_entry(f"{which}.spider_fusion", _diff(tree_a, tree_b), tol))
    return out


def verify_bialgebra_and_complementarity(t: StructureTensors, pair: str,
                                         tol: float = DEFAULT_TOL) -> list:
    """Bialgebra laws of (addition|multiplication) against the copy spider;
    strong complementarity and reality for addition, the cancellation
    identity for multiplication (the two are not strongly complementary)."""
    if pair == "red-black":
        m = np.asarray(t.red_mult, dtype=np.complex128)
        u = np.asarray(t.red_unit, dtype=np.complex128)
    elif pair == "yellow-black":
        m = np.asarray(t.yellow_mult, dtype=np.complex128)
        u = np.asarray(t.yellow_unit, dtype=np.complex128)
    else:
        raise ValueError(f"unknown pair {pair!r}")
    mb = np.asarray(t.black_mult, dtype=np.complex128)
    mbc = mb.conj()
    d = t.d
    out = []

    lhs = _einsum("wop,wab->opab", mbc, m)
    rhs = _einsum("axy,buv,oxu,pyv->opab", mbc, mbc, m, m)
    out.append(_entry(f"{pair}.bialgebra_mult_copy", _diff(lhs, rhs), tol))
    out.append(_entry(f"{pair}.bialgebra_mult_counit", _diff(m.sum(axis=0), np.ones((d, d))), tol))
    out.append(_entry(
        f"{pair}.bialgebra_unit_copy",
        _diff(_einsum("wop,w->op", mbc, u), np.outer(u, u)),
        tol,
    ))
    out.append(_entry(f"{pair}.bialgebra_unit_counit", abs(u.sum() - 1.0), tol))

    if pair == "red-black":
        s1 = _einsum("aow,pwb->opab", mbc, m).reshape(d * d, d * d)
        s2 = _einsum("aow,pwb->opab", m.conj(), mb).reshape(d * d, d * d)
        out.append(_entry(
            "red-black.strong_complementarity_copy_then_add",
            _diff(s1.conj().T @ s1, np.eye(d * d)),
            tol,
        ))
        out.append(_entry(
            "red-black.strong_complementarity_split_then_copy",
            _diff(s2.conj().T @ s2, np.eye(d * d)),
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
        out.append(_entry(
            "red-black.addition_real",
            max(cplx.max_abs(m.imag), cplx.max_abs(u.imag)),
            tol,
        ))
    else:
        my = m
        cancel = _einsum("xg,wxb,wuv,rxu,or->ovgb", t.iota, my, my.conj(), mb, t.p)
        target = _einsum("og,vb->ovgb", np.eye(d - 1), np.eye(d))
        out.append(_entry("yellow-black.cancellation", _diff(cancel, target), tol))
    return out


def verify_field_equations(t: StructureTensors, tol: float = DEFAULT_TOL) -> list:
    """Distributivity, the mixed character law, the inclusion/retraction
    relationships, and the projector identities, each contracted in full."""
    mr = np.asarray(t.red_mult, dtype=np.complex128)
    my = np.asarray(t.yellow_mult, dtype=np.complex128)
    mb = np.asarray(t.black_mult, dtype=np.complex128)
    mbc = mb.conj()
    d = t.d
    out = []

    lhs = _einsum("oaw,wbc->oabc", my, mr)
    rhs = _einsum("axy,uxb,vyc,ouv->oabc", mbc, my, my, mr)
    out.append(_entry("distributivity_left", _diff(lhs, rhs), tol))

    lhs = _einsum("owc,wab->oabc", my, mr)
    rhs = _einsum("cxy,uax,vby,ouv->oabc", mbc, my, my, mr)
    out.append(_entry("distributivity_right", _diff(lhs, rhs), tol))

    out.append(_entry(
        "character_mixed_law",
        _diff(t.chi, _einsum("c,cab->ab", t.chi[1, :], my)),
        tol,
    ))

    left_unit = _einsum("oub,u->ob", my, t.yellow_unit.astype(np.complex128))
    right_unit = _einsum("oau,u->oa", my, t.yellow_unit.astype(np.complex128))
    out.append(_entry(
        "full_multiplication_unit",
        max(_diff(left_unit, np.eye(d)), _diff(right_unit, np.eye(d))),
        tol,
    ))
    out.append(_entry(
        "full_multiplication_associativity",
        _diff(_einsum("wab,owc->oabc", my, my), _einsum("oaw,wbc->oabc", my, my)),
        tol,
    ))
    out.append(_entry(
        "full_multiplication_commutativity", _diff(my, my.transpose(0, 2, 1)), tol
    ))

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
        group = t.mul_group_mult.astype(np.complex128)
        out.append(_entry(
            "multiplicative_character_homomorphism",
            _diff(_einsum("jc,cab->jab", psi, group), _einsum("ja,jb->jab", psi, psi)),
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
    mr = np.asarray(t.red_mult, dtype=np.complex128)
    my = np.asarray(t.yellow_mult, dtype=np.complex128)
    mb = np.asarray(t.black_mult, dtype=np.complex128)
    d = t.d
    out = []

    worst = 0.0
    for x in range(controlled.control_dim):
        row_sums = t.proj @ (controlled.member(x) @ np.ones(d))
        worst = max(worst, cplx.max_abs(row_sums))
    out.append(_entry("controlled_hadamard_projected_sums", worst, tol))

    out.append(_entry(
        "retraction_kills_zero_state",
        max(cplx.max_abs(t.p @ t.red_unit), cplx.max_abs(t.red_unit @ t.iota)),
        tol,
    ))

    lhs = _einsum("oab,awg,bxz,gyz->owxyz", mr, mr, my, my)
    rhs = _einsum("oab,awg,byz,gxz->owxyz", mr, mr, my, my)
    out.append(_entry("sum_reassociation", _diff(lhs, rhs), tol))

    lhs = _einsum("obd,bwy,dxa,awg,gyz->owxyz", mr, my, my, mr, my)
    rhs = _einsum("obd,bwx,day,awg,gxz->owxyz", mr, my, my, mr, my)
    out.append(_entry("product_reassociation", _diff(lhs, rhs), tol))

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
    table supplying the controlled Hadamard for the row-sum identity."""
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
