import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from mubkit import axioms, cplx
from mubkit.axioms import (
    build_structure_tensors,
    ring_structure_tensors,
    run_axiom_suite,
    verify_auxiliary_identities,
    verify_bialgebra_and_complementarity,
    verify_field_equations,
    verify_frobenius,
)
from mubkit.characters import (
    ControlledHadamard,
    Hadamard,
    additive_character_matrix,
    controlled_from_copies,
)
from mubkit.errors import NotControlledHadamard, TooLarge
from mubkit.gf import new_field

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]


def failures(report):
    return [r["equation"] for r in report if not r["pass"]]


def test_gf2_tables_are_xor_and_and():
    t = build_structure_tensors(new_field(2, 1))
    xor = np.zeros((2, 2, 2))
    xor[0, 0, 0] = xor[1, 0, 1] = xor[1, 1, 0] = xor[0, 1, 1] = 1
    land = np.zeros((2, 2, 2))
    land[0, 0, 0] = land[0, 0, 1] = land[0, 1, 0] = land[1, 1, 1] = 1
    assert np.array_equal(t.red_mult, xor)
    assert np.array_equal(t.yellow_mult, land)


def test_units_and_projector():
    t = build_structure_tensors(new_field(2, 2))
    assert np.array_equal(t.red_unit, [1, 0, 0, 0])
    assert np.array_equal(t.yellow_unit, [0, 1, 0, 0])
    assert np.array_equal(t.proj, np.diag([0.0, 1.0, 1.0, 1.0]))


def test_yellow_assembly_cross_check_exact():
    for p, n in FIELDS:
        t = build_structure_tensors(new_field(p, n))
        assert np.array_equal(t.yellow_mult, t.yellow_mult_assembled)


def test_unknown_dot_is_refused():
    t = build_structure_tensors(new_field(2, 1))
    with pytest.raises(ValueError, match="unknown dot 'purple'"):
        verify_frobenius(t, "purple")


def test_black_spider_laws_exact():
    t = build_structure_tensors(new_field(2, 2))
    report = verify_frobenius(t, "black")
    assert failures(report) == []
    assert all(r["residual"] == 0.0 for r in report)


def test_red_quasi_special_is_order():
    t = build_structure_tensors(new_field(2, 2))
    m = t.red_mult.astype(complex)
    loop = np.einsum("oab,wab->ow", m, m.conj())
    assert np.array_equal(loop.real, 4 * np.eye(4))


@pytest.mark.parametrize("p,n", FIELDS)
def test_frobenius_all_dots(p, n):
    t = build_structure_tensors(new_field(p, n))
    for which in ("black", "red", "yellow_green", "green"):
        report = verify_frobenius(t, which, 1e-12)
        assert failures(report) == [], (which, failures(report))


@pytest.mark.parametrize("p,n", FIELDS)
def test_bialgebra_and_complementarity(p, n):
    t = build_structure_tensors(new_field(p, n))
    for pair in ("red-black", "yellow-black"):
        report = verify_bialgebra_and_complementarity(t, pair, 1e-12)
        assert failures(report) == [], (pair, failures(report))


def test_strong_complementarity_composite_is_permutation():
    t = build_structure_tensors(new_field(2, 2))
    mbc = t.black_mult.astype(complex).conj()
    mr = t.red_mult.astype(complex)
    s1 = np.einsum("aow,pwb->opab", mbc, mr).reshape(16, 16)
    assert np.array_equal(np.abs(s1), np.abs(s1).astype(bool).astype(float))
    assert np.array_equal(s1 @ s1.conj().T, np.eye(16))


@pytest.mark.parametrize("p,n", FIELDS)
def test_field_equations(p, n):
    t = build_structure_tensors(new_field(p, n))
    report = verify_field_equations(t, 1e-12)
    assert failures(report) == []


def test_distributivity_residual_zero_gf8():
    t = build_structure_tensors(new_field(2, 3))
    report = {r["equation"]: r["residual"] for r in verify_field_equations(t)}
    assert report["distributivity_left"] == 0.0
    assert report["distributivity_right"] == 0.0


def test_mixed_law_uses_published_gf4_table():
    from golden import CHI_4

    f = new_field(2, 2)
    t = build_structure_tensors(f)
    assert np.array_equal(t.chi, CHI_4.astype(complex))
    for a in range(4):
        for b in range(4):
            assert t.chi[a, b] == t.chi[1, f.mul(a, b)]


def test_projector_identities():
    t = build_structure_tensors(new_field(3, 1))
    report = {r["equation"]: r for r in verify_field_equations(t)}
    assert report["projector_kills_zero"]["residual"] == 0.0
    assert report["inclusion_retraction_projector"]["pass"]


@pytest.mark.parametrize("p,n", FIELDS)
def test_auxiliary_identities(p, n):
    f = new_field(p, n)
    t = build_structure_tensors(f)
    controlled = controlled_from_copies(additive_character_matrix(f), f.d)
    report = verify_auxiliary_identities(t, controlled, 1e-12)
    assert failures(report) == []


def test_reassociation_gf2_exhaustive():
    """The four-input reassociation identity, checked here by direct
    enumeration of all 16 basis-state inputs as an independent oracle."""
    f = new_field(2, 1)
    t = build_structure_tensors(f)
    lhs = np.einsum("oab,awg,bxz,gyz->owxyz", *([t.red_mult] * 2 + [t.yellow_mult] * 2))
    for w in range(2):
        for x in range(2):
            for y in range(2):
                for z in range(2):
                    expected = f.add(f.add(w, f.mul(y, z)), f.mul(x, z))
                    vec = lhs[:, w, x, y, z]
                    assert vec[expected] == 1 and vec.sum() == 1


def test_auxiliary_identities_reject_bad_controlled_family():
    f = new_field(2, 1)
    t = build_structure_tensors(f)
    bad = ControlledHadamard(2, [Hadamard(2, np.eye(2, dtype=complex)) for _ in range(2)])
    with pytest.raises(NotControlledHadamard):
        verify_auxiliary_identities(t, bad)


@pytest.mark.parametrize("p,n", FIELDS)
def test_full_suite_tolerance(p, n):
    report = run_axiom_suite(new_field(p, n), 1e-10)
    assert failures(report) == []
    assert max(r["residual"] for r in report) < 1e-10


def test_structure_tensors_are_real():
    """Every tensor except the character tables is float64, which is why
    red-black.addition_real holds on the tensors this module builds."""
    t = build_structure_tensors(new_field(2, 2))
    for field in dataclasses.fields(t):
        value = getattr(t, field.name)
        if field.name not in ("d", "chi", "psi"):
            assert value.dtype == np.float64, field.name


def test_addition_real_fails_on_a_complex_addition_tensor():
    t = build_structure_tensors(new_field(3, 1))
    red = t.red_mult.astype(complex)
    red[1, 0, 1] += 0.25j
    report = verify_bialgebra_and_complementarity(dataclasses.replace(t, red_mult=red), "red-black")
    entry = {r["equation"]: r for r in report}["red-black.addition_real"]
    assert entry["residual"] == 0.25 and not entry["pass"]


def test_ring_negative_control_localizes_failure():
    """Modular multiplication with composite modulus: the multiplicative
    laws break, everything about addition and the copy spiders stays green."""
    t = ring_structure_tensors(4)
    report = []
    for which in ("black", "red", "yellow_green", "green"):
        report.extend(verify_frobenius(t, which))
    for pair in ("red-black", "yellow-black"):
        report.extend(verify_bialgebra_and_complementarity(t, pair))
    report.extend(verify_field_equations(t))
    bad = set(failures(report))
    assert "yellow_green.quasi_special" in bad
    assert "yellow_green.closure" in bad
    multiplicative = {
        "yellow_green.closure",
        "yellow_green.frobenius",
        "yellow_green.quasi_special",
        "yellow_green.spider_fusion",
        "yellow-black.cancellation",
        "full_multiplication_assembly",
    }
    assert bad <= multiplicative
    for r in report:
        if r["equation"].startswith(("black.", "red.", "green.", "red-black.")):
            assert r["pass"], r["equation"]


def test_ring_prime_modulus_passes_everything():
    # Z_p with p prime is a field, so the same tensors satisfy every law
    t = ring_structure_tensors(5)
    report = []
    for which in ("black", "red", "yellow_green", "green"):
        report.extend(verify_frobenius(t, which))
    report.extend(verify_field_equations(t))
    assert failures(report) == []


# -- one-shot oracles --------------------------------------------------------
#
# The suite evaluates the five-index laws, associativity, distributivity,
# the bialgebra copy law, strong complementarity and cancellation on the
# dots' function tables. These are the dense einsums it replaced; each must
# give exactly the same residual.

ORACLE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
DOTS = ("black", "red", "yellow_green", "green")


def _oneshot(*args):
    return np.einsum(*args, optimize=True)


def _max_diff(a, b):
    return cplx.max_abs(a - b)


def oneshot_cancellation(t):
    my = t.yellow_mult.astype(complex)
    mb = t.black_mult.astype(complex)
    return _oneshot("xg,wxb,wuv,rxu,or->ovgb", t.iota, my, my.conj(), mb, t.p)


def oneshot_spider_fusion(m):
    m = m.astype(complex)
    mc = m.conj()
    rng = np.random.default_rng(0)
    perm_a = rng.permutation(3)
    perm_b = rng.permutation(3)
    inner = _oneshot("wab,owc->oabc", m, m)
    tree_a = _oneshot("opq,oabc->pqabc", mc, inner).transpose(0, 1, *(2 + perm_a))
    tree_b = _oneshot("wab,wpv,qvc->pqabc", m, mc, m).transpose(0, 1, *(2 + perm_b))
    return _max_diff(tree_a, tree_b)


def oneshot_frobenius(m):
    """The three Frobenius wirings, each contracted in full."""
    left = _oneshot("aow,pwb->opab", m, m)
    mid = _oneshot("wop,wab->opab", m, m)
    right = _oneshot("oaw,bwp->opab", m, m)
    return max(_max_diff(left, mid), _max_diff(mid, right))


def oneshot_associativity(m):
    return _max_diff(_oneshot("wab,owc->oabc", m, m), _oneshot("oaw,wbc->oabc", m, m))


def oneshot_residuals(t):
    """Residuals of every law the suite no longer contracts in one shot."""
    out = {}
    d = t.d
    for which in DOTS:
        mult_name, _, scale, _ = axioms._ALGEBRAS[which]
        m = getattr(t, mult_name)
        k = scale(d)
        out[f"{which}.spider_fusion"] = oneshot_spider_fusion(m)
        out[f"{which}.associativity"] = oneshot_associativity(m)
        out[f"{which}.frobenius"] = oneshot_frobenius(m)
        loop = _oneshot("oab,wab->ow", m, m)
        special = f"{which}.special" if k == 1 else f"{which}.quasi_special"
        out[special] = _max_diff(loop, k * np.eye(len(m)))
    target = _oneshot("og,vb->ovgb", np.eye(d - 1), np.eye(d))
    out["yellow-black.cancellation"] = _max_diff(oneshot_cancellation(t), target)
    mr = t.red_mult.astype(complex)
    my = t.yellow_mult.astype(complex)
    mb = t.black_mult
    out["full_multiplication_associativity"] = oneshot_associativity(my)
    out["distributivity_left"] = _max_diff(
        _oneshot("oaw,wbc->oabc", my, mr),
        _oneshot("axy,uxb,vyc,ouv->oabc", mb, my, my, mr),
    )
    out["distributivity_right"] = _max_diff(
        _oneshot("owc,wab->oabc", my, mr),
        _oneshot("cxy,uax,vby,ouv->oabc", mb, my, my, mr),
    )
    for pair, m in (("red-black", mr), ("yellow-black", my)):
        out[f"{pair}.bialgebra_mult_copy"] = _max_diff(
            _oneshot("wop,wab->opab", mb, m),
            _oneshot("axy,buv,oxu,pyv->opab", mb, mb, m, m),
        )
    eye = np.eye(d * d)
    s1 = _oneshot("aow,pwb->opab", mb, mr).reshape(d * d, d * d)
    s2 = _oneshot("aow,pwb->opab", mr, mb).reshape(d * d, d * d)
    out["red-black.strong_complementarity_copy_then_add"] = _max_diff(s1.conj().T @ s1, eye)
    out["red-black.strong_complementarity_split_then_copy"] = _max_diff(s2.conj().T @ s2, eye)
    out["sum_reassociation"] = _max_diff(
        _oneshot("oab,awg,bxz,gyz->owxyz", mr, mr, my, my),
        _oneshot("oab,awg,byz,gxz->owxyz", mr, mr, my, my),
    )
    out["product_reassociation"] = _max_diff(
        _oneshot("obd,bwy,dxa,awg,gyz->owxyz", mr, my, my, mr, my),
        _oneshot("obd,bwx,day,awg,gxz->owxyz", mr, my, my, mr, my),
    )
    return out


def suite_residuals(t):
    report = []
    for which in DOTS:
        report.extend(verify_frobenius(t, which))
    for pair in ("red-black", "yellow-black"):
        report.extend(verify_bialgebra_and_complementarity(t, pair))
    report.extend(verify_field_equations(t))
    report.extend(verify_auxiliary_identities(t, controlled_from_copies(t.chi, t.d)))
    return {r["equation"]: r["residual"] for r in report}


def assert_matches_oneshot(t):
    expected = oneshot_residuals(t)
    got = suite_residuals(t)
    assert {k: got[k] for k in expected} == expected


@pytest.mark.parametrize("p,n", ORACLE_FIELDS)
def test_staged_laws_match_oneshot_oracle(p, n):
    t = build_structure_tensors(new_field(p, n))
    assert_matches_oneshot(t)


# Z_d spider-fusion residual of the group tensor: the largest count of the
# right tree where the left one is 0 or 1.
RING_FUSION = {4: 2.0, 6: 2.0, 9: 3.0, 12: 6.0}


@pytest.mark.parametrize("d", RING_FUSION)
def test_ring_controls_match_oneshot_oracle(d):
    t = ring_structure_tensors(d)
    expected = oneshot_residuals(t)
    assert expected["yellow_green.spider_fusion"] == RING_FUSION[d]
    assert expected["yellow-black.cancellation"] > 0
    assert_matches_oneshot(t)


def test_noncommutative_addition_matches_oneshot_oracle():
    """Addition (2a + 3b) mod 5 is neither associative nor commutative, so
    the red spider fusion and both reassociations fail, each at the one-shot
    value 1.0; both legs of every table lookup are exercised in order."""
    idx = np.arange(5)
    mul = (idx[:, None] * idx[None, :]) % 5
    roots = np.array([cplx.unit_root(k, 5) for k in range(5)])
    t = axioms._structure_tensors((2 * idx[:, None] + 3 * idx[None, :]) % 5, mul, roots[mul], None)
    expected = oneshot_residuals(t)
    for law in ("red.spider_fusion", "sum_reassociation", "product_reassociation"):
        assert expected[law] == 1.0, law
    assert_matches_oneshot(t)


def _tensor(table):
    """0/1 tensor of a partial table, -1 meaning undefined."""
    table = np.asarray(table)
    return (np.arange(len(table))[:, None, None] == table).astype(float)


BINARY_TABLES = [np.reshape(v, (2, 2)) for v in itertools.product((-1, 0, 1), repeat=4)]


@pytest.mark.parametrize("which", ["red", "yellow_green"])
def test_spider_fusion_matches_oneshot_on_every_binary_table(which):
    """Every partial operation on two elements, commutative or not, as the
    product of a dot: the table path, given the table and the left
    Frobenius wiring, gives the one-shot value."""
    name = axioms._ALGEBRAS[which][0]
    for table in BINARY_TABLES:
        m = _tensor(table)
        if which == "yellow_green":  # padded with a third element no product reaches
            m = np.pad(m, ((0, 1), (0, 1), (0, 1)))
        wiring = _oneshot("aow,pwb->opab", m, m)
        assert axioms._spider_fusion(axioms._table(m, name), wiring) == oneshot_spider_fusion(m), table


def test_reassociations_match_oneshot_on_every_binary_table_pair():
    """Every table law (both reassociations, distributivity, associativity,
    the bialgebra copy law, strong complementarity and cancellation) for
    every pair of total operations on two elements, so that each leg of each
    lookup is exercised in order."""
    t = build_structure_tensors(new_field(2, 1))
    totals = [tab for tab in BINARY_TABLES if (tab >= 0).all()]
    for add, mul in itertools.product(totals, totals):
        assert_matches_oneshot(dataclasses.replace(t, red_mult=_tensor(add), yellow_mult=_tensor(mul)))


def test_split_then_copy_counts_preimages():
    """The constant addition on three elements: every column of its table
    takes the value 0 three times, so the split-then-copy Gram holds 3 on
    its diagonal and the residual is 2, where copy-then-add only reads 1."""
    f = new_field(3, 1)
    t = axioms._structure_tensors(np.zeros((3, 3), dtype=int), f.mul_table,
                                  additive_character_matrix(f).matrix, None)
    expected = oneshot_residuals(t)
    assert expected["red-black.strong_complementarity_split_then_copy"] == 2.0
    assert expected["red-black.strong_complementarity_copy_then_add"] == 1.0
    assert_matches_oneshot(t)


def test_table_reads_the_operation_tables():
    """A field's sum and product tables, and the Z_4 group tensor's table
    with -1 where a product of nonzero elements is 0; the padding row and
    column read as undefined."""
    f = new_field(3, 2)
    t = build_structure_tensors(f)
    add = axioms._table(t.red_mult, "red_mult")
    assert np.array_equal(add[:9, :9], f.add_table)
    assert (add[9] == -1).all() and (add[:, 9] == -1).all()
    assert np.array_equal(axioms._table(t.yellow_mult, "yellow_mult")[:9, :9], f.mul_table)
    group = axioms._table(ring_structure_tensors(4).mul_group_mult, "mul_group_mult")
    # nonzero labels k stand for ring elements k + 1: 2 * 2 = 0 is undefined
    assert np.array_equal(group[:3, :3], [[0, 1, 2], [1, -1, 1], [2, 1, 0]])


@pytest.mark.parametrize("fault", ["half", "two_ones"])
def test_table_refuses_a_tensor_that_is_not_a_function(fault):
    m = build_structure_tensors(new_field(3, 1)).red_mult.copy()
    if fault == "half":
        m[1, 0, 1] = 0.5
    else:
        m[2, 0, 1] = 1.0  # column (0, 1) already holds a 1 at c = 1
    with pytest.raises(ValueError, match="red_mult is not the 0/1 tensor of a partial function"):
        axioms._table(m, "red_mult")


# each pair's product tensor and the laws read off its table
TABLE_LAWS = {
    "red-black": ("red_mult", ["bialgebra_mult_copy", "strong_complementarity_copy_then_add",
                               "strong_complementarity_split_then_copy"]),
    "yellow-black": ("yellow_mult", ["bialgebra_mult_copy", "cancellation"]),
}


@pytest.mark.parametrize("pair", TABLE_LAWS)
@pytest.mark.parametrize("fault,residual", [("half", 0.5), ("two_ones", 1.0)])
def test_refused_product_fails_its_table_laws(pair, fault, residual):
    """A product that is not the 0/1 tensor of a function gets a report, not
    a ValueError: bialgebra_mult_copy fails by the largest entry where the
    tensor differs from the table read off it, and every other law read off
    that table fails too."""
    t = build_structure_tensors(new_field(3, 1))
    mult, laws = TABLE_LAWS[pair]
    m = getattr(t, mult).copy()
    c = m[:, 0, 1].argmax()
    if fault == "half":
        m[c, 0, 1] = 0.5
    else:
        m[(c + 1) % 3, 0, 1] = 1.0  # a second 1 in column (0, 1)
    report = verify_bialgebra_and_complementarity(dataclasses.replace(t, **{mult: m}), pair)
    report = {r["equation"]: r for r in report}
    assert report[f"{pair}.bialgebra_mult_copy"]["residual"] == residual
    assert not any(report[f"{pair}.{law}"]["pass"] for law in laws)


def test_ring_control_large_composite_matches_oneshot():
    """Z_18: the group tensor's spider fusion counts up to 8 where its
    left tree is 0 or 1."""
    t = ring_structure_tensors(18)
    expected = oneshot_spider_fusion(t.mul_group_mult)
    assert expected == 8.0
    got = {r["equation"]: r["residual"] for r in verify_frobenius(t, "yellow_green")}
    assert got["yellow_green.spider_fusion"] == expected


@pytest.mark.parametrize("which", DOTS)
def test_frobenius_holds_one_wiring_at_a_time(which):
    """Each dot's Frobenius family holds one d^4 float64 array at a time:
    the left wiring, from which the table equation is taken in place."""
    t = build_structure_tensors(new_field(2, 5))
    tracemalloc.start()
    try:
        verify_frobenius(t, which)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * t.d**4 * 8


def _ring_tensors_by_loops(d):
    """The per-entry loops that built the Z_d group tensor and character
    table before they were vectorized."""
    group = np.zeros((d - 1, d - 1, d - 1))
    for a in range(1, d):
        for b in range(1, d):
            c = (a * b) % d
            if c != 0:
                group[c - 1, a - 1, b - 1] = 1.0
    chi = np.array(
        [[cplx.unit_root(a * b, d) for b in range(d)] for a in range(d)],
        dtype=np.complex128,
    )
    return group, chi


@pytest.mark.parametrize("d", [4, 5, 6])
def test_ring_tensors_equal_the_loops(d):
    t = ring_structure_tensors(d)
    group, chi = _ring_tensors_by_loops(d)
    assert np.array_equal(t.mul_group_mult, group)
    assert np.array_equal(t.chi, chi)
    assert t.chi.dtype == chi.dtype


def test_suite_refuses_oversized_field_before_building(monkeypatch):
    """d = 64 passes the size check (64^4 * 8 B is exactly the limit) and
    d = 67 is refused before any tensor is built."""
    class Building(Exception):
        pass

    def stop_before_building(f):
        raise Building(f.d)

    monkeypatch.setattr(axioms, "build_structure_tensors", stop_before_building)
    with pytest.raises(Building):
        run_axiom_suite(new_field(2, 6))
    with pytest.raises(TooLarge, match="d = 67"):
        run_axiom_suite(new_field(67, 1))


def test_assembly_mismatch_is_reported_not_raised(monkeypatch):
    """A wrong assembled full-space multiplication fails the reported law
    instead of stopping the tensor build."""
    assemble = axioms._assemble_yellow
    monkeypatch.setattr(axioms, "_assemble_yellow", lambda *args: 1.0 - assemble(*args))
    report = run_axiom_suite(new_field(3, 1))
    assert [r["equation"] for r in report if not r["pass"]] == ["full_multiplication_assembly"]
