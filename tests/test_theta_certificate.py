"""θ certifies class commutation and the trace law from the eigenbases it
computes: each class's diagonalization (``cplx._diagonalize``) bounds its
family's commutators (``cplx.commutator_bound``) and sweeps that family
pairwise only when the bound falls short, and ``construct.trace_law_bound``
reads the trace law off the bases and eigenvalue tables, so the d^2 x d^2
Gram runs only when that bound falls short. The reference laws
(``is_partitioned_ueb``, ``cplx.commutator_residual``, the Gram of
``construct.ueb_residuals``) are the oracle throughout."""

import numpy as np
import pytest

from mubkit import cli, construct, cplx
from mubkit.characters import additive_character_matrix
from mubkit.construct import (
    PartitionedUeb,
    conjugate_ueb,
    eigendata,
    is_partitioned_ueb,
    ueb_from_field,
)
from mubkit.errors import (
    DegenerateFamily,
    NotCanonicalForm,
    NotCommuting,
    NotPartitionedUeb,
    ShapeMismatch,
)
from mubkit.gf import new_field
from mubkit.mub import mub_from_ueb

FIELDS = {4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4), 32: (2, 5)}


def haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + z.conj().T) / 2


def table(d, kind, rng=None):
    """The field table of order d, its χ-canonical conjugate, or a conjugate
    by a seeded Haar unitary."""
    f = new_field(*FIELDS[d])
    ueb = ueb_from_field(f)
    if kind == "canonical":
        return conjugate_ueb(ueb, additive_character_matrix(f).matrix / np.sqrt(d))
    if kind == "haar":
        return conjugate_ueb(ueb, haar_unitary(d, rng or np.random.default_rng(d)))
    return ueb


def classes(ueb):
    return [ueb.class_star()] + [ueb.class_ops(x) for x in range(ueb.d)]


def recipe(ueb, tol=cplx.DEFAULT_TOL, seed=0):
    """θ's bases as the per-class diagonalizations define them."""
    eye = np.eye(ueb.d, dtype=np.complex128)
    star = ueb.class_star()
    first = eye if cplx.offdiag_residual(star) < tol else cplx.simultaneous_eigenbasis(
        [*star, eye], tol, seed)
    return np.stack([first] + [cplx.simultaneous_eigenbasis(ueb.class_ops(x), tol, seed + 1 + x)
                               for x in range(ueb.d)])


def certify(w, members):
    """The certificate's bound for one class in eigenbasis w."""
    return cplx.commutator_bound(w.conj().T @ members @ w, w, members)


def verdict(ueb, seed):
    """θ's outcome: ("family", family), ("refused", None), or ("raised",
    the class of a diagonalization error)."""
    try:
        return "family", mub_from_ueb(ueb, seed=seed)
    except NotPartitionedUeb:
        return "refused", None
    except Exception as exc:
        return "raised", type(exc)


# -- soundness: the stated bound against the reference sweep --------------------

@pytest.mark.parametrize("d", sorted(FIELDS))
@pytest.mark.parametrize("kind", ["field", "haar"])
def test_certificate_bound_holds_and_theta_agrees_with_reference(d, kind):
    rng = np.random.default_rng(100 * d + len(kind))
    base = table(d, kind, rng)
    x = int(rng.integers(1, d))
    for eps in (1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7):
        ops = base.ops.astype(np.complex128)
        ops[x, 1] += eps * random_hermitian(d, rng)
        ueb = PartitionedUeb(d, ops)
        outcome, family = verdict(ueb, seed=d)
        assert (outcome == "refused") == (not is_partitioned_ueb(ueb)), (d, kind, eps, family)
        if outcome != "family":
            continue
        for k in (0, x + 1):  # the distinguished class and the perturbed one
            members = classes(ueb)[k]
            bound = certify(family.bases[k], members)
            assert cplx.commutator_residual(members)[0] <= bound, (d, kind, eps, k)


EPSILONS = [10.0**k for k in range(-13, -2)]


@pytest.mark.parametrize("d", [4, 8, 9, 16, 32])
@pytest.mark.parametrize("kind", ["field", "canonical", "haar"])
def test_trace_law_bound_covers_the_reference(d, kind):
    """One operator perturbed by ε times a Hermitian, ε = 1e-13 … 1e-3: the
    identity, a distinguished-class member or a class member in turn. The
    bound holds for any invertible W, so θ's bases of the intact table with
    M recomputed on the perturbed one stand in where θ itself would refuse;
    each of its entries is never below the reference Gram's residual on
    the entries it bounds."""
    rng = np.random.default_rng(d + len(kind))
    base = table(d, kind, rng)
    _, terms = construct._diagonalize_classes(base, cplx.DEFAULT_TOL, 0)
    slots = [(0, 0), (1, 0), (d - 1, d - 1)]
    for i, eps in enumerate([0.0] + EPSILONS):
        ops = base.ops.astype(np.complex128)
        ops[slots[i % 3]] += eps * random_hermitian(d, rng)
        ueb = PartitionedUeb(d, ops)
        identity, bound = construct.trace_law_bound(ueb, recomputed(ueb, [t[0] for t in terms]))
        blocks = gram_blocks(ueb)
        assert identity >= blocks[0], (d, kind, eps)
        assert np.all(bound >= blocks[1]), (d, kind, eps)
        assert max(identity, bound.max()) >= construct.ueb_residuals(ueb)[1]["residual"]
        if eps == 0.0:
            assert max(identity, bound.max()) < cplx.DEFAULT_TOL


def recomputed(ueb, bases):
    """_class_terms of each class of ``ueb`` in the given bases."""
    return [construct._class_terms(w, w.conj().T @ stack @ w, stack)
            for w, stack in zip(bases, classes(ueb))]


def rebuilt(w, lam):
    """Operators with eigenbasis w and eigenvalue rows lam: W diag(λ) W†."""
    return (w * lam[:, None, :]) @ w.conj().T


@pytest.mark.parametrize("d", [4, 9, 16])
@pytest.mark.parametrize("kind", ["field", "haar"])
@pytest.mark.parametrize("mutation", ["eigenvalues", "basis", "trace"])
def test_trace_law_bound_covers_the_reference_on_rebuilt_classes(d, kind, mutation):
    """Class x rebuilt from its exact eigenbasis, so its M is diagonal and
    only the eigenvalue tables and overlaps carry the fault: one member's
    eigenvalues moved by ε, the basis turned by exp(ε K), or ε I added to a
    member of two classes (traces). W is the basis the class was rebuilt
    from, and the bound still covers every block of the reference Gram."""
    rng = np.random.default_rng(d)
    base = table(d, kind, rng)
    _, terms = construct._diagonalize_classes(base, cplx.DEFAULT_TOL, 0)
    x = d - 1  # the class of row d - 2
    for eps in EPSILONS:
        ops = base.ops.astype(np.complex128)
        w, lam = terms[x][0], terms[x][1].astype(np.complex128)
        if mutation == "eigenvalues":
            lam[0] += eps * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        elif mutation == "basis":
            k = random_hermitian(d, rng)
            w = w @ np.linalg.qr(np.eye(d) + 1j * eps * k)[0]
        ops[x - 1, 1:] = rebuilt(w, lam)
        if mutation == "trace":
            ops[1, 1] += eps * np.eye(d)
            ops[2, 1] += eps * np.eye(d)
        ueb = PartitionedUeb(d, ops)
        bases = [w if y == x else t[0] for y, t in enumerate(terms)]
        identity, bound = construct.trace_law_bound(ueb, recomputed(ueb, bases))
        blocks = gram_blocks(ueb)
        assert identity >= blocks[0] and np.all(bound >= blocks[1]), (d, kind, mutation, eps)


def gram_blocks(ueb):
    """The reference Gram's residual on the identity's row, and on each
    block of entries pairing the members of two classes."""
    d = ueb.d
    f = ueb.ops.reshape(d * d, d * d)
    gram = np.abs(f.conj() @ f.T - d * np.eye(d * d)).reshape(d, d, d, d)
    members = [(slice(1, None), 0)] + [(x, slice(1, None)) for x in range(d)]
    blocks = np.array([[gram[a + b].max() for b in members] for a in members])
    return gram[0, 0].max(), blocks


@pytest.mark.parametrize("d,kind", [(4, "field"), (9, "canonical"), (16, "haar")])
def test_certificate_bound_covers_a_planted_commutator(d, kind):
    """A class member mixed with ε times another class's member: the bound
    stays above the sweep's residual at every ε, small or large."""
    base = table(d, kind)
    w = mub_from_ueb(base, seed=0).basis(1)
    intact = base.class_ops(1)
    assert cplx.commutator_residual(intact)[0] <= certify(w, intact) < 1e-9
    for eps in (1e-12, 1e-9, 1e-6, 1e-3):
        members = intact.copy()
        members[0] = members[0] + eps * base.op(2, 1)
        assert cplx.commutator_residual(members)[0] <= certify(w, members)


# -- mutations that must be refused through both paths ----------------------

def non_orthogonal_eigenvalue_table(d):
    """Class 1 rebuilt from an eigenvalue table whose columns 1 and 2 are
    equal: its members still commute, but the trace law fails."""
    base = table(d, "canonical")
    family, h, _ = eigendata(base, seed=0)
    hx = h.member(1).copy()
    hx[:, 2] = hx[:, 1]
    b = family.basis(1)
    ops = base.ops.astype(np.complex128)
    ops[1, 1:] = (b * hx[:, 1:].T[:, None, :]) @ b.conj().T
    return PartitionedUeb(d, ops)


def one_perturbed_operator(d, eps=1e-6, kind="haar"):
    ops = table(d, kind).ops.astype(np.complex128)
    ops[2, 3] += eps * random_hermitian(d, np.random.default_rng(1))
    return PartitionedUeb(d, ops)


def one_class_repeated(d):
    """Class 2 replaced by class 1: it still commutes, but the trace law
    fails between the two copies."""
    ops = table(d, "canonical").ops.copy()
    ops[2, 1:] = ops[1, 1:]
    return PartitionedUeb(d, ops)


def planted_non_commuting_pair(d):
    """Two members swapped between classes 1 and 2: a permutation of the
    operators, so the UEB laws still hold, but neither class commutes."""
    ops = table(d, "field").ops.copy()
    ops[1, 1], ops[2, 1] = ops[2, 1].copy(), ops[1, 1].copy()
    return PartitionedUeb(d, ops)


@pytest.mark.parametrize("d", [8, 9])
@pytest.mark.parametrize("mutate", [one_perturbed_operator, planted_non_commuting_pair,
                                    non_orthogonal_eigenvalue_table, one_class_repeated])
def test_mutations_are_refused(d, mutate):
    ueb = mutate(d)
    assert not is_partitioned_ueb(ueb)
    with pytest.raises(NotPartitionedUeb):
        mub_from_ueb(ueb, seed=0)
    with pytest.raises(NotPartitionedUeb):
        eigendata(ueb, seed=0)


@pytest.mark.parametrize("d", [8, 9])
@pytest.mark.parametrize("eps", EPSILONS)
def test_one_perturbed_operator_is_refused_as_the_reference_refuses(d, eps):
    """Through both paths, θ refuses exactly the perturbed tables that
    fail the reference laws; eigendata passes the others on to its
    canonical-form check."""
    for kind, passed in (("haar", NotCanonicalForm), ("canonical", None)):
        ueb = one_perturbed_operator(d, eps, kind)
        refused = not is_partitioned_ueb(ueb)
        for fn in (mub_from_ueb, eigendata):
            want = NotPartitionedUeb if refused else passed if fn is eigendata else None
            if want is None:
                fn(ueb, seed=0)
            else:
                with pytest.raises(want):
                    fn(ueb, seed=0)


@pytest.mark.parametrize("d", [8, 9])
def test_repeated_class_still_commutes(d):
    ueb = one_class_repeated(d)
    assert construct.partition_residuals(ueb)[1]["pass"]
    assert construct.ueb_residuals(ueb)[1]["pass"] is False


def test_non_orthogonal_eigenvalue_table_still_commutes():
    ueb = non_orthogonal_eigenvalue_table(8)
    assert cplx.commutator_residual(ueb.class_ops(1))[0] < cplx.DEFAULT_TOL
    assert construct.ueb_residuals(ueb)[1]["pass"] is False


# -- the fallback ------------------------------------------------------------

def test_diagonalization_error_on_a_commuting_table_is_reraised(monkeypatch):
    ueb = table(8, "field")

    def refuse(*args, **kwargs):
        raise NotCommuting("planted")

    monkeypatch.setattr(cplx, "_diagonalize", refuse)
    with pytest.raises(NotCommuting, match="planted"):
        mub_from_ueb(ueb)


def identity_class(d):
    """The field table with every member of class 1 set to I: unitary,
    commuting and degenerate, but the trace law fails."""
    ops = table(d, "field").ops.copy()
    ops[1, 1:] = np.eye(d)
    return PartitionedUeb(d, ops)


def test_identity_class_is_refused_through_both_paths():
    ueb = identity_class(8)
    assert construct.partition_residuals(ueb)[1]["pass"] and not is_partitioned_ueb(ueb)
    for fn in (mub_from_ueb, eigendata):
        with pytest.raises(NotPartitionedUeb):
            fn(ueb, seed=0)


def test_diagonalization_error_on_a_table_failing_the_trace_law_is_refused(monkeypatch):
    """When a diagonalization raises, the reference UEB laws are checked
    before the error is re-raised: the identity class commutes, so only
    the trace law tells NotPartitionedUeb from DegenerateFamily."""
    real = cplx._diagonalize

    def degenerate(mats, tol, seed):
        if np.array_equal(mats[0], np.eye(len(mats[0]))):
            raise DegenerateFamily("planted")
        return real(mats, tol, seed)

    monkeypatch.setattr(cplx, "_diagonalize", degenerate)
    for fn in (mub_from_ueb, eigendata):
        with pytest.raises(NotPartitionedUeb):
            fn(identity_class(8), seed=0)


def test_bound_above_tol_runs_the_sweep(monkeypatch):
    ueb = table(9, "haar")
    want = mub_from_ueb(ueb, seed=2).bases
    swept = []
    real_bound, real_sweep = cplx.commutator_bound, cplx.commutator_residual
    monkeypatch.setattr(cplx, "commutator_bound", lambda m, w, stack: np.inf if np.array_equal(
        stack, ueb.class_ops(2)) else real_bound(m, w, stack))
    monkeypatch.setattr(cplx, "commutator_residual",
                        lambda stack: swept.append(stack) or real_sweep(stack))
    assert np.array_equal(mub_from_ueb(ueb, seed=2).bases, want)
    assert len(swept) == 1 and np.array_equal(swept[0], ueb.class_ops(2))
    monkeypatch.setattr(cplx, "commutator_residual", lambda stack: (1.0, (0, 1)))
    with pytest.raises(NotPartitionedUeb):
        mub_from_ueb(ueb, seed=2)


def near_diagonal_stack(d, k, eps, rng):
    """k diagonal unitaries, each plus eps times a random Hermitian."""
    diag = np.exp(2j * np.pi * rng.random((k, d)))
    return np.stack([np.diag(v) + eps * random_hermitian(d, rng) for v in diag])


@pytest.mark.parametrize("d", [2, 5, 16])
def test_bound_with_w_identity_holds_on_near_diagonal_stacks(d):
    """The distinguished class of a canonical table keeps W = I; the bound
    read off the stack itself covers the sweep there too."""
    rng = np.random.default_rng(d)
    eye = np.eye(d, dtype=np.complex128)
    for eps in (0.0, 1e-13, 1e-11, 1e-9, 1e-6, 1e-2):
        stack = near_diagonal_stack(d, 4, eps, rng)
        assert cplx.commutator_residual(stack)[0] <= cplx.commutator_bound(stack, eye, stack)


def test_diagonal_distinguished_class_is_certified_with_w_identity(monkeypatch):
    """A canonical table's distinguished class is not diagonalized; the
    bound with W = I certifies it, and one that falls short sweeps it."""
    ueb = table(8, "canonical")
    bounds, swept = [], []
    real_bound, real_sweep = cplx.commutator_bound, cplx.commutator_residual
    monkeypatch.setattr(cplx, "commutator_bound",
                        lambda m, w, stack: bounds.append((m, w)) or np.inf)
    monkeypatch.setattr(cplx, "commutator_residual",
                        lambda stack: swept.append(stack) or real_sweep(stack))
    family = mub_from_ueb(ueb, seed=0)
    assert np.array_equal(family.basis("*"), np.eye(8))
    m, w = bounds[0]
    assert np.array_equal(w, np.eye(8)) and np.array_equal(m, ueb.class_star())
    assert real_bound(m, w, m) < cplx.DEFAULT_TOL
    assert len(bounds) == len(swept) == 9 and np.array_equal(swept[0], ueb.class_star())


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("eps", [1e-10, 3e-10, 6e-10, 1e-9])
def test_simultaneous_eigenbasis_refuses_what_the_sweep_refuses(seed, eps):
    """A diagonal unitary and one conjugated by exp(i eps H): near eps =
    6e-10 its members are diagonal within tol in an eigenbasis of the
    combination while their commutator is above tol (2.1e-9 at seed 2),
    and the family is refused exactly when the sweep refuses it."""
    rng = np.random.default_rng(seed)
    d1, d2 = (np.diag(np.exp(2j * np.pi * rng.random(4))) for _ in range(2))
    vals, vecs = np.linalg.eigh(random_hermitian(4, rng))
    v = (vecs * np.exp(1j * eps * vals)) @ vecs.conj().T
    family = np.stack([d1, v @ d2 @ v.conj().T])
    if cplx.commutator_residual(family)[0] < cplx.DEFAULT_TOL:
        cplx.simultaneous_eigenbasis(family)
    else:
        with pytest.raises(NotCommuting, match="members 0 and 1"):
            cplx.simultaneous_eigenbasis(family)


@pytest.mark.parametrize("kind", ["canonical", "haar"])
def test_theta_at_d32_never_sweeps(kind, monkeypatch):
    """The certificate carries θ on the GF(2^5) tables: the pairwise sweep
    is never called."""
    ueb = table(32, kind)

    def no_sweep(stack):
        raise AssertionError("commutator sweep called")

    monkeypatch.setattr(cplx, "commutator_residual", no_sweep)
    family = mub_from_ueb(ueb, seed=1)
    assert family.bases.shape == (33, 32, 32)
    if kind == "canonical":
        eigendata(ueb, seed=1)


@pytest.mark.parametrize("kind", ["canonical", "haar"])
def test_theta_at_d32_never_forms_the_gram(kind, monkeypatch, tmp_path, capsys):
    """The trace-law certificate carries θ on the GF(2^5) tables: the
    reference Gram is never formed, while ``verify`` still prints it."""
    ueb = table(32, kind)

    def no_gram(*args):
        raise AssertionError("trace-law Gram formed")

    with monkeypatch.context() as m:
        m.setattr(construct, "_trace_law", no_gram)
        assert mub_from_ueb(ueb, seed=1).bases.shape == (33, 32, 32)
        if kind == "canonical":
            eigendata(ueb, seed=1)
    assert cli.main(["construct", "--p", "2", "--n", "5", "--emit", "ueb", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", str(tmp_path / "ueb.json")]) == 0
    assert "ueb_trace_law: residual 0.000e+00 PASS" in capsys.readouterr().out.splitlines()


# -- same bases and eigenvalues as the per-class recipe --------------------------

@pytest.mark.parametrize("d", [4, 8, 9, 16])
@pytest.mark.parametrize("kind", ["field", "canonical", "haar"])
def test_bases_are_the_per_class_recipe(d, kind):
    ueb = table(d, kind)
    for seed in (0, 11):
        assert np.array_equal(mub_from_ueb(ueb, seed=seed).bases, recipe(ueb, seed=seed))


@pytest.mark.parametrize("d", [4, 8, 9, 16])
def test_eigenvalue_tables_are_the_class_products(d):
    """eigendata's H is the diagonals of W_x† U_x W_x formed from θ's
    bases, and a column of ones for the identity."""
    ueb = table(d, "canonical")
    family, h, _ = eigendata(ueb, seed=3)
    assert np.array_equal(family.bases, mub_from_ueb(ueb, seed=3).bases)
    for x in range(d):
        b = family.basis(x)
        want = np.ones((d, d), np.complex128)
        want[:, 1:] = np.diagonal(b.conj().T @ ueb.class_ops(x) @ b, axis1=1, axis2=2).T
        assert np.array_equal(h.member(x), want)


# -- raw tables --------------------------------------------------------------

@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1)])
def test_theta_and_eigendata_take_raw_tables(p, n):
    ueb = ueb_from_field(new_field(p, n))
    want = mub_from_ueb(ueb, seed=0).bases
    for raw in (ueb.ops, ueb.ops.tolist()):
        assert np.array_equal(mub_from_ueb(raw, seed=0).bases, want)
    canonical = conjugate_ueb(ueb, additive_character_matrix(new_field(p, n)).matrix / np.sqrt(ueb.d))
    fam, h, g = eigendata(canonical.ops, seed=0)
    want_fam, want_h, want_g = eigendata(canonical, seed=0)
    assert np.array_equal(fam.bases, want_fam.bases)
    assert np.array_equal(h.members, want_h.members)
    assert np.array_equal(g.matrix, want_g.matrix)


@pytest.mark.parametrize("bad", [np.zeros((2, 2, 2)), np.zeros((2, 2, 3, 3)), 1.0,
                                 [[np.eye(2), np.eye(2)], [np.eye(2)]], "table"])
def test_malformed_raw_tables_raise_shape_mismatch(bad):
    for fn in (mub_from_ueb, eigendata, is_partitioned_ueb, construct.ueb_residuals):
        with pytest.raises(ShapeMismatch):
            fn(bad)


# -- phase_normalize ---------------------------------------------------------

def phase_normalize_by_column(basis, tol=cplx.DEFAULT_TOL):
    """The per-column loop phase_normalize replaced."""
    w = cplx.as_matrix(basis).astype(np.complex128)
    for k in range(w.shape[1]):
        col = w[:, k]
        mods = np.abs(col)
        pivot = int(np.flatnonzero(mods >= mods.max() - tol)[0])
        z = col[pivot]
        if abs(z) > 0:
            w[:, k] = col * (np.conj(z) / abs(z))
    return w


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("kind", ["random", "unitary", "ties", "zero columns", "eigh"])
def test_phase_normalize_is_the_column_loop(kind):
    rng = np.random.default_rng(len(kind))
    for _ in range(60):
        d = int(rng.integers(2, 48))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if kind == "unitary":
            m = haar_unitary(d, rng)
        elif kind == "ties":
            m = np.exp(2j * np.pi * rng.integers(0, 8, (d, d)) / 8) / np.sqrt(d)
            m[rng.integers(0, d), :] *= 1 + 1e-10  # a near-tie within tol
        elif kind == "zero columns":
            m[:, rng.integers(0, d, max(1, d // 3))] = 0
        elif kind == "eigh":
            m = np.linalg.eigh(m + m.conj().T)[1]  # Fortran-ordered, as eigh returns it
        got = cplx.phase_normalize(m)
        assert np.array_equal(bits(got), bits(phase_normalize_by_column(m)))


def test_phase_normalize_pivot_is_real_positive_at_d1():
    got = cplx.phase_normalize([[1.7 + 0.4j]])
    assert got[0, 0].imag == 0.0 and got[0, 0].real > 0
