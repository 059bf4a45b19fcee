import itertools

import numpy as np
import pytest

from mubkit.errors import (
    IndexOutOfRange,
    NonPositiveDegree,
    NonPrime,
    ReduciblePolynomial,
    TooLarge,
    ZeroInverse,
)
from mubkit.gf import FiniteField, _poly_mod, _poly_mul, default_modulus, is_irreducible, new_field

SMALL_PRIME_POWERS = [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
    (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1),
    (2, 5), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2), (53, 1), (59, 1),
    (61, 1), (2, 6),
]


def test_default_modulus_gf4_is_unique_irreducible_quadratic():
    # exhaustive: of the four monic quadratics over F_2 only x^2+x+1 has no root
    assert default_modulus(2, 2) == [1, 1, 1]
    for low in ([0, 0], [0, 1], [1, 0]):
        assert not is_irreducible(low + [1], 2)


def test_degree_one_field_uses_x():
    f = new_field(2, 1)
    assert list(f.modulus) == [0, 1]
    assert f.d == 2


def test_reducible_modulus_rejected():
    with pytest.raises(ReduciblePolynomial):
        new_field(2, 2, [0, 1, 1])  # x^2 + x = x(x+1)


def test_non_prime_rejected():
    with pytest.raises(NonPrime):
        new_field(4, 1)


def test_non_positive_degree_rejected():
    with pytest.raises(NonPositiveDegree, match="got 0"):
        new_field(2, 0)


def test_too_large_rejected():
    with pytest.raises(TooLarge):
        new_field(2, 17)


def test_non_monic_modulus_rejected():
    with pytest.raises(ReduciblePolynomial):
        new_field(3, 2, [1, 1, 2])


def test_gf4_addition_matches_shift_permutation():
    f = new_field(2, 2)
    assert f.add(2, 1) == 3
    assert f.add(0, 1) == 1
    assert f.add(2, 3) == 1  # coefficient-wise xor
    for a in range(4):
        assert f.add(a, 0) == a


def test_gf4_multiplication():
    f = new_field(2, 2)
    assert f.mul(2, 2) == 3  # x * x = x + 1 mod x^2+x+1
    assert f.mul(2, 3) == 1
    for a in range(4):
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0


def test_inverses_and_negation():
    assert new_field(2, 2).inv(2) == 3
    assert new_field(2, 1).neg(1) == 1
    assert new_field(5, 1).inv(2) == 3
    with pytest.raises(ZeroInverse):
        new_field(3, 1).inv(0)


def test_pow_square_and_multiply():
    f = new_field(3, 2)
    for a in range(1, f.d):
        acc = 1
        for k in range(7):
            assert f.pow(a, k) == acc
            acc = f.mul(acc, a)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    # exponents past int64 are reduced mod d-1 exactly
    k = 2**70 + 3
    for a in range(1, f.d):
        assert f.pow(a, k) == f.pow(a, k % (f.d - 1))


def test_trace_gf4():
    f = new_field(2, 2)
    assert [f.trace(a) for a in range(4)] == [0, 0, 1, 1]


def test_trace_additive_and_nonzero():
    for p, n in [(2, 2), (3, 2), (2, 3), (5, 1)]:
        f = new_field(p, n)
        for a in range(f.d):
            for b in range(f.d):
                assert f.trace(f.add(a, b)) == (f.trace(a) + f.trace(b)) % p
        assert any(f.trace(a) != 0 for a in range(f.d))


def test_primitive_element():
    f4 = new_field(2, 2)
    assert f4.primitive_element() == 2
    assert [f4.pow(2, k) for k in range(3)] == [1, 2, 3]
    assert new_field(2, 1).primitive_element() == 1
    f5 = new_field(5, 1)
    assert f5.primitive_element() == 2
    assert [f5.pow(2, k) for k in range(4)] == [1, 2, 4, 3]


def test_dlog_inverts_powers():
    f = new_field(3, 2)
    g = f.primitive_element()
    for k in range(f.d - 1):
        assert f.dlog(f.pow(g, k)) == k


def test_index_digit_round_trip():
    f = new_field(3, 3)
    for a in range(f.d):
        assert f.index(f.digits(a)) == a
    assert f.digits(0) == [0, 0, 0]
    assert f.digits(1) == [1, 0, 0]


def test_index_out_of_range():
    f = new_field(2, 2)
    with pytest.raises(IndexOutOfRange):
        f.add(4, 0)
    with pytest.raises(IndexOutOfRange):
        f.mul(0, -1)


def _pow_by_squaring(f, a, k):
    result = 1
    while k:
        if k & 1:
            result = f._mul_raw(result, a)
        a = f._mul_raw(a, a)
        k >>= 1
    return result


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 2), (2, 5), (3, 3)])
def test_dense_tables_equal_per_pair_arithmetic(p, n):
    """The dense tables and the scalar add/neg/mul/inv/pow/trace against
    polynomial arithmetic on digit vectors, element by element."""
    f = new_field(p, n)
    d, modulus = f.d, list(f.modulus)
    want_add = np.array([[f.index([(x + y) % p for x, y in zip(f.digits(a), f.digits(b))])
                          for b in range(d)] for a in range(d)])
    want_mul = np.array([[f.index(_poly_mod(_poly_mul(f.digits(a), f.digits(b), p), modulus, p))
                          for b in range(d)] for a in range(d)])
    assert f.add_table.dtype == f.mul_table.dtype == f.trace_vector.dtype == np.int64
    assert np.array_equal(f.add_table, want_add)
    assert np.array_equal(f.mul_table, want_mul)
    assert np.array_equal([[f.add(a, b) for b in range(d)] for a in range(d)], want_add)
    assert np.array_equal([[f.mul(a, b) for b in range(d)] for a in range(d)], want_mul)
    for a in range(d):
        assert f.neg(a) == f.index([-x % p for x in f.digits(a)])
        for k in (0, 1, 2, p, d - 1, d, 2**70 + 3):
            assert f.pow(a, k) == _pow_by_squaring(f, a, k)
        if a:
            assert f._mul_raw(a, f.inv(a)) == 1
        # Tr(a) = a + a^p + ... + a^(p^(n-1)), summed digit by digit
        total = [0] * n
        for k in range(n):
            total = [(x + y) % p for x, y in zip(total, f.digits(_pow_by_squaring(f, a, p**k)))]
        assert f.trace(a) == f.trace_vector[a] == f.index(total) < p
    assert all(type(v) is int for v in (f.add(1, 1), f.neg(1), f.mul(1, 1), f.inv(1), f.pow(1, 2), f.trace(1)))


@pytest.mark.parametrize("p,n", SMALL_PRIME_POWERS)
def test_field_axioms_exhaustive(p, n):
    """Brute-force oracle: every axiom over all pairs/triples, via the dense
    tables (vectorized enumeration of all d^3 triples)."""
    f = new_field(p, n)
    d = f.d
    add, mul = f.add_table, f.mul_table
    idx = np.arange(d)

    # closure and commutativity
    assert add.min() >= 0 and add.max() < d
    assert mul.min() >= 0 and mul.max() < d
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    # units
    assert np.array_equal(add[:, 0], idx)
    assert np.array_equal(mul[:, 1], idx)
    assert np.all(mul[:, 0] == 0)
    # inverses: every row of add contains 0; every nonzero row of mul contains 1
    assert np.all((add == 0).sum(axis=1) == 1)
    assert np.all((mul[1:, 1:] == 1).sum(axis=1) == 1)
    # associativity over all triples
    assert np.array_equal(add[add[:, :, None], idx[None, None, :]],
                          add[idx[:, None, None], add[None, :, :]])
    assert np.array_equal(mul[mul[:, :, None], idx[None, None, :]],
                          mul[idx[:, None, None], mul[None, :, :]])
    # distributivity a*(b+c) = a*b + a*c over all triples
    lhs = mul[idx[:, None, None], add[None, :, :]]
    rhs = add[mul[:, :, None], mul[:, None, :]]
    assert np.array_equal(lhs, rhs)


def test_field_equality_and_descriptor():
    f = new_field(2, 2)
    assert f == FiniteField(2, 2, [1, 1, 1])
    assert f.descriptor() == {"p": 2, "n": 2, "poly": [1, 1, 1]}
    # naming a field does not build its exp/log tables
    assert "_exp_log" not in vars(f)


def test_rabin_branch_matches_trial_division():
    # every monic polynomial of degree 2 to 5 over F_2, F_3 and F_5 takes the
    # Rabin test; cross-check against a direct trial-division search done here
    for p in (2, 3, 5):
        for n in range(2, 6):
            for low in itertools.product(range(p), repeat=n):
                poly = list(low) + [1]
                assert is_irreducible(poly, p) == _irreducible_by_division(poly, p), (poly, p)


def _irreducible_by_division(poly, p):
    n = len(poly) - 1
    for deg in range(1, n // 2 + 1):
        for idx in range(p**deg):
            low = []
            v = idx
            for _ in range(deg):
                low.append(v % p)
                v //= p
            if not _poly_mod(list(poly), low + [1], p):
                return False
    return True
