"""Exact arithmetic in GF(p^n) with a canonical element indexing.

Element index i in 0..d-1 encodes the polynomial sum_k c_k x^k where
(c_0, ..., c_{n-1}) are the base-p digits of i, least significant first.
Index 0 is the additive identity and index 1 the multiplicative identity.
Every other module indexes field elements this way.

Multiplication is served from log/antilog tables built over a deterministic
primitive element, so a field instance is immutable and cheap to query.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    IndexOutOfRange,
    NonPrime,
    ReduciblePolynomial,
    TooLarge,
    ZeroInverse,
)

MAX_ORDER = 1 << 16


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    k = 3
    while k * k <= p:
        if p % k == 0:
            return False
        k += 2
    return True


def _prime_factors(m: int) -> list[int]:
    out = []
    k = 2
    while k * k <= m:
        if m % k == 0:
            out.append(k)
            while m % k == 0:
                m //= k
        k += 1
    if m > 1:
        out.append(m)
    return out


# -- dense polynomial helpers over F_p (coefficient lists, low degree first) --

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for j, mj in enumerate(m):
                a[shift + j] = (a[shift + j] - lead * mj) % p
        a.pop()
    return _poly_trim(a)


def _poly_powmod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    result = [1]
    acc = _poly_mod(list(base), m, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, acc, p), m, p)
        acc = _poly_mod(_poly_mul(acc, acc, p), m, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        # make b monic before reducing
        inv_lead = pow(b[-1], p - 2, p)
        b_monic = [(c * inv_lead) % p for c in b]
        a, b = b_monic, _poly_mod(a, b_monic, p)
    return a


def _index_to_poly(i: int, p: int) -> list[int]:
    out = []
    while i:
        out.append(i % p)
        i //= p
    return out


def _poly_to_index(c: list[int], p: int) -> int:
    i = 0
    for ck in reversed(c):
        i = i * p + ck
    return i


def is_irreducible(modulus: list[int], p: int) -> bool:
    """Whether a monic polynomial (low-degree-first coefficients) is
    irreducible over F_p.

    Degree <= 4 is settled by trial division against every monic polynomial
    of degree up to n/2; higher degrees use the Rabin test.
    """
    coeffs = [c % p for c in modulus]
    n = len(coeffs) - 1
    if n < 1 or coeffs[-1] != 1:
        return False
    if n == 1:
        return True
    if coeffs[0] == 0:  # divisible by x
        return False
    if n <= 4:
        for deg in range(1, n // 2 + 1):
            for idx in range(p**deg):
                low = _index_to_poly(idx, p)
                trial = low + [0] * (deg - len(low)) + [1]
                if not _poly_mod(coeffs, trial, p):
                    return False
        return True
    # Rabin: x^(p^n) == x mod f, and gcd(x^(p^(n/q)) - x, f) = 1 for q | n
    x = [0, 1]

    def frobenius_minus_x(e: int) -> list[int]:
        xq = _poly_powmod(x, e, coeffs, p)
        diff = [0] * max(len(xq), 2)
        for k, c in enumerate(xq):
            diff[k] = c
        diff[1] = (diff[1] - 1) % p
        return _poly_trim(diff)

    if frobenius_minus_x(p**n):
        return False
    for q in _prime_factors(n):
        g = _poly_gcd(coeffs, frobenius_minus_x(p ** (n // q)), p)
        if len(g) - 1 >= 1:
            return False
    return True


def default_modulus(p: int, n: int) -> list[int]:
    """Lexicographically smallest irreducible monic polynomial of degree n,
    comparing coefficient vectors low-degree-first as base-p integers."""
    if n == 1:
        return [0, 1]  # x itself
    for idx in range(p**n):
        low = _index_to_poly(idx, p)
        coeffs = low + [0] * (n - len(low)) + [1]
        if is_irreducible(coeffs, p):
            return coeffs
    raise ReduciblePolynomial(f"no irreducible polynomial of degree {n} over F_{p}")  # pragma: no cover


class FiniteField:
    """Immutable GF(p^n) context.

    Parameters
    ----------
    p, n : characteristic and extension degree.
    modulus : monic irreducible coefficient vector of length n+1,
        low-degree-first. Chosen deterministically when omitted.
    """

    def __init__(self, p: int, n: int, modulus: list[int] | None = None):
        if not is_prime(p):
            raise NonPrime(f"p = {p} is not prime")
        if n < 1:
            raise ValueError(f"extension degree must be >= 1, got {n}")
        d = p**n
        if d > MAX_ORDER:
            raise TooLarge(f"field order {d} exceeds {MAX_ORDER}")
        if modulus is None:
            modulus = default_modulus(p, n)
        else:
            modulus = [int(c) % p for c in modulus]
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ReduciblePolynomial(
                    f"modulus must be monic of degree {n}: {modulus}"
                )
            if not is_irreducible(modulus, p):
                raise ReduciblePolynomial(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.n = n
        self.d = d
        self.modulus = tuple(modulus)
        self._log: np.ndarray | None = None
        self._exp: np.ndarray | None = None
        self._generator: int | None = None

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, n={self.n}, modulus={list(self.modulus)})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteField)
            and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))

    # -- indexing ------------------------------------------------------------

    def _check(self, *indices: int) -> None:
        for a in indices:
            if not 0 <= a < self.d:
                raise IndexOutOfRange(f"element index {a} not in 0..{self.d - 1}")

    def digits(self, a: int) -> list[int]:
        """Base-p digits of an element index, c_0 first, padded to length n."""
        self._check(a)
        out = []
        for _ in range(self.n):
            out.append(a % self.p)
            a //= self.p
        return out

    def index(self, coeffs: list[int]) -> int:
        """Element index of a coefficient vector (inverse of :meth:`digits`)."""
        if len(coeffs) > self.n:
            raise IndexOutOfRange(f"coefficient vector longer than degree {self.n}")
        return _poly_to_index([c % self.p for c in coeffs], self.p)

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        p = self.p
        out, base = 0, 1
        while a or b:
            out += ((a + b) % p) * base
            a, b = a // p, b // p
            base *= p
        return out

    def neg(self, a: int) -> int:
        self._check(a)
        p = self.p
        out, base = 0, 1
        while a:
            out += ((p - a % p) % p) * base
            a //= p
            base *= p
        return out

    def _mul_raw(self, a: int, b: int) -> int:
        """Product by polynomial multiplication and reduction (no tables)."""
        prod = _poly_mul(_index_to_poly(a, self.p), _index_to_poly(b, self.p), self.p)
        return _poly_to_index(_poly_mod(prod, list(self.modulus), self.p), self.p)

    def _ensure_tables(self) -> None:
        if self._log is not None:
            return
        g = self._find_generator()
        d = self.d
        exp = np.zeros(max(d - 1, 1), dtype=np.int64)
        log = np.full(d, -1, dtype=np.int64)
        acc = 1
        for k in range(d - 1):
            exp[k] = acc
            log[acc] = k
            acc = self._mul_raw(acc, g)
        if d == 2:
            exp[0] = 1
            log[1] = 0
        self._exp, self._log, self._generator = exp, log, g

    def _order_is_full(self, g: int) -> bool:
        m = self.d - 1
        for q in _prime_factors(m):
            if self._pow_raw(g, m // q) == 1:
                return False
        return True

    def _pow_raw(self, a: int, k: int) -> int:
        result, acc = 1, a
        while k:
            if k & 1:
                result = self._mul_raw(result, acc)
            acc = self._mul_raw(acc, acc)
            k >>= 1
        return result

    def _find_generator(self) -> int:
        if self.d == 2:
            return 1
        for g in range(2, self.d):
            if self._order_is_full(g):
                return g
        raise RuntimeError("no primitive element found")  # pragma: no cover

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if a == 0 or b == 0:
            return 0
        self._ensure_tables()
        k = (int(self._log[a]) + int(self._log[b])) % (self.d - 1) if self.d > 2 else 0
        return int(self._exp[k])

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        self._ensure_tables()
        if self.d == 2:
            return 1
        k = (-int(self._log[a])) % (self.d - 1)
        return int(self._exp[k])

    def pow(self, a: int, k: int) -> int:
        """a**k by square-and-multiply; k must be >= 0 (pow(0, 0) = 1)."""
        self._check(a)
        if k < 0:
            raise IndexOutOfRange("negative exponents not supported; use inv")
        if a == 0:
            return 1 if k == 0 else 0
        result, acc = 1, a
        while k:
            if k & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            k >>= 1
        return result

    def trace(self, a: int) -> int:
        """Field trace down to F_p, returned as a digit in 0..p-1.

        Tr(a) = a + a^p + ... + a^(p^(n-1)); additive and F_p-linear.
        """
        self._check(a)
        acc, total = a, 0
        for _ in range(self.n):
            total = self.add(total, acc)
            acc = self.pow(acc, self.p)
        # total lies in the prime subfield, whose elements are indices 0..p-1
        return total

    def primitive_element(self) -> int:
        """Smallest generator of the multiplicative group (1 for GF(2))."""
        self._ensure_tables()
        return int(self._generator)

    def dlog(self, a: int) -> int:
        """Discrete log of a nonzero element w.r.t. the primitive element."""
        self._check(a)
        if a == 0:
            raise ZeroInverse("discrete log of 0 is undefined")
        self._ensure_tables()
        return int(self._log[a])

    # -- dense tables (used by the tensor and construction modules) ----------

    @functools.cached_property
    def add_table(self) -> np.ndarray:
        """d x d array with [a, b] = a + b, added digit by digit mod p."""
        idx = np.arange(self.d)
        t = np.zeros((self.d, self.d), dtype=np.int64)
        for k in range(self.n):
            digit = idx // self.p**k % self.p
            t += (digit[:, None] + digit) % self.p * self.p**k
        return t

    @functools.cached_property
    def mul_table(self) -> np.ndarray:
        """d x d array with [a, b] = a * b, as exp[(log a + log b) mod (d-1)]."""
        self._ensure_tables()
        log = self._log[1:]
        t = np.zeros((self.d, self.d), dtype=np.int64)
        t[1:, 1:] = self._exp[(log[:, None] + log) % (self.d - 1)]
        return t

    @functools.cached_property
    def trace_vector(self) -> np.ndarray:
        """Length-d array of field traces."""
        return np.array([self.trace(a) for a in range(self.d)], dtype=np.int64)

    def descriptor(self) -> dict:
        """JSON-ready field descriptor fragment."""
        return {"p": self.p, "n": self.n, "poly": list(self.modulus)}


def new_field(p: int, n: int, modulus: list[int] | None = None) -> FiniteField:
    """Construct a GF(p^n) context; see :class:`FiniteField`."""
    return FiniteField(p, n, modulus)
