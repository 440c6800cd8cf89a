"""Exact arithmetic in small finite fields GF(p^k).

An element of GF(p^k) = GF(p)[x]/(m(x)) is stored as an integer code:
the residue polynomial c_0 + c_1 x + ... + c_{k-1} x^{k-1} becomes
sum(c_i * p**i).  Code 0 is the additive identity, code 1 the
multiplicative identity, and for k >= 2 the code p is the class of x.

Multiplication, inversion and powers run on log/antilog tables built
over the smallest generating code, found by the one primitivity test
that also picks the canonical modulus; addition is digit-wise mod p.
Every operation has a scalar form (plain ints) and a vectorised form on
numpy arrays of codes, which is what the enumeration hot loops use.

Field orders are capped at 2**16; the toolkit's experiments never need
more, and the cap keeps every table dense and cheap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_ORDER = 1 << 16


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


# ---------------------------------------------------------------------------
# Polynomial arithmetic over GF(p), used only at construction time.
# Polynomials are tuples of coefficients in ascending degree order.


def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _poly_mulmod(a, b, mod, p):
    if not a or not b:
        return ()
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce modulo the monic polynomial `mod`
    deg = len(mod) - 1
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(deg):
                prod[i - deg + j] = (prod[i - deg + j] - c * mod[j]) % p
    return _poly_trim(prod)


def _poly_powmod(a, e, mod, p):
    result = (1,)
    base = _poly_trim(a)
    while e > 0:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        lead_inv = pow(b[-1], p - 2, p)
        r = list(a)
        while True:
            r = list(_poly_trim(r))
            if len(r) < len(b):
                break
            c = (r[-1] * lead_inv) % p
            shift = len(r) - len(b)
            for j, bj in enumerate(b):
                r[shift + j] = (r[shift + j] - c * bj) % p
        a, b = b, _poly_trim(r)
    return a


def is_irreducible(modulus, p: int) -> bool:
    """Rabin's test for a monic polynomial over GF(p)."""
    k = len(modulus) - 1
    if k < 1 or modulus[-1] != 1:
        return False
    if k == 1:
        return True
    x = (0, 1)
    # x^(p^k) == x mod f
    if _poly_powmod(x, p**k, modulus, p) != x:
        return False
    for ell in prime_factors(k):
        h = _poly_powmod(x, p ** (k // ell), modulus, p)
        diff = _poly_trim(
            tuple((hc - xc) % p for hc, xc in itertools.zip_longest(h, x, fillvalue=0))
        )
        if len(_poly_gcd(modulus, diff, p)) > 1:
            return False
    return True


def _is_primitive(a, modulus, p: int) -> bool:
    """Does the class of the polynomial a generate the multiplicative group mod `modulus`?"""
    q = p ** (len(modulus) - 1)
    return all(_poly_powmod(a, (q - 1) // ell, modulus, p) != (1,) for ell in prime_factors(q - 1))


@lru_cache(maxsize=None)
def default_modulus(p: int, k: int) -> tuple[int, ...]:
    """Canonical monic modulus for GF(p^k).

    For k = 1 this is just x.  For k >= 2 it is the monic irreducible
    polynomial of degree k, smallest under the integer encoding of its
    low coefficients, whose root x is a multiplicative generator.  The
    choice is deterministic, so element codes are reproducible across
    runs and machines and safe to put in files.
    """
    if k == 1:
        return (0, 1)
    for code in range(p**k):
        coeffs = []
        c = code
        for _ in range(k):
            coeffs.append(c % p)
            c //= p
        candidate = tuple(coeffs) + (1,)
        if candidate[0] == 0:
            continue  # divisible by x
        if is_irreducible(candidate, p) and _is_primitive((0, 1), candidate, p):
            return candidate
    raise RuntimeError(f"no primitive polynomial found for GF({p}^{k})")


@dataclass(frozen=True)
class FieldSpec:
    """Defining data of a field: characteristic, degree, monic modulus."""

    p: int
    k: int
    modulus: tuple[int, ...]

    def validate(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")
        if self.k < 1:
            raise ValueError(f"extension degree must be >= 1, got {self.k}")
        q = self.p**self.k
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds the supported cap {MAX_ORDER}")
        if len(self.modulus) != self.k + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if any(not (0 <= c < self.p) for c in self.modulus):
            raise ValueError("modulus coefficients must lie in [0, p)")
        if not is_irreducible(self.modulus, self.p):
            raise ValueError(f"modulus {list(self.modulus)} is reducible over GF({self.p})")

    @property
    def order(self) -> int:
        return self.p**self.k


class Field:
    """GF(p^k) with table-driven arithmetic on integer element codes."""

    def __init__(self, spec: FieldSpec):
        spec.validate()
        self.spec = spec
        self.p = spec.p
        self.k = spec.k
        self.q = spec.order

        self._dig = np.zeros((self.q, self.k), dtype=np.int64)
        codes = np.arange(self.q)
        c = codes.copy()
        for i in range(self.k):
            self._dig[:, i] = c % self.p
            c //= self.p
        self._powvec = self.p ** np.arange(self.k, dtype=np.int64)

        self._neg_np = ((self.p - self._dig) % self.p) @ self._powvec

        # log/antilog tables over a multiplicative generator
        exp = [0] * max(2 * (self.q - 1), 1)
        log = [0] * self.q
        g = self._find_generator()
        acc = 1
        for i in range(self.q - 1):
            exp[i] = acc
            log[acc] = i
            acc = self._mul_poly(acc, g)
        for i in range(self.q - 1, len(exp)):
            exp[i] = exp[i - (self.q - 1)]
        self.generator = g
        self._exp = exp
        self._log = log
        self._exp_np = np.array(exp, dtype=np.int64)
        self._log_np = np.array(log, dtype=np.int64)
        self._inv = [0] * self.q
        for a in range(1, self.q):
            self._inv[a] = exp[(self.q - 1) - log[a]]
        self._inv_np = np.array(self._inv, dtype=np.int64)
        self._neg = [int(v) for v in self._neg_np]

    # -- construction helpers ------------------------------------------------

    def _code_to_poly(self, a: int):
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def _poly_to_code(self, poly) -> int:
        return sum(c * self.p**i for i, c in enumerate(poly))

    def _mul_poly(self, a: int, b: int) -> int:
        prod = _poly_mulmod(self._code_to_poly(a), self._code_to_poly(b), self.spec.modulus, self.p)
        return self._poly_to_code(prod)

    def _find_generator(self) -> int:
        """The smallest code that generates the multiplicative group."""
        return next(g for g in range(1, self.q) if _is_primitive(self._code_to_poly(g), self.spec.modulus, self.p))

    # -- scalar operations ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a + b) % self.p
        s = 0
        pw = 1
        for _ in range(self.k):
            s += ((a + b) % self.p) * pw
            a //= self.p
            b //= self.p
            pw *= self.p
        return s

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self._neg[b])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv[a]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def elements(self) -> range:
        """All q element codes, ascending."""
        return range(self.q)

    def is_square(self, a: int) -> bool:
        """True iff a is a square in the field (0 counts as a square)."""
        if a == 0:
            return True
        if self.p == 2:
            return True  # squaring is a bijection in characteristic 2
        return self._log[a] % 2 == 0

    # -- vectorised operations on arrays of codes ----------------------------

    def add_arr(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a + b) % self.p
        return ((self._dig[a] + self._dig[b]) % self.p) @ self._powvec

    def neg_arr(self, a):
        return self._neg_np[np.asarray(a, dtype=np.int64)]

    def sub_arr(self, a, b):
        return self.add_arr(a, self.neg_arr(b))

    def mul_arr(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = self._exp_np[self._log_np[a] + self._log_np[b]]
        return np.where((a != 0) & (b != 0), out, 0)

    def sum_arr(self, a, axis: int):
        """GF sum-reduce an array of codes along one axis."""
        a = np.asarray(a, dtype=np.int64)
        axis = axis % a.ndim
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=axis)
        if self.k == 1:
            return a.sum(axis=axis) % self.p
        d = self._dig[a].sum(axis=axis) % self.p
        return d @ self._powvec

    def matmul_arr(self, a, b):
        """GF matrix product on stacks of code matrices (broadcasting dims)."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.k == 1:
            # codes are residues mod p, so integer matmul followed by mod is exact
            return (a @ b) % self.p
        prod = self.mul_arr(a[..., :, :, None], b[..., None, :, :])
        return self.sum_arr(prod, axis=-2)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"Field(GF({self.p}^{self.k}), modulus={list(self.spec.modulus)})"


@lru_cache(maxsize=None)
def _field_cache(spec: FieldSpec) -> Field:
    return Field(spec)


def make_field(spec: FieldSpec) -> Field:
    """Build (or fetch the cached) field for a spec."""
    return _field_cache(spec)


def field_for_order(q: int) -> Field:
    """GF(q) with the canonical modulus."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    fs = prime_factors(q)
    if len(fs) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = fs[0]
    k = 0
    m = q
    while m > 1:
        m //= p
        k += 1
    if p**k != q:
        raise ValueError(f"{q} is not a prime power")
    return make_field(FieldSpec(p, k, default_modulus(p, k)))


# ---------------------------------------------------------------------------
# Towers L/K and the trace map


class Tower:
    """A base field K = GF(q) sitting inside a top field L = GF(q^t).

    The embedding sends the residue class generating K to the smallest-code
    root of K's modulus in L, which fixes 0 and 1 and is a field
    homomorphism.  `trace` is the usual x + x^q + ... + x^(q^(t-1)),
    returned as a base-field code.
    """

    def __init__(self, base: Field, top: Field, t: int):
        self.base = base
        self.top = top
        self.t = t
        rho = self._find_root()
        emb = []
        for a in range(base.q):
            acc = 0
            for c in reversed(base._code_to_poly(a)):
                acc = top.add(top.mul(acc, rho), c)
            emb.append(acc)
        self._embed = emb
        self._section = {z: a for a, z in enumerate(emb)}
        if len(self._section) != base.q:
            raise RuntimeError("embedding is not injective (invalid tower)")

    def _find_root(self) -> int:
        mod = self.base.spec.modulus
        for z in self.top.elements():
            acc = 0
            for c in reversed(mod):
                acc = self.top.add(self.top.mul(acc, z), c)
            if acc == 0:
                return z
        raise RuntimeError("base modulus has no root in the top field")

    def embed(self, a: int) -> int:
        """Image in L of a base-field code."""
        return self._embed[a]

    def retract(self, z: int) -> int:
        """Base-field code of an element lying in the embedded copy of K."""
        try:
            return self._section[z]
        except KeyError:
            raise ValueError(f"top-field code {z} is not in the embedded base field") from None

    def trace(self, x: int) -> int:
        """Tr_{L/K}(x) = sum of x^(q^i) for i < t, as a base-field code."""
        if not (0 <= x < self.top.q):
            raise ValueError(f"code {x} out of range for the top field")
        q = self.base.q
        acc = 0
        for i in range(self.t):
            acc = self.top.add(acc, self.top.pow(x, q**i))
        return self.retract(acc)

    def power_basis(self) -> tuple[int, ...]:
        """K-basis of L: powers of the class of x in L (just (1,) when t = 1)."""
        if self.t == 1:
            return (1,)
        beta = self.top.p  # code of x
        return tuple(self.top.pow(beta, i) for i in range(self.t))

    def __repr__(self):
        return f"Tower(GF({self.base.q}) -> GF({self.top.q}))"


@lru_cache(maxsize=None)
def _tower_cache(base_spec: FieldSpec, t: int) -> Tower:
    base = make_field(base_spec)
    top_order = base.q**t
    if top_order > MAX_ORDER:
        raise ValueError(f"top field order {top_order} exceeds the cap {MAX_ORDER}")
    top = field_for_order(top_order)
    return Tower(base, top, t)


def make_tower(base: Field, t: int) -> Tower:
    """The degree-t extension tower over `base`, with canonical top field."""
    if t < 1:
        raise ValueError("tower degree must be >= 1")
    return _tower_cache(base.spec, t)
