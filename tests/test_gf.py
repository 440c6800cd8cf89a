"""Field arithmetic against independent polynomial oracles.

The oracle here is schoolbook polynomial arithmetic over Z_p written
directly in the tests, never the table machinery under test.
"""


import numpy as np
import pytest

from bilrank.gf import (
    FieldSpec,
    default_modulus,
    field_for_order,
    is_irreducible,
    make_field,
    make_tower,
)

def _prime_power(q):
    p = 2
    while p * p <= q:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
        p += 1
    return True  # q itself prime


ORDERS_64 = [q for q in range(2, 65) if _prime_power(q)]
ORDERS_256 = [q for q in range(2, 257) if _prime_power(q)]


# --- oracle: polynomial arithmetic mod (modulus, p) ------------------------


def poly_mul_mod(a, b, modulus, p):
    """Schoolbook multiply-and-reduce on digit lists, ascending degree."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    deg = len(modulus) - 1
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        prod[i] = 0
        for j in range(deg):
            prod[i - deg + j] = (prod[i - deg + j] - c * modulus[j]) % p
    return prod[:deg] + [0] * (deg - len(prod))


def code_digits(code, p, k):
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return out


def digits_code(digits, p):
    return sum(c * p**i for i, c in enumerate(digits))


def test_gf4_multiplication_matches_polynomial_oracle():
    F = field_for_order(4)
    assert F.spec.modulus == (1, 1, 1)  # x^2 + x + 1
    # x * x = x + 1, i.e. mul(2, 2) = 3
    assert F.mul(2, 2) == 3
    for a in range(4):
        for b in range(4):
            oracle = digits_code(
                poly_mul_mod(code_digits(a, 2, 2), code_digits(b, 2, 2), F.spec.modulus, 2), 2
            )
            assert F.mul(a, b) == oracle


@pytest.mark.parametrize("q", [3, 5, 8, 9, 16, 25, 27])
def test_multiplication_matches_polynomial_oracle(q):
    F = field_for_order(q)
    for a in range(q):
        for b in range(q):
            oracle = digits_code(
                poly_mul_mod(
                    code_digits(a, F.p, F.k), code_digits(b, F.p, F.k), F.spec.modulus, F.p
                ),
                F.p,
            )
            assert F.mul(a, b) == oracle


def test_gf5_inverse_by_exhaustive_search():
    F = field_for_order(5)
    # oracle: the unique b in Z/5 with 2*b = 1 mod 5
    oracle = next(b for b in range(5) if (2 * b) % 5 == 1)
    assert oracle == 3
    assert F.inv(2) == 3


def test_multiplicative_identity_everywhere():
    for q in (2, 3, 4, 7, 16, 81):
        F = field_for_order(q)
        for a in F.elements():
            assert F.mul(1, a) == a


def test_elements_iteration():
    assert list(field_for_order(3).elements()) == [0, 1, 2]
    assert list(field_for_order(4).elements()) == [0, 1, 2, 3]
    assert len(list(field_for_order(9).elements())) == 9


@pytest.mark.parametrize("q", ORDERS_64)
def test_field_axioms_exhaustive_triple_scan(q):
    F = field_for_order(q)
    codes = np.arange(q)
    a = codes[:, None, None]
    b = codes[None, :, None]
    c = codes[None, None, :]
    ab = F.mul_arr(a, b)
    # commutativity (q^2) and associativity/distributivity (q^3), all cases
    assert (ab == F.mul_arr(b, a)).all()
    assert (F.add_arr(a, b)[:, :, 0] == F.add_arr(b, a)[:, :, 0]).all()
    assert (F.mul_arr(ab, c) == F.mul_arr(a, F.mul_arr(b, c))).all()
    assert (F.add_arr(F.add_arr(a, b), c) == F.add_arr(a, F.add_arr(b, c))).all()
    assert (F.mul_arr(a, F.add_arr(b, c)) == F.add_arr(F.mul_arr(a, b), F.mul_arr(a, c))).all()
    # identities and inverses
    assert (F.add_arr(codes, np.zeros(q, dtype=np.int64)) == codes).all()
    assert (F.add_arr(codes, F.neg_arr(codes)) == 0).all()
    for x in range(1, q):
        assert F.mul(x, F.inv(x)) == 1


@pytest.mark.parametrize("q", ORDERS_256)
def test_frobenius_fixes_the_field(q):
    F = field_for_order(q)
    for x in F.elements():
        assert F.pow(x, q) == x


TOWERS_256 = [(2, 2), (2, 3), (2, 4), (2, 8), (3, 2), (3, 4), (4, 2), (5, 2), (7, 2), (8, 2), (9, 2), (16, 2)]


@pytest.mark.parametrize("q,t", TOWERS_256)
def test_trace_linearity_and_nonvanishing(q, t):
    tower = make_tower(field_for_order(q), t)
    L, K = tower.top, tower.base
    traces = [tower.trace(x) for x in L.elements()]
    # additive over all of L x L
    for x in range(L.q):
        for y in range(L.q):
            assert tower.trace(L.add(x, y)) == K.add(traces[x], traces[y])
    # K-homogeneous over all of K x L
    for lam in K.elements():
        lam_l = tower.embed(lam)
        for x in L.elements():
            assert tower.trace(L.mul(lam_l, x)) == K.mul(lam, traces[x])
    # separability: the trace form is not the zero map
    assert any(traces)


@pytest.mark.parametrize("q,t", TOWERS_256)
def test_embedding_is_a_field_homomorphism(q, t):
    tower = make_tower(field_for_order(q), t)
    K, L = tower.base, tower.top
    assert tower.embed(0) == 0 and tower.embed(1) == 1
    for a in K.elements():
        for b in K.elements():
            assert tower.embed(K.add(a, b)) == L.add(tower.embed(a), tower.embed(b))
            assert tower.embed(K.mul(a, b)) == L.mul(tower.embed(a), tower.embed(b))


def test_trace_gf4_to_gf2_by_power_sum():
    tower = make_tower(field_for_order(2), 2)
    L = tower.top
    # oracle: Tr(x) = x + x^2 computed with field addition directly
    for x in L.elements():
        assert tower.trace(x) == L.add(x, L.mul(x, x))
    assert tower.trace(0) == 0
    assert tower.trace(2) == 1


def test_trace_rejects_out_of_range_codes():
    tower = make_tower(field_for_order(2), 2)
    with pytest.raises(ValueError):
        tower.trace(4)


def test_field_spec_validation_errors():
    with pytest.raises(ValueError, match="not prime"):
        make_field(FieldSpec(4, 1, (0, 1)))
    with pytest.raises(ValueError, match="reducible"):
        make_field(FieldSpec(2, 2, (1, 0, 1)))  # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError, match="cap"):
        make_field(FieldSpec(2, 17, tuple([1] + [0] * 16 + [1])))
    with pytest.raises(ValueError, match="prime power"):
        field_for_order(12)


def test_default_modulus_is_deterministic_and_irreducible():
    for p, k in [(2, 2), (2, 8), (3, 2), (3, 4), (5, 2), (7, 2)]:
        mod = default_modulus(p, k)
        assert mod == default_modulus(p, k)
        assert is_irreducible(mod, p)
        # the canonical choice makes x a generator, so the log table starts at x
        F = make_field(FieldSpec(p, k, mod))
        assert F.generator == p


def _oracle_order(code, modulus, p):
    """Multiplicative order of a nonzero code, by repeated oracle multiplication."""
    k = len(modulus) - 1
    one, g = code_digits(1, p, k), code_digits(code, p, k)
    acc, order = g, 1
    while acc != one:
        acc, order = poly_mul_mod(acc, g, modulus, p), order + 1
    return order


def test_user_supplied_modulus_accepted():
    for p, k, modulus in [
        (3, 2, (1, 0, 1)),  # x^2 + 1 is irreducible over GF(3), but x has order 4, not 8
        (2, 4, (1, 1, 1, 1, 1)),  # x^4 + x^3 + x^2 + x + 1 is irreducible over GF(2), but x has order 5
    ]:
        F = make_field(FieldSpec(p, k, modulus))
        assert F.q == p**k
        assert _oracle_order(p, modulus, p) < F.q - 1  # x is no generator here
        assert _oracle_order(F.generator, modulus, p) == F.q - 1
        for a in range(F.q):
            for b in range(F.q):
                oracle = digits_code(poly_mul_mod(code_digits(a, p, k), code_digits(b, p, k), modulus, p), p)
                assert F.mul(a, b) == oracle


def test_vectorised_ops_agree_with_scalar():
    for q in (3, 4, 9, 16, 27):
        F = field_for_order(q)
        rng = np.random.default_rng(q)
        a = rng.integers(0, q, size=200)
        b = rng.integers(0, q, size=200)
        assert (F.add_arr(a, b) == [F.add(int(x), int(y)) for x, y in zip(a, b)]).all()
        assert (F.mul_arr(a, b) == [F.mul(int(x), int(y)) for x, y in zip(a, b)]).all()
        assert (F.sub_arr(a, b) == [F.sub(int(x), int(y)) for x, y in zip(a, b)]).all()
        # sum_arr against a left fold
        arr = rng.integers(0, q, size=(40, 7))
        expect = []
        for row in arr:
            acc = 0
            for v in row:
                acc = F.add(acc, int(v))
            expect.append(acc)
        assert (F.sum_arr(arr, axis=1) == expect).all()


def test_matmul_arr_matches_scalar_expansion():
    for q in (2, 3, 4, 9):
        F = field_for_order(q)
        rng = np.random.default_rng(q + 100)
        A = rng.integers(0, q, size=(3, 4))
        B = rng.integers(0, q, size=(4, 2))
        got = F.matmul_arr(A, B)
        for i in range(3):
            for j in range(2):
                acc = 0
                for k in range(4):
                    acc = F.add(acc, F.mul(int(A[i, k]), int(B[k, j])))
                assert got[i, j] == acc
