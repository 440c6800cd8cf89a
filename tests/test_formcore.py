"""Forms and radicals, and the oracles' own checks: classification, the Witt census and subspaces of V.

`classify`, `witt_census` and the `Subspace` helpers live in `oracles`;
here they are checked, mostly against exhaustive vector scans.

Expected values marked as derived were computed with the independent
oracles that appear inline (span counting, exhaustive vector scans)
before being frozen into assertions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import classify, contains, identity_form, meet_dim, points, subspace_from_rows, witt_census, zero_form

from bilrank import formcore as fc
from bilrank import linalg
from bilrank.gf import field_for_order

F2 = field_for_order(2)
F3 = field_for_order(3)
F4 = field_for_order(4)
F5 = field_for_order(5)


def all_vectors(q, n):
    return linalg.code_vectors(q, n)


# --- rank -------------------------------------------------------------------


def test_rank_zero_and_identity():
    assert fc.rank(zero_form(F3, 3)) == 0
    for n in (1, 2, 3, 4):
        assert fc.rank(identity_form(F5, n)) == n


def test_rank_frozen_example():
    # row reduction oracle: rows (0,1,0) and (2,0,0) are independent -> 2
    f = fc.GramForm(F3, [[0, 1, 0], [2, 0, 0], [0, 0, 0]])
    assert fc.rank(f) == 2


@given(st.integers(0, 3**9 - 1))
@settings(max_examples=120, deadline=None)
def test_rank_equals_n_minus_radical_dims(code):
    entries = [[(code // 3 ** (3 * i + j)) % 3 for j in range(3)] for i in range(3)]
    f = fc.GramForm(F3, entries)
    r = fc.rank(f)
    assert fc.left_radical(f).dim == 3 - r
    assert fc.right_radical(f).dim == 3 - r


def test_rank_invariant_under_basis_change():
    rng = np.random.default_rng(17)
    for q in (2, 3, 4, 5):
        F = field_for_order(q)
        for _ in range(25):
            g = rng.integers(0, q, size=(4, 4))
            while True:
                pm = rng.integers(0, q, size=(4, 4))
                if linalg.rank(F, pm) == 4:
                    break
            while True:
                qm = rng.integers(0, q, size=(4, 4))
                if linalg.rank(F, qm) == 4:
                    break
            transformed = F.matmul_arr(F.matmul_arr(pm.T, g), qm)
            assert linalg.rank(F, transformed) == linalg.rank(F, g)


# --- radicals ----------------------------------------------------------------


def test_radicals_of_zero_and_invertible_forms():
    z = zero_form(F3, 2)
    assert fc.left_radical(z).dim == 2  # the whole space
    assert fc.right_radical(z).dim == 2
    assert fc.left_radical(identity_form(F3, 3)).dim == 0


def test_radical_frozen_example():
    f = fc.GramForm(F3, [[0, 1, 0], [2, 0, 0], [0, 0, 0]])
    # null-space oracle: both radicals are span{e_3}
    assert fc.left_radical(f).key() == (((0, 0, 1)),)
    assert fc.right_radical(f).key() == (((0, 0, 1)),)


def test_radical_vectors_annihilate():
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = fc.GramForm(F4, rng.integers(0, 4, size=(3, 3)))
        for u in points(fc.left_radical(f)):
            for w in all_vectors(4, 3)[:16]:
                assert fc.evaluate(f, u, w) == 0
        for w in points(fc.right_radical(f)):
            for u in all_vectors(4, 3)[:16]:
                assert fc.evaluate(f, u, w) == 0


# --- classification -----------------------------------------------------------


def test_classify_examples():
    assert classify(fc.GramForm(F5, [[0, 1], [4, 0]])) == "alternating"
    assert classify(identity_form(F3, 2)) == "symmetric-not-alternating"
    assert classify(fc.GramForm(F2, [[0, 1], [0, 0]])) == "general"
    # char-2 check: f(e1+e2, e1+e2) = 1 != 0, so it is genuinely not alternating
    assert fc.evaluate(fc.GramForm(F2, [[0, 1], [0, 0]]), (1, 1), (1, 1)) == 1


def test_alternating_iff_vanishing_on_diagonal_exhaustive():
    # every 2x2 form over GF(2) and GF(3): q^(n^2) cases, q^n vectors each
    for F in (F2, F3):
        for code in range(F.q**4):
            entries = [[(code // F.q ** (2 * i + j)) % F.q for j in range(2)] for i in range(2)]
            f = fc.GramForm(F, entries)
            vanishes = all(fc.evaluate(f, v, v) == 0 for v in all_vectors(F.q, 2))
            assert (classify(f) == "alternating") == vanishes


def test_char2_symmetric_zero_diagonal_is_alternating():
    f = fc.GramForm(F2, [[0, 1], [1, 0]])
    assert classify(f) == "alternating"
    g = fc.GramForm(F2, [[1, 1], [1, 0]])
    assert classify(g) == "symmetric-not-alternating"


# --- evaluate -----------------------------------------------------------------


def test_evaluate_identity_is_kronecker_delta():
    idf = identity_form(F5, 3)
    eye = np.eye(3, dtype=int)
    for i in range(3):
        for j in range(3):
            assert fc.evaluate(idf, eye[i], eye[j]) == (1 if i == j else 0)


def test_evaluate_zero_vector_and_frozen_example():
    f = fc.GramForm(F3, [[0, 1], [2, 0]])
    assert fc.evaluate(f, (0, 0), (1, 2)) == 0
    # direct expansion oracle: u^T G w = 1*1*2 + 1*2*1 = 4 = 1 mod 3
    assert fc.evaluate(f, (1, 1), (1, 2)) == 1


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        fc.evaluate(identity_form(F3, 2), (1,), (0, 1))


# --- witt census ---------------------------------------------------------------


def brute_force_isotropic_nonzero(f):
    return sum(
        1 for v in all_vectors(f.field.q, f.n)[1:] if fc.evaluate(f, v, v) == 0
    )


def test_witt_census_frozen_examples():
    z = witt_census(zero_form(F3, 2))
    assert (z.rank, z.isotropic_nonzero_count) == (0, 8)
    hyp = witt_census(fc.GramForm(F3, [[0, 1], [1, 0]]))
    assert (hyp.rank, hyp.witt_index, hyp.isotropic_nonzero_count) == (2, 1, 4)
    ell = witt_census(fc.GramForm(F3, [[1, 0], [0, 1]]))
    assert (ell.rank, ell.witt_index, ell.isotropic_nonzero_count) == (2, 0, 0)
    assert brute_force_isotropic_nonzero(fc.GramForm(F3, [[0, 1], [1, 0]])) == 4
    assert brute_force_isotropic_nonzero(fc.GramForm(F3, [[1, 0], [0, 1]])) == 0


def _every_symmetric_form(F, n):
    k = n * (n + 1) // 2
    for code_row in linalg.code_vectors(F.q, k):
        m = np.zeros((n, n), dtype=np.int64)
        idx = 0
        for i in range(n):
            for j in range(i, n):
                m[i, j] = m[j, i] = code_row[idx]
                idx += 1
        yield fc.GramForm(F, m)


@pytest.mark.parametrize("q,n", [(3, 2), (3, 3), (5, 2), (7, 2)])
def test_witt_census_vs_enumeration_exhaustive(q, n):
    # every symmetric form on these small spaces, not a sample
    F = field_for_order(q)
    vecs = linalg.code_vectors(q, n)
    for f in _every_symmetric_form(F, n):
        wc = witt_census(f)
        assert wc.rank == fc.rank(f)
        tv = F.matmul_arr(vecs, f.entries)
        quad = F.sum_arr(F.mul_arr(tv, vecs), axis=1)
        assert wc.isotropic_nonzero_count == int((np.asarray(quad)[1:] == 0).sum())


def test_witt_census_rejects_wrong_inputs():
    with pytest.raises(ValueError, match="odd characteristic"):
        witt_census(identity_form(F2, 2))
    with pytest.raises(ValueError, match="symmetric"):
        witt_census(fc.GramForm(F3, [[0, 1], [0, 0]]))


# --- subspaces of V -------------------------------------------------------------


def test_subspace_equality_is_representational():
    s1 = subspace_from_rows(F3, 3, [[1, 1, 0], [0, 0, 1]])
    s2 = subspace_from_rows(F3, 3, [[2, 2, 0], [1, 1, 1]])
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1.key() == s2.key()


def test_subspace_points_and_membership():
    s = subspace_from_rows(F3, 3, [[1, 0, 2]])
    pts = {tuple(int(v) for v in p) for p in points(s)}
    assert pts == {(0, 0, 0), (1, 0, 2), (2, 0, 1)}
    assert contains(s, (2, 0, 1)) and not contains(s, (1, 1, 1))


def test_meet_dim():
    a = subspace_from_rows(F3, 3, [[1, 0, 0], [0, 1, 0]])
    b = subspace_from_rows(F3, 3, [[0, 1, 0], [0, 0, 1]])
    assert meet_dim(a, b) == 1
