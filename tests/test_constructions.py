"""Every construction against the claims it is used to witness."""

import numpy as np
import pytest
from oracles import classify, contains, trace

from bilrank import constructions as cons
from bilrank import formcore as fc
from bilrank import linalg
from bilrank import spanspace as sp
from bilrank.gf import field_for_order, make_tower

F2 = field_for_order(2)
F3 = field_for_order(3)
F4 = field_for_order(4)
F5 = field_for_order(5)


# --- symmetric trace family ------------------------------------------------


@pytest.mark.parametrize("q,m", [(3, 2), (2, 2), (4, 2), (5, 2), (2, 3), (3, 3)])
def test_symmetric_trace_dimension_and_constant_rank(q, m):
    K = field_for_order(q)
    N = cons.symmetric_trace(K, m)
    assert N.dim == m and N.n == m
    assert all(classify(f) != "general" for f in N.basis)  # xy = yx
    assert sp.rank_spectrum(N).ranks == (m,)


@pytest.mark.parametrize("q,m", [(3, 2), (4, 2), (5, 2), (7, 2), (9, 2), (11, 2), (13, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4)])
def test_trace_family_non_vanishing_exhaustive(q, m):
    # f_z(x, y) = 0 for every z forces x = 0 or y = 0; |L| <= 256 throughout
    K = field_for_order(q)
    assert q**m <= 256
    N = cons.symmetric_trace(K, m)
    vecs = linalg.code_vectors(q, m)
    stacked = np.zeros((len(vecs), len(vecs)), dtype=bool)
    stacked[:] = True
    for f in N.basis:
        vals = K.matmul_arr(K.matmul_arr(vecs, f.entries), vecs.T)
        stacked &= np.asarray(vals) == 0
    xs, ys = np.nonzero(stacked)
    for x, y in zip(xs, ys):
        assert x == 0 or y == 0


def test_embed_with_radical_preserves_spectrum_and_gains_radical():
    N = cons.symmetric_trace(F3, 2)
    M = cons.embed_with_radical(N, 4)
    assert M.dim == 2 and M.n == 4
    assert sp.rank_spectrum(M).ranks == (2,)
    w_rows = [(0, 0, 1, 0), (0, 0, 0, 1)]
    for _, f in sp.enumerate_nonzero(M):
        rad = fc.right_radical(f)
        for w in w_rows:
            assert contains(rad, w)


def test_embed_with_radical_identity_and_errors():
    N = cons.symmetric_trace(F3, 2)
    assert cons.embed_with_radical(N, 2) is N
    with pytest.raises(ValueError, match="smaller"):
        cons.embed_with_radical(N, 1)


# --- block symmetric family --------------------------------------------------


def test_block_symmetric_main_example():
    M = cons.block_symmetric(F3, 4, 2)
    assert M.dim == 2 * (4 - 2) == 4
    assert sp.rank_spectrum(M).ranks == (2, 4)
    assert all(classify(f) != "general" for f in M.basis)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_block_symmetric_r1_is_constant_rank_2(n):
    M = cons.block_symmetric(F5, n, 1)
    assert M.dim == n - 1
    assert sp.rank_spectrum(M).ranks == (2,)


def test_block_symmetric_range_check():
    with pytest.raises(ValueError):
        cons.block_symmetric(F3, 4, 3)


# --- alternating pencil --------------------------------------------------------


def test_alternating_pencil_n2_is_single_hyperbolic_form():
    M = cons.alternating_pencil(F3, 2)
    assert M.dim == 1
    assert classify(M.basis[0]) == "alternating"
    assert fc.rank(M.basis[0]) == 2


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (5, 4), (2, 6)])
def test_alternating_pencil_constant_rank_2(q, n):
    M = cons.alternating_pencil(field_for_order(q), n)
    assert M.dim == n - 1 and M.kind == "alternating"
    assert sp.rank_spectrum(M).ranks == (2,)


def test_alternating_pencil_independent_elements_have_distinct_radicals():
    q, n = 3, 4
    M = cons.alternating_pencil(field_for_order(q), n)
    rads = {fc.right_radical(f).key() for _, f in sp.enumerate_nonzero(M)}
    # one radical per projective coefficient line
    assert len(rads) == (q ** (n - 1) - 1) // (q - 1)


# --- odd-dimensional full alternating family --------------------------------------


@pytest.mark.parametrize("q,k,t", [(2, 3, 7), (3, 3, 13), (4, 3, 21), (5, 3, 31)])
def test_alternating_odd_full_verified(q, k, t):
    F = field_for_order(q)
    M = cons.alternating_odd_full(k, F)
    assert M.dim == k and M.kind == "alternating"
    assert sp.rank_spectrum(M).ranks == (k - 1,)
    rep = sp.radical_spread(M)
    assert rep.t == t and rep.covers and rep.pairwise_trivial
    # the spread is the trivial one: every line of V occurs
    assert len(rep.radicals.dims) == t and all(k == 1 for k in rep.radicals.dims.tolist())


def test_alternating_odd_full_rejects_bad_k():
    with pytest.raises(ValueError):
        cons.alternating_odd_full(4, F2)
    with pytest.raises(ValueError):
        cons.alternating_odd_full(1, F2)


# --- trace compression ---------------------------------------------------------------


def test_trace_compress_1x1_form():
    one = sp.span([fc.GramForm(F4, [[1]])])
    M = cons.trace_compress(one, make_tower(F2, 2))
    assert M.n == 2 and M.dim == 2
    assert sp.rank_spectrum(M).ranks == (2,)


def test_trace_compress_zero_subspace():
    z = sp.span([], field=F4, n=2)
    M = cons.trace_compress(z, make_tower(F2, 2))
    assert M.dim == 0 and M.n == 4


@pytest.mark.parametrize(
    "q,t,make",
    [
        (2, 2, lambda L: sp.span([fc.GramForm(L, [[1]])])),
        (2, 2, lambda L: cons.bilinear_column_family(L, 2, 1)),
        (3, 2, lambda L: cons.bilinear_column_family(L, 2, 2)),
        (2, 2, lambda L: cons.alternating_odd_full(3, L)),
        (3, 2, lambda L: cons.symmetric_trace(L, 2)),
        (2, 4, lambda L: sp.span([fc.GramForm(L, [[1]])])),
    ],
)
def test_trace_compress_multiplies_ranks_elementwise(q, t, make):
    # every element g of M maps to a form of rank exactly t * rank(g),
    # and that form lies in the compressed subspace
    base = field_for_order(q)
    tower = make_tower(base, t)
    L = tower.top
    assert L.q <= 81
    M = make(L)
    C = cons.trace_compress(M, tower)
    assert C.dim == t * M.dim
    lam = tower.power_basis()
    for _, g in sp.enumerate_nonzero(M):
        nk = M.n * t
        entries = np.zeros((nk, nk), dtype=np.int64)
        for i in range(M.n):
            for bi in range(t):
                for j in range(M.n):
                    for cj in range(t):
                        val = L.mul(lam[bi], L.mul(lam[cj], int(g.entries[i, j])))
                        entries[i * t + bi, j * t + cj] = trace(tower, val)
        F = fc.GramForm(base, entries)
        assert fc.rank(F) == t * fc.rank(g)
        assert C.contains_form(F)


def test_trace_compress_requires_matching_tower():
    tower = make_tower(F2, 2)
    with pytest.raises(ValueError, match="top field"):
        cons.trace_compress(sp.span([fc.GramForm(F3, [[1]])]), tower)


def test_compressed_alt_odd_reaches_full_dimension():
    req = cons.ConstructionRequest("alt-odd", {"q": 2, "k": 3, "ext": 2})
    M, declared = cons.build(req)
    assert (M.n, M.dim) == (6, 6)
    assert sp.rank_spectrum(M).ranks == (4,)
    assert declared["spread_t"] == 21


# --- bilinear column family --------------------------------------------------------


def test_column_family_spectrum_uncompressed():
    M = cons.bilinear_column_family(F3, 3, 2)
    assert M.dim == 6
    assert sp.rank_spectrum(M).ranks == (1, 2)


def test_column_family_r_equals_m_is_full_space():
    M = cons.bilinear_column_family(F2, 2, 2)
    assert M.dim == 4
    assert sp.rank_spectrum(M).ranks == (1, 2)


def test_column_family_compressed_gf4():
    req = cons.ConstructionRequest("column-family", {"q": 2, "m": 2, "r": 1, "ext": 2})
    M, _ = cons.build(req)
    assert (M.n, M.dim) == (4, 4)
    assert sp.rank_spectrum(M).ranks == (2,)


def test_column_family_compressed_gf9_shared_right_radical():
    req = cons.ConstructionRequest("column-family", {"q": 3, "m": 3, "r": 1, "ext": 2})
    M, _ = cons.build(req)
    assert (M.n, M.dim) == (6, 6)
    assert sp.rank_spectrum(M).ranks == (2,)
    rights = {fc.right_radical(f).key() for _, f in sp.enumerate_nonzero(M)}
    assert len(rights) == 1
    # the shared radical is the first L-slot vanishing: v_1 = v_2 = 0
    (key,) = rights
    assert key == ((0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    lefts = {fc.left_radical(f).key() for _, f in sp.enumerate_nonzero(M)}
    assert len(lefts) > 1


def test_column_family_parameter_check():
    with pytest.raises(ValueError):
        cons.bilinear_column_family(F3, 2, 3)


# --- dispatcher ----------------------------------------------------------------------


def test_build_unknown_name():
    with pytest.raises(ValueError, match="unknown construction"):
        cons.build(cons.ConstructionRequest("nope", {}))


def test_build_missing_parameter():
    with pytest.raises(ValueError, match="required"):
        cons.build(cons.ConstructionRequest("block-symmetric", {"q": 3, "n": 4}))


def test_declared_claims_match_reality(catalogue):
    for req, M, declared in catalogue:
        assert declared["dim"] == M.dim, req
        assert declared["kind"] == M.kind, req
        assert tuple(sorted(declared["spectrum"])) == sp.rank_spectrum(M).ranks, req
