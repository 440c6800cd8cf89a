"""Row reduction against a span-counting oracle.

The oracle computes rank as log_q of the row-span cardinality by
enumerating every linear combination — no elimination involved, so it
cannot share a bug with the code under test.
"""

import itertools

import numpy as np
import pytest
from oracles import contains, subspace_from_rows

from bilrank import linalg
from bilrank import spanspace as sp
from bilrank.formcore import Subspace
from bilrank.gf import field_for_order


def span_size_rank(field, mat) -> int:
    """Rank via |row span| = q^rank, enumerating all q^rows combinations."""
    rows = [list(map(int, r)) for r in np.asarray(mat)]
    ncols = len(rows[0]) if rows else 0
    span = set()
    combos = linalg.code_vectors(field.q, len(rows))
    for combo in combos:
        acc = [0] * ncols
        for c, row in zip(combo, rows):
            if c:
                acc = [field.add(a, field.mul(int(c), v)) for a, v in zip(acc, row)]
        span.add(tuple(acc))
    size = len(span)
    r = 0
    while field.q**r < size:
        r += 1
    assert field.q**r == size, "row span of a matrix must be a subspace"
    return r


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_rank_matches_span_counting_oracle(q):
    F = field_for_order(q)
    rng = np.random.default_rng(q)
    for _ in range(40):
        mat = rng.integers(0, q, size=(rng.integers(1, 5), rng.integers(1, 5)))
        assert linalg.rank(F, mat) == span_size_rank(F, mat)


def test_rref_is_canonical_and_idempotent():
    F = field_for_order(3)
    mat = [[0, 1, 0], [2, 0, 0], [2, 1, 0]]
    rows, piv = linalg.rref(F, mat)
    assert piv == [0, 1]
    assert rows.tolist() == [[1, 0, 0], [0, 1, 0]]
    again, piv2 = linalg.rref(F, rows)
    assert (again == rows).all() and piv2 == piv


def test_rref_leading_ones_and_cleared_columns():
    F = field_for_order(5)
    rng = np.random.default_rng(7)
    for _ in range(25):
        mat = rng.integers(0, 5, size=(4, 5))
        rows, piv = linalg.rref(F, mat)
        for i, p in enumerate(piv):
            assert rows[i, p] == 1
            col = rows[:, p]
            assert (col == np.eye(len(piv), dtype=np.int64)[:, i][: len(rows)]).all()


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_null_space_annihilates_and_has_complementary_dimension(q):
    F = field_for_order(q)
    rng = np.random.default_rng(q + 1)
    for _ in range(30):
        mat = rng.integers(0, q, size=(rng.integers(1, 5), rng.integers(1, 5)))
        ns = linalg.right_null_space(F, mat)
        assert len(ns) == mat.shape[1] - linalg.rank(F, mat)
        for vec in ns:
            out = F.matmul_arr(np.asarray(mat), vec[:, None])
            assert not out.any()
        lns = linalg.left_null_space(F, mat)
        for vec in lns:
            out = F.matmul_arr(vec[None, :], np.asarray(mat))
            assert not out.any()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_batch_rank_agrees_with_single_rank(q):
    F = field_for_order(q)
    rng = np.random.default_rng(q + 2)
    mats = rng.integers(0, q, size=(120, 4, 4))
    got = linalg.batch_rank(F, mats)
    for m, r in zip(mats, got):
        assert linalg.rank(F, m) == r


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25])
def test_batch_rref_matches_single_rref(q):
    F = field_for_order(q)
    rng = np.random.default_rng(q + 23)
    for nrows in range(6):
        for ncols in range(6):
            mats = rng.integers(0, q, size=(12, nrows, ncols))
            mats[0] = 0  # the zero matrix
            if nrows > 1 and ncols > 0:
                mats[1, 1] = mats[1, 0]  # a repeated row
                c = int(rng.integers(1, q)) if q > 2 else 1
                mats[2, -1] = [F.mul(c, int(v)) for v in mats[2, 0]]  # a scaled row
                mats[3] = [[F.mul(int(u), int(v)) for v in mats[3, 0]] for u in mats[3, :, 0]]  # rank at most 1
            red, ranks = linalg.batch_rref(F, mats)
            assert red.shape == mats.shape and ranks.shape == (12,)
            for m, r, rank in zip(mats, red, ranks):
                want = linalg.rref(F, m)[0]
                assert rank == len(want), (nrows, ncols)
                assert (r[:rank] == want).all(), (nrows, ncols)
                assert (r[rank:] == 0).all(), (nrows, ncols)


def test_batch_rank_rectangular_and_empty():
    F = field_for_order(3)
    rng = np.random.default_rng(3)
    mats = rng.integers(0, 3, size=(50, 2, 5))
    got = linalg.batch_rank(F, mats)
    for m, r in zip(mats, got):
        assert linalg.rank(F, m) == r
    assert linalg.batch_rank(F, np.zeros((0, 3, 3), dtype=np.int64)).shape == (0,)


def test_code_vectors_lexicographic_and_partitionable():
    vecs = linalg.code_vectors(3, 2)
    assert vecs.tolist() == [[a, b] for a in range(3) for b in range(3)]
    # blocks of listing indices concatenate to the full enumeration
    parts = [linalg.code_vectors(3, 2, np.arange(s, min(s + 4, 9))) for s in range(0, 9, 4)]
    assert np.vstack(parts).tolist() == vecs.tolist()
    assert linalg.code_vectors(3, 2, [7, 1]).tolist() == [vecs[7].tolist(), vecs[1].tolist()]


def test_subspace_contains():
    F = field_for_order(3)
    U = subspace_from_rows(F, 3, [[1, 0, 2], [0, 1, 1]])
    assert contains(U, [1, 1, 0])  # sum of the two rows
    assert not contains(U, [0, 0, 1])


def _is_canonical_rref(rows) -> bool:
    """Leading ones at increasing columns, each pivot column zero elsewhere."""
    pivots = [int(np.argmax(row != 0)) for row in rows]
    return (
        all(row.any() for row in rows)
        and pivots == sorted(set(pivots))
        and all(rows[i, p] == 1 and np.count_nonzero(rows[:, p]) == 1 for i, p in enumerate(pivots))
    )


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_batch_null_space_matches_brute_force(q):
    """Each basis `spanspace.null_spaces` gives spans exactly {x : mat x = 0}, found by trying all q^c vectors x."""
    F = field_for_order(q)
    rng = np.random.default_rng(q + 7)
    for nrows, ncols in itertools.product(range(5), range(1, 5)):
        mats = rng.integers(0, q, size=(12, nrows, ncols))
        mats[::4] = 0
        mats[1::4, nrows // 2:] = mats[1::4, :1]  # repeated rows: rank deficient
        found = sp.null_spaces(F, mats)
        assert len(found.ids) == 12
        xs = linalg.code_vectors(q, ncols)
        images = F.matmul_arr(mats, xs.T)  # (12, nrows, q^c)
        for b in range(len(mats)):
            null = {tuple(x) for x in xs[~images[b].any(axis=0)]}
            j = found.ids[b]
            space = Subspace(F, ncols, found.bases[j, :found.dims[j]])
            assert space.n == ncols
            spanned = {tuple(v) for v in F.matmul_arr(linalg.code_vectors(q, space.dim), space.rows)}
            assert spanned == null and len(null) == q**space.dim, (nrows, ncols, b)
            assert _is_canonical_rref(space.rows)


def leibniz_det(field, mat) -> int:
    """The determinant as a signed sum over all permutations: no elimination."""
    m = len(mat)
    total = 0
    for perm in itertools.permutations(range(m)):
        inversions = sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m))
        term = 1
        for i in range(m):
            term = field.mul(term, int(mat[i][perm[i]]))
        total = field.add(total, field.neg(term) if inversions % 2 else term)
    return total


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_batch_det_matches_leibniz(q):
    F = field_for_order(q)
    rng = np.random.default_rng(q + 11)
    for m in range(6):
        mats = rng.integers(0, q, size=(48, m, m))
        mats[::6, :, :1] = 0  # a zero column
        if m > 1:
            mats[1::6, 1] = mats[1::6, 0]  # a repeated row
            mats[2::6] = mats[2::6][:, ::-1]  # row swaps on the way
        if m > 2:
            mats[3::6, :, 2] = F.add_arr(mats[3::6, :, 0], mats[3::6, :, 1])  # no pivot in a middle column
        upper = np.triu(mats[4::6], 1)
        upper[:, np.arange(m), np.arange(m)] = rng.integers(1, q, size=(len(upper), m))
        mats[4::6] = upper[:, ::-1]  # invertible, and a swap in nearly every column
        for i in range(5, 48, 6):  # ranks 0 to m across the stack
            r = i % (m + 1)
            mats[i] = F.matmul_arr(rng.integers(0, q, size=(m, r)), rng.integers(0, q, size=(r, m)))
        if m:
            assert len(set(linalg.batch_rank(F, mats).tolist())) > 1
        got = linalg.batch_det(F, mats)
        assert got.shape == (48,)
        assert got.tolist() == [leibniz_det(F, a) for a in mats], m
    assert linalg.batch_det(F, np.zeros((0, 3, 3), dtype=np.int64)).shape == (0,)
    with pytest.raises(ValueError):
        linalg.batch_det(F, np.zeros((2, 2, 3), dtype=np.int64))
