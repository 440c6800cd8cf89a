"""Exact row reduction over a finite field.

Single matrices go through plain-Python reduced row echelon form; the
enumeration hot paths use `batch_rref` (one Gauss-Jordan elimination
across a whole stack, with vectorised table lookups).  Null spaces take
two steps: `null_vectors` reads spanning vectors off a stack that
`batch_rref` has already reduced, so a caller that kept a reduced stack
does not eliminate it again, and the vectors are equal exactly when the
null spaces are, so a caller can drop repeats before the second
`batch_rref` makes them canonical.  Echelon output is canonical
(leading ones, cleared pivot columns, zero rows dropped or, in a stack,
last) so equal row spaces have equal representations.
`batch_rref`'s sweep is the only batched elimination: `batch_det` reads
determinants off the pivots it took and the row swaps it made.
"""

from __future__ import annotations

import numpy as np


def rref(field, mat):
    """Canonical reduced row echelon form.

    Returns (rows, pivots) where `rows` is a (rank, cols) array without
    zero rows and `pivots` lists the pivot column of each row.
    """
    arr = np.asarray(mat, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    nrows, ncols = arr.shape
    a = arr.tolist()
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = field.inv(a[r][c])
        if inv != 1:
            a[r] = [field.mul(inv, v) for v in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                ai, ar = a[i], a[r]
                for j in range(c, ncols):
                    if ar[j]:
                        ai[j] = field.sub(ai[j], field.mul(f, ar[j]))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return np.array(a[:r], dtype=np.int64).reshape(r, ncols), pivots


def rank(field, mat) -> int:
    return len(rref(field, mat)[1])


def right_null_space(field, mat):
    """Canonical basis (RREF rows) of {x : mat @ x = 0}."""
    arr = np.asarray(mat, dtype=np.int64)
    ncols = arr.shape[1]
    rows, pivots = rref(field, arr)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for i, p in enumerate(pivots):
            vec[p] = field.neg(int(rows[i][f]))
        basis.append(vec)
    if not basis:
        return np.zeros((0, ncols), dtype=np.int64)
    return rref(field, np.array(basis, dtype=np.int64))[0]


def left_null_space(field, mat):
    """Canonical basis of {x : x @ mat = 0}."""
    return right_null_space(field, np.asarray(mat, dtype=np.int64).T)


def _gauss_jordan(field, mats):
    """`batch_rref`'s sweep, with a log of its pivots and row swaps.

    One entry (b, pivots, moved) per column in which any matrix took a
    pivot: the indices b of those matrices, their pivots after the swap
    and before scaling, and whether the swap moved a row.
    """
    m = np.array(mats, dtype=np.int64, copy=True)
    if m.ndim != 3:
        raise ValueError("expected a (batch, rows, cols) stack")
    nb, nrows, ncols = m.shape
    row = np.zeros(nb, dtype=np.int64)
    log = []
    if nb == 0 or nrows == 0 or ncols == 0:
        return m, row, log
    rows_idx = np.arange(nrows)
    for c in range(ncols):
        colv = m[:, :, c]
        eligible = (rows_idx[None, :] >= row[:, None]) & (colv != 0)
        has = eligible.any(axis=1)
        if not has.any():
            continue
        b = np.nonzero(has)[0]
        r0 = row[b]
        p0 = eligible.argmax(axis=1)[b]
        m[b, r0, :], m[b, p0, :] = m[b, p0, :], m[b, r0, :]
        piv = m[b, r0, c]
        log.append((b, piv, p0 != r0))
        piv_rows = field.mul_arr(field._inv_np[piv][:, None], m[b, r0, :])
        m[b, r0, :] = piv_rows
        factors = m[b, :, c]
        delta = field.mul_arr(factors[:, :, None], piv_rows[:, None, :])
        cleared = field.sub_arr(m[b], delta)
        cleared[np.arange(len(b)), r0, :] = piv_rows
        m[b] = cleared
        row[b] += 1
        if (row == nrows).all():
            break
    return m, row, log


def batch_rref(field, mats):
    """Canonical RREF of each matrix of a stack (B, rows, cols), zero rows last, and the ranks (B,).

    One elimination sweep is shared by the whole batch; per-matrix pivot
    choices are handled with masks, so the cost is O(cols) vectorised
    passes regardless of batch size.
    """
    return _gauss_jordan(field, mats)[:2]


def batch_rank(field, mats):
    """Ranks of a stack of matrices, shape (B, rows, cols) -> (B,)."""
    return batch_rref(field, mats)[1]


def batch_det(field, mats):
    """Determinants of a stack of square matrices, shape (B, m, m) -> (B,).

    Read off `batch_rref`'s sweep, whose clearing keeps the determinant:
    the product of the pivots before scaling, each negated where its swap
    moved a row, and 0 where the rank is below m.
    """
    a = np.asarray(mats, dtype=np.int64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a (batch, m, m) stack")
    _, ranks, log = _gauss_jordan(field, a)
    det = np.ones(len(a), dtype=np.int64)
    for b, piv, moved in log:
        det[b] = field.mul_arr(det[b], np.where(moved, field.neg_arr(piv), piv))
    return np.where(ranks == a.shape[1], det, 0)


def null_vectors(field, red, ranks):
    """Spanning vectors of the right null spaces of a stack, read off its `batch_rref` (red, ranks).

    Returns a (B, cols, cols) stack.  With R the reduced form and p_i its
    pivot columns, row f is e_f - sum_i R[i, f] e_{p_i} for each free
    column f, and zero for each pivot column.  R depends only on the row
    space, which is the null space's orthogonal complement, so equal null
    spaces give equal stacks: the vectors are an exact key for
    deduplication before the `batch_rref` that makes them canonical.
    """
    nb, nrows, ncols = red.shape
    if ncols == 0:
        return np.zeros((nb, 0, 0), dtype=np.int64)
    b, i = np.nonzero(np.arange(nrows)[None, :] < ranks[:, None])
    piv = np.argmax(red[b, i] != 0, axis=1)
    vecs = np.zeros((nb, ncols, ncols), dtype=np.int64)
    vecs[b, :, piv] = field.neg_arr(red[b, i])  # row f, column p_i: -R[i, f]
    free = np.ones((nb, ncols), dtype=bool)
    free[b, piv] = False
    vecs[~free] = 0  # a pivot column gives no vector
    vecs[:, np.arange(ncols), np.arange(ncols)] = free
    return vecs


def code_vectors(q: int, n: int, idx=None):
    """The code vectors at the given listing indices, or all q^n of them: an (len(idx), n) array.

    Index i maps to the base-q digits of i, most significant digit first,
    so ascending indices give ascending tuples.  Walks list the vectors
    they need directly: `spanspace.line_representatives` gives the
    indices of one vector per line.
    """
    idx = np.arange(q**n, dtype=np.int64) if idx is None else np.array(idx, dtype=np.int64)
    out = np.empty((len(idx), n), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        out[:, j] = idx % q
        idx //= q
    return out


def code_index(q: int, vecs):
    """Inverse of `code_vectors`: the listing index of each row of a (B, n) array."""
    vecs = np.asarray(vecs, dtype=np.int64)
    return vecs @ (q ** np.arange(vecs.shape[1] - 1, -1, -1, dtype=np.int64))
