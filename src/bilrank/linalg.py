"""Exact row reduction over a finite field.

Single matrices go through plain-Python reduced row echelon form; the
enumeration hot paths use `batch_rank`, which runs one Gaussian
elimination across a whole stack of matrices at once with vectorised
table lookups.  Echelon output is canonical (leading ones, cleared
pivot columns, zero rows dropped) so equal row spaces have equal
representations.
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
    a = [list(map(int, row)) for row in arr]
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


def reduce_vector(field, rows, pivots, vec):
    """Residual of `vec` after elimination against canonical RREF rows."""
    v = [int(x) for x in vec]
    for i, p in enumerate(pivots):
        if v[p]:
            f = v[p]
            row = rows[i]
            for j in range(p, len(v)):
                if row[j]:
                    v[j] = field.sub(v[j], field.mul(f, int(row[j])))
    return v


def in_row_span(field, rows, pivots, vec) -> bool:
    return not any(reduce_vector(field, rows, pivots, vec))


def batch_rank(field, mats):
    """Ranks of a stack of matrices, shape (B, rows, cols) -> (B,).

    One elimination sweep is shared by the whole batch; per-matrix pivot
    choices are handled with masks, so the cost is O(cols) vectorised
    passes regardless of batch size.
    """
    m = np.array(mats, dtype=np.int64, copy=True)
    if m.ndim != 3:
        raise ValueError("expected a (batch, rows, cols) stack")
    nb, nrows, ncols = m.shape
    if nb == 0 or nrows == 0 or ncols == 0:
        return np.zeros(nb, dtype=np.int64)
    row = np.zeros(nb, dtype=np.int64)
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
        tmp = m[b, r0, :].copy()
        m[b, r0, :] = m[b, p0, :]
        m[b, p0, :] = tmp
        inv = field._inv_np[m[b, r0, c]]
        piv_rows = field.mul_arr(inv[:, None], m[b, r0, :])
        m[b, r0, :] = piv_rows
        factors = m[b, :, c]
        delta = field.mul_arr(factors[:, :, None], piv_rows[:, None, :])
        cleared = field.sub_arr(m[b], delta)
        cleared[np.arange(len(b)), r0, :] = piv_rows
        m[b] = cleared
        row[b] += 1
        if (row == nrows).all():
            break
    return row


def code_vectors(q: int, n: int, start: int = 0, stop: int | None = None):
    """Rows start..stop of the lexicographic listing of all q^n code vectors.

    Index i maps to the base-q digits of i, most significant digit first,
    so ascending indices give ascending tuples.
    """
    total = q**n
    if stop is None:
        stop = total
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((len(idx), n), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        out[:, j] = idx % q
        idx //= q
    return out


def code_index(q: int, vecs):
    """Inverse of `code_vectors`: the listing index of each row of a (B, n) array."""
    vecs = np.asarray(vecs, dtype=np.int64)
    return vecs @ (q ** np.arange(vecs.shape[1] - 1, -1, -1, dtype=np.int64))
