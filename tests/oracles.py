"""Per-form and per-vector oracles the tests hold the batched verify path against.

Nothing in `bilrank` calls these.  Each works one form, one vector, one
field element or one subspace of V at a time, in scalar field arithmetic
(`add`, `mul`, `neg`, `pow`), single-matrix `linalg.rref` or
`spanspace.kernel_at` (whose one system is built in scalar arithmetic
too), so none shares code with the stacked eliminations, line tables,
trace table and array field ops it checks; CI greps this file for their
names.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from bilrank import linalg
from bilrank.formcore import GramForm, Subspace, evaluate
from bilrank.spanspace import kernel_at

ALTERNATING = "alternating"
SYMMETRIC_NOT_ALTERNATING = "symmetric-not-alternating"
GENERAL = "general"


def zero_form(field, n: int) -> GramForm:
    return GramForm(field, np.zeros((n, n), dtype=np.int64))


def identity_form(field, n: int) -> GramForm:
    return GramForm(field, np.eye(n, dtype=np.int64))


def element(M, coeffs) -> GramForm:
    """The element sum c_k B_k of M over its basis B, entry by entry in scalar `add` and `mul`."""
    fld, n = M.field, M.n
    out = [[0] * n for _ in range(n)]
    for c, g in zip(coeffs, M.basis):
        rows = g.rows()
        out = [[fld.add(out[i][j], fld.mul(int(c), rows[i][j])) for j in range(n)] for i in range(n)]
    return GramForm(fld, out)


def is_square(field, x: int) -> bool:
    """x in {y^2 : y in F}, by squaring every element (0 counts as a square)."""
    return x in {field.mul(y, y) for y in range(field.q)}


def trace(tower, x: int) -> int:
    """Tr_{L/K}(x): the sum of x^(q^i) for i < t in scalar `pow` and `add`, read back as the base code it embeds from."""
    top, q = tower.top, tower.base.q
    total = 0
    for i in range(tower.t):
        total = top.add(total, top.pow(x, q**i))
    return next(a for a in range(q) if tower.embed(a) == total)


# ---------------------------------------------------------------------------
# Subspaces of V


def zero_subspace(field, n: int) -> Subspace:
    return Subspace(field, n, np.zeros((0, n), dtype=np.int64))


def subspace_from_rows(field, n: int, rows) -> Subspace:
    """The span of any rows, reduced to its canonical RREF basis."""
    arr = np.asarray(rows, dtype=np.int64).reshape(-1, n)
    return Subspace(field, n, linalg.rref(field, arr)[0] if len(arr) else arr)


def points(S: Subspace):
    """All q^dim points of S as a (q^dim, n) array, by ascending coefficient code (the zero vector first)."""
    fld, rows = S.field, S.rows.tolist()
    out = []
    for coeffs in itertools.product(range(fld.q), repeat=S.dim):
        v = [0] * S.n
        for c, row in zip(coeffs, rows):
            v = [fld.add(a, fld.mul(c, b)) for a, b in zip(v, row)]
        out.append(v)
    return np.array(out, dtype=np.int64).reshape(-1, S.n)


def contains(S: Subspace, vec) -> bool:
    return linalg.rank(S.field, np.vstack([S.rows, vec])) == S.dim


def meet_dim(a: Subspace, b: Subspace) -> int:
    """Dimension of the intersection of two subspaces of the same V."""
    return a.dim + b.dim - linalg.rank(a.field, np.vstack([a.rows, b.rows]))


# ---------------------------------------------------------------------------
# Kind, A_u and V(M)


def classify(f: GramForm) -> str:
    """One of 'alternating', 'symmetric-not-alternating', 'general', entry by entry.

    Alternating is decided by the matrix criterion (g_ij = -g_ji with a
    zero diagonal), which stays exact in characteristic 2 where the
    f(v, v) = 0 condition is strictly finer than symmetry.
    """
    g, n, neg = f.rows(), f.n, f.field.neg
    if all(g[i][j] == neg(g[j][i]) for i in range(n) for j in range(n)) and not any(g[i][i] for i in range(n)):
        return ALTERNATING
    if all(g[i][j] == g[j][i] for i in range(n) for j in range(n)):
        return SYMMETRIC_NOT_ALTERNATING
    return GENERAL


def brute_annihilator(M, u):
    """A_u = {w : f(u, w) = 0 for every basis form f} by formcore.evaluate over every w of V: a set of tuples."""
    basis = M.basis
    return {w for w in itertools.product(range(M.field.q), repeat=M.n) if all(evaluate(g, u, w) == 0 for g in basis)}


@dataclass(frozen=True)
class VSetReport:
    """Point set {v : M_v != 0} and whether it happens to be a subspace."""

    subspace_flag: bool
    points: tuple[tuple[int, ...], ...]
    subspace: Optional[Subspace]


def v_set(M, side: str) -> VSetReport:
    """V(M) = {v : dim M_v > 0} on the chosen side, by one `kernel_at` per vector of V, v = 0 included.

    The flag states the truth for this input; closure under addition is
    a theorem only under hypotheses, so it is never assumed.
    """
    vecs = itertools.product(range(M.field.q), repeat=M.n)
    pts = tuple(v for v in vecs if kernel_at(M, v, side).dim > 0)
    if not pts:
        return VSetReport(True, (), zero_subspace(M.field, M.n))
    spanned = subspace_from_rows(M.field, M.n, pts)
    flag = len(pts) == M.field.q**spanned.dim
    return VSetReport(flag, pts, spanned if flag else None)


# ---------------------------------------------------------------------------
# Witt index and isotropic counts for symmetric forms in odd characteristic


@dataclass(frozen=True)
class WittCensus:
    rank: int
    witt_index: int
    isotropic_nonzero_count: int


def _diagonalize_symmetric(field, gram) -> list[int]:
    """Diagonal of a congruent diagonal matrix (odd characteristic only)."""
    a = [list(map(int, row)) for row in gram]
    n = len(a)
    for i in range(n):
        if a[i][i] == 0:
            j = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if j is not None:
                a[i], a[j] = a[j], a[i]
                for row in a:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if j is None:
                    continue
                # e_i += e_j turns the (i,i) entry into 2*a[i][j] != 0
                for c in range(n):
                    a[i][c] = field.add(a[i][c], a[j][c])
                for r in range(n):
                    a[r][i] = field.add(a[r][i], a[r][j])
        d_inv = field.inv(a[i][i])
        for j in range(i + 1, n):
            if a[i][j]:
                fct = field.mul(a[i][j], d_inv)
                for c in range(n):
                    a[j][c] = field.sub(a[j][c], field.mul(fct, a[i][c]))
                for r in range(n):
                    a[r][j] = field.sub(a[r][j], field.mul(fct, a[r][i]))
    return [a[i][i] for i in range(n)]


def witt_census(f: GramForm) -> WittCensus:
    """Rank, Witt index and isotropic point count of a symmetric form.

    The Witt index is the number of hyperbolic planes in the
    non-degenerate part: for even rank 2k it is k when (-1)^k times the
    discriminant is a square and k-1 otherwise, for odd rank 2k+1 it is
    always k.  The isotropic count comes from the matching closed form
    over F_q and is itself checked against enumeration in the tests.
    One form at a time, by congruence diagonalisation in pure Python.
    """
    if f.field.p == 2:
        raise ValueError("witt_census requires odd characteristic")
    if classify(f) == GENERAL:
        raise ValueError("witt_census requires a symmetric form")
    fld = f.field
    nz = [d for d in _diagonalize_symmetric(fld, f.entries) if d]
    r = len(nz)
    if r % 2 == 1:
        w = (r - 1) // 2
    elif r == 0:
        w = 0
    else:
        k = r // 2
        disc = 1
        for d in nz:
            disc = fld.mul(disc, d)
        val = fld.mul(fld.pow(fld.neg(1), k), disc)
        w = k if is_square(fld, val) else k - 1
    q, n = fld.q, f.n
    if r == 0:
        total = q**n
    elif r % 2 == 1:
        total = q ** (n - 1)
    else:
        k = r // 2
        eta = 1 if w == k else -1
        total = (q ** (r - 1) + eta * (q**k - q ** (k - 1))) * q ** (n - r)
    return WittCensus(rank=r, witt_index=w, isotropic_nonzero_count=total - 1)
