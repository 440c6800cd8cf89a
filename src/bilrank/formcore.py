"""Bilinear forms as Gram matrices: rank, radicals, classification, Witt data.

A form f on V x V is stored as the n x n matrix of values f(e_i, e_j).
Vectors are sequences of element codes.  Everything here is immutable
and pure, so forms can be shared freely across enumeration workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .gf import Field

ALTERNATING = "alternating"
SYMMETRIC_NOT_ALTERNATING = "symmetric-not-alternating"
GENERAL = "general"


def _code_array(field: Field, entries):
    """A fresh int64 array of entries, each an element code in [0, q): the one rule for forms and stacks.

    Only integers are codes: float, bool and object entries (an integer past int64) are refused, not truncated.
    """
    arr = np.array(entries)
    if not arr.size or (arr.dtype.kind in "iu" and arr.min() >= 0 and arr.max() < field.q):  # empty: any type
        return arr.astype(np.int64, copy=False)
    raise ValueError("entries must be element codes in [0, q)")


class GramForm:
    """A bilinear form given by its Gram matrix of element codes."""

    __slots__ = ("field", "n", "entries")

    def __init__(self, field: Field, entries):
        arr = _code_array(field, entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {arr.shape}")
        arr.setflags(write=False)
        self.field = field
        self.n = arr.shape[0]
        self.entries = arr

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(int(v) for v in row) for row in self.entries)

    def flat(self):
        """Row-major length n^2 vector of codes."""
        return self.entries.reshape(-1)

    def __eq__(self, other):
        return (
            isinstance(other, GramForm)
            and self.field == other.field
            and self.n == other.n
            and bool((self.entries == other.entries).all())
        )

    def __hash__(self):
        return hash((self.field, self.rows()))

    def __repr__(self):
        return f"GramForm(GF({self.field.q}), {self.rows()})"


def zero_form(field: Field, n: int) -> GramForm:
    return GramForm(field, np.zeros((n, n), dtype=np.int64))


def identity_form(field: Field, n: int) -> GramForm:
    return GramForm(field, np.eye(n, dtype=np.int64))


class Subspace:
    """A subspace of V, held as a canonical reduced row-echelon basis.

    The constructor takes canonical RREF rows; `from_rows` reduces any rows first.
    Equal subspaces have identical representations, so `==` and hashing
    are structural.
    """

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: Field, n: int, rows):
        self.field = field
        self.n = n
        arr = np.asarray(rows, dtype=np.int64).reshape(-1, n)
        arr.setflags(write=False)
        self.rows = arr

    @classmethod
    def from_rows(cls, field: Field, n: int, rows) -> "Subspace":
        arr = np.asarray(rows, dtype=np.int64).reshape(-1, n)
        return cls(field, n, linalg.rref(field, arr)[0] if len(arr) else arr)

    @classmethod
    def zero(cls, field: Field, n: int) -> "Subspace":
        return cls(field, n, np.zeros((0, n), dtype=np.int64))

    @classmethod
    def full(cls, field: Field, n: int) -> "Subspace":
        return cls(field, n, np.eye(n, dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def contains(self, vec) -> bool:
        return linalg.rank(self.field, np.vstack([self.rows, vec])) == self.dim

    def points(self):
        """All q^dim points as a (q^dim, n) array (the zero vector included)."""
        return self.field.matmul_arr(linalg.code_vectors(self.field.q, self.dim), self.rows)

    def meet_dim(self, other: "Subspace") -> int:
        """Dimension of the intersection with another subspace of the same V."""
        stacked = np.vstack([self.rows, other.rows])
        return self.dim + other.dim - linalg.rank(self.field, stacked)

    def key(self):
        return tuple(tuple(int(v) for v in row) for row in self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.n == other.n
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((self.field, self.n, self.key()))

    def __repr__(self):
        return f"Subspace(GF({self.field.q}), n={self.n}, dim={self.dim})"


# ---------------------------------------------------------------------------
# Rank, radicals, classification


def rank(f: GramForm) -> int:
    """Matrix rank of the Gram matrix; equals n minus either radical's dimension."""
    return linalg.rank(f.field, f.entries)


def left_radical(f: GramForm) -> Subspace:
    """{u : f(u, v) = 0 for all v}, i.e. the left null space of the Gram matrix."""
    return Subspace(f.field, f.n, linalg.left_null_space(f.field, f.entries))


def right_radical(f: GramForm) -> Subspace:
    """{v : f(u, v) = 0 for all u}."""
    return Subspace(f.field, f.n, linalg.right_null_space(f.field, f.entries))


def classify(f: GramForm) -> str:
    """One of 'alternating', 'symmetric-not-alternating', 'general'.

    Alternating is decided by the matrix criterion (skew-symmetric with
    zero diagonal), which stays exact in characteristic 2 where the
    f(v,v) = 0 condition is strictly finer than symmetry.
    """
    g = f.entries
    neg_t = f.field.neg_arr(g.T)
    if (g == neg_t).all() and not g.diagonal().any():
        return ALTERNATING
    if (g == g.T).all():
        return SYMMETRIC_NOT_ALTERNATING
    return GENERAL


def evaluate(f: GramForm, u, w) -> int:
    """f(u, w) = u^T G w for coordinate vectors of codes."""
    if len(u) != f.n or len(w) != f.n:
        raise ValueError(f"vector length must be {f.n}")
    fld = f.field
    acc = 0
    for i, ui in enumerate(u):
        if not ui:
            continue
        row = f.entries[i]
        s = 0
        for j, wj in enumerate(w):
            if wj and row[j]:
                s = fld.add(s, fld.mul(int(row[j]), int(wj)))
        acc = fld.add(acc, fld.mul(int(ui), s))
    return acc


# ---------------------------------------------------------------------------
# Witt index and isotropic counts for symmetric forms in odd characteristic


@dataclass(frozen=True)
class WittCensus:
    rank: int
    witt_index: int
    isotropic_nonzero_count: int


def _diagonalize_symmetric(field: Field, gram) -> list[int]:
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
    over F_q and is cross-checked against brute-force enumeration in the
    test suite rather than trusted blindly.

    One form at a time, in pure Python: this is the oracle the tests hold
    the verify path's bulk census (every line of M at once, with
    determinants read off the pivots of `linalg.batch_rref`'s sweep)
    against, and `bilrank verify` does not call it.
    """
    if f.field.p == 2:
        raise ValueError("witt_census requires odd characteristic")
    if classify(f) == GENERAL:
        raise ValueError("witt_census requires a symmetric form")
    fld = f.field
    diag = _diagonalize_symmetric(fld, f.entries)
    nz = [d for d in diag if d]
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
        w = k if fld.is_square(val) else k - 1
    q = fld.q
    n = f.n
    if r == 0:
        total = q**n
    elif r % 2 == 1:
        total = q ** (n - 1)
    else:
        k = r // 2
        eta = 1 if w == k else -1
        total = (q ** (r - 1) + eta * (q**k - q ** (k - 1))) * q ** (n - r)
    return WittCensus(rank=r, witt_index=w, isotropic_nonzero_count=total - 1)
