"""Bilinear forms as Gram matrices, one form at a time: rank, radicals, evaluation.

A form f on V x V is stored as the n x n matrix of values f(e_i, e_j).
Vectors are sequences of element codes.  Forms and subspaces of V are
immutable.  Witness replay reads these; the per-form classification and
Witt census that the tests hold the batched path against live with the
other oracles in `tests/oracles.py`.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .gf import Field


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


class Subspace:
    """A subspace of V, held as a canonical reduced row-echelon basis.

    The constructor takes canonical RREF rows, as the null-space bases of
    `linalg` are.  Equal subspaces have identical representations, so
    `==` and hashing are structural.
    """

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: Field, n: int, rows):
        self.field = field
        self.n = n
        arr = np.asarray(rows, dtype=np.int64).reshape(-1, n)
        arr.setflags(write=False)
        self.rows = arr

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

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
# Rank, radicals, evaluation


def rank(f: GramForm) -> int:
    """Matrix rank of the Gram matrix; equals n minus either radical's dimension."""
    return linalg.rank(f.field, f.entries)


def left_radical(f: GramForm) -> Subspace:
    """{u : f(u, v) = 0 for all v}, i.e. the left null space of the Gram matrix."""
    return Subspace(f.field, f.n, linalg.left_null_space(f.field, f.entries))


def right_radical(f: GramForm) -> Subspace:
    """{v : f(u, v) = 0 for all u}."""
    return Subspace(f.field, f.n, linalg.right_null_space(f.field, f.entries))


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
