"""Subspaces M of Bil(V): bases, enumeration, rank spectra, derived objects.

This is the one module that walks the elements of M.  `scan_blocks` is
that walk: it lists the q^d - 1 nonzero coefficient vectors in a fixed
lexicographic order (index i -> base-q digits of i, most significant
first) and yields them in blocks together with their flattened forms,
so runs are reproducible and blocks are vectorised.  In `projective`
mode it keeps only the vectors whose leading nonzero entry is 1, one
representative per scalar line, which is exhaustive for anything that
depends only on ranks or radicals.

M is walked once.  Rank, radicals and Witt index are constant on the
scalar lines of M^x, so `line_table` keeps the lead-1 coefficients and
the rank of every line (one projective walk, one `batch_rank` per
block) on M, and everything else reads it: `rank_spectrum` counts its
ranks q - 1 times each, `lines` adds both radicals of every line, and
the checkers take the spectrum witness and the Witt census from it.

V is treated the same way.  M_{cu} = M_u, so `kernel_dims_all` solves
dim M_u only at the lead-1 representative of each line of V
(`line_representatives`), spreads it over the line and keeps the array
on M, one per side, for every checker that reads it.

Null spaces are solved in bulk: `kernel_matrices` builds the systems
of M_u for a stack of vectors u, and `null_spaces` solves any stack
(radicals, M_u, A_u) in blocks.  The `linalg.null_vectors` of a block
are equal exactly when the null spaces are, so only its distinct null
spaces get the final `batch_rref`.  It keeps each distinct null space
once and an id per matrix, so the radical census, the radical spread,
the orthogonality checker and the kernel-bound incidence
`max_rank_incidence` work on id arrays and test each distinct radical
once; `partition_status` takes the points of all the spaces of one
dimension from one stacked product.

Operations that walk q^d or q^n objects take an explicit step budget
and raise BudgetExceeded instead of silently sampling: a theorem check
is either exhaustive or it did not run.  One step is one enumerated
object times one Gram-matrix cell (n^2 cells per form).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import linalg
from .formcore import ALTERNATING, GramForm, Subspace, classify
from .gf import Field

DEFAULT_BUDGET = 10**8

KIND_GENERAL = "general"
KIND_SYMMETRIC = "symmetric"
KIND_ALTERNATING = "alternating"
KINDS = (KIND_GENERAL, KIND_SYMMETRIC, KIND_ALTERNATING)

_BLOCK = 1 << 10  # rows per block; an elimination's temporaries are a few times its block


class BudgetExceeded(RuntimeError):
    """Raised when an exhaustive operation would overrun its step budget."""


def charge(items: int, cell_cost: int, budget: Optional[int], what: str) -> None:
    limit = DEFAULT_BUDGET if budget is None else budget
    steps = items * max(cell_cost, 1)
    if steps > limit:
        raise BudgetExceeded(f"{what} needs {steps} steps, budget is {limit}")


def _kind_of_basis(forms) -> str:
    if all(classify(f) == ALTERNATING for f in forms):
        return KIND_ALTERNATING
    if all((f.entries == f.entries.T).all() for f in forms):
        return KIND_SYMMETRIC
    return KIND_GENERAL


class FormSubspace:
    """A subspace of Bil(V) given by a linearly independent basis of forms."""

    __slots__ = ("field", "n", "basis", "kind", "_flat", "_table", "_lines", "_kernel_dims")

    def __init__(self, field: Field, n: int, basis):
        basis = tuple(basis)
        for i, f in enumerate(basis):
            if not isinstance(f, GramForm):
                raise ValueError(f"basis entry {i} is not a GramForm")
            if f.field != field or f.n != n:
                raise ValueError(f"basis entry {i} lives on a different space")
        flat = np.stack([f.flat() for f in basis]) if basis else np.zeros((0, n * n), dtype=np.int64)
        if basis and linalg.rank(field, flat) < len(basis):
            # only now look for the first dependent row, to name it in diagnostics
            i = next(i for i in range(len(basis)) if linalg.rank(field, flat[: i + 1]) <= i)
            raise ValueError(f"basis row {i} is dependent on earlier rows")
        self.field = field
        self.n = n
        self.basis = basis
        self.kind = _kind_of_basis(basis)
        self._flat = flat
        self._table = None  # filled by the first line_table call
        self._lines = None  # filled by the first lines call
        self._kernel_dims = {}  # side -> dims, filled by the first kernel_dims_all call on that side

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def symmetric(self) -> bool:
        """M <= Symm(V).  Alternating forms are symmetric only in characteristic 2."""
        if self.kind == KIND_ALTERNATING:
            return self.field.p == 2 or not self.basis
        return self.kind == KIND_SYMMETRIC

    def basis_flat(self):
        """Basis forms flattened row-major to a (dim, n^2) array."""
        return self._flat

    def canonical_rows(self):
        """RREF of the flattened basis: the canonical representation of M."""
        return linalg.rref(self.field, self._flat)[0] if self.dim else self._flat

    def key(self):
        return tuple(tuple(int(v) for v in row) for row in self.canonical_rows())

    def canonical(self) -> "FormSubspace":
        return span(self.basis, self.field, self.n)

    def form_from_coefficients(self, coeffs) -> GramForm:
        if len(coeffs) != self.dim:
            raise ValueError(f"expected {self.dim} coefficients")
        return GramForm(self.field, flat_forms_for(self, [coeffs])[0].reshape(self.n, self.n))

    def subspace_from_coefficients(self, rows) -> "FormSubspace":
        """The subspace of M whose basis has the given independent coefficient rows."""
        flats = flat_forms_for(self, np.asarray(rows, dtype=np.int64).reshape(len(rows), self.dim))
        return FormSubspace(self.field, self.n, [GramForm(self.field, r.reshape(self.n, self.n)) for r in flats])

    def contains_form(self, f: GramForm) -> bool:
        return linalg.rank(self.field, np.vstack([self._flat, f.flat()])) == self.dim

    def __eq__(self, other):
        return (
            isinstance(other, FormSubspace)
            and self.field == other.field
            and self.n == other.n
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((self.field, self.n, self.key()))

    def __repr__(self):
        return (
            f"FormSubspace(GF({self.field.q}), n={self.n}, dim={self.dim}, "
            f"kind={self.kind})"
        )


def span(forms, field: Optional[Field] = None, n: Optional[int] = None) -> FormSubspace:
    """Subspace spanned by arbitrary forms, with a canonical reduced basis."""
    forms = list(forms)
    if forms:
        field = forms[0].field
        n = forms[0].n
        for f in forms[1:]:
            if f.field != field or f.n != n:
                raise ValueError("cannot span forms over mixed fields or dimensions")
    elif field is None or n is None:
        raise ValueError("spanning an empty set needs an explicit field and dimension")
    flat = np.stack([f.flat() for f in forms]) if forms else np.zeros((0, n * n), dtype=np.int64)
    rows = linalg.rref(field, flat)[0] if len(flat) else flat
    return FormSubspace(field, n, [GramForm(field, r.reshape(n, n)) for r in rows])


# ---------------------------------------------------------------------------
# Enumeration


def flat_forms_for(M: FormSubspace, coeffs):
    """Flattened forms for a block of coefficient vectors: (B, n^2)."""
    return M.field.matmul_arr(coeffs, M._flat)


def scan_blocks(M: FormSubspace, budget: Optional[int] = None, projective=False, what="scan"):
    """Yield (coeffs, flats) blocks over the nonzero elements of M: the one walk.

    With projective=True only coefficient vectors whose leading nonzero
    entry is 1 are kept: one representative per scalar line, enough for
    anything that only depends on radicals or ranks.
    """
    q, d = M.field.q, M.dim
    charge(q**d, M.n * M.n, budget, what)
    for start in range(1, q**d, _BLOCK):
        coeffs = linalg.code_vectors(q, d, start, min(start + _BLOCK, q**d))
        if projective:
            lead = coeffs[np.arange(len(coeffs)), np.argmax(coeffs != 0, axis=1)]
            coeffs = coeffs[lead == 1]
            if not len(coeffs):
                continue
        yield coeffs, flat_forms_for(M, coeffs)


def enumerate_nonzero(
    M: FormSubspace, budget: Optional[int] = None
) -> Iterator[tuple[tuple[int, ...], GramForm]]:
    """Yield every (coefficients, form) pair for the q^d - 1 nonzero elements.

    Order is lexicographic in the coefficient codes and identical from
    run to run.
    """
    for coeffs, flats in scan_blocks(M, budget, what="enumerate_nonzero"):
        for row_c, row_f in zip(coeffs, flats):
            yield tuple(int(c) for c in row_c), GramForm(M.field, row_f.reshape(M.n, M.n))


@dataclass(frozen=True)
class RankSpectrum:
    """Distinct positive ranks over M^x, ascending, with per-rank counts."""

    ranks: tuple[int, ...]
    counts: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        """Largest rank; 0 for the zero subspace."""
        return self.ranks[-1] if self.ranks else 0

    @property
    def r(self) -> int:
        return len(self.ranks)

    @property
    def is_constant_rank(self) -> bool:
        return self.r == 1

    def count(self, rnk: int) -> int:
        return dict(self.counts).get(rnk, 0)


def line_table(M: FormSubspace, budget: Optional[int], what: str):
    """(coeffs, ranks) of the scalar lines of M^x, in projective `scan_blocks` order.

    `coeffs` is the (L, d) array of lead-1 coefficient vectors and `ranks`
    the (L,) array of their ranks, L = (q^d - 1)/(q - 1).  The budget is
    charged under `what` on every call; the walk runs on the first one
    only, and later calls return the table stored on M.
    """
    charge(M.field.q**M.dim, M.n * M.n, budget, what)
    if M._table is None:
        coeffs, ranks = [np.zeros((0, M.dim), dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for block, flats in scan_blocks(M, budget, projective=True, what=what):
            coeffs.append(block)
            ranks.append(linalg.batch_rank(M.field, flats.reshape(-1, M.n, M.n)))
        M._table = (np.concatenate(coeffs), np.concatenate(ranks))
    return M._table


def rank_spectrum(M: FormSubspace, budget: Optional[int] = None) -> RankSpectrum:
    """Exact rank spectrum of M: each scalar line holds q - 1 elements of its rank."""
    q, d, n = M.field.q, M.dim, M.n
    if d == 0:
        return RankSpectrum((), ())
    counts = np.bincount(line_table(M, budget, "rank_spectrum")[1], minlength=n + 1) * (q - 1)
    present = [r for r in range(1, n + 1) if counts[r]]
    return RankSpectrum(tuple(present), tuple((r, int(counts[r])) for r in present))


def lines(M: FormSubspace, budget: Optional[int] = None):
    """(coeffs, ranks, left, right): the rows of `line_table` and the `NullSpaces` of their radicals.

    The budget is charged on every call; the radicals are computed on the
    first one only, and later calls return the tuple stored on M.
    """
    coeffs, ranks = line_table(M, budget, "radical census")
    if M._lines is None:
        grams = flat_forms_for(M, coeffs).reshape(-1, M.n, M.n)
        # rad_L G is the null space of G^T, rad_R G that of G
        M._lines = (coeffs, ranks, *(null_spaces(M.field, g) for g in (grams.transpose(0, 2, 1), grams)))
    return M._lines


class NullSpaces(NamedTuple):
    """The right null spaces of a stack of matrices, each distinct one held once.

    `spaces` are the distinct null spaces in order of first appearance,
    `ids[i]` indexes the null space of matrix i and `first[j]` is the
    first matrix whose null space is `spaces[j]`.
    """

    spaces: tuple[Subspace, ...]
    ids: np.ndarray
    first: np.ndarray


def null_spaces(field: Field, mats) -> NullSpaces:
    """The right null spaces of a stack, in blocks of _BLOCK matrices.

    Each block's `linalg.null_vectors` are equal exactly when the null
    spaces are, so one `np.unique` over their bytes finds the block's
    distinct spaces, a dict on those bytes joins blocks, and only the
    spaces not seen before are reduced by the second `batch_rref`.
    """
    cols = mats.shape[2]
    index: dict[bytes, int] = {}
    spaces, first, ids = [], [], np.empty(len(mats), dtype=np.int64)
    for start in range(0, len(mats), _BLOCK):
        vecs = linalg.null_vectors(field, mats[start:start + _BLOCK])
        flat = vecs.reshape(len(vecs), -1)  # a view: vecs is a fresh contiguous stack
        keys = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).reshape(len(vecs))
        _, at, inverse = np.unique(keys, return_index=True, return_inverse=True)
        # the block's distinct spaces not seen before, in order of first appearance
        new = [a for a in np.sort(at) if keys[a].tobytes() not in index]
        bases, dims = linalg.batch_rref(field, vecs[new])
        for a, basis, dim in zip(new, bases, dims):
            index[keys[a].tobytes()] = len(spaces)
            spaces.append(Subspace(field, cols, basis[:dim]))
            first.append(start + a)
        ids[start:start + len(vecs)] = np.array([index[keys[a].tobytes()] for a in at], dtype=np.int64)[inverse]
    return NullSpaces(tuple(spaces), ids, np.array(first, dtype=np.int64))


# ---------------------------------------------------------------------------
# Kernels M_u, the sets V(M), I(M), A_u, and radical spreads


def kernel_matrices(M: FormSubspace, vecs, side: str):
    """(B, n, d) stack whose right null spaces are the coefficient spaces of M_u, u a row of vecs.

    Column k of the matrix for u is u^T G_k (left side) or G_k u (right side).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    fld, n = M.field, M.n
    stack = M._flat.reshape(-1, n, n)  # (d, n, n)
    vecs = np.asarray(vecs, dtype=np.int64).reshape(-1, n)
    if side == "left":
        mats = fld.matmul_arr(vecs[:, None, None, :], stack[None, :, :, :])[:, :, 0, :]
    else:
        mats = fld.matmul_arr(stack[None, :, :, :], vecs[:, None, :, None])[:, :, :, 0]
    return mats.transpose(0, 2, 1)


def kernel_at(M: FormSubspace, u, side: str = "left") -> FormSubspace:
    """M_u: the forms of M whose chosen radical contains u, solved for one u."""
    return M.subspace_from_coefficients(linalg.right_null_space(M.field, kernel_matrices(M, [u], side)[0]))


def line_representatives(q: int, n: int):
    """(q^n,) mask over the vectors of V in code order: True where the leading nonzero entry is 1.

    These are one representative per line of V, and the zero vector is
    not one.  With its lead at position n - 1 - k, such a vector has code
    q^k + t for some t < q^k.
    """
    mask = np.zeros(q**n, dtype=bool)
    for k in range(n):
        mask[q**k:2 * q**k] = True
    return mask


def kernel_dims_all(M: FormSubspace, side: str, budget: Optional[int] = None):
    """dim M_u for every u in V, ordered by vector index: a read-only (q^n,) array.

    M_{cu} = M_u, so only the representative of each line is solved and
    every other u reads its line's value.  The budget is charged on every
    call; the solve runs on the first call per side only, and later calls
    return the array stored on M.
    """
    fld, q, n, d = M.field, M.field.q, M.n, M.dim
    charge(q**n, d * n, budget, "kernel_dims_all")
    if side not in M._kernel_dims:
        vecs = linalg.code_vectors(q, n)
        reps = np.flatnonzero(line_representatives(q, n))
        out = np.empty(q**n, dtype=np.int64)
        out[0] = d
        for start in range(0, len(reps), _BLOCK):
            at = reps[start:start + _BLOCK]
            out[at] = d - linalg.batch_rank(fld, kernel_matrices(M, vecs[at], side))
        # u = c v for v its line's representative, c its leading entry (u = 0 maps to itself)
        lead = vecs[np.arange(q**n), np.argmax(vecs != 0, axis=1)]
        out = out[linalg.code_index(q, fld.mul_arr(fld._inv_np[lead][:, None], vecs))]
        out.setflags(write=False)
        M._kernel_dims[side] = out
    return M._kernel_dims[side]


def max_rank_incidence(M: FormSubspace, side: str, budget: Optional[int] = None):
    """Which M_u hold an element of the maximal rank m, and is its radical shared?

    Returns two (q^n,) boolean arrays ordered by vector index: whether
    M_u holds a rank-m element, and whether all rank-m elements of M_u
    have the same radical on the other side (vacuously true when there
    are none).  M_u = {f in M : u in rad f} on the chosen side, so both
    are incidences between V and the radicals of the rank-m lines.
    """
    fld, q, n = M.field, M.field.q, M.n
    _, ranks, left, right = lines(M, budget)
    own, other = (left, right) if side == "left" else (right, left)
    m = int(ranks.max(initial=0))
    top = ranks == m
    # least and greatest other-side radical id over the rank-m lines of each own-side radical
    lo = np.full(len(own.spaces), len(other.spaces), dtype=np.int64)
    hi = np.full(len(own.spaces), -1, dtype=np.int64)
    np.minimum.at(lo, own.ids[top], other.ids[top])
    np.maximum.at(hi, own.ids[top], other.ids[top])
    # spread them over the points of those radicals, all of dim k = n - m, in blocks of points
    rads, k = np.flatnonzero(hi >= 0), n - m
    at_lo = np.full(q**n, len(other.spaces), dtype=np.int64)
    at_hi = np.full(q**n, -1, dtype=np.int64)
    per = max(1, _BLOCK // q**k)
    for start in range(0, len(rads), per):
        block = rads[start:start + per]
        points = fld.matmul_arr(linalg.code_vectors(q, k), np.stack([own.spaces[j].rows for j in block]))
        at = linalg.code_index(q, points.reshape(-1, n)).reshape(len(block), -1)
        np.minimum.at(at_lo, at, lo[block, None])
        np.maximum.at(at_hi, at, hi[block, None])
    holds = at_hi >= 0
    return holds, ~holds | (at_lo == at_hi)


@dataclass(frozen=True)
class VSetReport:
    """Point set {v : M_v != 0} and whether it happens to be a subspace."""

    subspace_flag: bool
    points: tuple[tuple[int, ...], ...]
    subspace: Optional[Subspace]


def v_set(M: FormSubspace, side: str, budget: Optional[int] = None) -> VSetReport:
    """V(M) on the chosen side, reported as found.

    The flag states the truth for this input; closure under addition is
    a theorem only under hypotheses, so it is never assumed.
    """
    dims = kernel_dims_all(M, side, budget)
    vecs = linalg.code_vectors(M.field.q, M.n)
    pts = vecs[dims > 0]
    if len(pts) == 0:
        return VSetReport(True, (), Subspace.zero(M.field, M.n))
    spanned = Subspace.from_rows(M.field, M.n, pts)
    flag = len(pts) == M.field.q**spanned.dim
    return VSetReport(
        flag,
        tuple(tuple(int(v) for v in p) for p in pts),
        spanned if flag else None,
    )


def annihilator_Au(M: FormSubspace, u) -> Subspace:
    """A_u = {w : f(u, w) = 0 for all f in M}: the null space of the rows u^T G_i."""
    return Subspace(M.field, M.n, linalg.right_null_space(M.field, kernel_matrices(M, [u], "left")[0].T))


def totally_isotropic(M: FormSubspace, U: Subspace) -> bool:
    """True iff every form of M vanishes on U x U (basis check suffices)."""
    if U.dim == 0:
        return True
    fld = M.field
    for f in M.basis:
        vals = fld.matmul_arr(fld.matmul_arr(U.rows, f.entries), U.rows.T)
        if vals.any():
            return False
    return True


@dataclass(frozen=True)
class IsotropicSet:
    """I(M)^x, the nonzero isotropic vectors in vector-index order."""

    vectors: tuple[tuple[int, ...], ...]


def isotropic_set(M: FormSubspace, budget: Optional[int] = None) -> IsotropicSet:
    """All nonzero w with f(w, w) = 0 for every f in M."""
    fld = M.field
    if fld.p == 2:
        raise ValueError("isotropic_set requires odd characteristic")
    if M.kind == KIND_GENERAL:
        raise ValueError("isotropic_set requires a symmetric (or alternating) subspace")
    q, n = fld.q, M.n
    charge(q**n, M.dim * n, budget, "isotropic_set")
    vecs = linalg.code_vectors(q, n)
    mask = np.ones(len(vecs), dtype=bool)
    for f in M.basis:
        tv = fld.matmul_arr(vecs, f.entries)
        quad = fld.sum_arr(fld.mul_arr(tv, vecs), axis=1)
        mask &= quad == 0
    mask[0] = False
    return IsotropicSet(tuple(tuple(int(v) for v in p) for p in vecs[mask]))


@dataclass(frozen=True)
class SpreadReport:
    """The distinct radicals of M^x and their covering/intersection status."""

    radicals: tuple[Subspace, ...]
    t: int
    covers: bool
    pairwise_trivial: bool


def partition_status(field: Field, spaces) -> tuple[bool, np.ndarray]:
    """(pairwise trivial, union) for the nonzero points of some subspaces of one V.

    The union is given as the ascending `code_index` of its points.  The
    nonzero point sets meet pairwise trivially iff no point is hit twice,
    so a space listed twice counts twice.  The points of all the spaces
    of one dimension come from one product per block of _BLOCK points.
    """
    q, spaces = field.q, list(spaces)
    at = [np.zeros(1, dtype=np.int64)]
    for k in sorted({sub.dim for sub in spaces}):
        rows = np.stack([sub.rows for sub in spaces if sub.dim == k])  # (S, k, n)
        coeffs, per = linalg.code_vectors(q, k), max(1, _BLOCK // q**k)
        for start in range(0, len(rows), per):
            points = field.matmul_arr(coeffs, rows[start:start + per])
            at.append(linalg.code_index(q, points.reshape(-1, rows.shape[2])))
    hits = np.bincount(np.concatenate(at))
    hits[0] = 0  # index 0 is the zero vector
    return bool((hits <= 1).all()), np.flatnonzero(hits)


def radical_spread(M: FormSubspace, budget: Optional[int] = None) -> SpreadReport:
    """Distinct radicals over M^x for an alternating constant rank subspace."""
    if M.kind != KIND_ALTERNATING:
        raise ValueError("radical_spread requires an alternating subspace")
    spec = rank_spectrum(M, budget)
    if not spec.is_constant_rank:
        raise ValueError(f"radical_spread requires constant rank, spectrum is {spec.ranks}")
    radicals = tuple(sorted(lines(M, budget)[3].spaces, key=Subspace.key))
    pairwise_trivial, union = partition_status(M.field, radicals)
    return SpreadReport(radicals, len(radicals), len(union) == M.field.q**M.n - 1, pairwise_trivial)


def induced_partition(M: FormSubspace, radicals) -> tuple[list[int], bool, bool]:
    """The subspaces M_i = {g in M : R_i <= rad_L g}, one per radical R_i.

    Returns their dimensions and whether their nonzero elements meet
    pairwise trivially and cover M^x.
    """
    fld, q, n, d = M.field, M.field.q, M.n, M.dim
    # one system per radical: its basis vectors' kernel matrices, padded with those of u = 0
    k = max((rad.dim for rad in radicals), default=0)
    us = np.zeros((len(radicals), k, n), dtype=np.int64)
    for u, rad in zip(us, radicals):
        u[:rad.dim] = rad.rows
    found = null_spaces(fld, kernel_matrices(M, us, "left").reshape(len(radicals), k * n, d))
    spaces = [found.spaces[i] for i in found.ids]
    pairwise_trivial, union = partition_status(fld, spaces)
    return [sub.dim for sub in spaces], pairwise_trivial, len(union) == q**d - 1


# ---------------------------------------------------------------------------
# Ambient kind spaces and seeded sampling


def kind_space_dim(n: int, kind: str) -> int:
    if kind == KIND_GENERAL:
        return n * n
    if kind == KIND_SYMMETRIC:
        return n * (n + 1) // 2
    if kind == KIND_ALTERNATING:
        return n * (n - 1) // 2
    raise ValueError(f"unknown kind {kind!r}")


def kind_basis(field: Field, n: int, kind: str):
    """The standard basis of the ambient space of the given kind, flattened row-major: (dim, n^2)."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if kind == KIND_GENERAL:
        return np.eye(n * n, dtype=np.int64)
    # symmetric: cells i <= j; alternating: i < j; both in row-major order
    i, j = np.triu_indices(n, 1 if kind == KIND_ALTERNATING else 0)
    out = np.zeros((len(i), n, n), dtype=np.int64)
    out[np.arange(len(i)), j, i] = 1 if kind == KIND_SYMMETRIC else field.neg(1)
    out[np.arange(len(i)), i, j] = 1
    return out.reshape(len(i), n * n)


def full_kind_space(field: Field, n: int, kind: str) -> FormSubspace:
    """Alt(V), Symm(V) or Bil(V) itself."""
    return FormSubspace(field, n, [GramForm(field, r.reshape(n, n)) for r in kind_basis(field, n, kind)])


def random_subspace(field: Field, n: int, d: int, kind: str, seed: int) -> FormSubspace:
    """Uniform d-dimensional subspace of the chosen kind space.

    Deterministic for a fixed seed: d independent coefficient vectors
    are drawn by rejection, and every d-subspace is hit by the same
    number of independent frames, so the span is uniform.
    """
    flat = kind_basis(field, n, kind)
    dim_kind = len(flat)
    if d > dim_kind:
        raise ValueError(f"d={d} exceeds dim of the {kind} space ({dim_kind})")
    rng = np.random.default_rng(seed)
    while True:
        rows = field.matmul_arr(rng.integers(0, field.q, size=(d, dim_kind), dtype=np.int64), flat)
        basis = [GramForm(field, r.reshape(n, n)) for r in rows]
        try:
            return FormSubspace(field, n, basis)
        except ValueError:  # dependent rows: draw again
            continue
