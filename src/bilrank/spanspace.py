"""Subspaces M of Bil(V): bases, enumeration, rank spectra, derived objects.

A FormSubspace is its read-only (d, n, n) stack of element codes, checked
in bulk (shape, codes, independence), with its kind read off the stack.
GramForms are made on demand only: by `basis`, `form_from_coefficients`
and `enumerate_nonzero`.  `span` takes a list of GramForms.

This is the one module that walks the elements of M, and `line_table` is
the walk: rank, radicals and Witt index are constant on the scalar lines
of M^x, so it lists one element per line, the codes of
`line_representatives`, the one listing of lines (code i -> base-q digits
of i, most significant first; a line's lead-1 vector has its least
code), and eliminates their Gram matrices through `_eliminate`, the one
loop that fills a preallocated eliminated stack, `_BLOCK` matrices per
`linalg.batch_rref`, so runs are reproducible and blocks are vectorised.
`enumerate_nonzero` lists all q^d - 1 elements by ascending code, one
GramForm each, for witness replay.

What is computed from M is stored on M, in its one store: `_stored`
runs a computation on the first call only and makes every array of the
result read-only, so no caller can change what a later call reads.

M is walked once.  `line_table` returns `(coeffs, ranks, reduced)`: the
lead-1 coefficients of the lines and the `batch_rref` of their Gram
matrices as one stack.  `rank_spectrum` counts its ranks q - 1 times each,
`lines` reads the right radicals off `reduced` and adds the left ones,
and the spectrum witness and the Witt census (its pivot columns) read it
too, with no second elimination.  The maximality scan reads the table of
its ambient kind space for the ranks of its candidates.

V is indexed by its lines too: M_{cu} = M_u, A_{cu} = A_u, and
radicals, spreads and I(M) are unions of lines, so `kernel_table`,
`max_rank_incidence`, `isotropic_set` and `partition_status` keep one
entry per line of V, in `line_representatives(q, n)` order; each M_u
system is eliminated once, by `kernel_table`.

One side stands for both where it can: a symmetric or alternating M has
G^T = +-G for every form, so its radicals and M_u agree on both sides,
and `lines`, `kernel_table` and `max_rank_incidence` solve one side for
such M (`M.two_sided` false) and return it for the other (`_solved_side`).

Null spaces are solved in bulk: `kernel_matrices` builds the systems of
M_u for a stack of vectors u, `null_spaces` eliminates any stack
(radicals, A_u, induced M_i), and `reduced_null_spaces` takes one
reduced stack, such as `line_table`'s or rows of `kernel_table`'s.  The
`linalg.null_vectors` of two matrices are equal exactly when their null
spaces are, so one `np.unique` over the stack finds the distinct null
spaces, and only those are reduced again, to canonical bases.  A
`NullSpaces` is its output: the stacked canonical bases of the distinct
spaces, their dimensions and an id per matrix, so the radical census,
the radical spread, the orthogonality checker and `max_rank_incidence`
index the stack and test each distinct radical once; `_line_blocks`
lists the lines of its spaces for that incidence and `partition_status`.

Operations that walk q^d or q^n objects take an explicit step budget
and raise BudgetExceeded instead of silently sampling: a theorem check
is either exhaustive or it did not run.  One step is one enumerated
object times one cell of its matrix (n^2 per form, d n per M_u system).
Each walk is charged once per call by the function that owns it
(`line_table`, `kernel_table` as `kernel_dims_all`, `isotropic_set`,
`enumerate_nonzero`, the maximality scan), so a stored result is charged
the same as the call that computed it; the A_u and M_i solves are not.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import linalg
from .formcore import GramForm, _code_array
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


def _frozen(result):
    """Make every array of a result read-only: an array, or a tuple (a NullSpaces too) of results; a scalar passes."""
    if isinstance(result, np.ndarray):
        result.setflags(write=False)
    elif isinstance(result, tuple):
        for part in result:
            _frozen(part)
    return result


def _stored(M: FormSubspace, key, compute):
    """The result stored on M under `key`: `compute()` runs on the first call only, and its arrays are frozen."""
    if key not in M._store:
        M._store[key] = _frozen(compute())
    return M._store[key]


def _kind_of_stack(field: Field, stack) -> str:
    """The kind of a (d, n, n) stack: alternating is G = -G^T with a zero diagonal, exact in characteristic 2."""
    transposed = stack.transpose(0, 2, 1)
    if (stack == field.neg_arr(transposed)).all() and not stack.diagonal(axis1=1, axis2=2).any():
        return KIND_ALTERNATING
    if (stack == transposed).all():
        return KIND_SYMMETRIC
    return KIND_GENERAL


class FormSubspace:
    """A subspace of Bil(V): a (d, n, n) stack of independent Gram matrices, held flattened and read-only."""

    __slots__ = ("field", "n", "kind", "_flat", "_store")

    def __init__(self, field: Field, n: int, forms):
        stack = _code_array(field, forms)
        if stack.shape == (0,):  # an empty list: the zero subspace
            stack = stack.reshape(0, n, n)
        if stack.ndim != 3 or stack.shape[1:] != (n, n):
            raise ValueError(f"basis must be a (d, {n}, {n}) stack of Gram matrices, got shape {stack.shape}")
        flat = stack.reshape(len(stack), n * n)
        # the pivot columns of the transpose are the rows independent of the rows before them
        pivots = linalg.rref(field, flat.T)[1] if len(flat) else []
        if len(pivots) < len(flat):
            i = min(set(range(len(flat))) - set(pivots))
            raise ValueError(f"basis row {i} is dependent on earlier rows")
        self.field = field
        self.n = n
        self.kind = _kind_of_stack(field, stack)
        self._flat = _frozen(flat)
        self._store = {}  # key -> a result computed from M, filled by `_stored`

    @property
    def basis(self) -> tuple[GramForm, ...]:
        """The basis forms, made from the stack on each call."""
        return tuple(GramForm(self.field, g) for g in self._flat.reshape(-1, self.n, self.n))

    @property
    def dim(self) -> int:
        return len(self._flat)

    @property
    def symmetric(self) -> bool:
        """M <= Symm(V).  Alternating forms are symmetric only in characteristic 2."""
        if self.kind == KIND_ALTERNATING:
            return self.field.p == 2 or not self.dim
        return self.kind == KIND_SYMMETRIC

    @property
    def two_sided(self) -> bool:
        """Can left and right differ?  Not where G^T = +-G for every form, i.e. M symmetric or alternating."""
        return self.kind == KIND_GENERAL

    def basis_flat(self):
        """Basis forms flattened row-major to a read-only (dim, n^2) array."""
        return self._flat

    def canonical_rows(self):
        """RREF of the flattened basis: the canonical representation of M."""
        return linalg.rref(self.field, self._flat)[0] if self.dim else self._flat

    def key(self):
        return tuple(tuple(int(v) for v in row) for row in self.canonical_rows())

    def form_from_coefficients(self, coeffs) -> GramForm:
        if len(coeffs) != self.dim:
            raise ValueError(f"expected {self.dim} coefficients")
        return GramForm(self.field, flat_forms_for(self, [coeffs])[0].reshape(self.n, self.n))

    def subspace_from_coefficients(self, rows) -> "FormSubspace":
        """The subspace of M whose basis has the given independent coefficient rows."""
        flats = flat_forms_for(self, np.asarray(rows, dtype=np.int64).reshape(len(rows), self.dim))
        return FormSubspace(self.field, self.n, flats.reshape(-1, self.n, self.n))

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
        return f"FormSubspace(GF({self.field.q}), n={self.n}, dim={self.dim}, kind={self.kind})"


def span(forms, field: Optional[Field] = None, n: Optional[int] = None) -> FormSubspace:
    """Subspace spanned by arbitrary GramForms, with a canonical reduced basis."""
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
    return FormSubspace(field, n, rows.reshape(-1, n, n))


# ---------------------------------------------------------------------------
# Enumeration


def flat_forms_for(M: FormSubspace, coeffs):
    """Flattened forms for a block of coefficient vectors: (B, n^2)."""
    return M.field.matmul_arr(coeffs, M._flat)


def line_representatives(q: int, k: int):
    """The ascending codes of the lead-1 vectors of K^k: one representative per line, the zero vector not one.

    With its lead at position k - 1 - j, such a vector has code q^j + t
    for some t < q^j, the least code on its line.
    """
    parts = [np.arange(q**j, 2 * q**j, dtype=np.int64) for j in range(k)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def enumerate_nonzero(
    M: FormSubspace, budget: Optional[int] = None
) -> Iterator[tuple[tuple[int, ...], GramForm]]:
    """Yield (coefficients, GramForm) for each of the q^d - 1 nonzero elements, by ascending code."""
    q, d, n = M.field.q, M.dim, M.n
    charge(q**d, n * n, budget, "enumerate_nonzero")
    for start in range(1, q**d, _BLOCK):
        coeffs = linalg.code_vectors(q, d, range(start, min(start + _BLOCK, q**d)))
        for row_c, row_f in zip(coeffs, flat_forms_for(M, coeffs)):
            yield tuple(int(c) for c in row_c), GramForm(M.field, row_f.reshape(n, n))


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
    """(coeffs, ranks, reduced) of the scalar lines of M^x, in `line_representatives(q, d)` order.

    `coeffs` is the (L, d) array of lead-1 coefficient vectors, L = (q^d - 1)/(q - 1), and `ranks, reduced`
    the `linalg.batch_rref` of their (L, n, n) Gram matrices.  Charged under `what` on every call.
    """
    charge(M.field.q**M.dim, M.n * M.n, budget, what)
    return _stored(M, "line_table", lambda: _line_table(M))


def _line_table(M: FormSubspace):
    q, d, n = M.field.q, M.dim, M.n
    coeffs = linalg.code_vectors(q, d, line_representatives(q, d))
    reduced, ranks = _eliminate(M.field, len(coeffs), (n, n),
                                lambda at: flat_forms_for(M, coeffs[at]).reshape(-1, n, n))
    return coeffs, ranks, reduced


def _eliminate(field: Field, count: int, shape, block):
    """`linalg.batch_rref` of `count` matrices of `shape` into preallocated arrays; `block(at)` makes those at `at`."""
    reduced, ranks = np.empty((count, *shape), dtype=np.int64), np.empty(count, dtype=np.int64)
    for start in range(0, count, _BLOCK):
        at = slice(start, start + _BLOCK)
        reduced[at], ranks[at] = linalg.batch_rref(field, block(at))
    return reduced, ranks


def rank_spectrum(M: FormSubspace, budget: Optional[int] = None) -> RankSpectrum:
    """Exact rank spectrum of M: each scalar line holds q - 1 elements of its rank."""
    if M.dim == 0:
        return RankSpectrum((), ())
    ranks = line_table(M, budget, "rank_spectrum")[1]  # charged on every call, stored or not
    return _stored(M, "rank_spectrum", lambda: _rank_spectrum(M.field.q, M.n, ranks))


def _rank_spectrum(q: int, n: int, ranks) -> RankSpectrum:
    counts = np.bincount(ranks, minlength=n + 1) * (q - 1)
    present = [r for r in range(1, n + 1) if counts[r]]
    return RankSpectrum(tuple(present), tuple((r, int(counts[r])) for r in present))


def lines(M: FormSubspace, budget: Optional[int] = None):
    """(coeffs, ranks, left, right): the rows of `line_table` and the `NullSpaces` of their radicals.

    Where G^T = +-G, `left` is `right`.
    """
    coeffs, ranks, reduced = line_table(M, budget, "radical census")
    return _stored(M, "lines", lambda: (coeffs, ranks, *_radicals(M, coeffs, ranks, reduced)))


def _radicals(M: FormSubspace, coeffs, ranks, reduced) -> tuple[NullSpaces, NullSpaces]:
    right = reduced_null_spaces(M.field, reduced, ranks)  # rad_R G is the null space of G
    if not M.two_sided:
        return right, right
    # rad_L G is the null space of G^T
    return null_spaces(M.field, flat_forms_for(M, coeffs).reshape(-1, M.n, M.n).transpose(0, 2, 1)), right


class NullSpaces(NamedTuple):
    """The right null spaces of a stack of matrices, each distinct one held once, in order of first appearance.

    Space j has the canonical basis `bases[j, :dims[j]]`, and the other rows of the (S, c, c)
    stack are zero.  `ids[i]` indexes the null space of matrix i and `first[j]` is the first matrix whose
    null space is space j.  Every field is read-only.
    """

    bases: np.ndarray
    dims: np.ndarray
    ids: np.ndarray
    first: np.ndarray


def null_spaces(field: Field, mats) -> NullSpaces:
    """The right null spaces of a (B, rows, c) stack, eliminated in blocks of _BLOCK matrices."""
    return reduced_null_spaces(field, *_eliminate(field, len(mats), mats.shape[1:], lambda at: mats[at]))


def reduced_null_spaces(field: Field, red, ranks) -> NullSpaces:
    """The right null spaces of a (B, rows, cols) stack given as its `linalg.batch_rref` (red, ranks).

    The `linalg.null_vectors` of two matrices are equal exactly when their
    null spaces are, so one `np.unique` over their bytes finds the distinct
    spaces, and only those are reduced to canonical bases by a second
    `batch_rref`.
    """
    vecs, cols = linalg.null_vectors(field, red, ranks), red.shape[2]
    # a view, as vecs is a fresh contiguous stack; with no columns every null space is {0}, under one key
    flat = vecs.reshape(len(vecs), cols * cols) if cols else np.zeros((len(vecs), 1), dtype=np.int64)
    keys = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).reshape(len(vecs))
    _, at, inverse = np.unique(keys, return_index=True, return_inverse=True)
    first = np.sort(at)  # the distinct spaces in order of first appearance
    bases, dims = _eliminate(field, len(first), (cols, cols), lambda s: vecs[first[s]])
    return _frozen(NullSpaces(bases, dims, np.searchsorted(first, at)[inverse.reshape(-1)], first))


# ---------------------------------------------------------------------------
# Kernels M_u, the set I(M), A_u, and radical spreads


def _solved_side(M: FormSubspace, side: str) -> str:
    """The side solved for `side`: itself where M is two-sided, else the left, which stands for both."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return side if M.two_sided else "left"


def kernel_matrices(M: FormSubspace, vecs, side: str):
    """(B, n, d) stack whose right null spaces are the coefficient spaces of M_u, u a row of vecs.

    Column k of the matrix for u is u^T G_k (left side) or G_k u (right side).
    """
    _solved_side(M, side)  # raises on an unknown side
    fld, n = M.field, M.n
    stack = M._flat.reshape(-1, n, n)  # (d, n, n)
    vecs = np.asarray(vecs, dtype=np.int64).reshape(-1, n)
    if side == "left":
        mats = fld.matmul_arr(vecs[:, None, None, :], stack[None, :, :, :])[:, :, 0, :]
    else:
        mats = fld.matmul_arr(stack[None, :, :, :], vecs[:, None, :, None])[:, :, :, 0]
    return mats.transpose(0, 2, 1)


def kernel_at(M: FormSubspace, u, side: str = "left") -> FormSubspace:
    """M_u: the forms of M whose chosen radical contains u, solved for one u.

    Column k of its n x d system is u^T G_k (left side) or G_k u (right side), summed in scalar field ops.
    """
    _solved_side(M, side)  # raises on an unknown side
    fld, n, u = M.field, M.n, [int(c) for c in u]
    if len(u) != n:
        raise ValueError(f"u must have {n} coordinates, got {len(u)}")
    stack = M._flat.reshape(-1, n, n)
    forms = (stack.transpose(0, 2, 1) if side == "left" else stack).tolist()  # u^T G = G^T u
    system = [[functools.reduce(fld.add, map(fld.mul, g[i], u), 0) for g in forms] for i in range(n)]
    return M.subspace_from_coefficients(linalg.right_null_space(fld, np.reshape(system, (n, M.dim))))


def kernel_table(M: FormSubspace, side: str, budget: Optional[int] = None):
    """(dims, reduced): dim M_u and the reduced `kernel_matrices` system per line of V, stored per solved side."""
    charge(M.field.q**M.n, M.dim * M.n, budget, "kernel_dims_all")
    side = _solved_side(M, side)
    return _stored(M, ("kernel_table", side), lambda: _kernel_table(M, side))


def _kernel_table(M: FormSubspace, side: str):
    vecs = linalg.code_vectors(M.field.q, M.n, line_representatives(M.field.q, M.n))
    reduced, ranks = _eliminate(M.field, len(vecs), (M.n, M.dim), lambda at: kernel_matrices(M, vecs[at], side))
    return M.dim - ranks, reduced


def kernel_dims_all(M: FormSubspace, side: str, budget: Optional[int] = None):
    """dim M_u per line of V, solved at its lead-1 u: the (L,) `dims` of `kernel_table`."""
    return kernel_table(M, side, budget)[0]


def max_rank_incidence(M: FormSubspace, side: str, budget: Optional[int] = None):
    """Which M_u hold an element of the maximal rank m, and is its radical shared?

    Returns two (L,) boolean arrays, one entry per line of V as in
    `kernel_dims_all`: whether M_u holds a rank-m element, and whether all
    rank-m elements of M_u have the same radical on the other side
    (vacuously true when there are none).  M_u = {f in M : u in rad f} on
    the chosen side, so both are incidences between the lines of V and the
    radicals of the rank-m lines, stored per solved side and charged by `lines`.
    """
    _, ranks, left, right = lines(M, budget)
    side = _solved_side(M, side)
    own, other = (left, right) if side == "left" else (right, left)
    return _stored(M, ("max_rank_incidence", side), lambda: _max_rank_incidence(M, ranks, own, other))


def _max_rank_incidence(M: FormSubspace, ranks, own: NullSpaces, other: NullSpaces):
    q, n = M.field.q, M.n
    m = int(ranks.max(initial=0))
    top = ranks == m
    # least and greatest other-side radical id over the rank-m lines of each own-side radical
    lo = np.full(len(own.dims), len(other.dims), dtype=np.int64)
    hi = np.full(len(own.dims), -1, dtype=np.int64)
    np.minimum.at(lo, own.ids[top], other.ids[top])
    np.maximum.at(hi, own.ids[top], other.ids[top])
    # spread them over the lines of those radicals, all of dim n - m
    rads = np.flatnonzero(hi >= 0)
    at_lo = np.full((q**n - 1) // (q - 1), len(other.dims), dtype=np.int64)
    at_hi = np.full(len(at_lo), -1, dtype=np.int64)
    for start, at in _line_blocks(M.field, own.bases[rads], n - m):
        block = rads[start:start + len(at)]
        np.minimum.at(at_lo, at, lo[block, None])
        np.maximum.at(at_hi, at, hi[block, None])
    holds = at_hi >= 0
    return holds, ~holds | (at_lo == at_hi)


def isotropic_set(M: FormSubspace, budget: Optional[int] = None):
    """I(M) by its lines: an (L,) boolean mask over `line_representatives(q, n)`, true where f(w, w) = 0 for all f."""
    fld = M.field
    if fld.p == 2:
        raise ValueError("isotropic_set requires odd characteristic")
    if M.kind == KIND_GENERAL:
        raise ValueError("isotropic_set requires a symmetric (or alternating) subspace")
    charge(fld.q**M.n, M.dim * M.n, budget, "isotropic_set")
    return _stored(M, "isotropic_set", lambda: _isotropic_set(M))


def _isotropic_set(M: FormSubspace):
    fld, q, n = M.field, M.field.q, M.n
    reps, stack = line_representatives(q, n), M._flat.reshape(-1, n, n)
    per = max(1, min(_BLOCK, len(reps)) // max(M.dim, 1))  # d forms x per lines: at most _BLOCK, or L, products
    parts = [np.zeros(0, dtype=bool)]
    for start in range(0, len(reps), per):
        w = linalg.code_vectors(q, n, reps[start:start + per])  # lead-1 w, as f(cw, cw) = c^2 f(w, w)
        parts.append(~fld.sum_arr(fld.mul_arr(fld.matmul_arr(w, stack), w), axis=2).any(axis=0))  # all f_k(w, w) = 0
    return np.concatenate(parts)


@dataclass(frozen=True)
class SpreadReport:
    """The distinct radicals of M^x, as the `NullSpaces` of the lines, and their covering/intersection status."""

    radicals: NullSpaces
    t: int
    covers: bool
    pairwise_trivial: bool


def _line_blocks(field: Field, bases, k: int):
    """Yield (start, at) over the k-dimensional spaces of an (S, c, c) basis stack, about _BLOCK lines at a time.

    `at[i]` holds the positions in `line_representatives(q, c)` of the lines of the span of `bases[start + i, :k]`,
    which must be in reduced row echelon form, as every `NullSpaces` basis is: then lead-1 combinations are lead-1.
    """
    q, c = field.q, bases.shape[2]
    coeffs, reps = linalg.code_vectors(q, k, line_representatives(q, k)), line_representatives(q, c)
    per = max(1, _BLOCK // max(len(coeffs), 1))
    for start in range(0, len(bases), per):
        lead_one = field.matmul_arr(coeffs, bases[start:start + per, :k])
        yield start, np.searchsorted(reps, linalg.code_index(q, lead_one.reshape(-1, c))).reshape(len(lead_one), -1)


def partition_status(field: Field, bases, dims) -> tuple[bool, np.ndarray]:
    """(pairwise trivial, union) for the spaces `bases[j, :dims[j]]` of one V, each basis in reduced form.

    The union is a boolean mask over the lines of V, in `line_representatives` order.
    Two subspaces meet trivially iff they share no line, so the spaces meet pairwise
    trivially iff no line is hit twice, and a space listed twice counts twice.
    """
    at = [np.zeros(0, dtype=np.int64)]
    for k in sorted(set(dims.tolist())):
        at.extend(ids.reshape(-1) for _, ids in _line_blocks(field, bases[dims == k], k))
    hits = np.bincount(np.concatenate(at), minlength=(field.q**bases.shape[2] - 1) // (field.q - 1))
    return bool((hits <= 1).all()), hits > 0


def radical_spread(M: FormSubspace, budget: Optional[int] = None) -> SpreadReport:
    """Distinct radicals over M^x for an alternating constant rank subspace."""
    if M.kind != KIND_ALTERNATING:
        raise ValueError("radical_spread requires an alternating subspace")
    spec = rank_spectrum(M, budget)
    if not spec.is_constant_rank:
        raise ValueError(f"radical_spread requires constant rank, spectrum is {spec.ranks}")
    radicals = lines(M, budget)[3]
    pairwise_trivial, union = _stored(M, "radical_spread",
                                      lambda: partition_status(M.field, radicals.bases, radicals.dims))
    return SpreadReport(radicals, len(radicals.dims), bool(union.all()), pairwise_trivial)


def induced_partition(M: FormSubspace, radicals: NullSpaces) -> tuple[list[int], bool, bool]:
    """The subspaces M_i = {g in M : R_i <= rad_L g}, one per radical R_i.

    Returns their dimensions and whether their nonzero elements meet
    pairwise trivially and cover M^x.
    """
    fld, n, d = M.field, M.n, M.dim
    # one system per radical: the kernel matrices of its basis rows, the zero rows past its dim adding none
    k = int(radicals.dims.max(initial=0))
    found = null_spaces(fld, kernel_matrices(M, radicals.bases[:, :k], "left").reshape(len(radicals.dims), k * n, d))
    pairwise_trivial, union = partition_status(fld, found.bases[found.ids], found.dims[found.ids])
    return found.dims[found.ids].tolist(), pairwise_trivial, bool(union.all())


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
    return FormSubspace(field, n, kind_basis(field, n, kind).reshape(-1, n, n))


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
        try:
            return FormSubspace(field, n, rows.reshape(d, n, n))
        except ValueError:  # dependent rows: draw again
            continue
